"""Lebesgue, Sobolev, Besov, space-time and weighted norms.

All norms are discrete realizations of their continuum counterparts under
the package's transform normalization: L^p sums carry the cell volume,
spectral sums carry 1/L^n, and the two agree through Parseval for p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import Field, _stack_axes, to_physical, to_spectral
from .grids import Grid

__all__ = [
    "SobolevSpec",
    "lp_norm",
    "l2_norm",
    "sobolev_norm",
    "LittlewoodPaleyPartition",
    "besov_norm",
    "space_time_norm",
    "weight_bracket",
    "weighted_norm",
]

_MEAN_MODE_TOL = 1e-12


@dataclass(frozen=True)
class SobolevSpec:
    """Sobolev regularity: exponent s, homogeneous (|xi|^s) or not."""

    s: float
    homogeneous: bool = False

    def multiplier(self, grid: Grid) -> np.ndarray:
        """Multiplier values at every grid mode.

        The homogeneous multiplier at xi = 0 is set to 0: the continuum
        limit for s > 0, the mean-free convention for s = 0.  For s < 0 the
        zero mode must be handled by the caller, which is why sobolev_norm
        rejects fields with mean there.
        """
        return self._at(grid.xi_norm)

    def _at(self, xi: np.ndarray) -> np.ndarray:
        """The multiplier at |xi| values xi of any shape (an octant corner)."""
        if not self.homogeneous:
            return (1.0 + xi**2) ** (self.s / 2.0)
        with np.errstate(divide="ignore"):
            m = np.where(xi > 0, xi, 1.0) ** self.s
        m = np.where(xi > 0, m, 0.0)
        return m


def lp_norm(f: Field, p: float) -> float:
    """(sum |f|^p dx^n)^(1/p); max |f| for p = inf."""
    if p < 1:
        raise ValueError(f"L^p exponent must satisfy p >= 1, got {p}")
    vals = np.abs(to_physical(f).values)
    if math.isinf(p):
        return float(vals.max()) if vals.size else 0.0
    return float((np.sum(vals**p) * f.grid.cell_volume) ** (1.0 / p))


def l2_norm(f: Field) -> float:
    """L^2 norm, computed in whichever representation the field carries."""
    if f.is_spectral:
        return float(np.sqrt(np.sum(np.abs(f.values) ** 2) / f.grid.L**f.grid.n))
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume))


def sobolev_norm(f: Field, spec: SobolevSpec) -> float:
    """Sobolev norm sqrt(sum |m(xi)|^2 |f_hat(xi)|^2 / L^n).

    The s = 0 inhomogeneous case coincides with the L^2 norm.  Homogeneous
    norms with s < 0 require the zero mode to vanish (relative 1e-12).
    """
    m = np.abs(spec.multiplier(f.grid))
    return float(_sobolev_norms(to_spectral(f).values[None], f.grid, spec, m)[0])


def _sobolev_norms(
    coeffs: np.ndarray, grid: Grid, spec: SobolevSpec, m: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """sobolev_norm of each field of a (B, *grid.shape) coefficient stack,
    with m = |spec.multiplier(grid)| built once by the caller.  A stack of
    DCT-I octant coefficients passes m on the k <= N/2 corner and the mode
    multiplicities as ``weights``."""
    axes = _stack_axes(grid)
    zero_mode = (slice(None),) + (0,) * grid.n
    if spec.homogeneous and spec.s < 0:
        power = np.abs(coeffs) ** 2
        if weights is not None:
            power *= weights
        total = np.sqrt(np.sum(power, axis=axes))
        zero = np.abs(coeffs[zero_mode])
        bad = (total > 0) & (zero > _MEAN_MODE_TOL * total)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                "homogeneous norm with s < 0 requires a mean-free field "
                f"(zero-mode fraction {zero[i] / total[i]:.3e})"
            )
        coeffs = coeffs.copy()
        coeffs[zero_mode] = 0.0
    # in place: a (B, *shape) product with a grid-shaped factor gets no
    # temporary reuse from numpy
    weighted = np.abs(coeffs)
    weighted *= m
    weighted **= 2
    if weights is not None:
        weighted *= weights
    return np.sqrt(np.sum(weighted, axis=axes) / grid.L**grid.n)


class LittlewoodPaleyPartition:
    """Dyadic frequency decomposition of a grid.

    Shell j collects the modes with 0.75 * 2^j <= |xi| < 1.5 * 2^j; the
    shells tile (0.75, inf) exactly, and everything below 0.75 (including
    the zero mode) forms the low-frequency block with weight 2^(0*s) = 1.
    Indicator blocks make the partition of unity exact on the grid and let
    a field supported in a single shell reproduce 2^(js) ||f||_{L^r} with
    no edge corrections.
    """

    LOW = -1

    def __init__(self, grid: Grid):
        self.grid = grid
        xi = grid.xi_norm
        with np.errstate(divide="ignore"):
            j = np.floor(np.log2(np.where(xi > 0, xi, 1.0) / 0.75)).astype(int)
        self.block_index = np.where(xi < 0.75, self.LOW, j)
        present = np.unique(self.block_index)
        self.shell_indices = [int(b) for b in present if b != self.LOW]

    def partition_residual(self) -> float:
        """Max deviation of the summed block indicators from 1."""
        total = np.zeros(self.grid.shape)
        for j in [self.LOW] + self.shell_indices:
            total += self.block_index == j
        return float(np.max(np.abs(total - 1.0)))

    def project(self, f: Field, j: int) -> Field:
        spec = to_spectral(f)
        mask = self.block_index == j
        return Field(self.grid, spec.values * mask, "spectral")

    def weights(self, s: float) -> np.ndarray:
        """Effective per-mode Besov weight 2^(js) (1 on the low block)."""
        j = np.where(self.block_index == self.LOW, 0, self.block_index)
        return 2.0 ** (j * s)

    def frame_bounds(self, s: float) -> tuple[float, float]:
        """(c, C) with c*||f||_{H^s} <= ||f||_{B^s_{2,2}} <= C*||f||_{H^s}."""
        h = SobolevSpec(s, homogeneous=False).multiplier(self.grid)
        ratio = self.weights(s) / h
        return float(ratio.min()), float(ratio.max())


@lru_cache(maxsize=32)
def dyadic_partition(grid: Grid) -> LittlewoodPaleyPartition:
    return LittlewoodPaleyPartition(grid)


def besov_norm(f: Field, s: float, r: float) -> float:
    """Inhomogeneous Besov norm with second index 2.

    l^2 over dyadic blocks of 2^(js) ||Delta_j f||_{L^r}, the low-frequency
    block entering with weight 1.
    """
    if r < 1:
        raise ValueError(f"Besov space exponent must satisfy r >= 1, got {r}")
    part = dyadic_partition(f.grid)
    spec = to_spectral(f)
    total = 0.0
    for j in [part.LOW] + part.shell_indices:
        block = part.project(spec, j)
        if not np.any(block.values):
            continue
        w = 1.0 if j == part.LOW else 2.0 ** (j * s)
        total += (w * lp_norm(block, r)) ** 2
    return float(np.sqrt(total))


def space_time_norm(traj, q: float, spatial: Callable[[Field], float]) -> float:
    """(int ||u(t)||^q dt)^(1/q) over a trajectory, trapezoid in time.

    Args:
        traj: a (times, snapshots) pair.
        q: time exponent, q >= 1 or inf (max over snapshots).
        spatial: callable evaluating the spatial norm of one snapshot.
    """
    times, snaps = traj
    if len(snaps) == 0:
        raise ValueError("empty trajectory")
    vals = np.array([spatial(u) for u in snaps], dtype=float)
    if math.isinf(q):
        return float(vals.max())
    if q < 1:
        raise ValueError(f"time exponent must satisfy q >= 1, got {q}")
    if len(snaps) == 1:
        return 0.0
    return float(np.trapezoid(vals**q, np.asarray(times)) ** (1.0 / q))


def weight_bracket(r: np.ndarray, delta: float) -> np.ndarray:
    """The weight |x|^(1-delta) + |x|^(1+delta)."""
    r = np.abs(np.asarray(r, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = r ** (1.0 - delta) + r ** (1.0 + delta)
    return out


def weighted_norm(f, delta: float, q: float, sign: int) -> float:
    """L^2 norm of ([x]_delta)^(sign/q) * f.

    Accepts either a Field (weight |x| measured from the grid center) or a
    radial profile with ``r``, ``values`` and ``dr`` attributes (measure
    4 pi r^2 dr).  Samples where the weight is non-finite (the origin for
    the singular sign) are dropped; they carry zero measure in the
    continuum integral.
    """
    samples = to_physical(f).values if isinstance(f, Field) else f.values
    return float(_weighted_l2(f.grid if isinstance(f, Field) else f, delta, q, sign)(samples))


def _sample_radii(grid: Grid, weights: np.ndarray | None) -> np.ndarray:
    """|x| at the samples of a fields._basis with these weights: Grid.radii,
    or on the octant (indices N/2..N-1, 0 per axis) the same expression."""
    if weights is None:
        return grid.radii
    x = np.r_[grid.axis[grid.N // 2 :], grid.axis[0]]
    return np.sqrt(sum(c**2 for c in np.meshgrid(*[x] * grid.n, indexing="ij", sparse=True)))


def _weighted_l2(where, delta: float, q: float, sign: int,
                 weights: np.ndarray | None = None) -> Callable:
    """The map samples -> weighted_norm of the samples on the Grid ``where``
    (on its octant, given the multiplicities of fields._basis) or at the
    radii of the profile ``where``, with the weight built once; the norm of
    each row of a (B, ...) stack of samples, B of them."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if q < 1:
        raise ValueError(f"exponent must satisfy q >= 1, got {q}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if isinstance(where, Grid):
        radii = _sample_radii(where, weights)
        measure = where.cell_volume if weights is None else where.cell_volume * weights
    else:
        radii, measure = where.r, 4.0 * np.pi * where.r**2 * where.dr
    with np.errstate(divide="ignore", invalid="ignore"):
        w = weight_bracket(radii, delta) ** (sign / q)
    w[~np.isfinite(w)] = 0.0  # dropped: the origin carries no measure
    axes = tuple(range(-w.ndim, 0))

    def norm(samples) -> np.ndarray:
        integrand = np.abs(samples)  # the one temporary, worked in place
        integrand *= w
        np.square(integrand, out=integrand)
        integrand *= measure
        return np.sqrt(np.sum(integrand, axis=axes))

    return norm
