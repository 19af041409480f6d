"""Time evolution of the dissipative half-wave equation.

The flow i du/dt - D u = -i |u|^(p-1) u is split into two exactly solvable
pieces: the unitary group U(tau) = exp(-i tau D), a pure Fourier multiplier,
and the pointwise amplitude decay du/dt = -|u|^(p-1) u, whose modulus obeys
rho' = -rho^p while the phase is frozen.  Strang composition of the two is
second order and, because the nonlinear substep contracts the modulus
pointwise and the linear substep is an L^2 isometry, the discrete L^2 norm
never increases regardless of the step size.

``evolve`` is the one stepping kernel, and it runs Strang; ``strang_step``
is a one-step run of it, ``lie_step`` the plain first-order composition.
``evolve`` keeps the state as unscaled spectral coefficients, builds U(dt)
and U(dt/2) once per run with the 2/3 dealias mask (odd integer p <= 5)
folded in, and merges the half-steps of adjacent steps, so a step costs two
FFTs; a stored snapshot closes its half-step into a block of stored
snapshots, inverse transformed once when the block is full.  A block holds
max(1, fields._BLOCK_BYTES // bytes of the stored row) rows, the row being
what the run stores (an octant or the full grid): 256 KiB, so the block and
the four or so block-sized temporaries of a table pass fit in L2.  The
per-step L^2 check uses Parseval on the coefficients.  Mirror-symmetric data
with n >= 2 run and are stored on the (N/2+1)^n octant under a DCT-I pair
(fields._basis), about a quarter of the cost at 64^3; 1-d data keep the FFT pair.
The run keeps no other copy of u0 and builds |xi| and the mask only at the
stored modes, so an octant run holds no full-grid array.  With the 2/3 mask
on, only the [0, N/3]^n octant corner survives a step, so every transform
after step 1's inverse takes fields._corner_pair: the same bits from the
70 % of the 1-d lines that touch it at 64^3 (83 % in 2-d).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from . import fields
from .fields import (
    _BLOCK_BYTES,
    Field,
    _Basis,
    _basis,
    _multiply_spectral,
    to_physical,
)

__all__ = [
    "StepperConfig",
    "Trajectory",
    "linear_step",
    "nonlinear_step",
    "strang_step",
    "lie_step",
    "evolve",
    "duhamel_residual",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters.

    Attributes:
        p: nonlinearity power, finite, > 1.
        dt: time step, finite, > 0.
        T: final time, finite, >= 0 (T = 0 yields only the initial snapshot).
        snapshot_stride: store every stride-th step.
        nonlinear: disable to evolve with the unitary group only.
    """

    p: float
    dt: float
    T: float
    snapshot_stride: int = 1
    nonlinear: bool = True

    def __post_init__(self):
        for name in ("p", "dt", "T"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.p > 1:
            raise ValueError(f"nonlinearity power must exceed 1, got {self.p}")
        if not self.dt > 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.T < 0:
            raise ValueError(f"final time must be nonnegative, got {self.T}")
        if self.T > 0 and self.dt > self.T * (1 + 1e-12):
            raise ValueError(f"dt = {self.dt} exceeds final time T = {self.T}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be a positive integer")

    @property
    def n_steps(self) -> int:
        """Steps to T; evolve stores t = 0 and every snapshot_stride-th step."""
        return int(math.ceil(self.T / self.dt - 1e-12)) if self.T > 0 else 0

    @property
    def dealias_active(self) -> bool:
        """The 2/3-rule truncation after each nonlinear substep: odd integer p <= 5."""
        return float(self.p).is_integer() and int(self.p) % 2 == 1 and self.p <= 5


class _Snapshots(Sequence):
    """The snapshots of a run of evolve on ``grid``: rows 0, 1, ... of the
    (B, *shape) ``blocks`` are their samples under ``basis`` (fields._basis
    of u0), and they are the only copy of the run's data, u0 included.
    Item k is its row folded to a full-grid Field (a view unless
    octant-resident), item 0 like every other."""

    def __init__(self, grid, basis: _Basis, blocks: list[np.ndarray]):
        self.grid, self.basis, self.blocks = grid, basis, blocks

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __getitem__(self, k: int) -> Field:
        k, size = range(len(self))[k], len(self.blocks[0])
        return Field(self.grid, self.blocks[k // size][k % size][self.basis.fold])


@dataclass
class Trajectory:
    """Uniformly sampled (time, Field) snapshots from one evolution; ``tables``
    caches diagnostics.diagnostics_table by Sobolev index.  snapshots are
    the _Snapshots evolve stores, which own the initial data: snapshot 0 is
    the fold of its stored row, equal to u0 (up to the sign of a mirrored
    zero).  Only indexing snapshots folds: every reader of a run reads the
    stored rows through blocks() or the table, and grid is the stored grid."""

    config: StepperConfig
    times: np.ndarray
    snapshots: _Snapshots
    tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self):
        return self.snapshots.grid

    @property
    def linear(self) -> bool:
        return not self.config.nonlinear

    def blocks(self, start: int = 0, stop: int | None = None):
        """Yield (i, basis) over stored snapshots start..stop-1, basis.samples
        the samples of snapshots i, i+1, ... as one (B, ...) array, a view of
        a block evolve stored.  Callers never write into the samples."""
        stored = self.snapshots
        i, stop = 0, len(stored) if stop is None else stop
        for block in stored.blocks:
            if start < i + len(block) and i < stop:
                rows = block[max(start - i, 0) : stop - i]
                yield max(i, start), stored.basis._replace(samples=rows)
            i += len(block)


def linear_step(f: Field, tau: float) -> Field:
    """Apply the unitary propagator U(tau) = exp(-i tau |xi|).

    Every spectral magnitude is preserved, so all Sobolev norms are
    invariant up to roundoff.  The phase is even in xi by construction, so
    the parity detection of apply_multiplier is skipped.
    """
    return _multiply_spectral(
        f, np.exp(-1j * tau * f.grid.xi_norm), even=True,
        representation=f.representation,
    )


def nonlinear_step(f: Field, tau: float, p: float) -> Field:
    """Exact flow of du/dt = -|u|^(p-1) u over time tau.

    Pointwise u <- u * (1 + (p-1) |u|^(p-1) tau)^(-1/(p-1)): the phase is
    unchanged and the modulus is nonincreasing.  Defined for all tau >= 0.
    """
    if tau < 0:
        raise ValueError(f"substep duration must be nonnegative, got {tau}")
    return Field(f.grid, _decay(to_physical(f).values, tau, p), "physical")


def _decay(v: np.ndarray, tau: float, p: float) -> np.ndarray:
    """nonlinear_step on a bare sample array (a full grid or an octant)."""
    # in place: a fresh temporary per operation costs more than the arithmetic
    factor = np.abs(v)
    factor **= p - 1.0
    factor *= (p - 1.0) * tau
    factor += 1.0
    factor **= -1.0 / (p - 1.0)
    return v * factor


def _dealias_mask(grid, modes: tuple = ()) -> np.ndarray:
    """The 2/3-rule mask at the modes ``modes`` indexes, as Grid.xi_norm_at."""
    keep = np.abs(np.fft.fftfreq(grid.N, d=1.0 / grid.N)) <= grid.N // 3
    axes = np.meshgrid(*[keep] * grid.n, indexing="ij", sparse=True)
    return reduce(np.logical_and, [k[modes] for k in axes])


def _sum_squares(coeffs: np.ndarray, weights: np.ndarray | None = None) -> float:
    # sum w |c|^2 over the real view; einsum keeps this off the BLAS thread pool
    x = coeffs.reshape(-1).view(np.float64)
    if weights is None:
        return float(np.einsum("i,i->", x, x))
    return float(np.einsum("i,i,i->", weights, x, x))


def strang_step(f: Field, cfg: StepperConfig) -> Field:
    """One Strang step: U(dt/2), then the exact nonlinear flow over dt,
    then U(dt/2).  With the nonlinearity disabled this is exactly U(dt)."""
    return evolve(f, replace(cfg, T=cfg.dt, snapshot_stride=1)).snapshots[-1]


def lie_step(f: Field, cfg: StepperConfig) -> Field:
    """One first-order Lie step, the plain composition: the exact nonlinear
    flow over dt, then U(dt) times the 2/3 mask when the rule applies."""
    phase = np.exp(-1j * cfg.dt * f.grid.xi_norm)
    if cfg.nonlinear:
        f = nonlinear_step(f, cfg.dt, cfg.p)
        if cfg.dealias_active:
            phase *= _dealias_mask(f.grid)
    return _multiply_spectral(f, phase, even=True, representation="physical")


def evolve(u0: Field, cfg: StepperConfig) -> Trajectory:
    """March u0 to time T by Strang steps, storing snapshots every
    snapshot_stride steps.

    The state between steps is the unscaled coefficient array fftn(u), so
    one step is an inverse FFT, the nonlinear substep, an FFT and one
    multiply by U(dt) with the 2/3 mask folded in; the linear flow needs no
    FFT at all.  The two half-steps U(dt/2) of adjacent steps are merged
    into that U(dt): the run opens with a half-step, and a stored snapshot
    closes one.  Multipliers are built once per run.  Snapshots are stored
    in blocks (_Snapshots), each allocated with its first row; a row takes
    its snapshot's coefficients, and one in-place inverse per full block
    makes them samples.

    Both substeps keep mirror symmetry, so for mirror-symmetric data with
    n >= 2 (a centred gaussian) the loop runs on the DCT-I octant of
    fields._basis, its Parseval sums weighted by the mode multiplicities,
    about a quarter of the cost at 64^3, storing each snapshot as its octant
    array, folded only when read as a Field; 1-d data keep the FFT pair.
    u0 is dropped once its samples are taken: the trajectory holds the only
    copy, as row 0, and |xi| and the mask are built at the basis modes
    alone (Grid.xi_norm_at).  With the 2/3 mask active, the forwards, the
    inverses after step 1 and those of stored rows skip the lines the mask
    zeroes (_corner_pair).

    The discrete L^2 norm is checked to be nonincreasing after every step
    (tolerance 1e-10 relative to the initial norm, by Parseval on the
    coefficients); a NaN or Inf in the state aborts with the offending step
    index, which signals an excessively large dt.
    """
    grid, basis = u0.grid, [_basis(to_physical(u0).values, u0.grid.n)]
    del u0  # handed on unnamed: an octant run keeps only its stored octant
    return _march(grid, basis.pop(), cfg)


def _march(grid, basis: _Basis, cfg: StepperConfig) -> Trajectory:
    """evolve's loop from the samples of ``basis`` (fields._basis of u0),
    which it never writes into, so a stored row 0 can start a run unfolded."""
    n_steps = cfg.n_steps
    state, fwd, inv, modes, weights, _ = basis
    if weights is not None:  # per real and imaginary part of the real view
        weights = np.repeat(weights.reshape(-1), 2)
    xi_norm = grid.xi_norm_at(modes)
    mask = _dealias_mask(grid, modes) if cfg.nonlinear and cfg.dealias_active else True
    if cfg.nonlinear:
        half = np.exp(-0.5j * cfg.dt * xi_norm)
        close = half * mask
        full = close * half
    else:
        full = np.exp(-1j * cfg.dt * xi_norm)
    del xi_norm  # read only by the multipliers
    c = fwd(state)  # after the multipliers: made first, it raised 64^3 peak RSS by 0.7 MB
    if cfg.nonlinear:
        c *= half
    corner = weights is not None and mask is not True  # masked after step 1
    cfwd, cinv = fields._corner_pair(grid.n, grid.N, grid.N // 3 + 1) if corner else basis[1:3]
    # Parseval: ||u||^2 = cell_volume / N^n * sum |fftn(u)|^2
    parseval = grid.cell_volume / grid.size
    norm0 = math.sqrt(parseval * _sum_squares(c, weights))
    tol = 1e-10 * norm0
    size = max(1, _BLOCK_BYTES // (16 * state.size))  # rows as stored: octant or grid
    count = 1 + n_steps // cfg.snapshot_stride
    shape = state.shape
    blocks = [np.empty((min(size, count), *shape), complex)]
    blocks[0][0] = state
    basis = basis._replace(samples=blocks[0][0])  # row 0: u0's only copy from here
    del state
    times = [0.0]
    prev_norm = norm0
    for k in range(1, n_steps + 1):
        if cfg.nonlinear:
            v = (cinv if k > 1 else inv)(c, overwrite_x=True)
            w = cfwd(_decay(v, cfg.dt, cfg.p), overwrite_x=True)
            del v  # the step's samples go before a row is stored
            c = w * full  # a new array: a stored row reads w * close
        else:
            c *= full  # in place: a stored row is a copy of c
        norm = math.sqrt(parseval * _sum_squares(c, weights))
        if not math.isfinite(norm):
            raise FloatingPointError(
                f"non-finite value at step {k} (t = {k * cfg.dt:.6g}); "
                "the time step is too large for this state"
            )
        if norm > prev_norm + tol:
            raise FloatingPointError(
                f"L^2 norm increased at step {k}: {prev_norm!r} -> {norm!r}"
            )
        prev_norm = norm
        if k % cfg.snapshot_stride == 0:
            j = len(times) % size
            if j == 0:
                blocks.append(np.empty((min(size, count - len(times)), *shape), complex))
            times.append(k * cfg.dt)
            blocks[-1][j] = w * close if cfg.nonlinear else c
            if j + 1 == len(blocks[-1]):  # full: rows after u0 to samples
                coeffs = blocks[-1][1 if len(blocks) == 1 else 0 :]
                if not np.may_share_memory(out := cinv(coeffs, overwrite_x=True), coeffs):
                    coeffs[...] = out  # scipy.fft did not transform in place
    return Trajectory(cfg, np.asarray(times), _Snapshots(grid, basis, blocks))


def duhamel_residual(traj: Trajectory) -> float:
    """L^2 defect of the integral form at the final time.

    Computes || u(t) - U(t) u0 + int_0^t U(t-s) |u(s)|^(p-1) u(s) ds ||_L2
    with the integral discretized by the trapezoid rule over the stored
    snapshots and the propagator applied spectrally at each node.  The sum
    runs on the coefficients of Trajectory.blocks: on the octant of mirror
    data, since |u|^(p-1) u keeps the symmetry and U(t) is radial, with the
    L^2 sum weighted by the mode multiplicities.  The defect shrinks at
    second order under dt refinement when the 2/3 mask is off; under it
    the order falls as dt shrinks (p = 3 on a 1-d N = 256, L = 40 grid:
    1.86, then 1.02 from dt = 2e-3 to 1e-3).
    """
    if len(traj.snapshots) < 3:
        raise ValueError("duhamel residual needs at least 3 snapshots")
    p, grid, dV = traj.config.p, traj.grid, traj.grid.cell_volume
    times = np.asarray(traj.times)
    t_final = float(times[-1])
    (_, first), = traj.blocks(0, 1)
    (_, last), = traj.blocks(len(times) - 1)
    xi_norm = grid.xi_norm_at(first.modes)
    acc = last.forward(last.samples[-1]) * dV
    acc -= first.forward(first.samples[0]) * dV * np.exp(-1j * t_final * xi_norm)
    if traj.config.nonlinear:
        h = np.diff(times)
        w = np.zeros(len(times))
        w[:-1] += h / 2.0
        w[1:] += h / 2.0
        for i, basis in traj.blocks():
            term = phase = None  # the last block's arrays go before this block's transform
            terms = np.abs(basis.samples)
            terms **= p - 1.0  # in place, as is the exp below
            terms = basis.forward(terms * basis.samples)
            terms *= dV
            # U(t_final - t_k) of each snapshot in the block
            z = [-1j * (t_final - float(t_k)) for t_k in times[i : i + len(terms)]]
            phase = np.reshape(z, (-1,) + (1,) * grid.n) * xi_norm
            terms *= np.exp(phase, out=phase)
            for k, term in enumerate(terms, start=i):
                acc += w[k] * term
    power = np.abs(acc) ** 2
    if first.weights is not None:
        power *= first.weights
    return float(np.sqrt(np.sum(power) / grid.L**grid.n))
