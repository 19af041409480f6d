"""Uniform periodic tensor grids and their Fourier duals."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid", "make_grid"]


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the centered box [-L/2, L/2)^n.

    Coordinates along each axis are x_j = -L/2 + j*dx with dx = L/N, so the
    origin is an actual sample point (index N/2).  Wavenumbers along each
    axis are the angular frequencies 2*pi*k/L for k in {-N/2, ..., N/2 - 1},
    stored in FFT order.

    Attributes:
        n: spatial dimension, 1, 2 or 3.
        N: samples per axis, a power of two >= 8.
        L: physical period per axis.
    """

    n: int
    N: int
    L: float

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N**self.n

    @cached_property
    def axis(self) -> np.ndarray:
        x = -self.L / 2.0 + self.dx * np.arange(self.N)
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.dx)
        k.setflags(write=False)
        return k

    @cached_property
    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Physical coordinates, one broadcast array per axis."""
        return tuple(np.meshgrid(*([self.axis] * self.n), indexing="ij", sparse=True))

    @cached_property
    def wavenumber_arrays(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers in FFT order, one broadcast array per axis."""
        return tuple(
            np.meshgrid(*([self.wavenumbers] * self.n), indexing="ij", sparse=True)
        )

    @cached_property
    def xi_norm(self) -> np.ndarray:
        """|xi| at every grid mode, FFT order."""
        out = np.asarray(self.xi_norm_at(()))
        out.setflags(write=False)
        return out

    def xi_norm_at(self, modes: tuple) -> np.ndarray:
        """xi_norm[modes] for a tuple of per-axis slices (or () for every
        mode), built from the wavenumbers at those modes alone: the same
        expression, so the same bits, without the full-grid array."""
        return np.sqrt(sum(k[modes] ** 2 for k in self.wavenumber_arrays))

    @cached_property
    def radii(self) -> np.ndarray:
        """|x| at every grid point."""
        out = np.sqrt(sum(x**2 for x in self.coordinate_arrays))
        out = np.asarray(out)
        out.setflags(write=False)
        return out


def make_grid(n: int, N: int, L: float) -> Grid:
    """Build a periodic grid, validating dimension, size and period.

    Args:
        n: spatial dimension in {1, 2, 3}.
        N: points per axis; must be a power of two, at least 8.
        L: physical period per axis; must be positive.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"dimension n must be 1, 2 or 3, got {n}")
    if not isinstance(N, (int, np.integer)) or not _is_power_of_two(int(N)) or N < 8:
        raise ValueError(f"N must be a power of two >= 8, got {N}")
    if not (L > 0):
        raise ValueError(f"period L must be positive, got {L}")
    return Grid(n=int(n), N=int(N), L=float(L))
