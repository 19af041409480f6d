"""Complex fields on periodic grids and Fourier-multiplier calculus.

Transform normalization is fixed once for the whole package: the forward
transform carries the cell volume dx^n, so spectral coefficients approximate
the continuum Fourier integral f_hat(xi) = int f(x) exp(-i x.xi) dx, and
spectral sums divided by L^n approximate int |f_hat|^2 dxi / (2 pi)^n.
Parseval then reads  sum |f|^2 dx^n = sum |f_hat|^2 / L^n.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence, Union

import numpy as np
import scipy.fft

from .grids import Grid, make_grid

__all__ = [
    "Field",
    "PHYSICAL",
    "SPECTRAL",
    "to_spectral",
    "to_physical",
    "apply_multiplier",
    "half_laplacian",
    "gradient",
    "second_derivative",
    "gaussian_field",
    "mode_field",
    "constant_field",
    "save_field",
    "load_field",
]

PHYSICAL = "physical"
SPECTRAL = "spectral"

# bytes per block of the blocked passes (stacked snapshots, radial probe times)
_BLOCK_BYTES = 1 << 20

Symbol = Union[np.ndarray, Callable[[Sequence[np.ndarray]], np.ndarray]]


@dataclass
class Field:
    """Complex scalar function sampled on a Grid.

    ``values`` has shape (N,)*n and is interpreted according to
    ``representation``: either point samples (physical) or Fourier
    coefficients in FFT order (spectral).  Fields are treated as immutable;
    all operations return new instances.
    """

    grid: Grid
    values: np.ndarray
    representation: str = PHYSICAL

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.representation!r}")
        object.__setattr__(self, "values", vals)

    @property
    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    @property
    def is_spectral(self) -> bool:
        return self.representation == SPECTRAL

    def copy(self) -> "Field":
        return replace(self, values=self.values.copy())


def to_spectral(f: Field) -> Field:
    """Forward transform; no-op if already spectral."""
    if f.is_spectral:
        return f
    coeffs = scipy.fft.fftn(f.values) * f.grid.cell_volume
    return Field(f.grid, coeffs, SPECTRAL)


def to_physical(f: Field) -> Field:
    """Inverse transform; no-op if already physical."""
    if f.is_physical:
        return f
    vals = scipy.fft.ifftn(f.values) / f.grid.cell_volume
    return Field(f.grid, vals, PHYSICAL)


def _symbol_array(grid: Grid, symbol: Symbol) -> np.ndarray:
    if callable(symbol):
        arr = np.asarray(symbol(grid.wavenumber_arrays), dtype=np.complex128)
    else:
        arr = np.asarray(symbol, dtype=np.complex128)
    arr = np.broadcast_to(arr, grid.shape)
    return arr


def _first_bad_mode(grid: Grid, arr: np.ndarray) -> tuple[float, ...]:
    idx = np.unravel_index(int(np.flatnonzero(~np.isfinite(arr))[0]), grid.shape)
    return tuple(float(grid.wavenumbers[i]) for i in idx)


def _is_even_symbol(grid: Grid, arr: np.ndarray) -> bool:
    # index map k -> -k (mod N) along every axis; Nyquist maps to itself
    rev = (-np.arange(grid.N)) % grid.N
    mirrored = arr[np.ix_(*([rev] * grid.n))]
    scale = float(np.max(np.abs(arr))) or 1.0
    return bool(np.max(np.abs(arr - mirrored)) <= 1e-14 * scale)


def _zero_nyquist(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """A copy with the Nyquist plane of every grid axis zeroed; the grid axes
    are the trailing ones, so a stack of coefficient arrays works too."""
    out = coeffs.copy()
    ny = grid.N // 2
    for ax in range(grid.n):
        sl = [slice(None)] * grid.n
        sl[ax] = ny
        out[(Ellipsis, *sl)] = 0.0
    return out


def _stack_axes(grid: Grid) -> tuple[int, ...]:
    """The grid axes of a (B, *grid.shape) stack of fields."""
    return tuple(range(1, grid.n + 1))


def _spectral_stack(values: np.ndarray, grid: Grid) -> np.ndarray:
    """to_spectral of every field in a (B, *grid.shape) stack, one transform."""
    out = scipy.fft.fftn(values, axes=_stack_axes(grid))
    out *= grid.cell_volume
    return out


def _mirror_octant(values: np.ndarray, n: int):
    """The mirror rule of the octant transforms.  If n >= 2 and the n trailing
    (grid) axes of ``values``, one field or a (B, *grid.shape) stack, equal
    values[(N - j) % N] on every axis, return (octant, fold, weights): the
    octant samples values[N/2, ..., N-1, 0] per axis, the index fold
    j -> |j - N/2| with ``octant[fold] == values``, and the (N/2+1)^n
    multiplicities, [1, 2, ..., 2, 1] per axis, of an octant sample or of a
    DCT-I mode among the N^n.  Else None: a 1-d DCT-I pair costs more than
    the FFT pair it replaces."""
    if n < 2:
        return None
    N = values.shape[-1]
    for ax in range(n):  # j = 1..N/2-1 against N-1..N/2+1, a view of each
        tail = (slice(None),) * (n - 1 - ax)
        low = values[(Ellipsis, slice(1, N // 2), *tail)]
        if not np.array_equal(low, values[(Ellipsis, slice(N - 1, N // 2, -1), *tail)]):
            return None
    octant = values[(Ellipsis, *np.ix_(*[(N // 2 + np.arange(N // 2 + 1)) % N] * n))]
    octant = np.ascontiguousarray(octant)  # a stack gathers with the field axis inner
    fold = (Ellipsis, *np.ix_(*[np.abs(np.arange(N) - N // 2)] * n))
    w = np.r_[1.0, np.full(N // 2 - 1, 2.0), 1.0]
    return octant, fold, reduce(np.multiply.outer, [w] * n)


def _physical_stack(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """to_physical of every field in a (B, *grid.shape) stack, one transform."""
    out = scipy.fft.ifftn(coeffs, axes=_stack_axes(grid))
    out /= grid.cell_volume
    return out


def apply_multiplier(f: Field, symbol: Symbol, representation: str | None = None) -> Field:
    """Apply a Fourier multiplier to a field.

    Args:
        f: input field, either representation.
        symbol: multiplier m(xi); a callable receiving the tuple of per-axis
            wavenumber arrays (FFT order, broadcastable) and returning the
            multiplier values, or a precomputed array of shape grid.shape.
        representation: representation of the result; defaults to the input's.

    The unpaired Nyquist mode -N/2 is zeroed before multiplication whenever
    the symbol is not even in xi, which avoids asymmetric aliasing for odd
    symbols such as i*xi_j.

    Raises:
        ValueError: if the symbol is non-finite at some grid mode (the
            offending wavenumber vector is named in the message).
    """
    arr = _symbol_array(f.grid, symbol)
    if not np.isfinite(arr).all():
        xi = _first_bad_mode(f.grid, arr)
        raise ValueError(f"multiplier is non-finite at grid mode xi = {xi}")
    return _multiply_spectral(
        f, arr, even=_is_even_symbol(f.grid, arr),
        representation=representation or f.representation,
    )


def _multiply_spectral(f: Field, arr: np.ndarray, even: bool,
                       representation: str) -> Field:
    """Multiplier application with evenness already established; symbols of
    known parity (the propagator phase, |xi|, derivatives) skip detection."""
    spec = to_spectral(f)
    coeffs = spec.values
    if not even:
        coeffs = _zero_nyquist(f.grid, coeffs)
    out = Field(f.grid, coeffs * arr, SPECTRAL)
    return to_physical(out) if representation == PHYSICAL else out


def half_laplacian(f: Field) -> Field:
    """Apply D = (-Laplacian)^(1/2), the multiplier |xi|."""
    return _multiply_spectral(
        f, f.grid.xi_norm.astype(np.complex128), even=True,
        representation=f.representation,
    )


def gradient(f: Field) -> tuple[Field, ...]:
    """Spectral gradient, one Field per axis (multiplier i*xi_j, odd in xi)."""
    return tuple(
        _multiply_spectral(f, 1j * k, even=False, representation=f.representation)
        for k in f.grid.wavenumber_arrays
    )


def second_derivative(f: Field, j: int, k: int) -> Field:
    """Spectral second derivative d_j d_k (multiplier -xi_j xi_k); even only for
    j = k, as xi -> -xi fixes xi_j on the Nyquist row but flips xi_k."""
    symbol = -(f.grid.wavenumber_arrays[j] * f.grid.wavenumber_arrays[k])
    return _multiply_spectral(f, symbol, even=j == k, representation=f.representation)


def gaussian_field(grid: Grid, amplitude: complex = 1.0, width: float = 1.0,
                   center: float = 0.0) -> Field:
    """amplitude * exp(-(|x - center|/width)^2), center applied on axis 0."""
    coords = list(grid.coordinate_arrays)
    coords[0] = coords[0] - center
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    return Field(grid, amplitude * np.exp(-r2 / width**2), PHYSICAL)


def mode_field(grid: Grid, k: int, amplitude: complex = 1.0) -> Field:
    """Plane wave amplitude * exp(i * (2 pi k / L) * x_1)."""
    xi = 2.0 * np.pi * k / grid.L
    x = np.broadcast_to(grid.coordinate_arrays[0], grid.shape)
    return Field(grid, amplitude * np.exp(1j * xi * x), PHYSICAL)


def constant_field(grid: Grid, value: complex = 1.0) -> Field:
    return Field(grid, np.full(grid.shape, value, dtype=np.complex128), PHYSICAL)


def _write_samples(path, header: str, values: np.ndarray) -> None:
    """Write the sample-file format: the header line, then one 're im' line
    per value (17 significant digits, row-major order)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for v in values.reshape(-1):
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def _read_samples(path, what: str, header_len: int, count) -> tuple[list, np.ndarray]:
    """Read a file written by _write_samples: the header tokens and the
    values as a flat complex array.  ``count`` maps the header tokens to
    the number of values the file must hold."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != header_len:
            raise ValueError(f"malformed {what} header in {path}")
        expected = count(header)
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (expected, 2):
        raise ValueError(
            f"expected {expected} 're im' lines in {path}, got {data.shape[0]}"
        )
    # a view, not re + 1j * im, which turns an imaginary -0.0 into +0.0
    return header, data.view(np.complex128)[:, 0]


def _save_series(outdir, meta: dict, key: str, items, save) -> None:
    """Write meta.json (``meta`` plus the file names under ``key``, "snapshots"
    -> snapshot_000000.txt, ...) and one file per item by ``save(item, path)``."""
    os.makedirs(outdir, exist_ok=True)
    names = [f"{key[:-1]}_{k:06d}.txt" for k in range(len(items))]
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump({**meta, key: names}, fh, indent=2, sort_keys=True)
    for name, item in zip(names, items):
        save(item, os.path.join(outdir, name))


def _load_series(indir, key: str, load) -> tuple[dict, list]:
    """Read a directory written by _save_series: its meta and its items."""
    with open(os.path.join(indir, "meta.json")) as fh:
        meta = json.load(fh)
    return meta, [load(os.path.join(indir, name)) for name in meta[key]]


def save_field(f: Field, path) -> None:
    """Write a field snapshot: header 'n N L representation', then one
    're im' line per value (17 significant digits, row-major order)."""
    header = f"{f.grid.n} {f.grid.N} {f.grid.L:.17g} {f.representation}"
    _write_samples(path, header, f.values)


def load_field(path) -> Field:
    """Read a field snapshot written by save_field."""
    header, vals = _read_samples(path, "field", 4, lambda h: int(h[1]) ** int(h[0]))
    grid = make_grid(int(header[0]), int(header[1]), float(header[2]))
    return Field(grid, vals.reshape(grid.shape), header[3])
