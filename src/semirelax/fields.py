"""Complex fields on periodic grids and Fourier-multiplier calculus.

Transform normalization is fixed once for the whole package: the forward
transform carries the cell volume dx^n, so spectral coefficients approximate
the continuum Fourier integral f_hat(xi) = int f(x) exp(-i x.xi) dx, and
spectral sums divided by L^n approximate int |f_hat|^2 dxi / (2 pi)^n.
Parseval then reads  sum |f|^2 dx^n = sum |f_hat|^2 / L^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence, Union

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
    "save_field",
    "load_field",
]

PHYSICAL = "physical"
SPECTRAL = "spectral"

# bytes per block of stored snapshots, counted in the rows a run stores (the
# octant of an octant run): 256 KiB, so a block and the table's four or so
# block-sized temporaries fit in a 2 MiB L2
_BLOCK_BYTES = 1 << 18

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


def _zero_nyquist(grid: Grid, coeffs: np.ndarray, axes=None) -> np.ndarray:
    """Zero, in place, the Nyquist plane of every grid axis (or of ``axes``)
    and return coeffs; the grid axes are the trailing ones, so a stack of
    coefficient arrays works too."""
    for ax in range(grid.n) if axes is None else axes:
        coeffs[(Ellipsis, grid.N // 2, *[slice(None)] * (grid.n - 1 - ax))] = 0.0
    return coeffs


def _stack_axes(grid: Grid) -> tuple[int, ...]:
    """The grid axes of a (B, *grid.shape) stack of fields."""
    return tuple(range(1, grid.n + 1))


class _Basis(NamedTuple):
    """The samples of one field or a (B, *grid.shape) stack and the unscaled
    transform pair over their n trailing axes; see _basis."""

    samples: np.ndarray
    forward: Callable
    inverse: Callable
    modes: tuple  # index of the multiplier arrays at the coefficients
    weights: np.ndarray | None  # multiplicity of each sample and mode
    fold: tuple  # index of samples that gives the full grid back


def _basis(values: np.ndarray, n: int) -> _Basis:
    """The octant switch, for one field or a (B, *grid.shape) stack whose n
    trailing axes are the grid.  If n >= 2 and values == values[(N - j) % N]
    on every grid axis (mirror symmetry, which both substeps of evolve
    keep), the samples are the octant values[N/2, ..., N-1, 0] per axis
    under a DCT-I pair, whose coefficient k is the FFT coefficient at k
    times (-1)^(k_1+...+k_n): the multipliers, even in k, are their
    k <= N/2 corner, the weights are the (N/2+1)^n multiplicities,
    [1, 2, ..., 2, 1] per axis, of an octant sample or a DCT-I mode among
    the N^n, and the fold j -> |j - N/2| mirrors the octant back.  Else the
    full grid under the FFT pair (fft/ifft in 1-d: less per-call overhead
    than fftn, same bits), with weights None: a 1-d DCT-I pair costs more.
    Each pair looks scipy.fft up per call, since evolve stores the basis;
    it steps with _corner_pair where its 2/3 mask is active."""
    axes = tuple(range(-n, 0))
    N = values.shape[-1]
    tails = ((slice(None),) * (n - 1 - ax) for ax in range(n))
    if n < 2 or not all(  # j = 1..N/2-1 against N-1..N/2+1, a view of each
        np.array_equal(values[(Ellipsis, slice(1, N // 2), *tail)],
                       values[(Ellipsis, slice(N - 1, N // 2, -1), *tail)])
        for tail in tails
    ):
        name, where = ("fft", {"axis": -1}) if n == 1 else ("fftn", {"axes": axes})
        return _Basis(values, lambda x, **kw: getattr(scipy.fft, name)(x, **where, **kw),
                      lambda x, **kw: getattr(scipy.fft, "i" + name)(x, **where, **kw),
                      (), None, (Ellipsis,))
    octant = values[(Ellipsis, *np.ix_(*[(N // 2 + np.arange(N // 2 + 1)) % N] * n))]
    w = np.r_[1.0, np.full(N // 2 - 1, 2.0), 1.0]
    return _Basis(
        np.ascontiguousarray(octant),  # a stack gathers with the field axis inner
        lambda x, **kw: scipy.fft.dctn(x, type=1, axes=axes, **kw),
        lambda x, **kw: scipy.fft.idctn(x, type=1, axes=axes, **kw),
        (slice(0, N // 2 + 1),) * n,
        reduce(np.multiply.outer, [w] * n),
        (Ellipsis, *np.ix_(*[np.abs(np.arange(N) - N // 2)] * n)),
    )


def _derivative(basis: _Basis, coeffs: np.ndarray, grid: Grid, axes: tuple) -> np.ndarray:
    """d_j f (axes (j,)) or d_j d_k f (axes (j, k)) as samples on ``basis``
    for a field or stack of its coefficients times the cell volume.  The
    symbol is i xi_j or -xi_j xi_k, and every Nyquist plane is zeroed when it
    is odd, as in gradient and second_derivative.  On the octant an axis
    taken once is odd: the derivative is zero on its j = 0 and j = N/2
    planes and -xi times the coefficients of its interior k = 1..N/2-1 under
    DST-I between them; every other axis is DCT-I, times -xi^2 if taken twice."""
    k = grid.wavenumber_arrays
    odd = [a for a in axes if axes.count(a) == 1]
    if basis.weights is None or not odd:
        symbol = 1j * k[axes[0]] if len(axes) == 1 else -(k[axes[0]] * k[axes[1]])
        product = coeffs * symbol[basis.modes]
        out = basis.inverse(_zero_nyquist(grid, product) if odd else product, overwrite_x=True)
    else:
        inner = slice(1, grid.N // 2)  # the odd axes keep no Nyquist plane
        at = (Ellipsis, *(inner if a in odd else slice(None) for a in range(grid.n)))
        xi = [-grid.wavenumbers[inner].reshape((-1,) + (1,) * (grid.n - 1 - a)) for a in odd]
        even = [a for a in range(grid.n) if a not in odd]
        product = _zero_nyquist(grid, coeffs[at] * reduce(np.multiply, xi), even)
        d = scipy.fft.idstn(product, type=1, axes=[a - grid.n for a in odd], overwrite_x=True)
        if even:
            d = scipy.fft.idctn(d, type=1, axes=[a - grid.n for a in even], overwrite_x=True)
        out = np.zeros(coeffs.shape, complex)
        out[at] = d
    out /= grid.cell_volume
    return out


def _corner_pair(n: int, N: int, m: int) -> tuple[Callable, Callable]:
    """_basis's octant DCT-I pair for coefficients on the [0, m)^n corner
    the 2/3 mask keeps (m = N//3 + 1), in place if asked.  Pass j transforms
    axis j on the lines with indices < m on the axes before it (forward,
    zeroing the rest) or after it (inverse, of input zero off the corner):
    70 % of dctn's lines at 64^3 and 128^3, 83 % in 2-d.  pocketfft's axis
    order and 1/N^n after the first inverse pass keep the bits."""
    fct = float(np.longdouble(1) / np.longdouble(N) ** n)

    def head(ax, *rest):  # [:m] on the grid axes before ax, then rest
        return (Ellipsis, *[slice(0, m)] * ax, *rest, *[slice(None)] * (n - ax - len(rest)))

    def forward(x, overwrite_x=False):
        out = scipy.fft.dct(x, type=1, axis=-n, overwrite_x=overwrite_x)
        for ax in range(1, n):
            scipy.fft.dct(out[head(ax)], type=1, axis=ax - n, overwrite_x=True)
        for ax in range(n):
            out[head(ax, slice(m, None))] = 0.0
        return out

    def inverse(x, overwrite_x=False):
        out = x if overwrite_x else x.copy()
        for ax in range(n):  # the lines with indices < m on the later axes
            y = scipy.fft.idct(out[(Ellipsis, *[slice(0, m)] * (n - 1 - ax))], type=1,
                               axis=ax - n, norm="forward", overwrite_x=True)
            if not ax:  # on the real view: a complex product can flip a zero's sign
                np.multiply(real := y.view(np.float64), fct, out=real)
        return out

    return forward, inverse


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
    product = to_spectral(f).values * arr
    out = Field(f.grid, product if even else _zero_nyquist(f.grid, product), SPECTRAL)
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
    """amplitude * exp(-(|x - center|/width)^2), center applied on axis 0,
    the exponential formed in place in one float buffer and the product
    written straight into the complex result."""
    coords = list(grid.coordinate_arrays)
    coords[0] = coords[0] - center
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    np.negative(r2, out=r2)
    r2 /= width**2
    np.exp(r2, out=r2)
    return Field(grid, np.multiply(amplitude, r2, out=np.empty(r2.shape, complex)), PHYSICAL)


def mode_field(grid: Grid, k: int, amplitude: complex = 1.0) -> Field:
    """Plane wave amplitude * exp(i * (2 pi k / L) * x_1)."""
    xi = 2.0 * np.pi * k / grid.L
    x = np.broadcast_to(grid.coordinate_arrays[0], grid.shape)
    return Field(grid, amplitude * np.exp(1j * xi * x), PHYSICAL)


def save_field(f: Field, path) -> None:
    """Write a field snapshot: header 'n N L representation', then one
    're im' line per value (17 significant digits, row-major order)."""
    with open(path, "w") as fh:
        fh.write(f"{f.grid.n} {f.grid.N} {f.grid.L:.17g} {f.representation}\n")
        for v in f.values.reshape(-1):
            fh.write(f"{v.real:.17g} {v.imag:.17g}\n")


def load_field(path) -> Field:
    """Read a field snapshot written by save_field."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError(f"malformed field header in {path}")
        grid = make_grid(int(header[0]), int(header[1]), float(header[2]))
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (grid.size, 2):
        raise ValueError(
            f"expected {grid.size} 're im' lines in {path}, got {data.shape[0]}"
        )
    # a view, not re + 1j * im, which turns an imaginary -0.0 into +0.0
    return Field(grid, data.view(np.complex128)[:, 0].reshape(grid.shape), header[3])
