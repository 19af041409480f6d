import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semirelax import (
    Field,
    apply_multiplier,
    gaussian_field,
    gradient,
    half_laplacian,
    l2_norm,
    load_field,
    make_grid,
    mode_field,
    second_derivative,
    to_physical,
    to_spectral,
)
from semirelax.fields import _basis, _corner_pair, _derivative
from conftest import constant_field, random_field, symmetrized, write_field


class TestTransforms:
    def test_constant_maps_to_zero_mode(self, grid_1d):
        spec = to_spectral(constant_field(grid_1d, 1.0))
        mass = np.abs(spec.values)
        assert mass[0] == pytest.approx(grid_1d.L)
        assert np.max(mass[1:]) < 1e-12 * mass[0]

    def test_pure_mode_is_single_coefficient(self):
        g = make_grid(1, 8, 2 * np.pi)
        spec = to_spectral(mode_field(g, 1))
        idx = np.argmin(np.abs(g.wavenumbers - 1.0))
        mass = np.abs(spec.values)
        assert mass[idx] == pytest.approx(g.L)
        others = np.delete(mass, idx)
        assert np.max(others) < 1e-12 * mass[idx]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_identity(self, n, rng):
        g = make_grid(n, 16, 7.0)
        f = random_field(g, rng, spectral_decay=False)
        back = to_physical(to_spectral(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_parseval(self, n, rng):
        g = make_grid(n, 16, 3.5)
        f = random_field(g, rng, spectral_decay=False)
        phys_sum = np.sum(np.abs(f.values) ** 2) * g.cell_volume
        spec_sum = np.sum(np.abs(to_spectral(f).values) ** 2) / g.L**g.n
        assert phys_sum == pytest.approx(spec_sum, rel=1e-12)


class TestMultipliers:
    def test_identity_multiplier(self, grid_1d, rng):
        f = random_field(grid_1d, rng)
        out = apply_multiplier(f, lambda xi: np.ones_like(xi[0]))
        assert np.allclose(out.values, f.values, rtol=0, atol=1e-12)

    def test_half_laplacian_eigenmode_1d(self):
        g = make_grid(1, 8, 2 * np.pi)
        f = mode_field(g, 2)
        out = to_physical(half_laplacian(f))
        assert np.max(np.abs(out.values - 2.0 * f.values)) < 1e-12

    def test_half_laplacian_eigenmode_2d(self):
        g = make_grid(2, 16, 2 * np.pi)
        x, y = (np.broadcast_to(c, g.shape) for c in g.coordinate_arrays)
        f = Field(g, np.exp(1j * (3 * x + 4 * y)), "physical")
        out = to_physical(half_laplacian(f))
        assert np.max(np.abs(out.values - 5.0 * f.values)) < 1e-11

    def test_half_laplacian_kills_constants(self, grid_2d):
        out = to_physical(half_laplacian(constant_field(grid_2d, 3.0 + 1j)))
        assert np.max(np.abs(out.values)) < 1e-12

    def test_composition(self, grid_2d, rng):
        f = random_field(grid_2d, rng)
        m1 = lambda xi: 1.0 + np.asarray(xi[0]) ** 2
        m2 = lambda xi: np.exp(-0.1 * sum(np.asarray(k) ** 2 for k in xi))
        once = apply_multiplier(apply_multiplier(f, m1), m2)
        both = apply_multiplier(f, lambda xi: m1(xi) * m2(xi))
        scale = np.max(np.abs(both.values))
        assert np.max(np.abs(once.values - both.values)) < 1e-12 * scale

    def test_self_adjointness_of_half_laplacian(self, grid_2d, rng):
        f = random_field(grid_2d, rng)
        g = random_field(grid_2d, rng)
        dV = grid_2d.cell_volume
        inner = lambda a, b: np.sum(a.values * np.conj(b.values)) * dV
        lhs = inner(to_physical(half_laplacian(f)), g)
        rhs = inner(f, to_physical(half_laplacian(g)))
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs))

    def test_gradient_eigenmode(self):
        from semirelax import gradient

        g = make_grid(2, 16, 2 * np.pi)
        x, y = (np.broadcast_to(c, g.shape) for c in g.coordinate_arrays)
        f = Field(g, np.exp(1j * (3 * x - 2 * y)), "physical")
        gx, gy = (to_physical(d) for d in gradient(f))
        assert np.max(np.abs(gx.values - 3j * f.values)) < 1e-11
        assert np.max(np.abs(gy.values + 2j * f.values)) < 1e-11

    def test_second_derivative_eigenmode(self):
        from semirelax import second_derivative

        g = make_grid(2, 16, 2 * np.pi)
        x, y = (np.broadcast_to(c, g.shape) for c in g.coordinate_arrays)
        f = Field(g, np.exp(1j * (3 * x - 2 * y)), "physical")
        dxy = to_physical(second_derivative(f, 0, 1))
        assert np.max(np.abs(dxy.values - 6.0 * f.values)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_known_parity_matches_detection(self, n, rng):
        # derivatives skip the parity detection of apply_multiplier; the
        # parity they assume (d_j odd, d_j d_k even only for j = k) must
        # reproduce the detecting path bit for bit on even-N grids
        from semirelax import gradient, second_derivative

        g = make_grid(n, 16, 7.0)
        f = random_field(g, rng, spectral_decay=False)
        for h in (f, to_spectral(f)):
            grads = gradient(h)
            for j in range(n):
                detected = apply_multiplier(h, lambda xi: 1j * xi[j])
                assert np.array_equal(grads[j].values, detected.values)
                for k in range(n):
                    detected = apply_multiplier(h, lambda xi: -(xi[j] * xi[k]))
                    got = second_derivative(h, j, k)
                    assert np.array_equal(got.values, detected.values)

    def test_non_finite_symbol_names_the_mode(self, grid_1d):
        f = constant_field(grid_1d)
        with np.errstate(divide="ignore"):
            bad = lambda xi: 1.0 / np.asarray(xi[0])
            with pytest.raises(ValueError, match="non-finite at grid mode"):
                apply_multiplier(f, bad)

    def test_half_laplacian_gaussian_quadrature_oracle(self):
        # oracle: || D f ||_L2^2 = (1/2pi) int |xi|^2 |fhat|^2 dxi with the
        # continuum transform fhat(xi) = sqrt(pi) exp(-xi^2 / 4)
        g = make_grid(1, 256, 40.0)
        f = gaussian_field(g)
        integrand = lambda xi: xi**2 * np.pi * np.exp(-(xi**2) / 2.0)
        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf)
        expected = np.sqrt(val / (2.0 * np.pi))
        assert l2_norm(half_laplacian(f)) == pytest.approx(expected, rel=1e-6)


class TestCornerPair:
    """The dealias-pruned octant DCT-I pair against dctn/idctn, bit for bit."""

    @given(
        n=st.sampled_from([2, 3]),
        N=st.sampled_from([8, 12, 16, 48, 64]),
        rows=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dctn_on_the_corner_property(self, n, N, rows, seed):
        # N = 12 and 48 are not powers of two, so 1/N^n rounds: that pins
        # where the inverse applies it
        rng = np.random.default_rng(seed)
        M, m = N // 2 + 1, N // 3 + 1
        shape = (M,) * n if rows is None else (rows, *(M,) * n)
        axes = tuple(range(-n, 0))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        corner = np.zeros(shape, bool)
        corner[(Ellipsis, *[slice(0, m)] * n)] = True
        forward, inverse = _corner_pair(n, N, m)
        before = x.copy()
        got = forward(x)
        assert np.array_equal(x, before)
        assert np.array_equal(got, np.where(corner, scipy.fft.dctn(x, type=1, axes=axes), 0))
        assert np.array_equal(forward(x.copy(), overwrite_x=True), got)
        c = np.where(corner, x, 0)
        before = c.copy()
        got = inverse(c)
        assert np.array_equal(c, before)
        assert np.array_equal(got, scipy.fft.idctn(c, type=1, axes=axes))
        assert np.array_equal(inverse(c, overwrite_x=True), got)


class TestDerivative:
    @given(
        n=st.sampled_from([1, 2, 3]),
        gaussian=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_gradient_and_second_derivative_property(self, n, gaussian, seed):
        # every axis tuple of mirror-symmetric data, on the FFT pair and on
        # the octant (n >= 2), against the full-grid multipliers; an axis
        # taken once is odd, so the octant's fold is signed below N/2 there
        g = make_grid(n, {1: 32, 2: 16, 3: 8}[n], 8.0)
        rng = np.random.default_rng(seed)
        f = gaussian_field(g, 0.6) if gaussian else symmetrized(random_field(g, rng))
        octant = _basis(f.values, n)
        # the FFT pair, which _basis takes for data off the mirror rule
        fft = _basis(random_field(g, rng).values, n)._replace(samples=f.values)
        assert fft.weights is None and (octant.weights is None) == (n == 1)
        below = np.where(np.arange(g.N) < g.N // 2, -1.0, 1.0)
        for axes in [(j,) for j in range(n)] + [(j, k) for j in range(n) for k in range(n)]:
            want = gradient(f)[axes[0]] if len(axes) == 1 else second_derivative(f, *axes)
            want = to_physical(want).values
            signs = [below if axes.count(a) == 1 else np.ones(g.N) for a in range(n)]
            for basis in (fft, octant):
                coeffs = basis.forward(basis.samples) * g.cell_volume
                got = _derivative(basis, coeffs, g, axes)[basis.fold]
                if basis.weights is not None:
                    got = got * reduce(np.multiply.outer, signs)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), axes

    @pytest.mark.parametrize("octant", [False, True])
    def test_odd_symbol_zeroes_nyquist_on_its_own_product(self, octant):
        # the Nyquist planes are zeroed on the product the call allocates, so
        # an odd symbol takes no stack-sized copy beyond the peak of an even
        # one (a copy of the input before the product took one more), and
        # the caller's stack is untouched
        g = make_grid(3, 16, 8.0)
        stack = np.stack([gaussian_field(g, a).values for a in (0.3, 0.6, 0.9, 1.2)])
        # the FFT pair, which _basis takes for data off the mirror rule
        off = np.random.default_rng(0).standard_normal(stack.shape)
        basis = _basis(stack, 3) if octant else _basis(off, 3)._replace(samples=stack)
        assert (basis.weights is not None) == octant
        coeffs = basis.forward(basis.samples) * g.cell_volume
        kept = coeffs.copy()

        def peak(axes):
            tracemalloc.start()
            try:
                _derivative(basis, coeffs, g, axes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        even = peak((1, 1))
        for axes in [(0,), (0, 1)]:
            assert peak(axes) < even + 0.5 * coeffs.nbytes, axes
            assert np.array_equal(coeffs, kept)


def one_expression_gaussian(grid, amplitude=1.0, width=1.0, center=0.0):
    """gaussian_field's values as a single expression, a float temporary per
    operation, converted to complex by Field."""
    coords = list(grid.coordinate_arrays)
    coords[0] = coords[0] - center
    r2 = sum(np.asarray(c, dtype=float) ** 2 for c in coords)
    return np.asarray(amplitude * np.exp(-r2 / width**2), dtype=np.complex128)


class TestGaussianField:
    @pytest.mark.parametrize("center", [0.0, 1.3])
    @pytest.mark.parametrize("amplitude", [1.0, 0.5, -0.7, 3, 0.4 - 0.3j, -2.0j, -0.6 + 0.0j])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_one_expression_form(self, n, amplitude, center):
        # the in-place exponential and the product written into the complex
        # result keep every bit, the signs of zero parts included
        g = make_grid(n, 16, 7.0)
        values = gaussian_field(g, amplitude, width=0.8, center=center).values
        ref = one_expression_gaussian(g, amplitude, width=0.8, center=center)
        assert values.dtype == ref.dtype and values.shape == g.shape
        for part in ("real", "imag"):
            a, b = getattr(values, part), getattr(ref, part)
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_peaks_at_one_float_buffer_above_the_result(self):
        # the complex result (16 B per point) plus one float buffer (8 B)
        g = make_grid(3, 32, 10.0)
        tracemalloc.start()
        try:
            gaussian_field(g, 0.5, center=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 24 * g.size


class TestSnapshotFormat:
    """load_field reads the documented format: a header 'n N L
    representation', then N^n 're im' lines in row-major order."""

    def test_round_trip(self, tmp_path, grid_2d, rng):
        f = random_field(grid_2d, rng)
        path = tmp_path / "field.txt"
        write_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid
        assert g.representation == f.representation
        assert np.array_equal(g.values, f.values)

    def test_header_format(self, tmp_path):
        (tmp_path / "f.txt").write_text("1 8 2.5 physical\n" + "1 0\n" * 8)
        f = load_field(tmp_path / "f.txt")
        assert f.grid == make_grid(1, 8, 2.5) and f.representation == "physical"
        assert np.array_equal(f.values, constant_field(f.grid).values)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 8 2.5 physical\n1 0\n")
        with pytest.raises(ValueError, match="expected 8"):
            load_field(path)

    @pytest.mark.parametrize("header", ["1 8 2.5", "1 8 2.5 physical extra", ""])
    def test_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\n" + "1 0\n" * 8)
        with pytest.raises(ValueError, match="malformed field header"):
            load_field(path)

    def test_literal_bytes(self, tmp_path):
        # 17 significant digits read back to the same bits, -0 included
        vals = np.array([0.1 + 0.2j, -1 / 3, 1e-300j, 2.5, 0, 1e16, 0.5 - 0.5j, 7j])
        vals.real[4] = -0.0
        (tmp_path / "f.txt").write_bytes(
            b"1 8 2.5 spectral\n"
            b"0.10000000000000001 0.20000000000000001\n"
            b"-0.33333333333333331 0\n"
            b"0 1e-300\n"
            b"2.5 0\n"
            b"-0 0\n"
            b"10000000000000000 0\n"
            b"0.5 -0.5\n"
            b"0 7\n"
        )
        f = load_field(tmp_path / "f.txt")
        assert f.grid == make_grid(1, 8, 2.5) and f.representation == "spectral"
        assert np.array_equal(f.values.view(np.uint64), vals.view(np.uint64))

    @given(data=st.data(), n=st.integers(1, 3), spectral=st.booleans(),
           L=st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_is_bitwise(self, tmp_path_factory, data, n, spectral, L):
        N = data.draw(st.sampled_from([8, 16] if n < 3 else [8]))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        parts = data.draw(hnp.arrays(np.float64, (2,) + (N,) * n, elements=finite))
        vals = np.empty((N,) * n, dtype=np.complex128)
        vals.real, vals.imag = parts
        f = Field(make_grid(n, N, L), vals, "spectral" if spectral else "physical")
        path = tmp_path_factory.getbasetemp() / "field_round_trip.txt"
        write_field(f, path)
        g = load_field(path)
        assert g.grid == f.grid and g.representation == f.representation
        assert np.array_equal(g.values.view(np.uint64), f.values.view(np.uint64))
