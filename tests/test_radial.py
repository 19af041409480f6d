import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

from semirelax import (
    F_p_source,
    RadialProfile,
    duhamel_maximal_bound_check,
    maximal_bound_check,
    maximal_function,
    profile_from_function,
    radial_halfwave_operator,
    radial_l2_norm,
    radial_sobolev_norm,
    wave_evolve,
)
from semirelax import radial
from semirelax.diagnostics import hardy_time_derivative_check
from semirelax.radial import (
    JEvaluator,
    RadialTrajectory,
    _estimate,
    _from_sine,
    _halfwave_multiplier,
    _sine,
    _sine_modes,
    cumulative_mass,
    modulus_power,
)


def radial_inner_product(f: RadialProfile, g: RadialProfile) -> complex:
    return complex(np.sum(f.values * np.conj(g.values) * 4.0 * np.pi * f.r**2) * f.dr)


def F_p_expanded(u: RadialProfile, p: float) -> RadialProfile:
    """Alternative arithmetic route to F_p: the same contributions grouped
    through w = D u - i |u|^(p-1) u (which equals i du/dt), kept as an
    independent consistency cross-check of F_p_source."""
    if not p > 1:
        raise ValueError(f"nonlinearity power must exceed 1, got {p}")
    du = _halfwave_multiplier(u).values
    vals = u.values
    nl = np.abs(vals) ** (p - 1.0) * vals
    d_nl = _halfwave_multiplier(RadialProfile(u.R, nl)).values
    w = du - 1j * nl
    out = (
        0.5j * (p + 1.0) * np.abs(vals) ** (p - 1.0) * w
        - 0.5j * (p - 1.0) * modulus_power(vals, p - 3.0) * vals**2 * np.conj(w)
        + 1j * d_nl
    )
    return RadialProfile(u.R, out)


def reference_wave_evolve(
    u0: RadialProfile, p: float, dt: float, T: float, nonlinear: bool = True
) -> RadialTrajectory:
    """The spline march that wave_evolve replaced, kept as its independent
    reference: one JEvaluator per step, and at every step the whole
    trapezoidal history J[F_p(u_k)](t_m - t_k), k < m, evaluated again."""
    if not 1 < p <= 3:
        raise ValueError(f"wave form is implemented for 1 < p <= 3, got {p}")
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if T >= u0.R:
        raise ValueError(
            f"final time T = {T} reaches the radial boundary R = {u0.R}; "
            "the truncated data no longer determine the solution"
        )
    n_steps = int(math.ceil(T / dt - 1e-12)) if T > 0 else 0
    r = u0.r
    data0 = JEvaluator(u0)
    du0 = _halfwave_multiplier(u0).values
    q0_vals = -1j * du0
    if nonlinear:
        q0_vals = q0_vals - np.abs(u0.values) ** (p - 1.0) * u0.values
    data1 = JEvaluator(RadialProfile(u0.R, q0_vals))

    profiles = [u0]
    sources = [JEvaluator(F_p_source(u0, p))] if nonlinear else []
    times = [0.0]
    for m in range(1, n_steps + 1):
        t_m = m * dt
        acc = data0.dj_dt(t_m, r) + data1.j(t_m, r)
        for k in range(len(sources) if nonlinear else 0):
            w = 0.5 * dt if k == 0 else dt
            acc = acc + w * sources[k].j(t_m - k * dt, r)
        u_m = RadialProfile(u0.R, acc)
        if not np.isfinite(u_m.values).all():
            raise FloatingPointError(f"non-finite radial state at step {m}")
        profiles.append(u_m)
        if nonlinear:
            sources.append(JEvaluator(F_p_source(u_m, p)))
        times.append(t_m)
    return RadialTrajectory(times=np.asarray(times), profiles=profiles)


def reference_maximal_bound_check(f: RadialProfile, T: float, n_t=None) -> dict:
    """maximal_bound_check as one J call per time, t = 0 set to zero."""
    ev = JEvaluator(f)
    ts = np.linspace(0.0, T, (n_t or f.M // 2) + 1)
    sup = np.array([0.0] + [np.max(np.abs(ev.j(t, f.r))) for t in ts[1:]])
    lhs = float(np.sqrt(np.trapezoid(sup**2, ts)))
    rhs = radial_l2_norm(f)
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0)


def reference_duhamel_maximal_bound_check(f: RadialProfile, T: float, n_t=None) -> dict:
    """duhamel_maximal_bound_check (phi = exp(-t)) from a list of per-time
    J calls whose t = 0 entry is set to zero."""
    ev = JEvaluator(f)
    ts = np.linspace(0.0, T, (n_t or f.M // 2) + 1)
    dt = ts[1] - ts[0]
    j_at = [np.zeros_like(f.r, dtype=complex)] + [ev.j(t, f.r) for t in ts[1:]]
    sup = []
    for m in range(len(ts)):
        acc = np.zeros_like(f.r, dtype=complex)
        for k in range(m + 1):
            w = dt if 0 < k < m else 0.5 * dt
            acc += w * np.exp(-ts[k]) * j_at[m - k]
        sup.append(np.max(np.abs(acc)))
    lhs = float(np.sqrt(np.trapezoid(np.asarray(sup) ** 2, ts)))
    rhs = float(np.trapezoid(np.abs(np.exp(-ts)), ts)) * radial_l2_norm(f)
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0)


def reference_hardy_time_derivative_check(f: RadialProfile, T=None, n_t=None) -> dict:
    """hardy_time_derivative_check as one dJ/dt call per time."""
    ev = JEvaluator(f)
    T = T or 0.9 * f.R
    ts = np.linspace(0.0, T, (n_t or f.M // 2) + 1)
    sup = np.array([np.max(np.abs(ev.dj_dt(t, f.r))) for t in ts])
    lhs = float(np.sqrt(np.trapezoid(sup**2, ts)))
    fprime = ev.point_derivative(f.r)
    rhs = float(np.sqrt(np.sum(np.abs(f.r * fprime) ** 2) * f.dr))
    notes = {}
    if rhs <= 1e-14 * max(1.0, float(np.max(np.abs(f.values)))):
        notes["out_of_space"] = True
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else math.inf, notes)


def random_profile(seed: int, M: int = 128, R: float = 10.0) -> RadialProfile:
    re, im = np.random.default_rng(seed).standard_normal((2, M))
    return RadialProfile(R, re + 1j * im)


def radial_split_step(u0: RadialProfile, p: float, dt: float, T: float) -> list:
    """Radial Strang split-step through v = r u~ on the march's time grid:
    half a free step, whose flow exp(-i tau D) is the phase exp(-i tau xi)
    on the sine series, then the exact pointwise flow of du/dt = -|u|^(p-1) u
    over dt, then the other free half step."""
    half = np.exp(-0.5j * dt * _sine_modes(u0))
    profiles = [u0]
    for _ in range(int(math.ceil(T / dt - 1e-12))):
        v = _from_sine(half * _sine(profiles[-1]), u0)
        # (1 + x)^(-1/(p-1)) through log1p, which stays accurate as p -> 1
        v *= np.exp(-np.log1p((p - 1.0) * dt * np.abs(v) ** (p - 1.0)) / (p - 1.0))
        v = _from_sine(half * _sine(RadialProfile(u0.R, v)), u0)
        profiles.append(RadialProfile(u0.R, v))
    return profiles


def blocked_l2_sup(kernel, f: RadialProfile, T: float, size: int) -> float:
    """radial._l2_sup's norm from kernel(ts[i:i + size, None], r), blocks
    of ``size`` probe times, on the default n_t = M/2 time grid."""
    ts = np.linspace(0.0, T, f.M // 2 + 1)
    sup = np.concatenate([
        np.max(np.abs(kernel(ts[i : i + size, None], f.r)), axis=1)
        for i in range(0, ts.size, size)
    ])
    return float(np.sqrt(np.trapezoid(sup**2, ts)))


def largest_relative_gap(a: list, b: list, times) -> float:
    """Largest relative L^inf gap of a against b over the stored times, at
    the nodes whose domain of dependence [|r - t|, r + t] lies inside the
    sampled range; beyond it the spline march zero-extends the data and
    the sine series reflects them, and neither is the solution on R^3."""
    gaps = []
    for t, x, y in zip(times, a, b):
        inside = x.r + t <= x.R
        gaps.append(np.max(np.abs(x.values - y.values)[inside]) / np.max(np.abs(y.values)))
    return max(gaps)


def gaussian_profile(R=10.0, M=512, amp=1.0):
    return profile_from_function(lambda r: amp * np.exp(-(r**2)), R=R, M=M)


def bump_profile(R=10.0, M=512, a=2.0, amp=1.0):
    """Smooth compactly supported bump on r < a."""

    def f(r):
        inside = r < a
        out = np.zeros_like(r)
        x = np.clip(r / a, 0.0, 1.0 - 1e-12)
        out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out

    return profile_from_function(f, R=R, M=M)


class TestProfileBasics:
    def test_staggered_nodes(self):
        prof = gaussian_profile(R=8.0, M=16)
        assert prof.r[0] == pytest.approx(0.25)
        assert prof.r[-1] == pytest.approx(8.0 - 0.25)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            RadialProfile(5.0, np.ones(8))

    def test_rejects_non_finite(self):
        vals = np.ones(32)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            RadialProfile(5.0, vals)

    def test_l2_norm_quadrature(self):
        prof = gaussian_profile(M=2048)
        val, _ = scipy.integrate.quad(
            lambda r: 4 * np.pi * r**2 * np.exp(-2 * r**2), 0, np.inf
        )
        assert radial_l2_norm(prof) == pytest.approx(np.sqrt(val), rel=1e-8)


def count_spline_builds(monkeypatch) -> list:
    """Patch radial._Spline to log each spline built from data."""
    builds, spline = [], radial._Spline

    def counting(*args, **kwargs):
        builds.append(1)
        return spline(*args, **kwargs)

    monkeypatch.setattr(radial, "_Spline", counting)
    return builds


class TestSpline:
    """radial._Spline against scipy's CubicSpline(x, y, bc_type="not-a-knot",
    extrapolate=True) on the radial nodes: the same bits, not just close."""

    @given(
        M=st.integers(16, 2048),
        R=st.floats(0.1, 200.0),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e100]),
        smooth=st.booleans(),
        real=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_scipy(self, M, R, seed, scale, smooth, real):
        rng = np.random.default_rng(seed)
        r = (np.arange(M) + 0.5) * (R / M)
        z = rng.standard_normal(2)
        if smooth:
            y = scale * (z[0] + 1j * z[1]) * np.exp(-((r / (0.3 * R)) ** 2))
        else:
            y = scale * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        if real:
            y = y.real
        mid = (r[:-1] + r[1:]) / 2
        x = np.concatenate([
            r, mid, rng.uniform(r[0], r[-1], 64),  # knots and between them
            [-1.0, 0.0, r[0] / 2],  # left of r_0
            [r[-1] + 1e-3 * R / M, (r[-1] + R) / 2, R, 1.5 * R],  # beyond r_last, at R
        ])
        ours, ref = radial._Spline(r, y), scipy.interpolate.CubicSpline(
            r, y, bc_type="not-a-knot", extrapolate=True
        )
        for a, b in [
            (ours, ref), (ours.derivative(), ref.derivative()),
            (ours.antiderivative(), ref.antiderivative()),
        ]:
            assert a.c.dtype == b.c.dtype and np.array_equal(a.c, b.c)
            assert np.array_equal(a(x), b(x))
            assert np.array_equal(a(x.reshape(-1, 1)), b(x.reshape(-1, 1)))
            assert np.array_equal(a(R), b(R))


class TestJKernel:
    def test_constant_gives_t_exactly(self):
        ones = profile_from_function(lambda r: np.ones_like(r), R=10.0, M=256)
        for t in (0.0, 0.37, 2.0, 4.5):
            r = ones.r[ones.r + t <= ones.r[-1]]
            vals = JEvaluator(ones).j(t, r)
            assert np.max(np.abs(vals - t)) < 1e-13 * max(t, 1.0)

    def test_t_zero_is_zero(self):
        prof = gaussian_profile()
        assert abs(JEvaluator(prof).j(0.0, 1.0)) == 0.0

    def test_linear_profile_closed_form(self):
        lin = profile_from_function(lambda r: r, R=10.0, M=256)
        t = 1.3
        r = lin.r[lin.r + t <= lin.r[-1]]
        expected = ((r + t) ** 3 - np.abs(r - t) ** 3) / (6.0 * r)
        assert np.max(np.abs(JEvaluator(lin).j(t, r) - expected)) < 1e-10

    def test_linearity(self):
        f = gaussian_profile()
        g = profile_from_function(lambda r: np.exp(-((r - 2) ** 2)), R=10.0, M=512)
        comb = RadialProfile(f.R, 2.0 * f.values + 1j * g.values)
        t, r = 0.8, f.r[::7]
        a = JEvaluator(comb).j(t, r)
        b = 2.0 * JEvaluator(f).j(t, r) + 1j * JEvaluator(g).j(t, r)
        assert np.max(np.abs(a - b)) < 1e-12

    @given(
        a=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        t=st.floats(0.0, 4.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_in_profile_and_exact_on_constants(self, a, b, t, seed):
        parts = np.random.default_rng(seed).standard_normal((2, 2, 256))
        f, g = (RadialProfile(10.0, re + 1j * im) for re, im in parts)
        r = f.r[f.r + t <= f.r[-1]]
        jf, jg = JEvaluator(f).j(t, r), JEvaluator(g).j(t, r)
        comb = JEvaluator(RadialProfile(10.0, a * f.values + b * g.values)).j(t, r)
        # |J[f](t)| <= t max|f|; roundoff in the difference of antiderivatives
        # does not shrink with t, hence max(t, 1) as for J[1].  Below the
        # smallest normal float the coefficients lose significant bits, so
        # the relative bound is taken at that scale at least.
        scale = abs(a) * np.max(np.abs(f.values)) + abs(b) * np.max(np.abs(g.values))
        scale = max(scale, np.finfo(float).tiny)
        assert np.max(np.abs(comb - (a * jf + b * jg))) <= 1e-13 * scale * max(t, 1.0)
        ones = JEvaluator(RadialProfile(10.0, np.ones(256))).j(t, r)
        assert np.max(np.abs(ones - t)) <= 1e-13 * max(t, 1.0)

    def test_each_read_builds_only_its_spline_once(self, monkeypatch):
        builds = count_spline_builds(monkeypatch)
        prof = gaussian_profile(M=64)
        ev = JEvaluator(prof)
        assert builds == []
        for t in (0.5, 1.0):  # j reads the antiderivative of the spline of r f~
            ev.j(t, prof.r)
        assert len(builds) == 1
        ev = JEvaluator(prof)
        for t in (0.5, 1.0):  # dj_dt and point_derivative read the spline of f~
            ev.dj_dt(t, prof.r)
            ev.point_derivative(prof.r)
        assert len(builds) == 2

    def test_rejects_nonpositive_radius(self):
        prof = gaussian_profile()
        with pytest.raises(ValueError, match="r > 0"):
            JEvaluator(prof).j(0.5, 0.0)

    def test_rejects_negative_time_in_a_column(self):
        prof = gaussian_profile(M=64)
        ev = JEvaluator(prof)
        for method in (ev.j, ev.dj_dt):
            with pytest.raises(ValueError, match="t >= 0"):
                method(np.array([[0.5], [-0.1]]), prof.r)


class TestTimeColumn:
    """j and dj_dt on a column of times against one scalar call per time."""

    @pytest.mark.parametrize(
        "prof",
        [gaussian_profile(M=256), random_profile(0), random_profile(1, M=64, R=3.0)],
        ids=["gaussian", "random", "random_short"],
    )
    def test_column_equals_scalar_calls(self, prof):
        # times past R clamp both ends of the window at the last node
        ts = np.concatenate([[0.0], np.linspace(0.01, 1.5 * prof.R, 23)])
        ev = JEvaluator(prof)
        for method in (ev.j, ev.dj_dt):
            column = method(ts[:, None], prof.r)
            assert column.shape == (ts.size, prof.M)
            rows = np.array([method(t, prof.r) for t in ts])
            assert np.array_equal(column, rows)
        assert np.array_equal(ev.j(ts[:, None], prof.r)[0], np.zeros(prof.M))

    @pytest.mark.parametrize("seed", range(3))
    def test_probes_equal_per_time_loops(self, seed):
        prof = random_profile(seed, M=96 + 32 * seed)
        T = 0.4 * prof.R
        assert maximal_bound_check(prof, T) == reference_maximal_bound_check(prof, T)
        assert duhamel_maximal_bound_check(
            prof, T
        ) == reference_duhamel_maximal_bound_check(prof, T)
        assert hardy_time_derivative_check(prof) == reference_hardy_time_derivative_check(
            prof
        )
        n_t = 17 + seed
        assert hardy_time_derivative_check(
            prof, T, n_t
        ) == reference_hardy_time_derivative_check(prof, T, n_t)


    def test_block_size_does_not_change_the_probes(self, monkeypatch):
        prof = random_profile(3, M=96)
        before = maximal_bound_check(prof, 4.0), hardy_time_derivative_check(prof)
        monkeypatch.setattr(radial, "_CHUNK", prof.M)  # one time per block
        after = maximal_bound_check(prof, 4.0), hardy_time_derivative_check(prof)
        assert before == after

    @pytest.mark.parametrize("M", [512, 2048])
    def test_probes_equal_their_128_time_blocks(self, M):
        # _CHUNK // M times per block (16 at M = 512, 4 at M = 2048) against
        # blocks of 128 times
        prof = random_profile(M, M=M, R=8.0)
        assert radial._CHUNK // M < 128
        ev = JEvaluator(prof)
        cor37 = maximal_bound_check(prof, 4.0)["lhs"]
        cor39 = hardy_time_derivative_check(prof)["lhs"]
        assert cor37 == blocked_l2_sup(ev.j, prof, 4.0, 128)
        assert cor39 == blocked_l2_sup(ev.dj_dt, prof, 0.9 * prof.R, 128)


class TestProbeHorizons:
    @pytest.mark.parametrize("probe", ["cor37", "cor39"])
    def test_peak_memory_is_linear_in_m(self, probe):
        # unit-ball indicator at M = 2048, T = 4: a whole (n_t + 1) x M
        # column of times is about 128 MiB
        prof = profile_from_function(lambda r: (r <= 1.0).astype(float), R=8.0, M=2048)
        check = maximal_bound_check if probe == "cor37" else hardy_time_derivative_check
        tracemalloc.start()
        try:
            check(prof, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.0 MiB at blocks of _CHUNK // M = 4 times
        assert peak <= 1.5 * 2**20

    def test_zero_horizon_gives_zero(self):
        prof = gaussian_profile(M=128, R=10.0)
        assert hardy_time_derivative_check(prof, T=0.0)["lhs"] == 0.0
        assert maximal_bound_check(prof, T=0.0)["lhs"] == 0.0

    @pytest.mark.parametrize(
        "probe", [maximal_bound_check, duhamel_maximal_bound_check, hardy_time_derivative_check]
    )
    @pytest.mark.parametrize("T, n_t", [(-2.0, None), (1.0, 0)])
    def test_rejects_negative_horizon_and_empty_time_grid(self, probe, T, n_t):
        with pytest.raises(ValueError, match="T >= 0 and n_t >= 1"):
            probe(gaussian_profile(M=64), T, n_t=n_t)


class TestDJdt:
    def test_constant_profile_collapses(self):
        c = 0.7 - 0.2j
        ones = profile_from_function(lambda r: np.full_like(r, 1.0), R=10.0, M=256)
        prof = RadialProfile(10.0, c * ones.values)
        for t in (0.1, 1.0, 3.0):
            r = prof.r[(prof.r - t > prof.dr) & (prof.r + t <= prof.r[-1])]
            vals = JEvaluator(prof).dj_dt(t, r)
            assert np.max(np.abs(vals - c)) < 1e-12

    def test_zero_profile(self):
        zero = profile_from_function(lambda r: np.zeros_like(r), R=10.0, M=64)
        assert JEvaluator(zero).dj_dt(0.5, 1.0) == 0.0

    def test_matches_finite_difference_at_order_two(self):
        prof = gaussian_profile(M=1024, R=12.0)
        t = 0.8
        r = prof.r[(prof.r > 0.3) & (prof.r + t + 0.1 <= prof.r[-1])]
        ev = JEvaluator(prof)
        errs = []
        steps = (1e-2, 5e-3, 2.5e-3)
        for h in steps:
            fd = (ev.j(t + h, r) - ev.j(t - h, r)) / (2 * h)
            errs.append(np.max(np.abs(fd - ev.dj_dt(t, r))))
        from semirelax.plotting import fit_order

        assert 1.9 <= fit_order(steps, errs) <= 2.1


class TestRadialHalfwave:
    def test_sine_mode_eigenfunction(self):
        R, M = 8.0, 1024
        k = np.pi / R
        prof = profile_from_function(lambda r: np.sin(k * r) / r, R=R, M=M)
        out = radial_halfwave_operator(prof)
        assert np.max(np.abs(out.values - k * prof.values)) < 1e-9

    def test_zero_profile(self):
        zero = profile_from_function(lambda r: np.zeros_like(r), R=8.0, M=64)
        out = radial_halfwave_operator(zero)
        assert np.all(out.values == 0)

    def test_gaussian_matches_3d_spectral(self):
        import semirelax as sx

        g3 = sx.make_grid(3, 64, 20.0)
        f3 = sx.gaussian_field(g3)
        df3 = sx.to_physical(sx.half_laplacian(f3))
        half = g3.N // 2
        axis_vals = df3.values[half + 1 :, half, half]
        radii = g3.axis[half + 1 :]
        prof = gaussian_profile(R=20.0, M=512)
        dprof = radial_halfwave_operator(prof)
        keep = radii <= prof.r[-1]
        interp = JEvaluator(dprof).point(radii[keep])
        err = np.max(np.abs(axis_vals[keep] - interp)) / np.max(np.abs(interp))
        assert err < 1e-4

    def test_self_adjoint_and_nonnegative(self):
        f = gaussian_profile(M=256)
        g = profile_from_function(lambda r: r * np.exp(-(r**2)), R=10.0, M=256)
        df, dg = radial_halfwave_operator(f), radial_halfwave_operator(g)
        lhs = radial_inner_product(df, g)
        rhs = radial_inner_product(f, dg)
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs), 1.0)
        quad = radial_inner_product(df, f)
        assert quad.real >= 0 and abs(quad.imag) < 1e-10

    def test_rejects_non_decaying(self):
        ones = profile_from_function(lambda r: np.ones_like(r), R=8.0, M=64)
        with pytest.raises(ValueError, match="decay"):
            radial_halfwave_operator(ones)

    def test_decay_test_builds_one_spline(self, monkeypatch):
        builds = count_spline_builds(monkeypatch)
        prof = gaussian_profile(M=128)
        for calls in (1, 2, 3):
            radial_halfwave_operator(prof)
            assert len(builds) == calls

    def test_sobolev_norm_consistency(self):
        # s = 0 recovers the radial L^2 norm
        prof = gaussian_profile(M=1024)
        assert radial_sobolev_norm(prof, 0.0) == pytest.approx(
            radial_l2_norm(prof), rel=1e-10
        )


class TestFpSource:
    def test_zero_input(self):
        zero = profile_from_function(lambda r: np.zeros_like(r), R=8.0, M=64)
        out = F_p_source(zero, 3.0)
        assert np.all(out.values == 0)

    def test_chain_rule_matches_grouped_expansion(self):
        # same contributions, two arithmetic routes; p = 3 gaussian
        prof = gaussian_profile(R=12.0, M=512, amp=0.5)
        a = F_p_source(prof, 3.0)
        b = F_p_expanded(prof, 3.0)
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) < 1e-10 * scale

    def test_pure_power_term_without_dispersion(self):
        # with D u = 0 forced (constant profile put through the algebra by
        # hand), F_p reduces to p |u|^(2p-2) u; check the pointwise algebra
        # against a symbolic expansion at a few sample values
        p = 3.0
        u = np.array([0.3 * np.exp(1j * 0.7), 0.05, -0.2j], dtype=complex)
        du = np.zeros_like(u)
        nl = np.abs(u) ** (p - 1) * u
        chain = (
            0.5j * (p + 1) * np.abs(u) ** (p - 1) * du
            - 0.5j * (p - 1) * np.abs(u) ** (p - 3) * u**2 * np.conj(du)
            + p * np.abs(u) ** (2 * p - 2) * u
        )
        assert np.allclose(chain, p * np.abs(u) ** 4 * u, atol=1e-15)
        assert np.allclose(nl * np.abs(u) ** (p - 1) * p, chain, atol=1e-15)

    def test_subcubic_regularized(self):
        prof = bump_profile(amp=0.3)
        out = F_p_source(prof, 2.0)
        assert np.isfinite(out.values).all()

    @pytest.mark.parametrize("p", [2.0, 2.5])
    def test_subcubic_bounded_by_its_majorant_on_a_vanishing_tail(self, p):
        # the gaussian falls to about 1e-174 at R = 20, far below 1e-15, where
        # the regularized (|u|^2 + eps)^((p-3)/2) reaches 1e15 and more; the
        # march forms no derivative of |u|^2, so no ringing meets that factor:
        # the source stays finite and below its |u|^(p-1)-type majorant
        # p |u|^(p-1) |D u| + |D(|u|^(p-1) u)| + p |u|^(2p-1) at every node
        prof = gaussian_profile(R=20.0, M=512)
        absu = np.abs(prof.values)
        assert absu.min() < 1e-15
        b = _sine(prof)
        out = np.abs(radial._source(prof, b, p).values)
        du = np.abs(_from_sine(b * _sine_modes(prof), prof))
        nl = RadialProfile(prof.R, absu ** (p - 1.0) * prof.values)
        majorant = (
            p * absu ** (p - 1.0) * du + np.abs(_halfwave_multiplier(nl).values)
            + p * absu ** (2.0 * p - 1.0)
        )
        assert np.isfinite(out).all()
        assert np.all(out <= majorant * (1.0 + 1e-12))
        # the regularized term's factor alone: (|u|^2 + eps)^((p-3)/2) |u|^2 <= |u|^(p-1)
        regularized = modulus_power(prof.values, p - 3.0) * absu**2
        assert np.all(regularized <= absu ** (p - 1.0) * (1.0 + 1e-12))

    def test_overflow_rejected_as_non_finite_profile(self):
        prof = gaussian_profile(M=64, amp=1e100)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                F_p_source(prof, 3.0)


class TestWaveEvolve:
    def test_zero_data(self):
        zero = profile_from_function(lambda r: np.zeros_like(r), R=8.0, M=64)
        rt = wave_evolve(zero, 3.0, dt=0.1, T=0.5)
        assert all(np.all(p.values == 0) for p in rt.profiles)

    def test_initial_profile_reproduced(self):
        prof = gaussian_profile(R=10.0, M=256, amp=0.1)
        rt = wave_evolve(prof, 3.0, dt=0.25, T=0.5)
        assert np.array_equal(rt.profiles[0].values, prof.values)
        assert len(rt.times) == 3

    def test_rejects_domain_of_dependence_violation(self):
        prof = gaussian_profile(R=5.0, M=128)
        with pytest.raises(ValueError, match="radial boundary"):
            wave_evolve(prof, 3.0, dt=0.1, T=5.0)

    @pytest.mark.parametrize("dt, T, rule", [
        (5.0, 1.0, "exceeds final time"),  # one step would march to t = 5
        (2.0, 3.9, "radial boundary"),  # the last march time 2 dt equals R
    ])
    def test_rejects_a_march_time_at_or_past_R(self, dt, T, rule):
        prof = gaussian_profile(R=4.0, M=64)
        with pytest.raises(ValueError, match=rule):
            wave_evolve(prof, 3.0, dt=dt, T=T)

    def test_blow_up_names_its_step(self):
        # the source of step 3, F_p(u_2), overflows
        prof = gaussian_profile(R=10.0, M=64, amp=1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"at step 3 \(t = 1\.5\)"):
                wave_evolve(prof, 3.0, dt=0.5, T=2.0)

    def test_five_sine_transforms_per_step(self, monkeypatch):
        # the source reuses the march's sine coefficients of the state
        calls = []
        for name in ("dst", "idst"):
            fn = getattr(scipy.fft, name)
            monkeypatch.setattr(
                scipy.fft, name, lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw)
            )
        prof = gaussian_profile(R=10.0, M=64, amp=0.1)
        counts = []
        for T in (0.5, 1.0):
            calls.clear()
            wave_evolve(prof, 3.0, dt=0.25, T=T)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 2 * 5

    def test_rejects_supercubic(self):
        prof = gaussian_profile()
        with pytest.raises(ValueError, match="1 < p <= 3"):
            wave_evolve(prof, 4.0, dt=0.1, T=0.5)

    def test_linear_matches_3d_spectral(self):
        import semirelax as sx

        N, L, M, R = 64, 20.0, 512, 20.0
        amp = 0.1
        g3 = sx.make_grid(3, N, L)
        u0 = sx.gaussian_field(g3, amp)
        lin3 = sx.to_physical(sx.linear_step(u0, 1.0))
        prof0 = gaussian_profile(R=R, M=M, amp=amp)
        rt = wave_evolve(prof0, 3.0, dt=0.5, T=1.0, nonlinear=False)
        half = N // 2
        axis_vals = lin3.values[half + 1 :, half, half]
        radii = g3.axis[half + 1 :]
        keep = radii <= rt.profiles[-1].r[-1]
        wave_vals = JEvaluator(rt.profiles[-1]).point(radii[keep])
        err = np.max(np.abs(axis_vals[keep] - wave_vals)) / np.max(np.abs(wave_vals))
        assert err < 1e-3

    def test_self_convergence_order(self):
        prof = gaussian_profile(R=10.0, M=256, amp=0.3)
        T = 0.5
        finals = {}
        for dt in (0.05, 0.025, 0.0125):
            rt = wave_evolve(prof, 3.0, dt=dt, T=T)
            finals[dt] = rt.profiles[-1].values
        ref = wave_evolve(prof, 3.0, dt=0.0125 / 4, T=T).profiles[-1].values
        errs = [np.max(np.abs(finals[dt] - ref)) for dt in (0.05, 0.025, 0.0125)]
        from semirelax.plotting import fit_order

        assert fit_order((0.05, 0.025, 0.0125), errs) >= 1.8

    def test_data_term_is_exactly_causal(self):
        # the averaging kernel reads u0 only at radii r-t .. r+t, so the
        # dJ/dt data term vanishes identically outside r <= a + t
        a = 2.0
        prof = bump_profile(R=12.0, M=768, a=a, amp=0.2)
        ev = JEvaluator(prof)
        for t in (0.5, 1.5, 3.0):
            outside = prof.r[prof.r - t > a + 2 * prof.dr]
            vals = ev.dj_dt(t, outside)
            assert np.max(np.abs(vals)) < 1e-14

    def test_out_of_cone_tail_is_algebraic(self):
        # the half-wave kernel and the D-terms of the source carry |x|^-4
        # tails, so the full solution is not strictly supported in the
        # cone; the tail must decay monotonically with the margin
        a = 2.0
        prof = bump_profile(R=12.0, M=768, a=a, amp=0.2)
        T = 2.0
        rt = wave_evolve(prof, 3.0, dt=0.05, T=T)
        final = rt.profiles[-1]
        peak = np.max(np.abs(final.values))
        tails = []
        for margin in (1.0, 2.0, 4.0):
            outside = final.r > a + T + margin
            tails.append(np.max(np.abs(final.values[outside])) / peak)
        assert tails[0] < 2e-2
        assert tails[2] < tails[1] < tails[0]
        assert tails[2] < 1e-3


class TestSineMarch:
    """wave_evolve against the spline march it replaced and against a radial
    split-step: three discretizations of the same radial flow."""

    @pytest.mark.parametrize("amp", [0.1, 0.5])
    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
    def test_matches_spline_reference(self, p, nonlinear, amp):
        prof = gaussian_profile(R=10.0, M=256, amp=amp)
        march = wave_evolve(prof, p, dt=0.02, T=1.0, nonlinear=nonlinear)
        ref = reference_wave_evolve(prof, p, dt=0.02, T=1.0, nonlinear=nonlinear)
        assert np.array_equal(march.times, ref.times)
        assert largest_relative_gap(march.profiles, ref.profiles, march.times) <= 1e-5

    def test_builds_no_spline_and_transforms_linearly(self, monkeypatch):
        builds, transforms = count_spline_builds(monkeypatch), []

        def counting(fn, log):
            def wrapped(*args, **kwargs):
                log.append(1)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("dst", "idst"):
            monkeypatch.setattr(scipy.fft, name, counting(getattr(scipy.fft, name), transforms))
        prof = gaussian_profile(R=10.0, M=64, amp=0.1)
        dt = 1.0 / 64
        counts = {}
        for n in (10, 20, 40):
            before = len(transforms)
            assert len(wave_evolve(prof, 3.0, dt=dt, T=n * dt).times) == n + 1
            counts[n] = len(transforms) - before
        # the spline march built two splines per JEvaluator, 2 (n + 3) per run
        assert builds == []
        assert (counts[20] - counts[10]) / 10 == (counts[40] - counts[20]) / 20

    @given(
        amp=st.floats(0.01, 0.5), width=st.floats(0.7, 1.5), dt=st.floats(0.005, 0.01)
    )
    @settings(max_examples=6, deadline=None)
    def test_three_way_agreement_and_split_step_mass(self, amp, width, dt):
        prof = profile_from_function(
            lambda r: amp * np.exp(-((r / width) ** 2)), R=10.0, M=256
        )
        march = wave_evolve(prof, 3.0, dt=dt, T=0.5)
        runs = (
            march.profiles,
            reference_wave_evolve(prof, 3.0, dt=dt, T=0.5).profiles,
            radial_split_step(prof, 3.0, dt=dt, T=0.5),
        )
        # 1e-5 for the spatial discretizations plus the second-order time
        # error: against a dt/16 run the march's relative error is about
        # 1.1 (amp dt)^2 at width 0.7, the split-step's about 7x smaller
        tol = 1e-5 + 2.0 * (amp * dt) ** 2
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert largest_relative_gap(runs[i], runs[j], march.times) <= tol
        mass = [np.sum(u.r**2 * np.abs(u.values) ** 2) for u in runs[2]]
        assert np.all(np.diff(mass) <= 0)

    @given(p=st.floats(1.0, 3.0, exclude_min=True))
    @settings(max_examples=10, deadline=None)
    def test_matches_split_step_at_second_order_property(self, p):
        # the wave form against the split-step for every 1 < p <= 3, not only
        # at the cubic power: their gap shrinks fourfold when dt halves
        # (3.99-4.00 measured at p = 2, 2.5 and 3)
        prof = gaussian_profile(R=20.0, M=512, amp=0.5)
        gaps = []
        for dt in (0.01, 0.005):
            march = wave_evolve(prof, p, dt=dt, T=0.5)
            split = radial_split_step(prof, p, dt=dt, T=0.5)
            gaps.append(largest_relative_gap(march.profiles, split, march.times))
        assert 3.4 <= gaps[0] / gaps[1] <= 4.6


class TestMaximalFunction:
    def test_constant_density(self):
        x = np.linspace(0.0, 1.0, 64, endpoint=False) + 1.0 / 128
        vals = np.ones(64)
        assert maximal_function(x, vals, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_point_mass_scaling(self):
        m_cells = 512
        x = np.linspace(-5.0, 5.0, m_cells, endpoint=False) + 10.0 / (2 * m_cells)
        dx = x[1] - x[0]
        vals = np.zeros(m_cells)
        j = np.argmin(np.abs(x - 2.0))
        mass = 0.8
        vals[j] = mass / dx
        t = float(x[np.argmin(np.abs(x - 0.0))])
        d = abs(x[j] - t)
        got = maximal_function(x, vals, t)
        assert got == pytest.approx(mass / (2 * d), rel=2 * dx / d)

    def test_empty_support_rejected(self):
        x = np.linspace(0, 1, 32)
        with pytest.raises(ValueError, match="zero"):
            maximal_function(x, np.zeros(32), 0.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_domination_of_windowed_averages(self, seed):
        rng = np.random.default_rng(seed)
        m = 256
        grid = np.linspace(0.0, 10.0, m, endpoint=False) + 10.0 / (2 * m)
        f = rng.random(m)
        f[rng.integers(m // 2, m) :] = 0.0
        t = float(grid[rng.integers(m // 4, m // 2)])
        C = cumulative_mass(grid, f)
        lhs = float(np.max((C(grid + t) - C(np.abs(grid - t))) / (2.0 * grid)))
        x_full = np.concatenate([-grid[::-1], grid])
        f_full = np.concatenate([f[::-1], f])
        rhs = maximal_function(x_full, f_full, t)
        assert lhs <= rhs + 1e-8


class TestBoundChecks:
    def test_zero_profile_trivial(self):
        zero = profile_from_function(lambda r: np.zeros_like(r), R=8.0, M=64)
        report = maximal_bound_check(zero, T=2.0)
        assert report["lhs"] == 0.0 and report["rhs"] == 0.0

    def test_unit_ball_indicator_pinned(self):
        # f = 1 on [0, 1]: rhs = sqrt(4 pi / 3); oracle for the lhs is the
        # closed-form windowed integral of the indicator
        prof = profile_from_function(
            lambda r: (r <= 1.0).astype(float), R=8.0, M=2048
        )
        report = maximal_bound_check(prof, T=4.0)
        assert report["rhs"] == pytest.approx(np.sqrt(4 * np.pi / 3), rel=1e-4)

        def j_closed(t, r):
            hi = np.minimum(r + t, 1.0)
            lo = np.minimum(np.abs(r - t), 1.0)
            return np.maximum(0.0, hi**2 - lo**2) / (4.0 * r)

        r = np.linspace(1e-4, 8.0, 20001)
        ts = np.linspace(0.0, 4.0, 4001)
        sup = np.array([np.max(j_closed(t, r)) for t in ts])
        oracle = np.sqrt(np.trapezoid(sup**2, ts)) / np.sqrt(4 * np.pi / 3)
        assert report["empirical_constant"] == pytest.approx(oracle, rel=2e-3)
        # regression pin: first validated run at (M=2048, T=4)
        assert report["empirical_constant"] == pytest.approx(0.3093746167, rel=1e-6)

    def test_duhamel_variant_finite(self):
        prof = gaussian_profile(M=256)
        report = duhamel_maximal_bound_check(prof, T=3.0, n_t=128)
        assert math.isfinite(report["empirical_constant"])
        assert report["lhs"] <= report["rhs"] * 2.0
