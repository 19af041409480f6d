import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirelax import (
    Field,
    SobolevSpec,
    StepperConfig,
    Trajectory,
    check_h1_identity,
    check_h2_inequality,
    check_hs_growth,
    check_l2_identity,
    check_scaling_law,
    diagnostics_table,
    evolve,
    gaussian_field,
    gradient,
    hardy_time_derivative_check,
    l2_norm,
    lp_norm,
    make_grid,
    mode_field,
    second_derivative,
    sobolev_norm,
    strauss_ratio,
    to_physical,
    to_spectral,
    weighted_strichartz_ratio,
    write_diagnostics_csv,
)
from semirelax import propagator
from semirelax.checks import PROP22_TOL, _dt_scaled
from semirelax.fields import _BLOCK_BYTES as BLOCK_BYTES, _basis, _derivative
from semirelax.diagnostics import CSV_HEADER, TABLE_COLUMNS, _integral
from semirelax.norms import space_time_norm, weighted_norm
from semirelax.plotting import fit_order
from semirelax.propagator import _dealias_mask, duhamel_residual, linear_step
from semirelax.radial import _estimate, profile_from_function
from conftest import (
    block_rows, constant_field, mirror, random_field, stored_row_bytes, symmetrized,
)


def stored_trajectory(cfg, times, snaps, block_bytes=BLOCK_BYTES):
    """A Trajectory of hand-made Fields stored as evolve stores a run: one
    fields._basis over the whole stack, so one mirror test and one basis
    per trajectory, cut into blocks of about block_bytes of stored rows
    (octants of mirror-symmetric data)."""
    grid = snaps[0].grid
    basis = _basis(np.stack([to_physical(u).values for u in snaps]), grid.n)
    size = max(1, block_bytes // basis.samples[0].nbytes)
    blocks = [basis.samples[i : i + size] for i in range(0, len(snaps), size)]
    row0 = basis._replace(samples=basis.samples[0])
    return Trajectory(cfg, np.asarray(times), grid, row0, blocks)


def gradient_squared_modulus(u: Field) -> list[np.ndarray]:
    """Spectral gradient of |u|^2, one physical-space array per axis."""
    mod2 = to_spectral(Field(u.grid, np.abs(to_physical(u).values) ** 2, "physical"))
    return [to_physical(g).values for g in gradient(mod2)]


def reference_dissipation_terms(traj):
    """The two gradient-dissipation integrands snapshot by snapshot, one
    gradient call per field, the second as 2(p-1) |u|^(p-1) times
    sum_j (Re(conj(u) d_j u) / |u|)^2 (0 where u = 0); the table's columns
    must equal them bit for bit."""
    p, dV = traj.config.p, traj.grid.cell_volume
    out = np.zeros((len(traj), 2))
    for i, u in enumerate(traj):
        v = to_physical(u).values
        absu = np.abs(v)
        grads = [to_physical(g).values for g in gradient(to_physical(u))]
        grad_sq = sum(np.abs(g) ** 2 for g in grads)
        radial_sq = 0
        for g in grads:
            re = g.real * v.real + g.imag * v.imag
            radial_sq = radial_sq + np.divide(re, absu, out=np.zeros_like(re), where=absu > 0) ** 2
        power = absu ** (p - 1.0)
        out[i, 0] = 2.0 * float(np.sum(power * grad_sq) * dV)
        out[i, 1] = 2.0 * (p - 1.0) * float(np.sum(power * radial_sq) * dV)
    return out


def spectral_modulus_terms(traj):
    """modulus_term in its stated form (p-1)/2 int |u|^(p-3) |grad |u|^2|^2,
    snapshot by snapshot, with grad |u|^2 taken spectrally from a transform
    of |u|^2; points where u = 0 are left out."""
    p, dV = traj.config.p, traj.grid.cell_volume
    out = np.zeros(len(traj))
    for i, u in enumerate(traj):
        phys = to_physical(u)
        absu = np.abs(phys.values)
        gm2_sq = sum(np.abs(g) ** 2 for g in gradient_squared_modulus(phys))
        weight = np.zeros_like(absu)
        np.power(absu, p - 3.0, out=weight, where=absu > 0)
        out[i] = 0.5 * (p - 1.0) * float(np.sum(weight * gm2_sq) * dV)
    return out


def reference_table(traj, s):
    """The snapshot table one snapshot at a time: the norm functions, the
    dissipation integrands of reference_dissipation_terms when nonlinear,
    and lemma34's weighted_norm when linear."""
    p = traj.config.p
    specs = [SobolevSpec(r, homogeneous=True) for r in (1.0, 2.0, s)]
    rows = [
        [t, l2_norm(u), *(sobolev_norm(u, spec) for spec in specs),
         lp_norm(u, math.inf), lp_norm(u, p + 1.0)]
        for t, u in zip(traj.times, traj)
    ]
    dissipation = np.zeros((len(rows), 2))
    if not traj.linear:
        dissipation = reference_dissipation_terms(traj)
    weighted = np.zeros((len(rows), 1))
    if traj.linear:
        weighted[:, 0] = [weighted_norm(u, 0.5, 4.0, sign=-1) for u in traj]
    columns = np.hstack([np.array(rows, dtype=float), dissipation, weighted]).T
    return dict(zip(TABLE_COLUMNS, columns))


def assert_table_close(table, ref, rel=1e-12):
    """Every column of table within rel of ref, relative to the column's
    largest entry: the octant table sums in another order than the FFT one."""
    for name in TABLE_COLUMNS:
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(table[name] - ref[name])) <= rel * scale, name


def count_calls(monkeypatch, names):
    """Spy on the scipy.fft functions ``names``: the returned dict counts
    the calls to each."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def spy(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)
    return calls


def reference_h2_inequality(traj, i1, i2):
    """check_h2_inequality over snapshots i1..i2 with the Hessian cross term
    snapshot by snapshot, one second_derivative per (j, k)."""
    n, dV = traj.grid.n, traj.grid.cell_volume
    window = slice(i1, i2 + 1)
    table = diagnostics_table(traj)
    times = table["t"][window]
    h1, h2 = table["h1dot"][window].tolist(), table["h2dot"][window].tolist()
    cross = np.zeros(len(times))
    for m, u in enumerate(traj[i] for i in range(i1, i2 + 1)):
        phys, coeffs = to_physical(u), to_spectral(u)
        total = 0.0
        for j in range(n):
            for k in range(n):
                djk = to_physical(second_derivative(coeffs, j, k)).values
                total += float(np.sum(np.abs(phys.values * djk) ** 2) * dV)
        cross[m] = total
    majorant = np.array([a ** (4.0 - n) * b ** float(n) for a, b in zip(h1, h2)])
    lhs = h2[-1] ** 2 + 2.0 * float(np.trapezoid(cross, times))
    rhs = h2[0] ** 2 + 2.0 * n**2 * (n + 1) * float(np.trapezoid(majorant, times))
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0, {"slack": rhs - lhs})


def reference_cross(traj, i1, i2):
    """The Hessian cross term sum_{j,k} ||u d_j d_k u||^2 of snapshots
    i1..i2 in a pass of its own, as check_h2_inequality once formed it: a
    forward transform of each block of Trajectory.blocks(i1, i2 + 1), then
    one second derivative per (j, k) in n x n order into a zeroed row."""
    grid = traj.grid
    cross = np.zeros(i2 + 1 - i1)
    for i, basis in traj.blocks(i1, i2 + 1):
        rows = slice(i - i1, i - i1 + len(basis.samples))
        coeffs = basis.forward(basis.samples)
        coeffs *= grid.cell_volume
        for j in range(grid.n):
            for k in range(grid.n):
                djk = _derivative(basis, coeffs, grid, (j, k))
                cross[rows] += _integral(np.abs(basis.samples * djk) ** 2, basis.weights, grid)
    return cross


def reference_duhamel_residual(traj):
    """duhamel_residual snapshot by snapshot: each nonlinear term transformed,
    propagated by linear_step, its part outside the 2/3 mask (when the mask
    is active) moved to a sum of its own, and added in snapshot order."""
    p, grid = traj.config.p, traj.grid
    t_final = float(traj.times[-1])
    acc = to_spectral(traj[-1]).values.copy()
    acc -= linear_step(to_spectral(traj[0]), t_final).values
    off = np.zeros_like(acc)
    outside = ~_dealias_mask(grid) if traj.config.dealias_active else None
    if traj.config.nonlinear:
        h = np.diff(np.asarray(traj.times))
        w = np.zeros(len(traj))
        w[:-1] += h / 2.0
        w[1:] += h / 2.0
        for k, (t_k, u_k) in enumerate(zip(traj.times, traj)):
            phys = to_physical(u_k).values
            nl = Field(grid, np.abs(phys) ** (p - 1.0) * phys, "physical")
            term = w[k] * linear_step(to_spectral(nl), t_final - float(t_k)).values
            if outside is not None:
                off[outside] += term[outside]
                term[outside] = 0.0
            acc += term
    return {
        "residual": l2_norm(Field(grid, acc, "spectral")),
        "offmask": l2_norm(Field(grid, off, "spectral")),
    }


def assert_duhamel_matches(got, ref):
    """The residual bit for bit and its out-of-mask part, read off the
    unprojected sum, within 1e-9 relative."""
    assert got["residual"] == ref["residual"]
    assert got["offmask"] == pytest.approx(ref["offmask"], rel=1e-9, abs=1e-300)


def reference_c_star(hs_sq, cum):
    """Smallest growth constant over every snapshot pair, pair by pair."""
    c_star = 0.0
    for i in range(len(hs_sq)):
        for j in range(i + 1, len(hs_sq)):
            gain, slack_int = hs_sq[j] - hs_sq[i], cum[j] - cum[i]
            if gain > 0 and slack_int > 0:
                c_star = max(c_star, gain / slack_int)
    return c_star


@pytest.fixture(scope="module")
def cubic_1d_trajectory():
    g = make_grid(1, 256, 40.0)
    u0 = gaussian_field(g, 0.5)
    return evolve(u0, StepperConfig(p=3.0, dt=1e-3, T=0.25))


@pytest.fixture(scope="module")
def zero_trajectory():
    g = make_grid(1, 64, 10.0)
    return evolve(constant_field(g, 0.0), StepperConfig(p=3.0, dt=0.05, T=0.2))


class TestL2Identity:
    def test_zero_trajectory(self, zero_trajectory):
        res = check_l2_identity(zero_trajectory, 0.0, 0.2)
        assert res["residual"] == 0.0
        assert res["relative"] == 0.0

    def test_small_residual_and_interior_window(self, cubic_1d_trajectory):
        res = check_l2_identity(cubic_1d_trajectory, 0.0, 0.25)
        assert res["relative"] < 1e-7
        interior = check_l2_identity(cubic_1d_trajectory, 0.05, 0.2)
        assert interior["relative"] < 1e-7

    def test_rejects_non_snapshot_times(self, cubic_1d_trajectory):
        with pytest.raises(ValueError, match="not a snapshot time"):
            check_l2_identity(cubic_1d_trajectory, 0.0, 0.10037)
        with pytest.raises(ValueError, match="t1 < t2"):
            check_l2_identity(cubic_1d_trajectory, 0.2, 0.1)

    def test_order_two_refinement(self):
        g = make_grid(1, 256, 40.0)
        u0 = gaussian_field(g, 0.5)
        vals = []
        for dt in (1e-3, 5e-4):
            traj = evolve(u0, StepperConfig(p=3.0, dt=dt, T=0.25))
            vals.append(check_l2_identity(traj, 0.0, 0.25)["relative"])
        assert 3.2 <= vals[0] / vals[1] <= 4.8


class TestH1Identity:
    def test_zero_trajectory(self, zero_trajectory):
        res = check_h1_identity(zero_trajectory, 0.0, 0.2)
        assert res["residual"] == 0.0

    def test_spectral_gradient_of_modulus_squared(self):
        # constant-phase gaussian: grad |u|^2 = -4 x a^2 exp(-2 x^2)
        g = make_grid(1, 256, 40.0)
        amp = 0.7 * np.exp(1j * 0.4)
        f = gaussian_field(g, amp)
        (gm,) = gradient_squared_modulus(f)
        x = g.axis
        expected = -4.0 * x * abs(amp) ** 2 * np.exp(-2.0 * x**2)
        assert np.max(np.abs(gm - expected)) < 1e-8

    def test_small_residual(self, cubic_1d_trajectory):
        res = check_h1_identity(cubic_1d_trajectory, 0.0, 0.25)
        assert res["relative"] < 1e-6

    def test_gradient_norm_monotone(self, cubic_1d_trajectory):
        spec = SobolevSpec(1.0, homogeneous=True)
        vals = [sobolev_norm(u, spec) for u in cubic_1d_trajectory]
        assert all(b <= a * (1 + 1e-8) for a, b in zip(vals, vals[1:]))

    def test_subcubic_power_stays_finite(self):
        g = make_grid(1, 128, 30.0)
        traj = evolve(gaussian_field(g, 0.4), StepperConfig(p=2.0, dt=1e-3, T=0.05))
        res = check_h1_identity(traj, 0.0, 0.05)
        assert math.isfinite(res["relative"])
        assert res["relative"] < 1e-4

    @given(
        n=st.sampled_from([1, 2, 3]),
        p=st.floats(1.0, 4.0, exclude_min=True),
        data=st.sampled_from(["centred", "off-centre", "random", "mirrored random"]),
        amplitude=st.floats(0.05, 1.0),
        zeros=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, p=2.0, data="centred", amplitude=0.1, zeros=0.0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_modulus_term_bounded_by_grad_term_property(
        self, n, p, data, amplitude, zeros, seed
    ):
        # (Re conj(u) d_j u)^2 <= |u|^2 |d_j u|^2 at every sample, so on every
        # row modulus_term <= (p-1) grad_term, singular power or not; random
        # data are zero on a drawn share of the grid (on a mirror-symmetric
        # set for the octant), which row 0 keeps exactly.  The example is the
        # p = 2 config whose t = 0 row the spectral form of grad |u|^2 broke
        N, L = {1: (64, 20.0), 2: (16, 10.0), 3: (8, 8.0)}[n]
        g = make_grid(n, N, L)
        rng = np.random.default_rng(seed)
        if data in ("centred", "off-centre"):
            u0 = gaussian_field(g, amplitude, center=0.0 if data == "centred" else 1.0)
        else:
            u0 = random_field(g, rng)
            hole = rng.random(g.shape) < zeros
            if data == "mirrored random":
                u0 = symmetrized(u0)
                hole = symmetrized(Field(g, hole.astype(float))).values.real > 0
            u0.values[hole] = 0.0
        traj = evolve(u0, StepperConfig(p=p, dt=0.01, T=0.05))
        table = diagnostics_table(traj)
        grad, modulus = table["grad_term"], table["modulus_term"]
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(modulus))
        assert np.all(modulus >= 0)
        assert np.all(modulus <= (p - 1.0) * grad * (1.0 + 1e-12))

    @given(
        n=st.sampled_from([1, 2]),
        L=st.floats(8.0, 16.0),
        p=st.floats(1.2, 4.0),
        amplitude=st.floats(0.05, 0.8),
    )
    @example(n=1, L=20.0, p=2.0, amplitude=0.1)
    @settings(max_examples=15, deadline=None)
    def test_prop22_second_order_property(self, n, L, p, amplitude):
        # the gradient balance over [0, 0.1] converges at second order in dt
        # on resolved gaussian data, and so does the mass balance (prop21)
        # of the same runs; the example, L = 20, is the p = 2 config whose
        # t = 0 row once made prop22 first order, and it must pass prop22 at
        # every dt
        u0 = gaussian_field(make_grid(n, 64, L), amplitude)
        dts = (0.01, 0.005, 0.0025)
        trajs = [evolve(u0, StepperConfig(p=p, dt=dt, T=0.1)) for dt in dts]
        rel = [check_h1_identity(traj, 0.0, 0.1)["relative"] for traj in trajs]
        mass = [check_l2_identity(traj, 0.0, 0.1)["relative"] for traj in trajs]
        assert 1.8 <= fit_order(dts, rel) <= 2.2
        assert 1.8 <= fit_order(dts, mass) <= 2.2
        if L == 20.0:
            assert all(r < _dt_scaled(PROP22_TOL, dt) for r, dt in zip(rel, dts))


class TestHsGrowth:
    def test_c_star_matches_pairwise_reference(self):
        # snapshots whose H^s norm rises and falls, so many pairs count
        g = make_grid(2, 16, 10.0)
        snaps = [gaussian_field(g, 0.5, width=w) for w in (1.0, 0.8, 1.1, 0.7, 0.9, 0.6)]
        cfg = StepperConfig(p=3.0, dt=0.1, T=0.5)
        traj = stored_trajectory(cfg, 0.1 * np.arange(len(snaps)), snaps)
        report = check_hs_growth(traj, 1.5, C=1.0)
        assert report["empirical_constant"] > 0
        table = diagnostics_table(traj, s=1.5)
        hs_sq = np.array([v**2 for v in table["hs"].tolist()])
        integrand = table["linf"] ** 2.0 * hs_sq
        seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(table["t"])
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        assert report["empirical_constant"] == reference_c_star(hs_sq, cum)

    def test_zero_trajectory_c_star_zero(self):
        g = make_grid(2, 16, 10.0)
        traj = evolve(constant_field(g, 0.0), StepperConfig(p=3.0, dt=0.05, T=0.15))
        report = check_hs_growth(traj, 1.5, C=1.0)
        assert report["empirical_constant"] == 0.0

    def test_linear_trajectory_isometry(self):
        g = make_grid(2, 32, 10.0)
        u0 = gaussian_field(g, 0.5)
        traj = evolve(u0, StepperConfig(p=3.0, dt=0.02, T=0.2, nonlinear=False))
        report = check_hs_growth(traj, 1.5, C=0.0)
        # the free flow preserves the norm: lhs = rhs at C = 0, C* = 0
        assert report["lhs"] == pytest.approx(report["rhs"], rel=1e-10)
        assert report["empirical_constant"] <= 1e-10

    def test_hypothesis_range_enforced(self, cubic_1d_trajectory):
        with pytest.raises(ValueError, match="n/2 < s < min"):
            check_hs_growth(cubic_1d_trajectory, 2.5, C=1.0)
        g = make_grid(3, 16, 10.0)
        traj3 = evolve(gaussian_field(g, 0.1), StepperConfig(p=3.0, dt=0.05, T=0.1))
        with pytest.raises(ValueError, match="n in"):
            check_hs_growth(traj3, 1.2, C=1.0)

    def test_2d_constant_finite(self):
        g = make_grid(2, 64, 20.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=2e-3, T=0.2))
        report = check_hs_growth(traj, 1.5, C=1.0)
        assert math.isfinite(report["empirical_constant"])
        assert report["notes"]["holds"]


class TestH2Inequality:
    def test_zero_trajectory(self, zero_trajectory):
        report = check_h2_inequality(zero_trajectory, 0.0, 0.2)
        assert report["lhs"] == 0.0 and report["rhs"] == 0.0

    def test_linear_trajectory_slack_nonnegative(self):
        g = make_grid(1, 128, 30.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.01, T=0.2, nonlinear=False))
        report = check_h2_inequality(traj, 0.0, 0.2)
        # free flow: curvature norm conserved, cross terms vanish, slack >= 0
        assert report["notes"]["slack"] >= 0

    def test_cubic_gaussian_slack_positive(self, cubic_1d_trajectory):
        report = check_h2_inequality(cubic_1d_trajectory, 0.0, 0.25)
        assert report["notes"]["slack"] > 0
        assert report["lhs"] <= report["rhs"]

    def test_rejects_noncubic(self):
        g = make_grid(1, 64, 20.0)
        traj = evolve(gaussian_field(g, 0.3), StepperConfig(p=2.5, dt=0.01, T=0.05))
        with pytest.raises(ValueError, match="p = 3"):
            check_h2_inequality(traj, 0.0, 0.05)


class TestHessianColumn:
    """The table's cross column against reference_cross, its own pass over
    the window's blocks: equal bit for bit on the FFT stack and the octant,
    for any window and block size, and formed only when asked for."""

    @pytest.mark.parametrize("n,N,center", [
        (1, 64, 0.0),  # 1-d: always the FFT stack
        (2, 16, 1.0),  # off-centre 2-d: the FFT stack
        (2, 16, 0.0),  # centred: the DCT-I octant
        (3, 8, 0.0),
    ], ids=["fft_1d", "fft_2d", "octant_2d", "octant_3d"])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_matches_the_per_block_pass(self, monkeypatch, n, N, center, nonlinear):
        # blocks of three stored rows: the window 2..11 starts and ends inside one
        g = make_grid(n, N, 10.0)
        u0 = gaussian_field(g, 0.8, center=center)
        monkeypatch.setattr(propagator, "_BLOCK_BYTES", 3 * stored_row_bytes(u0))
        traj = evolve(u0, StepperConfig(p=3.0, dt=0.01, T=0.13, nonlinear=nonlinear))
        assert (traj.basis.weights is None) == (n == 1 or center != 0)
        cross = diagnostics_table(traj, hessian=True)["cross"]
        for i1, i2 in ((0, len(traj.times) - 1), (2, 11)):
            assert np.array_equal(cross[i1 : i2 + 1], reference_cross(traj, i1, i2))

    def test_asked_for_after_a_table_without_it(self, cubic_1d_trajectory):
        # the stored table is built again whole: its columns keep their bits
        traj = replace(cubic_1d_trajectory)  # a fresh, empty table cache
        plain = diagnostics_table(traj, 1.5)
        assert "cross" not in plain
        table = diagnostics_table(traj, 1.5, hessian=True)
        assert traj.tables[1.5] is table and diagnostics_table(traj, 1.5) is table
        assert tuple(table) == (*TABLE_COLUMNS, "cross")
        for name in TABLE_COLUMNS:
            assert np.array_equal(table[name], plain[name]), name
        last = len(traj.times) - 1
        assert np.array_equal(table["cross"], reference_cross(traj, 0, last))

    def test_check_reads_the_table_alone(self, monkeypatch):
        # with the column stored, prop24 makes no transform; without it,
        # the one table pass forms it
        g = make_grid(2, 16, 10.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.02, T=0.1))
        calls = count_calls(monkeypatch, ("fftn", "dctn", "idctn", "idstn"))
        first = check_h2_inequality(traj, 0.0, 0.1)
        assert calls["dctn"] == len(list(traj.blocks()))
        calls.update(dict.fromkeys(calls, 0))
        assert check_h2_inequality(traj, 0.02, 0.1) != first
        assert calls == dict.fromkeys(calls, 0)


def reference_strauss_ratio(u0: Field, s: float) -> float:
    """lemma33 on the full grid: the sup of |x|^(n/2-s) |u0| at Grid.radii
    over the FFT Hdot^s norm of u0."""
    weighted = u0.grid.radii ** (u0.grid.n / 2.0 - s) * np.abs(to_physical(u0).values)
    return float(np.max(weighted)) / sobolev_norm(u0, SobolevSpec(s, homogeneous=True))


def reference_scaling_law(u0: Field, sigma: float, s: float, p: float) -> dict:
    """check_scaling_law on the full grid: u_sigma built as a Field on the
    grid of period L/sigma, both norms by sobolev_norm."""
    grid, spec = u0.grid, SobolevSpec(s, homogeneous=True)
    scaled = make_grid(grid.n, grid.N, grid.L / sigma)
    u_sigma = Field(scaled, sigma ** (1.0 / (p - 1.0)) * to_physical(u0).values, "physical")
    exponent = 1.0 / (p - 1.0) + s - grid.n / 2.0
    lhs = sobolev_norm(u_sigma, spec)
    return _estimate(lhs, sigma**exponent * sobolev_norm(u0, spec))


def reference_weighted_strichartz_ratio(traj) -> float:
    """lemma34 on the full grid: weighted_norm (delta = 1/2, q1 = 4) of every
    folded snapshot over the L^2 norm of the folded u0."""
    num = space_time_norm(
        (traj.times, traj), 4.0, lambda u: weighted_norm(u, 0.5, 4.0, sign=-1)
    )
    return num / l2_norm(traj[0])


class TestInitialRowReaders:
    """lemma33, lemma34, the scaling law and the Duhamel check's scale read
    row 0 as stored, or the table, and fold nothing; each agrees with its
    full-grid formula above to 1e-12 relative, on the octant of a centred
    3-d gaussian and on the FFT basis of 1-d and off-centre 3-d data."""

    DATA = [
        pytest.param(3, 0.0, id="octant-3d"),
        pytest.param(1, 0.0, id="fft-1d"),
        pytest.param(3, 1.0, id="fft-3d-off-centre"),
    ]

    @staticmethod
    def trajectory(n, center, nonlinear=True):
        g = make_grid(n, 16 if n == 3 else 64, 10.0)
        cfg = StepperConfig(p=3.0, dt=0.02, T=0.1, nonlinear=nonlinear)
        traj = evolve(gaussian_field(g, 0.5, 1.0, center), cfg)
        assert (traj.basis.weights is not None) == (n == 3 and center == 0.0)
        return traj

    @staticmethod
    def no_fold(monkeypatch):
        def fold(store, k):
            raise AssertionError("folds no snapshot")

        monkeypatch.setattr(Trajectory, "__getitem__", fold)

    @pytest.mark.parametrize("n, center", [p for p in DATA if p.values[0] >= 2])
    def test_lemma33(self, monkeypatch, n, center):
        traj = self.trajectory(n, center)
        u0, ref = traj[0], reference_strauss_ratio(traj[0], 1.0)
        assert strauss_ratio(u0, s=1.0) == pytest.approx(ref, rel=1e-12)
        self.no_fold(monkeypatch)
        assert strauss_ratio(traj, s=1.0) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n, center", DATA)
    def test_scaling(self, monkeypatch, n, center):
        traj = self.trajectory(n, center)
        u0 = traj[0]
        refs = [reference_scaling_law(u0, sigma, 1.0, 3.0) for sigma in (0.5, 2.0)]
        fields = [check_scaling_law(u0, sigma, 1.0, 3.0) for sigma in (0.5, 2.0)]
        self.no_fold(monkeypatch)
        for sigma, ref, field in zip((0.5, 2.0), refs, fields):
            res = check_scaling_law(traj, sigma, 1.0, 3.0)
            for got in (res, field):
                assert got["lhs"] == pytest.approx(ref["lhs"], rel=1e-12)
                assert got["rhs"] == pytest.approx(ref["rhs"], rel=1e-12)

    @pytest.mark.parametrize("n, center", DATA)
    def test_lemma34(self, monkeypatch, n, center):
        traj = self.trajectory(n, center, nonlinear=False)
        ref = reference_weighted_strichartz_ratio(traj)
        self.no_fold(monkeypatch)
        assert weighted_strichartz_ratio(traj) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n, center", DATA)
    def test_duhamel_scale(self, monkeypatch, n, center):
        from types import SimpleNamespace

        from semirelax.checks import CHECKS

        traj = self.trajectory(n, center)
        ref = duhamel_residual(traj)["residual"] / l2_norm(traj[0])
        ctx = SimpleNamespace(traj=traj, scenario=SimpleNamespace(s=1.0, dt=0.02))
        self.no_fold(monkeypatch)
        data = CHECKS["duhamel"].evaluate(ctx)
        assert data["relative"] == pytest.approx(ref, rel=1e-12)


class TestScalingLaw:
    def test_sigma_one_is_identity(self):
        g = make_grid(1, 64, 20.0)
        u0 = mode_field(g, 3)
        res = check_scaling_law(u0, 1.0, 1.0, 3.0)
        assert res["relative"] < 1e-14

    @pytest.mark.parametrize("n,p", [(1, 3.0), (2, 3.0), (3, 3.0)])
    def test_critical_index_ratio_one(self, n, p):
        # s = n/2 - 1/(p-1); for (1, 3) this is 0 and the mean-free
        # homogeneous convention still scales exactly
        g = make_grid(n, 16, 12.0)
        u0 = gaussian_field(g, 0.8, width=1.5)
        s_crit = n / 2.0 - 1.0 / (p - 1.0)
        for sigma in (0.5, 2.0):
            res = check_scaling_law(u0, sigma, s_crit, p)
            assert res["relative"] < 1e-8
            assert res["lhs"] / res["rhs"] == pytest.approx(1.0, abs=1e-8)

    def test_explicit_rate(self):
        # n=1, p=3, s=1: rate 1/2 + 1 - 1/2 = 1, so sigma = 2 doubles the norm
        g = make_grid(1, 128, 25.0)
        u0 = gaussian_field(g, 0.5)
        res = check_scaling_law(u0, 2.0, 1.0, 3.0)
        assert res["relative"] < 1e-9
        spec = SobolevSpec(1.0, homogeneous=True)
        base = sobolev_norm(u0, spec)
        assert res["lhs"] == pytest.approx(2.0 * base, rel=1e-9)

    def test_rejects_nonpositive_sigma(self):
        g = make_grid(1, 64, 20.0)
        with pytest.raises(ValueError):
            check_scaling_law(gaussian_field(g), -1.0, 1.0, 3.0)


class TestStraussRatio:
    def test_zero_field_convention(self):
        g = make_grid(3, 16, 10.0)
        assert strauss_ratio(constant_field(g, 0.0), s=1.0) == 0.0

    def test_gaussian_quadrature_oracle(self):
        # n=3, s=1: sup_r r^(1/2) exp(-r^2) against the H1dot norm
        import scipy.integrate
        import scipy.optimize

        g = make_grid(3, 64, 16.0)
        f = gaussian_field(g)
        sup = scipy.optimize.minimize_scalar(
            lambda r: -(r**0.5) * np.exp(-(r**2)), bounds=(0.0, 4.0), method="bounded"
        )
        num = -sup.fun
        # |grad u|^2 = 4 r^2 exp(-2 r^2); integrate over R^3
        val, _ = scipy.integrate.quad(
            lambda r: 4 * np.pi * r**2 * 4 * r**2 * np.exp(-2 * r**2), 0, np.inf
        )
        expected = num / np.sqrt(val)
        assert strauss_ratio(f, s=1.0) == pytest.approx(expected, rel=1e-3)

    def test_radial_profile_input(self):
        prof = profile_from_function(lambda r: np.exp(-(r**2)), R=10.0, M=512)
        ratio = strauss_ratio(prof, s=1.0)
        assert math.isfinite(ratio) and ratio > 0

    def test_field_and_profile_routes_agree(self):
        # same gaussian through the 3-d grid and the radial sine-series path
        g = make_grid(3, 64, 20.0)
        field_ratio = strauss_ratio(gaussian_field(g), s=1.0)
        prof = profile_from_function(lambda r: np.exp(-(r**2)), R=20.0, M=1024)
        profile_ratio = strauss_ratio(prof, s=1.0)
        assert field_ratio == pytest.approx(profile_ratio, rel=2e-2)

    def test_scaling_invariance(self):
        # both sides homogeneous of the same degree under the critical rescaling
        s = 1.0
        n = 3
        base = make_grid(n, 16, 12.0)
        f = gaussian_field(base, 0.7)
        r1 = strauss_ratio(f, s=s)
        scaled_grid = make_grid(n, 16, 6.0)
        scaled = Field(scaled_grid, 2.0 ** (n / 2.0 - s) * f.values, "physical")
        r2 = strauss_ratio(scaled, s=s)
        assert r1 == pytest.approx(r2, rel=1e-6)

    def test_hypothesis_range(self):
        g = make_grid(3, 16, 10.0)
        f = gaussian_field(g)
        with pytest.raises(ValueError, match="1/2 < s < n/2"):
            strauss_ratio(f, s=1.6)
        g1 = make_grid(1, 16, 10.0)
        with pytest.raises(ValueError, match="n >= 2"):
            strauss_ratio(gaussian_field(g1), s=0.4)


@pytest.fixture(scope="module")
def linear_traj():
    g = make_grid(3, 16, 12.0)
    u0 = gaussian_field(g, 1.0)
    return evolve(u0, StepperConfig(p=3.0, dt=0.1, T=2.0, nonlinear=False))


class TestWeightedStrichartzRatio:
    def test_zero_data(self):
        g = make_grid(3, 16, 12.0)
        traj = evolve(constant_field(g, 0.0), StepperConfig(p=3.0, dt=0.1, T=0.5, nonlinear=False))
        assert weighted_strichartz_ratio(traj) == 0.0

    def test_finite_ratio(self, linear_traj):
        ratio = weighted_strichartz_ratio(linear_traj)
        assert math.isfinite(ratio) and ratio > 0

    def test_unimodular_invariance(self, linear_traj):
        g = linear_traj.grid
        phase = np.exp(1j * 1.234)
        u0 = Field(g, phase * linear_traj[0].values, "physical")
        traj2 = evolve(u0, linear_traj.config)
        a = weighted_strichartz_ratio(linear_traj)
        b = weighted_strichartz_ratio(traj2)
        assert a == pytest.approx(b, rel=1e-10)

    def test_matches_per_snapshot_weighted_norm(self):
        # the weight is built once per table; the numerator integrates the
        # table's weighted column, the per-snapshot weighted_norm, which
        # rebuilds it every time, bit for bit, over the octant L^2 norm of
        # row 0 (the table's; TestInitialRowReaders holds it against the
        # full grid)
        g = make_grid(3, 16, 12.0)
        cfg = StepperConfig(p=3.0, dt=0.1, T=0.5, nonlinear=False)
        traj = evolve(gaussian_field(g, 0.5), cfg)
        ref = space_time_norm(
            (traj.times, traj), 4.0, lambda u: weighted_norm(u, 0.5, 4.0, sign=-1)
        ) / diagnostics_table(traj)["l2"][0]
        assert weighted_strichartz_ratio(traj) == ref

    def test_rejects_nonlinear_trajectory(self):
        g = make_grid(3, 16, 12.0)
        traj = evolve(gaussian_field(g, 0.1), StepperConfig(p=3.0, dt=0.1, T=0.3))
        with pytest.raises(ValueError, match="linear trajectory"):
            weighted_strichartz_ratio(traj)


class TestHardyCheck:
    def test_constant_profile_flagged(self):
        prof = profile_from_function(lambda r: np.ones_like(r), R=10.0, M=128)
        report = hardy_time_derivative_check(prof)
        assert report["notes"].get("out_of_space") is True
        assert report["rhs"] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_quadrature_oracle(self):
        import scipy.integrate

        prof = profile_from_function(lambda r: np.exp(-(r**2)), R=12.0, M=1024)
        report = hardy_time_derivative_check(prof)
        val, _ = scipy.integrate.quad(
            lambda r: (r * (-2 * r) * np.exp(-(r**2))) ** 2, 0, np.inf
        )
        assert report["rhs"] == pytest.approx(np.sqrt(val), rel=1e-4)
        assert math.isfinite(report["empirical_constant"])
        assert "notes" not in report

    def test_closed_form_matches_finite_difference(self):
        from semirelax.radial import JEvaluator

        prof = profile_from_function(lambda r: np.exp(-(r**2)), R=12.0, M=1024)
        t, h = 0.9, 1e-5
        r = prof.r[(prof.r > 0.3) & (prof.r + t + h <= prof.r[-1])]
        ev = JEvaluator(prof)
        fd = (ev.j(t + h, r) - ev.j(t - h, r)) / (2 * h)
        cf = ev.dj_dt(t, r)
        assert np.max(np.abs(fd - cf)) < 1e-6


class TestSnapshotTable:
    @pytest.mark.parametrize("nonlinear,center", [
        pytest.param(True, 0.0, id="True-1"),
        pytest.param(False, 0.0, id="False-1"),
        pytest.param(True, 1.5, id="True-1-off_centre"),
        pytest.param(False, 1.5, id="False-1-off_centre"),
    ])
    def test_one_transform_per_snapshot(self, tmp_path, monkeypatch, nonlinear, center):
        # the CSV and the checks share one table: u once per snapshot, also
        # when the flow dissipates (both integrands come from its d_j u), by
        # dctn on the octant of centred data and by fftn otherwise; a call on
        # a stack of snapshots transforms each of them
        g = make_grid(2, 16, 10.0)
        cfg = StepperConfig(p=3.0, dt=0.02, T=0.2, nonlinear=nonlinear)
        traj = evolve(gaussian_field(g, 0.5, center=center), cfg)
        transformed = []
        for name in ("fftn", "dctn"):

            def spy(x, *args, _fn=getattr(scipy.fft, name), **kwargs):
                transformed.append(math.prod(np.shape(x)[: np.ndim(x) - g.n]))
                return _fn(x, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, spy)
        write_diagnostics_csv(traj, tmp_path / "diag.csv", s=1.5)
        check_l2_identity(traj, 0.0, 0.2)
        check_h1_identity(traj, 0.0, 0.2)
        check_hs_growth(traj, 1.5, C=1.0)
        assert sum(transformed) == len(traj)
        assert len(traj) == 11

    @pytest.mark.parametrize("center,absent", [
        (0.0, ("fftn", "ifftn")), (1.5, ("dctn", "idctn", "idst")),
    ])
    def test_table_runs_one_transform_pair(self, monkeypatch, center, absent):
        # a centred 3-d run is tabled on the octant, an off-centre one on the
        # full grid; neither touches the other pair
        g = make_grid(3, 16, 10.0)
        traj = evolve(gaussian_field(g, 0.5, center=center),
                      StepperConfig(p=3.0, dt=0.02, T=0.1))
        calls = count_calls(monkeypatch, ("fftn", "ifftn", "dctn", "idctn", "idst"))
        diagnostics_table(traj)
        assert all(calls[name] == 0 for name in absent)
        assert sum(calls.values()) > 0

    def test_columns_match_norm_functions(self, cubic_1d_trajectory):
        traj = cubic_1d_trajectory
        table = diagnostics_table(traj, s=0.75)
        p = traj.config.p
        h1, h2 = (SobolevSpec(r, homogeneous=True) for r in (1.0, 2.0))
        for i in (0, len(traj) - 1):
            u = traj[i]
            assert table["t"][i] == traj.times[i]
            assert table["l2"][i] == l2_norm(u)
            assert table["h1dot"][i] == sobolev_norm(u, h1)
            assert table["hs"][i] == sobolev_norm(u, SobolevSpec(0.75, homogeneous=True))
            assert table["h2dot"][i] == sobolev_norm(u, h2)
            assert table["linf"][i] == lp_norm(u, math.inf)
            assert table["lpp1"][i] == lp_norm(u, p + 1.0)
        assert tuple(table) == TABLE_COLUMNS
        assert diagnostics_table(traj, s=0.75) is table

    @pytest.mark.parametrize("n,p", [(1, 3.0), (2, 3.0), (1, 2.0), (2, 4.0)])
    def test_dissipation_columns_match_reference(self, n, p):
        # off-centre data keep the FFT stack, which matches bit for bit
        g = make_grid(n, 64 if n == 1 else 16, 10.0)
        u0 = gaussian_field(g, 0.6, center=1.0)
        traj = evolve(u0, StepperConfig(p=p, dt=0.01, T=0.05))
        table = diagnostics_table(traj)
        ref = reference_dissipation_terms(traj)
        assert np.array_equal(table["grad_term"], ref[:, 0])
        assert np.array_equal(table["modulus_term"], ref[:, 1])

    @pytest.mark.parametrize("n,p", [(2, 3.0), (2, 4.0), (3, 2.0), (3, 3.0)])
    def test_octant_dissipation_columns_match_reference(self, n, p):
        g = make_grid(n, 16, 10.0)
        traj = evolve(gaussian_field(g, 0.6), StepperConfig(p=p, dt=0.01, T=0.05))
        table = diagnostics_table(traj)
        ref = reference_dissipation_terms(traj)
        for column, want in zip(("grad_term", "modulus_term"), ref.T):
            assert np.max(np.abs(table[column] - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("n,N,L,p,center", [
        (1, 256, 40.0, 3.0, 0.0), (1, 64, 10.0, 2.0, 0.0), (2, 64, 12.0, 4.0, 1.0),
        (2, 64, 8.0, 2.0, 0.0), (3, 32, 8.0, 2.0, 0.0),
    ])
    def test_modulus_term_matches_the_spectral_form(self, n, N, L, p, center):
        # on resolved data the table's modulus_term agrees with the stated
        # form, grad |u|^2 taken spectrally from a transform of |u|^2, which
        # is exact only when |u|^2 is resolved too.  Measured worst row,
        # relative to the column's largest entry: 4e-12 for the 3-d case
        # (dx = 0.25), 4e-13 for the 2-d p = 4 one, below 1e-15 elsewhere
        g = make_grid(n, N, L)
        traj = evolve(gaussian_field(g, 0.6, center=center), StepperConfig(p=p, dt=0.01, T=0.05))
        table = diagnostics_table(traj)["modulus_term"]
        want = spectral_modulus_terms(traj)
        assert np.max(np.abs(table - want)) <= 1e-11 * np.max(want)

    def test_linear_trajectory_has_no_dissipation(self):
        g = make_grid(1, 64, 20.0)
        cfg = StepperConfig(p=3.0, dt=0.05, T=0.5, nonlinear=False)
        table = diagnostics_table(evolve(gaussian_field(g, 0.5), cfg))
        assert not np.any(table["grad_term"]) and not np.any(table["modulus_term"])
        assert np.all(table["lpp1"] > 0)


def asymmetric_trajectory():
    """A hand-built 3-d trajectory of six centred gaussians, one of them off
    the mirror rule, stored in blocks of three snapshots."""
    g = make_grid(3, 8, 10.0)
    snaps = [gaussian_field(g, 0.5, width=w) for w in (1.0, 0.9, 1.1, 0.8, 1.2, 0.7)]
    broken = snaps[1].values.copy()
    broken[1, 2, 3] += 1e-3
    snaps[1] = Field(g, broken)
    cfg = StepperConfig(p=3.0, dt=0.1, T=0.5)
    return stored_trajectory(cfg, 0.1 * np.arange(6), snaps, 3 * broken.nbytes)


def octant_checks(traj, i1, i2):
    """prop24 over snapshots i1..i2 (p = 3 only) and the Duhamel residual."""
    h2 = None
    if traj.config.p == 3:
        h2 = check_h2_inequality(traj, traj.times[i1], traj.times[i2])
    return h2, duhamel_residual(traj)


def assert_checks_close(traj, i1, i2, h2, duhamel):
    """octant_checks against the full-grid references: prop24's sides within
    1e-12 relative, and the Duhamel residual, itself a cancellation, within
    1e-12 of ||u0||."""
    if h2 is not None:
        ref = reference_h2_inequality(traj, i1, i2)
        assert h2["lhs"] == pytest.approx(ref["lhs"], rel=1e-12, abs=0)
        assert h2["rhs"] == pytest.approx(ref["rhs"], rel=1e-12, abs=0)
    ref = reference_duhamel_residual(traj)
    assert abs(duhamel["residual"] - ref["residual"]) <= 1e-12 * l2_norm(traj[0])
    assert abs(duhamel["offmask"] - ref["offmask"]) <= 1e-12 * l2_norm(traj[0])


class TestBlockedPass:
    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("n", [1, 2])
    def test_block_size_does_not_change_results(self, monkeypatch, n, nonlinear):
        # off-centre data keep the FFT stack, which matches bit for bit
        # evolve stores its snapshots in blocks of this size, which every
        # reader then takes
        g = make_grid(n, 64 if n == 1 else 16, 10.0)
        cfg = StepperConfig(p=3.0, dt=0.01, T=0.13, nonlinear=nonlinear)
        u0 = gaussian_field(g, 0.8, center=1.0)
        i1, i2 = 2, 11  # an interior window, split unevenly by blocks of 3
        row = stored_row_bytes(u0)
        settings = {1: [1] * 14, 3 * row: [3, 3, 3, 3, 2], 1 << 40: [14]}
        results = []
        for budget, sizes in settings.items():
            monkeypatch.setattr(propagator, "_BLOCK_BYTES", budget)
            traj = evolve(u0, cfg)
            assert [len(basis.samples) for _, basis in traj.blocks()] == sizes
            table = diagnostics_table(traj, 1.5)
            report = check_h2_inequality(traj, traj.times[i1], traj.times[i2])
            results.append((table, report, duhamel_residual(traj)))
        ref_table = reference_table(traj, 1.5)
        ref_report = reference_h2_inequality(traj, i1, i2)
        ref_duhamel = reference_duhamel_residual(traj)
        for table, report, duhamel in results:
            for name in TABLE_COLUMNS:
                assert np.array_equal(table[name], ref_table[name]), name
            assert report == ref_report
            assert_duhamel_matches(duhamel, ref_duhamel)

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_block_size_does_not_change_octant_results(self, monkeypatch, n, nonlinear):
        # the table, prop24 over an interior window and the Duhamel residual
        # take the same bits from any block size
        g = make_grid(n, 16 if n == 2 else 8, 10.0)
        cfg = StepperConfig(p=3.0, dt=0.01, T=0.13, nonlinear=nonlinear)
        u0 = gaussian_field(g, 0.8)
        i1, i2 = 2, 11
        results = []
        for budget in (1, 3 * stored_row_bytes(u0), 1 << 40):
            monkeypatch.setattr(propagator, "_BLOCK_BYTES", budget)
            traj = evolve(u0, cfg)
            results.append((diagnostics_table(traj, 1.5), *octant_checks(traj, i1, i2)))
        (first, *first_checks), *rest = results
        for table, *checks in rest:
            for name in TABLE_COLUMNS:
                assert np.array_equal(table[name], first[name]), name
            assert checks == first_checks
        assert_table_close(first, reference_table(traj, 1.5))
        assert_checks_close(traj, i1, i2, *first_checks)

    def test_asymmetric_block_falls_back(self, monkeypatch):
        # one snapshot off the mirror rule sends the whole hand-built
        # trajectory, both of its blocks, to the FFT stack, one forward
        # transform each, which matches the reference bit for bit
        traj = asymmetric_trajectory()
        calls = count_calls(monkeypatch, ("fftn", "dctn"))
        table = diagnostics_table(traj, 1.5)
        assert calls == {"fftn": 2, "dctn": 0}
        ref = reference_table(traj, 1.5)
        for name in TABLE_COLUMNS:
            assert np.array_equal(table[name], ref[name]), name

    def test_asymmetric_trajectory_duhamel_matches_reference(self):
        # the Duhamel sum spans blocks, so it needs one basis per trajectory
        traj = asymmetric_trajectory()
        assert_duhamel_matches(duhamel_residual(traj), reference_duhamel_residual(traj))

    @given(
        n=st.sampled_from([2, 3]),
        gaussian=st.booleans(),
        p=st.sampled_from([2.0, 2.5, 3.0, 5.0]),
        nonlinear=st.booleans(),
        s=st.sampled_from([0.75, 1.5]),
        budget=st.integers(1, 1 << 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_octant_table_matches_reference_property(
        self, n, gaussian, p, nonlinear, s, budget, seed
    ):
        # mirror-symmetric data with n >= 2 are tabled, and run prop24 and
        # the Duhamel residual, on the DCT-I octant: within 1e-12 of the FFT
        # references, and any block size gives the same bits as one
        # snapshot per block
        g = make_grid(n, 16 if n == 2 else 8, 8.0)
        if gaussian:
            u0 = gaussian_field(g, 0.6)
        else:
            u0 = symmetrized(random_field(g, np.random.default_rng(seed)))
        cfg = StepperConfig(p=p, dt=0.02, T=0.1, nonlinear=nonlinear)
        results = []
        for block_bytes in (budget, 1):
            propagator._BLOCK_BYTES = block_bytes
            try:
                traj = evolve(u0, cfg)
                results.append((diagnostics_table(traj, s), *octant_checks(traj, 1, 5)))
            finally:
                propagator._BLOCK_BYTES = BLOCK_BYTES
        (table, *checks), (other, *other_checks) = results
        for name in TABLE_COLUMNS:
            assert np.array_equal(table[name], other[name]), name
        assert checks == other_checks
        assert_table_close(table, reference_table(traj, s))
        assert_checks_close(traj, 1, 5, *checks)

    def test_multipliers_built_once_per_table(self, monkeypatch):
        g = make_grid(1, 64, 10.0)
        monkeypatch.setattr(propagator, "_BLOCK_BYTES", 1)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.01, T=0.13))
        builds = []
        at = SobolevSpec._at

        def spy(spec, xi):
            builds.append(spec.s)
            return at(spec, xi)

        monkeypatch.setattr(SobolevSpec, "_at", spy)
        assert len(list(traj.blocks())) == 14
        diagnostics_table(traj, 1.5)
        assert builds == [1.0, 2.0, 1.5]

    def test_single_snapshot_block_is_a_view(self, monkeypatch):
        # an octant-resident trajectory: the table's one-snapshot block is a
        # view of the stored octant array, not a fold or a gather
        g = make_grid(2, 16, 10.0)
        monkeypatch.setattr(propagator, "_BLOCK_BYTES", 1)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.05, T=0.1))
        blocks = list(traj.blocks())
        assert [i for i, _ in blocks] == [0, 1, 2]
        for i, basis in blocks:
            assert basis.samples.shape == (1, 9, 9)
            assert np.shares_memory(basis.samples, traj.stored[i])

    def test_table_frees_each_block_before_the_next(self):
        # p11_1d_cubic's data: 1,001 rows of N = 256 in sixteen 256 KiB
        # blocks.  A block's coefficients, moduli and dissipation densities go
        # before the next block's forward transform, so the table peaks at
        # most 1.3 MiB above the trajectory it reads (about 1.23 MiB; 4.15
        # with 1 MiB blocks)
        g = make_grid(1, 256, 40.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=1e-3, T=1.0))
        assert [len(basis.samples) for _, basis in traj.blocks()] == [64] * 15 + [41]
        tracemalloc.start()
        try:
            diagnostics_table(traj, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2**20

    def test_duhamel_frees_each_block_before_the_next(self):
        # the same data: |u|^(p-1) and the U(t_final - t_k) factor are formed
        # in place and a block's arrays go before the next block's transform,
        # so the residual peaks at most 0.85 MiB above the trajectory (about
        # 0.78 MiB; 2.53 with 1 MiB blocks)
        g = make_grid(1, 256, 40.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=1e-3, T=1.0))
        tracemalloc.start()
        try:
            duhamel_residual(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.85 * 2**20


def unfold(octant, N):
    """The full grid of mirror-symmetric samples from their octant: placed at
    grid indices N/2, ..., N-1, 0 on every axis, then mirrored axis by axis."""
    n = octant.ndim
    full = np.zeros((N,) * n, dtype=complex)
    full[np.ix_(*[(N // 2 + np.arange(N // 2 + 1)) % N] * n)] = octant
    for ax in range(n):
        low = (slice(None),) * ax + (slice(1, N // 2),)
        full[low] = mirror(full, ax)[low]
    return full


class TestOctantResident:
    @given(
        n=st.sampled_from([2, 3]),
        gaussian=st.booleans(),
        nonlinear=st.booleans(),
        stride=st.sampled_from([1, 2]),
        budget=st.integers(1, 1 << 16),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_full_grid_readers_property(
        self, n, gaussian, nonlinear, stride, budget, seed
    ):
        # evolve of mirror-symmetric data stores octants; each snapshot read
        # as a Field, u0 included, is their fold, the table and lemma34 equal
        # those of the same Fields stored again by stored_trajectory (one
        # mirror test, octants gathered anew, blocks of another size) bit for
        # bit, and lemma34 agrees with its full-grid sum to roundoff
        g = make_grid(n, 16 if n == 2 else 8, 8.0)
        if gaussian:
            u0 = gaussian_field(g, 0.6)
        else:
            u0 = symmetrized(random_field(g, np.random.default_rng(seed)))
        cfg = StepperConfig(p=3.0, dt=0.02, T=0.12, snapshot_stride=stride, nonlinear=nonlinear)
        traj = evolve(u0, cfg)
        octants = np.concatenate(block_rows(traj))
        first = traj[0].values
        assert np.array_equal(first, u0.values) and first.dtype == u0.values.dtype
        for k in range(len(octants)):
            assert np.array_equal(traj[k].values, unfold(octants[k], g.N))
        fields = list(traj)
        hand = stored_trajectory(cfg, traj.times, fields, budget)
        table, ref = diagnostics_table(traj, 1.5), diagnostics_table(hand, 1.5)
        for name in TABLE_COLUMNS:
            assert np.array_equal(table[name], ref[name]), name
        linear = replace(cfg, nonlinear=False)
        ratio, by_hand = (
            weighted_strichartz_ratio(replace(t, config=linear))
            for t in (traj, hand)
        )
        full = space_time_norm(
            (traj.times, fields), 4.0, lambda u: weighted_norm(u, 0.5, 4.0, sign=-1)
        ) / l2_norm(u0)
        assert ratio == by_hand
        assert ratio == pytest.approx(full, rel=1e-14)

    def test_prop24_and_duhamel_read_the_stored_octant(self, monkeypatch):
        # both run on the stored octant blocks: no full-grid transform and
        # no fold of any snapshot
        g = make_grid(3, 16, 10.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.02, T=0.1))

        def no_fold(store, k):
            raise AssertionError("folds no snapshot")

        monkeypatch.setattr(Trajectory, "__getitem__", no_fold)
        calls = count_calls(monkeypatch, ("fftn", "ifftn", "dctn"))
        check_h2_inequality(traj, 0.0, 0.1)
        duhamel_residual(traj)
        assert calls["fftn"] == calls["ifftn"] == 0
        assert calls["dctn"] > 0

    def test_octant_readers_build_no_full_grid_xi(self):
        # evolve, the table, prop24 and the Duhamel residual take |xi| at the
        # octant modes alone: Grid.xi_norm is never built
        g = make_grid(3, 16, 10.0)
        traj = evolve(gaussian_field(g, 0.5), StepperConfig(p=3.0, dt=0.02, T=0.1))
        diagnostics_table(traj, 1.5)
        check_h2_inequality(traj, 0.0, 0.1)
        duhamel_residual(traj)
        assert traj.basis.weights is not None
        assert "xi_norm" not in g.__dict__

    def test_stored_snapshots_stay_on_the_octant(self):
        # a linear stride-1 run and its table hold the 20 stored snapshots as
        # octants, about 1/8 of the full grid each; folding them all would
        # take 20 full grids
        g = make_grid(3, 32, 10.0)
        cfg = StepperConfig(p=3.0, dt=0.05, T=19 * 0.05, nonlinear=False)
        tracemalloc.start()
        try:
            traj = evolve(gaussian_field(g, 0.5), cfg)
            diagnostics_table(traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 20
        assert peak < len(traj) * 16 * g.size / 3


class TestDiagnosticsOutput:
    def test_table_fields(self, cubic_1d_trajectory):
        table = diagnostics_table(cubic_1d_trajectory, s=1.5)
        assert len(table["l2"]) == len(cubic_1d_trajectory)
        for name in ("l2", "h1dot", "h2dot", "hs", "linf", "lpp1"):
            value = table[name][0]
            assert math.isfinite(value) and value >= 0

    def test_residual_columns_match_the_checks(self, tmp_path, cubic_1d_trajectory):
        # the CSV's running trapezoid sums against check_l2_identity and
        # check_h1_identity over each window [0, t_i]
        traj = cubic_1d_trajectory
        write_diagnostics_csv(traj, tmp_path / "diag.csv")
        rows = np.loadtxt(tmp_path / "diag.csv", delimiter=",", skiprows=1)
        assert len(rows) == len(traj)
        assert rows[0, 7] == rows[0, 8] == 0.0
        for t, res21, res22 in rows[1:, [0, 7, 8]]:
            assert abs(res21 - check_l2_identity(traj, 0.0, t)["relative"]) <= 1e-12
            assert abs(res22 - check_h1_identity(traj, 0.0, t)["relative"]) <= 1e-12

    def test_returns_the_written_rows(self, tmp_path, cubic_1d_trajectory):
        # --plots charts these rows: the CSV's %.17g reads back to the same bits
        path = tmp_path / "diag.csv"
        rows = write_diagnostics_csv(cubic_1d_trajectory, path, s=1.5)
        parsed = np.loadtxt(path, delimiter=",", skiprows=1)
        assert rows.shape == parsed.shape == (len(cubic_1d_trajectory), 9)
        assert np.array_equal(rows.view(np.int64), parsed.view(np.int64))

    def test_csv_format(self, tmp_path, cubic_1d_trajectory):
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(cubic_1d_trajectory, path, s=1.5)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(cubic_1d_trajectory)
        row = lines[1].split(",")
        assert len(row) == 9
        assert float(row[0]) == 0.0
        # running residual columns start at zero and stay small
        last = lines[-1].split(",")
        assert float(last[7]) < 1e-7
        assert float(last[8]) < 1e-6
