"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single [PASS] line on success (visible with -s or in
failure reports); shared fixtures hold the expensive runs.  The radial
cross-check is the long pole (several minutes at the refined level).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

from semirelax import (
    SobolevSpec,
    StepperConfig,
    check_h1_identity,
    check_h2_inequality,
    check_hs_growth,
    check_l2_identity,
    check_scaling_law,
    critical_power,
    diagnostics_table,
    embedding_exponent_check,
    evolve,
    gaussian_field,
    hardy_time_derivative_check,
    l2_norm,
    linear_step,
    make_grid,
    maximal_bound_check,
    profile_from_function,
    run,
    scaling_critical_exponent,
    sobolev_norm,
    strauss_ratio,
    wave_evolve,
    weighted_strichartz_ratio,
)
from semirelax.checks import spectral_vs_wave_disagreement
from semirelax.exponents import _admissible_r
from semirelax.plotting import fit_order
from semirelax.radial import JEvaluator, cumulative_mass, maximal_function
from semirelax.scenarios import load_config
from conftest import random_field


def _report(num, name):
    print(f"[PASS] criterion {num}: {name}")


# --- shared expensive runs -------------------------------------------------

P11_DTS = (1e-3, 5e-4, 2.5e-4)


@pytest.fixture(scope="module")
def p11_runs():
    """The 1-d cubic reference scenario at three refinement levels."""
    g = make_grid(1, 256, 40.0)
    u0 = gaussian_field(g, 0.5)
    return {
        dt: evolve(u0, StepperConfig(p=3.0, dt=dt, T=1.0)) for dt in P11_DTS
    }


RUN2D_DTS = (2e-3, 1e-3, 5e-4)


@pytest.fixture(scope="module")
def runs_2d():
    """The 2-d cubic scenario (s = 1.5 diagnostics) at three levels."""
    g = make_grid(2, 128, 30.0)
    u0 = gaussian_field(g, 0.5)
    return {
        dt: evolve(u0, StepperConfig(p=3.0, dt=dt, T=0.25, snapshot_stride=2))
        for dt in RUN2D_DTS
    }


@pytest.fixture(scope="module")
def radial_cross_check():
    """Spectral vs wave-form disagreement at a coarse and a jointly refined
    level.  Joint refinement doubles the resolutions and the truncation
    domains (same dx, dr), halving dt, so the box-image error floor of the
    nonlocal operator shrinks along with the discretization error."""
    amp = 0.0357  # H^1 norm of the gaussian data ~ 0.1
    out = {}
    with scipy.fft.set_workers(2):
        for label, (N, L, M, R, dt) in {
            "coarse": (64, 20.0, 512, 20.0, 4e-3),
            "refined": (128, 40.0, 1024, 40.0, 2e-3),
        }.items():
            g = make_grid(3, N, L)
            u0 = gaussian_field(g, amp)
            traj = evolve(u0, StepperConfig(p=3.0, dt=dt, T=1.0, snapshot_stride=50))
            prof = profile_from_function(lambda r: amp * np.exp(-(r**2)), R=R, M=M)
            rtraj = wave_evolve(prof, 3.0, dt=dt, T=1.0)
            out[label] = spectral_vs_wave_disagreement(traj, rtraj)
    return out


# --- criterion 1: unitarity ------------------------------------------------

def test_criterion_1_unitarity():
    sizes = {1: 64, 2: 32, 3: 16}
    for n in (1, 2, 3):
        g = make_grid(n, sizes[n], 11.0)
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            f = random_field(g, rng, spectral_decay=False)
            tau = float(rng.uniform(0.0, 20.0))
            ratio = l2_norm(linear_step(f, tau)) / l2_norm(f)
            assert 1 - 1e-12 <= ratio <= 1 + 1e-12
    _report(1, "free propagator is an L2 isometry (100 random fields per n)")


# --- criterion 2: mass balance ---------------------------------------------

def test_criterion_2_l2_dissipation_identity(p11_runs):
    residuals = {
        dt: check_l2_identity(traj, 0.0, 1.0)["relative"]
        for dt, traj in p11_runs.items()
    }
    assert residuals[1e-3] < 1e-6
    ratio = residuals[1e-3] / residuals[5e-4]
    assert 3.2 <= ratio <= 4.8
    order = fit_order(P11_DTS, [residuals[dt] for dt in P11_DTS])
    assert 1.8 <= order <= 2.2
    _report(2, f"mass balance residual {residuals[1e-3]:.2e} < 1e-6, order {order:.2f}")


# --- criterion 3: gradient balance ------------------------------------------

def test_criterion_3_h1_identity(p11_runs):
    residuals = {
        dt: check_h1_identity(traj, 0.0, 1.0)["relative"]
        for dt, traj in p11_runs.items()
    }
    assert residuals[1e-3] < 1e-5
    order = fit_order(P11_DTS, [residuals[dt] for dt in P11_DTS])
    assert 1.8 <= order <= 2.2
    traj = p11_runs[1e-3]
    table = diagnostics_table(traj)
    assert np.all(table["grad_term"] >= 0) and np.all(table["modulus_term"] >= 0)
    spec = SobolevSpec(1.0, homogeneous=True)
    grads = [sobolev_norm(u, spec) for u in traj]
    assert all(b <= a * (1 + 1e-8) for a, b in zip(grads, grads[1:]))
    _report(3, f"gradient balance residual {residuals[1e-3]:.2e} < 1e-5, order {order:.2f}")


# --- criterion 4: curvature inequality ---------------------------------------

def test_criterion_4_h2_inequality(p11_runs, runs_2d):
    slacks_1d = []
    for dt in (1e-3, 5e-4):
        rep = check_h2_inequality(p11_runs[dt], 0.0, 1.0)
        assert rep["notes"]["slack"] >= 0
        slacks_1d.append(rep["notes"]["slack"])
    assert abs(slacks_1d[0] - slacks_1d[1]) <= 0.1 * max(slacks_1d)
    slacks_2d = []
    for dt in (2e-3, 1e-3):
        # 0.24 is a stored snapshot time at both refinement levels
        rep = check_h2_inequality(runs_2d[dt], 0.0, 0.24)
        assert rep["notes"]["slack"] >= 0
        slacks_2d.append(rep["notes"]["slack"])
    assert abs(slacks_2d[0] - slacks_2d[1]) <= 0.1 * max(slacks_2d)
    _report(4, "curvature inequality slack nonnegative and refinement-stable (n=1,2)")


# --- criterion 5: scaling law -------------------------------------------------

def test_criterion_5_scaling_law():
    assert scaling_critical_exponent(3, 3) == 1
    for n, p in ((1, 3.0), (2, 3.0), (3, 3.0)):
        g = make_grid(n, 16, 12.0)
        u0 = gaussian_field(g, 0.8, width=1.5)
        s_crit = float(scaling_critical_exponent(n, p))
        for sigma in (0.5, 2.0):
            for s in (s_crit, 1.2):
                res = check_scaling_law(u0, sigma, s, p)
                assert res["relative"] < 1e-8
            crit = check_scaling_law(u0, sigma, s_crit, p)
            assert crit["lhs"] / crit["rhs"] == pytest.approx(1.0, abs=1e-8)
    _report(5, "rescaled homogeneous norms follow the rate law; ratio 1 at s_crit")


# --- criterion 6: radial reduction equivalence --------------------------------

def test_criterion_6_radial_equivalence(radial_cross_check):
    coarse = radial_cross_check["coarse"]
    refined = radial_cross_check["refined"]
    assert coarse < 1e-2
    assert refined < coarse
    _report(6, f"wave-form vs spectral: {coarse:.2e} coarse, {refined:.2e} refined")


def test_radial_cross_check_leaves_one_fft_worker(radial_cross_check):
    # the fixture's FFT worker count must not leak into the tests run after it
    assert scipy.fft.get_workers() == 1


# --- criterion 7: kernel identities -------------------------------------------

def test_criterion_7_j_kernel_identities():
    ones = profile_from_function(lambda r: np.ones_like(r), R=10.0, M=512)
    for t in (0.0, 0.11, 1.0, 3.7):
        nodes = ones.r[ones.r + t <= ones.r[-1]]
        vals = JEvaluator(ones).j(t, nodes)
        assert np.max(np.abs(vals - t)) <= 1e-13 * max(1.0, t)

    prof = profile_from_function(lambda r: np.exp(-(r**2)), R=12.0, M=1024)
    t = 0.8
    nodes = prof.r[(prof.r > 0.3) & (prof.r + t + 0.1 <= prof.r[-1])]
    steps = (1e-2, 5e-3, 2.5e-3)
    ev = JEvaluator(prof)
    errs = []
    for h in steps:
        fd = (ev.j(t + h, nodes) - ev.j(t - h, nodes)) / (2 * h)
        errs.append(np.max(np.abs(fd - ev.dj_dt(t, nodes))))
    order = fit_order(steps, errs)
    assert 1.8 <= order <= 2.2

    rng = np.random.default_rng(2024)
    m = 256
    for _ in range(50):
        grid = np.linspace(0.0, 10.0, m, endpoint=False) + 10.0 / (2 * m)
        f = rng.random(m)
        f[rng.integers(m // 2, m) :] = 0.0
        t = float(grid[rng.integers(m // 4, m // 2)])
        C = cumulative_mass(grid, f)
        lhs = float(np.max((C(grid + t) - C(np.abs(grid - t))) / (2.0 * grid)))
        rhs = maximal_function(
            np.concatenate([-grid[::-1], grid]), np.concatenate([f[::-1], f]), t
        )
        assert lhs <= rhs + 1e-8
    _report(7, f"J[1] = t exact; dJ/dt order {order:.2f}; 50/50 dominations hold")


# --- criterion 8: ratio-probe stability ---------------------------------------

# regression baselines from the first validated run of this exact family
PINNED_PROBES = {
    "strauss": 0.22660047133166908,
    "weighted_strichartz": 1.043117002357607,
    "cor37": 0.3052817688638676,
    "cor39": 1.0418616356568966,
}


def _probe_family(level):
    """Fixed deterministic test family at two resolutions."""
    out = {}
    N, M = (32, 512) if level == 0 else (64, 1024)
    g = make_grid(3, N, 16.0)
    f = gaussian_field(g, 1.0)
    out["strauss"] = strauss_ratio(f, s=1.0)
    traj = evolve(
        gaussian_field(g, 1.0),
        StepperConfig(p=3.0, dt=0.1, T=4.0, nonlinear=False),
    )
    out["weighted_strichartz"] = weighted_strichartz_ratio(traj)
    prof = profile_from_function(lambda r: np.exp(-(r**2)), R=16.0, M=M)
    out["cor37"] = maximal_bound_check(prof, T=4.0, n_t=256)["empirical_constant"]
    out["cor39"] = hardy_time_derivative_check(prof, T=12.0, n_t=256)["empirical_constant"]
    return out


def test_criterion_8_ratio_probe_stability():
    base = _probe_family(0)
    fine = _probe_family(1)
    for name in base:
        assert math.isfinite(base[name]) and base[name] > 0
        change = max(base[name], fine[name]) / min(base[name], fine[name])
        assert change < 2.0, (name, base[name], fine[name])
        assert base[name] == pytest.approx(PINNED_PROBES[name], rel=1e-6), name
    _report(8, ", ".join(f"{k}={v:.4f}" for k, v in base.items()))


# --- criterion 9: growth-bound constant ----------------------------------------

def test_criterion_9_gronwall_constant_stability(runs_2d):
    constants = [
        check_hs_growth(runs_2d[dt], 1.5, C=1.0)["empirical_constant"]
        for dt in RUN2D_DTS
    ]
    assert all(math.isfinite(c) for c in constants)
    spread = max(constants) - min(constants)
    assert spread <= 0.1 * max(max(constants), 1e-12)
    _report(9, f"empirical growth constants {constants} stable within 10%")


# --- criterion 10: exponent bookkeeping ----------------------------------------

F = Fraction
EXPONENT_TABLE = [
    # (n, p, s_crit, q, r, admissible)
    (1, F(3), F(0), math.inf, F(2), True),
    (1, F(5), F(1, 4), math.inf, F(2), True),
    (1, F(2), F(-1, 2), 4, F(2), False),
    (1, F(3), F(0), math.inf, F(4), False),
    (1, F(7, 3), F(-1, 4), math.inf, F(2), True),
    (2, F(3), F(1, 2), 4, math.inf, True),
    (2, F(3), F(1, 2), 8, F(4), True),
    (2, F(2), F(0), math.inf, F(2), True),
    (2, F(7, 3), F(1, 4), 6, F(6), True),
    (2, F(5), F(3, 4), 5, F(10), True),
    (2, F(3), F(1, 2), 4, F(6), False),
    (2, F(4), F(2, 3), 3, F(2), False),
    (3, F(3), F(1), 4, F(4), True),
    (3, F(3), F(1), math.inf, F(2), True),
    (3, F(2), F(1, 2), 6, F(3), True),
    (3, F(5, 2), F(5, 6), 3, F(6), True),
    (3, F(3), F(1), 2, math.inf, False),
    (3, F(2), F(1, 2), 8, F(8, 3), True),
    (3, F(4), F(7, 6), 5, F(10, 3), True),
    (3, F(5), F(5, 4), 4, F(3), False),
]

EMBEDDING_TABLE = [
    (F(1), F(4), True),      # 1 > 3/4 + 1/8
    (F(7, 8), F(4), False),  # equality fails strictly
    (F(1), F(3), True),
    (F(3, 4), math.inf, False),
    (F(4, 5), F(10), False),  # equality at 3/4 + 1/20
    (F(17, 20), F(10), True),
    (F(1, 2), F(4), False),
    (F(2), F(5, 2), True),
]


def test_criterion_10_exponent_bookkeeping():
    assert len(EXPONENT_TABLE) == 20
    for n, p, s_expected, q, r, admissible in EXPONENT_TABLE:
        s = scaling_critical_exponent(n, p)
        assert s == s_expected, (n, p)
        if 2 * s < n:
            assert critical_power(n, s) == p, (n, s)
        assert (_admissible_r(n, q) == r) is admissible, (n, q, r)
    for s, r, verdict in EMBEDDING_TABLE:
        assert embedding_exponent_check(s, r) is verdict, (s, r)
    _report(10, "20-row exponent/admissibility table verified in exact arithmetic")


# --- criterion 11: determinism --------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        """
[scenario.det]
n = 1
p = 3
s = 1.5
solver = spectral
N = 64
L = 20
dt = 5e-3
T = 0.1
initial = gaussian(0.3, 1.0, 0.0)
checks = prop21, prop22, duhamel
"""
    )
    (sc,) = load_config(cfg)
    for name in ("a", "b"):
        report = run(sc, tmp_path / name, deterministic=True, plots=True)
        assert report.all_passed
    base_a, base_b = tmp_path / "a" / "det", tmp_path / "b" / "det"
    compared = 0
    for path_a in sorted(base_a.rglob("*")):
        if path_a.is_file():
            rel = path_a.relative_to(base_a)
            assert (base_b / rel).read_bytes() == path_a.read_bytes(), rel
            compared += 1
    assert compared >= 5
    _report(11, f"{compared} output files byte-identical across repeated runs")
