"""The check table: one entry per check a scenario may request.

Each check tests one stated result of the paper (Props 1.1-1.4 and
2.1-2.4, Lemmas 3.3-3.6, Cors 3.7 and 3.9) under that result's own
hypotheses, which broken_hypothesis names at load time.  Its entry in
CHECKS holds its evaluator, which maps the run's lazily computed solver
outputs (runner._RunContext) to a verdict and a JSON payload, and what it
reads: "spectral" (a spectral grid: solver = spectral or both), "radial"
(the radial initial profile: M, R and centred gaussian data), "both"
(solver = both) or "any".  The loader (scenarios._validate) and the runner
read this table.

Pass thresholds for the residual checks scale with (dt / 1e-3)^2, matching
the second-order convergence of the splitting, and are calibrated so the
shipped catalog passes at its default resolutions.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline

from . import diagnostics as diag
from .fields import to_physical
from .norms import l2_norm
from .propagator import StepperConfig, Trajectory, duhamel_residual
from .radial import RadialTrajectory, maximal_bound_check, maximal_domination_gap

# residual thresholds at the reference step dt = 1e-3
PROP21_TOL = 1.0e-6
PROP22_TOL = 1.0e-5
DUHAMEL_TOL = 1.0e-3
LEMMA35_TOL = 1.0e-2
SCALING_TOL = 1.0e-8
MAXIMAL_TOL = 1.0e-8

_SMALL_DATA_AMPLITUDE = 0.25


def _dt_scaled(tol: float, dt: float) -> float:
    return tol * (dt / 1.0e-3) ** 2


def _check_regime(ctx) -> tuple[bool, dict]:
    """Regime markers: the run completed, stayed finite and mass-monotone
    (instability would have aborted the solver)."""
    if ctx.scenario.solver == "radial-wave":
        ok = np.isfinite(ctx.radial_traj.profiles[-1].values).all()
        return bool(ok), {}
    norms = diag.diagnostics_table(ctx.traj, ctx.scenario.s)["l2"].tolist()
    ok = all(np.isfinite(norms)) and norms[-1] <= norms[0] * (1 + 1e-10)
    return ok, {"initial_l2": norms[0], "final_l2": norms[-1]}


def _check_balance(ctx, checker, base_tol: float) -> tuple[bool, dict]:
    """A balance law over the whole run against a dt-scaled tolerance."""
    traj = ctx.traj
    res = checker(traj, 0.0, float(traj.times[-1]))
    tol = _dt_scaled(base_tol, ctx.scenario.dt)
    data = {**res.as_dict(), "tolerance": tol, "t1_zero_extension": True}
    return res.relative < tol, data


def _check_prop23(ctx) -> tuple[bool, dict]:
    report = diag.check_hs_growth(ctx.traj, ctx.scenario.s, C=1.0)
    ok = math.isfinite(report.empirical_constant)
    return ok, report.as_dict()


def _check_prop24(ctx) -> tuple[bool, dict]:
    traj = ctx.traj
    report = diag.check_h2_inequality(traj, 0.0, float(traj.times[-1]))
    ok = report.slack >= -1e-12 * max(report.rhs, 1.0)
    return ok, report.as_dict()


def _check_scaling(ctx) -> tuple[bool, dict]:
    sc = ctx.scenario
    u0 = sc.initial_field()
    data, ok = {}, True
    for sigma in (0.5, 2.0):
        res = diag.check_scaling_law(u0, sigma, sc.s, sc.p)
        data[f"relative_sigma_{sigma}"] = res.relative
        ok = ok and res.relative < SCALING_TOL
    return ok, data


def _check_lemma33(ctx) -> tuple[bool, dict]:
    sc = ctx.scenario
    ratio = diag.strauss_ratio(sc.initial_field(), s=sc.s)
    return math.isfinite(ratio), {"ratio": ratio}


def _check_lemma34(ctx) -> tuple[bool, dict]:
    ratio = diag.weighted_strichartz_ratio(ctx.linear_traj, delta=0.5, q1=4.0)
    return math.isfinite(ratio), {"ratio": ratio}


def _check_lemma35(ctx) -> tuple[bool, dict]:
    disagreement = spectral_vs_wave_disagreement(ctx.traj, ctx.radial_traj)
    data = {"relative_linf": disagreement, "tolerance": LEMMA35_TOL}
    return disagreement < LEMMA35_TOL, data


def _check_lemma36(ctx) -> tuple[bool, dict]:
    worst = maximal_domination_gap(seed=0, trials=10)
    return worst <= MAXIMAL_TOL, {"worst_gap": worst}


def _check_cor37(ctx) -> tuple[bool, dict]:
    report = maximal_bound_check(ctx.profile, T=ctx.scenario.T)
    ok = math.isfinite(report.empirical_constant)
    return ok, report.as_dict()


def _check_cor39(ctx) -> tuple[bool, dict]:
    report = diag.hardy_time_derivative_check(ctx.profile)
    ok = math.isfinite(report.empirical_constant) and "out_of_space" not in report.notes
    return ok, report.as_dict()


def _check_duhamel(ctx) -> tuple[bool, dict]:
    value = duhamel_residual(ctx.traj)
    scale = max(l2_norm(ctx.traj.snapshots[0]), 1e-30)
    tol = _dt_scaled(DUHAMEL_TOL, ctx.scenario.dt)
    return value / scale < tol, {"residual": value, "relative": value / scale}


class Check(NamedTuple):
    evaluate: Callable  # ctx -> (passed, JSON payload)
    reads: str


# checkers are looked up at call time, so a wrapper bound into the
# diagnostics module (a tracer, a test spy) sees every call
CHECKS = {
    "prop11": Check(_check_regime, "spectral"),  # n = 1 regime marker
    "prop12": Check(_check_regime, "spectral"),  # n = 2 regime marker
    "prop13": Check(_check_regime, "any"),  # n = 3 radial regime marker
    "prop14": Check(_check_regime, "any"),  # n = 3 radial critical marker
    "prop21": Check(  # mass balance residual
        lambda ctx: _check_balance(ctx, diag.check_l2_identity, PROP21_TOL), "spectral"
    ),
    "prop22": Check(  # gradient balance residual
        lambda ctx: _check_balance(ctx, diag.check_h1_identity, PROP22_TOL), "spectral"
    ),
    "prop23": Check(_check_prop23, "spectral"),  # H^s growth constant
    "prop24": Check(_check_prop24, "spectral"),  # curvature inequality
    "scaling": Check(_check_scaling, "spectral"),  # homogeneous-norm rescaling
    "lemma33": Check(_check_lemma33, "spectral"),  # radial weighted sup probe
    "lemma34": Check(_check_lemma34, "spectral"),  # weighted space-time probe, free flow
    "lemma35": Check(_check_lemma35, "both"),  # spectral vs wave-form cross-check
    "lemma36": Check(_check_lemma36, "any"),  # maximal-function domination probe
    "cor37": Check(_check_cor37, "radial"),  # radial average L^2_t L^inf bound
    "cor39": Check(_check_cor39, "radial"),  # Hardy bound, time derivative of J
    "duhamel": Check(_check_duhamel, "spectral"),  # integral-equation defect
}


def broken_hypothesis(sc, check: str, initial_kind: str, initial_args) -> str | None:
    """The first hypothesis of check's result, or of what its entry reads,
    that the scenario sc breaks; None when it keeps them all.  The solvers'
    own rules and the radial profile are checked by the loader."""
    reads = CHECKS[check].reads
    if reads == "spectral" and sc.solver == "radial-wave":
        return "spectral checks need the spectral solver (use solver = spectral or both)"
    if reads == "both" and sc.solver != "both":
        return "needs both solvers (solver = both)"
    if check == "prop11" and sc.n != 1:
        return f"the n = 1 regime requires n = 1, got n={sc.n}"
    if check == "prop12":
        if sc.n != 2:
            return f"the n = 2 regime requires n = 2, got n={sc.n}"
        if not (0.75 < sc.s < sc.p):
            return f"requires 3/4 < s < p, got s={sc.s}, p={sc.p}"
    if check == "prop13":
        if sc.n < 3:
            return f"the radial regime requires n >= 3, got n={sc.n}"
        bound = 1.0 + 2.0 / (sc.n - 2.0)
        if not (1.0 < sc.p < bound):
            return f"requires 1 < p < 1 + 2/(n-2) = {bound}, got p={sc.p}"
    if check == "prop14":
        if sc.n != 3 or sc.p != 3:
            return f"the critical regime requires n = 3 and p = 3, got n={sc.n}, p={sc.p}"
        if initial_kind != "gaussian" or abs(initial_args[0]) > _SMALL_DATA_AMPLITUDE:
            return (
                "requires small radial data "
                f"(gaussian amplitude <= {_SMALL_DATA_AMPLITUDE})"
            )
    if check == "prop23":
        if sc.n not in (1, 2):
            return f"the growth bound requires n in {{1, 2}}, got n={sc.n}"
        if not (sc.n / 2.0 < sc.s < min(2.0, sc.p)):
            return f"requires n/2 < s < min(2, p), got s={sc.s}"
    if check == "prop24" and sc.p != 3:
        return f"the curvature inequality requires p = 3, got p={sc.p}"
    if check == "lemma33":
        if sc.n < 2:
            return f"the radial sup probe requires n >= 2, got n={sc.n}"
        if not (0.5 < sc.s < sc.n / 2.0):
            return f"requires 1/2 < s < n/2, got s={sc.s}"
    if check in ("prop21", "prop22", "prop24", "duhamel"):
        need = 3 if check == "duhamel" else 2  # the Duhamel trapezoid; a window [0, T]
        stored = 1 + StepperConfig(sc.p, sc.dt, sc.T).n_steps // sc.snapshot_stride
        if stored < need:
            return f"needs {need} stored snapshots, got {stored} (from T, dt, snapshot_stride)"


def spectral_vs_wave_disagreement(traj: Trajectory, rtraj: RadialTrajectory) -> float:
    """Relative L^inf gap at the final common time between the 3-d spectral
    solution along the positive first axis and the wave-form profile."""
    u3 = to_physical(traj.snapshots[-1])
    grid = u3.grid
    half = grid.N // 2
    axis_vals = u3.values[(slice(half + 1, None),) + (half,) * (grid.n - 1)]
    radii = grid.axis[half + 1 :]
    prof = rtraj.profiles[-1]
    keep = radii <= prof.r[-1]
    wave_vals = CubicSpline(prof.r, prof.values, bc_type="not-a-knot")(radii[keep])
    scale = float(np.max(np.abs(wave_vals)))
    if scale == 0:
        return float(np.max(np.abs(axis_vals[keep])))
    return float(np.max(np.abs(axis_vals[keep] - wave_vals)) / scale)
