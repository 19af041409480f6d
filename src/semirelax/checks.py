"""The check table: one entry per check a scenario may request.

Each check tests one stated result of the paper (Props 1.1-1.4 and
2.1-2.4, Lemmas 3.3-3.6, Cors 3.7 and 3.9) under that result's own
hypotheses, which broken_hypothesis names at load time.  Its entry in
CHECKS holds its evaluator, which maps the run's lazily computed solver
outputs (runner._RunContext) to a JSON payload, what it reads: "spectral"
(a spectral grid: solver = spectral or both), "radial" (the 3-d radial
initial profile: n = 3, M, R and centred gaussian data), "both" (solver =
both) or "any", the payload entry it is judged on and that entry's bound,
the sweep role of that entry, and whether it reads the diagnostics table's
Hessian cross term column.  A Scenario's construction (the hypotheses of
its checks) and the runner read this table.

One rule decides every check, in runner.run alone: it passes when its
value is finite and at most its bound.  The bound defaults to inf, so a
probe with no stated constant passes when its value is finite.  Pass
thresholds for the residual checks scale with (dt / 1e-3)^2, matching
the second-order convergence of the splitting, and are calibrated so the
shipped catalog passes at its default resolutions.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics as diag
from .propagator import Trajectory, duhamel_residual
from .radial import (
    REGULARIZATION_EPS, RadialTrajectory, _Spline, maximal_bound_check,
    maximal_domination_gap, radial_l2_norm,
)

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


def _regime(ctx) -> dict:
    """Regime markers: the run completed, stayed finite and mass-monotone
    (instability would have aborted the solver)."""
    if ctx.scenario.solver == "radial-wave":
        first, last = ctx.radial_traj.profiles[0], ctx.radial_traj.profiles[-1]
        return {"initial_l2": radial_l2_norm(first), "final_l2": radial_l2_norm(last)}
    norms = diag.diagnostics_table(ctx.traj, ctx.scenario.s)["l2"].tolist()
    return {"initial_l2": norms[0], "final_l2": norms[-1]}


def _balance(ctx, checker, base_tol: float) -> dict:
    """A balance law over the whole run, with its dt-scaled tolerance."""
    traj = ctx.traj
    res = checker(traj, 0.0, float(traj.times[-1]))
    tol = _dt_scaled(base_tol, ctx.scenario.dt)
    return {**res, "tolerance": tol, "t1_zero_extension": True}


def _scaling(ctx) -> dict:
    sc = ctx.scenario
    data = {
        f"relative_sigma_{sigma}": diag.check_scaling_law(ctx.traj, sigma, sc.s, sc.p)["relative"]
        for sigma in (0.5, 2.0)
    }
    return {**data, "relative": max(data.values())}


def _duhamel(ctx) -> dict:
    value = duhamel_residual(ctx.traj)
    l2_0 = float(diag.diagnostics_table(ctx.traj, ctx.scenario.s)["l2"][0])
    scale = max(l2_0, REGULARIZATION_EPS)
    return {"residual": value, "relative": value / scale}


def _tolerance(sc, payload) -> float:
    return payload["tolerance"]


class Check(NamedTuple):
    evaluate: Callable  # ctx -> JSON payload
    reads: str
    value: str  # the payload entry the check is judged on
    # (scenario, payload) -> the largest value that passes; inf: finite only
    bound: Callable = lambda sc, payload: math.inf
    sweep: str | None = None  # "order": fitted over dt; "stability": compared across members
    hessian: bool = False  # reads the table's Hessian cross term column


_REGIME = Check(_regime, "spectral", "final_l2", lambda sc, d: d["initial_l2"] * (1 + 1e-10))

# checkers are looked up at call time, so a wrapper bound into the
# diagnostics module (a tracer, a test spy) sees every call
CHECKS = {
    "prop11": _REGIME,  # n = 1 regime marker
    "prop12": _REGIME,  # n = 2 regime marker
    "prop13": _REGIME._replace(reads="any"),  # n = 3 radial regime marker
    "prop14": _REGIME._replace(reads="any"),  # n = 3 radial critical marker
    "prop21": Check(  # mass balance residual
        lambda ctx: _balance(ctx, diag.check_l2_identity, PROP21_TOL), "spectral",
        "relative", _tolerance, sweep="order",
    ),
    "prop22": Check(  # gradient balance residual
        lambda ctx: _balance(ctx, diag.check_h1_identity, PROP22_TOL), "spectral",
        "relative", _tolerance, sweep="order",
    ),
    "prop23": Check(  # H^s growth bound
        lambda ctx: diag.check_hs_growth(ctx.traj, ctx.scenario.s, C=1.0),
        "spectral", "empirical_constant", sweep="stability",
    ),
    "prop24": Check(  # curvature inequality
        lambda ctx: diag.check_h2_inequality(ctx.traj, 0.0, float(ctx.traj.times[-1])),
        "spectral", "lhs", lambda sc, d: d["rhs"] + 1e-12 * max(d["rhs"], 1.0), hessian=True,
    ),
    "scaling": Check(_scaling, "spectral", "relative", lambda sc, d: SCALING_TOL),  # rescaling
    "lemma33": Check(  # radial weighted sup probe
        lambda ctx: {"ratio": diag.strauss_ratio(ctx.traj, s=ctx.scenario.s)},
        "spectral", "ratio", sweep="stability",
    ),
    "lemma34": Check(  # weighted space-time probe, free flow
        lambda ctx: {"ratio": diag.weighted_strichartz_ratio(ctx.linear_traj, delta=0.5, q1=4.0)},
        "spectral", "ratio", sweep="stability",
    ),
    "lemma35": Check(  # spectral vs wave-form cross-check
        lambda ctx: {
            "relative_linf": spectral_vs_wave_disagreement(ctx.traj, ctx.radial_traj),
            "tolerance": LEMMA35_TOL,
        },
        "both", "relative_linf", _tolerance,
    ),
    "lemma36": Check(  # maximal-function domination probe
        lambda ctx: {"worst_gap": maximal_domination_gap(seed=0, trials=10)},
        "any", "worst_gap", lambda sc, d: MAXIMAL_TOL,
    ),
    "cor37": Check(  # radial average L^2_t L^inf bound
        lambda ctx: maximal_bound_check(ctx.profile, T=ctx.scenario.T),
        "radial", "empirical_constant", sweep="stability",
    ),
    "cor39": Check(  # Hardy bound, time derivative of J
        lambda ctx: diag.hardy_time_derivative_check(ctx.profile),
        "radial", "empirical_constant", sweep="stability",
    ),
    "duhamel": Check(  # integral-equation defect
        _duhamel, "spectral", "relative", lambda sc, d: _dt_scaled(DUHAMEL_TOL, sc.dt),
        sweep="order",
    ),
}


def broken_hypothesis(sc, check: str) -> str | None:
    """The first hypothesis of check's result, or of what its entry reads,
    that the scenario sc breaks; None when it keeps them all.  The solvers'
    own rules and the radial profile are checked by Scenario itself."""
    reads = CHECKS[check].reads
    initial_kind, initial_args = sc.parsed_initial
    if reads == "spectral" and sc.solver == "radial-wave":
        return "spectral checks need the spectral solver (use solver = spectral or both)"
    if reads == "both" and sc.solver != "both":
        return "needs both solvers (solver = both)"
    if reads == "radial" and sc.n != 3:
        return f"the radial probes read a 3-d radial profile, requires n = 3, got n={sc.n}"
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
        if initial_kind != "gaussian" or initial_args[2] != 0:
            return "requires radial data: a centred gaussian(a, w, 0)"
    if check in ("prop21", "prop22", "prop24", "duhamel"):
        need = 3 if check == "duhamel" else 2  # the Duhamel trapezoid; a window [0, T]
        stored = 1 + sc.stepper().n_steps // sc.snapshot_stride
        if stored < need:
            return f"needs {need} stored snapshots, got {stored} (from T, dt, snapshot_stride)"


def spectral_vs_wave_disagreement(traj: Trajectory, rtraj: RadialTrajectory) -> float:
    """Relative L^inf gap at the final common time between the 3-d spectral
    solution along the positive first axis and the wave-form profile."""
    grid = traj.grid
    half = grid.N // 2
    (_, last), = traj.blocks(len(traj.times) - 1)
    o = half if last.weights is None else 0  # octant index m is grid index N/2 + m
    axis_vals = last.samples[-1][(slice(o + 1, o + half),) + (o,) * (grid.n - 1)]
    radii = grid.axis[half + 1 :]
    prof = rtraj.profiles[-1]
    keep = radii <= prof.r[-1]
    wave_vals = _Spline(prof.r, prof.values)(radii[keep])
    scale = float(np.max(np.abs(wave_vals)))
    if scale == 0:
        return float(np.max(np.abs(axis_vals[keep])))
    return float(np.max(np.abs(axis_vals[keep] - wave_vals)) / scale)
