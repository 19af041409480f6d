"""Scenario execution: dispatch to the solvers, apply the requested
checks, and emit diagnostics CSV, per-check JSON reports and run reports.

Pass thresholds for the residual checks scale with (dt / 1e-3)^2, matching
the second-order convergence of the splitting, and are calibrated so the
shipped catalog passes at its default resolutions.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
import scipy.fft
from scipy.interpolate import CubicSpline

from . import diagnostics as diag
from .fields import to_physical
from .norms import l2_norm
from .plotting import emit_plots, fit_order, refinement_chart_svg
from .propagator import StepperConfig, Trajectory, duhamel_residual, evolve
from .radial import (
    RadialProfile,
    RadialTrajectory,
    cumulative_mass,
    maximal_bound_check,
    maximal_function,
    wave_evolve,
)
from .scenarios import Scenario, ScenarioError, _parse_initial

__all__ = ["RunReport", "run", "sweep"]

# residual thresholds at the reference step dt = 1e-3
PROP21_TOL = 1.0e-6
PROP22_TOL = 1.0e-5
DUHAMEL_TOL = 1.0e-3
LEMMA35_TOL = 1.0e-2
SCALING_TOL = 1.0e-8
MAXIMAL_TOL = 1.0e-8


def _threads() -> int:
    """Transform and sweep concurrency: SEMIRELAX_THREADS, default 1."""
    raw = os.environ.get("SEMIRELAX_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass
class RunReport:
    scenario: dict
    checks: dict
    csv_path: str | None
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "checks": self.checks,
            "diagnostics_csv": self.csv_path,
            "wall_time": self.wall_time,
            "passed": self.all_passed,
        }


class _RunContext:
    """Lazily computed solver outputs shared by the checks of one run."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def _evolve(self, nonlinear: bool) -> Trajectory:
        sc = self.scenario
        cfg = StepperConfig(
            p=sc.p, dt=sc.dt, T=sc.T,
            snapshot_stride=sc.snapshot_stride, nonlinear=nonlinear,
        )
        return evolve(sc.initial_field(), cfg)

    @cached_property
    def traj(self) -> Trajectory:
        return self._evolve(self.scenario.nonlinear)

    @cached_property
    def radial_traj(self) -> RadialTrajectory:
        sc = self.scenario
        return wave_evolve(
            sc.initial_profile(), sc.p, sc.dt, sc.T, nonlinear=sc.nonlinear
        )

    @cached_property
    def linear_traj(self) -> Trajectory:
        return self._evolve(False) if self.scenario.nonlinear else self.traj

    @property
    def profile(self) -> RadialProfile:
        return self.scenario.initial_profile()


def _dt_scaled(tol: float, dt: float) -> float:
    return tol * (dt / 1.0e-3) ** 2


def _check_regime(ctx: _RunContext) -> tuple[bool, dict]:
    """Regime markers: the run completed, stayed finite and mass-monotone
    (instability would have aborted the solver)."""
    if ctx.scenario.solver == "radial-wave":
        ok = np.isfinite(ctx.radial_traj.profiles[-1].values).all()
        return bool(ok), {}
    norms = diag.diagnostics_table(ctx.traj, ctx.scenario.s)["l2"].tolist()
    ok = all(np.isfinite(norms)) and norms[-1] <= norms[0] * (1 + 1e-10)
    return ok, {"initial_l2": norms[0], "final_l2": norms[-1]}


def _check_balance(ctx: _RunContext, checker, base_tol: float) -> tuple[bool, dict]:
    """A balance law over the whole run against a dt-scaled tolerance."""
    traj = ctx.traj
    res = checker(traj, 0.0, float(traj.times[-1]))
    tol = _dt_scaled(base_tol, ctx.scenario.dt)
    data = {**res.as_dict(), "tolerance": tol, "t1_zero_extension": True}
    return res.relative < tol, data


def _check_prop23(ctx: _RunContext) -> tuple[bool, dict]:
    report = diag.check_hs_growth(ctx.traj, ctx.scenario.s, C=1.0)
    ok = math.isfinite(report.empirical_constant)
    return ok, report.as_dict()


def _check_prop24(ctx: _RunContext) -> tuple[bool, dict]:
    traj = ctx.traj
    report = diag.check_h2_inequality(traj, 0.0, float(traj.times[-1]))
    ok = report.slack >= -1e-12 * max(report.rhs, 1.0)
    return ok, report.as_dict()


def _check_scaling(ctx: _RunContext) -> tuple[bool, dict]:
    sc = ctx.scenario
    u0 = sc.initial_field()
    data, ok = {}, True
    for sigma in (0.5, 2.0):
        res = diag.check_scaling_law(u0, sigma, sc.s, sc.p)
        data[f"relative_sigma_{sigma}"] = res.relative
        ok = ok and res.relative < SCALING_TOL
    return ok, data


def _check_lemma33(ctx: _RunContext) -> tuple[bool, dict]:
    sc = ctx.scenario
    ratio = diag.strauss_ratio(sc.initial_field(), s=sc.s)
    return math.isfinite(ratio), {"ratio": ratio}


def _check_lemma34(ctx: _RunContext) -> tuple[bool, dict]:
    ratio = diag.weighted_strichartz_ratio(ctx.linear_traj, delta=0.5, q1=4.0)
    return math.isfinite(ratio), {"ratio": ratio}


def _check_lemma35(ctx: _RunContext) -> tuple[bool, dict]:
    disagreement = spectral_vs_wave_disagreement(ctx.traj, ctx.radial_traj)
    data = {"relative_linf": disagreement, "tolerance": LEMMA35_TOL}
    return disagreement < LEMMA35_TOL, data


def _check_lemma36(ctx: _RunContext) -> tuple[bool, dict]:
    worst = maximal_domination_gap(seed=0, trials=10)
    return worst <= MAXIMAL_TOL, {"worst_gap": worst}


def _check_cor37(ctx: _RunContext) -> tuple[bool, dict]:
    report = maximal_bound_check(ctx.profile, T=ctx.scenario.T)
    ok = math.isfinite(report.empirical_constant)
    return ok, report.as_dict()


def _check_cor39(ctx: _RunContext) -> tuple[bool, dict]:
    report = diag.hardy_time_derivative_check(ctx.profile)
    ok = math.isfinite(report.empirical_constant) and "out_of_space" not in report.notes
    return ok, report.as_dict()


def _check_duhamel(ctx: _RunContext) -> tuple[bool, dict]:
    value = duhamel_residual(ctx.traj)
    scale = max(l2_norm(ctx.traj.snapshots[0]), 1e-30)
    tol = _dt_scaled(DUHAMEL_TOL, ctx.scenario.dt)
    return value / scale < tol, {"residual": value, "relative": value / scale}


# checkers are looked up at call time, so a wrapper bound into the
# diagnostics module (a tracer, a test spy) sees every call
_CHECKS = {
    "prop11": _check_regime,
    "prop12": _check_regime,
    "prop13": _check_regime,
    "prop14": _check_regime,
    "prop21": lambda ctx: _check_balance(ctx, diag.check_l2_identity, PROP21_TOL),
    "prop22": lambda ctx: _check_balance(ctx, diag.check_h1_identity, PROP22_TOL),
    "prop23": _check_prop23,
    "prop24": _check_prop24,
    "scaling": _check_scaling,
    "lemma33": _check_lemma33,
    "lemma34": _check_lemma34,
    "lemma35": _check_lemma35,
    "lemma36": _check_lemma36,
    "cor37": _check_cor37,
    "cor39": _check_cor39,
    "duhamel": _check_duhamel,
}


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


def maximal_domination_gap(seed: int, trials: int, m: int = 200) -> float:
    """Worst gap of sup_r (1/2r) int_{|r-t|}^{r+t} f over the maximal value
    of the even extension, over random nonnegative compactly supported f."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(trials):
        grid = np.linspace(0.0, 10.0, m, endpoint=False) + 10.0 / (2 * m)
        f = rng.random(m)
        cutoff = rng.integers(m // 2, m)
        f[cutoff:] = 0.0
        t = float(grid[rng.integers(m // 4, m // 2)])
        # lhs: exact windowed averages of f on the half-line
        C = cumulative_mass(grid, f)
        r = grid
        lhs = float(np.max((C(r + t) - C(np.abs(r - t))) / (2.0 * r)))
        # rhs: maximal function of the even extension
        x_full = np.concatenate([-grid[::-1], grid])
        f_full = np.concatenate([f[::-1], f])
        rhs = maximal_function(x_full, f_full, t)
        worst = max(worst, lhs - rhs)
    return worst


def run(
    scenario: Scenario,
    outdir,
    deterministic: bool = False,
    plots: bool = False,
) -> RunReport:
    """Execute one scenario and write its reports under outdir/<name>/.

    Transforms use SEMIRELAX_THREADS workers (scipy.fft.set_workers, local
    to the calling thread).  Deterministic mode uses one worker and zeroes
    the wall-time field so repeated runs produce byte-identical CSV/JSON
    output.
    """
    workers = 1 if deterministic else _threads()
    return _run(scenario, outdir, deterministic, plots, workers)


def _run(scenario: Scenario, outdir, deterministic: bool, plots: bool,
         workers: int) -> RunReport:
    """run with its transforms scoped to ``workers`` FFT workers."""
    t0 = time.perf_counter()
    run_dir = os.path.join(outdir, scenario.name)
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(os.path.join(run_dir, "checks"), exist_ok=True)
    with scipy.fft.set_workers(workers):
        ctx = _RunContext(scenario)
        csv_path = None
        if scenario.solver in ("spectral", "both"):
            # stored relative to the run directory so reports are
            # byte-identical across output locations
            csv_path = "diagnostics.csv"
            try:
                diag.write_diagnostics_csv(
                    ctx.traj, os.path.join(run_dir, csv_path), s=scenario.s
                )
            except Exception as exc:  # solver errors carry scenario context
                raise RuntimeError(
                    f"solver failed for scenario {scenario.name!r}: {exc}"
                ) from exc
        results = {}
        for check in scenario.checks:
            try:
                passed, data = _CHECKS[check](ctx)
            except Exception as exc:  # surfaced with scenario context
                raise RuntimeError(
                    f"check {check!r} failed to run for scenario {scenario.name!r}: {exc}"
                ) from exc
            results[check] = {"passed": passed, **_jsonable(data)}
            with open(os.path.join(run_dir, "checks", f"{check}.json"), "w") as fh:
                json.dump(results[check], fh, indent=2, sort_keys=True)
        if plots and csv_path:
            emit_plots(
                os.path.join(run_dir, csv_path), os.path.join(run_dir, "plots")
            )
    wall = 0.0 if deterministic else time.perf_counter() - t0
    report = RunReport(
        scenario=asdict(scenario),
        checks=results,
        csv_path=csv_path,
        wall_time=wall,
    )
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
    return report


def _jsonable(data: dict) -> dict:
    out = {}
    for k, v in data.items():
        if isinstance(v, (np.floating, np.integer)):
            v = v.item()
        elif isinstance(v, float) and math.isinf(v):
            v = "inf"
        elif isinstance(v, dict):
            v = _jsonable(v)
        out[k] = v
    return out


_SWEEPABLE = {"dt": float, "N": int, "amplitude": float, "sigma": float}
# where the amplitude sits among the arguments of each initial-data kind
_AMPLITUDE_ARG = {"gaussian": 0, "mode": 1}


def _apply_variation(base: Scenario, key: str, raw) -> Scenario:
    try:
        value = _SWEEPABLE[key](raw)
    except ValueError as exc:
        raise ScenarioError(f"bad value {raw!r} for swept key {key!r}") from exc
    sc = Scenario(**asdict(base))
    if key == "dt":
        sc.dt = value
    elif key == "N":
        sc.N = value
    elif key == "amplitude":
        kind, args = _parse_initial(base.initial)
        if kind not in _AMPLITUDE_ARG:
            raise ScenarioError(f"cannot sweep the amplitude of {base.initial!r}")
        args = list(args)
        args[_AMPLITUDE_ARG[kind]] = value
        sc.initial = f"{kind}({', '.join(repr(a) for a in args)})"
    elif key == "sigma":
        if base.L is not None:
            sc.L = base.L / value
        if base.R is not None:
            sc.R = base.R / value
    sc.name = f"{base.name}__{key}_{raw}"
    return sc


def sweep(
    base: Scenario,
    vary: dict[str, list],
    outdir,
    deterministic: bool = False,
) -> dict:
    """Run a parameter sweep and aggregate convergence and stability data.

    Members run concurrently (capped by SEMIRELAX_THREADS), one FFT worker
    each, so the sweep uses no more threads than that; failures are
    recorded and do not abort the sweep, but an unknown key, a non-numeric
    value or an amplitude sweep of file data raises ScenarioError before any
    member runs.  When dt is varied, residual-style checks get a fitted
    convergence order and a refinement chart; empirical constants get a
    max/min stability ratio.
    """
    for key in vary:
        if key not in _SWEEPABLE:
            raise ScenarioError(
                f"cannot sweep over {key!r}; supported: {sorted(_SWEEPABLE)}"
            )
    members = [base]
    for key, values in vary.items():
        members = [_apply_variation(m, key, v) for m in members for v in values]
    results: list[RunReport | Exception] = [None] * len(members)

    threads = 1 if deterministic else _threads()
    concurrent = threads > 1 and len(members) > 1
    # members running at once share the cores: one FFT worker each
    workers = 1 if concurrent else threads

    def _one(i: int):
        try:
            results[i] = _run(members[i], outdir, deterministic, False, workers)
        except Exception as exc:
            results[i] = exc

    if concurrent:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_one, range(len(members))))
    else:
        for i in range(len(members)):
            _one(i)

    aggregate = {"members": [], "orders": {}, "stability": {}}
    for sc, res in zip(members, results):
        if isinstance(res, Exception):
            aggregate["members"].append({"name": sc.name, "error": str(res)})
        else:
            aggregate["members"].append(res.as_dict())
    if "dt" in vary and len(vary["dt"]) >= 2:
        dts = [float(v) for v in vary["dt"]]
        _aggregate_orders(aggregate, members, results, dts, outdir)
    _aggregate_stability(aggregate, results)
    if "amplitude" in vary:
        _aggregate_amplitude_threshold(aggregate, members, results)
    with open(os.path.join(outdir, "sweep.json"), "w") as fh:
        json.dump(aggregate, fh, indent=2, sort_keys=True)
    return aggregate


def _aggregate_amplitude_threshold(aggregate, members, results):
    """Empirical smallness threshold: the largest amplitude whose run is
    stable and passes every requested check."""
    passing, failing = [], []
    for sc, res in zip(members, results):
        kind, args = _parse_initial(sc.initial)
        value = args[_AMPLITUDE_ARG[kind]]
        if isinstance(res, RunReport) and res.all_passed:
            passing.append(value)
        else:
            failing.append(value)
    aggregate["amplitude_threshold"] = {
        "largest_passing": max(passing) if passing else None,
        "smallest_failing": min(failing) if failing else None,
    }


_RESIDUAL_CHECKS = ("prop21", "prop22", "duhamel")
_CONSTANT_CHECKS = ("prop23", "lemma33", "lemma34", "cor37", "cor39")


def _aggregate_orders(aggregate, members, results, dts, outdir):
    ok = [r for r in results if isinstance(r, RunReport)]
    if len(ok) != len(results):
        return
    for check in _RESIDUAL_CHECKS:
        vals = []
        for rep in ok:
            entry = rep.checks.get(check)
            if entry is None:
                break
            vals.append(entry.get("relative", entry.get("residual")))
        if len(vals) == len(dts) and all(v > 0 for v in vals):
            order = fit_order(dts, vals)
            aggregate["orders"][check] = order
            refinement_chart_svg(
                dts, vals, title=f"{check} refinement",
                path=os.path.join(outdir, f"refinement_{check}.svg"),
            )


def _aggregate_stability(aggregate, results):
    ok = [r for r in results if isinstance(r, RunReport)]
    for check in _CONSTANT_CHECKS:
        consts = []
        for rep in ok:
            entry = rep.checks.get(check)
            if entry is None:
                continue
            c = entry.get("empirical_constant", entry.get("ratio"))
            if isinstance(c, (int, float)) and c > 0:
                consts.append(c)
        if len(consts) >= 2:
            ratio = max(consts) / min(consts)
            aggregate["stability"][check] = {
                "max_over_min": ratio,
                "stable": ratio < 2.0,
            }
