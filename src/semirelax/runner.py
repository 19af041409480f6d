"""Scenario execution: run the solvers a scenario's checks read, evaluate
each check from its entry in checks.CHECKS, emit diagnostics CSV, per-check
JSON reports and run reports, and sweep a scenario over parameter values.
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

from . import diagnostics as diag
from .checks import CHECKS
from .plotting import emit_plots, fit_order, refinement_chart_svg
from .propagator import StepperConfig, Trajectory, evolve
from .radial import RadialProfile, RadialTrajectory, wave_evolve
from .scenarios import Scenario, ScenarioError, _parse_initial, _validate

__all__ = ["RunReport", "run", "sweep"]


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
                passed, data = CHECKS[check].evaluate(ctx)
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
    each, so the sweep uses no more threads than that; run-time failures
    are recorded and do not abort the sweep, but an unknown key, a
    non-numeric value, an amplitude sweep of file data or a member the
    loader would reject raises ScenarioError before any member runs.  When
    dt is varied, residual-style checks get a fitted convergence order and
    a refinement chart; empirical constants get a max/min stability ratio.
    """
    for key in vary:
        if key not in _SWEEPABLE:
            raise ScenarioError(
                f"cannot sweep over {key!r}; supported: {sorted(_SWEEPABLE)}"
            )
    members = [base]
    for key, values in vary.items():
        members = [_apply_variation(m, key, v) for m in members for v in values]
    for member in members:
        _validate(member)
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
        _aggregate_orders(aggregate, results, dts, outdir)
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


def _aggregate_orders(aggregate, results, dts, outdir):
    ok = [r for r in results if isinstance(r, RunReport)]
    if len(ok) != len(results):
        return
    for check in _RESIDUAL_CHECKS:
        vals = []
        for rep in ok:
            entry = rep.checks.get(check)
            if entry is None:
                break
            vals.append(entry["relative"])
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
