"""Scenario execution: run the solvers a scenario's checks read, evaluate
and judge each check from its entry in checks.CHECKS, emit diagnostics
CSV, per-check JSON reports and run reports, and sweep a scenario over
parameter values.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import diagnostics as diag
from .checks import CHECKS
from .plotting import emit_plots, fit_order, refinement_chart_svg
from .propagator import Trajectory, _march, evolve
from .radial import RadialProfile, RadialTrajectory, wave_evolve
from .scenarios import INITIAL_ARGS, Scenario, ScenarioError

__all__ = ["RunReport", "run", "sweep"]


@dataclass
class RunReport:
    """One run, its fields named as report.json's keys: the scenario, each
    check's payload with its verdict, the CSV path relative to the run
    directory (None without a spectral solver) and the wall time."""

    scenario: dict
    checks: dict
    diagnostics_csv: str | None
    wall_time: float

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def as_dict(self) -> dict:
        """report.json's content: the fields plus passed."""
        return {**vars(self), "passed": self.all_passed}


class _RunContext:
    """Lazily computed initial data and solver outputs shared by one run.
    The spectral trajectory owns the initial data: traj evolves
    scenario.initial_field() with no other reference kept, and the checks
    read it as traj's stored row 0 or its table, never folded, so file data
    are parsed once and an octant run holds no full-grid copy of them."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    @cached_property
    def profile(self) -> RadialProfile:
        return self.scenario.initial_profile()

    @cached_property
    def traj(self) -> Trajectory:
        # the field is passed straight in, so evolve holds its only reference
        return evolve(self.scenario.initial_field(), self.scenario.stepper())

    @cached_property
    def radial_traj(self) -> RadialTrajectory:
        sc = self.scenario
        return wave_evolve(self.profile, sc.p, sc.dt, sc.T, nonlinear=sc.nonlinear)

    @cached_property
    def linear_traj(self) -> Trajectory:
        if not self.scenario.nonlinear:
            return self.traj
        free = replace(self.scenario.stepper(), nonlinear=False)
        return _march(self.traj.grid, self.traj.basis, free)  # from traj's stored row 0


def run(
    scenario: Scenario, outdir, deterministic: bool = False, plots: bool = False
) -> RunReport:
    """Execute one scenario and write its reports under outdir/<name>/.

    Deterministic mode zeroes the wall-time field so repeated runs produce
    byte-identical CSV/JSON output.  Transforms use the caller's FFT
    workers: scipy's default of one, or n inside scipy.fft.set_workers(n).
    """
    t0 = time.perf_counter()
    run_dir = os.path.join(outdir, scenario.name)
    os.makedirs(os.path.join(run_dir, "checks"), exist_ok=True)
    ctx = _RunContext(scenario)
    csv_path = None
    if scenario.solver in ("spectral", "both"):
        # stored relative to the run directory so reports are
        # byte-identical across output locations
        csv_path = "diagnostics.csv"
        try:
            hessian = any(CHECKS[check].hessian for check in scenario.checks)
            diag.diagnostics_table(ctx.traj, scenario.s, hessian)
            path = os.path.join(run_dir, csv_path)
            rows = diag.write_diagnostics_csv(ctx.traj, path, s=scenario.s)
        except Exception as exc:  # solver errors carry scenario context
            raise RuntimeError(f"solver failed for scenario {scenario.name!r}: {exc}") from exc
    results = {}
    for check in scenario.checks:
        try:
            spec = CHECKS[check]
            data = spec.evaluate(ctx)
        except Exception as exc:  # surfaced with scenario context
            raise RuntimeError(
                f"check {check!r} failed to run for scenario {scenario.name!r}: {exc}"
            ) from exc
        value = data[spec.value]  # every check's verdict: finite and at most its bound
        passed = bool(math.isfinite(value) and value <= spec.bound(scenario, data))
        results[check] = {"passed": passed, **_jsonable(data)}
        with open(os.path.join(run_dir, "checks", f"{check}.json"), "w") as fh:
            json.dump(results[check], fh, indent=2, sort_keys=True)
    if plots and csv_path:
        emit_plots(diag.CSV_HEADER.split(","), rows, os.path.join(run_dir, "plots"))
    wall = 0.0 if deterministic else time.perf_counter() - t0
    report = RunReport(asdict(scenario), results, csv_path, wall)
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


def _swept_value(key: str, raw):
    try:
        value = _SWEEPABLE[key](raw)
    except ValueError as exc:
        raise ScenarioError(f"bad value {raw!r} for swept key {key!r}") from exc
    if key == "sigma" and not (math.isfinite(value) and value > 0):  # L / sigma, R / sigma
        raise ScenarioError(f"swept sigma must be finite and positive, got {raw!r}")
    return value


def _variation(base: Scenario, key: str, value) -> dict:
    """The fields of base that the swept key changes, at value."""
    if key in ("dt", "N"):
        return {key: value}
    if key == "sigma":  # the box and the radial extent shrink by it
        return {k: getattr(base, k) / value for k in ("L", "R") if getattr(base, k) is not None}
    kind, args = base.parsed_initial
    if "amplitude" not in INITIAL_ARGS[kind]:
        raise ScenarioError(f"cannot sweep the amplitude of {base.initial!r}")
    args = list(args)
    args[INITIAL_ARGS[kind].index("amplitude")] = value
    return {"initial": f"{kind}({', '.join(repr(a) for a in args)})"}


def sweep(base: Scenario, vary: dict[str, list], outdir, deterministic: bool = False) -> dict:
    """Run a parameter sweep and aggregate convergence and stability data.

    The members run one after another, each through run; run-time failures
    are recorded and do not abort the sweep, but an unknown key, a key with
    no values or two equal ones, a non-numeric value, a sigma that is not
    finite and positive, an amplitude sweep of file data or a member
    Scenario rejects raises ScenarioError before any member runs.  When dt
    is varied, the checks whose CHECKS entry has sweep role "order" get a
    fitted order of their value and a refinement chart per group of members
    that share every other swept value; "stability" ones get a max/min
    ratio.
    """
    swept = {}  # key -> {value: raw}, in the order given
    for key, values in vary.items():
        if key not in _SWEEPABLE:
            raise ScenarioError(f"cannot sweep over {key!r}; supported: {sorted(_SWEEPABLE)}")
        if not values:
            raise ScenarioError(f"no values given for swept key {key!r}")
        swept[key] = {_swept_value(key, raw): raw for raw in values}
        if len(swept[key]) < len(values):
            raise ScenarioError(f"swept key {key!r} repeats a value: {', '.join(values)}")
    members = [({"name": base.name}, {})]  # each member's changes of base, its raw values
    for key, values in swept.items():
        members = [
            ({**ch, **_variation(base, key, value), "name": f"{ch['name']}__{key}_{raw}"},
             {**at, key: raw})
            for ch, at in members for value, raw in values.items()
        ]
    # constructing a member validates it: a bad one stops the sweep before any runs
    members = [(replace(base, **changes), at) for changes, at in members]
    results: list[RunReport | Exception] = []
    for sc, _ in members:
        try:
            results.append(run(sc, outdir, deterministic))
        except Exception as exc:
            results.append(exc)

    aggregate = {"members": [], "orders": {}, "stability": {}}
    for (sc, _), res in zip(members, results):
        if isinstance(res, Exception):
            aggregate["members"].append({"name": sc.name, "error": str(res)})
        else:
            aggregate["members"].append(res.as_dict())
    if len(swept.get("dt", ())) >= 2:
        _aggregate_orders(aggregate, members, results, outdir)
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
    for (_, at), res in zip(members, results):
        value = _swept_value("amplitude", at["amplitude"])
        if isinstance(res, RunReport) and res.all_passed:
            passing.append(value)
        else:
            failing.append(value)
    aggregate["amplitude_threshold"] = {
        "largest_passing": max(passing) if passing else None,
        "smallest_failing": min(failing) if failing else None,
    }


def _aggregate_orders(aggregate, members, results, outdir):
    """Each group fits to its members' own dt and is named after its other
    swept values (<check>@N_64); a dt-only sweep's one group after the check."""
    groups = {}
    for (sc, at), res in zip(members, results):
        rest = "__".join(f"{key}_{raw}" for key, raw in at.items() if key != "dt")
        groups.setdefault(rest, []).append((sc.dt, res))
    for rest, group in groups.items():
        if not all(isinstance(res, RunReport) for _, res in group):
            continue
        dts = [dt for dt, _ in group]
        for check, spec in CHECKS.items():
            if spec.sweep != "order" or any(check not in res.checks for _, res in group):
                continue
            vals = [res.checks[check][spec.value] for _, res in group]
            if all(v > 0 for v in vals):
                label = f"{check}@{rest}" if rest else check
                aggregate["orders"][label] = fit_order(dts, vals)
                refinement_chart_svg(
                    dts, vals, title=f"{label} refinement",
                    path=os.path.join(outdir, f"refinement_{label}.svg"),
                )


def _aggregate_stability(aggregate, results):
    ok = [r for r in results if isinstance(r, RunReport)]
    for check, spec in CHECKS.items():
        if spec.sweep != "stability":
            continue
        consts = [rep.checks[check][spec.value] for rep in ok if check in rep.checks]
        consts = [c for c in consts if isinstance(c, (int, float)) and c > 0]
        if len(consts) >= 2:
            ratio = max(consts) / min(consts)
            aggregate["stability"][check] = {"max_over_min": ratio, "stable": ratio < 2.0}
