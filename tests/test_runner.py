import json
import os
import threading

import pytest
import scipy.fft

from semirelax import ScenarioError, load_config, run, sweep
from semirelax import runner
from semirelax.checks import LEMMA35_TOL, spectral_vs_wave_disagreement
from semirelax.radial import maximal_domination_gap


def write_config(tmp_path, body):
    path = tmp_path / "scenarios.cfg"
    path.write_text(body)
    return path


FAST = """
[scenario.fast_1d]
n = 1
p = 3
s = 1.5
solver = spectral
N = 64
L = 20
dt = 5e-3
T = 0.1
initial = gaussian(0.3, 1.0, 0.0)
checks = prop11, prop21, prop22, prop24, scaling, duhamel
"""

ZERO = """
[scenario.zero_data]
n = 1
p = 3
s = 1.5
solver = spectral
N = 64
L = 20
dt = 5e-3
T = 0.1
initial = gaussian(0.0, 1.0, 0.0)
checks = prop21, prop22
"""

RADIAL = """
[scenario.small_3d]
n = 3
p = 3
s = 1.0
solver = both
N = 32
L = 12
M = 128
R = 12
dt = 1e-2
T = 0.2
snapshot_stride = 2
initial = gaussian(0.05, 1.0, 0.0)
checks = prop14, prop21, lemma35, lemma36, cor37, cor39, lemma33, lemma34
"""

LINEAR_BOTH = """
[scenario.linear_both]
n = 3
p = 3
s = 1.0
solver = both
N = 64
L = 20
M = 512
R = 20
dt = 0.02
T = 1
snapshot_stride = 10
nonlinear = false
initial = gaussian(1.0, 1.0, 0.0)
checks = lemma35
"""

LINEAR_1D = """
[scenario.linear_1d]
n = 1
p = 3
s = 1.5
solver = spectral
N = 256
L = 40
dt = 1e-2
T = 1
nonlinear = false
initial = gaussian(0.5, 1.0, 0.0)
checks = prop21, prop22
"""


class TestRun:
    def test_fast_scenario_passes(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        report = run(sc, tmp_path / "out")
        assert report.all_passed, report.checks
        run_dir = tmp_path / "out" / "fast_1d"
        assert (run_dir / "diagnostics.csv").exists()
        assert (run_dir / "report.json").exists()
        for check in sc.checks:
            payload = json.loads((run_dir / "checks" / f"{check}.json").read_text())
            assert payload["passed"] is True

    def test_zero_amplitude_all_residuals_zero(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, ZERO))
        report = run(sc, tmp_path / "out")
        assert report.all_passed
        assert report.checks["prop21"]["residual"] == 0.0
        assert report.checks["prop22"]["residual"] == 0.0

    def test_radial_checks_pass(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, RADIAL))
        report = run(sc, tmp_path / "out")
        assert report.all_passed, report.checks
        assert report.checks["lemma35"]["relative_linf"] < 1e-2

    def test_linear_both_runs_linear_wave_form(self, tmp_path):
        # the radial solver must honour nonlinear = false as the spectral one
        # does; a nonlinear wave march disagrees by ~0.4 at this amplitude
        (sc,) = load_config(write_config(tmp_path, LINEAR_BOTH))
        report = run(sc, tmp_path / "out")
        assert report.checks["lemma35"]["relative_linf"] < LEMMA35_TOL
        assert report.all_passed, report.checks

    def test_linear_balance_laws_are_conservation(self, tmp_path):
        # the free flow dissipates nothing: the budget column is zero and
        # both balance laws reduce to conservation of ||u||^2, ||grad u||^2
        (sc,) = load_config(write_config(tmp_path, LINEAR_1D))
        report = run(sc, tmp_path / "out")
        assert report.checks["prop21"]["passed"], report.checks
        assert report.checks["prop22"]["passed"], report.checks
        csv = tmp_path / "out" / "linear_1d" / "diagnostics.csv"
        lines = csv.read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert len(rows) == 101
        assert all(row[6] == 0.0 for row in rows)
        assert max(max(row[7], row[8]) for row in rows) <= 1e-12

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_each_solver_runs_once(self, tmp_path, monkeypatch, nonlinear):
        # lemma34 of a linear scenario reads traj instead of evolving again
        calls = []
        evolve, wave_evolve = runner.evolve, runner.wave_evolve

        def spy_evolve(u0, cfg):
            calls.append(cfg.nonlinear)
            return evolve(u0, cfg)

        def spy_wave_evolve(*args, **kwargs):
            calls.append("wave")
            return wave_evolve(*args, **kwargs)

        monkeypatch.setattr(runner, "evolve", spy_evolve)
        monkeypatch.setattr(runner, "wave_evolve", spy_wave_evolve)
        body = RADIAL
        if not nonlinear:
            body = RADIAL.replace("T = 0.2", "T = 0.2\nnonlinear = false")
        (sc,) = load_config(write_config(tmp_path, body))
        run(sc, tmp_path / "out")
        assert calls == ([True, "wave", False] if nonlinear else [False, "wave"])

    def test_bound_report_fields(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, RADIAL))
        report = run(sc, tmp_path / "out")
        for name in ("cor37", "cor39"):
            entry = report.checks[name]
            for key in ("lhs", "rhs", "residual", "relative", "empirical_constant"):
                assert key in entry, (name, entry)

    def test_plots_emitted(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        run(sc, tmp_path / "out", plots=True)
        plots = list((tmp_path / "out" / "fast_1d" / "plots").glob("*.svg"))
        assert len(plots) == 8  # every diagnostics column

    def test_determinism_byte_identical(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        run(sc, tmp_path / "a", deterministic=True)
        run(sc, tmp_path / "b", deterministic=True)
        for rel in ["diagnostics.csv", "report.json", "checks/prop21.json"]:
            a = (tmp_path / "a" / "fast_1d" / rel).read_bytes()
            b = (tmp_path / "b" / "fast_1d" / rel).read_bytes()
            assert a == b, rel


class TestThreads:
    @pytest.mark.parametrize("deterministic, workers", [(True, 1), (False, 2)])
    def test_run_scopes_fft_workers(self, tmp_path, monkeypatch, deterministic, workers):
        # the worker count reaches every transform without rewriting the
        # environment, which other threads of the process share
        monkeypatch.setenv("SEMIRELAX_THREADS", "2")
        fftn, seen = scipy.fft.fftn, []

        def spy(*args, **kwargs):
            used = kwargs.get("workers") or scipy.fft.get_workers()
            seen.append((used, os.environ["SEMIRELAX_THREADS"]))
            return fftn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "fftn", spy)
        (sc,) = load_config(write_config(tmp_path, FAST))
        run(sc, tmp_path / "out", deterministic=deterministic)
        assert seen and set(seen) == {(workers, "2")}
        assert scipy.fft.get_workers() == 1


class TestSweep:
    def test_concurrent_members_use_one_fft_worker_each(self, tmp_path, monkeypatch):
        # two members run at once on SEMIRELAX_THREADS=2 threads; with one
        # FFT worker each the sweep asks for 2 workers in total, not 2 x 2
        monkeypatch.setenv("SEMIRELAX_THREADS", "2")
        fftn, seen = scipy.fft.fftn, set()

        def spy(*args, **kwargs):
            used = kwargs.get("workers") or scipy.fft.get_workers()
            seen.add((threading.get_ident(), used))
            return fftn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, "fftn", spy)
        (sc,) = load_config(write_config(tmp_path, FAST))
        aggregate = sweep(sc, {"dt": ["5e-3", "4e-3"]}, tmp_path / "sweep")
        assert all("error" not in m for m in aggregate["members"])
        per_thread = {}
        for ident, used in seen:
            per_thread[ident] = max(per_thread.get(ident, 0), used)
        assert {used for _, used in seen} == {1}
        assert sum(per_thread.values()) <= 2
        assert threading.get_ident() not in per_thread

    def test_singleton_grid_matches_run(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        aggregate = sweep(sc, {"dt": ["5e-3"]}, tmp_path / "sweep")
        assert len(aggregate["members"]) == 1
        member = aggregate["members"][0]
        assert member["passed"] is True
        assert member["scenario"]["dt"] == pytest.approx(5e-3)

    def test_dt_refinement_reports_orders(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        aggregate = sweep(sc, {"dt": ["4e-3", "2e-3", "1e-3"]}, tmp_path / "sweep")
        assert all("error" not in m for m in aggregate["members"])
        assert "prop21" in aggregate["orders"]
        assert aggregate["orders"]["prop21"] == pytest.approx(2.0, abs=0.2)
        assert (tmp_path / "sweep" / "refinement_prop21.svg").exists()
        assert (tmp_path / "sweep" / "sweep.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_member_failure_recorded_not_fatal(self, tmp_path):
        # both members pass the loader; the large-data march blows up mid-run
        body = """
[scenario.wave_blowup]
n = 3
p = 2.5
solver = radial-wave
M = 64
R = 10
dt = 0.5
T = 2
initial = gaussian(0.1, 1.0, 0.0)
checks = prop13
"""
        (sc,) = load_config(write_config(tmp_path, body))
        aggregate = sweep(sc, {"amplitude": ["0.1", "1000"]}, tmp_path / "sweep")
        oks = [m for m in aggregate["members"] if "error" not in m]
        errs = [m for m in aggregate["members"] if "error" in m]
        assert len(oks) == 1 and len(errs) == 1
        assert errs[0]["name"] == "wave_blowup__amplitude_1000"
        assert "non-finite radial state at step 4 (t = 2)" in errs[0]["error"]

    def test_amplitude_variation(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        aggregate = sweep(sc, {"amplitude": ["0.1", "0.3"]}, tmp_path / "sweep")
        amps = [m["scenario"]["initial"] for m in aggregate["members"]]
        assert any("0.1" in a for a in amps) and any("0.3" in a for a in amps)
        threshold = aggregate["amplitude_threshold"]
        assert threshold["largest_passing"] == pytest.approx(0.3)
        assert threshold["smallest_failing"] is None

    def test_sigma_sweep_of_a_radial_wave_scenario(self, tmp_path):
        # no spectral grid: sigma rescales R and leaves L unset
        body = RADIAL.replace("solver = both", "solver = radial-wave").replace(
            "checks = prop14, prop21, lemma35, lemma36, cor37, cor39, lemma33, lemma34",
            "checks = prop14, cor37",
        ).replace("N = 32\nL = 12\n", "")
        (sc,) = load_config(write_config(tmp_path, body))
        aggregate = sweep(sc, {"sigma": ["0.5", "2"]}, tmp_path / "sweep")
        members = aggregate["members"]
        assert all("error" not in m for m in members)
        assert [m["scenario"]["R"] for m in members] == [24.0, 6.0]
        assert all(m["scenario"]["L"] is None for m in members)

    def test_rejects_unknown_key(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        with pytest.raises(ValueError, match="sweep over"):
            sweep(sc, {"width": ["1.0"]}, tmp_path / "sweep")

    @pytest.mark.parametrize("vary", [
        {"amplitude": ["0.1", "0.2"]},
        {"width": ["1.0"]},
        {"dt": ["2e-3", "fast"]},
        {"dt": ["2e-3", "0.5"]},  # a member with dt > T breaks the stepper's rule
    ])
    def test_rejected_before_any_member_runs(self, tmp_path, vary):
        from semirelax import gaussian_field, make_grid, save_field

        # file data has no amplitude to vary; each case must fail up front
        save_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), tmp_path / "u0.txt")
        body = FAST.replace(
            "initial = gaussian(0.3, 1.0, 0.0)", f"initial = file({tmp_path}/u0.txt)"
        )
        (sc,) = load_config(write_config(tmp_path, body))
        with pytest.raises(ScenarioError):
            sweep(sc, vary, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


class TestErrorSurfacing:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_solver_error_carries_scenario_context(self, tmp_path):
        import numpy as np

        from semirelax import Field, make_grid, save_field

        g = make_grid(1, 64, 20.0)
        vals = np.ones(64, dtype=complex)
        vals[5] = np.inf
        save_field(Field(g, vals, "physical"), tmp_path / "bad.txt")
        body = FAST.replace(
            "initial = gaussian(0.3, 1.0, 0.0)", f"initial = file({tmp_path}/bad.txt)"
        ).replace("checks = prop11, prop21, prop22, prop24, scaling, duhamel",
                  "checks = prop21")
        (sc,) = load_config(write_config(tmp_path, body))
        with pytest.raises(RuntimeError, match="fast_1d.*step 1"):
            run(sc, tmp_path / "out")


_REGIME_KEYS = {"final_l2", "initial_l2", "passed"}
_BALANCE_KEYS = {
    "lhs", "passed", "relative", "residual", "rhs", "t1_zero_extension", "tolerance",
}
_BOUND_KEYS = {"empirical_constant", "lhs", "passed", "relative", "residual", "rhs"}
# the exact key set of each check JSON the shipped catalog writes
CATALOG_CHECK_KEYS = {
    "prop11": _REGIME_KEYS,
    "prop12": _REGIME_KEYS,
    "prop13": _REGIME_KEYS,
    "prop14": _REGIME_KEYS,
    "prop21": _BALANCE_KEYS,
    "prop22": _BALANCE_KEYS,
    "prop23": _BOUND_KEYS | {"notes"},
    "prop24": _BOUND_KEYS | {"notes"},
    "lemma33": {"passed", "ratio"},
    "lemma34": {"passed", "ratio"},
    "lemma35": {"passed", "relative_linf", "tolerance"},
    "lemma36": {"passed", "worst_gap"},
    "cor37": _BOUND_KEYS,
    "cor39": _BOUND_KEYS,
    "duhamel": {"passed", "relative", "residual"},
}


class TestShippedCatalog:
    def test_every_catalog_scenario_passes(self, tmp_path):
        from semirelax import default_catalog_path

        for sc in load_config(default_catalog_path()):
            report = run(sc, tmp_path / "out")
            failed = [c for c, e in report.checks.items() if not e["passed"]]
            assert not failed, (sc.name, failed)
            for check in sc.checks:
                path = tmp_path / "out" / sc.name / "checks" / f"{check}.json"
                keys = sorted(json.loads(path.read_text()))
                assert keys == sorted(CATALOG_CHECK_KEYS[check]), (sc.name, check)


class TestHelpers:
    def test_maximal_domination_gap_nonpositive(self):
        assert maximal_domination_gap(seed=1, trials=5) <= 1e-8

    def test_disagreement_reads_the_point_interpolant(self, tmp_path, monkeypatch):
        import numpy as np

        from semirelax import radial, to_physical
        from semirelax.runner import _RunContext

        (sc,) = load_config(write_config(tmp_path, RADIAL))
        ctx = _RunContext(sc)
        traj, rtraj = ctx.traj, ctx.radial_traj
        # the value through JEvaluator.point, as the check computed it before
        u3 = to_physical(traj.snapshots[-1]).values
        half = traj.grid.N // 2
        axis_vals, radii = u3[half + 1 :, half, half], traj.grid.axis[half + 1 :]
        prof = rtraj.profiles[-1]
        keep = radii <= prof.r[-1]
        wave_vals = radial.JEvaluator(prof).point(radii[keep])
        expected = np.max(np.abs(axis_vals[keep] - wave_vals)) / np.max(np.abs(wave_vals))

        def no_build(self, f):
            raise AssertionError("lemma35 builds no JEvaluator")

        monkeypatch.setattr(radial.JEvaluator, "__init__", no_build)
        assert spectral_vs_wave_disagreement(traj, rtraj) == float(expected)

    def test_disagreement_zero_for_zero_fields(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, RADIAL.replace("0.05", "0.0")))
        from semirelax.runner import _RunContext

        ctx = _RunContext(sc)
        assert spectral_vs_wave_disagreement(ctx.traj, ctx.radial_traj) == 0.0
