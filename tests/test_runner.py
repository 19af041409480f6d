import ast
import json
import math
import os
import re
import subprocess
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from semirelax import ScenarioError, load_config, run, sweep, to_physical
from semirelax import runner
from semirelax.checks import LEMMA35_TOL, spectral_vs_wave_disagreement
from semirelax.radial import maximal_domination_gap
from catalog_manifest import MANIFEST, drift, manifest
from conftest import block_rows, reference_passed, stored_row_bytes, write_field


# every scipy.fft transform the package calls: the FFT basis takes the
# single-axis and n-axis pairs, the octant basis the DCT/DST ones and the
# radial wave form the DST pair
TRANSFORMS = (
    "fft", "ifft", "fftn", "ifftn", "dct", "idct", "dctn", "idctn", "idstn", "dst", "idst",
)


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

    @pytest.mark.parametrize("n, N, forward", [(1, 64, "fft"), (2, 16, "dctn")])
    @pytest.mark.parametrize("checks", ["prop24", "prop21"])
    def test_each_stored_block_forward_transformed_once(
        self, tmp_path, monkeypatch, n, N, forward, checks
    ):
        # after the solve, the table and the checks together forward-transform
        # each stored block once (on the FFT stack in 1-d, the DCT-I octant in
        # 2-d): prop24 reads its Hessian cross term from the table, whose
        # column a run without prop24 never forms
        from semirelax import evolve, propagator

        trajs, calls = [], []

        def solve_then_count(u0, cfg):  # in blocks of four stored rows
            monkeypatch.setattr(propagator, "_BLOCK_BYTES", 4 * stored_row_bytes(u0))
            trajs.append(evolve(u0, cfg))
            transform = getattr(scipy.fft, forward)
            monkeypatch.setattr(
                scipy.fft, forward, lambda *a, **kw: calls.append(1) or transform(*a, **kw)
            )
            return trajs[-1]

        monkeypatch.setattr(runner, "evolve", solve_then_count)
        body = FAST.replace("n = 1", f"n = {n}").replace("N = 64", f"N = {N}")
        body = body.replace("prop11, prop21, prop22, prop24, scaling, duhamel", checks)
        (sc,) = load_config(write_config(tmp_path, body))
        run(sc, tmp_path / "out")
        (traj,) = trajs
        assert len(traj.stored[0]) == 4
        assert len(calls) == len(list(traj.blocks())) > 1
        assert any("cross" in table for table in traj.tables.values()) == (checks == "prop24")

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
        # lemma34 of a linear scenario reads traj instead of evolving again;
        # of a nonlinear one, marches the free flow from traj's stored row 0
        calls = []
        evolve, march, wave_evolve = runner.evolve, runner._march, runner.wave_evolve

        def spy_evolve(u0, cfg):
            calls.append(cfg.nonlinear)
            return evolve(u0, cfg)

        def spy_wave_evolve(*args, **kwargs):
            calls.append("wave")
            return wave_evolve(*args, **kwargs)

        def spy_march(grid, basis, cfg):
            calls.append(cfg.nonlinear)
            return march(grid, basis, cfg)

        monkeypatch.setattr(runner, "evolve", spy_evolve)
        monkeypatch.setattr(runner, "_march", spy_march)
        monkeypatch.setattr(runner, "wave_evolve", spy_wave_evolve)
        body = RADIAL
        if not nonlinear:
            body = RADIAL.replace("T = 0.2", "T = 0.2\nnonlinear = false")
        (sc,) = load_config(write_config(tmp_path, body))
        run(sc, tmp_path / "out")
        assert calls == ([True, "wave", False] if nonlinear else [False, "wave"])

    def test_file_data_parsed_once_per_run(self, tmp_path, monkeypatch):
        # the nonlinear solve, lemma34's linear solve and the scaling check
        # read one initial field: the file is parsed at load and once more
        from semirelax import gaussian_field, make_grid, scenarios

        write_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), tmp_path / "u0.txt")
        body = FAST.replace("gaussian(0.3, 1.0, 0.0)", f"file({tmp_path / 'u0.txt'})")
        body = body.replace("scaling, duhamel", "scaling, lemma34")
        parses = []
        load_field = scenarios.load_field

        def spy(path):
            parses.append(path)
            return load_field(path)

        monkeypatch.setattr(scenarios, "load_field", spy)
        (sc,) = load_config(write_config(tmp_path, body))
        assert len(parses) == 1
        report = run(sc, tmp_path / "out")
        assert report.all_passed and set(report.checks) >= {"scaling", "lemma34"}
        assert len(parses) == 2

    @pytest.mark.parametrize("initial", ["gaussian_3d", "gaussian_1d", "mode", "file"])
    def test_u0_is_snapshot_zero(self, tmp_path, monkeypatch, initial):
        # the trajectory owns the initial data: no reference to the field
        # evolve received survives it, and snapshot 0 has its bits
        from semirelax import gaussian_field, make_grid, scenarios
        from semirelax.runner import _RunContext

        body = RADIAL if initial == "gaussian_3d" else FAST
        if initial == "mode":
            body = FAST.replace("gaussian(0.3, 1.0, 0.0)", "mode(3, 0.2)")
        elif initial == "file":
            write_field(gaussian_field(make_grid(1, 64, 20.0), 0.3 - 0.1j, 1.5, 0.25),
                       tmp_path / "u0.txt")
            body = FAST.replace("gaussian(0.3, 1.0, 0.0)", f"file({tmp_path / 'u0.txt'})")
        (sc,) = load_config(write_config(tmp_path, body))
        refs = []
        initial_field = scenarios.Scenario.initial_field

        def spy(self):
            u0 = initial_field(self)
            refs.append(weakref.ref(u0.values))
            return u0

        monkeypatch.setattr(scenarios.Scenario, "initial_field", spy)
        ctx = _RunContext(sc)
        ctx.traj
        assert len(refs) == 1 and refs[0]() is None
        monkeypatch.undo()
        want, got = sc.initial_field().values, ctx.traj[0].values
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        octant = ctx.traj.basis.weights is not None
        assert octant == (initial == "gaussian_3d")

    @pytest.mark.parametrize("initial", ["gaussian(0.05, 1.0, 0.0)", "gaussian(0.05, 1.0, 1.0)"])
    def test_free_flow_marches_from_the_stored_row(self, tmp_path, initial):
        # lemma34's free flow of a nonlinear run starts from traj's stored
        # row 0, unfolded, and stores the bits evolve stores from u0, on the
        # octant of centred data and on the FFT basis of off-centre data
        from semirelax import evolve
        from semirelax.runner import _RunContext

        body = RADIAL.replace("solver = both", "solver = spectral").replace(
            "checks = prop14, prop21, lemma35, lemma36, cor37, cor39, lemma33, lemma34",
            "checks = lemma34",
        ).replace("M = 128\nR = 12\n", "").replace("gaussian(0.05, 1.0, 0.0)", initial)
        (sc,) = load_config(write_config(tmp_path, body))
        ctx = _RunContext(sc)
        want = evolve(sc.initial_field(), replace(sc.stepper(), nonlinear=False))
        got = ctx.linear_traj
        assert got.linear and got.config == want.config
        assert np.array_equal(got.times, want.times)
        octant = initial.endswith("0.0)")
        assert (want.basis.weights is not None) == octant
        assert (got.basis.weights is not None) == octant
        for a, b in zip(block_rows(got), block_rows(want), strict=True):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    def test_radial_profile_built_once_per_run(self, tmp_path, monkeypatch):
        # the wave march, cor37 and cor39 read one initial profile
        from semirelax import scenarios

        builds = []
        initial_profile = scenarios.Scenario.initial_profile

        def spy(sc):
            builds.append(sc.name)
            return initial_profile(sc)

        (sc,) = load_config(write_config(tmp_path, RADIAL))
        monkeypatch.setattr(scenarios.Scenario, "initial_profile", spy)
        assert run(sc, tmp_path / "out").all_passed
        assert builds == ["small_3d"]

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


def spy_on_transforms(monkeypatch, seen, names=None):
    """Record (thread, FFT workers) of every scipy.fft transform, and its
    name in names if given."""
    for name in TRANSFORMS:

        def spy(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            used = kwargs.get("workers") or scipy.fft.get_workers()
            seen.add((threading.get_ident(), used))
            if names is not None:
                names.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, spy)


def _tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestThreads:
    @pytest.mark.parametrize("body, transforms", [
        (FAST, {"fft", "ifft"}),
        (RADIAL, {"dct", "idct", "dctn", "idctn", "idstn", "dst", "idst"}),
    ], ids=["fft_1d", "octant_3d"])
    def test_run_takes_the_callers_fft_workers(self, tmp_path, monkeypatch, body, transforms):
        # a caller's set_workers(2) reaches every transform of the run, on
        # the calling thread, and the files are those of a default run
        (sc,) = load_config(write_config(tmp_path, body))
        run(sc, tmp_path / "default", deterministic=True)
        seen, names = set(), set()
        spy_on_transforms(monkeypatch, seen, names)
        with scipy.fft.set_workers(2):
            run(sc, tmp_path / "two", deterministic=True)
        assert seen == {(threading.get_ident(), 2)}
        assert names >= transforms, names
        assert scipy.fft.get_workers() == 1
        default, two = _tree_bytes(tmp_path / "default"), _tree_bytes(tmp_path / "two")
        assert default and default == two

    def test_run_and_sweep_ignore_the_environment(self, tmp_path, monkeypatch):
        # no module reads the environment, the old thread variable included
        monkeypatch.setenv("SEMIRELAX_THREADS", "4")
        seen = set()
        spy_on_transforms(monkeypatch, seen)
        (sc,) = load_config(write_config(tmp_path, FAST))
        run(sc, tmp_path / "out")
        aggregate = sweep(sc, {"dt": ["5e-3", "4e-3"]}, tmp_path / "sweep")
        assert all("error" not in m for m in aggregate["members"])
        assert seen == {(threading.get_ident(), 1)}


class TestSweep:
    @pytest.mark.parametrize("vary, changes", [
        ({"dt": ["5e-3", "4e-3"]}, {
            "fast_1d__dt_5e-3": {"dt": 5e-3},
            "fast_1d__dt_4e-3": {"dt": 4e-3},
        }),
        ({"amplitude": ["0.3", "0.2"]}, {
            "fast_1d__amplitude_0.3": {"initial": "gaussian(0.3, 1.0, 0.0)"},
            "fast_1d__amplitude_0.2": {"initial": "gaussian(0.2, 1.0, 0.0)"},
        }),
    ], ids=["dt", "amplitude"])
    def test_members_match_standalone_runs(self, tmp_path, vary, changes):
        # a sweep is run over its members: each member directory holds the
        # bytes a standalone deterministic run of that member writes
        (sc,) = load_config(write_config(tmp_path, FAST))
        aggregate = sweep(sc, vary, tmp_path / "sweep", deterministic=True)
        assert [m["scenario"]["name"] for m in aggregate["members"]] == list(changes)
        for name, fields in changes.items():
            run(replace(sc, name=name, **fields), tmp_path / "alone", deterministic=True)
            member = _tree_bytes(tmp_path / "sweep" / name)
            assert member and member == _tree_bytes(tmp_path / "alone" / name), name

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
        )
        for key in ("s = 1.0\n", "N = 32\n", "L = 12\n", "snapshot_stride = 2\n"):
            body = body.replace(key, "")  # the wave form reads none of them
        (sc,) = load_config(write_config(tmp_path, body))
        aggregate = sweep(sc, {"sigma": ["0.5", "2"]}, tmp_path / "sweep")
        members = aggregate["members"]
        assert all("error" not in m for m in members)
        assert [m["scenario"]["R"] for m in members] == [24.0, 6.0]
        assert all(m["scenario"]["L"] is None for m in members)

    def test_prop22_order_of_a_subcubic_scenario(self, tmp_path):
        # p = 2 gaussian data on N = 64, L = 20, where |u0| falls below 1e-15:
        # every member passes prop22 and the fitted order is 2
        body = FAST.replace("p = 3", "p = 2").replace(
            "gaussian(0.3, 1.0, 0.0)", "gaussian(0.1, 1.0, 0.0)"
        ).replace("checks = prop11, prop21, prop22, prop24, scaling, duhamel", "checks = prop22")
        (sc,) = load_config(write_config(tmp_path, body))
        aggregate = sweep(sc, {"dt": ["0.01", "0.005", "0.0025"]}, tmp_path / "sweep")
        assert all(m["checks"]["prop22"]["passed"] for m in aggregate["members"])
        assert 1.8 <= aggregate["orders"]["prop22"] <= 2.2

    def test_grid_sweep_of_a_radial_wave_scenario_is_rejected(self, tmp_path):
        # the wave form reads no N: swept members are held to the loader's
        # rule before any of them runs
        body = RADIAL.replace("solver = both", "solver = radial-wave").replace(
            "checks = prop14, prop21, lemma35, lemma36, cor37, cor39, lemma33, lemma34",
            "checks = prop14",
        )
        for key in ("s = 1.0\n", "N = 32\n", "L = 12\n", "snapshot_stride = 2\n"):
            body = body.replace(key, "")
        (sc,) = load_config(write_config(tmp_path, body))
        with pytest.raises(ScenarioError, match=re.escape("radial-wave ignores ['N']")):
            sweep(sc, {"N": ["16", "32"]}, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_equal_values_rejected_naming_the_key(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        with pytest.raises(ScenarioError, match="swept key 'dt' repeats a value: 0.01, 1e-2"):
            sweep(sc, {"dt": ["0.01", "1e-2"]}, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("keys", [("dt", "N"), ("N", "dt")])
    def test_dt_with_another_key_fits_one_order_per_group(self, tmp_path, keys):
        # one order per N, fitted to each member's own dt, equal to the
        # order a dt-only sweep at that N fits, whichever key is given first
        (sc,) = load_config(write_config(tmp_path, FAST))
        values = {"dt": ["4e-3", "2e-3", "1e-3"], "N": ["64", "32"]}
        aggregate = sweep(sc, {key: values[key] for key in keys}, tmp_path / "sweep")
        assert all("error" not in m for m in aggregate["members"])
        assert sorted(aggregate["orders"]) == sorted(
            f"{check}@N_{n}" for check in ("prop21", "prop22", "duhamel") for n in ("64", "32")
        )
        for n in ("64", "32"):
            alone = sweep(replace(sc, N=int(n)), {"dt": values["dt"]}, tmp_path / f"alone_{n}")
            for check in ("prop21", "prop22", "duhamel"):
                assert aggregate["orders"][f"{check}@N_{n}"] == alone["orders"][check]
                chart = (tmp_path / "sweep" / f"refinement_{check}@N_{n}.svg").read_text()
                want = (tmp_path / f"alone_{n}" / f"refinement_{check}.svg").read_text()
                assert chart == want.replace(f"{check} refinement", f"{check}@N_{n} refinement")

    def test_sweep_roles_are_the_check_table_entries(self):
        # a sweep fits an order to, or compares for stability, the value a
        # check's entry is judged on, and that value is a key it writes
        from semirelax.checks import CHECKS

        roles = {check: spec.sweep for check, spec in CHECKS.items() if spec.sweep}
        assert sorted(c for c, role in roles.items() if role == "order") == [
            "duhamel", "prop21", "prop22",
        ]
        assert sorted(c for c, role in roles.items() if role == "stability") == [
            "cor37", "cor39", "lemma33", "lemma34", "prop23",
        ]
        for check in roles:
            assert CHECKS[check].value in CATALOG_CHECK_KEYS[check], check

    def test_rejects_unknown_key(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, FAST))
        with pytest.raises(ValueError, match="sweep over"):
            sweep(sc, {"width": ["1.0"]}, tmp_path / "sweep")

    @pytest.mark.parametrize("vary", [
        {"amplitude": ["0.1", "0.2"]},
        {"width": ["1.0"]},
        {"dt": ["2e-3", "fast"]},
        {"dt": ["2e-3", "0.5"]},  # a member with dt > T breaks the stepper's rule
        {"sigma": ["0"]},  # L / sigma
        {"dt": []}, {"dt": ["2e-3"], "N": []},  # no values: no member would run
        {"dt": ["0.01", "1e-2"]}, {"N": ["64", "064"]},  # equal as numbers
    ])
    def test_rejected_before_any_member_runs(self, tmp_path, vary):
        from semirelax import gaussian_field, make_grid

        # file data has no amplitude to vary; each case must fail up front
        write_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), tmp_path / "u0.txt")
        body = FAST.replace(
            "initial = gaussian(0.3, 1.0, 0.0)", f"initial = file({tmp_path}/u0.txt)"
        )
        (sc,) = load_config(write_config(tmp_path, body))
        with pytest.raises(ScenarioError):
            sweep(sc, vary, tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


SRC = str(Path(__file__).resolve().parents[1] / "src")

# in one fresh process: a run of the three spline readers (the cor37 and
# cor39 probes, lemma35's cross-check), then a JEvaluator read both ways;
# afterwards the only scipy subpackages loaded are fft and special
IMPORT_FOOTPRINT = """
import sys
import numpy as np
from semirelax import JEvaluator, load_config, profile_from_function, run

(sc,) = load_config(sys.argv[1])
assert sorted(sc.checks) == ["cor37", "cor39", "lemma35"]
assert run(sc, sys.argv[2], deterministic=True).all_passed
ev = JEvaluator(profile_from_function(lambda r: np.exp(-r ** 2), R=8.0, M=64))
r = np.linspace(0.1, 4.0, 16)
assert np.isfinite(ev.j(0.5, r)).all() and np.isfinite(ev.dj_dt(0.5, r)).all()
assert np.isfinite(ev.point_derivative(r)).all()
subpackages = {
    name.split(".")[1]
    for name, module in list(sys.modules.items())
    if name.startswith("scipy.") and name.count(".") == 1
    and not name.startswith("scipy._") and hasattr(module, "__path__")
}
assert subpackages == {"fft", "special"}, sorted(subpackages)
"""

SPLINE_READERS = """
[scenario.spline_readers]
n = 3
p = 3
s = 1.0
solver = both
N = 64
L = 20
M = 256
R = 20
dt = 1e-2
T = 0.2
snapshot_stride = 5
initial = gaussian(0.05, 1.0, 0.0)
checks = cor37, cor39, lemma35
"""

COR37_ONLY = """
[scenario.cor37_only]
n = 3
p = 3
solver = radial-wave
M = 64
R = 10
dt = 0.05
T = 0.5
initial = gaussian(0.1, 1.0, 0.0)
checks = cor37
"""


def _fresh_python(args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


class TestImportFootprint:
    def test_spline_readers_load_only_fft_and_special(self, tmp_path):
        # the test process already holds scipy.interpolate, so ask a fresh one
        path = write_config(tmp_path, SPLINE_READERS)
        proc = _fresh_python(["-c", IMPORT_FOOTPRINT, str(path), str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr

    def test_no_module_imports_a_heavy_scipy_subpackage(self):
        # guards the paths the footprint run does not take (sweep, plots)
        heavy = {f"scipy.{name}" for name in ("interpolate", "optimize", "linalg", "spatial")}
        found = []
        for path in sorted(Path(SRC, "semirelax").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names
                    if ".".join(name.split(".")[:2]) in heavy
                ]
        assert found == []

    def test_only_the_cli_reads_the_environment(self):
        # no module reads the environment, and the runner names no check:
        # what a sweep reads is in checks.CHECKS
        from semirelax.checks import CHECKS

        readers = []
        for path in sorted(Path(SRC, "semirelax").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                    readers.append(f"{path.name}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv") for alias in node.names
                ):
                    readers.append(f"{path.name}:{node.lineno}")
        assert readers == []
        runner_src = Path(SRC, "semirelax", "runner.py").read_text()
        literals = {
            node.value for node in ast.walk(ast.parse(runner_src))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not literals & set(CHECKS)

    def test_radial_probes_inside_sweep_threads(self, tmp_path):
        # each member builds its JEvaluator splines in a fresh process, and a
        # default sweep agrees with a deterministic one
        path = write_config(tmp_path, COR37_ONLY)
        vary = ["--vary", "amplitude=0.05,0.1,0.15,0.2"]
        cmd = ["-m", "semirelax", "sweep", "--config", str(path), *vary]
        proc = _fresh_python([*cmd, "--out", str(tmp_path / "default")])
        assert proc.returncode == 0, proc.stderr
        proc = _fresh_python([*cmd, "--out", str(tmp_path / "deterministic"), "--deterministic"])
        assert proc.returncode == 0, proc.stderr
        members = json.loads((tmp_path / "default" / "sweep.json").read_text())["members"]
        assert len(members) == 4 and all(m["passed"] for m in members)
        for m in members:
            rel = Path(m["scenario"]["name"]) / "checks" / "cor37.json"
            default = (tmp_path / "default" / rel).read_bytes()
            assert default == (tmp_path / "deterministic" / rel).read_bytes(), rel


class TestErrorSurfacing:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_solver_error_carries_scenario_context(self, tmp_path):
        import numpy as np

        from semirelax import Field, make_grid

        g = make_grid(1, 64, 20.0)
        vals = np.ones(64, dtype=complex)
        vals[5] = np.inf
        write_field(Field(g, vals, "physical"), tmp_path / "bad.txt")
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
    "duhamel": {"offmask", "passed", "relative", "residual"},
}


def _no_fold(store, k):
    raise AssertionError(f"snapshot {k} folded")


def _run_unfolded(path, out):
    """Run every scenario of ``path`` deterministically into ``out`` with a spy
    on the snapshot fold that raises; return each scenario with its report."""
    from semirelax.propagator import Trajectory

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trajectory, "__getitem__", _no_fold)
        return [(sc, run(sc, out, deterministic=True)) for sc in load_config(path)]


def _assert_passed_with_keys(runs, out):
    keys = {**CATALOG_CHECK_KEYS, "scaling": SCALING_KEYS}
    for sc, report in runs:
        failed = [c for c, e in report.checks.items() if not e["passed"]]
        assert not failed, (sc.name, failed)
        for check in sc.checks:
            written = json.loads((out / sc.name / "checks" / f"{check}.json").read_text())
            assert sorted(written) == sorted(keys[check]), (sc.name, check)


class TestShippedCatalog:
    @pytest.fixture(scope="class")
    def catalog(self, tmp_path_factory):
        # the shipped catalog, run once for both tests that read it
        from semirelax import default_catalog_path

        out = tmp_path_factory.mktemp("catalog")
        return out, _run_unfolded(default_catalog_path(), out)

    def test_every_catalog_scenario_passes(self, catalog):
        """Every check passes and writes its exact key set, and the files
        match tests/data/catalog_sha256.json byte for byte; its hashes tie this
        test to the numpy/scipy build that wrote them (see catalog_manifest)."""
        out, runs = catalog
        _assert_passed_with_keys(runs, out)
        mismatch = drift(json.loads(MANIFEST.read_text()), manifest(out))
        assert not mismatch, "\n".join(mismatch)

    @pytest.mark.parametrize("body", [None, FAST, RADIAL], ids=["catalog", "fast", "radial"])
    def test_runs_fold_no_snapshot(self, tmp_path, request, body):
        """Every reader of a run takes the stored rows or the table: a spy on
        the fold raises, and every check of every run still passes and writes
        its exact key set.  fast adds scaling and duhamel, radial lemma33 and
        the free flow of a nonlinear run."""
        if body is None:
            out, runs = request.getfixturevalue("catalog")
        else:
            out = tmp_path / "out"
            runs = _run_unfolded(write_config(tmp_path, body), out)
        _assert_passed_with_keys(runs, out)


# the key set of the scaling check's JSON, which no catalog scenario requests
SCALING_KEYS = {"passed", "relative", "relative_sigma_0.5", "relative_sigma_2.0"}

RADIAL_WAVE = """
[scenario.wave_3d]
n = 3
p = 3
solver = radial-wave
M = 128
R = 12
dt = 1e-2
T = 0.2
initial = gaussian(0.05, 1.0, 0.0)
checks = prop14
"""


class TestVerdictRule:
    def test_value_is_a_key_each_check_writes(self):
        from semirelax.checks import CHECKS

        keys = {**CATALOG_CHECK_KEYS, "scaling": SCALING_KEYS}
        assert sorted(keys) == sorted(CHECKS)
        for check, spec in CHECKS.items():
            assert spec.value in keys[check] and spec.value != "passed", check

    @pytest.mark.parametrize("body", [None, FAST, RADIAL], ids=["catalog", "fast", "radial"])
    def test_payloads_carry_no_verdict_and_the_rule_matches_the_reference(
        self, tmp_path, monkeypatch, body
    ):
        # together the three cover all 16 checks
        from semirelax import default_catalog_path
        from semirelax.checks import CHECKS

        payloads = {}
        for check, spec in CHECKS.items():
            def spy(ctx, evaluate=spec.evaluate, check=check):
                payloads[check] = evaluate(ctx)
                return payloads[check]

            monkeypatch.setitem(CHECKS, check, spec._replace(evaluate=spy))
        path = default_catalog_path() if body is None else write_config(tmp_path, body)
        for sc in load_config(path):
            payloads.clear()
            report = run(sc, tmp_path / "out", deterministic=True)
            assert sorted(payloads) == sorted(sc.checks)
            for check, entry in report.checks.items():
                assert "passed" not in payloads[check], (sc.name, check)
                assert entry["passed"] is reference_passed(check, sc, entry), (sc.name, check)

    def test_scaling_judges_the_larger_residual(self, tmp_path):
        from semirelax.checks import SCALING_TOL

        (sc,) = load_config(write_config(tmp_path, FAST))
        entry = run(sc, tmp_path / "out").checks["scaling"]
        assert set(entry) == SCALING_KEYS
        assert entry["relative"] == max(entry["relative_sigma_0.5"], entry["relative_sigma_2.0"])
        assert entry["passed"] is True and entry["relative"] <= SCALING_TOL

    def test_radial_wave_regime_marker_is_mass_monotone(self, tmp_path):
        # the wave form's regime marker once checked only a finite last profile
        from semirelax.radial import radial_l2_norm

        (sc,) = load_config(write_config(tmp_path, RADIAL_WAVE))
        report = run(sc, tmp_path / "out")
        entry = report.checks["prop14"]
        assert set(entry) == CATALOG_CHECK_KEYS["prop14"]
        assert entry["initial_l2"] == radial_l2_norm(sc.initial_profile())
        assert 0 < entry["final_l2"] < entry["initial_l2"]
        assert entry["passed"] is True and report.diagnostics_csv is None

    def test_out_of_space_hardy_probe_fails_by_its_infinite_constant(self, tmp_path):
        # amplitude 1e-16 keeps the right side positive but below the flag's
        # 1e-14: the constant was finite and the note alone failed the check
        from semirelax.diagnostics import hardy_time_derivative_check

        body = RADIAL_WAVE.replace("gaussian(0.05", "gaussian(1e-16").replace("prop14", "cor39")
        (sc,) = load_config(write_config(tmp_path, body))
        report = hardy_time_derivative_check(sc.initial_profile())
        assert 0 < report["rhs"] and report["lhs"] / report["rhs"] < math.inf
        assert report["empirical_constant"] == math.inf
        assert report["notes"] == {"out_of_space": True}
        entry = run(sc, tmp_path / "out").checks["cor39"]
        assert entry["empirical_constant"] == "inf" and entry["passed"] is False


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
        u3 = to_physical(traj[-1]).values
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

    def test_disagreement_reads_the_stored_octant(self, tmp_path, monkeypatch):
        # the axis line of an octant-resident run is read off its stored
        # octant, with no fold: the samples of the full-grid line
        from scipy.interpolate import CubicSpline

        from semirelax.propagator import Trajectory
        from semirelax.runner import _RunContext

        (sc,) = load_config(write_config(tmp_path, RADIAL))
        ctx = _RunContext(sc)
        traj, rtraj = ctx.traj, ctx.radial_traj
        assert traj.basis.weights is not None
        g, half, prof = traj.grid, traj.grid.N // 2, rtraj.profiles[-1]
        line = to_physical(traj[-1]).values[half + 1 :, half, half]
        radii = g.axis[half + 1 :]
        keep = radii <= prof.r[-1]
        wave = CubicSpline(prof.r, prof.values, bc_type="not-a-knot")(radii[keep])
        expected = np.max(np.abs(line[keep] - wave)) / np.max(np.abs(wave))

        def no_fold(store, k):
            raise AssertionError("lemma35 folds no snapshot")

        monkeypatch.setattr(Trajectory, "__getitem__", no_fold)
        assert spectral_vs_wave_disagreement(traj, rtraj) == expected

    def test_disagreement_needs_one_final_time(self):
        # p14's data at dt = 4e-3 with stride 10, past the loader's stride
        # rule: the last stored row of the 125 steps is at t = 0.48, the wave
        # form's last profile at t = 0.5; the gap between them once read 4.4e-2
        from semirelax import StepperConfig, default_catalog_path, evolve, wave_evolve

        sc = {sc.name: sc for sc in load_config(default_catalog_path())}["p14_3d_critical"]
        cfg = StepperConfig(sc.p, 4e-3, sc.T, sc.snapshot_stride)
        traj = evolve(sc.initial_field(), cfg)
        rtraj = wave_evolve(sc.initial_profile(), sc.p, cfg.dt, sc.T)
        assert (sc.snapshot_stride, cfg.n_steps) == (10, 125)
        wrong = r"last spectral time 0\.48 is not the wave form's last time 0\.5$"
        with pytest.raises(ValueError, match=wrong):
            spectral_vs_wave_disagreement(traj, rtraj)

    def test_disagreement_zero_for_zero_fields(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, RADIAL.replace("0.05", "0.0")))
        from semirelax.runner import _RunContext

        ctx = _RunContext(sc)
        assert spectral_vs_wave_disagreement(ctx.traj, ctx.radial_traj) == 0.0
