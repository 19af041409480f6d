import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirelax import ScenarioError, default_catalog_path, load_config
from semirelax.norms import l2_norm


def write_config(tmp_path, body):
    path = tmp_path / "scenarios.cfg"
    path.write_text(body)
    return path


GOOD = """
[scenario.demo]
n = 1
p = 3
s = 1.5
solver = spectral
N = 64
L = 20
dt = 1e-2
T = 0.1
initial = gaussian(0.5, 1.0, 0.0)
checks = prop21
"""


class TestLoadConfig:
    def test_empty_file_gives_empty_list(self, tmp_path):
        assert load_config(write_config(tmp_path, "")) == []

    def test_single_scenario(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, GOOD))
        assert sc.name == "demo"
        assert sc.n == 1 and sc.p == 3.0 and sc.N == 64
        assert sc.checks == ["prop21"]
        u0 = sc.initial_field()
        assert l2_norm(u0) > 0

    def test_parse_error_carries_line_number(self, tmp_path):
        bad = "[scenario.x]\nn = 1\n  dangling continuation mess\n= 3\n"
        with pytest.raises(ScenarioError, match="line"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="scenario"):
            load_config(write_config(tmp_path, "[other]\nx = 1\n"))

    def test_missing_required_key(self, tmp_path):
        body = GOOD.replace("dt = 1e-2\n", "")
        with pytest.raises(ScenarioError, match="dt"):
            load_config(write_config(tmp_path, body))

    def test_prop13_power_bound_cited(self, tmp_path):
        body = """
[scenario.bad13]
n = 3
p = 4
s = 1.0
solver = spectral
N = 16
L = 10
dt = 1e-2
T = 0.05
initial = gaussian(0.1, 1.0, 0.0)
checks = prop13
"""
        with pytest.raises(ScenarioError, match=r"1 \+ 2/\(n-2\) = 3"):
            load_config(write_config(tmp_path, body))

    def test_prop23_index_bound_cited(self, tmp_path):
        body = GOOD.replace("checks = prop21", "checks = prop23").replace(
            "s = 1.5", "s = 0.25"
        )
        with pytest.raises(ScenarioError, match="n/2 < s"):
            load_config(write_config(tmp_path, body))

    def test_prop24_needs_cubic(self, tmp_path):
        body = GOOD.replace("p = 3", "p = 2.5").replace(
            "checks = prop21", "checks = prop24"
        )
        with pytest.raises(ScenarioError, match="p = 3"):
            load_config(write_config(tmp_path, body))

    def test_prop14_smallness(self, tmp_path):
        body = """
[scenario.big14]
n = 3
p = 3
s = 1.0
solver = both
N = 16
L = 10
M = 64
R = 10
dt = 1e-2
T = 0.05
initial = gaussian(0.9, 1.0, 0.0)
checks = prop14
"""
        with pytest.raises(ScenarioError, match="small"):
            load_config(write_config(tmp_path, body))

    def test_radial_wave_solver_rejects_spectral_checks(self, tmp_path):
        body = """
[scenario.wave_only]
n = 3
p = 3
s = 1.0
solver = radial-wave
M = 64
R = 10
dt = 1e-2
T = 0.05
initial = gaussian(0.1, 1.0, 0.0)
checks = prop21
"""
        with pytest.raises(ScenarioError, match="need the spectral solver"):
            load_config(write_config(tmp_path, body))

    def test_pure_radial_wave_scenario_runs(self, tmp_path):
        from semirelax.runner import run

        body = """
[scenario.wave_only]
n = 3
p = 3
s = 1.0
solver = radial-wave
M = 64
R = 10
dt = 2e-2
T = 0.1
initial = gaussian(0.1, 1.0, 0.0)
checks = prop14, cor37, cor39
"""
        (sc,) = load_config(write_config(tmp_path, body))
        report = run(sc, tmp_path / "out")
        assert report.all_passed
        assert report.csv_path is None

    def test_lemma36_reads_no_radial_grid(self, tmp_path):
        from semirelax.runner import run

        # the maximal-function probe ignores its scenario: no M or R needed
        body = GOOD.replace("checks = prop21", "checks = lemma36")
        (sc,) = load_config(write_config(tmp_path, body))
        assert sc.M is None and sc.R is None
        assert run(sc, tmp_path / "out").checks["lemma36"]["passed"]

    def test_radial_solver_needs_dimension_three(self, tmp_path):
        body = GOOD.replace("solver = spectral", "solver = both").replace(
            "checks = prop21", "checks = prop21\nM = 64\nR = 10"
        )
        with pytest.raises(ScenarioError, match="3-d radial"):
            load_config(write_config(tmp_path, body))

    def test_bad_initial_spec(self, tmp_path):
        body = GOOD.replace("gaussian(0.5, 1.0, 0.0)", "blob(1)")
        with pytest.raises(ScenarioError, match="initial"):
            load_config(write_config(tmp_path, body))

    def test_mode_initial_data(self, tmp_path):
        body = GOOD.replace("gaussian(0.5, 1.0, 0.0)", "mode(3, 0.7)")
        (sc,) = load_config(write_config(tmp_path, body))
        u0 = sc.initial_field()
        spec_mass = np.abs(np.fft.fft(u0.values))
        assert np.count_nonzero(spec_mass > 1e-9 * spec_mass.max()) == 1

    def test_file_initial_data(self, tmp_path):
        from semirelax import gaussian_field, make_grid, save_field

        f = gaussian_field(make_grid(1, 64, 20.0), 0.3)
        save_field(f, tmp_path / "u0.txt")
        body = GOOD.replace("gaussian(0.5, 1.0, 0.0)", f"file({tmp_path}/u0.txt)")
        (sc,) = load_config(write_config(tmp_path, body))
        assert np.allclose(sc.initial_field().values, f.values)


WAVE_ONLY = """
[scenario.wave_only]
n = 3
p = 3
s = 1.0
solver = radial-wave
M = 64
R = 10
dt = 1e-2
T = 0.05
initial = gaussian(0.1, 1.0, 0.0)
checks = prop14
"""


# a spectral run that also requests a radial probe: cor37 reads (M, R)
RADIAL_PROBE = GOOD.replace("checks = prop21", "checks = cor37\nM = 64\nR = 10")


class TestSolverRulesAtLoad:
    """Each config breaks one rule of the solver that would run it; the
    loader asks that solver's own check, so the run never starts."""

    @pytest.mark.parametrize("body, rule", [
        (GOOD.replace("N = 64", "N = 100"), "power of two"),
        (GOOD.replace("L = 20", "L = -1"), "period L must be positive"),
        (GOOD.replace("dt = 1e-2", "dt = -0.01"), "time step must be positive"),
        (GOOD.replace("dt = 1e-2", "dt = 0.5"), "exceeds final time"),
        (GOOD.replace("T = 0.1", "T = -0.1"), "final time must be nonnegative"),
        (GOOD + "snapshot_stride = 0\n", "snapshot_stride must be a positive"),
        (WAVE_ONLY.replace("T = 0.05", "T = 10"), "radial boundary"),
        (GOOD.replace("p = 3", "p = 1"), "power must exceed 1"),
        (WAVE_ONLY.replace("p = 3", "p = 4").replace("prop14", "cor37"), "1 < p <= 3"),
        (WAVE_ONLY.replace("M = 64", "M = 8"), "at least 16 samples"),
        (GOOD.replace("T = 0.1", "T = 0"), "needs 2 stored snapshots, got 1"),
        (
            GOOD.replace("checks = prop21", "checks = duhamel\nsnapshot_stride = 6"),
            "needs 3 stored snapshots, got 2",
        ),
        (GOOD.replace("checks = prop21", "checks = lemma35"), r"solver = both"),
        # a radial probe reads the radial profile under the spectral solver too
        (
            RADIAL_PROBE.replace("gaussian(0.5, 1.0, 0.0)", "mode(1, 0.5)"),
            "needs gaussian initial data",
        ),
        (
            RADIAL_PROBE.replace("M = 64", "M = 8").replace("cor37", "cor39"),
            "at least 16 samples",
        ),
        (
            RADIAL_PROBE.replace("gaussian(0.5, 1.0, 0.0)", "gaussian(0.5, 1.0, 1.0)"),
            "must be centered",
        ),
        # the wave form marches to ceil(T/dt) dt, which must stay below R
        (WAVE_ONLY.replace("R = 10", "R = 4").replace("T = 0.05", "T = 1").replace(
            "dt = 1e-2", "dt = 5"), "exceeds final time"),
        (WAVE_ONLY.replace("R = 10", "R = 4").replace("T = 0.05", "T = 3.9").replace(
            "dt = 1e-2", "dt = 2"), "radial boundary"),
    ], ids=[
        "N_100", "L_negative", "dt_negative", "dt_above_T", "T_negative", "stride_0",
        "radial_T_at_R", "p_1", "radial_p_4", "radial_M_8", "T_0_prop21",
        "duhamel_two_snapshots", "lemma35_spectral", "cor37_mode_data", "cor39_M_8",
        "cor37_off_centre", "radial_dt_above_T", "radial_last_step_at_R",
    ])
    def test_rejected_at_load_and_cli_exits_2(self, tmp_path, capsys, body, rule):
        from semirelax.cli import main

        path = write_config(tmp_path, body)
        with pytest.raises(ScenarioError, match=rule):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: scenario")


class TestShippedCatalog:
    def test_catalog_has_six_scenarios(self):
        scenarios = load_config(default_catalog_path())
        assert len(scenarios) == 6
        names = {sc.name for sc in scenarios}
        assert "p11_1d_cubic" in names
        assert "p14_3d_critical" in names

    def test_catalog_scenarios_validated(self):
        for sc in load_config(default_catalog_path()):
            assert sc.checks
            if sc.solver in ("spectral", "both"):
                assert sc.initial_field() is not None


def _spectral_body(n, N, L, M, R, p, s, dt, T, stride, initial, checks):
    radial_grid = "" if M is None else f"M = {M}\nR = {R}\n"
    return f"""
[scenario.fuzz]
n = {n}
p = {p}
s = {s}
solver = spectral
N = {N}
L = {L}
{radial_grid}dt = {dt}
T = {T}
snapshot_stride = {stride}
initial = {initial}
checks = {", ".join(checks)}
"""


def _radial_body(M, R, p, dt, T, initial, checks):
    return f"""
[scenario.fuzz]
n = 3
p = {p}
s = 1.0
solver = radial-wave
M = {M}
R = {R}
dt = {dt}
T = {T}
initial = {initial}
checks = {", ".join(checks)}
"""


SPECTRAL_FUZZ_CHECKS = [
    "prop11", "prop12", "prop21", "prop22", "prop23", "prop24", "scaling",
    "lemma33", "lemma34", "duhamel", "lemma36", "cor37", "cor39",
]
RADIAL_FUZZ_CHECKS = ["prop13", "prop14", "lemma36", "cor37", "cor39"]


# (field, value) pairs that each break one solver rule: N not a power of
# two, L <= 0, dt <= 0, dt > T, T < 0, a zero stride, T >= R
RULE_BREAKS = [
    ("N", 12), ("L", -1.0), ("dt", -0.01), ("dt", 0.2), ("T", -0.05),
    ("stride", 0), ("R", 0.05),
]


@st.composite
def fuzz_configs(draw):
    """Configs the grammar accepts on small grids: n in {1, 2} with N in
    {8, 16, 32}, optionally with a radial grid M in {8, 16, 32} for the
    radial probes, or radial 3-d with M in {16, 32, 64}.  Initial data are
    a centred or off-centre gaussian or a plane wave.  About one draw in
    three breaks one solver rule, and one radial draw in six puts the last
    march time ceil(T/dt) dt at R."""
    cfg = {
        "dt": draw(st.sampled_from([0.01, 0.02, 0.05])),
        "T": draw(st.sampled_from([0.0, 0.02, 0.05, 0.1])),
        "stride": draw(st.sampled_from([1, 2, 3])),
        "N": draw(st.sampled_from([8, 16, 32])),
        "L": draw(st.sampled_from([10.0, 20.0])),
        "R": draw(st.sampled_from([4.0, 8.0])),
    }
    if draw(st.integers(0, 2)) == 0:
        key, value = draw(st.sampled_from(RULE_BREAKS))
        cfg[key] = value
    amp = draw(st.sampled_from([0.05, 0.1, 0.25]))
    initial = draw(st.sampled_from([
        f"gaussian({amp}, 1.0, 0.0)", f"gaussian({amp}, 1.0, 1.0)",
        f"mode({draw(st.sampled_from([1, 2]))}, {amp})",
    ]))
    p = draw(st.sampled_from([2.0, 3.0, 5.0]))
    if draw(st.booleans()):
        checks = draw(st.lists(st.sampled_from(RADIAL_FUZZ_CHECKS), max_size=3, unique=True))
        if cfg["T"] > 0 < cfg["dt"] and draw(st.integers(0, 5)) == 0:
            cfg["R"] = math.ceil(cfg["T"] / cfg["dt"] - 1e-12) * cfg["dt"]
        return _radial_body(
            draw(st.sampled_from([16, 32, 64])), cfg["R"], p, cfg["dt"], cfg["T"], initial,
            checks,
        )
    checks = draw(st.lists(st.sampled_from(SPECTRAL_FUZZ_CHECKS), max_size=3, unique=True))
    return _spectral_body(
        draw(st.sampled_from([1, 2])), cfg["N"], cfg["L"],
        draw(st.sampled_from([None, 8, 16, 32])), cfg["R"], p,
        draw(st.sampled_from([0.9, 1.5])), cfg["dt"], cfg["T"], cfg["stride"], initial,
        checks,
    )


class TestScenarioFuzz:
    @given(body=fuzz_configs())
    @settings(max_examples=600, deadline=None)
    def test_rejected_at_load_or_runs_with_invariants(self, tmp_path_factory, body):
        from semirelax.runner import run

        tmp = tmp_path_factory.mktemp("fuzz")
        try:
            (sc,) = load_config(write_config(tmp, body))
        except ScenarioError:
            return
        report = run(sc, tmp / "out")
        if report.csv_path is not None:
            table = np.genfromtxt(tmp / "out" / "fuzz" / report.csv_path,
                                  delimiter=",", names=True)
            assert all(np.isfinite(table[name]).all() for name in table.dtype.names)
            l2 = np.atleast_1d(table["l2"])
            assert np.all(np.diff(l2) <= 1e-10 * l2[0])
        for check, entry in report.checks.items():
            for key, value in entry.items():
                if isinstance(value, float):
                    assert math.isfinite(value), (check, key)
