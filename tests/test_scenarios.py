import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semirelax import Scenario, ScenarioError, default_catalog_path, load_config
from semirelax.norms import l2_norm
from conftest import reference_passed


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
        assert sc.checks == ("prop21",)
        u0 = sc.initial_field()
        assert l2_norm(u0) > 0

    @pytest.mark.parametrize("name", ["v1.5", "..x", "a.b.c"])
    def test_dotted_name_loads(self, tmp_path, name):
        body = GOOD.replace("[scenario.demo]", f"[scenario.{name}]")
        assert [sc.name for sc in load_config(write_config(tmp_path, body))] == [name]

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
        assert report.diagnostics_csv is None

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

    def test_percent_in_a_value_is_literal(self, tmp_path):
        # '%' once started configparser's interpolation: 50%.txt raised a
        # traceback instead of loading
        from semirelax import gaussian_field, make_grid, run, save_field

        save_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), tmp_path / "50%.txt")
        body = GOOD.replace("gaussian(0.5, 1.0, 0.0)", f"file({tmp_path}/50%.txt)")
        (sc,) = load_config(write_config(tmp_path, body))
        assert sc.initial == f"file({tmp_path}/50%.txt)"
        assert run(sc, tmp_path / "out").all_passed

    def test_name_rule_holds_for_every_construction(self, tmp_path):
        # a library run of a Scenario built by hand once wrote outside outdir
        from dataclasses import replace

        from semirelax import run

        (sc,) = load_config(write_config(tmp_path, GOOD))
        message = re.escape("scenario '../escaped_lib': a name is one path component")
        with pytest.raises(ScenarioError, match=message):
            run(Scenario("../escaped_lib", 1, 3.0, 1e-2, 0.1, sc.initial, N=64, L=20.0),
                tmp_path / "out")
        with pytest.raises(ScenarioError, match=message):
            run(replace(sc, name="../escaped_lib"), tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenarios.cfg"]


class TestValidByConstruction:
    """A Scenario validates itself when it is built, by the loader, by
    dataclasses.replace or by hand, and cannot be changed afterwards; once
    a hand-built one was never validated and a loaded one could be mutated."""

    def test_fields_cannot_be_assigned(self, tmp_path):
        from dataclasses import FrozenInstanceError

        from semirelax import run

        (sc,) = load_config(write_config(tmp_path, GOOD))
        with pytest.raises(FrozenInstanceError):
            sc.name = "../hole_lib"  # once wrote hole_lib/ next to out/
        assert run(sc, tmp_path / "out").all_passed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenarios.cfg"]
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["demo"]

    def test_checks_cannot_be_appended(self, tmp_path):
        # a list once let sc.checks.append("nope") past the validation
        (sc,) = load_config(write_config(tmp_path, GOOD))
        with pytest.raises(AttributeError):
            sc.checks.append("nope")
        assert sc.checks == ("prop21",)
        built = Scenario("x", 1, 3.0, 1e-2, 0.1, sc.initial, checks=["prop21"], N=64, L=20.0)
        assert built.checks == ("prop21",)

    @pytest.mark.parametrize("changes, rule", [
        ({"name": "../hole"}, "a name is one path component"),
        ({"N": 100}, "power of two"),
        ({"checks": ["prop21", "prop21"]}, re.escape("repeated checks ['prop21']")),
        ({"s": 3.0, "checks": ["prop12"]}, "n = 2 regime"),
    ], ids=["name", "N", "repeated_check", "hypothesis"])
    def test_replace_validates(self, tmp_path, changes, rule):
        from dataclasses import replace

        from semirelax import run

        (sc,) = load_config(write_config(tmp_path, GOOD))
        with pytest.raises(ScenarioError, match=rule):
            run(replace(sc, **changes), tmp_path / "out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenarios.cfg"]

    @pytest.mark.parametrize("changes, rule", [
        ({"checks": ["nope"]}, re.escape("scenario 'x': unknown checks ['nope']")),
        ({"p": 0.5}, "nonlinearity power must exceed 1, got 0.5"),
        ({"p": 1.0}, "nonlinearity power must exceed 1, got 1.0"),
        ({"solver": "radial-wave", "n": 3, "L": None, "M": 64, "R": 10.0},
         re.escape("scenario 'x': solver = radial-wave ignores ['N']")),
    ], ids=["unknown_check", "p_below_1", "p_1", "radial_wave_N"])
    def test_hand_built_rejected(self, changes, rule):
        values = dict(n=1, p=3.0, dt=1e-2, T=0.1, initial="gaussian(0.1, 1.0, 0.0)", N=64, L=20.0)
        with pytest.raises(ScenarioError, match=rule):
            Scenario("x", **{**values, **changes})

    def test_replace_parses_its_own_initial_data(self, tmp_path):
        from dataclasses import asdict, replace

        (sc,) = load_config(write_config(tmp_path, GOOD))
        assert sc.parsed_initial == ("gaussian", (0.5, 1.0, 0.0))
        moved = replace(sc, initial="mode(3, 0.2)")
        assert moved.parsed_initial == ("mode", (3.0, 0.2))
        assert "defaulted" not in asdict(moved) and "parsed_initial" not in asdict(moved)


WAVE_ONLY = """
[scenario.wave_only]
n = 3
p = 3
solver = radial-wave
M = 64
R = 10
dt = 1e-2
T = 0.05
initial = gaussian(0.1, 1.0, 0.0)
checks = prop14
"""


class TestRadialWaveRejectsSpectralKeys:
    """The wave form reads none of s, snapshot_stride, N and L: a radial-wave
    scenario that sets one is rejected at load, naming it, where it once
    loaded, ran and ignored it."""

    @pytest.mark.parametrize("line", ["s = 2.0", "snapshot_stride = 25", "N = 64", "L = 20"])
    def test_each_key_named(self, tmp_path, line):
        key = line.split(" = ")[0]
        with pytest.raises(ScenarioError, match=re.escape(f"radial-wave ignores ['{key}']")):
            load_config(write_config(tmp_path, WAVE_ONLY + line + "\n"))

    def test_every_key_named(self, tmp_path):
        body = WAVE_ONLY + "s = 2.0\nsnapshot_stride = 25\nN = 64\nL = 20\n"
        with pytest.raises(ScenarioError) as err:
            load_config(write_config(tmp_path, body))
        assert "ignores ['s', 'snapshot_stride', 'N', 'L']" in str(err.value)

    def test_replace_names_them(self, tmp_path):
        # a key not at its default is set, as if the config named it: this
        # replace once ran with both keys ignored
        from dataclasses import replace

        (wave,) = load_config(write_config(tmp_path, WAVE_ONLY))
        with pytest.raises(ScenarioError, match=re.escape("ignores ['s', 'snapshot_stride']")):
            replace(wave, s=2.0, snapshot_stride=5)

    def test_solver_both_reads_them(self, tmp_path):
        body = WAVE_ONLY.replace("solver = radial-wave", "solver = both")
        (sc,) = load_config(write_config(tmp_path, body + "s = 1.2\nN = 16\nL = 10\n"))
        assert (sc.s, sc.N, sc.L) == (1.2, 16, 10.0)


class TestSpectralRejectsRadialGrid:
    """solver = spectral reads M and R only for a radial probe (a check
    whose CHECKS entry reads "radial"): a scenario that sets either with no
    such check is rejected at load, naming it, where it once loaded, ran
    and ignored it."""

    @pytest.mark.parametrize("lines, named", [
        ("M = 16\n", "['M']"), ("R = 8\n", "['R']"), ("M = 16\nR = 8\n", "['M', 'R']"),
    ])
    def test_keys_named(self, tmp_path, lines, named):
        with pytest.raises(ScenarioError) as err:
            load_config(write_config(tmp_path, GOOD + lines))
        assert f"scenario 'demo': solver = spectral ignores {named}" in str(err.value)

    def test_keys_it_reads_not_named(self, tmp_path):
        body = GOOD + "snapshot_stride = 2\nM = 16\nR = 8\n"
        with pytest.raises(ScenarioError, match=re.escape("spectral ignores ['M', 'R']")):
            load_config(write_config(tmp_path, body))

    def test_a_radial_probe_reads_them(self, tmp_path):
        body = GOOD.replace("n = 1", "n = 3").replace("N = 64", "N = 16").replace(
            "s = 1.5", "s = 1.0").replace("checks = prop21", "checks = prop21, cor39")
        (sc,) = load_config(write_config(tmp_path, body + "M = 16\nR = 8\n"))
        assert (sc.solver, sc.M, sc.R) == ("spectral", 16, 8.0)


# the shipped catalog's loaded values, pinned: reading the keys through the
# Scenario fields must not move any of them
CATALOG = {
    "p11_1d_cubic": dict(
        n=1, p=3.0, s=1.5, solver="spectral", dt=0.001, T=1.0,
        initial="gaussian(0.5, 1.0, 0.0)",
        checks=("prop11", "prop21", "prop22", "prop24", "duhamel"),
        N=256, L=40.0, M=None, R=None, snapshot_stride=1, nonlinear=True,
    ),
    "p11_1d_quintic": dict(
        n=1, p=5.0, s=1.5, solver="spectral", dt=0.001, T=1.0,
        initial="gaussian(0.4, 1.0, 0.0)", checks=("prop11", "prop21"),
        N=256, L=40.0, M=None, R=None, snapshot_stride=1, nonlinear=True,
    ),
    "p12_2d_s15": dict(
        n=2, p=3.0, s=1.5, solver="spectral", dt=0.001, T=0.5,
        initial="gaussian(0.5, 1.0, 0.0)", checks=("prop12", "prop21", "prop23", "prop24"),
        N=128, L=30.0, M=None, R=None, snapshot_stride=2, nonlinear=True,
    ),
    "p13_3d_subcritical": dict(
        n=3, p=2.5, s=1.0, solver="spectral", dt=0.002, T=0.5,
        initial="gaussian(0.2, 1.0, 0.0)", checks=("prop13", "prop21", "lemma33"),
        N=64, L=20.0, M=None, R=None, snapshot_stride=10, nonlinear=True,
    ),
    "p14_3d_critical": dict(
        n=3, p=3.0, s=1.0, solver="both", dt=0.002, T=0.5,
        initial="gaussian(0.1, 1.0, 0.0)", checks=("prop14", "prop21", "lemma35"),
        N=64, L=20.0, M=512, R=20.0, snapshot_stride=10, nonlinear=True,
    ),
    "lin_3d_probes": dict(
        n=3, p=3.0, s=1.0, solver="both", dt=0.05, T=4.0,
        initial="gaussian(1.0, 1.0, 0.0)", checks=("lemma34", "lemma36", "cor37", "cor39"),
        N=64, L=20.0, M=512, R=20.0, snapshot_stride=1, nonlinear=False,
    ),
}

# every key set, none to its default; solver = both reads them all
EVERY_KEY = """
[scenario.every_key]
n = 3
p = 3
dt = 1e-2
T = 0.05
initial = gaussian(0.1, 1.0, 0.0)
s = 0.5
solver = both
checks = lemma36, prop21
N = 16
L = 10
M = 64
R = 10
snapshot_stride = 2
nonlinear = false
"""


class TestKeyTable:
    """The Scenario fields after name are the config keys: the loader reads
    each through that table, and any other key is a config error."""

    @pytest.mark.parametrize("body, key", [
        (GOOD + "nonlinaer = false\n", "nonlinaer"),
        (GOOD + "snapshot_strid = 2\n", "snapshot_strid"),
        (GOOD.replace("dt = 1e-2", "Dt = 1e-2"), "Dt"),
        (GOOD + "name = other\n", "name"),
        ("[DEFAULT]\nsnapshot_strid = 2\n" + GOOD, "snapshot_strid"),
    ], ids=["nonlinaer", "snapshot_strid", "Dt", "name", "default_section"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, body, key):
        from semirelax.cli import main

        path = write_config(tmp_path, body)
        message = f"scenario 'demo': unknown keys [{key!r}]"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_field_set_from_a_config(self, tmp_path):
        from dataclasses import asdict, fields

        from semirelax import Scenario

        (sc,) = load_config(write_config(tmp_path, EVERY_KEY))
        assert asdict(sc) == dict(
            name="every_key", n=3, p=3.0, dt=0.01, T=0.05, initial="gaussian(0.1, 1.0, 0.0)",
            s=0.5, solver="both", checks=("lemma36", "prop21"), N=16, L=10.0, M=64, R=10.0,
            snapshot_stride=2, nonlinear=False,
        )
        for f in fields(Scenario)[1:]:
            assert f"\n{f.name} = " in EVERY_KEY
            assert getattr(sc, f.name) != f.default, f.name

    def test_catalog_values_pinned(self):
        from dataclasses import asdict

        loaded = {sc.name: asdict(sc) for sc in load_config(default_catalog_path())}
        assert loaded == {name: {"name": name, **values} for name, values in CATALOG.items()}
        for name, values in CATALOG.items():  # 3 and 3.0 are equal but not the same cast
            assert all(type(loaded[name][k]) is type(v) for k, v in values.items()), name

    def test_grammar_docstring_lists_the_fields(self):
        # the docstring's grammar block: one `key = example  # comment` line per key
        from configparser import ConfigParser
        from dataclasses import MISSING, fields

        from semirelax import Scenario, scenarios

        block = scenarios.__doc__.split("[scenario.<name>]\n", 1)[1]
        lines = dict(re.findall(r"^    (\w+) = .*?# (.*)$", block, re.MULTILINE))
        assert list(lines) == [f.name for f in fields(Scenario)[1:]]
        for f in fields(Scenario)[1:]:
            default, comment = f.default, lines[f.name]
            assert comment.startswith("optional") == (default is not MISSING), f.name
            stated = re.match(r"optional, default ([^\s:]+)", comment)
            if default in (MISSING, None, ()):  # required, or unset unless given
                assert stated is None, f.name
                continue
            cast, word = scenarios.KEYS[f.name], stated.group(1)
            value = ConfigParser.BOOLEAN_STATES[word] if cast is bool else cast(word)
            assert value == default, f.name


# a spectral run that also requests a radial probe: cor37 reads (M, R);
# being n = 1, it keeps every rule but the probe's n = 3
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
        # cor37 reads the 3-d radial profile, which is not n = 1 data
        (RADIAL_PROBE, "requires n = 3, got n=1"),
        # Lemma 3.3 assumes radial data
        (
            GOOD.replace("n = 1", "n = 2").replace("s = 1.5", "s = 0.9")
            .replace("gaussian(0.5, 1.0, 0.0)", "mode(1, 0.1)")
            .replace("checks = prop21", "checks = lemma33"),
            "requires radial data",
        ),
        # the wave form marches to ceil(T/dt) dt, which must stay below R
        (WAVE_ONLY.replace("R = 10", "R = 4").replace("T = 0.05", "T = 1").replace(
            "dt = 1e-2", "dt = 5"), "exceeds final time"),
        (WAVE_ONLY.replace("R = 10", "R = 4").replace("T = 0.05", "T = 3.9").replace(
            "dt = 1e-2", "dt = 2"), "radial boundary"),
        # grammar: each of these once ran the wrong flow or crashed mid-run
        (GOOD + "nonlinear = flase\n", "bad value for 'nonlinear': 'flase'"),
        (GOOD.replace("gaussian(0.5, 1.0, 0.0)", "gaussian(0.5, one, 0.0)"),
         r"needs finite numbers \(amplitude, width, center\)"),
        (GOOD.replace("gaussian(0.5, 1.0, 0.0)", "mode(1.5, 0.5)"), "k must be an integer"),
        (GOOD.replace("gaussian(0.5, 1.0, 0.0)", "gaussian(0.5, 0.0, 0.0)"),
         "width must be positive"),
        # non-finite numbers: each crashed the stepper, failed a check or
        # wrote a NaN column instead of stopping at load
        (GOOD.replace("T = 0.1", "T = inf"), "'T' must be a finite number, got 'inf'"),
        (GOOD.replace("p = 3", "p = inf"), "'p' must be a finite number, got 'inf'"),
        (GOOD.replace("L = 20", "L = inf"), "'L' must be a finite number, got 'inf'"),
        (GOOD.replace("s = 1.5", "s = nan"), "'s' must be a finite number, got 'nan'"),
        # the table's homogeneous H^s norm with s < 0 needs mean-free data;
        # a gaussian once loaded and then failed mid-run with exit 1
        (GOOD.replace("s = 1.5", "s = -0.5"),
         r"s = -0.5: homogeneous norm with s < 0 requires a mean-free field "
         r"\(zero-mode fraction 3.540e-01\)"),
        # the run writes outdir/<name>/: these once wrote outside outdir or
        # straight into it
        *[
            (GOOD.replace("[scenario.demo]", f"[scenario.{name}]"),
             re.escape(f"scenario {name!r}: a name is one path component"))
            for name in ("", ".", "..", "../escaped", "a/b")
        ],
        # a repeated check was evaluated and its JSON written twice
        (GOOD.replace("checks = prop21", "checks = prop21, prop21"),
         re.escape("'demo': repeated checks ['prop21']")),
        (GOOD.replace("checks = prop21", "checks = prop22, prop21, prop22, prop21"),
         re.escape("'demo': repeated checks ['prop21', 'prop22']")),
    ], ids=[
        "N_100", "L_negative", "dt_negative", "dt_above_T", "T_negative", "stride_0",
        "radial_T_at_R", "p_1", "radial_p_4", "radial_M_8", "T_0_prop21",
        "duhamel_two_snapshots", "lemma35_spectral", "cor37_mode_data", "cor39_M_8",
        "cor37_off_centre", "cor37_n_1", "lemma33_mode_data", "radial_dt_above_T",
        "radial_last_step_at_R", "nonlinear_flase", "gaussian_width_word", "mode_k_1.5",
        "gaussian_width_0", "T_inf", "p_inf", "L_inf", "s_nan", "s_negative_mean",
        "name_empty", "name_dot", "name_dotdot", "name_escaped", "name_slash",
        "checks_repeated", "checks_repeated_two",
    ])
    def test_rejected_at_load_and_cli_exits_2(self, tmp_path, capsys, body, rule):
        from semirelax.cli import main

        path = write_config(tmp_path, body)
        with pytest.raises(ScenarioError, match=rule):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: scenario")

    def test_negative_s_with_mean_free_data_runs(self, tmp_path):
        from semirelax import run

        body = GOOD.replace("s = 1.5", "s = -0.5")
        body = body.replace("gaussian(0.5, 1.0, 0.0)", "mode(1, 0.5)")
        (sc,) = load_config(write_config(tmp_path, body))
        assert run(sc, tmp_path / "out").all_passed

    def test_negative_s_nonlinear_needs_mode_data(self, tmp_path, capsys):
        # mean-free at t = 0, but |u|^(p-1) u makes a mean: this once loaded
        # and then failed mid-run with a RuntimeError and exit 1
        from semirelax import make_grid, run, save_field
        from semirelax.cli import main
        from semirelax.fields import PHYSICAL, Field

        grid = make_grid(1, 64, 20.0)
        kx = 2 * np.pi / 20 * grid.coordinate_arrays[0]
        save_field(Field(grid, 0.8 * (np.sin(kx) + np.cos(2 * kx)) + 0j, PHYSICAL),
                   tmp_path / "u0.txt")
        body = GOOD.replace("s = 1.5", "s = -0.5").replace(
            "gaussian(0.5, 1.0, 0.0)", f"file({tmp_path / 'u0.txt'})")
        path = write_config(tmp_path, body)
        with pytest.raises(ScenarioError, match="s = -0.5: the nonlinear flow keeps only mode"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: scenario 'demo': s = -0.5")
        # the free flow keeps the mean zero
        (sc,) = load_config(write_config(tmp_path, body + "nonlinear = false\n"))
        assert run(sc, tmp_path / "out").all_passed

    def test_nonnegative_s_builds_no_field_at_load(self, tmp_path, monkeypatch):
        # the mean-free rule reads the initial field only when s < 0
        from semirelax.scenarios import Scenario

        def no_field(self):
            raise AssertionError("builds no field")

        monkeypatch.setattr(Scenario, "initial_field", no_field)
        assert len(load_config(write_config(tmp_path, GOOD.replace("s = 1.5", "s = 0")))) == 1
        assert len(load_config(default_catalog_path())) == 6

    @pytest.mark.parametrize("content, rule", [
        (None, "No such file"),
        ("not a field\n", "malformed field header"),
        ("1 64 20 physical\n1 0\n", "expected 64 're im' lines"),
        (b"\xff\xfe\x00\n", "can't decode"),
        ("dir", "Is a directory"),
        # the data of a 1-d N = 64, L = 20 file on the scenario's n = 2 grid
        ("1d", "grid n=1, N=64, L=20, not the scenario's n=2, N=16, L=10"),
        ("L", "grid n=1, N=64, L=10, not the scenario's n=1, N=64, L=20"),
    ], ids=[
        "missing", "bad_header", "short", "undecodable", "directory", "other_dimension",
        "other_L",
    ])
    def test_file_data_rejected_at_load(self, tmp_path, capsys, content, rule):
        from semirelax import gaussian_field, make_grid, save_field
        from semirelax.cli import main

        data = tmp_path / "u0.txt"
        body = GOOD.replace("gaussian(0.5, 1.0, 0.0)", f"file({data})")
        if content == "1d":
            save_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), data)
            body = body.replace("n = 1", "n = 2").replace("N = 64", "N = 16").replace(
                "L = 20", "L = 10")
        elif content == "L":
            save_field(gaussian_field(make_grid(1, 64, 10.0), 0.3), data)
        elif content == "dir":
            data.mkdir()
        elif isinstance(content, bytes):
            data.write_bytes(content)
        elif content is not None:
            data.write_text(content)
        path = write_config(tmp_path, body)
        with pytest.raises(ScenarioError, match=rule):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: scenario")

    def test_every_stepper_field_is_a_scenario_field(self):
        # a stepping knob that no scenario file can set would be test-only
        from dataclasses import fields

        from semirelax import Scenario, StepperConfig

        assert {f.name for f in fields(StepperConfig)} <= {f.name for f in fields(Scenario)}


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
    {8, 16, 32}, with a radial grid M in {8, 16, 32} or none when cor37 or
    cor39 is among the checks (no other check reads it), or radial 3-d with
    M in {16, 32, 64}.  Initial data are a centred or off-centre gaussian or
    a plane wave.  One spectral draw in
    four is n = 3 with N in {8, 16}, a centred gaussian, M in {16, 32} and
    cor37 or cor39 among its checks, the spectral runs of the radial probes.
    About one draw in three breaks one solver rule, and one radial draw in
    six puts the last march time ceil(T/dt) dt at R."""
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
    n, M = draw(st.sampled_from([1, 2])), None
    if {"cor37", "cor39"} & set(checks):
        M = draw(st.sampled_from([None, 8, 16, 32]))
    if draw(st.integers(0, 3)) == 0:
        n, M, initial = 3, draw(st.sampled_from([16, 32])), f"gaussian({amp}, 1.0, 0.0)"
        cfg["N"] = min(cfg["N"], 16)
        probes = draw(st.lists(st.sampled_from(["cor37", "cor39"]), min_size=1, unique=True))
        checks = probes + [c for c in checks if c not in probes]
    return _spectral_body(
        n, cfg["N"], cfg["L"], M, cfg["R"], p,
        draw(st.sampled_from([0.9, 1.5])), cfg["dt"], cfg["T"], cfg["stride"], initial,
        checks,
    )


# a spectral n = 3 draw that loads and runs both radial probes
SPECTRAL_PROBES = _spectral_body(
    3, 16, 10.0, 16, 4.0, 3.0, 0.9, 0.02, 0.1, 1, "gaussian(0.1, 1.0, 0.0)",
    ["cor37", "cor39", "prop21"],
)


class TestScenarioFuzz:
    def test_spectral_probe_example_loads(self, tmp_path):
        (sc,) = load_config(write_config(tmp_path, SPECTRAL_PROBES))
        assert (sc.n, sc.solver, sc.M) == (3, "spectral", 16)
        assert {"cor37", "cor39"} <= set(sc.checks)

    @given(body=fuzz_configs())
    @example(body=SPECTRAL_PROBES)
    @settings(max_examples=600, deadline=None)
    def test_rejected_at_load_or_runs_with_invariants(self, tmp_path_factory, body):
        from semirelax.runner import run

        tmp = tmp_path_factory.mktemp("fuzz")
        try:
            (sc,) = load_config(write_config(tmp, body))
        except ScenarioError:
            return
        report = run(sc, tmp / "out")
        if report.diagnostics_csv is not None:
            table = np.genfromtxt(tmp / "out" / "fuzz" / report.diagnostics_csv,
                                  delimiter=",", names=True)
            assert all(np.isfinite(table[name]).all() for name in table.dtype.names)
            l2 = np.atleast_1d(table["l2"])
            assert np.all(np.diff(l2) <= 1e-10 * l2[0])
        for check, entry in report.checks.items():
            assert entry["passed"] is reference_passed(check, sc, entry), check
            for key, value in entry.items():
                if isinstance(value, float):
                    assert math.isfinite(value), (check, key)
