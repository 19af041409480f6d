import json

import pytest

from semirelax.cli import main


FAST = """
[scenario.cli_demo]
n = 1
p = 3
s = 1.5
solver = spectral
N = 64
L = 20
dt = 5e-3
T = 0.05
initial = gaussian(0.3, 1.0, 0.0)
checks = prop21, scaling
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(FAST)
    return path


class TestRunCommand:
    def test_exit_zero_on_pass(self, tmp_path, config, capsys):
        code = main([
            "run", "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli_demo: prop21: pass" in out
        assert (tmp_path / "out" / "cli_demo" / "report.json").exists()

    def test_scenario_selection(self, tmp_path, config):
        code = main([
            "run", "--config", str(config), "--scenario", "cli_demo",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_unknown_scenario_rejected(self, tmp_path, config, capsys):
        code = main([
            "run", "--config", str(config), "--scenario", "nope",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "not in config" in capsys.readouterr().err

    def test_deterministic_flag_byte_identical(self, tmp_path, config):
        for name in ("a", "b"):
            assert main([
                "run", "--config", str(config), "--out", str(tmp_path / name),
                "--deterministic",
            ]) == 0
        a = (tmp_path / "a" / "cli_demo" / "report.json").read_bytes()
        b = (tmp_path / "b" / "cli_demo" / "report.json").read_bytes()
        assert a == b

    def test_file_data_off_the_scenario_grid_exits_2(self, tmp_path, capsys):
        from semirelax import gaussian_field, make_grid, save_field

        # 1-d N = 64, L = 20 data under a 2-d N = 16, L = 10 scenario
        save_field(gaussian_field(make_grid(1, 64, 20.0), 0.3), tmp_path / "u0.txt")
        config = tmp_path / "file.cfg"
        config.write_text(
            FAST.replace("n = 1", "n = 2").replace("N = 64", "N = 16")
            .replace("L = 20", "L = 10").replace("checks = prop21, scaling", "checks = prop12")
            .replace("gaussian(0.3, 1.0, 0.0)", f"file({tmp_path / 'u0.txt'})")
        )
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not the scenario's n=2, N=16, L=10" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_with_a_percent_exits_2(self, tmp_path, capsys, config):
        # a bare '%' once raised configparser's interpolation error: exit 1
        config.write_text(FAST.replace("gaussian(0.3, 1.0, 0.0)", f"file({tmp_path}/50%.txt)"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("s", "2.0"), ("snapshot_stride", "25"), ("N", "64"), ("L", "20"),
    ])
    def test_radial_wave_field_it_ignores_exits_2(self, tmp_path, capsys, key, value):
        config = tmp_path / "wave.cfg"
        config.write_text(
            "[scenario.wave]\nn = 3\np = 3\nsolver = radial-wave\nM = 64\nR = 10\n"
            "dt = 1e-2\nT = 0.05\ninitial = gaussian(0.1, 1.0, 0.0)\nchecks = prop14\n"
            f"{key} = {value}\n"
        )
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"scenario 'wave': solver = radial-wave ignores ['{key}']" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_spectral_radial_grid_it_ignores_exits_2(self, tmp_path, capsys, config):
        # no requested check reads the radial profile, so M and R go unread
        config.write_text(FAST + "M = 16\nR = 8\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "scenario 'cli_demo': solver = spectral ignores ['M', 'R']" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["../escaped", "", "."])
    def test_name_outside_the_output_directory_exits_2(self, tmp_path, capsys, config, name):
        # ../escaped once wrote outside --out; '' and '.' wrote into it directly
        config.write_text(FAST.replace("[scenario.cli_demo]", f"[scenario.{name}]"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"scenario {name!r}: a name is one path component" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.cfg"]


class TestSweepCommand:
    def test_dt_sweep(self, tmp_path, config, capsys):
        code = main([
            "sweep", "--config", str(config), "--scenario", "cli_demo",
            "--vary", "dt=4e-3,2e-3",
            "--out", str(tmp_path / "sweep"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "order[prop21]" in out
        payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
        assert len(payload["members"]) == 2

    def test_bad_vary_spec(self, tmp_path, config, capsys):
        code = main([
            "sweep", "--config", str(config), "--scenario", "cli_demo",
            "--vary", "dt", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2

    def test_non_numeric_value_is_a_config_error(self, tmp_path, config, capsys):
        code = main([
            "sweep", "--config", str(config), "--scenario", "cli_demo",
            "--vary", "dt=4e-3,fast", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_member_breaking_a_rule_is_a_config_error(self, tmp_path, config, capsys):
        # every member is validated before any runs: dt = 0.5 exceeds T
        code = main([
            "sweep", "--config", str(config), "--scenario", "cli_demo",
            "--vary", "dt=0.01,0.5,0.02", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'cli_demo__dt_0.5'")
        assert "exceeds final time" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("vary, message", [
        ("sigma=0", "swept sigma must be finite and positive, got '0'"),
        ("sigma=inf", "swept sigma must be finite and positive, got 'inf'"),
        ("sigma=nan", "swept sigma must be finite and positive, got 'nan'"),
        ("sigma=2,-1", "swept sigma must be finite and positive, got '-1'"),
        ("dt=", "no values given for swept key 'dt'"),
        ("dt=0.01,1e-2", "swept key 'dt' repeats a value: 0.01, 1e-2"),
    ])
    def test_sweep_that_runs_nothing_exits_2(self, tmp_path, config, capsys, vary, message):
        # each once ended in a traceback (sigma = 0, and dt= with a fresh
        # --out), ran with L = 0 (sigma = inf) or exited 0 having run
        # nothing (dt= with an existing --out)
        for out in (tmp_path / "sweep", tmp_path):
            code = main([
                "sweep", "--config", str(config), "--scenario", "cli_demo",
                "--vary", vary, "--out", str(out),
            ])
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep").exists()
        assert not (tmp_path / "sweep.json").exists()

    def test_key_given_twice_exits_2(self, tmp_path, config, capsys):
        # the second --vary of a key once replaced the first, silently
        code = main([
            "sweep", "--config", str(config), "--scenario", "cli_demo",
            "--vary", "dt=0.01,0.005", "--vary", "dt=0.02", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --vary dt given twice; list all its values in one --vary\n"
        )
        assert not (tmp_path / "sweep").exists()

    def test_grid_sweep_of_a_radial_wave_scenario_exits_2(self, tmp_path, capsys):
        # the members would run with N ignored; none runs, none writes
        config = tmp_path / "wave.cfg"
        config.write_text(
            "[scenario.wave]\nn = 3\np = 3\nsolver = radial-wave\nM = 64\nR = 10\n"
            "dt = 1e-2\nT = 0.05\ninitial = gaussian(0.1, 1.0, 0.0)\nchecks = prop14\n"
        )
        code = main([
            "sweep", "--config", str(config), "--scenario", "wave",
            "--vary", "N=16,32", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert "scenario 'wave__N_16': solver = radial-wave ignores ['N']" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "sweep").exists()


class TestThreadsVariable:
    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--vary", "dt=4e-3,2e-3"],
    ])
    def test_is_not_read(self, tmp_path, config, monkeypatch, command):
        # the command line reads no environment: the old thread variable,
        # even malformed, changes nothing
        monkeypatch.setenv("SEMIRELAX_THREADS", "abc")
        code = main([*command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_check_exponents_reads_no_threads(self, monkeypatch):
        monkeypatch.setenv("SEMIRELAX_THREADS", "abc")
        assert main(["check-exponents", "--n", "3", "--p", "3"]) == 0


class TestCheckExponents:
    def test_critical_pairing(self, capsys):
        code = main(["check-exponents", "--n", "3", "--p", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s_crit(n, p) = n/2 - 1/(p-1) = 1" in out
        assert "p_crit(n, s_crit) = 1 + 2/(n - 2 s) = 3" in out
        assert "q = 4, r = 4: admissible = True" in out

    def test_rational_power(self, capsys):
        code = main(["check-exponents", "--n", "2", "--p", "7/3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1/4" in out  # s_crit = 1 - 3/4

    def test_one_dimensional_endpoint(self, capsys):
        code = main(["check-exponents", "--n", "1", "--p", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q = inf, r = 2: admissible = True" in out

    @pytest.mark.parametrize("argv, message", [
        (["--n", "3", "--p", "1"], "--p must exceed 1, got 1"),
        (["--n", "3", "--p", "0.5"], "--p must exceed 1, got 1/2"),
        (["--n", "3", "--p", "nan"], "bad --p 'nan'"),
        (["--n", "3", "--p", "inf"], "bad --p 'inf'"),
        (["--n", "3", "--p", "7/0"], "bad --p '7/0'"),
        (["--n", "3", "--p", "abc"], "bad --p 'abc'"),
        (["--n", "3", "--p", "3", "--s", "nan"], "bad --s 'nan'"),
        (["--n", "3", "--p", "3", "--s", "1/0"], "bad --s '1/0'"),
        (["--n", "0", "--p", "3"], "--n must be 1, 2 or 3, got 0"),
        (["--n", "4", "--p", "3"], "--n must be 1, 2 or 3, got 4"),
    ])
    def test_bad_input_is_a_config_error(self, capsys, argv, message):
        code = main(["check-exponents", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {message}" in captured.err
        assert captured.out == ""  # no verdicts printed
