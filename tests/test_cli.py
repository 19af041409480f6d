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
