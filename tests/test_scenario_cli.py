import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from heolsim.scenario_cli import (
    _CSV_BLOCK_ROWS,
    BUILTIN_SCENARIOS,
    CSV_HEADER,
    ConfigError,
    apply_override,
    build_scenario,
    config_hash,
    main,
    parse_config_text,
    write_csv,
)
from heolsim.sim_engine import _COLUMNS, RunLog


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scenarios"
    assert main(["emit-scenarios", str(out)]) == 0
    return out


def run_cli(args):
    return main([str(a) for a in args])


class TestConfigParsing:
    def test_parse_key_values_comments_blanks(self):
        text = "# header\nfoo.bar = 1.5\n\nbaz=2 # trailing\n"
        assert parse_config_text(text) == {"foo.bar": "1.5", "baz": "2"}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError):
            parse_config_text("= 3\n")

    def test_override_parsing(self):
        raw = {"a": "1"}
        apply_override(raw, "b.c=2.5")
        assert raw == {"a": "1", "b.c": "2.5"}
        with pytest.raises(ConfigError):
            apply_override(raw, "novalue")

    def test_build_rejects_unknown_keys(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["hovercraft_line"])
        raw["heol.KP"] = "2.0"
        with pytest.raises(ConfigError, match="heol.KP"):
            build_scenario(raw)

    def test_build_rejects_shape_mismatched_keys(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["hovercraft_line"])
        raw["model.beta_v"] = "15.0"
        with pytest.raises(ConfigError):
            build_scenario(raw)

    def test_build_rejects_bad_values(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["hovercraft_line"])
        raw["duration"] = "ten"
        with pytest.raises(ConfigError):
            build_scenario(raw)
        raw["duration"] = "-3.0"
        with pytest.raises(ConfigError):
            build_scenario(raw)

    def test_resolved_config_materializes_derived_keys(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["otter_circle"])
        del raw["controller_beta"]
        cfg, resolved = build_scenario(raw)
        assert resolved["controller_beta"] == 10.0  # smaller damping rate
        assert resolved["heol.dt"] == pytest.approx(1e-3)
        assert cfg.controller_beta == 10.0

    def test_hash_changes_with_any_key(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["hovercraft_line"])
        _, resolved_a = build_scenario(raw)
        raw["wind.fy"] = "0.0"
        _, resolved_b = build_scenario(raw)
        assert config_hash(resolved_a) != config_hash(resolved_b)
        assert config_hash(resolved_a) == config_hash(dict(resolved_a))


class TestEmitScenarios:
    def test_writes_both_files(self, scenario_dir):
        names = sorted(p.name for p in scenario_dir.iterdir())
        assert names == ["hovercraft_line.cfg", "otter_circle.cfg"]

    def test_line_scenario_values(self, scenario_dir):
        raw = parse_config_text((scenario_dir / "hovercraft_line.cfg").read_text())
        assert float(raw["model.beta"]) == 10.0
        assert float(raw["wind.fy"]) == -50.0
        assert float(raw["initial.y"]) == 10.0
        assert float(raw["trajectory.speed"]) == 2.0

    def test_circle_scenario_values(self, scenario_dir):
        raw = parse_config_text((scenario_dir / "otter_circle.cfg").read_text())
        assert float(raw["model.a"]) == 0.58
        assert float(raw["model.b"]) == -1.72
        assert float(raw["model.beta_u"]) == 10.0
        assert float(raw["model.beta_v"]) == 15.0
        assert float(raw["controller_beta"]) == 10.0
        # 15 m offset from the circle start point (radius, 0)
        assert float(raw["initial.x"]) - float(raw["trajectory.radius"]) == 15.0
        assert float(raw["wind.fy"]) == -50.0

    def test_builtin_texts_build(self):
        for name, text in BUILTIN_SCENARIOS.items():
            cfg, _ = build_scenario(parse_config_text(text))
            assert cfg.duration > 0


class TestRunCommand:
    def test_happy_path(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=2.0"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "rms_error_y=" in line
        assert sorted(p.name for p in out.iterdir()) == [
            "errors_vs_time.svg", "estimates_vs_time.svg", "log.csv",
            "metrics.json", "trajectory_xy.svg",
        ]
        csv_lines = (out / "log.csv").read_text().splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 1 + 2001

    def test_no_leftover_temp_files(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                 "--set", "duration=0.5"])
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_metrics_payload(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                 "--set", "duration=2.0", "--set", "wind.fy=-10.0"])
        payload = json.loads((out / "metrics.json").read_text())
        for key in ("rms_error_x", "rms_error_y", "convergence_time",
                    "F_hat_x_mean", "F_hat_y_mean", "resolved_config",
                    "config_hash", "tool_version"):
            assert key in payload
        assert payload["resolved_config"]["wind.fy"] == -10.0
        assert payload["resolved_config"]["duration"] == 2.0
        assert payload["config_hash"] == config_hash(payload["resolved_config"])

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = run_cli(["run", tmp_path / "nope.cfg", tmp_path / "out"])
        assert code == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, scenario_dir, tmp_path, capsys):
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "wimd.fy=0"])
        assert code == 1
        assert "wimd.fy" in capsys.readouterr().err

    def test_wind_off_override(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "wind.fy=0.0", "--set", "duration=10.0",
                        "--set", "initial.y=0.0"])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert abs(payload["F_hat_y_mean"]) < 0.5

    def test_blowup_exits_2(self, scenario_dir, tmp_path, capsys):
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "wind.fy=-1e308",
                        "--set", "duration=0.05"])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", [
        "heol.Kp=nan", "duration=nan", "wind.fy=inf", "convergence_threshold=nan",
        "initial.x=-inf",
    ])
    def test_non_finite_value_is_config_error(self, scenario_dir, tmp_path,
                                              capsys, assignment):
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "duration=0.5",
                        "--set", assignment])
        assert code == 1
        key = assignment.partition("=")[0]
        assert capsys.readouterr().err == f"error: key {key!r}: must be finite\n"
        assert not (tmp_path / "out").exists()

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert main([]) == 1

    def test_seedless_flag_accepted(self, scenario_dir, tmp_path):
        code = run_cli(["--seedless", "run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "duration=0.5"])
        assert code == 0

    def test_determinism_byte_identical(self, scenario_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                            "--set", "duration=3.0"]) == 0
            outs.append((out / "log.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_console_entry_point(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "heolsim", "run",
             str(scenario_dir / "hovercraft_line.cfg"), str(out),
             "--set", "duration=0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "rms_error_y=" in proc.stdout


class TestCsvWriter:
    def test_streamed_bytes_match_one_shot_format(self, tmp_path):
        n = 2 * _CSV_BLOCK_ROWS + 7
        rng = np.random.default_rng(11)
        data = rng.standard_normal((n, len(_COLUMNS))) * 10.0 ** rng.integers(
            -300, 300, (n, len(_COLUMNS))
        )
        specials = {  # (row, column): value
            (3, 1): -0.0,
            (_CSV_BLOCK_ROWS, 2): 5e-324,
            (_CSV_BLOCK_ROWS - 1, 3): -2.5e-309,
            (n - 1, 4): 1.7976931348623157e308,
            (n - 2, 5): -1e300,
        }
        for pos, value in specials.items():
            data[pos] = value
        log = RunLog._from_matrix(data, [])
        write_csv(log, tmp_path / "log.csv")

        matrix = np.column_stack([getattr(log, name) for name in CSV_HEADER.split(",")])
        body = "\n".join(",".join(map(repr, row)) for row in matrix.tolist())
        want = (CSV_HEADER + "\n" + body + "\n").encode()
        got = (tmp_path / "log.csv").read_bytes()
        assert got == want
        lines = got.decode().splitlines()
        for (row, col), value in specials.items():
            assert lines[1 + row].split(",")[col] == repr(value)
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
