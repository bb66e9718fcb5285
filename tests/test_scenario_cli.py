import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import heolsim
from heolsim import scenario_cli
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

    def test_overflowing_metric_exits_2(self, scenario_dir, tmp_path, capsys):
        # The state grows to about 1e306 but stays finite; its square does not.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "wind.fy=-1e306",
                            "--set", "duration=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulation diverged: metric rms_error_")
        assert err.count("\n") == 1
        assert "None" not in err
        assert caught == []
        assert not (tmp_path / "out").exists()

    def test_blowup_reports_time_and_step(self, scenario_dir, tmp_path, capsys):
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "wind.fy=-1e308",
                        "--set", "duration=0.05"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: simulation diverged at t=0.0 (step 0): ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("overrides", [
        ["duration=1e12"],
        ["dt_plant=1e-300", "duration=1"],
    ])
    def test_absurd_step_count_is_config_error(self, scenario_dir, tmp_path,
                                               capsys, overrides):
        args = ["run", scenario_dir / "hovercraft_line.cfg", tmp_path / "out"]
        for assignment in overrides:
            args += ["--set", assignment]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duration / dt_plant gives ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_huge_estimator_window_is_config_error(self, scenario_dir, tmp_path,
                                                   capsys):
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "heol.T=1e12",
                        "--set", "duration=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: heol.T / controller period gives ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        # The child imports the package from where this process found it,
        # installed or not.
        src = os.path.dirname(os.path.dirname(heolsim.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "heolsim", "run",
             str(scenario_dir / "hovercraft_line.cfg"), str(out),
             "--set", "duration=0.5"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "rms_error_y=" in proc.stdout


class TestCsvWriter:
    def test_log_schema_lives_in_one_place(self):
        fields = [f.name for f in dataclasses.fields(RunLog)]
        assert fields == [*_COLUMNS, "events"]
        assert CSV_HEADER.split(",") == list(_COLUMNS)
        assert len(_COLUMNS) == 18

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


def _random_log(n, seed=11):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, len(_COLUMNS))) * 10.0 ** rng.integers(
        -300, 300, (n, len(_COLUMNS))
    )
    return RunLog._from_matrix(data, [])


def _fail_in_children(monkeypatch, error):
    """Make every range but the first (the parent's) raise ``error``."""
    real = scenario_cli._write_rows

    def write_rows(fh, columns, lo, hi):
        if lo > 0:
            raise error
        real(fh, columns, lo, hi)

    monkeypatch.setattr(scenario_cli, "_write_rows", write_rows)


B = _CSV_BLOCK_ROWS


class TestParallelCsvWriter:
    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 7])
    @pytest.mark.parametrize("procs", [1, 2, 3, 4])
    def test_bytes_do_not_depend_on_process_count(self, tmp_path, monkeypatch,
                                                  rows, procs):
        log = _random_log(rows)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 1)
        write_csv(log, tmp_path / "one.csv")
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: procs)
        write_csv(log, tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert len(forks) == min(procs, -(-rows // B)) - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv", "one.csv"]

    @pytest.mark.parametrize("error, want_errno", [
        (RuntimeError("formatter bug"), None),
        (OSError(errno.ENOSPC, "No space left on device"), errno.ENOSPC),
    ])
    def test_failing_child_leaves_nothing(self, tmp_path, monkeypatch, error,
                                          want_errno):
        _fail_in_children(monkeypatch, error)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 3)
        with pytest.raises(OSError) as info:
            write_csv(_random_log(2 * B + 7), tmp_path / "log.csv")
        assert info.value.errno == want_errno
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_parent_kills_and_reaps_children(self, tmp_path, monkeypatch):
        real = scenario_cli._write_rows

        def write_rows(fh, columns, lo, hi):
            if lo == 0:
                raise OSError(errno.EIO, "parent failed")
            real(fh, columns, lo, hi)

        monkeypatch.setattr(scenario_cli, "_write_rows", write_rows)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 3)
        with pytest.raises(OSError, match="parent failed"):
            write_csv(_random_log(2 * B + 7), tmp_path / "log.csv")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failing_child_is_one_error_line(self, scenario_dir, tmp_path,
                                             monkeypatch, capsys):
        _fail_in_children(monkeypatch, RuntimeError("formatter bug"))
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=8.5"])  # 8501 rows, three blocks
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_no_fork_while_other_threads_run(self, tmp_path, monkeypatch):
        log = _random_log(2 * B + 7)
        write_csv(log, tmp_path / "want.csv")

        def no_fork():
            raise AssertionError("forked with another thread alive")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            write_csv(log, tmp_path / "log.csv")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_no_fork_available(self, tmp_path, monkeypatch):
        log = _random_log(2 * B + 7)
        write_csv(log, tmp_path / "want.csv")
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 4)
        write_csv(log, tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
