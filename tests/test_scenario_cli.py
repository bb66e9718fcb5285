import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heolsim
from heolsim import scenario_cli, sim_engine
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
from heolsim.sim_engine import _COLUMNS, NonFiniteState, RunLog


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
        raw["duration"] = "60.0"
        raw["heol.dt"] = "0.001"   # derived, never set
        with pytest.raises(ConfigError, match="heol.dt cannot be set"):
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

    def test_horizon_just_over_whole_periods_warms(self, scenario_dir, tmp_path):
        # 10.0000005 s is within 1e-6 controller periods of 10, so the grid
        # treats it as 10 whole periods; the estimator must go live as with
        # heol.T = 10 instead of staying off for the whole run.
        metrics = {}
        for horizon in ("10", "10.0000005"):
            out = tmp_path / horizon
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                            "--set", "dt_plant=0.01", "--set", "control_decimation=100",
                            "--set", f"heol.T={horizon}", "--set", "duration=40",
                            "--set", "wind.fy=-5"]) == 0
            metrics[horizon] = json.loads((out / "metrics.json").read_text())
        whole, near = metrics["10"], metrics["10.0000005"]
        assert whole["F_hat_y_mean"] == pytest.approx(-5.85, abs=0.01)
        assert near["convergence_time"] == whole["convergence_time"]
        for key in ("rms_error_x", "rms_error_y", "F_hat_x_mean", "F_hat_y_mean"):
            assert near[key] == pytest.approx(whole[key], rel=1e-6, abs=0.0)

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

    @pytest.mark.parametrize("assignment, message", [
        ("duration=0.0005", "duration 0.0005 is not positive or shorter than half a"),
        ("convergence_threshold=-1", "convergence threshold must be positive"),
        ("convergence_threshold=0", "convergence threshold must be positive"),
    ])
    def test_run_without_steps_or_threshold_is_config_error(
        self, scenario_dir, tmp_path, capsys, assignment, message
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "duration=0.5",
                            "--set", assignment])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert caught == []
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
        "initial.x=-inf", pytest.param("control_decimation=" + "9" * 400, id="control_decimation=9e399"),
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


# Values that no key accepts: non-finite, unparsable or empty.
_NEVER_VALID = ["nan", "-nan", "inf", "-inf", "1e999", "abc", "1,5", "0x10", ""]
_ANY_NUMBER = st.one_of(
    st.sampled_from(_NEVER_VALID + ["0", "-0.0", "-1", "1e300", "-1e308",
                                    "1.7976931348623157e308", "5e-324"]),
    st.floats(-1e6, 1e6).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
# duration, dt_plant and heol.T are drawn only from values that are
# rejected, or that give at most 2,000 plant steps and 2,000-sample windows
# with the other two valid: a run never allocates a large log or window.
_SIZE_VALUES = {
    "duration": st.one_of(
        st.sampled_from(_NEVER_VALID + ["0", "-1", "1e-300", "1e12", "1e300"]),
        st.floats(1e-3, 2.0).map(repr),
    ),
    "dt_plant": st.one_of(
        st.sampled_from(_NEVER_VALID + ["0", "-1e-3", "1e-300", "1e300"]),
        st.floats(1e-3, 0.05).map(repr),
    ),
    "heol.T": st.one_of(
        st.sampled_from(_NEVER_VALID + ["0", "-0.5", "1e12", "1e300"]),
        st.floats(1e-3, 2.0).map(repr),
    ),
}
_KEY_VALUES = {
    "model.kind": st.sampled_from(["hovercraft", "surface_vessel", "boat"]),
    "trajectory.variant": st.sampled_from(["line", "circle", "spiral"]),
    "heol.variant": st.sampled_from(["with_derivative", "riachy", "pid"]),
    "control_decimation": st.one_of(
        st.sampled_from(_NEVER_VALID + ["1.5", "1e3", "10" * 200]),
        st.integers(-5, 50).map(str),
    ),
    **_SIZE_VALUES,
}
_FUZZ_KEYS = sorted(
    set().union(*(parse_config_text(t) for t in BUILTIN_SCENARIOS.values()))
    | {"heol.dt"}
)


@st.composite
def _overrides(draw):
    """A ``--set`` list: a duration first, then keys of either scenario."""
    pairs = [("duration", draw(_SIZE_VALUES["duration"]))]
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=6)):
        pairs.append((key, draw(_KEY_VALUES.get(key, _ANY_NUMBER))))
    return [f"{key}={value}" for key, value in pairs]


class TestOverrideFuzz:
    """Random ``--set`` overrides end in exit 0, a one-line config error
    (exit 1) or a reported divergence (exit 2), never in an exception or
    a warning."""

    @settings(max_examples=80, deadline=None)
    @given(scenario=st.sampled_from(sorted(BUILTIN_SCENARIOS)), sets=_overrides())
    def test_overrides_never_escape(self, scenario, sets):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / f"{scenario}.cfg"
            config.write_text(BUILTIN_SCENARIOS[scenario])
            args = ["run", str(config), str(Path(tmp) / "out")]
            for assignment in sets:
                args += ["--set", assignment]
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(args)
        assert caught == []
        assert code in (0, 1, 2)
        if code == 0:
            assert out.getvalue().startswith("rms_error_x=")
            return
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        if code == 2:
            assert err.getvalue().startswith("error: simulation diverged")
            raw = parse_config_text(BUILTIN_SCENARIOS[scenario])
            for assignment in sets:
                apply_override(raw, assignment)
            build_scenario(raw)   # the config itself was valid


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


def _run_log(scenario_dir, duration):
    """Log of a ``hovercraft_line`` run, simulated without a stream."""
    raw = parse_config_text((scenario_dir / "hovercraft_line.cfg").read_text())
    apply_override(raw, f"duration={duration}")
    cfg, _ = build_scenario(raw)
    return sim_engine.run_scenario(cfg)[0]


def _ranges_formatted_here(monkeypatch):
    """Record the row ranges this process formats, not its children."""
    real = scenario_cli._write_rows
    pid = os.getpid()
    ranges = []

    def write_rows(fh, columns, lo, hi):
        if os.getpid() == pid:
            ranges.append((lo, hi))
        real(fh, columns, lo, hi)

    monkeypatch.setattr(scenario_cli, "_write_rows", write_rows)
    return ranges


def _count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestStreamedCsvWriter:
    """``log.csv`` formatted by a forked formatter while the run goes on."""

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 7])
    def test_streamed_bytes_match_write_csv(self, tmp_path, monkeypatch, rows):
        want = _random_log(rows)
        write_csv(want, tmp_path / "want.csv")
        path = tmp_path / "out" / "log.csv"
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        forks = _count_forks(monkeypatch)
        here = _ranges_formatted_here(monkeypatch)
        with scenario_cli._csv_beside_run(path) as stream:
            data = stream.matrix(rows)
            for i, name in enumerate(_COLUMNS):
                data[:, i] = getattr(want, name)
            for hi in range(B, rows + B, B):
                stream.finished(min(hi, rows))
            write_csv(RunLog._from_matrix(data, []), path)
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert len(forks) == 1
        assert here == [(rows, rows)]   # the formatter wrote every row
        assert [p.name for p in path.parent.iterdir()] == ["log.csv"]
        assert _no_child_left()

    def test_run_streams_the_same_bytes(self, scenario_dir, tmp_path, monkeypatch):
        write_csv(_run_log(scenario_dir, 12), tmp_path / "want.csv")
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        forks = _count_forks(monkeypatch)
        here = _ranges_formatted_here(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=12"]) == 0
        assert (out / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert len(forks) == 1
        assert here == [(12001, 12001)]
        assert _no_child_left()

    def test_rows_the_formatter_was_not_told_of_are_split(
        self, scenario_dir, tmp_path, monkeypatch
    ):
        # Hold the formatter back at two blocks: write_csv formats the last
        # 2B + 3 rows itself and in a forked child, as without a stream.
        write_csv(_run_log(scenario_dir, 16.5), tmp_path / "want.csv")
        real = scenario_cli._CsvStream.finished

        def finished(self, rows):
            if rows <= 2 * B:
                real(self, rows)

        monkeypatch.setattr(scenario_cli._CsvStream, "finished", finished)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        forks = _count_forks(monkeypatch)
        here = _ranges_formatted_here(monkeypatch)
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=16.5"]) == 0   # 16501 rows
        assert (out / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert len(forks) == 2
        assert here == [(2 * B, 3 * B)]
        assert [p.name for p in out.iterdir() if "log.csv" in p.name] == ["log.csv"]
        assert _no_child_left()

    @pytest.mark.parametrize("error, code", [
        (NonFiniteState("non-finite state component"), 2),
        (OSError(errno.EIO, "input/output error"), 1),
        (KeyboardInterrupt(), None),
    ])
    def test_failed_run_leaves_nothing(self, scenario_dir, tmp_path, monkeypatch,
                                       capsys, error, code):
        real = sim_engine.rk4_step
        steps = []

        def rk4_step(deriv_fn, state, dt):
            steps.append(1)
            if len(steps) == 2 * B + 100:
                raise error
            return real(deriv_fn, state, dt)

        monkeypatch.setattr(sim_engine, "rk4_step", rk4_step)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        forks = _count_forks(monkeypatch)
        out = tmp_path / "deep" / "out"
        args = ["run", scenario_dir / "hovercraft_line.cfg", out, "--set", "duration=12"]
        if code is None:
            with pytest.raises(KeyboardInterrupt):
                run_cli(args)
        else:
            assert run_cli(args) == code
            assert capsys.readouterr().err.count("\n") == 1
        assert len(forks) == 1   # the formatter was live
        assert not (tmp_path / "deep").exists()
        assert _no_child_left()

    def test_failing_formatter_is_one_error_line(self, scenario_dir, tmp_path,
                                                 monkeypatch, capsys):
        real = scenario_cli._write_rows
        pid = os.getpid()

        def write_rows(fh, columns, lo, hi):
            if os.getpid() != pid and hi > B:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(fh, columns, lo, hi)

        monkeypatch.setattr(scenario_cli, "_write_rows", write_rows)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        forks = _count_forks(monkeypatch)
        out = tmp_path / "out"
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=30"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 28] No space left on device: ")
        assert err.count("\n") == 1
        assert len(forks) == 1
        assert list(out.iterdir()) == []
        assert _no_child_left()

    def test_no_fork_while_other_threads_run(self, scenario_dir, tmp_path,
                                             monkeypatch):
        write_csv(_run_log(scenario_dir, 9), tmp_path / "want.csv")

        def no_fork():
            raise AssertionError("forked with another thread alive")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "duration=9"])
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert code == 0
        assert ((tmp_path / "out" / "log.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_one_cpu_formats_after_the_run(self, scenario_dir, tmp_path,
                                           monkeypatch):
        write_csv(_run_log(scenario_dir, 9), tmp_path / "want.csv")
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 1)
        forks = _count_forks(monkeypatch)
        here = _ranges_formatted_here(monkeypatch)
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "duration=9"]) == 0
        assert ((tmp_path / "out" / "log.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())
        assert forks == []
        assert here == [(0, 9001)]
