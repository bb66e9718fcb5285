import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import mmap
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heolsim
from heolsim import csv_text, scenario_cli, sim_engine
from heolsim.heading_autopilot import AutopilotGains
from heolsim.heol_control import HeolConfig
from heolsim.reference_trajectory import TrajectorySpec
from heolsim.scenario_cli import (
    _KEYS,
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
from heolsim.sim_engine import (
    _COLUMNS,
    _LOG_BLOCK_ROWS,
    _ROW,
    NonFiniteState,
    RunLog,
    RunMetrics,
    run_scenario,
)
from heolsim.svgplot import Series, render_plot
from heolsim.vessel_dynamics import InertialForce, VesselState
from scenarios import COMPARISON, builtin


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scenarios"
    assert main(["emit-scenarios", str(out)]) == 0
    return out


def run_cli(args):
    return main([str(a) for a in args])


def _child_env(**extra):
    """The environment, with ``extra`` on top, of a child interpreter that
    imports heolsim from where this process found it, installed or not."""
    src = os.path.dirname(os.path.dirname(heolsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestConfigParsing:
    def test_parse_key_values_comments_blanks(self):
        text = "# header\nfoo.bar = 1.5\n\nbaz=2 # trailing\n"
        assert parse_config_text(text) == {"foo.bar": "1.5", "baz": "2"}

    # A missing "=", an empty key and an empty value, each one error line
    # of the same shape, from a config line and from --set alike.
    _NOT_ASSIGNMENTS = ["just words", "= 3", "a =", " = "]

    def test_parse_rejects_garbage(self):
        for line in self._NOT_ASSIGNMENTS:
            with pytest.raises(ConfigError) as info:
                parse_config_text(f"# comment\n{line}  # trailing\n", origin="run.cfg")
            assert str(info.value) == f"run.cfg:2: expected 'key = value', got {line.strip()!r}"
        with pytest.raises(ConfigError, match="^<config>:2: duplicate key 'a'$"):
            parse_config_text("a = 1\na = 2\n")

    def test_override_parsing(self):
        raw = {"a": "1"}
        apply_override(raw, "b.c=2.5")
        apply_override(raw, " a = 3 ")
        assert raw == {"a": "3", "b.c": "2.5"}
        for assignment in ["novalue", *self._NOT_ASSIGNMENTS]:
            with pytest.raises(ConfigError) as info:
                apply_override(raw, assignment)
            assert str(info.value) == f"--set: expected 'key = value', got {assignment!r}"
        assert raw == {"a": "3", "b.c": "2.5"}

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
        assert "controller_beta" not in raw
        cfg, resolved = build_scenario(raw)
        assert resolved["controller_beta"] == 10.0  # smaller damping rate
        assert resolved["controller_beta"] == resolved["model.beta_u"]
        assert resolved["heol.dt"] == pytest.approx(1e-3)
        assert cfg.controller_beta == 10.0
        raw["controller_beta"] = "12.5"  # an explicit value still wins
        cfg, resolved = build_scenario(raw)
        assert resolved["controller_beta"] == 12.5
        assert cfg.controller_beta == 12.5

    def test_hash_changes_with_any_key(self):
        raw = parse_config_text(BUILTIN_SCENARIOS["hovercraft_line"])
        _, resolved_a = build_scenario(raw)
        raw["wind.fy"] = "0.0"
        _, resolved_b = build_scenario(raw)
        assert config_hash(resolved_a) != config_hash(resolved_b)
        assert config_hash(resolved_a) == config_hash(dict(resolved_a))

    @pytest.mark.parametrize("prefix, cls", [
        ("heol", HeolConfig), ("autopilot", AutopilotGains),
        ("wind", InertialForce), ("initial", VesselState),
        ("trajectory", TrajectorySpec),
    ])
    def test_key_group_names_its_dataclass_fields(self, prefix, cls):
        # build_scenario passes each of these groups straight to its class.
        group = {key.partition(".")[2] for key in _KEYS
                 if key.partition(".")[0] == prefix}
        assert group == {f.name for f in dataclasses.fields(cls)}


def _resolved_file(path):
    return build_scenario(parse_config_text(path.read_text()))[1]


class TestEmitScenarios:
    def test_writes_both_files(self, scenario_dir):
        names = sorted(p.name for p in scenario_dir.iterdir())
        assert names == ["hovercraft_line.cfg", "otter_circle.cfg"]

    # The emitted files list only what differs from the defaults, so their
    # values are read from the resolved mapping.
    def test_line_scenario_values(self, scenario_dir):
        resolved = _resolved_file(scenario_dir / "hovercraft_line.cfg")
        assert resolved["model.beta"] == 10.0
        assert resolved["wind.fy"] == -50.0
        assert resolved["initial.y"] == 10.0
        assert resolved["trajectory.speed"] == 2.0

    def test_circle_scenario_values(self, scenario_dir):
        resolved = _resolved_file(scenario_dir / "otter_circle.cfg")
        assert resolved["model.a"] == 0.58
        assert resolved["model.b"] == -1.72
        assert resolved["model.beta_u"] == 10.0
        assert resolved["model.beta_v"] == 15.0
        assert resolved["controller_beta"] == 10.0
        # 15 m offset from the circle start point (radius, 0)
        assert resolved["initial.x"] - resolved["trajectory.radius"] == 15.0
        assert resolved["wind.fy"] == -50.0

    def test_builtins_are_pinned_and_list_only_differences(self):
        hashes = {
            "hovercraft_line":
                "0b13d0ee0128c8ec180410b459feb0551406871720dabfa4c2a7db8ecfb500b5",
            "otter_circle":
                "613f447d775cbaf55744dc0761853b5e72295fc4d0573d32b2580d72108bd1a1",
        }
        assert sorted(hashes) == sorted(BUILTIN_SCENARIOS)
        for name, text in BUILTIN_SCENARIOS.items():
            raw = parse_config_text(text)
            resolved = build_scenario(raw)[1]
            assert config_hash(resolved) == hashes[name]
            for key in raw:
                # Without the key the text resolves differently, or not at
                # all (the shape keys): no listed key restates a default.
                rest = {k: v for k, v in raw.items() if k != key}
                try:
                    assert build_scenario(rest)[1] != resolved, (name, key)
                except ConfigError:
                    pass

    @pytest.mark.parametrize("name, switch", [
        ("hovercraft_line", "trajectory.variant=circle"),
        ("hovercraft_line", "model.kind=surface_vessel"),
        ("otter_circle", "trajectory.variant=line"),
    ])
    def test_set_switches_a_builtins_shape(self, scenario_dir, tmp_path, name, switch):
        out = tmp_path / "out"
        code = run_cli(["run", scenario_dir / f"{name}.cfg", out,
                        "--set", switch, "--set", "duration=1"])
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        key, _, value = switch.partition("=")
        assert payload["resolved_config"][key] == value

    def test_switch_names_only_the_keys_that_differ(self, scenario_dir, tmp_path, capsys):
        code = run_cli(["run", scenario_dir / "otter_circle.cfg", tmp_path / "out",
                        "--set", "model.kind=hovercraft", "--set", "duration=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: unknown config key(s) for this model/trajectory "
                       "shape: model.a, model.b, model.beta_v\n")

    def test_builtin_texts_build(self):
        for name, text in BUILTIN_SCENARIOS.items():
            cfg, _ = build_scenario(parse_config_text(text))
            assert cfg.duration > 0


# The CLI's exit contract for bad input, one row per case: the config file
# (a built-in's text, these bytes, or None for no file), the --set values
# (space-separated), the exit code, and the start of the one stderr line,
# where {config} is the config file's path and {out} the output
# directory's.  A row that ends in "\n" is the whole line.  A row of five
# also gives the number of usable CPUs the run sees, and runs with a
# regular file in the way of its output directory.
_EXIT_CONTRACT = {
    "missing_config": (None, "", 1, "error: cannot read config file {config}: "
                       "[Errno 2] No such file or directory"),
    "non_utf8_config": (b"wind.fy = -50\xff\n", "", 1,
                        "error: cannot read config file {config}: "),
    "unknown_key": ("hovercraft_line", "wimd.fy=0", 1,
                    "error: unknown config key(s) for this model/trajectory shape: "
                    "wimd.fy\n"),
    "blowup": ("hovercraft_line", "wind.fy=-1e308 duration=0.05", 2,
               "error: simulation diverged at t=0.0 (step 0): "),
    # The state grows to about 1e306 but stays finite; its square does not.
    "overflowing_metric": ("hovercraft_line", "wind.fy=-1e306 duration=1", 2,
                           "error: simulation diverged: metric rms_error_"),
    "duration=1e12": ("hovercraft_line", "duration=1e12", 1,
                      "error: duration / dt_plant gives "),
    "dt_plant=1e-300": ("hovercraft_line", "dt_plant=1e-300 duration=1", 1,
                        "error: duration / dt_plant gives "),
    "duration=0.0005": ("hovercraft_line", "duration=0.5 duration=0.0005", 1,
                        "error: duration 0.0005 is not positive or shorter than half a"),
    "convergence_threshold=-1": ("hovercraft_line", "duration=0.5 convergence_threshold=-1",
                                 1, "error: convergence threshold must be positive"),
    "convergence_threshold=0": ("hovercraft_line", "duration=0.5 convergence_threshold=0",
                                1, "error: convergence threshold must be positive"),
    "heol.T=1e12": ("hovercraft_line", "heol.T=1e12 duration=1", 1,
                    "error: heol.T / controller period gives "),
    "circle_acceleration": ("hovercraft_line", "trajectory.variant=circle duration=1 "
                            "trajectory.radius=1e-320 trajectory.angular_rate=1e155", 1,
                            "error: circle phase, center and radius * angular_rate**2 "
                            "must be finite"),
    "horizon_1e-70": ("hovercraft_line", "heol.T=1e-70 dt_plant=1e-71 duration=1e-70", 1,
                      "error: estimation horizon 1e-70 is out of range"),
    "horizon_1e62": ("hovercraft_line", "heol.T=1e62 dt_plant=1e61 duration=1e62 "
                     "trajectory.speed=0", 1, "error: estimation horizon 1e+62 is out of range"),
    "horizon_1e-62": ("hovercraft_line", "heol.T=1e-62 dt_plant=1e-63 duration=2e-62", 1,
                      "error: estimation horizon 1e-62 is out of range"),
    "horizon_under_ten_periods": ("hovercraft_line", "heol.T=0.05 control_decimation=10", 1,
                                  "error: estimation horizon heol.T must span at least 10 "
                                  "controller periods"),
    # The ten-period rule is the quadrature's floor, not a stability bound:
    # 50 full-rate periods pass it, and the cascade still diverges.
    "horizon_of_fifty_periods": ("hovercraft_line", "heol.T=0.05 duration=30", 2,
                                 "error: simulation diverged at t=29.053 (step 29053): "),
    "heol.Kp=nan": ("hovercraft_line", "duration=0.5 heol.Kp=nan", 1,
                    "error: key 'heol.Kp': must be finite\n"),
    "duration=nan": ("hovercraft_line", "duration=0.5 duration=nan", 1,
                     "error: key 'duration': must be finite\n"),
    "wind.fy=inf": ("hovercraft_line", "duration=0.5 wind.fy=inf", 1,
                    "error: key 'wind.fy': must be finite\n"),
    "convergence_threshold=nan": ("hovercraft_line", "duration=0.5 convergence_threshold=nan",
                                  1, "error: key 'convergence_threshold': must be finite\n"),
    "initial.x=-inf": ("hovercraft_line", "duration=0.5 initial.x=-inf", 1,
                       "error: key 'initial.x': must be finite\n"),
    "control_decimation=9e399": ("hovercraft_line",
                                 "duration=0.5 control_decimation=" + "9" * 400, 1,
                                 "error: key 'control_decimation': must be finite\n"),
    "trajectory.speed=1e300": ("hovercraft_line", "duration=0.5 trajectory.speed=1e300", 1,
                               "error: key 'trajectory.speed': |speed| * duration is 5e+299, "
                               "above the 1e+100 cap on positions and speeds"),
    "initial.u=1e200": ("hovercraft_line", "duration=0.5 initial.u=1e200", 1,
                        "error: key 'initial.u': |initial.u| is 1e+200, above"),
    "initial.x=-2e100": ("hovercraft_line", "duration=0.5 initial.x=-2e100", 1,
                         "error: key 'initial.x': |initial.x| is 2e+100"),
    "initial.y=1e101": ("hovercraft_line", "duration=0.5 initial.y=1e101", 1,
                        "error: key 'initial.y': |initial.y| is 1e+101"),
    "initial.v=-max": ("hovercraft_line", "duration=0.5 initial.v=-1.7976931348623157e308", 1,
                       "error: key 'initial.v': |initial.v| is 1.798e+308"),
    "trajectory.speed=3e100": ("hovercraft_line", "duration=0.5 trajectory.speed=3e100", 1,
                               "error: key 'trajectory.speed': |speed| * duration is 1.5e+100"),
    "trajectory.radius=1e101": ("otter_circle", "duration=0.5 trajectory.radius=1e101", 1,
                                "error: key 'trajectory.radius': radius is 1e+101"),
    "trajectory.center_x=-2e100": ("otter_circle", "duration=0.5 trajectory.center_x=-2e100",
                                   1, "error: key 'trajectory.center_x': |center_x| + radius "
                                   "is 2e+100"),
    "trajectory.center_y=6e99": ("otter_circle", "duration=0.5 trajectory.radius=6e99 "
                                 "trajectory.center_y=6e99", 1,
                                 "error: key 'trajectory.center_y': |center_y| + radius "
                                 "is 1.2e+100"),
    "trajectory.angular_rate=-1e60": ("otter_circle", "duration=0.5 trajectory.radius=1e50 "
                                      "trajectory.angular_rate=-1e60", 1,
                                      "error: key 'trajectory.angular_rate': "
                                      "radius * |angular_rate| is 1e+110"),
    # Just above the angle cap: the next double after 1e6.
    "line_initial.psi=1e6+": ("hovercraft_line", "duration=0.5 initial.psi=1000000.0000000001",
                              1, "error: key 'initial.psi': |initial.psi| is "
                              "1000000.0000000001, above the 1e+06 cap on angles\n"),
    "circle_initial.psi=-1e6-": ("otter_circle", "duration=0.5 initial.psi=-1000000.0000000001",
                                 1, "error: key 'initial.psi': |initial.psi| is "
                                 "1000000.0000000001, above"),
    "trajectory.phase=-1e6-": ("otter_circle", "duration=0.5 trajectory.phase=-1000000.0000000001",
                               1, "error: key 'trajectory.phase': |trajectory.phase| is "
                               "1000000.0000000001, above the 1e+06 cap on angles\n"),
    # Fails before the run and names the log's path, whether the log is
    # streamed beside the run (two CPUs) or formatted after it (one CPU).
    "file_in_the_way_streamed": ("hovercraft_line", "duration=1", 1,
                                 "error: [Errno 20] Not a directory: '{out}/log.csv'\n", 2),
    "file_in_the_way_after_the_run": ("hovercraft_line", "duration=1", 1,
                                      "error: [Errno 20] Not a directory: '{out}/log.csv'\n",
                                      1),
}


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_take_the_umask(self, tmp_path, monkeypatch, umask, mode):
        # As open() would make them: 0666 less the umask, on the streamed
        # (two CPUs) and the in-process (one CPU) log.csv path alike.
        saved = os.umask(umask)
        try:
            assert main(["emit-scenarios", str(tmp_path / "cfg")]) == 0
            for cpus, fork_count in ((2, 1), (1, 0)):
                monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: cpus)
                forks = _count_forks(monkeypatch)
                out = tmp_path / f"out{cpus}"
                assert run_cli(["run", tmp_path / "cfg" / "hovercraft_line.cfg",
                                out, "--set", "duration=0.5"]) == 0
                assert len(forks) == fork_count
                modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
                assert modes == {
                    name: mode for name in (
                        "errors_vs_time.svg", "estimates_vs_time.svg",
                        "log.csv", "metrics.json", "trajectory_xy.svg")
                }
        finally:
            os.umask(saved)
        cfg_modes = {p.stat().st_mode & 0o777 for p in (tmp_path / "cfg").iterdir()}
        assert cfg_modes == {mode}

    def test_metrics_payload(self, scenario_dir, tmp_path, capsys):
        # RunMetrics is the schema of metrics.json and of the stdout line;
        # 2 s never converges, 10 s does.
        names = [f.name for f in dataclasses.fields(RunMetrics)]
        convergence = []
        for duration in (2.0, 10.0):
            out = tmp_path / f"out{duration}"
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                            "--set", f"duration={duration}",
                            "--set", "wind.fy=-10.0"]) == 0
            payload = json.loads((out / "metrics.json").read_text())
            assert sorted(payload) == sorted(
                [*names, "tool_version", "config_hash", "resolved_config"])
            assert payload["resolved_config"]["wind.fy"] == -10.0
            assert payload["resolved_config"]["duration"] == duration
            assert payload["config_hash"] == config_hash(payload["resolved_config"])
            text = {k: "none" if payload[k] is None else f"{payload[k]:.6g}"
                    for k in names}
            assert capsys.readouterr().out == (
                f"rms_error_x={text['rms_error_x']} "
                f"rms_error_y={text['rms_error_y']} "
                f"convergence_time={text['convergence_time']} "
                f"F_hat_x_mean={text['F_hat_x_mean']} "
                f"F_hat_y_mean={text['F_hat_y_mean']}\n"
            )
            convergence.append(payload["convergence_time"])
        assert convergence[0] is None and convergence[1] > 0.0

    @pytest.mark.parametrize("row", _EXIT_CONTRACT.values(), ids=_EXIT_CONTRACT)
    def test_bad_input_is_one_error_line(self, tmp_path, monkeypatch, row):
        config, sets, code, message, *cpus = row
        path = tmp_path / "run.cfg"
        if config is not None:
            path.write_bytes(BUILTIN_SCENARIOS[config].encode()
                             if isinstance(config, str) else config)
        out = tmp_path / "out"
        if cpus:
            monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: cpus[0])
            (tmp_path / "file").write_text("kept")
            out = tmp_path / "file" / "out"
        got, err = _run_escapes_nothing(
            ["run", str(path), str(out), *(a for s in sets.split() for a in ("--set", s))])
        assert got == code
        assert err.startswith(message.format(config=path, out=out))
        assert "None" not in err   # no metric or value reads as None

        assert not out.exists()

    def test_controller_period_has_one_value(self, scenario_dir, tmp_path,
                                             monkeypatch):
        # dt_ctrl is the window's step and the echoed heol.dt, bit for bit,
        # at a decimation whose product is not the decimal 0.009.
        sets = {"duration": 1, "control_decimation": 9}
        dt_ctrl = builtin("otter_circle", **sets).dt_ctrl
        assert dt_ctrl == 0.001 * 9 != 0.009
        windows = []

        class Window(sim_engine.SampleWindow):
            def __init__(self, T, dt):
                super().__init__(T, dt)
                windows.append(self)

        monkeypatch.setattr(sim_engine, "SampleWindow", Window)
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "otter_circle.cfg", out,
                        *(a for k, v in sets.items() for a in ("--set", f"{k}={v}"))]) == 0
        echoed = json.loads((out / "metrics.json").read_text())["resolved_config"]
        assert [w.dt.hex() for w in windows] == [dt_ctrl.hex()]
        assert echoed["heol.dt"].hex() == dt_ctrl.hex()

    def test_horizon_of_fifty_full_rate_periods_runs(self, scenario_dir, tmp_path):
        # 0.05 s spans 50 periods of the full control rate.  (Over 30 s this
        # short horizon lets the cascade diverge: see the
        # horizon_of_fifty_periods row of _EXIT_CONTRACT.)
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", tmp_path / "ok",
                        "--set", "heol.T=0.05", "--set", "duration=2"]) == 0
        assert json.loads((tmp_path / "ok" / "metrics.json").read_text())[
            "resolved_config"]["heol.T"] == 0.05

    def test_leading_bom_is_skipped(self, scenario_dir, tmp_path, capsys):
        # Some editors save UTF-8 with a byte-order mark; only a leading
        # one is skipped, so one inside the file still spoils its key.
        plain = scenario_dir / "hovercraft_line.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for config in (plain, bom):
            out = tmp_path / config.stem
            assert run_cli(["run", config, out, "--set", "duration=1"]) == 0
            outputs.append((capsys.readouterr(), (out / "metrics.json").read_bytes()))
        assert outputs[0] == outputs[1]
        inner = tmp_path / "inner.cfg"
        inner.write_bytes(b"wind.fy = -50\n\xef\xbb\xbfinitial.y = 10\n")
        assert run_cli(["run", inner, tmp_path / "inner"]) == 1
        assert capsys.readouterr().err.startswith("error: unknown config key(s)")

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

    @pytest.mark.parametrize("overrides, note", [
        (["duration=1"], "1001 tick(s), first at t=0.0, last at t=1.0"),
        # The rows between ticks repeat the tick's F_u = 0; the note counts
        # the 286 ticks of the 2 s run, not its 2001 rows.
        (["duration=2", "control_decimation=7", "heol.variant=riachy"],
         "286 tick(s), first at t=0.0, last at t=1.995"),
    ], ids=["full_rate", "riachy_decim7"])
    def test_fallback_note_gives_count_and_first_and_last_time(
        self, scenario_dir, tmp_path, capsys, overrides, note
    ):
        # Parked on a null line, every tick of the run is singular.
        sets = ["trajectory.speed=0", "wind.fy=0", "initial.y=0", *overrides]
        code = run_cli(["run", scenario_dir / "hovercraft_line.cfg", tmp_path / "out",
                        *(arg for value in sets for arg in ("--set", value))])
        assert code == 0
        assert capsys.readouterr().err == f"note: guidance fallback engaged at {note}\n"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status") or not hasattr(os, "fork"),
                        reason="reads the peak from /proc and streams through a fork")
    def test_fallback_note_holds_nothing_per_tick(self, scenario_dir, tmp_path):
        # Parked on a null line for 100 s, the run falls back at each of its
        # 100,001 ticks, or at a tenth of them with a tick every 10 steps.
        # Its peak memory must not grow with them: holding each tick's time
        # as a Python float added 4.3 MiB.  The child reports VmHWM, its
        # own peak: its ru_maxrss also counts this process's, which it had
        # until it ran exec.
        code = ("import sys; from heolsim import scenario_cli; "
                "scenario_cli._usable_cpus = lambda: 2; "
                "code = scenario_cli.main(sys.argv[1:]); "
                "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); "
                "sys.exit(code)")
        sets = ["trajectory.speed=0", "wind.fy=0", "initial.y=0", "duration=100"]
        peak_kib = {}
        for decimation in (1, 10):
            proc = subprocess.run(
                [sys.executable, "-c", code, "run", str(scenario_dir / "hovercraft_line.cfg"),
                 str(tmp_path / f"out{decimation}"),
                 *(arg for value in [*sets, f"control_decimation={decimation}"]
                   for arg in ("--set", value))],
                capture_output=True, text=True, env=_child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.startswith(
                f"note: guidance fallback engaged at {100_000 // decimation + 1} tick(s)")
            peak_kib[decimation] = int(proc.stdout.splitlines()[-1])
        assert peak_kib[1] - peak_kib[10] < 2048

    @pytest.mark.parametrize("scenario, assignment", [
        ("hovercraft_line", "initial.x=1e100"),
        ("hovercraft_line", "initial.v=-1e100"),
        ("hovercraft_line", "trajectory.speed=2e100"),
        ("otter_circle", "trajectory.center_x=9.99e99"),
        ("hovercraft_line", "initial.psi=-1e6"),
        ("otter_circle", "initial.psi=1e6"),
        ("otter_circle", "trajectory.phase=-1e6"),
    ])
    def test_positions_and_speeds_at_the_cap_run(self, scenario_dir, tmp_path,
                                                 scenario, assignment):
        assert run_cli(["run", scenario_dir / f"{scenario}.cfg", tmp_path / "out",
                        "--set", "duration=0.5", "--set", assignment]) == 0

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert main([]) == 1

    @pytest.mark.parametrize("scenario, digests", [
        ("hovercraft_line", {
            "trajectory_xy.svg": "05c5ea6b585a402a9628e429452ceaa15191e8939ef6c661f76b1cab401d4241",
            "errors_vs_time.svg": "6cb174330a5f25b4f38cad6d4eddb04a84240408a0f5a6d0aac3a0159002d78b",
            "estimates_vs_time.svg": "483316f8fdb115d0770d4cbdf99122d308962e5eb432fa8c1df59dfac438dcbb",
        }),
        ("otter_circle", {
            "trajectory_xy.svg": "660c91f06070f32c9d5cefa982624e3416d8f93e24443c09624564d9d5fea7ee",
            "errors_vs_time.svg": "3d6309695b6e6c08fa6bac934fc45f3f3baa717329edb2ba879d794bfc92a18f",
            "estimates_vs_time.svg": "4a2f22d84947539f7943f0eed1b01f911c21bf0084f637fb91474d157ca8437d",
        }),
    ])
    def test_svg_bytes_are_pinned(self, scenario_dir, tmp_path, scenario, digests):
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / f"{scenario}.cfg", out,
                        "--set", "duration=10"]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_plots_reduce_no_column_outside_the_one_pass(self):
        class Counted(np.ndarray):
            # Records the shape of every ufunc reduction of a view of the
            # log matrix (ndarray.min and np.min end in one); the results
            # are plain arrays.
            reduced = []

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if method == "reduce":
                    Counted.reduced.append(inputs[0].shape)
                inputs = [a.view(np.ndarray) if isinstance(a, Counted) else a
                          for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        # The one pass is made block by block, as the stream folds each
        # block into the run's summary, and the plots read only that.
        cfg = builtin("otter_circle", duration=9)
        plain, _ = run_scenario(cfg)
        rows = len(plain)
        resolved = {"wind.fx": cfg.wind.fx, "wind.fy": cfg.wind.fy}
        counted = RunLog(plain.data.view(Counted))
        for lo in range(0, rows, _LOG_BLOCK_ROWS):
            scenario_cli._column_ranges(counted.data[lo:lo + _LOG_BLOCK_ROWS])
        one_pass = Counted.reduced[:]
        Counted.reduced.clear()
        plots = scenario_cli._render_plots(_summary_of(counted.data, 1), resolved)
        assert Counted.reduced == one_pass
        assert all(rows not in shape for shape in one_pass)
        assert plots == scenario_cli._render_plots(_summary_of(plain.data, 1), resolved)

    def test_a_zero_range_end_has_no_sign_in_the_plot(self):
        series = [Series("a", np.array([0.0, 2.0]), np.array([-0.0, 0.0]), "black")]
        for hi in (0.0, 1e-13, 2.0):
            assert (render_plot("title", "t", "y", series, (-0.0, hi), (-0.0, hi))
                    == render_plot("title", "t", "y", series, (0.0, hi), (0.0, hi)))

    def test_render_plot_draws_every_point_it_is_given(self):
        # The plots' grid is the log summary's alone.
        t = np.linspace(0.0, 1.0, 5000)
        series = [Series("a", t, np.sin(7.0 * t), "black"),
                  Series("b", t[[0, -1]], np.zeros(2), "gray", dashed=True)]
        svg = render_plot("title", "t", "y", series, (0.0, 1.0), (-1.0, 1.0))
        pairs = [points.partition('"')[0].split() for points in svg.split(' points="')[1:]]
        assert [len(p) for p in pairs] == [5000, 2]
        assert all(pair.count(",") == 1 for p in pairs for pair in p)

    def test_import_loads_neither_the_formatter_nor_secrets(self):
        # Only a process that formats rows loads csv_text: with a streamed
        # log, the forked formatter alone.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, heolsim.scenario_cli; "
             "print(sorted({'heolsim.csv_text', 'secrets'} & set(sys.modules)))"],
            capture_output=True, text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_entry_point(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "heolsim", "run",
             str(scenario_dir / "hovercraft_line.cfg"), str(out),
             "--set", "duration=0.5"],
            capture_output=True, text=True,
            env=_child_env(),
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
_FUZZ_KEYS = sorted(set(_KEYS) | {"controller_beta", "heol.dt"})


def _implied_magnitude(resolved):
    """The largest position or speed a resolved config implies."""
    if resolved["trajectory.variant"] == "line":
        reach = [abs(resolved["trajectory.speed"]) * resolved["duration"]]
    else:
        r = resolved["trajectory.radius"]
        reach = [abs(resolved["trajectory.center_x"]) + r,
                 abs(resolved["trajectory.center_y"]) + r,
                 r * abs(resolved["trajectory.angular_rate"])]
    return max(reach + [abs(resolved[f"initial.{k}"]) for k in "xyuv"])


@st.composite
def _overrides(draw):
    """A ``--set`` list: a duration first, then keys of either scenario."""
    pairs = [("duration", draw(_SIZE_VALUES["duration"]))]
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=6)):
        pairs.append((key, draw(_KEY_VALUES.get(key, _ANY_NUMBER))))
    return [f"{key}={value}" for key, value in pairs]


@st.composite
def _config_bytes(draw):
    """Bytes of a config file: any, or a built-in's text with 1-4 edits,
    each of which replaces, inserts or deletes one byte."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    data = bytearray(BUILTIN_SCENARIOS[draw(st.sampled_from(sorted(BUILTIN_SCENARIOS)))]
                     .encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del data[at]
        else:
            data[at:at + (edit == "replace")] = bytes([draw(st.integers(0, 255))])
    return bytes(data)


def _run_escapes_nothing(args):
    """Run the CLI and return its exit code and stderr, asserting that it
    ended in exit 0, a one-line config error or a reported divergence, with
    no warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    assert caught == []
    assert code in (0, 1, 2)
    if code == 0:
        assert out.getvalue().startswith("rms_error_x=")
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if code == 2:
        assert err.getvalue().startswith("error: simulation diverged")
    return code, err.getvalue()


# Numeric platforms other than the host's, one variable each: OpenBLAS's
# dot kernel for CPUs without AVX-512, and glibc's non-FMA cos and sin.
_OTHER_PLATFORMS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F",
}
# How far a metric may move between numeric platforms, relative.  Over the
# seven comparison configs at 10 s, the worst moves measured on an AVX-512
# host were 1.3e-13 under the Haswell kernel (otter_circle with riachy,
# F_hat_x_mean) and 3.2e-16 under the glibc tunable; the bound leaves a
# factor of 75 for other hosts.  Full-length runs moved by up to 2.2e-11.
_PLATFORM_AGREEMENT = 1e-11
_RUN_MANY = ("import json, sys; from heolsim.scenario_cli import main; "
             "print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))")


def _comparison_runs(scenario_dir, out):
    """``heolsim run`` arguments of the comparison configs over 10 s, each
    into its own directory under ``out``."""
    return [["run", str(scenario_dir / f"{scenario}.cfg"), str(out / config),
             "--set", "duration=10",
             *(a for key, value in overrides.items() for a in ("--set", f"{key}={value}"))]
            for config, (scenario, overrides) in COMPARISON.items()]


class TestPlatformAgreement:
    """The bit pins hold on one numeric platform (``numeric_platform``);
    on others the physics must still agree.  One child process per
    platform variable runs the comparison configs through the CLI, beside
    the same runs in this process: the exit codes and convergence times
    are equal, every other metric within ``_PLATFORM_AGREEMENT``."""

    def test_metrics_agree_across_numeric_platforms(self, scenario_dir, tmp_path):
        with contextlib.ExitStack() as stack:
            children = {
                variable: stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", _RUN_MANY,
                     json.dumps(_comparison_runs(scenario_dir, tmp_path / variable))],
                    env=_child_env(**{variable: value}),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
                for variable, value in _OTHER_PLATFORMS.items()
            }
            here = [main(args) for args in _comparison_runs(scenario_dir, tmp_path / "here")]
            outputs = {variable: child.communicate(timeout=120)
                       for variable, child in children.items()}
        assert here == [0] * len(COMPARISON)
        for variable, (out, err) in outputs.items():
            assert children[variable].returncode == 0, err
            assert json.loads(out.splitlines()[-1]) == here, variable
            for config in COMPARISON:
                want, got = (
                    json.loads((tmp_path / where / config / "metrics.json").read_text())
                    for where in ("here", variable))
                for name in (field.name for field in dataclasses.fields(RunMetrics)):
                    if name == "convergence_time":
                        assert got[name] == want[name], (variable, config)
                    else:
                        assert got[name] == pytest.approx(
                            want[name], rel=_PLATFORM_AGREEMENT, abs=0), (variable, config, name)


class TestOverrideFuzz:
    """Random ``--set`` overrides, or random config file bytes, end in exit
    0, a one-line config error (exit 1) or a reported divergence (exit 2),
    never in an exception or a warning.  A config that implies a position
    or speed above 1e100, or sets an angle above 1e6, is always a config
    error."""

    @settings(max_examples=80, deadline=None)
    @given(scenario=st.sampled_from(sorted(BUILTIN_SCENARIOS)), sets=_overrides())
    def test_overrides_never_escape(self, scenario, sets):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / f"{scenario}.cfg"
            config.write_text(BUILTIN_SCENARIOS[scenario])
            args = ["run", str(config), str(Path(tmp) / "out")]
            for assignment in sets:
                args += ["--set", assignment]
            code, _ = _run_escapes_nothing(args)
        if code != 1:
            # The config itself was valid, its positions and speeds in range.
            raw = parse_config_text(BUILTIN_SCENARIOS[scenario])
            for assignment in sets:
                apply_override(raw, assignment)
            resolved = build_scenario(raw)[1]
            assert _implied_magnitude(resolved) <= 1e100
            assert abs(resolved["initial.psi"]) <= 1e6
            assert abs(resolved.get("trajectory.phase", 0.0)) <= 1e6

    @settings(max_examples=60, deadline=None)
    @given(data=_config_bytes())
    def test_config_bytes_never_escape(self, data):
        # The overrides keep any run to ten plant steps.
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "fuzzed.cfg"
            config.write_bytes(data)
            _run_escapes_nothing([
                "run", str(config), str(Path(tmp) / "out"),
                "--set", "duration=0.01", "--set", "dt_plant=0.001",
                "--set", "control_decimation=1", "--set", "heol.T=0.5",
            ])


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.7976931348623157e308,
                                -1.7976931348623157e308, 1e308, -1e308])


class TestColumnRanges:
    """The one pass over the log matrix gives each column's ``np.min`` and
    ``np.max``, for row counts below, at and above the fold's width."""

    @settings(max_examples=150, deadline=None)
    @given(data=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 300) | st.sampled_from([127, 128, 129, 256, 257]),
                  st.integers(1, 20)),
        elements=_EDGE_FLOATS | st.floats(),
    ))
    def test_matches_per_column_reductions(self, data):
        lo, hi = scenario_cli._column_ranges(data)
        want_lo = [np.min(data[:, j]) for j in range(data.shape[1])]
        want_hi = [np.max(data[:, j]) for j in range(data.shape[1])]
        assert np.array_equal(lo, want_lo, equal_nan=True)
        assert np.array_equal(hi, want_hi, equal_nan=True)


class TestCsvWriter:
    def test_log_schema_lives_in_one_place(self):
        data = _mixed_values(5)
        log = RunLog(data)
        assert log.data is data and len(log) == 5
        for i, name in enumerate(_COLUMNS):
            column = getattr(log, name)
            assert column.base is data
            assert column.__array_interface__ == data[:, i].__array_interface__
        assert CSV_HEADER.split(",") == list(_COLUMNS)
        assert len(_COLUMNS) == 18

    def test_streamed_bytes_match_one_shot_format(self, tmp_path):
        n = 2 * _LOG_BLOCK_ROWS + 7
        data = _mixed_values(n)
        specials = {  # (row, column): value
            (3, 1): -0.0,
            (_LOG_BLOCK_ROWS, 2): 5e-324,
            (_LOG_BLOCK_ROWS - 1, 3): -2.5e-309,
            (n - 1, 4): 1.7976931348623157e308,
            (n - 2, 5): -1e300,
        }
        for pos, value in specials.items():
            data[pos] = value
        write_csv(RunLog(data), tmp_path / "log.csv")
        got = (tmp_path / "log.csv").read_bytes()
        assert got == _csv_bytes(data)
        lines = got.decode().splitlines()
        for (row, col), value in specials.items():
            assert lines[1 + row].split(",")[col] == repr(value)
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]


def _mixed_values(n, seed=11):
    """An ``(n, 18)`` matrix: the even columns in ``repr``'s fixed notation
    (magnitudes 1e-5 to 1e17), the odd ones mostly in exponent notation."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(-300, 300, (n, len(_COLUMNS)))
    exponents[:, ::2] = rng.integers(-5, 17, (n, len(_COLUMNS) // 2))
    return rng.standard_normal((n, len(_COLUMNS))) * 10.0 ** exponents


def _csv_bytes(data):
    """The bytes of ``log.csv`` for the log matrix ``data``: the header,
    then each row's values in ``repr``, comma-separated."""
    return (CSV_HEADER + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in data.tolist())).encode()


def _summary_of(data, decimation, ends=None):
    """The stream's summary of the log matrix ``data`` with a tick every
    ``decimation`` rows, folded in at each row count of ``ends``; by
    default at the end of each of the engine's blocks."""
    rows = len(data)
    summary = scenario_cli._LogSummary(rows, decimation)
    for end in ends or range(_LOG_BLOCK_ROWS, rows + _LOG_BLOCK_ROWS, _LOG_BLOCK_ROWS):
        summary.fold(data, min(end, rows))
    return summary


class TestLogSummary:
    """Folded in at any row counts, the summary reads as the whole log
    does: each column's ``_column_ranges``, the rows the plots draw (every
    stride-th row from the first, and the last, fewer than twice the point
    budget), and the count and the first and last time of the tick rows
    whose ``F_u`` is ``0.0``."""

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 9000) | st.sampled_from([1999, 2000, 2001, 3999, 4000,
                                                        4001, 6000, 6001]),
           decimation=st.integers(1, 12), data=st.data())
    def test_folds_as_the_whole_log_reads(self, rows, decimation, data):
        matrix = _mixed_values(rows, seed=data.draw(st.integers(0, 2**32 - 1)))
        f_u = _COLUMNS.index("F_u")
        matrix[:, 0] = np.arange(rows) * 1e-3
        zeros = data.draw(st.lists(st.integers(0, rows - 1), max_size=20))
        matrix[zeros, f_u] = 0.0
        if data.draw(st.booleans()):
            matrix[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(1, 17))] = math.nan
        ends = sorted(data.draw(st.sets(st.integers(1, rows), max_size=6)) | {rows})
        summary = _summary_of(matrix, decimation, ends)
        lo, hi = scenario_cli._column_ranges(matrix)
        assert np.array_equal(summary.lo, lo, equal_nan=True)
        assert np.array_equal(summary.hi, hi, equal_nan=True)
        budget = scenario_cli._PLOT_POINTS
        stride = max(1, rows // budget)
        on_grid = list(range(0, rows, stride))
        if on_grid[-1] != rows - 1:
            on_grid.append(rows - 1)
        assert np.array_equal(summary.points.data, matrix[on_grid], equal_nan=True)
        assert len(on_grid) < 2 * budget
        ticks = matrix[::decimation]
        times = ticks[ticks[:, f_u] == 0.0, 0].tolist()
        assert (summary.fallbacks, summary.first_fallback, summary.last_fallback) == (
            len(times), times[0] if times else None, times[-1] if times else None)


B = _LOG_BLOCK_ROWS


class TestCsvFailure:
    """A writer that fails leaves no temp file and raises its error, an
    ``OSError`` naming the output, not the temp file."""

    @pytest.mark.parametrize("error", [
        RuntimeError("formatter bug"),
        OSError(errno.ENOSPC, "No space left on device"),
    ])
    def test_failing_writer_leaves_nothing(self, tmp_path, monkeypatch, error):
        real = csv_text.format_block
        blocks = []

        def format_block(block):
            blocks.append(1)
            if len(blocks) == 2:
                raise error
            return real(block)

        monkeypatch.setattr(csv_text, "format_block", format_block)
        with pytest.raises(type(error)) as info:
            write_csv(RunLog(_mixed_values(2 * B + 7)), tmp_path / "log.csv")
        if isinstance(error, OSError):   # the same failure, naming the output
            assert (type(info.value), info.value.errno, info.value.filename) == (
                type(error), error.errno, str(tmp_path / "log.csv"))
        else:
            assert info.value is error
        assert list(tmp_path.iterdir()) == []


def _ranges_formatted_here(monkeypatch):
    """Record the row ranges this process formats, not its children."""
    real = scenario_cli._write_rows
    pid = os.getpid()
    ranges = []

    def write_rows(fh, data, lo, hi):
        if os.getpid() == pid:
            ranges.append((lo, hi))
        real(fh, data, lo, hi)

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


@pytest.fixture()
def forced_fork(monkeypatch):
    """Two usable CPUs, so that a run streams its log through a forked
    formatter on any host; records the forks and the row ranges this
    process formats, as ``forced_fork.forks`` and ``forced_fork.here``."""
    monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
    return types.SimpleNamespace(forks=_count_forks(monkeypatch),
                                 here=_ranges_formatted_here(monkeypatch))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _nothing_left_in(tmp_path):
    """Neither the run's output directory ``tmp_path / "deep"`` nor a
    temp file of its log is left."""
    assert not (tmp_path / "deep").exists()
    assert list(tmp_path.rglob("log.csv.*.tmp")) == []
    return True


def _children_of(pid):
    """Pids whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:   # the process is gone
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            found.append(int(entry))
    return found


def _running(pid):
    """Whether the process ``pid`` runs; a zombie, which PID 1 may never
    reap, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:   # the process is gone
        return False


def _killed_mid_loop(signum):
    """``-c`` code of ``heolsim run`` with one usable CPU, so with no
    formatter, that sends itself ``signum`` at plant step 5,000."""
    return ("import os, sys\n"
            "from heolsim import scenario_cli, sim_engine\n"
            "scenario_cli._usable_cpus = lambda: 1\n"
            "real, steps = sim_engine.rk4_step, []\n"
            "def rk4_step(*args):\n"
            "    steps.append(1)\n"
            "    if len(steps) == 5000:\n"
            f"        os.kill(os.getpid(), {int(signum)})\n"
            "    return real(*args)\n"
            "sim_engine.rk4_step = rk4_step\n"
            "sys.exit(scenario_cli.main(sys.argv[1:]))\n")


def _fail_at_step(step, error):
    """``rk4_step`` raises ``error`` at plant step ``step``, or with
    ``error`` None takes a NaN state into it."""
    def inject(monkeypatch, out):
        real, steps = sim_engine.rk4_step, []

        def rk4_step(plant, state, fu, gamma_r, dt):
            steps.append(1)
            if len(steps) == step:
                if error is not None:
                    raise error
                state = (math.nan,) + tuple(state[1:])
            return real(plant, state, fu, gamma_r, dt)

        monkeypatch.setattr(sim_engine, "rk4_step", rk4_step)
    return inject


def _fail_from_second_block(error):
    """``csv_text.format_block`` raises ``error`` from its second block on,
    in whichever process formats the log: the formatter, or the run."""
    def inject(monkeypatch, out):
        real, blocks = csv_text.format_block, []

        def format_block(block):
            blocks.append(1)
            if len(blocks) > 1:
                raise error
            return real(block)

        monkeypatch.setattr(csv_text, "format_block", format_block)
    return inject


def _interrupt_rendering(monkeypatch, out):
    # The plots are rendered while the formatter writes the last rows.
    def render_plot(*args):
        assert sim_engine._log_sink._pid is not None   # the formatter is live
        raise KeyboardInterrupt

    monkeypatch.setattr(scenario_cli, "render_plot", render_plot)


_ENOSPC = OSError(errno.ENOSPC, "No space left on device")
_NO_SPACE = "error: [Errno 28] No space left on device: '{out}/log.csv'\n"
_OUTPUTS = ["log.csv", "metrics.json", "trajectory_xy.svg"]
# How a run fails, one row per case: the scenario (None runs emit-scenarios
# into {out}), its one --set value, the usable CPUs, the failure injected,
# the exit code or the exception that escapes main, the start of the one
# stderr line (a row that ends in "\n" is the whole line; None: nothing is
# printed), and the names {out} holds afterwards (None: neither {out} nor
# its parent was made).  {out} is the output directory's path.
_RUN_FAILURES = {
    "raised_divergence": ("hovercraft_line", "duration=12", 2, _fail_at_step(
        2 * B + 100, NonFiniteState("non-finite state component")), 2,
        f"error: simulation diverged at t=8.291 (step {2 * B + 99}): ", None),
    "io_error_in_the_run": ("hovercraft_line", "duration=12", 2, _fail_at_step(
        2 * B + 100, OSError(errno.EIO, "input/output error")), 1,
        "error: [Errno 5] input/output error\n", None),
    **{name: ("hovercraft_line", "duration=12", cpus, _fail_at_step(
        2 * B + 100, KeyboardInterrupt()), KeyboardInterrupt, None, None)
       for name, cpus in [("interrupted", 2), ("interrupted_one_cpu", 1)]},
    "diverged_after_the_first_block": ("otter_circle", "duration=6", 2, _fail_at_step(
        B + 100, None), 2, f"error: simulation diverged at t=4.195 (step {B + 99}): ", None),
    "interrupted_while_rendering": ("hovercraft_line", "duration=12", 2, _interrupt_rendering,
                                    KeyboardInterrupt, None, None),
    **{name: ("hovercraft_line", "duration=8.5", cpus, _fail_from_second_block(error), 1,
              line, [])
       for name, cpus, error, line in [
           ("formatter_out_of_space", 2, _ENOSPC, _NO_SPACE),
           ("writer_out_of_space", 1, _ENOSPC, _NO_SPACE),
           ("formatter_bug", 2, RuntimeError("formatter bug"),
            "error: formatting {out}/log.csv failed (exit status 255)\n")]},
    # A directory in the way of an output.
    **{f"{name}_is_a_directory{suffix}": (
        scenario, "duration=1", cpus,
        lambda monkeypatch, out, name=name: (out / name).mkdir(parents=True), 1,
        f"error: [Errno 21] Is a directory: '{{out}}/{name}'\n", left)
       for scenario, name, cpus, suffix, left in [
           ("hovercraft_line", "log.csv", 2, "", _OUTPUTS[:1]),
           ("hovercraft_line", "log.csv", 1, "_one_cpu", _OUTPUTS[:1]),
           ("hovercraft_line", "metrics.json", 2, "", _OUTPUTS[:2]),
           ("hovercraft_line", "trajectory_xy.svg", 2, "", _OUTPUTS),
           (None, "hovercraft_line.cfg", 1, "", ["hovercraft_line.cfg"])]},
}


class TestRunFailures:
    @pytest.mark.parametrize("row", _RUN_FAILURES.values(), ids=_RUN_FAILURES)
    def test_a_failure_is_one_line_naming_the_output(self, scenario_dir, tmp_path,
                                                     monkeypatch, row):
        # Nothing is left but the outputs written before the failure: no
        # temp file, no formatter and no log sink of the run; and a run
        # forks once on two CPUs, never on one.
        scenario, sets, cpus, inject, outcome, line, left = row
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: cpus)
        forks, unraisable = _count_forks(monkeypatch), []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        default, out, err = sim_engine._log_sink, tmp_path / "deep" / "out", io.StringIO()
        inject(monkeypatch, out)
        args = (["emit-scenarios", out] if scenario is None else
                ["run", scenario_dir / f"{scenario}.cfg", out, "--set", sets])
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with pytest.raises(outcome) if isinstance(outcome, type) else contextlib.nullcontext():
                assert run_cli(args) == outcome
            gc.collect()
        assert caught == [] and unraisable == []
        got = err.getvalue()
        assert got.startswith(line.format(out=out)) if line else got == ""
        assert got.count("\n") == bool(line) and ".tmp" not in got
        assert list(tmp_path.rglob("*.tmp")) == [] and _no_child_left()
        assert type(default) is sim_engine._LogSink and sim_engine._log_sink is default
        # A library run afterwards keeps its log private and forks nothing.
        assert len(run_scenario(builtin("hovercraft_line", duration=0.1))[0]) == 101
        assert len(forks) == (cpus == 2)
        if left is None:
            assert not (tmp_path / "deep").exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == left


class TestStreamedCsvWriter:
    """``log.csv`` formatted by a forked formatter while the run goes on."""

    @pytest.mark.parametrize("rows, noticed", [
        (1, 0), (B - 1, 0), (B - 1, 5), (B, 0), (B, B - 1), (B + 1, 0),
        (B + 1, B), (2 * B + 7, 0), (2 * B + 7, B), (2 * B + 7, B + 3),
        (2 * B + 7, 2 * B), (2 * B + 7, 2 * B + 6),
        *((rows, "every block") for rows in (1, B - 1, B, B + 1, 2 * B + 7)),
    ])
    def test_bytes_do_not_depend_on_how_far_the_stream_got(
        self, tmp_path, forced_fork, rows, noticed
    ):
        # The formatter writes every row, the ones the engine told it of
        # and the rest, which finish tells it of, wherever the split falls
        # against the block boundaries; "every block" notices each block
        # boundary and then the last row, as the engine does.
        data = _mixed_values(rows)
        path = tmp_path / "out" / "log.csv"
        path.parent.mkdir()   # the stream makes no directory
        with scenario_cli._CsvStream(path, 1) as stream:
            shared = stream.matrix(rows)
            shared[:] = data
            if noticed == "every block":
                for hi in range(B, rows + B, B):
                    stream.finished(min(hi, rows))
            elif noticed:
                stream.finished(noticed)
            write_csv(RunLog(shared), path)
        assert path.read_bytes() == _csv_bytes(data)
        assert len(forced_fork.forks) == 1
        assert forced_fork.here == []
        assert [p.name for p in path.parent.iterdir()] == ["log.csv"]
        assert _no_child_left()

    def test_run_streams_the_same_bytes(self, scenario_dir, tmp_path, forced_fork,
                                        builtin_run):
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=12"]) == 0
        assert len(forced_fork.forks) == 1
        assert forced_fork.here == []
        want = _csv_bytes(builtin_run("hovercraft_line", duration=12)[0].data)
        assert (out / "log.csv").read_bytes() == want
        assert _no_child_left()

    def test_finish_tells_the_formatter_the_rows_it_was_not_told_of(
        self, scenario_dir, tmp_path, monkeypatch, forced_fork, builtin_run
    ):
        # Hold the engine's notices back at two blocks: the formatter still
        # writes the last 2B + 3 rows, once write_csv finishes the stream.
        real = scenario_cli._CsvStream.finished

        def finished(self, rows):
            if rows <= 2 * B:
                real(self, rows)

        monkeypatch.setattr(scenario_cli._CsvStream, "finished", finished)
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=16.5"]) == 0   # 16501 rows
        assert len(forced_fork.forks) == 1
        assert forced_fork.here == []
        assert [p.name for p in out.iterdir() if "log.csv" in p.name] == ["log.csv"]
        want = _csv_bytes(builtin_run("hovercraft_line", duration=16.5)[0].data)
        assert (out / "log.csv").read_bytes() == want
        assert _no_child_left()

    def test_run_into_a_missing_directory(self, scenario_dir, tmp_path,
                                          monkeypatch, forced_fork):
        # While the run goes on, its temp file is in the nearest directory
        # that exists and no output directory is made; the outputs are
        # all that is left.
        real = sim_engine.rk4_step
        seen = []

        def rk4_step(plant, state, fu, gamma_r, dt):
            if not seen:
                seen.append(([p.parent for p in tmp_path.rglob("log.csv.*.tmp")],
                             (tmp_path / "deep").exists()))
            return real(plant, state, fu, gamma_r, dt)

        monkeypatch.setattr(sim_engine, "rk4_step", rk4_step)
        out = tmp_path / "deep" / "out"
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", out,
                        "--set", "duration=2"]) == 0
        assert len(forced_fork.forks) == 1
        assert seen == [([tmp_path], False)]
        assert sorted(p.name for p in out.iterdir()) == [
            "errors_vs_time.svg", "estimates_vs_time.svg", "log.csv",
            "metrics.json", "trajectory_xy.svg",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deep", "scenarios"]
        assert list(tmp_path.rglob("*.tmp")) == []
        assert _no_child_left()

    @pytest.mark.parametrize("out", ["file", "file/deep/out"])
    def test_a_file_in_the_way_fails_before_the_run(
            self, scenario_dir, tmp_path, monkeypatch, forced_fork, capsys, out):
        # On the streamed path (two CPUs) and the after-the-run one (one
        # CPU) alike, naming the log's path, not the temp file's.
        (tmp_path / "file").write_text("kept")
        steps = []
        monkeypatch.setattr(sim_engine, "rk4_step", lambda *args: steps.append(1))
        for cpus in (2, 1):
            monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: cpus)
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg", tmp_path / out,
                            "--set", "duration=1"]) == 1
            assert capsys.readouterr().err == (
                f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: "
                f"'{tmp_path / out / 'log.csv'}'\n")
        assert steps == [] and forced_fork.forks == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "scenarios"]
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("cpus", [2, 1], ids=["formatter_forked", "no_formatter"])
    def test_both_sinks_hold_the_same_log_bytes(self, tmp_path, monkeypatch, forced_fork,
                                                builtin_run, cpus):
        # The engine packs its rows into the private matrix and into the
        # stream's, which is in anonymous shared memory whether or not a
        # formatter reads it, alike: each block when the stream is told it
        # is final.  A formatter may free the whole pages of the rows it
        # has written, so only the tail after them is still the private
        # run's; with none, every row is kept.
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: cpus)
        private = builtin_run("otter_circle", duration=9)[0]
        cfg = builtin("otter_circle", duration=9)
        path = tmp_path / "out" / "log.csv"
        path.parent.mkdir()   # the stream makes no directory
        told, blocks = [0], []
        real = scenario_cli._CsvStream.finished

        def finished(self, rows):
            blocks.append(self.data[told[-1]:rows].tobytes())
            told.append(rows)
            real(self, rows)

        monkeypatch.setattr(scenario_cli._CsvStream, "finished", finished)
        with scenario_cli._CsvStream(path, cfg.control_decimation) as stream:
            shared = run_scenario(cfg)[0]
            assert shared.data is stream.data
            assert isinstance(shared.data.base.base.obj, mmap.mmap)
            write_csv(shared, path)
        assert len(forced_fork.forks) == (cpus == 2)
        assert told == [0, B, 2 * B, len(private)]
        assert b"".join(blocks) == private.data.tobytes()
        tail = private.data.nbytes // mmap.PAGESIZE * mmap.PAGESIZE
        assert shared.data.tobytes()[tail:] == private.data.tobytes()[tail:]
        if cpus == 1:
            assert shared.data.tobytes() == private.data.tobytes()
        assert _no_child_left()

    @pytest.mark.parametrize("advice", ["frees", "fails"])
    def test_the_formatter_frees_every_whole_page_of_the_rows_it_wrote(
            self, scenario_dir, tmp_path, monkeypatch, forced_fork, builtin_run, capsys,
            advice):
        # After writing rows, the formatter frees the whole pages of them,
        # which the engine never reads again: after the run every whole
        # page of the matrix reads as zeros, in the run too, and the tail
        # is the private run's.  Where madvise fails the pages stay, and
        # the exit code and the bytes are the same.
        if advice == "fails":
            class Unadvisable(mmap.mmap):
                def madvise(self, *args):
                    raise OSError(errno.EINVAL, "Invalid argument")

            monkeypatch.setattr(mmap, "mmap", Unadvisable)
        elif not hasattr(mmap, "MADV_REMOVE"):
            pytest.skip("mmap has no MADV_REMOVE")
        runs = []
        real = scenario_cli.run_scenario
        monkeypatch.setattr(scenario_cli, "run_scenario",
                            lambda cfg: runs.append(real(cfg)) or runs[-1])
        out = tmp_path / "out"
        assert run_cli(["run", scenario_dir / "otter_circle.cfg", out,
                        "--set", "duration=9"]) == 0
        private, metrics = builtin_run("otter_circle", duration=9)
        assert capsys.readouterr() == (scenario_cli._metrics_line(metrics) + "\n", "")
        written = len(private) * _ROW.size // mmap.PAGESIZE * mmap.PAGESIZE
        freed = 0 if advice == "fails" else written
        got, want = runs[0][0].data.tobytes(), private.data.tobytes()
        assert freed > 0 or advice == "fails"
        assert got[:freed] == bytes(freed) and got[freed:] == want[freed:]
        assert len(forced_fork.forks) == 1 and forced_fork.here == []
        assert (out / "log.csv").read_bytes() == _csv_bytes(private.data)
        assert _no_child_left()

    def test_interrupt_at_the_fork_leaves_nothing(self, scenario_dir, tmp_path,
                                                  monkeypatch):
        # An interrupt that arrives as the formatter is forked is handled
        # once the stream knows the formatter, which it then kills.
        real_fork = os.fork
        forks = []

        def interrupted_fork():
            forks.append(1)
            pid = real_fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 2)
        try:
            code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "deep" / "out", "--set", "duration=9"])
        except KeyboardInterrupt:
            pass
        else:
            # No fork means the thread check in _CsvStream.matrix
            # (threading.active_count() == 1) saw another thread; a fork
            # means the signal was lost.  The OS threads and the signals
            # still pending tell which thread the signal may have gone to.
            tasks = (os.listdir("/proc/self/task")
                     if os.path.isdir("/proc/self/task") else "unknown")
            pytest.fail(f"no KeyboardInterrupt: exit code {code} after "
                        f"{len(forks)} fork(s) (none: the thread check in "
                        f"_CsvStream.matrix saw another thread), "
                        f"threads {threading.enumerate()}, "
                        f"OS threads {tasks}, pending {signal.sigpending()}")
        assert _nothing_left_in(tmp_path)
        assert _no_child_left()

    @pytest.mark.parametrize("case", ["another_thread", "no_fork", "one_cpu"])
    def test_without_a_formatter_the_run_formats_its_log(
            self, scenario_dir, tmp_path, monkeypatch, forced_fork, builtin_run, case):
        # Forking is not safe while another thread runs, not possible
        # without fork, and not worth it on one CPU: the run forks nothing
        # and formats every row itself, after the loop.
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "another_thread":
            thread.start()
        elif case == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(scenario_cli, "_usable_cpus", lambda: 1)
        try:
            code = run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "duration=9"])
        finally:
            stop.set()
        if case == "another_thread":
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert code == 0
        assert forced_fork.forks == [] and forced_fork.here == [(0, 9001)]
        want = _csv_bytes(builtin_run("hovercraft_line", duration=9)[0].data)
        assert (tmp_path / "out" / "log.csv").read_bytes() == want

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                        reason="needs fork and /proc")
    @pytest.mark.parametrize("case", ["formatter_forked", "no_formatter"])
    def test_sigterm_during_the_run_leaves_nothing(self, scenario_dir, tmp_path, case):
        out = tmp_path / "deep" / "out"
        # Two usable CPUs, so that the run streams on any host; or one, and
        # the run sends itself SIGTERM mid-loop.
        code = ("import sys; from heolsim import scenario_cli; "
                "scenario_cli._usable_cpus = lambda: 2; "
                "sys.exit(scenario_cli.main(sys.argv[1:]))"
                if case == "formatter_forked" else _killed_mid_loop(signal.SIGTERM))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "run", str(scenario_dir / "otter_circle.cfg"),
             str(out), "--set", "duration=300"],
            env=_child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            if case == "formatter_forked":
                deadline = time.monotonic() + 60
                # The temp file is made before the formatter is forked, so
                # wait for the formatter itself.
                while not (formatter := _children_of(proc.pid)):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                assert len(formatter) == 1
                # The temp file is in the nearest directory that exists.
                assert len(list(tmp_path.glob("log.csv.*.tmp"))) == 1
                assert not (tmp_path / "deep").exists()
                proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
            assert proc.stderr.read() == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        assert _nothing_left_in(tmp_path)
        if case == "formatter_forked":
            assert not os.path.exists(f"/proc/{formatter[0]}")

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                        reason="needs fork and /proc")
    @pytest.mark.parametrize("when", ["mid_loop", "while_rendering", "no_formatter"])
    def test_sigkill_leaves_no_temp_file(self, scenario_dir, tmp_path, when):
        # SIGKILL closes the run's end of the notice pipe before finish can
        # send the final notice, so the orphaned formatter removes the temp
        # file.  Two usable CPUs, so that the run streams on any host; the
        # first plot prints the formatter's pid and kills the run.  With one
        # CPU, and so no formatter, the run holds no temp file during the
        # loop, where it kills itself.
        out = tmp_path / "deep" / "out"
        code = ("import os, signal, sys; from heolsim import scenario_cli; "
                "scenario_cli._usable_cpus = lambda: 2; "
                "scenario_cli.render_plot = lambda *args: ("
                "print(scenario_cli.sim_engine._log_sink._pid, flush=True), "
                "os.kill(os.getpid(), signal.SIGKILL)); "
                "sys.exit(scenario_cli.main(sys.argv[1:]))"
                if when != "no_formatter" else _killed_mid_loop(signal.SIGKILL))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "run", str(scenario_dir / "otter_circle.cfg"),
             str(out), "--set", "duration=300" if when == "mid_loop" else "duration=20"],
            env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            if when == "mid_loop":
                deadline = time.monotonic() + 60
                while not (formatter := _children_of(proc.pid)):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                assert len(formatter) == 1
                proc.kill()
            printed, err = proc.communicate(timeout=60)
            assert proc.returncode == -signal.SIGKILL
            assert err == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if when != "no_formatter":
            pid = formatter[0] if when == "mid_loop" else int(printed)
            deadline = time.monotonic() + 60
            while _running(pid):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert _nothing_left_in(tmp_path)

    def test_sigterm_handler_lives_only_inside_the_run(self, scenario_dir, tmp_path,
                                                       monkeypatch):
        seen = []
        real = scenario_cli._cmd_run

        def cmd_run(*args):
            seen.append(signal.getsignal(signal.SIGTERM))
            return real(*args)

        def mine(signum, frame):
            pass

        monkeypatch.setattr(scenario_cli, "_cmd_run", cmd_run)
        previous = signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "duration=0.5"]) == 0
            assert callable(seen[0])
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            # A handler someone else installed stays as it is.
            signal.signal(signal.SIGTERM, mine)
            assert run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                            tmp_path / "out", "--set", "duration=0.5"]) == 0
            assert seen[1] is mine
            assert signal.getsignal(signal.SIGTERM) is mine
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_formatter_ignores_sigint_and_takes_sigterm_unheld(
            self, scenario_dir, tmp_path, monkeypatch, forced_fork):
        # The run handles SIGTERM and holds both signals over the fork; the
        # formatter must ignore SIGINT, take SIGTERM as by default, and
        # hold neither, or it fails with EINVAL and so does the run.
        real = scenario_cli._write_rows
        pid = os.getpid()
        stop = {signal.SIGINT, signal.SIGTERM}

        def write_rows(fh, data, lo, hi):
            if os.getpid() != pid and (
                    signal.getsignal(signal.SIGINT) is not signal.SIG_IGN
                    or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
                    or stop & signal.pthread_sigmask(signal.SIG_BLOCK, ())):
                raise OSError(errno.EINVAL, "formatter signal state")
            real(fh, data, lo, hi)

        monkeypatch.setattr(scenario_cli, "_write_rows", write_rows)
        # With no handler of its own here, the run installs one.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        assert run_cli(["run", scenario_dir / "hovercraft_line.cfg",
                        tmp_path / "out", "--set", "duration=9"]) == 0
        assert len(forced_fork.forks) == 1
        assert _no_child_left()
