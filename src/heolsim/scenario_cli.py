"""Command-line front end: run scenario files, emit canonical scenarios.

Configs are flat ``key = value`` text with dotted paths; ``--set`` overrides
are applied after parsing and the fully resolved mapping is echoed into the
metrics file together with its hash, so any run can be reproduced from its
outputs alone.  All files are written atomically (temp file then rename).

Exit codes: 0 success, 1 configuration or I/O error, 2 simulation blow-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .heading_autopilot import AutopilotGains
from .heol_control import HeolConfig, IpdGains
from .reference_trajectory import TrajectorySpec
from .sim_engine import (
    _COLUMNS,
    NonFiniteState,
    RunLog,
    RunMetrics,
    ScenarioConfig,
    run_scenario,
)
from .svgplot import Series, render_plot
from .vessel_dynamics import InertialForce, VesselParams, VesselState

__all__ = [
    "ConfigError",
    "CSV_HEADER",
    "BUILTIN_SCENARIOS",
    "parse_config_text",
    "build_scenario",
    "main",
    "entry",
]


class ConfigError(Exception):
    """Unusable configuration: bad file, unknown key, invalid value."""


CSV_HEADER = ",".join(_COLUMNS)

_PLOT_FILES = ("trajectory_xy.svg", "errors_vs_time.svg", "estimates_vs_time.svg")

# Key tables: expected type plus the shape (model kind / trajectory variant)
# each key belongs to.  str/int keys are listed explicitly; everything else
# parses as float.
_STR_KEYS = {"model.kind", "trajectory.variant", "heol.variant"}
_INT_KEYS = {"control_decimation"}

_COMMON_DEFAULTS = {
    "model.kind": "hovercraft",
    "model.gamma": 1.0,
    "trajectory.variant": "line",
    "wind.fx": 0.0,
    "wind.fy": 0.0,
    "initial.x": 0.0,
    "initial.y": 0.0,
    "initial.psi": 0.0,
    "initial.u": 0.0,
    "initial.v": 0.0,
    "initial.r": 0.0,
    "heol.Kp": 1.0,
    "heol.Kd": 2.0,
    "heol.T": 0.5,
    "heol.variant": "with_derivative",
    "autopilot.Kp_psi": 25.0,
    "autopilot.Kd_psi": 10.0,
    "autopilot.Ki_psi": 0.0,
    "duration": 60.0,
    "dt_plant": 0.001,
    "control_decimation": 1,
    "convergence_threshold": 0.5,
}
_HOVERCRAFT_DEFAULTS = {"model.beta": 10.0}
_SURFACE_DEFAULTS = {
    "model.a": 1.0,
    "model.b": -1.0,
    "model.c": 0.0,
    "model.beta_u": 10.0,
    "model.beta_v": 10.0,
}
_LINE_DEFAULTS = {"trajectory.speed": 2.0}
_CIRCLE_DEFAULTS = {
    "trajectory.center_x": 0.0,
    "trajectory.center_y": 0.0,
    "trajectory.radius": 25.0,
    "trajectory.angular_rate": 0.04,
    "trajectory.phase": 0.0,
}
# Derived when absent: controller_beta (from the model), heol.dt (from the
# plant step and decimation).
_DERIVED_KEYS = {"controller_beta", "heol.dt"}


BUILTIN_SCENARIOS = {
    "hovercraft_line": """\
# Straight-line tracking under a constant lateral wind force.
# Circular-hull plant; the guidance drag rate matches the plant exactly,
# so the online estimate isolates the wind.
model.kind = hovercraft
model.beta = 10.0
model.gamma = 1.0
controller_beta = 10.0
trajectory.variant = line
trajectory.speed = 2.0
wind.fx = 0.0
wind.fy = -50.0
initial.x = 0.0
initial.y = 10.0
initial.psi = 0.0
initial.u = 0.0
initial.v = 0.0
initial.r = 0.0
heol.Kp = 1.0
heol.Kd = 2.0
heol.T = 0.5
heol.variant = with_derivative
autopilot.Kp_psi = 25.0
autopilot.Kd_psi = 10.0
autopilot.Ki_psi = 0.0
duration = 60.0
dt_plant = 0.001
control_decimation = 1
convergence_threshold = 0.5
""",
    "otter_circle": """\
# Circle tracking with a generic-hull plant under the same wind force.
# Mass ratios and sway damping deviate from the circular-hull idealization;
# the guidance deliberately assumes the smaller (surge) drag rate.
model.kind = surface_vessel
model.a = 0.58
model.b = -1.72
model.c = 0.0
model.beta_u = 10.0
model.beta_v = 15.0
model.gamma = 1.0
controller_beta = 10.0
trajectory.variant = circle
trajectory.center_x = 0.0
trajectory.center_y = 0.0
trajectory.radius = 25.0
trajectory.angular_rate = 0.04
trajectory.phase = 0.0
wind.fx = 0.0
wind.fy = -50.0
initial.x = 40.0
initial.y = 0.0
initial.psi = 1.5707963267948966
initial.u = 0.0
initial.v = 0.0
initial.r = 0.0
heol.Kp = 1.0
heol.Kd = 2.0
heol.T = 0.5
heol.variant = with_derivative
autopilot.Kp_psi = 25.0
autopilot.Kd_psi = 10.0
autopilot.Ki_psi = 0.0
duration = 188.49555921538757
dt_plant = 0.001
control_decimation = 1
convergence_threshold = 0.5
""",
}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; comments (#) and blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config_text(text, origin=str(p))


def apply_override(raw: dict[str, str], assignment: str) -> None:
    """Apply one ``key=value`` override in place."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    key, _, value = assignment.partition("=")
    key = key.strip()
    value = value.strip()
    if not key or not value:
        raise ConfigError(f"override {assignment!r} has an empty key or value")
    raw[key] = value


def _convert(key: str, value):
    if isinstance(value, str):
        if key in _STR_KEYS:
            return value
        try:
            if key in _INT_KEYS:
                return int(value)
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
        if not math.isfinite(number):
            raise ConfigError(f"key {key!r}: must be finite")
        return number
    return value


def build_scenario(raw: dict[str, str]) -> tuple[ScenarioConfig, dict]:
    """Materialize a scenario from a flat mapping.

    Returns the config plus the fully resolved mapping (defaults and derived
    values included) used for the metrics echo and hash.
    """
    kind = raw.get("model.kind", _COMMON_DEFAULTS["model.kind"])
    variant = raw.get("trajectory.variant", _COMMON_DEFAULTS["trajectory.variant"])
    defaults = dict(_COMMON_DEFAULTS)
    if kind == "hovercraft":
        defaults.update(_HOVERCRAFT_DEFAULTS)
    elif kind == "surface_vessel":
        defaults.update(_SURFACE_DEFAULTS)
    else:
        raise ConfigError(f"model.kind must be hovercraft or surface_vessel, got {kind!r}")
    if variant == "line":
        defaults.update(_LINE_DEFAULTS)
    elif variant == "circle":
        defaults.update(_CIRCLE_DEFAULTS)
    else:
        raise ConfigError(f"trajectory.variant must be line or circle, got {variant!r}")

    known = set(defaults) | _DERIVED_KEYS
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(
            "unknown config key(s) for this model/trajectory shape: "
            + ", ".join(unknown)
        )
    resolved = {k: _convert(k, raw.get(k, dv)) for k, dv in defaults.items()}

    if kind == "hovercraft":
        default_beta = resolved["model.beta"]
    else:
        default_beta = resolved["model.beta_u"]
    resolved["controller_beta"] = _convert(
        "controller_beta", raw.get("controller_beta", default_beta)
    )
    dt_ctrl = resolved["dt_plant"] * resolved["control_decimation"]
    resolved["heol.dt"] = _convert("heol.dt", raw.get("heol.dt", dt_ctrl))

    try:
        if kind == "hovercraft":
            model = VesselParams.hovercraft(
                beta=resolved["model.beta"], gamma=resolved["model.gamma"]
            )
        else:
            model = VesselParams(
                a=resolved["model.a"],
                b=resolved["model.b"],
                c=resolved["model.c"],
                beta_u=resolved["model.beta_u"],
                beta_v=resolved["model.beta_v"],
                gamma=resolved["model.gamma"],
            )
        if variant == "line":
            trajectory = TrajectorySpec.line(speed=resolved["trajectory.speed"])
        else:
            trajectory = TrajectorySpec.circle(
                radius=resolved["trajectory.radius"],
                angular_rate=resolved["trajectory.angular_rate"],
                center=(resolved["trajectory.center_x"], resolved["trajectory.center_y"]),
                phase=resolved["trajectory.phase"],
            )
        cfg = ScenarioConfig(
            model=model,
            trajectory=trajectory,
            controller_beta=resolved["controller_beta"],
            initial_state=VesselState(
                x=resolved["initial.x"],
                y=resolved["initial.y"],
                psi=resolved["initial.psi"],
                u=resolved["initial.u"],
                v=resolved["initial.v"],
                r=resolved["initial.r"],
            ),
            wind=InertialForce(fx=resolved["wind.fx"], fy=resolved["wind.fy"]),
            heol=HeolConfig(
                gains=IpdGains(Kp=resolved["heol.Kp"], Kd=resolved["heol.Kd"]),
                T=resolved["heol.T"],
                variant=resolved["heol.variant"],
                dt=resolved["heol.dt"],
            ),
            autopilot=AutopilotGains(
                Kp_psi=resolved["autopilot.Kp_psi"],
                Kd_psi=resolved["autopilot.Kd_psi"],
                Ki_psi=resolved["autopilot.Ki_psi"],
            ),
            duration=resolved["duration"],
            dt_plant=resolved["dt_plant"],
            control_decimation=resolved["control_decimation"],
            convergence_threshold=resolved["convergence_threshold"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextmanager
def _atomic_open(path: Path):
    """Text file handle whose contents replace ``path`` only on success."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


# Rows formatted per write; bounds the text held in memory at once.
_CSV_BLOCK_ROWS = 4096


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _csv_processes(blocks: int) -> int:
    """Processes that format the CSV: one per usable CPU and at most one
    per block, or just this one where there is no ``fork`` or where
    forking is unsafe because other threads run."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), blocks))


def _write_rows(fh, columns: list[np.ndarray], lo: int, hi: int) -> None:
    """Format rows ``[lo, hi)`` one block at a time."""
    for i in range(lo, hi, _CSV_BLOCK_ROWS):
        j = min(i + _CSV_BLOCK_ROWS, hi)
        rows = np.column_stack([col[i:j] for col in columns]).tolist()
        fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def _fork_part(fd: int, columns: list[np.ndarray], lo: int, hi: int) -> int:
    """Fork a child that writes rows ``[lo, hi)`` to ``fd`` and exits with
    0, with the errno of an ``OSError``, or with 255 on any other error."""
    pid = os.fork()
    if pid:
        return pid
    status = 255
    try:
        with os.fdopen(fd, "w") as fh:
            _write_rows(fh, columns, lo, hi)
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < 255:
            status = exc.errno
    finally:
        os._exit(status)


def _check_part(status: int, part: str, lo: int, hi: int) -> None:
    """Raise the error a child's exit status reports."""
    if status == 0:
        return
    if 0 < status < 255:
        raise OSError(status, os.strerror(status), part)
    raise OSError(f"formatting CSV rows {lo}..{hi} failed (exit status {status})")


def _append(dst, part: str) -> None:
    """Copy the file ``part`` to the end of the binary file ``dst`` through
    one fixed 64 kB buffer."""
    buf = memoryview(bytearray(1 << 16))
    with open(part, "rb", buffering=0) as src:
        while n := src.readinto(buf):
            dst.write(buf[:n])


def write_csv(log: RunLog, path: Path) -> None:
    """Full-rate log in the fixed column schema, full float precision.

    Rows are gathered, formatted and written in blocks, so the writer's
    memory does not grow with the log length.  The rows are split into
    contiguous ranges, one per formatting process (:func:`_csv_processes`):
    this process writes the header and the first range, and each forked
    child formats its range into its own part file, reading the log through
    the pages it shares with this process.  The parts are appended in order
    with a binary copy, so the bytes never depend on the process count.
    On any error every child is killed and reaped and every part file is
    removed, and ``path`` is left as it was.
    """
    columns = [getattr(log, name) for name in _COLUMNS]
    n = len(log)
    blocks = -(-n // _CSV_BLOCK_ROWS)
    procs = _csv_processes(blocks)
    # Range k is rows [bounds[k], bounds[k + 1]), whole blocks but the last.
    bounds = [min(n, blocks * k // procs * _CSV_BLOCK_ROWS) for k in range(procs + 1)]
    with _atomic_open(path) as fh:
        children: list[tuple[int, str, int, int]] = []
        parts: list[str] = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                fd, part = tempfile.mkstemp(
                    dir=path.parent, prefix=path.name + ".", suffix=".part"
                )
                parts.append(part)
                try:
                    children.append((_fork_part(fd, columns, lo, hi), part, lo, hi))
                finally:
                    os.close(fd)
            fh.write(CSV_HEADER + "\n")
            _write_rows(fh, columns, 0, bounds[1])
            fh.flush()
            while children:
                pid, part, lo, hi = children[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                _check_part(status, part, lo, hi)
                _append(fh.buffer, part)
        except BaseException:
            for pid, *_ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            for part in parts:
                os.unlink(part)


def write_metrics(
    metrics: RunMetrics, resolved: dict, path: Path
) -> None:
    payload = {
        "rms_error_x": metrics.rms_error_x,
        "rms_error_y": metrics.rms_error_y,
        "convergence_time": metrics.convergence_time,
        "F_hat_x_mean": metrics.F_hat_x_mean,
        "F_hat_y_mean": metrics.F_hat_y_mean,
        "tool_version": __version__,
        "config_hash": config_hash(resolved),
        "resolved_config": resolved,
    }
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_plots(log: RunLog, resolved: dict, out_dir: Path) -> None:
    _atomic_write_text(
        out_dir / "trajectory_xy.svg",
        render_plot(
            "Planar trajectory", "x [m]", "y [m]",
            [
                Series("reference", log.x_ref, log.y_ref, "black", dashed=True),
                Series("vehicle", log.x, log.y, "#1f77b4"),
            ],
        ),
    )
    _atomic_write_text(
        out_dir / "errors_vs_time.svg",
        render_plot(
            "Tracking errors", "t [s]", "error [m]",
            [
                Series("e_x", log.t, log.e_x, "#1f77b4"),
                Series("e_y", log.t, log.e_y, "#ff7f0e"),
            ],
        ),
    )
    wind_x = np.full(2, resolved["wind.fx"])
    wind_y = np.full(2, resolved["wind.fy"])
    ends = log.t[[0, -1]]
    _atomic_write_text(
        out_dir / "estimates_vs_time.svg",
        render_plot(
            "Disturbance estimates", "t [s]", "acceleration [m/s^2]",
            [
                Series("F_hat_x", log.t, log.F_hat_x, "#1f77b4"),
                Series("F_hat_y", log.t, log.F_hat_y, "#ff7f0e"),
                Series("wind fx", ends, wind_x, "gray", dashed=True),
                Series("wind fy", ends, wind_y, "black", dashed=True),
            ],
        ),
    )


def _metrics_line(metrics: RunMetrics) -> str:
    conv = "none" if metrics.convergence_time is None else f"{metrics.convergence_time:.6g}"
    return (
        f"rms_error_x={metrics.rms_error_x:.6g} "
        f"rms_error_y={metrics.rms_error_y:.6g} "
        f"convergence_time={conv} "
        f"F_hat_x_mean={metrics.F_hat_x_mean:.6g} "
        f"F_hat_y_mean={metrics.F_hat_y_mean:.6g}"
    )


def _cmd_run(config_path: str, out_dir: str, overrides: list[str]) -> int:
    raw = parse_config_file(config_path)
    for assignment in overrides:
        apply_override(raw, assignment)
    cfg, resolved = build_scenario(raw)
    log, metrics = run_scenario(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(log, out / "log.csv")
    write_metrics(metrics, resolved, out / "metrics.json")
    write_plots(log, resolved, out)
    if log.events:
        print(
            f"note: guidance fallback engaged at {len(log.events)} tick(s)",
            file=sys.stderr,
        )
    print(_metrics_line(metrics))
    return 0


def _cmd_emit_scenarios(out_dir: str) -> int:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in BUILTIN_SCENARIOS.items():
        _atomic_write_text(out / f"{name}.cfg", text)
        print(f"wrote {out / (name + '.cfg')}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration errors for exit-code purposes.
    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="heolsim",
        description="Simulate flatness-plus-model-free guidance scenarios.",
    )
    parser.add_argument(
        "--seedless",
        action="store_true",
        help="reserved flag: runs are deterministic, no randomness exists",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", help="path to a flat key=value scenario file")
    p_run.add_argument("out_dir", help="output directory (created if missing)")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key after parsing (repeatable)",
    )
    p_emit = sub.add_parser(
        "emit-scenarios", help="write the built-in scenario config files"
    )
    p_emit.add_argument("out_dir", help="destination directory")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args.config, args.out_dir, args.overrides)
        return _cmd_emit_scenarios(args.out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteState as exc:
        where = "" if exc.step is None else f" at t={exc.t!r} (step {exc.step})"
        print(f"error: simulation diverged{where}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
