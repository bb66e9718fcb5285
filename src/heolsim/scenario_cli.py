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
import mmap
import os
import signal
import sys
import tempfile
import threading
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import __version__, sim_engine
from .heading_autopilot import AutopilotGains
from .heol_control import HeolConfig, IpdGains
from .reference_trajectory import TrajectorySpec
from .sim_engine import (
    _COLUMNS,
    _ROW_BYTES,
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
            number = int(value) if key in _INT_KEYS else float(value)
            finite = math.isfinite(number)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
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

    if "heol.dt" in raw:
        raise ConfigError("heol.dt cannot be set: it is dt_plant * control_decimation")
    known = set(defaults) | {"controller_beta"}  # derived when absent
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
    resolved["heol.dt"] = resolved["dt_plant"] * resolved["control_decimation"]

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


def _temp_beside(path: Path, suffix: str = ".tmp") -> tuple[int, str]:
    """A new empty file in the directory of ``path``: descriptor and name."""
    return tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=suffix)


@contextmanager
def _atomic_open(path: Path, temp: tuple[int, str] | None = None):
    """Text handle whose contents replace ``path`` only on success.  It
    writes to a new temp file beside ``path``, or appends to ``temp``, the
    descriptor and name of one made earlier, which it then owns."""
    fd, tmp = temp or _temp_beside(path)
    try:
        with os.fdopen(fd, "a") as fh:
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


def _may_fork() -> bool:
    """Whether ``fork`` exists and is safe: no other thread runs."""
    return hasattr(os, "fork") and threading.active_count() == 1


def _csv_processes(blocks: int) -> int:
    """Processes that format the CSV: one per usable CPU and at most one
    per block, or just this one where forking is not possible or safe."""
    if not _may_fork():
        return 1
    return max(1, min(_usable_cpus(), blocks))


def _write_rows(fh, columns: list[np.ndarray], lo: int, hi: int) -> None:
    """Format rows ``[lo, hi)`` one block at a time."""
    for i in range(lo, hi, _CSV_BLOCK_ROWS):
        j = min(i + _CSV_BLOCK_ROWS, hi)
        rows = np.column_stack([col[i:j] for col in columns]).tolist()
        fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def _fork(work, *args) -> int:
    """Fork a child that runs ``work(*args)`` and exits with 0, with the errno
    of an ``OSError``, or with 255 on any other error.  The child ignores
    ``SIGINT``: on an interrupt this process kills it."""
    pid = os.fork()
    if pid:
        return pid
    status = 255
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        work(*args)
        status = 0
    except OSError as exc:
        if exc.errno and exc.errno < 255:
            status = exc.errno
    finally:
        os._exit(status)


def _write_part(fd: int, columns: list[np.ndarray], lo: int, hi: int) -> None:
    with os.fdopen(fd, "w") as fh:
        _write_rows(fh, columns, lo, hi)


def _format_as_noticed(fd: int, columns: list[np.ndarray], notices: int,
                       write_end: int) -> None:
    """Append to ``fd`` the rows up to each row count read from the pipe
    ``notices``, until it closes; ``write_end``, this process's copy of
    the pipe's other end, is closed first."""
    os.close(write_end)
    with os.fdopen(fd, "a") as fh:
        done = 0
        while got := os.read(notices, 1 << 16):
            # Whole 8-byte notices: each write of one is atomic.
            rows = int.from_bytes(got[-8:], "little")
            _write_rows(fh, columns, done, rows)
            done = rows


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


def _begin_csv(path: Path) -> tuple[int, str]:
    """A new temp file beside ``path`` holding the CSV header: its
    descriptor and name."""
    fd, tmp = _temp_beside(path)
    try:
        with open(fd, "w", closefd=False) as fh:
            fh.write(CSV_HEADER + "\n")
    except BaseException:
        os.close(fd)
        os.unlink(tmp)
        raise
    return fd, tmp


class _CsvStream(sim_engine._LogSink):
    """``log.csv`` of the run in progress, formatted beside the run.

    As the run's log sink it keeps the log matrix in anonymous shared
    memory and forks one formatter.  The formatter appends each block the
    engine reports finished to a temp file beside ``path`` that already
    holds the header; each report is a row count written to a pipe, and
    that write also orders the memory the formatter reads.
    :meth:`finish` closes the pipe, so the formatter writes the rows
    reported last and exits.  :meth:`close` kills and reaps a formatter
    still running, removes the temp file, and removes the directories made
    for it unless the run reached :meth:`finish`.  Where forking is not
    possible or safe, or only one CPU is usable, the log stays private and
    :func:`write_csv` formats all of it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.data: np.ndarray | None = None  # the shared matrix while streaming
        self._made: list[Path] = []  # directories made for the temp file
        self._fd: int | None = None  # the temp file
        self._tmp: str | None = None
        self._pid: int | None = None  # the formatter
        self._notices: int | None = None  # write end of the notice pipe
        self._noticed = 0  # rows reported to the formatter

    def matrix(self, rows: int) -> np.ndarray:
        # On one CPU the formatter would only take turns with the run.
        if not _may_fork() or _usable_cpus() < 2:
            return super().matrix(rows)
        out = self.path.parent
        while not out.exists() and out != out.parent:
            self._made.insert(0, out)
            out = out.parent
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd, self._tmp = _begin_csv(self.path)
        shared = mmap.mmap(-1, rows * _ROW_BYTES)
        data = np.frombuffer(shared).reshape(rows, len(_COLUMNS))
        notices, self._notices = os.pipe()
        try:
            self._pid = _fork(_format_as_noticed, self._fd, list(data.T),
                              notices, self._notices)
        finally:
            os.close(notices)
        self.data = data
        return data

    def finished(self, rows: int) -> None:
        if self._notices is None:
            return
        try:
            os.write(self._notices, rows.to_bytes(8, "little"))
        except BrokenPipeError:
            # The formatter died; finish() reports how.
            os.close(self._notices)
            self._notices = None
        else:
            self._noticed = rows

    def formats(self, log: RunLog, path: Path) -> bool:
        """Whether this stream's formatter writes ``log`` to ``path``."""
        return (self.data is not None and path == self.path
                and np.may_share_memory(log.t, self.data))

    def finish(self) -> tuple[tuple[int, str], int]:
        """Let the formatter write the rows reported last and reap it.
        Returns the temp file (descriptor and name), which the caller now
        owns, and the rows it holds; raises the formatter's failure as an
        ``OSError``."""
        self._made = []  # the run reached its writers: the directory stays
        rows, self.data = len(self.data), None
        try:
            if self._notices is not None:
                os.close(self._notices)
                self._notices = None
            status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = None
            _check_part(status, self._tmp, 0, rows)
        except BaseException:
            self.close()
            raise
        temp, self._fd, self._tmp = (self._fd, self._tmp), None, None
        return temp, self._noticed

    def close(self) -> None:
        if self._notices is not None:
            os.close(self._notices)
            self._notices = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._tmp is not None:
            with suppress(FileNotFoundError):
                os.unlink(self._tmp)
            self._tmp = None
        for made in reversed(self._made):
            with suppress(OSError):
                made.rmdir()
        self._made = []


@contextmanager
def _csv_beside_run(path: Path):
    """Format ``path`` beside the one run inside the block: its log goes
    to a :class:`_CsvStream`, and :func:`write_csv` finishes it."""
    stream = _CsvStream(path)
    try:
        with sim_engine._logging_to(stream):
            yield stream
    finally:
        stream.close()


def write_csv(log: RunLog, path: Path) -> None:
    """Full-rate log in the fixed column schema, full float precision.

    Where a :class:`_CsvStream` formatted ``log`` during the run, its temp
    file already holds the header and the rows the engine reported
    finished; otherwise a new temp file holds the header.  The remaining
    rows are gathered, formatted and written in blocks, so the writer's
    memory does not grow with the log length.  They are split into
    contiguous ranges, one per formatting process
    (:func:`_csv_processes`): this process writes the first range, and
    each forked child formats its range into its own part file, reading the
    log through the pages it shares with this process.  The parts are
    appended in order with a binary copy, so the bytes never depend on the
    process count or on how far the stream got.  On any error every child
    is killed and reaped, every part file and the temp file are removed,
    and ``path`` is left as it was.
    """
    columns = [getattr(log, name) for name in _COLUMNS]
    n = len(log)
    stream = sim_engine._log_sink
    if isinstance(stream, _CsvStream) and stream.formats(log, path):
        temp, reached = stream.finish()
    else:
        temp, reached = _begin_csv(path), 0
    blocks = -(-(n - reached) // _CSV_BLOCK_ROWS)
    procs = _csv_processes(blocks)
    # Range k is rows [bounds[k], bounds[k + 1]), whole blocks but the last.
    bounds = [min(n, reached + blocks * k // procs * _CSV_BLOCK_ROWS)
              for k in range(procs + 1)]
    with _atomic_open(path, temp) as fh:
        children: list[tuple[int, str, int, int]] = []
        parts: list[str] = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                fd, part = _temp_beside(path, ".part")
                parts.append(part)
                try:
                    pid = _fork(_write_part, fd, columns, lo, hi)
                    children.append((pid, part, lo, hi))
                finally:
                    os.close(fd)
            _write_rows(fh, columns, bounds[0], bounds[1])
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
    out = Path(out_dir)
    with _csv_beside_run(out / "log.csv"):
        log, metrics = run_scenario(cfg)
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
