"""Command-line front end: run scenario files, emit canonical scenarios.

Configs are flat ``key = value`` text with dotted paths; ``--set`` overrides
are applied after parsing and the fully resolved mapping is echoed into the
metrics file together with its hash, so any run can be reproduced from its
outputs alone.  All files are written atomically (temp file then rename).

Exit codes: 0 success, 1 configuration or I/O error, 2 simulation blow-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import mmap
import os
import signal
import sys
import threading
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__, sim_engine
from .heading_autopilot import AutopilotGains
from .heol_control import HeolConfig
from .reference_trajectory import TrajectorySpec
from .sim_engine import (
    _COLUMNS,
    _ROW,
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
    "parse_config_file",
    "apply_override",
    "build_scenario",
    "config_hash",
    "write_csv",
    "write_metrics",
    "write_plots",
    "main",
    "entry",
]


class ConfigError(Exception):
    """Unusable configuration: bad file, unknown key, invalid value."""


CSV_HEADER = ",".join(_COLUMNS)

# The config schema: each dotted key maps to ``(default, shape)``.  The
# default's type (str, int or float) is the key's type.  The shape is None
# for keys every scenario has, otherwise the model kind or trajectory variant
# the key belongs to.  The other keys are the fields, with their defaults,
# of the dataclasses their groups build.  Two keys are derived:
# ``controller_beta`` defaults to the plant's (surge) drag rate, and
# ``heol.dt``, the controller period ``ScenarioConfig.dt_ctrl``, is echoed.
_KEYS = {
    "model.kind": ("hovercraft", None),
    "model.gamma": (1.0, None),
    "model.beta": (10.0, "hovercraft"),
    "model.a": (1.0, "surface_vessel"),
    "model.b": (-1.0, "surface_vessel"),
    "model.c": (0.0, "surface_vessel"),
    "model.beta_u": (10.0, "surface_vessel"),
    "model.beta_v": (10.0, "surface_vessel"),
    "trajectory.variant": ("line", None),
    "trajectory.speed": (2.0, "line"),
    "trajectory.center_x": (0.0, "circle"),
    "trajectory.center_y": (0.0, "circle"),
    "trajectory.radius": (25.0, "circle"),
    "trajectory.angular_rate": (0.04, "circle"),
    "trajectory.phase": (0.0, "circle"),
}
_KEYS.update(
    (prefix + f.name, (f.default, None))
    for prefix, group in (("wind.", InertialForce), ("initial.", VesselState),
                          ("heol.", HeolConfig), ("autopilot.", AutopilotGains),
                          ("", ScenarioConfig))
    for f in dataclasses.fields(group) if isinstance(f.default, (str, int, float))
)


# Each built-in lists only what differs from the defaults; every run echoes
# all resolved values in metrics.json.
BUILTIN_SCENARIOS = {
    "hovercraft_line": """\
# Straight-line tracking under a constant lateral wind force.
# Circular-hull plant; the guidance drag rate matches the plant exactly,
# so the online estimate isolates the wind.
wind.fy = -50.0
initial.y = 10.0
""",
    "otter_circle": """\
# Circle tracking with a generic-hull plant under the same wind force.
# Mass ratios and sway damping deviate from the circular-hull idealization;
# the guidance deliberately assumes the smaller (surge) drag rate, which
# controller_beta takes by default.
model.kind = surface_vessel
model.a = 0.58
model.b = -1.72
model.beta_v = 15.0
trajectory.variant = circle
wind.fy = -50.0
initial.x = 40.0
initial.psi = 1.5707963267948966
duration = 188.49555921538757
""",
}


def _split_assignment(text: str, where: str) -> tuple[str, str]:
    """The key and value of ``key = value`` text, split at the first ``=``
    and stripped; a missing ``=``, an empty key or an empty value is a
    :class:`ConfigError` naming ``where``."""
    key, equals, value = (part.strip() for part in text.partition("="))
    if not (key and equals and value):
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    return key, value


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines; comments (#) and blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _split_assignment(line, f"{origin}:{lineno}")
        if key in out:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")  # a leading BOM is skipped
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config_text(text, origin=str(p))


def apply_override(raw: dict[str, str], assignment: str) -> None:
    """Apply one ``key=value`` override in place."""
    key, value = _split_assignment(assignment, "--set")
    raw[key] = value


def _convert(key: str, value, kind: type):
    """``value`` as ``kind``; a default (not a string) passes as it is."""
    if not isinstance(value, str) or kind is str:
        return value
    try:
        number = kind(value)
        finite = math.isfinite(number)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {value!r}") from exc
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"key {key!r}: must be finite")
    return number


# The largest position or speed a config may imply.  Tracking errors between
# such positions, squared and summed over any log that fits in memory (under
# 1e12 rows), stay below 1e213, far inside the float range; so huge but
# finite inputs are config errors, not false divergences.
_MAGNITUDE_CAP = 1e100
# The largest angle a config may set.  An angle carries the float spacing
# of its magnitude into every heading and reference angle of the run:
# 1.2e-10 rad at 1e6 rad, far below what tracking resolves, but 0.016 rad
# at 1e14 and 16384 rad at 1e20, where a run still exits 0, with
# meaningless errors.
_ANGLE_CAP = 1e6


def _check_magnitudes(resolved: dict) -> None:
    """Raise :class:`ConfigError` naming the first key whose implied
    position or speed exceeds :data:`_MAGNITUDE_CAP`: the reference's
    reach and speed, then the initial position and velocity.  The radius
    comes before the sums that contain it, so a huge radius is reported
    under its own key.  Then the same for an angle above
    :data:`_ANGLE_CAP`."""
    implied = []  # (key, expression, magnitude)
    if resolved["trajectory.variant"] == "line":
        implied.append(("trajectory.speed", "|speed| * duration",
                        abs(resolved["trajectory.speed"]) * abs(resolved["duration"])))
    else:
        radius = abs(resolved["trajectory.radius"])
        implied += [
            ("trajectory.radius", "radius", radius),
            ("trajectory.center_x", "|center_x| + radius",
             abs(resolved["trajectory.center_x"]) + radius),
            ("trajectory.center_y", "|center_y| + radius",
             abs(resolved["trajectory.center_y"]) + radius),
            ("trajectory.angular_rate", "radius * |angular_rate|",
             radius * abs(resolved["trajectory.angular_rate"])),
        ]
    for key in ("initial.x", "initial.y", "initial.u", "initial.v"):
        implied.append((key, f"|{key}|", abs(resolved[key])))
    for key, expression, value in implied:
        if not value <= _MAGNITUDE_CAP:
            raise ConfigError(
                f"key {key!r}: {expression} is {value:.4g}, above the "
                f"{_MAGNITUDE_CAP:g} cap on positions and speeds"
            )
    for key in ("trajectory.phase", "initial.psi"):
        value = abs(resolved.get(key, 0.0))
        if not value <= _ANGLE_CAP:
            raise ConfigError(f"key {key!r}: |{key}| is {value!r}, above the "
                              f"{_ANGLE_CAP:g} cap on angles")


def build_scenario(raw: dict[str, str]) -> tuple[ScenarioConfig, dict]:
    """Materialize a scenario from a flat mapping.

    Returns the config plus the fully resolved mapping (defaults and derived
    values included) used for the metrics echo and hash.
    """
    kind = raw.get("model.kind", _KEYS["model.kind"][0])
    variant = raw.get("trajectory.variant", _KEYS["trajectory.variant"][0])
    if kind not in ("hovercraft", "surface_vessel"):
        raise ConfigError(f"model.kind must be hovercraft or surface_vessel, got {kind!r}")
    if variant not in ("line", "circle"):
        raise ConfigError(f"trajectory.variant must be line or circle, got {variant!r}")
    if "heol.dt" in raw:
        raise ConfigError("heol.dt cannot be set: it is dt_plant * control_decimation")
    defaults = {k: d for k, (d, shape) in _KEYS.items() if shape in (None, kind, variant)}
    unknown = sorted(set(raw) - set(defaults) - {"controller_beta"})
    if unknown:
        raise ConfigError(
            "unknown config key(s) for this model/trajectory shape: "
            + ", ".join(unknown)
        )
    resolved = {k: _convert(k, raw.get(k, d), type(d)) for k, d in defaults.items()}
    default_beta = resolved["model.beta" if kind == "hovercraft" else "model.beta_u"]
    resolved["controller_beta"] = _convert(
        "controller_beta", raw.get("controller_beta", default_beta), float
    )

    # Each dataclass takes its prefix group, {suffix: value}; the top-level
    # keys form the group "".
    groups: dict[str, dict] = {}
    for key, value in resolved.items():
        prefix, _, name = key.rpartition(".")
        groups.setdefault(prefix, {})[name] = value
    model = groups["model"]
    del model["kind"]
    try:
        cfg = ScenarioConfig(
            model=(VesselParams.hovercraft(**model) if kind == "hovercraft"
                   else VesselParams(**model)),
            trajectory=TrajectorySpec(**groups["trajectory"]),
            initial_state=VesselState(**groups["initial"]),
            wind=InertialForce(**groups["wind"]),
            heol=HeolConfig(**groups["heol"]),
            autopilot=AutopilotGains(**groups["autopilot"]),
            **groups[""],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved["heol.dt"] = cfg.dt_ctrl
    _check_magnitudes(resolved)
    return cfg, resolved


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _temp_beside(path: Path, near: Path) -> tuple[int, str]:
    """Descriptor and name of a new empty file ``<path's name>.<random>.tmp``
    in ``near``, mode 0666 less the umask; a failure names ``path``."""
    while True:
        name = f"{near / path.name}.{os.urandom(4).hex()}.tmp"
        try:
            return os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), name
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None


@contextmanager
def _replacing(path: Path, tmp: str):
    """Rename ``tmp`` onto ``path`` after the block; on any failure remove
    ``tmp``, and raise an ``OSError`` with an errno again naming ``path``."""
    try:
        yield
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


@contextmanager
def _atomic_open(path: Path):
    """Text handle on a new temp file beside ``path``, whose contents
    replace ``path`` only on success."""
    fd, tmp = _temp_beside(path, path.parent)
    with _replacing(path, tmp), os.fdopen(fd, "w") as fh:
        yield fh


def _atomic_write_text(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_rows(fh, data: np.ndarray, lo: int, hi: int) -> None:
    """Format rows ``[lo, hi)`` of the log matrix ``data`` one engine block
    at a time, so the text held at once does not grow with the log; the
    header goes before row 0.  ``csv_text`` is imported here, so only a
    process that formats rows loads it: with a streamed log, the forked
    formatter and not the run."""
    from .csv_text import format_block

    if lo == 0:
        fh.write(CSV_HEADER + "\n")
    for i in range(lo, hi, sim_engine._LOG_BLOCK_ROWS):
        fh.write(format_block(data[i:min(i + sim_engine._LOG_BLOCK_ROWS, hi)]))


_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}
# Marks finish's row count, which the engine's last notice may equal.
_FINAL = 1 << 63


def _format_as_noticed(fd: int, tmp: str, data: np.ndarray, shared: mmap.mmap,
                       notices: int, write_end: int) -> NoReturn:
    """The forked formatter: write to ``fd``, the temp file ``tmp``, the
    header and the rows up to each row count read from the pipe
    ``notices``, until a count carries :data:`_FINAL`, then exit with 0.
    On an ``OSError`` it exits with its errno, on any other error with 255,
    and when the pipe closes before the final count (the run was killed)
    also with 255; each failure first removes ``tmp``.  ``write_end``, the
    parent's end of the pipe, is closed first.
    After each write it frees, with ``MADV_REMOVE``, the whole pages of
    ``shared``, the memory of the log matrix ``data``, that hold only rows
    it has written, which the engine never reads again; they then read as
    zeros, in the run too.  Where the option is missing or ``madvise``
    fails, the pages stay and formatting goes on.
    The formatter ignores ``SIGINT`` (on an interrupt the parent kills it)
    and is ended by ``SIGTERM`` as by default, whatever handler the parent
    has, and whether or not the parent held the two."""
    status = 255
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        os.close(write_end)
        remove = getattr(mmap, "MADV_REMOVE", None)
        with os.fdopen(fd, "w") as fh:
            done = freed = final = 0
            while not final and (got := os.read(notices, 1 << 16)):
                # Whole 8-byte notices: each write of one is atomic.
                rows = int.from_bytes(got[-8:], "little")
                final, rows = rows & _FINAL, rows & ~_FINAL
                _write_rows(fh, data, done, rows)
                done = rows
                end = done * _ROW.size // mmap.PAGESIZE * mmap.PAGESIZE
                if remove is not None and end > freed:
                    with suppress(OSError):
                        shared.madvise(remove, freed, end - freed)
                        freed = end
        if final:
            status = 0
    except OSError as exc:
        if exc.errno and exc.errno < 255:
            status = exc.errno
    finally:
        if status:
            with suppress(OSError):
                os.unlink(tmp)
        os._exit(status)


class _CsvStream(sim_engine._LogSink):
    """``log.csv`` of the run in progress, formatted beside the run.

    As the run's log sink it first makes a temp file in the nearest
    directory of ``path`` that exists (it makes no directory; a path it
    cannot write fails the run before it starts, naming ``path``), then
    keeps the log matrix in anonymous shared memory and forks one
    formatter, which writes the header and each block the engine reports
    finished to the temp file; each report is a row count written to a
    pipe, and that write also orders the memory the formatter reads.  The
    formatter frees the rows it has written, which the engine never reads
    again (see :func:`_format_as_noticed`), so ``data`` then holds zeros
    there.  Where forking is not possible or safe, or only one CPU
    is usable, no formatter runs: the temp file, made only to check
    ``path``, is removed at once, the stream holds no file, and no row is
    freed.  Before each notice the stream folds the finished rows into
    :attr:`summary`, a :class:`_LogSummary` of what the run reads of its
    log after the loop (``decimation`` is the run's tick spacing).
    :meth:`finish`, called once ``path``'s directory exists, has the
    formatter complete the temp file and renames it to ``path``; a failure
    names ``path``.  :meth:`close` kills and reaps a formatter still
    running and removes the temp file.  A formatter whose run dies before
    :meth:`finish`, which alone sends the final notice, removes the temp
    file itself.

    As a ``with`` block it is the log sink of the one run inside the block,
    which :func:`write_csv` finishes if a formatter runs; on leaving, the
    previous sink is put back and the stream closed.
    """

    def __init__(self, path: Path, decimation: int):
        self.path = path
        self.decimation = decimation
        self.data: np.ndarray | None = None  # the run's log matrix
        self.summary: _LogSummary | None = None
        self._tmp: str | None = None  # the formatter's temp file
        self._pid: int | None = None  # the formatter
        self._notices: int | None = None  # write end of the notice pipe

    def __enter__(self):
        self._saved = sim_engine._log_sink
        sim_engine._log_sink = self
        return self

    def __exit__(self, *exc_info) -> None:
        sim_engine._log_sink = self._saved
        self.close()

    def matrix(self, rows: int) -> np.ndarray:
        near = self.path.parent
        while not near.exists() and near != near.parent:
            near = near.parent
        fd, self._tmp = _temp_beside(self.path, near)
        try:
            shared = mmap.mmap(-1, rows * _ROW.size)
            self.data = np.frombuffer(shared).reshape(rows, -1)
            self.summary = _LogSummary(rows, self.decimation)
            # Fork only where it exists and no other thread runs; on one CPU
            # the formatter would only take turns with the run.
            if hasattr(os, "fork") and threading.active_count() == 1 and _usable_cpus() > 1:
                # Hold SIGINT and SIGTERM over the fork: one that arrives
                # meanwhile is handled once the formatter's pid is recorded.
                held = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
                try:
                    notices, self._notices = os.pipe()
                    try:
                        self._pid = os.fork()
                        if not self._pid:
                            _format_as_noticed(fd, self._tmp, self.data, shared,
                                               notices, self._notices)
                    finally:
                        os.close(notices)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
        finally:
            os.close(fd)  # the formatter writes through its own copy
        if self._pid is None:
            self.close()  # the path is checked; write_csv writes the log
        return self.data

    def finished(self, rows: int) -> None:
        self.summary.fold(self.data, rows)
        self._notify(rows)

    def _notify(self, rows: int) -> None:
        """Tell the formatter, if one runs, to write the rows up to ``rows``."""
        if self._notices is not None:
            with suppress(BrokenPipeError):  # the formatter died; finish() reports how
                os.write(self._notices, rows.to_bytes(8, "little"))

    def finish(self, rows: int) -> None:
        """Have the formatter write the rows up to ``rows`` to the temp
        file, reap it, and rename the temp file to ``path``; raises the
        formatter's failure as an ``OSError``."""
        with _replacing(self.path, self._tmp):
            self._notify(rows | _FINAL)
            os.close(self._notices)
            self._notices = None
            status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
            self._pid = None
            if 0 < status < 255:
                raise OSError(status, os.strerror(status))
            if status:
                raise OSError(f"formatting {self.path} failed (exit status {status})")
        self._tmp = None

    def close(self) -> None:
        if self._notices is not None:
            os.close(self._notices)
            self._notices = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._tmp is not None:
            with suppress(FileNotFoundError):
                os.unlink(self._tmp)
            self._tmp = None


def write_csv(log: RunLog, path: Path) -> None:
    """Full-rate log in the fixed column schema, full float precision.

    Where ``log`` is that of a :class:`_CsvStream` whose formatter runs,
    the stream writes it; otherwise this process does, in blocks, so that
    its memory does not grow with the log.  On any error the temp file is
    removed, ``path`` is left as it was, and an ``OSError`` names ``path``.
    """
    stream = sim_engine._log_sink
    if (isinstance(stream, _CsvStream) and stream._pid is not None
            and log.data is stream.data and path == stream.path):
        stream.finish(len(log))
        return
    with _atomic_open(path) as fh:
        _write_rows(fh, log.data, 0, len(log))


def write_metrics(
    metrics: RunMetrics, resolved: dict, path: Path
) -> None:
    payload = {
        **dataclasses.asdict(metrics),
        "tool_version": __version__,
        "config_hash": config_hash(resolved),
        "resolved_config": resolved,
    }
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Rows per fold of _column_ranges: the matrix is reduced as rows of 128
# log rows, 2,304 values, which numpy reduces several times faster than the
# 18-value rows of the log or each strided column.
_FOLD_ROWS = 128


def _column_ranges(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum and maximum of the C-contiguous matrix
    ``data`` (at least one row): one pass over the matrix for each.  A
    column holding NaN has NaN for both, as ``np.min`` and ``np.max``
    give; a zero may come out with either sign."""
    rows, columns = data.shape
    head = rows - rows % _FOLD_ROWS
    lo = hi = data[head:]  # the rows the fold leaves
    if head:
        wide = data[:head].reshape(-1, _FOLD_ROWS * columns)
        lo = np.vstack((wide.min(axis=0).reshape(_FOLD_ROWS, columns), lo))
        hi = np.vstack((wide.max(axis=0).reshape(_FOLD_ROWS, columns), hi))
    return lo.min(axis=0), hi.max(axis=0)


_T, _F_U = _COLUMNS.index("t"), _COLUMNS.index("F_u")
# The plots' point budget: they draw every stride-th row of the log from the
# first, and the last, at the stride ``max(1, rows // _PLOT_POINTS)``; so
# each curve has fewer than ``2 * _PLOT_POINTS`` points.
_PLOT_POINTS = 2000


class _LogSummary:
    """What ``heolsim run`` reads of a log of ``rows`` rows besides its
    metrics, folded in as rows become final, so that no row is read twice:
    each column's minimum and maximum (``lo``, ``hi``), the rows the plots
    draw (:attr:`points`, on the grid of :data:`_PLOT_POINTS`), and the
    count and the first and last time of the guidance's fallback ticks (the
    tick rows, every ``decimation``-th, whose ``F_u`` is ``0.0``; see
    ``RunLog``)."""

    def __init__(self, rows: int, decimation: int):
        self.rows = rows
        self.decimation = decimation
        self.stride = max(1, rows // _PLOT_POINTS)
        self.done = 0   # rows folded in
        self.lo = np.full(len(_COLUMNS), np.inf)
        self.hi = np.full(len(_COLUMNS), -np.inf)
        self._points: list[np.ndarray] = []
        self.fallbacks = 0
        self.first_fallback: float | None = None
        self.last_fallback: float | None = None

    def fold(self, data: np.ndarray, rows: int) -> None:
        """Fold in rows ``[done, rows)`` of the log matrix ``data``."""
        lo = self.done
        if rows <= lo:
            return
        self.done = rows
        block = data[lo:rows]
        block_lo, block_hi = _column_ranges(block)
        np.minimum(self.lo, block_lo, out=self.lo)
        np.maximum(self.hi, block_hi, out=self.hi)
        self._points.append(block[-lo % self.stride::self.stride].copy())
        if rows == self.rows and (rows - 1) % self.stride:
            self._points.append(block[-1:].copy())
        ticks = block[-lo % self.decimation::self.decimation]
        times = ticks[ticks[:, _F_U] == 0.0, _T]
        if times.size:
            self.fallbacks += times.size
            if self.first_fallback is None:
                self.first_fallback = float(times[0])
            self.last_fallback = float(times[-1])

    @property
    def points(self) -> RunLog:
        """The rows the plots draw, as a log of their own."""
        return RunLog(np.concatenate(self._points))


def _render_plots(summary: _LogSummary, resolved: dict) -> dict[str, str]:
    """The three SVG plots of a run, by file name, from its summary: every
    axis range from the columns' ranges, every curve from the rows on the
    plots' grid."""
    lo, hi = (dict(zip(_COLUMNS, ends.tolist())) for ends in (summary.lo, summary.hi))
    log = summary.points

    def span(*names):
        return min(lo[n] for n in names), max(hi[n] for n in names)

    fx, fy = resolved["wind.fx"], resolved["wind.fy"]
    f_lo, f_hi = span("F_hat_x", "F_hat_y")
    ends = log.t[[0, -1]]
    return {
        "trajectory_xy.svg": render_plot(
            "Planar trajectory", "x [m]", "y [m]",
            [
                Series("reference", log.x_ref, log.y_ref, "black", dashed=True),
                Series("vehicle", log.x, log.y, "#1f77b4"),
            ],
            span("x_ref", "x"), span("y_ref", "y"),
        ),
        "errors_vs_time.svg": render_plot(
            "Tracking errors", "t [s]", "error [m]",
            [
                Series("e_x", log.t, log.e_x, "#1f77b4"),
                Series("e_y", log.t, log.e_y, "#ff7f0e"),
            ],
            span("t"), span("e_x", "e_y"),
        ),
        # The wind lines span the time axis's ends, inside t's range.
        "estimates_vs_time.svg": render_plot(
            "Disturbance estimates", "t [s]", "acceleration [m/s^2]",
            [
                Series("F_hat_x", log.t, log.F_hat_x, "#1f77b4"),
                Series("F_hat_y", log.t, log.F_hat_y, "#ff7f0e"),
                Series("wind fx", ends, np.full(2, fx), "gray", dashed=True),
                Series("wind fy", ends, np.full(2, fy), "black", dashed=True),
            ],
            span("t"), (min(f_lo, fx, fy), max(f_hi, fx, fy)),
        ),
    }


def write_plots(plots: dict[str, str], out_dir: Path) -> None:
    """Write each rendered plot text to its file name in ``out_dir``."""
    for name, text in plots.items():
        _atomic_write_text(out_dir / name, text)


def _metrics_line(metrics: RunMetrics) -> str:
    return " ".join(
        f"{name}={'none' if value is None else format(value, '.6g')}"
        for name, value in dataclasses.asdict(metrics).items()
    )


class _Terminated(BaseException):
    """``SIGTERM`` arrived during ``heolsim run``."""


@contextmanager
def _cleanup_on_sigterm():
    """Within the block a ``SIGTERM`` raises :class:`_Terminated`, so the
    block's cleanup runs (the streamed writer kills and reaps its
    formatter and removes its temp file).  Then the default handler is put
    back and the signal sent again, so the process still ends killed by
    ``SIGTERM``.  Only the main thread takes signals, and a handler
    installed by someone else is left alone."""
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL):
        yield
        return

    def terminate(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # clean up once
        raise _Terminated

    signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        raise SystemExit(128 + signal.SIGTERM)  # only if the signal is blocked
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _cmd_run(config_path: str, out_dir: str, overrides: list[str]) -> int:
    raw = parse_config_file(config_path)
    for assignment in overrides:
        apply_override(raw, assignment)
    cfg, resolved = build_scenario(raw)
    out = Path(out_dir)
    with _CsvStream(out / "log.csv", cfg.control_decimation) as stream:
        log, metrics = run_scenario(cfg)
        summary = stream.summary
        # Rendered while a streamed log's formatter writes its last rows.
        plots = _render_plots(summary, resolved)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(log, out / "log.csv")
    write_metrics(metrics, resolved, out / "metrics.json")
    write_plots(plots, out)
    if summary.fallbacks:
        print(
            f"note: guidance fallback engaged at {summary.fallbacks} tick(s), "
            f"first at t={summary.first_fallback!r}, last at t={summary.last_fallback!r}",
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
            with _cleanup_on_sigterm():
                return _cmd_run(args.config, args.out_dir, args.overrides)
        return _cmd_emit_scenarios(args.out_dir)
    except (ConfigError, OSError) as exc:
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
