"""Fixed-step closed-loop simulation of the guidance/control cascade.

Wiring per control tick: sample the reference, run the outer loop on the
measured position and inertial velocity, reconstruct ``(psi_ref, Fu)`` from
the commanded chain accelerations, then let the heading autopilot produce
the yaw moment at every plant step while the plant integrates under wind.
Every plant step is logged at full rate so the runs can be plotted and
post-processed without re-simulation.
"""

from __future__ import annotations

import operator
import os
import struct
import sys
from bisect import bisect_left
from dataclasses import asdict, astuple, dataclass, field
from math import cos, inf, isfinite, sin

import numpy as np

from .flat_guidance import (
    SingularityError,
    physical_from_brunovsky,
    unwrap_heading,
)
from .heading_autopilot import AutopilotGains, AutopilotState, autopilot_step
from .heol_control import HeolConfig, SampleWindow, heol_step
from .reference_trajectory import TrajectorySpec, sample
from .vessel_dynamics import (
    InertialForce,
    VesselDerivative,
    VesselParams,
    VesselState,
)

__all__ = [
    "NonFiniteState",
    "ScenarioConfig",
    "RunLog",
    "RunMetrics",
    "rk4_step",
    "run_scenario",
]


# Columns of the per-step log, in log-matrix and CSV order.  The tracking
# errors are ``x_ref - x`` and ``y_ref - y``.
_COLUMNS = (
    "t", "x", "y", "psi", "u", "v", "r",
    "x_ref", "y_ref", "e_x", "e_y", "F_hat_x", "F_hat_y",
    "w_x", "w_y", "F_u", "psi_ref", "Gamma_r",
)
_ROW = struct.Struct(f"{len(_COLUMNS)}d")
_T, _F_U = _COLUMNS.index("t"), _COLUMNS.index("F_u")
_E_X, _E_Y = _COLUMNS.index("e_x"), _COLUMNS.index("e_y")
# The columns the metrics read, adjacent in each row: e_x, e_y, F_hat_x, F_hat_y.
_METRICS = slice(_E_X, _E_X + 4)
# Rows the engine finishes between two notices to its log sink.
_LOG_BLOCK_ROWS = 4096


class NonFiniteState(RuntimeError):
    """State left the finite range: the simulation blew up.

    When the scenario runner raises it for a plant step, ``step`` and ``t``
    name the step that diverged and its start time, ``state`` is the last
    finite state and ``inputs`` the ``(F_u, Gamma_r)`` held over the step;
    they are ``None`` otherwise, as for a run metric that overflows.
    """

    def __init__(self, message: str, step=None, t=None, state=None, inputs=None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.state = state
        self.inputs = inputs


def _memory_bytes() -> int:
    """Physical memory of the machine; the index limit where it is unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


@dataclass
class ScenarioConfig:
    """Complete declarative description of one simulation run.

    ``controller_beta`` is the drag rate the guidance assumes; it may
    deliberately differ from the plant's (model-mismatch studies pick one
    of the plant's two damping rates).  The controller runs every
    ``control_decimation``-th plant step, so its period is :attr:`dt_ctrl`,
    and the estimation horizon ``heol.T`` must span at least 10 periods.
    ``duration / dt_plant`` must round to at least one step and give a
    log, and the horizon over the period an estimator window, that fit in
    the machine's physical memory.
    """

    model: VesselParams
    trajectory: TrajectorySpec
    controller_beta: float
    initial_state: VesselState = field(default_factory=VesselState)
    wind: InertialForce = InertialForce()
    heol: HeolConfig = HeolConfig()
    autopilot: AutopilotGains = AutopilotGains()
    duration: float = 60.0
    dt_plant: float = 1e-3
    control_decimation: int = 1
    convergence_threshold: float = 0.5

    def __post_init__(self):
        if not self.dt_plant > 0.0:
            raise ValueError("plant step must be positive")
        if not self.duration / self.dt_plant > 0.5:  # round() gives no step
            raise ValueError(f"duration {self.duration!r} is not positive or "
                             f"shorter than half a plant step ({self.dt_plant!r})")
        # The tick test ``i % control_decimation == 0`` and the window's
        # grid ``dt_ctrl`` agree only for an integer.
        try:
            operator.index(self.control_decimation)
        except TypeError:
            raise ValueError(f"control decimation must be an integer, not "
                             f"{self.control_decimation!r}") from None
        if self.control_decimation < 1:
            raise ValueError("control decimation must be at least 1")
        if not 0.0 < self.controller_beta < inf:
            raise ValueError("controller drag rate must be positive and finite")
        if not 0.0 < self.convergence_threshold < inf:
            raise ValueError("convergence threshold must be positive and finite")
        if not 10.0 * self.dt_ctrl <= self.heol.T:
            raise ValueError(
                "estimation horizon heol.T must span at least 10 controller "
                "periods (dt_plant * control_decimation)"
            )
        steps = self.duration / self.dt_plant
        memory = _memory_bytes()
        if not (steps + 1.0) * _ROW.size <= memory:
            raise ValueError(
                f"duration / dt_plant gives {steps:.4g} plant steps, whose log "
                f"would need {(steps + 1.0) * _ROW.size / 1e9:.4g} GB; "
                f"this machine has {memory / 1e9:.4g} GB"
            )
        samples = self.heol.T / self.dt_ctrl + 2.0  # bounds the window's m samples
        window_bytes = samples * SampleWindow.BYTES_PER_SAMPLE
        if not window_bytes <= memory:
            raise ValueError(
                f"heol.T / controller period gives a window of {samples:.4g} "
                f"samples, which would need {window_bytes / 1e9:.4g} GB; "
                f"this machine has {memory / 1e9:.4g} GB"
            )

    @property
    def dt_ctrl(self) -> float:
        """The controller period: ``dt_plant * control_decimation``."""
        return self.dt_plant * self.control_decimation


class RunLog:
    """Uniform-grid time series of every signal in the loop.

    ``data`` is the engine's ``(rows, len(_COLUMNS))`` log matrix; each
    entry of ``_COLUMNS`` names a view of its column.  The guidance fell
    back (hold heading, zero thrust) exactly at the tick rows (every
    ``control_decimation``-th) whose ``F_u`` is ``0.0``: the fallback sets
    it; a regular tick has ``max(|d|, |n|) >= SINGULARITY_EPS``, so its
    ``hypot`` is at least 1e-9; a non-finite ``F_u`` raises before its row
    is packed; and rows between ticks hold the last tick's ``F_u``.
    ``fallbacks`` is the count of those ticks and the first and last of
    their times, which the engine's fold reads (:func:`_fold`); it is
    ``(0, None, None)`` for a log built from a bare matrix.
    The engine reads no row of ``data`` again once its log sink has been
    told the row is final, so under ``heolsim run``, whose log formatter
    frees the whole pages of the rows it has written, those read as zeros.
    """

    def __init__(self, data: np.ndarray, fallbacks: tuple = (0, None, None)):
        self.data = data
        self.fallbacks = fallbacks
        for i, name in enumerate(_COLUMNS):
            setattr(self, name, data[:, i])

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class RunMetrics:
    """Scalar summary of a run: its fields, in order, are the metrics that
    ``metrics.json`` and the CLI's line report.  The errors and estimates
    are evaluated over the final half; the convergence time is the first
    instant after which the planar error norm stays below the threshold,
    ``None`` if it never does.
    """

    rms_error_x: float
    rms_error_y: float
    convergence_time: float | None
    F_hat_x_mean: float
    F_hat_y_mean: float


def rk4_step(plant, state, fu: float, gamma_r: float, dt: float):
    """Classical fourth-order integration step with the inputs ``fu`` and
    ``gamma_r`` held, taken by the plant's own unrolled step,
    ``plant.rk4(state, fu, gamma_r, dt)`` (see
    :class:`~heolsim.vessel_dynamics.VesselDerivative`).

    Raises :class:`NonFiniteState` if a stage angle or the result is non-finite.
    """
    try:
        out = plant.rk4(state, fu, gamma_r, dt)
    except ValueError as exc:
        raise NonFiniteState(f"non-finite stage angle in a step from {tuple(state)}") from exc
    # Any NaN or infinity makes the sum non-finite; so may an overflow.  A
    # float start keeps sum() on its float loop.
    if not isfinite(sum(out, 0.0)) and not all(map(isfinite, out)):
        raise NonFiniteState(f"non-finite state component: {out}")
    return out


def _first_row_at(t: float, dt: float, rows: int) -> int:
    """The first of ``rows`` rows of the grid ``i * dt`` whose time is at
    least ``t``, or ``rows`` if none is: ``np.searchsorted`` on the grid,
    without the grid."""
    return bisect_left(range(rows), t, key=lambda i: i * dt)


def _fold(settled: int, fallbacks: tuple, final: np.ndarray, data: np.ndarray,
          lo: int, hi: int, threshold: float, decimation: int) -> tuple[int, tuple]:
    """Fold rows ``[lo, hi)`` of the log matrix ``data``, with a tick every
    ``decimation`` rows from row 0, into what the run reports.  ``final``
    is the ``(4, n)`` copy of the metric columns over the final half, the
    last ``n`` rows of ``data``: the block's rows there are copied into it.
    ``settled``, the row after the last one before ``lo`` whose planar
    error norm is not below ``threshold`` (0 if none is), is returned
    carried over the block with one ``np.hypot``; a NaN norm is not below
    it.  ``fallbacks``, the count and the first and last time of the
    fallback ticks before ``lo`` (see :class:`RunLog`), is returned with
    the block's."""
    k = len(data) - final.shape[1]
    if hi > k:
        final[:, max(lo - k, 0):hi - k] = data[max(lo, k):hi, _METRICS].T
    ticks = data[lo + -lo % decimation:hi:decimation]
    times = ticks[ticks[:, _F_U] == 0.0, _T]
    if times.size:
        count, first, _ = fallbacks
        fallbacks = (count + times.size, first if count else float(times[0]),
                     float(times[-1]))
    outside = np.flatnonzero(~(np.hypot(data[lo:hi, _E_X], data[lo:hi, _E_Y]) < threshold))
    return (lo + int(outside[-1]) + 1 if outside.size else settled), fallbacks


def _compute_metrics(final: np.ndarray, convergence_time: float | None) -> RunMetrics:
    """Summary of a finite run from ``final``, the rows ``e_x, e_y,
    F_hat_x, F_hat_y`` over its final half that :func:`_fold` copied, with
    the convergence time the fold found; raises :class:`NonFiniteState`
    naming the first metric that overflows (a state that grew huge but
    stayed finite).

    It holds at most one final-half row of temporaries at a time.
    """
    e_x, e_y, F_hat_x, F_hat_y = final
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = RunMetrics(
            rms_error_x=float(np.sqrt(np.mean(e_x ** 2))),
            rms_error_y=float(np.sqrt(np.mean(e_y ** 2))),
            convergence_time=convergence_time,
            # Each mean reads a contiguous array (the squares, or a row of
            # ``final``), whose pairwise sum does not depend on how numpy
            # iterates over a strided column.
            F_hat_x_mean=float(np.mean(F_hat_x)),
            F_hat_y_mean=float(np.mean(F_hat_y)),
        )
    for name, value in asdict(metrics).items():
        if value is not None and not isfinite(value):
            raise NonFiniteState(
                f"metric {name} is {value!r}: the logged state stayed "
                f"finite but grew past the float range of the metrics"
            )
    return metrics


class _LogSink:
    """Where :func:`run_scenario` keeps its log matrix, and whom it tells
    as rows become final.  This one keeps the matrix in private memory and
    tells no one; a writer that formats the log during the run installs its
    own as ``_log_sink`` (``scenario_cli._CsvStream`` does, as a ``with``
    block)."""

    def matrix(self, rows: int) -> np.ndarray:
        """An uninitialised ``(rows, len(_COLUMNS))`` float64 matrix."""
        return np.empty((rows, len(_COLUMNS)))

    def finished(self, rows: int) -> None:
        """Rows ``[0, rows)`` of the matrix hold their final values: the
        engine packs each row once, complete, and has folded it into what
        the run reports (its metrics and fallbacks); it never writes or
        reads these rows again."""


_log_sink = _LogSink()


def run_scenario(cfg: ScenarioConfig) -> tuple[RunLog, RunMetrics]:
    """Simulate one scenario; returns the full log and its summary.

    The run is strictly sequential and fully deterministic: identical
    configurations produce bit-identical logs.  Raises
    :class:`NonFiniteState` if the plant state diverges; it carries the
    step, its start time, the last finite state and the held inputs.  A
    state that stays finite but overflows a metric raises it without them.
    The log matrix comes from the installed log sink (``_log_sink``).
    Each plant step packs its row once, complete with its errors, and the
    sink is told after every ``_LOG_BLOCK_ROWS`` rows that they are final;
    a diverged run leaves its packed rows final too.  Before each notice
    the engine folds the block into what the run reports (:func:`_fold`):
    it scans the block for the convergence time, counts its fallback ticks
    into the log's ``fallbacks``, and copies its rows in the final half of
    the four metric columns into one contiguous buffer, from which the
    metrics are computed after the loop.  A sink may discard the rows it
    has been told are final, so the log returned holds them only where its
    sink kept them (the default sink keeps every row).
    """
    dt = cfg.dt_plant
    decim = cfg.control_decimation
    beta_ctrl = cfg.controller_beta
    traj = cfg.trajectory
    heol_cfg = cfg.heol
    ap_gains = cfg.autopilot
    plant = VesselDerivative(cfg.model, cfg.wind)

    n_steps = round(cfg.duration / dt)
    threshold = cfg.convergence_threshold
    # The first row of the final half, t >= duration / 2, on the grid the
    # loop logs.  (A closure over dt here would make every read of it in
    # the loop slower.)
    k = _first_row_at(0.5 * cfg.duration, dt, n_steps + 1)
    settled = 0   # the row after the last one outside the threshold
    fallbacks = (0, None, None)
    sink = _log_sink
    data = sink.matrix(n_steps + 1)
    final = np.empty((4, n_steps + 1 - k))   # the _METRICS columns from row k

    window = SampleWindow(heol_cfg.T, cfg.dt_ctrl)
    ap_state = AutopilotState()
    state = astuple(cfg.initial_state)
    # Before the first (possibly singular) guidance output there is no
    # heading reference; holding the initial heading is the benign choice.
    psi_ref = state[2]
    fu = gamma_r = 0.0
    # Packing the rows' doubles into the matrix's bytes beats numpy setitem.
    pack_row, row_size = _ROW.pack_into, _ROW.size
    cells = memoryview(data).cast("B")

    try:
        for lo in range(0, n_steps + 1, _LOG_BLOCK_ROWS):
            hi = min(lo + _LOG_BLOCK_ROWS, n_steps + 1)
            for i in range(lo, hi):
                t = i * dt
                x_d, y_d = sample(traj, t)
                px, py, psi, u, v, r = state
                e_x = x_d[0] - px
                e_y = y_d[0] - py
                # Row 0 is a tick, so the tick's outputs are set before use.
                if i % decim == 0:
                    cp = cos(psi)
                    sp = sin(psi)
                    w_x, w_y, F_hat_x, F_hat_y = heol_step(
                        x_d, y_d, e_x, e_y, u * cp - v * sp, u * sp + v * cp,
                        heol_cfg, window,
                    )
                    try:
                        psi_raw, fu = physical_from_brunovsky(
                            w_x, w_y, x_d[1], y_d[1], beta_ctrl
                        )
                        if not isfinite(fu):
                            raise NonFiniteState(
                                f"non-finite guidance output F_u = {fu!r}"
                            )
                        psi_ref = unwrap_heading(psi_ref, psi_raw)
                    except SingularityError:
                        fu = 0.0
                gamma_r = autopilot_step(psi_ref, psi, r, ap_gains, ap_state, dt)
                pack_row(
                    cells, i * row_size,
                    t, px, py, psi, u, v, r, x_d[0], y_d[0], e_x, e_y,
                    F_hat_x, F_hat_y, w_x, w_y, fu, psi_ref, gamma_r,
                )
                if i < n_steps:
                    state = rk4_step(plant, state, fu, gamma_r, dt)
            settled, fallbacks = _fold(settled, fallbacks, final, data, lo, hi,
                                       threshold, decim)
            sink.finished(hi)
    except NonFiniteState as exc:
        raise NonFiniteState(
            f"last finite state {state}, held inputs "
            f"(F_u, Gamma_r) = ({fu!r}, {gamma_r!r}); {exc}",
            step=i, t=t, state=state, inputs=(fu, gamma_r),
        ) from exc
    finally:
        cells.release()

    metrics = _compute_metrics(final, settled * dt if settled <= n_steps else None)
    return RunLog(data, fallbacks), metrics
