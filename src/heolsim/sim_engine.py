"""Fixed-step closed-loop simulation of the guidance/control cascade.

Wiring per control tick: sample the reference, run the outer loop on the
measured position and inertial velocity, reconstruct ``(psi_ref, Fu)`` from
the commanded chain accelerations, then let the heading autopilot produce
the yaw moment at every plant step while the plant integrates under wind.
Every plant step is logged at full rate so the runs can be plotted and
post-processed without re-simulation.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from .flat_guidance import (
    BrunovskyInputs,
    SingularityError,
    physical_from_brunovsky,
    unwrap_heading,
)
from .heading_autopilot import AutopilotGains, AutopilotState, autopilot_step
from .heol_control import HeolAxisState, HeolConfig, SampleWindow, heol_step
from .reference_trajectory import TrajectorySpec, sample
from .vessel_dynamics import (
    InertialForce,
    NonFiniteState,
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
    "body_to_inertial_velocity",
    "run_scenario",
]


# Columns of the per-step log, in log-matrix and CSV order.  The tracking
# errors are ``x_ref - x`` and ``y_ref - y``.
_COLUMNS = (
    "t", "x", "y", "psi", "u", "v", "r",
    "x_ref", "y_ref", "e_x", "e_y", "F_hat_x", "F_hat_y",
    "w_x", "w_y", "F_u", "psi_ref", "Gamma_r",
)
_ROW_BYTES = 8 * len(_COLUMNS)
# Rows the engine finishes between two notices to its log sink.
_LOG_BLOCK_ROWS = 4096


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
    ``control_decimation``-th plant step.  ``duration / dt_plant`` must
    round to at least one step and give a log, and the estimation horizon
    over the controller period two estimator windows, that fit in the
    machine's physical memory.
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
        if self.dt_plant <= 0.0:
            raise ValueError("plant step must be positive")
        if not self.duration / self.dt_plant > 0.5:  # round() gives no step
            raise ValueError(f"duration {self.duration!r} is not positive or "
                             f"shorter than half a plant step ({self.dt_plant!r})")
        if self.control_decimation < 1:
            raise ValueError("control decimation must be at least 1")
        if self.controller_beta <= 0.0:
            raise ValueError("controller drag rate must be positive")
        if not self.convergence_threshold > 0.0:
            raise ValueError("convergence threshold must be positive")
        dt_ctrl = self.dt_plant * self.control_decimation
        if abs(self.heol.dt - dt_ctrl) > 1e-9 * max(dt_ctrl, 1.0):
            raise ValueError(
                "controller period must equal dt_plant * control_decimation"
            )
        steps = self.duration / self.dt_plant
        memory = _memory_bytes()
        if not (steps + 1.0) * _ROW_BYTES <= memory:
            raise ValueError(
                f"duration / dt_plant gives {steps:.4g} plant steps, whose log "
                f"would need {(steps + 1.0) * _ROW_BYTES / 1e9:.4g} GB; "
                f"this machine has {memory / 1e9:.4g} GB"
            )
        samples = self.heol.T / dt_ctrl + 2.0  # bounds window_capacity()
        window_bytes = 2.0 * samples * SampleWindow.BYTES_PER_SAMPLE
        if not window_bytes <= memory:
            raise ValueError(
                f"heol.T / controller period gives windows of {samples:.4g} "
                f"samples, whose two axes would need {window_bytes / 1e9:.4g} GB; "
                f"this machine has {memory / 1e9:.4g} GB"
            )


class RunLog(make_dataclass(
    "RunLog",
    [(name, np.ndarray) for name in _COLUMNS]
    + [("events", list, field(default_factory=list))],
)):
    """Uniform-grid time series of every signal in the loop, one field per
    entry of ``_COLUMNS``.

    ``events`` holds the times at which the guidance reconstruction was
    singular and the fallback (hold heading, zero thrust) was applied.
    """

    @classmethod
    def _from_matrix(cls, data: np.ndarray, events: list[float]) -> "RunLog":
        cols = {name: data[:, i] for i, name in enumerate(_COLUMNS)}
        return cls(events=events, **cols)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class RunMetrics:
    """Scalar summary of a run, evaluated over the final half.

    ``convergence_time`` is the first instant after which the planar error
    norm stays below the threshold; ``None`` if it never does.
    """

    rms_error_x: float
    rms_error_y: float
    convergence_time: float | None
    F_hat_x_mean: float
    F_hat_y_mean: float


def rk4_step(deriv_fn, state, dt: float):
    """Classical fourth-order integration step with inputs held constant.

    ``state`` is any float sequence; a tuple of the same length is
    returned.  A derivative that carries its own unrolled step as
    ``deriv_fn.rk4(state, dt)`` is stepped by it (see
    :class:`~heolsim.vessel_dynamics.VesselDerivative`); it must give the
    same bits as the generic stages below.  Raises :class:`NonFiniteState`
    if the result leaves the finite range.
    """
    unrolled = getattr(deriv_fn, "rk4", None)
    if unrolled is not None:
        out = unrolled(state, dt)
    else:
        k1 = deriv_fn(state)
        half = 0.5 * dt
        k2 = deriv_fn([s + half * k for s, k in zip(state, k1)])
        k3 = deriv_fn([s + half * k for s, k in zip(state, k2)])
        k4 = deriv_fn([s + dt * k for s, k in zip(state, k3)])
        sixth = dt / 6.0
        out = tuple([
            s + sixth * (a + 2.0 * (b + c) + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ])
    if not all(map(math.isfinite, out)):
        raise NonFiniteState(f"non-finite state component: {out}")
    return out


def body_to_inertial_velocity(state) -> tuple[float, float]:
    """Rotate the body-frame velocity of ``(x, y, psi, u, v, r)`` to the
    inertial frame."""
    _, _, psi, u, v, _ = state
    c = math.cos(psi)
    s = math.sin(psi)
    return u * c - v * s, u * s + v * c


def _compute_metrics(log: RunLog, duration: float, threshold: float) -> RunMetrics:
    """Summary of a finite log; raises :class:`NonFiniteState` naming the
    first metric that overflows (a state that grew huge but stayed finite).
    """
    t = log.t
    half = t >= 0.5 * duration
    err_norm = np.hypot(log.e_x, log.e_y)
    inside = err_norm < threshold
    if not inside[-1]:
        conv = None
    else:
        outside = np.flatnonzero(~inside)
        conv = float(t[outside[-1] + 1]) if outside.size else float(t[0])
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = RunMetrics(
            rms_error_x=float(np.sqrt(np.mean(log.e_x[half] ** 2))),
            rms_error_y=float(np.sqrt(np.mean(log.e_y[half] ** 2))),
            convergence_time=conv,
            F_hat_x_mean=float(np.mean(log.F_hat_x[half])),
            F_hat_y_mean=float(np.mean(log.F_hat_y[half])),
        )
    for name in ("rms_error_x", "rms_error_y", "F_hat_x_mean", "F_hat_y_mean"):
        value = getattr(metrics, name)
        if not math.isfinite(value):
            raise NonFiniteState(
                f"metric {name} is {value!r}: the logged state stayed "
                f"finite but grew past the float range of the metrics"
            )
    return metrics


class _LogSink:
    """Where :func:`run_scenario` keeps its log matrix, and whom it tells
    as rows become final.  This one keeps the matrix in private memory and
    tells no one; a writer that formats the log during the run installs its
    own with :func:`_logging_to`."""

    def matrix(self, rows: int) -> np.ndarray:
        """An uninitialised ``(rows, len(_COLUMNS))`` float64 matrix."""
        return np.empty((rows, len(_COLUMNS)))

    def finished(self, rows: int) -> None:
        """Rows ``[0, rows)`` of the matrix hold their final values."""


_log_sink = _LogSink()


@contextmanager
def _logging_to(sink):
    """Give the logs of the runs inside the block to ``sink``."""
    global _log_sink
    saved, _log_sink = _log_sink, sink
    try:
        yield sink
    finally:
        _log_sink = saved


def run_scenario(cfg: ScenarioConfig) -> tuple[RunLog, RunMetrics]:
    """Simulate one scenario; returns the full log and its summary.

    The run is strictly sequential and fully deterministic: identical
    configurations produce bit-identical logs.  Raises
    :class:`NonFiniteState` if the plant state diverges; it carries the
    step, its start time, the last finite state and the held inputs.  A
    state that stays finite but overflows a metric raises it without them.
    The log matrix comes from the installed log sink (:func:`_logging_to`),
    which is told after every ``_LOG_BLOCK_ROWS`` rows that they are final.
    """
    dt = cfg.dt_plant
    decim = cfg.control_decimation
    beta_ctrl = cfg.controller_beta
    traj = cfg.trajectory
    heol_cfg = cfg.heol
    ap_gains = cfg.autopilot
    plant = VesselDerivative(cfg.model, cfg.wind)

    n_steps = round(cfg.duration / dt)
    sink = _log_sink
    data = sink.matrix(n_steps + 1)
    events: list[float] = []
    log = RunLog._from_matrix(data, events)

    axis_x = HeolAxisState.for_config(heol_cfg)
    axis_y = HeolAxisState.for_config(heol_cfg)
    ap_state = AutopilotState()
    state = cfg.initial_state.as_tuple()
    # Before the first (possibly singular) guidance output there is no
    # heading reference; holding the initial heading is the benign choice.
    psi_ref = state[2]
    fu = gamma_r = 0.0
    w = BrunovskyInputs(0.0, 0.0)

    try:
        for lo in range(0, n_steps + 1, _LOG_BLOCK_ROWS):
            hi = min(lo + _LOG_BLOCK_ROWS, n_steps + 1)
            for i in range(lo, hi):
                t = i * dt
                ref = sample(traj, t)
                px, py, psi, u, v, r = state
                if i % decim == 0:
                    cp = math.cos(psi)
                    sp = math.sin(psi)
                    w = heol_step(
                        ref, (px, py, u * cp - v * sp, u * sp + v * cp),
                        heol_cfg, axis_x, axis_y,
                    )
                    try:
                        psi_raw, fu = physical_from_brunovsky(
                            w, ref.x_d[1], ref.y_d[1], beta_ctrl
                        )
                        if not math.isfinite(fu):
                            raise NonFiniteState(
                                f"non-finite guidance output F_u = {fu!r}"
                            )
                        psi_ref = unwrap_heading(psi_ref, psi_raw)
                    except SingularityError:
                        fu = 0.0
                        events.append(t)
                gamma_r = autopilot_step(psi_ref, psi, r, ap_gains, ap_state, dt)
                # e_x and e_y are filled once the block is done.
                data[i] = (
                    t, px, py, psi, u, v, r, ref.x_d[0], ref.y_d[0], 0.0, 0.0,
                    axis_x.last_F_hat, axis_y.last_F_hat,
                    w.wx, w.wy, fu, psi_ref, gamma_r,
                )
                if i < n_steps:
                    plant.fu = fu
                    plant.gamma_r = gamma_r
                    state = rk4_step(plant, state, dt)
            # One IEEE subtraction per row, per block or per run alike.
            np.subtract(log.x_ref[lo:hi], log.x[lo:hi], out=log.e_x[lo:hi])
            np.subtract(log.y_ref[lo:hi], log.y[lo:hi], out=log.e_y[lo:hi])
            sink.finished(hi)
    except NonFiniteState as exc:
        raise NonFiniteState(
            f"last finite state {state}, held inputs "
            f"(F_u, Gamma_r) = ({fu!r}, {gamma_r!r}); {exc}",
            step=i, t=t, state=state, inputs=(fu, gamma_r),
        ) from exc

    metrics = _compute_metrics(log, cfg.duration, cfg.convergence_threshold)
    return log, metrics
