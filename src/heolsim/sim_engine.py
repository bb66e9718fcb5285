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
from dataclasses import dataclass, field

import numpy as np

from .flat_guidance import (
    BrunovskyInputs,
    SingularityError,
    physical_from_brunovsky,
    unwrap_heading,
)
from .heading_autopilot import AutopilotGains, AutopilotState, autopilot_step
from .heol_control import HeolAxisState, HeolConfig, heol_step
from .reference_trajectory import TrajectorySpec, sample
from .vessel_dynamics import InertialForce, VesselParams, VesselState, _state_derivative

__all__ = [
    "NonFiniteState",
    "ScenarioConfig",
    "RunLog",
    "RunMetrics",
    "rk4_step",
    "body_to_inertial_velocity",
    "run_scenario",
]


class NonFiniteState(RuntimeError):
    """State left the finite range: the simulation blew up."""


@dataclass
class ScenarioConfig:
    """Complete declarative description of one simulation run.

    ``controller_beta`` is the drag rate the guidance assumes; it may
    deliberately differ from the plant's (model-mismatch studies pick one
    of the plant's two damping rates).  The controller runs every
    ``control_decimation``-th plant step.
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
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.dt_plant <= 0.0:
            raise ValueError("plant step must be positive")
        if self.control_decimation < 1:
            raise ValueError("control decimation must be at least 1")
        if self.controller_beta <= 0.0:
            raise ValueError("controller drag rate must be positive")
        dt_ctrl = self.dt_plant * self.control_decimation
        if abs(self.heol.dt - dt_ctrl) > 1e-9 * max(dt_ctrl, 1.0):
            raise ValueError(
                "controller period must equal dt_plant * control_decimation"
            )


# Column layout of the per-step log matrix.
_COLUMNS = (
    "t", "x", "y", "psi", "u", "v", "r",
    "x_ref", "y_ref", "dx_ref", "dy_ref", "ddx_ref", "ddy_ref",
    "e_x", "e_y", "F_hat_x", "F_hat_y",
    "w_x", "w_y", "F_u", "psi_ref", "Gamma_r",
)


@dataclass
class RunLog:
    """Uniform-grid time series of every signal in the loop.

    ``events`` holds the times at which the guidance reconstruction was
    singular and the fallback (hold heading, zero thrust) was applied.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    x_ref: np.ndarray
    y_ref: np.ndarray
    dx_ref: np.ndarray
    dy_ref: np.ndarray
    ddx_ref: np.ndarray
    ddy_ref: np.ndarray
    e_x: np.ndarray
    e_y: np.ndarray
    F_hat_x: np.ndarray
    F_hat_y: np.ndarray
    w_x: np.ndarray
    w_y: np.ndarray
    F_u: np.ndarray
    psi_ref: np.ndarray
    Gamma_r: np.ndarray
    events: list[float] = field(default_factory=list)

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
    returned.  Raises :class:`NonFiniteState` if the result leaves the
    finite range.
    """
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


def _compute_metrics(data: np.ndarray, duration: float, threshold: float) -> RunMetrics:
    t = data[:, 0]
    half = t >= 0.5 * duration
    e_x = data[:, 13]
    e_y = data[:, 14]
    err_norm = np.hypot(e_x, e_y)
    inside = err_norm < threshold
    if not inside[-1]:
        conv = None
    else:
        outside = np.flatnonzero(~inside)
        conv = float(t[outside[-1] + 1]) if outside.size else float(t[0])
    return RunMetrics(
        rms_error_x=float(np.sqrt(np.mean(e_x[half] ** 2))),
        rms_error_y=float(np.sqrt(np.mean(e_y[half] ** 2))),
        convergence_time=conv,
        F_hat_x_mean=float(np.mean(data[half, 15])),
        F_hat_y_mean=float(np.mean(data[half, 16])),
    )


def run_scenario(cfg: ScenarioConfig) -> tuple[RunLog, RunMetrics]:
    """Simulate one scenario; returns the full log and its summary.

    The run is strictly sequential and fully deterministic: identical
    configurations produce bit-identical logs.  Raises
    :class:`NonFiniteState` if the plant state diverges.
    """
    p = cfg.model
    a, b, c = p.a, p.b, p.c
    beta_u, beta_v, gamma = p.beta_u, p.beta_v, p.gamma
    fx, fy = cfg.wind.fx, cfg.wind.fy
    dt = cfg.dt_plant
    decim = cfg.control_decimation
    beta_ctrl = cfg.controller_beta
    traj = cfg.trajectory
    heol_cfg = cfg.heol
    ap_gains = cfg.autopilot

    n_steps = round(cfg.duration / dt)
    data = np.empty((n_steps + 1, len(_COLUMNS)))
    events: list[float] = []

    axis_x = HeolAxisState.for_config(heol_cfg)
    axis_y = HeolAxisState.for_config(heol_cfg)
    ap_state = AutopilotState()
    state = cfg.initial_state.as_tuple()
    # Before the first (possibly singular) guidance output there is no
    # heading reference; holding the initial heading is the benign choice.
    psi_ref = state[2]
    fu = 0.0
    w = BrunovskyInputs(0.0, 0.0)

    for i in range(n_steps + 1):
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
                psi_ref = unwrap_heading(psi_ref, psi_raw)
            except SingularityError:
                fu = 0.0
                events.append(t)
        gamma_r = autopilot_step(psi_ref, psi, r, ap_gains, ap_state, dt)
        data[i] = (
            t, px, py, psi, u, v, r,
            ref.x_d[0], ref.y_d[0], ref.x_d[1], ref.y_d[1],
            ref.x_d[2], ref.y_d[2],
            ref.x_d[0] - px, ref.y_d[0] - py,
            axis_x.last_F_hat, axis_y.last_F_hat,
            w.wx, w.wy, fu, psi_ref, gamma_r,
        )
        if i < n_steps:
            state = rk4_step(
                lambda s, _fu=fu, _gr=gamma_r: _state_derivative(
                    s, _fu, _gr, a, b, c, beta_u, beta_v, gamma, fx, fy
                ),
                state,
                dt,
            )

    log = RunLog._from_matrix(data, events)
    metrics = _compute_metrics(data, cfg.duration, cfg.convergence_threshold)
    return log, metrics
