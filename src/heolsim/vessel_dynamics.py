"""Planar maneuvering dynamics of a thruster-driven surface vessel.

The 6-component state used throughout the package is ``(x, y, psi, u, v, r)``:
inertial position [m], heading [rad], body-frame surge/sway velocity [m/s]
and yaw rate [rad/s].  Heading is kept unwrapped; wrapping is left to
consumers that need a bounded angle.

All forces and moments are normalized by the effective (rigid-body plus
added) mass or inertia, so inputs and disturbances carry acceleration units.
The reduced coefficient set ``(a, b, c, beta_u, beta_v, gamma)`` fully
describes the vessel at this level; :func:`reduce_params` derives it from
physical mass/damping data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "NonFiniteState",
    "PhysicalParams",
    "VesselParams",
    "VesselState",
    "ControlInputs",
    "InertialForce",
    "VesselDerivative",
    "reduce_params",
    "surface_vessel_derivative",
    "hovercraft_derivative",
]

# The sway coupling coefficient equals -1/a exactly when derived from mass
# data; published rounded values (e.g. a=0.58, b=-1.72) must still validate.
_AB_PRODUCT_TOL = 1e-2


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


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, inertia, added mass and linear damping of a 3-DOF vessel.

    Added masses follow the usual sign convention (typically negative);
    only the differences ``m - Xudot``, ``m - Yvdot`` and ``Iz - Nrdot``
    enter the reduced model and all three must be positive.
    """

    m: float
    Iz: float
    Xudot: float
    Yvdot: float
    Nrdot: float
    du: float
    dv: float
    dr: float

    def __post_init__(self):
        if not (self.m - self.Xudot > 0.0):
            raise ValueError("effective surge mass m - Xudot must be positive")
        if not (self.m - self.Yvdot > 0.0):
            raise ValueError("effective sway mass m - Yvdot must be positive")
        if not (self.Iz - self.Nrdot > 0.0):
            raise ValueError("effective yaw inertia Iz - Nrdot must be positive")


@dataclass(frozen=True)
class VesselParams:
    """Reduced coefficients of the normalized surface-vessel model.

    ``a`` and ``b`` are the dimensionless mass ratios of the surge/sway
    Coriolis-like terms, ``c`` couples ``u*v`` into the yaw equation and
    the betas/gamma are normalized linear damping rates [1/s].
    """

    a: float
    b: float
    c: float
    beta_u: float
    beta_v: float
    gamma: float

    def __post_init__(self):
        if self.beta_u <= 0.0 or self.beta_v <= 0.0:
            raise ValueError("surge/sway damping rates must be positive")
        if self.gamma <= 0.0:
            raise ValueError("yaw damping rate must be positive")
        if abs(self.a * self.b + 1.0) > _AB_PRODUCT_TOL:
            raise ValueError(
                f"mass ratios must satisfy b = -1/a (got a*b = {self.a * self.b:.6f})"
            )

    @classmethod
    def hovercraft(cls, beta: float, gamma: float) -> "VesselParams":
        """Circular-hull special case: a=1, b=-1, c=0 and equal damping."""
        return cls(a=1.0, b=-1.0, c=0.0, beta_u=beta, beta_v=beta, gamma=gamma)


@dataclass
class VesselState:
    """Pose and body-frame velocity ``(x, y, psi, u, v, r)``."""

    x: float = 0.0
    y: float = 0.0
    psi: float = 0.0
    u: float = 0.0
    v: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError("vessel state components must be finite")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.x, self.y, self.psi, self.u, self.v, self.r)


@dataclass(frozen=True)
class ControlInputs:
    """Normalized surge force [m/s^2] and yaw moment [rad/s^2]."""

    Fu: float = 0.0
    Gamma_r: float = 0.0


@dataclass(frozen=True)
class InertialForce:
    """Constant normalized force expressed in the inertial frame [m/s^2]."""

    fx: float = 0.0
    fy: float = 0.0


def reduce_params(p: PhysicalParams) -> VesselParams:
    """Collapse physical mass/damping data into the reduced coefficients."""
    mu = p.m - p.Xudot
    mv = p.m - p.Yvdot
    mr = p.Iz - p.Nrdot
    a = mv / mu
    return VesselParams(
        a=a,
        b=-1.0 / a,
        c=(p.Xudot - p.Yvdot) / mr,
        beta_u=p.du / mu,
        beta_v=p.dv / mv,
        gamma=p.dr / mr,
    )


def _state_derivative(state, fu, gamma_r, a, b, c, beta_u, beta_v, gamma, fx, fy):
    """Scalar-argument core shared by the public derivative functions."""
    _, _, psi, u, v, r = state
    cp = math.cos(psi)
    sp = math.sin(psi)
    # Disturbance force acts in the inertial frame; rotate it into the body
    # frame before adding it to the surge/sway accelerations.
    wind_u = fx * cp + fy * sp
    wind_v = -fx * sp + fy * cp
    return (
        u * cp - v * sp,
        u * sp + v * cp,
        r,
        fu + a * v * r - beta_u * u + wind_u,
        b * u * r - beta_v * v + wind_v,
        gamma_r + c * u * v - gamma * r,
    )


class VesselDerivative:
    """Derivative of the full model under held inputs, with its RK4 step.

    Calling the object maps a state to its derivative, like
    :func:`surface_vessel_derivative`.  ``fu`` and ``gamma_r`` are the
    inputs held over a step; the owner sets them before each step.
    :meth:`rk4` is the classical RK4 step over this derivative, unrolled
    into scalar arithmetic: it performs the same floating-point operations
    in the same order as the generic stepper, so both give the same bits.

    Either way, an infinite stage angle (which ``math.cos`` rejects) raises
    :class:`NonFiniteState`, as a non-finite result of the stepper does.
    """

    __slots__ = ("fu", "gamma_r", "_coeffs")

    def __init__(
        self,
        params: VesselParams,
        wind: InertialForce = InertialForce(),
        fu: float = 0.0,
        gamma_r: float = 0.0,
    ):
        self.fu = fu
        self.gamma_r = gamma_r
        p = params
        self._coeffs = (p.a, p.b, p.c, p.beta_u, p.beta_v, p.gamma, wind.fx, wind.fy)

    def __call__(self, state) -> tuple[float, float, float, float, float, float]:
        try:
            return _state_derivative(state, self.fu, self.gamma_r, *self._coeffs)
        except ValueError as exc:
            raise NonFiniteState(f"non-finite stage angle in state {tuple(state)}") from exc

    def rk4(self, state, dt: float) -> tuple[float, float, float, float, float, float]:
        """One RK4 step of length ``dt``; the finiteness of the result is
        left to the caller, as for any derivative."""
        x, y, psi, u, v, r = state
        fu = self.fu
        gr = self.gamma_r
        a, b, c, bu, bv, g, fx, fy = self._coeffs
        nfx = -fx
        cos = math.cos
        sin = math.sin
        half = 0.5 * dt
        # Each stage is _state_derivative written out: positions do not
        # enter the derivative, and the heading rate is the stage's r.
        try:
            cp = cos(psi)
            sp = sin(psi)
            k1x = u * cp - v * sp
            k1y = u * sp + v * cp
            k1u = fu + a * v * r - bu * u + (fx * cp + fy * sp)
            k1v = b * u * r - bv * v + (nfx * sp + fy * cp)
            k1r = gr + c * u * v - g * r

            p2 = psi + half * r
            u2 = u + half * k1u
            v2 = v + half * k1v
            r2 = r + half * k1r
            cp = cos(p2)
            sp = sin(p2)
            k2x = u2 * cp - v2 * sp
            k2y = u2 * sp + v2 * cp
            k2u = fu + a * v2 * r2 - bu * u2 + (fx * cp + fy * sp)
            k2v = b * u2 * r2 - bv * v2 + (nfx * sp + fy * cp)
            k2r = gr + c * u2 * v2 - g * r2

            p3 = psi + half * r2
            u3 = u + half * k2u
            v3 = v + half * k2v
            r3 = r + half * k2r
            cp = cos(p3)
            sp = sin(p3)
            k3x = u3 * cp - v3 * sp
            k3y = u3 * sp + v3 * cp
            k3u = fu + a * v3 * r3 - bu * u3 + (fx * cp + fy * sp)
            k3v = b * u3 * r3 - bv * v3 + (nfx * sp + fy * cp)
            k3r = gr + c * u3 * v3 - g * r3

            p4 = psi + dt * r3
            u4 = u + dt * k3u
            v4 = v + dt * k3v
            r4 = r + dt * k3r
            cp = cos(p4)
            sp = sin(p4)
        except ValueError as exc:
            raise NonFiniteState(f"non-finite stage angle in a step from {tuple(state)}") from exc
        k4x = u4 * cp - v4 * sp
        k4y = u4 * sp + v4 * cp
        k4u = fu + a * v4 * r4 - bu * u4 + (fx * cp + fy * sp)
        k4v = b * u4 * r4 - bv * v4 + (nfx * sp + fy * cp)
        k4r = gr + c * u4 * v4 - g * r4

        sixth = dt / 6.0
        return (
            x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y),
            psi + sixth * (r + 2.0 * (r2 + r3) + r4),
            u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + sixth * (k1v + 2.0 * (k2v + k3v) + k4v),
            r + sixth * (k1r + 2.0 * (k2r + k3r) + k4r),
        )


def surface_vessel_derivative(
    state,
    ctrl: ControlInputs,
    params: VesselParams,
    wind: InertialForce = InertialForce(),
) -> tuple[float, float, float, float, float, float]:
    """Time derivative of the 6-component state under the full model.

    ``state`` is any ``(x, y, psi, u, v, r)`` sequence.  Returns the
    derivative in the same component order.
    """
    return _state_derivative(
        state, ctrl.Fu, ctrl.Gamma_r,
        params.a, params.b, params.c,
        params.beta_u, params.beta_v, params.gamma,
        wind.fx, wind.fy,
    )


def hovercraft_derivative(
    state,
    ctrl: ControlInputs,
    beta: float,
    gamma: float,
    wind: InertialForce = InertialForce(),
) -> tuple[float, float, float, float, float, float]:
    """Derivative of the circular-hull simplification (a=1, b=-1, c=0).

    The yaw channel decouples from surge/sway in this model, which is what
    makes the position outputs flat.
    """
    if beta <= 0.0 or gamma <= 0.0:
        raise ValueError("damping rates must be positive")
    return _state_derivative(
        state, ctrl.Fu, ctrl.Gamma_r,
        1.0, -1.0, 0.0, beta, beta, gamma,
        wind.fx, wind.fy,
    )
