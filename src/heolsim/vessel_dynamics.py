"""Planar maneuvering dynamics of a thruster-driven surface vessel.

The 6-component state used throughout the package is ``(x, y, psi, u, v, r)``:
inertial position [m], heading [rad], body-frame surge/sway velocity [m/s]
and yaw rate [rad/s].  Heading is kept unwrapped; wrapping is left to
consumers that need a bounded angle.

All forces and moments are normalized by the effective (rigid-body plus
added) mass or inertia, so inputs and disturbances carry acceleration units.
The reduced coefficient set ``(a, b, c, beta_u, beta_v, gamma)`` fully
describes the vessel at this level (the README derives it from mass,
added-mass and damping data).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from math import cos, sin

__all__ = [
    "VesselParams",
    "VesselState",
    "InertialForce",
    "VesselDerivative",
]

# The sway coupling coefficient equals -1/a exactly when derived from mass
# data; published rounded values (e.g. a=0.58, b=-1.72) must still validate.
_AB_PRODUCT_TOL = 1e-2


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
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("vessel coefficients must be finite")
        if not self.beta_u > 0.0 or not self.beta_v > 0.0:
            raise ValueError("surge/sway damping rates must be positive")
        if not self.gamma > 0.0:
            raise ValueError("yaw damping rate must be positive")
        if not abs(self.a * self.b + 1.0) <= _AB_PRODUCT_TOL:
            raise ValueError(
                f"mass ratios must satisfy b = -1/a (got a*b = {self.a * self.b:.6f})"
            )

    @classmethod
    def hovercraft(cls, beta: float, gamma: float) -> "VesselParams":
        """Circular-hull special case: a=1, b=-1, c=0 and equal damping.
        Its yaw channel decouples from surge/sway, which is what makes the
        position outputs flat."""
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
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("vessel state components must be finite")


@dataclass(frozen=True)
class InertialForce:
    """Constant normalized force expressed in the inertial frame [m/s^2]."""

    fx: float = 0.0
    fy: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.fx) and math.isfinite(self.fy)):
            raise ValueError("wind force components must be finite")


class VesselDerivative:
    """Derivative of the full model, with its RK4 step under held inputs.

    Calling the object maps a state ``(x, y, psi, u, v, r)`` (any sequence)
    and the inputs ``fu`` and ``gamma_r``, the normalized surge force
    [m/s^2] and yaw moment [rad/s^2], to the state's derivative in the
    same order.  It holds only the model's coefficients and the wind,
    none derived from another, so both are pure functions of their arguments.
    :meth:`rk4` is the classical RK4 step over this derivative, unrolled
    into scalar arithmetic: it performs the same floating-point operations
    in the same order as the four generic stages over :meth:`__call__`, so
    both give the same bits.

    Both are plain arithmetic: an infinite stage angle raises ``math.cos``'s
    ``ValueError``, which :func:`~heolsim.sim_engine.rk4_step` translates.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, params: VesselParams, wind: InertialForce = InertialForce()):
        p = params
        self._coeffs = (p.a, p.b, p.c, p.beta_u, p.beta_v, p.gamma,
                        wind.fx, wind.fy)

    def __call__(self, state, fu: float, gamma_r: float
                 ) -> tuple[float, float, float, float, float, float]:
        a, b, c, beta_u, beta_v, gamma, fx, fy = self._coeffs
        _, _, psi, u, v, r = state
        cp = cos(psi)
        sp = sin(psi)
        # Disturbance force acts in the inertial frame; rotate it into
        # the body frame before adding it to the surge/sway accelerations.
        wind_u = fx * cp + fy * sp
        wind_v = fy * cp - fx * sp
        return (
            u * cp - v * sp,
            u * sp + v * cp,
            r,
            fu + a * v * r - beta_u * u + wind_u,
            b * u * r - beta_v * v + wind_v,
            gamma_r + c * u * v - gamma * r,
        )

    def rk4(self, state, fu: float, gamma_r: float, dt: float
            ) -> tuple[float, float, float, float, float, float]:
        """One RK4 step of length ``dt`` with the inputs ``fu`` and
        ``gamma_r`` held; both checks of a step are left to the caller,
        :func:`~heolsim.sim_engine.rk4_step`."""
        x, y, psi, u, v, r = state
        a, b, c, bu, bv, g, fx, fy = self._coeffs
        half = 0.5 * dt
        # Each stage is __call__ written out: positions do not
        # enter the derivative, and the heading rate is the stage's r.
        cp = cos(psi)
        sp = sin(psi)
        k1x = u * cp - v * sp
        k1y = u * sp + v * cp
        k1u = fu + a * v * r - bu * u + (fx * cp + fy * sp)
        k1v = b * u * r - bv * v + (fy * cp - fx * sp)
        k1r = gamma_r + c * u * v - g * r

        p2 = psi + half * r
        u2 = u + half * k1u
        v2 = v + half * k1v
        r2 = r + half * k1r
        cp = cos(p2)
        sp = sin(p2)
        k2x = u2 * cp - v2 * sp
        k2y = u2 * sp + v2 * cp
        k2u = fu + a * v2 * r2 - bu * u2 + (fx * cp + fy * sp)
        k2v = b * u2 * r2 - bv * v2 + (fy * cp - fx * sp)
        k2r = gamma_r + c * u2 * v2 - g * r2

        p3 = psi + half * r2
        u3 = u + half * k2u
        v3 = v + half * k2v
        r3 = r + half * k2r
        cp = cos(p3)
        sp = sin(p3)
        k3x = u3 * cp - v3 * sp
        k3y = u3 * sp + v3 * cp
        k3u = fu + a * v3 * r3 - bu * u3 + (fx * cp + fy * sp)
        k3v = b * u3 * r3 - bv * v3 + (fy * cp - fx * sp)
        k3r = gamma_r + c * u3 * v3 - g * r3

        p4 = psi + dt * r3
        u4 = u + dt * k3u
        v4 = v + dt * k3v
        r4 = r + dt * k3r
        cp = cos(p4)
        sp = sin(p4)
        k4x = u4 * cp - v4 * sp
        k4y = u4 * sp + v4 * cp
        k4u = fu + a * v4 * r4 - bu * u4 + (fx * cp + fy * sp)
        k4v = b * u4 * r4 - bv * v4 + (fy * cp - fx * sp)
        k4r = gamma_r + c * u4 * v4 - g * r4

        sixth = dt / 6.0
        return (
            x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x),
            y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y),
            psi + sixth * (r + 2.0 * (r2 + r3) + r4),
            u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u),
            v + sixth * (k1v + 2.0 * (k2v + k3v) + k4v),
            r + sixth * (k1r + 2.0 * (k2r + k3r) + k4r),
        )
