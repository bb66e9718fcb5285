"""Analytic line and circle references: position, velocity, acceleration.

The closed loop reads these three orders (the iPD acts on the chain
accelerations, the heading autopilot closes the cascade).  They are closed
form, so exact rather than numerically differentiated; the open-loop
inversion :func:`heolsim.flat_guidance.flat_feedforward` derives the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, inf, sin

__all__ = ["LINE", "CIRCLE", "TrajectorySpec", "sample"]

LINE = "line"
CIRCLE = "circle"


@dataclass(frozen=True)
class TrajectorySpec:
    """Declarative description of a reference curve.

    ``TrajectorySpec(LINE, speed=...)`` is a straight run along the x axis
    at constant ``speed``, y held at zero; it reads no other field.
    ``TrajectorySpec(CIRCLE, center_x=..., center_y=..., radius=...,
    angular_rate=..., phase=...)`` is the circle of ``radius`` about
    ``(center_x, center_y)`` at angle ``angular_rate * t + phase``; it
    reads no ``speed``.  The fields are the ``trajectory.*`` config keys.
    """

    variant: str
    speed: float = 0.0
    center_x: float = 0.0
    center_y: float = 0.0
    radius: float = 0.0
    angular_rate: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.variant == CIRCLE:
            if not self.radius > 0.0:
                raise ValueError("circle radius must be positive")
            R = self.radius
            w = self.angular_rate
            if w == 0.0:
                raise ValueError("circle angular rate must be nonzero")
            # The amplitude of the snap flat_feedforward derives.
            if not math.isfinite(R * w * w * w * w):
                raise ValueError("circle radius * angular_rate**4 must be finite")
            # sample()'s constants: the rate, phase, radius and center, then
            # the radius-times-rate products of its terms, each the
            # left-to-right product the closed form makes.  A finite snap
            # leaves the phase, the center and w * w open: a tiny radius
            # keeps R * w * w * w * w finite where w * w overflows.
            products = (w, self.phase, R, self.center_x, self.center_y,
                        R * w, -R * w, -R * (w * w))
            if not all(map(math.isfinite, products)):
                raise ValueError(
                    "circle phase, center and radius * angular_rate**2 must be finite")
            # The position center + R * cos (or sin) lies between
            # center - R and center + R, so it is finite when they are.
            reach = (self.center_x - R, self.center_x + R,
                     self.center_y - R, self.center_y + R)
            if not all(map(math.isfinite, reach)):
                raise ValueError("circle center +- radius must be finite")
            # Not a field, so repr, ==, hash and the config hash ignore it.
            object.__setattr__(self, "_products", products)
        elif self.variant == LINE:
            if not math.isfinite(self.speed):
                raise ValueError("line speed must be finite")
        else:
            raise ValueError(f"unknown trajectory variant {self.variant!r}")


def sample(spec: TrajectorySpec, t: float) -> tuple[tuple, tuple]:
    """Evaluate the reference at a finite time ``t >= 0``: the pair
    ``(x_d, y_d)``, each axis's ``(pos, vel, acc)``."""
    if not 0.0 <= t < inf:
        raise ValueError("reference time must be finite and nonnegative")
    if spec.variant == LINE:
        s = spec.speed
        return (s * t, s, 0.0), (0.0, 0.0, 0.0)
    w, phase, R, cx, cy, Rw, nRw, nRw2 = spec._products
    ang = w * t + phase
    c = cos(ang)
    s = sin(ang)
    return (cx + R * c, nRw * s, nRw2 * c), (cy + R * s, Rw * c, nRw2 * s)
