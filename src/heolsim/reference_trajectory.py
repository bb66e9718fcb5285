"""Analytic reference trajectories with exact derivatives up to order 4.

The guidance layer consumes position references together with their first
four time derivatives (heading feedforward needs two differentiations of a
ratio of second derivatives).  Everything here is closed form, so the
derivative chain is exact rather than numerically differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, sin

__all__ = ["LINE", "CIRCLE", "TrajectorySpec", "sample"]

LINE = "line"
CIRCLE = "circle"


@dataclass(frozen=True)
class TrajectorySpec:
    """Declarative description of a reference curve.

    ``TrajectorySpec(LINE, speed=...)`` is a straight run along the x axis
    at constant ``speed``, y held at zero; it reads no other field.
    ``TrajectorySpec(CIRCLE, radius=..., angular_rate=..., center=...,
    phase=...)`` is the circle of ``radius`` about ``center`` at angle
    ``angular_rate * t + phase``; it reads no ``speed``.
    """

    variant: str
    speed: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    angular_rate: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.variant == CIRCLE:
            if not self.radius > 0.0:
                raise ValueError("circle radius must be positive")
            w = self.angular_rate
            if not math.isfinite(w):
                raise ValueError("circle angular rate must be finite")
            if w == 0.0:
                raise ValueError("circle angular rate must be nonzero")
            if not (math.isfinite(self.center[0]) and math.isfinite(self.center[1])):
                raise ValueError("circle center must be finite")
            if not math.isfinite(self.phase):
                raise ValueError("circle phase must be finite")
            if not math.isfinite(self.radius * w * w * w * w):
                raise ValueError("circle radius * angular_rate**4 must be finite")
            # sample()'s constants: the rate, phase, radius and center, then
            # the radius-times-rate products of its terms, each the
            # left-to-right product the closed form makes.  Not a field, so
            # repr, ==, hash and the config hash ignore it.
            R = self.radius
            w2 = w * w
            w3 = w2 * w
            w4 = w2 * w2
            object.__setattr__(self, "_products", (
                w, self.phase, R, *self.center,
                R * w, -R * w, -R * w2, R * w3, -R * w3, R * w4,
            ))
        elif self.variant == LINE:
            if not math.isfinite(self.speed):
                raise ValueError("line speed must be finite")
        else:
            raise ValueError(f"unknown trajectory variant {self.variant!r}")


def sample(spec: TrajectorySpec, t: float) -> tuple[tuple, tuple]:
    """Evaluate the reference at time ``t >= 0``: the pair ``(x_d, y_d)``,
    each axis's ``(pos, vel, acc, jerk, snap)``."""
    if not t >= 0.0:
        raise ValueError("reference time must be nonnegative")
    if spec.variant == LINE:
        s = spec.speed
        return (s * t, s, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)
    w, phase, R, cx, cy, Rw, nRw, nRw2, Rw3, nRw3, Rw4 = spec._products
    ang = w * t + phase
    c = cos(ang)
    s = sin(ang)
    return (
        (cx + R * c, nRw * s, nRw2 * c, Rw3 * s, Rw4 * c),
        (cy + R * s, Rw * c, nRw2 * s, nRw3 * c, Rw4 * s),
    )
