"""Analytic reference trajectories with exact derivatives up to order 4.

The guidance layer consumes position references together with their first
four time derivatives (heading feedforward needs two differentiations of a
ratio of second derivatives).  Everything here is closed form, so the
derivative chain is exact rather than numerically differentiated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["ReferencePoint", "TrajectorySpec", "sample"]

LINE = "line"
CIRCLE = "circle"


class ReferencePoint(NamedTuple):
    """Reference sample at time ``t``.

    ``x_d`` and ``y_d`` hold ``(pos, vel, acc, jerk, snap)`` for each axis.
    """

    t: float
    x_d: tuple[float, float, float, float, float]
    y_d: tuple[float, float, float, float, float]


@dataclass(frozen=True)
class TrajectorySpec:
    """Declarative description of a reference curve.

    Use the :meth:`line` / :meth:`circle` constructors; field relevance
    depends on the variant.
    """

    variant: str
    speed: float = 0.0
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    angular_rate: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.variant == CIRCLE:
            if self.radius <= 0.0:
                raise ValueError("circle radius must be positive")
            if self.angular_rate == 0.0:
                raise ValueError("circle angular rate must be nonzero")
        elif self.variant != LINE:
            raise ValueError(f"unknown trajectory variant {self.variant!r}")

    @classmethod
    def line(cls, speed: float) -> "TrajectorySpec":
        """Straight run along the x axis at constant speed, y held at zero."""
        return cls(variant=LINE, speed=speed)

    @classmethod
    def circle(
        cls,
        radius: float,
        angular_rate: float,
        center: tuple[float, float] = (0.0, 0.0),
        phase: float = 0.0,
    ) -> "TrajectorySpec":
        return cls(
            variant=CIRCLE,
            center=(float(center[0]), float(center[1])),
            radius=radius,
            angular_rate=angular_rate,
            phase=phase,
        )


def sample(spec: TrajectorySpec, t: float) -> ReferencePoint:
    """Evaluate the reference and its derivatives at time ``t >= 0``."""
    if t < 0.0:
        raise ValueError("reference time must be nonnegative")
    if spec.variant == LINE:
        s = spec.speed
        # Positional: a keyword call doubles the cost of the tuple.
        return ReferencePoint(
            t,
            (s * t, s, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.0),
        )
    R = spec.radius
    w = spec.angular_rate
    ang = w * t + spec.phase
    c = math.cos(ang)
    s = math.sin(ang)
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2
    return ReferencePoint(
        t,
        (
            spec.center[0] + R * c,
            -R * w * s,
            -R * w2 * c,
            R * w3 * s,
            R * w4 * c,
        ),
        (
            spec.center[1] + R * s,
            R * w * c,
            -R * w2 * s,
            -R * w3 * c,
            R * w4 * s,
        ),
    )
