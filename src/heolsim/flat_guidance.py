"""Flat-output algebra for the circular-hull vessel.

The position pair (x, y) is a flat output of the decoupled-yaw model: the
heading, yaw rate, yaw moment, body velocities and surge force are all
recoverable from (x, y) and their time derivatives.  This module carries

* the full inversion used as an open-loop feedforward oracle
  (:func:`flat_feedforward`),
* the change of input from the pair of double-integrator chains back to
  heading and thrust (:func:`physical_from_brunovsky`), the reconstruction
  the online guidance runs every tick, and
* heading bookkeeping (:func:`unwrap_heading`).

The inversion divides by the vector ``(x'' + beta*x', y'' + beta*y')``; when
that vector vanishes the heading is undefined and :class:`SingularityError`
is raised so callers can apply their fallback (hold the previous heading,
zero thrust).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SingularityError",
    "FlatFeedforward",
    "flat_feedforward",
    "physical_from_brunovsky",
    "unwrap_heading",
    "SINGULARITY_EPS",
]

# Below this magnitude (normalized acceleration units) both heading-defining
# components are treated as zero.
SINGULARITY_EPS = 1e-9

_TWO_PI = 2.0 * math.pi


class SingularityError(ValueError):
    """Heading is undefined: both components of the defining vector vanish."""


@dataclass(frozen=True)
class FlatFeedforward:
    """States and inputs reconstructed from a flat-output reference."""

    psi: float
    r: float
    Gamma_r: float
    u: float
    v: float
    Fu: float


def flat_feedforward(xd: tuple, yd: tuple, beta: float, gamma: float) -> FlatFeedforward:
    """Full open-loop inversion of a smooth reference, each axis given as
    the ``(pos, vel, acc, jerk, snap)`` that ``sample`` returns.

    Needs derivatives up to order 4 (two analytic differentiations of the
    heading).  Raises :class:`SingularityError` on a degenerate reference.
    """
    d = xd[2] + beta * xd[1]
    n = yd[2] + beta * yd[1]
    if abs(d) < SINGULARITY_EPS and abs(n) < SINGULARITY_EPS:
        raise SingularityError("heading undefined: acceleration+drag vector is zero")
    d_dot = xd[3] + beta * xd[2]
    n_dot = yd[3] + beta * yd[2]
    d_ddot = xd[4] + beta * xd[3]
    n_ddot = yd[4] + beta * yd[3]

    psi = math.atan2(n, d)
    s2 = d * d + n * n
    # atan2(n, d) differentiated twice along the reference.
    psi_dot = (n_dot * d - n * d_dot) / s2
    s2_dot = 2.0 * (n * n_dot + d * d_dot)
    psi_ddot = (n_ddot * d - n * d_ddot) / s2 - psi_dot * s2_dot / s2

    cp = math.cos(psi)
    sp = math.sin(psi)
    return FlatFeedforward(
        psi=psi,
        r=psi_dot,
        Gamma_r=psi_ddot + gamma * psi_dot,
        u=xd[1] * cp + yd[1] * sp,
        v=-xd[1] * sp + yd[1] * cp,
        Fu=d * cp + n * sp,
    )


def physical_from_brunovsky(
    w_x: float, w_y: float, vx_ref: float, vy_ref: float, beta: float
) -> tuple[float, float]:
    """Reconstruct ``(psi_ref, Fu)`` from the accelerations ``w_x, w_y``
    commanded to the two integrator chains [m/s^2].

    Reference velocities (rather than measured ones) enter the drag
    compensation, which keeps the reconstruction well behaved under noisy
    or transiently inconsistent measurements.  ``Fu`` is the Euclidean norm
    of the defining vector and therefore never negative.
    """
    d = w_x + beta * vx_ref
    n = w_y + beta * vy_ref
    if abs(d) < SINGULARITY_EPS and abs(n) < SINGULARITY_EPS:
        raise SingularityError("guidance singular: thrust direction undefined")
    return math.atan2(n, d), math.hypot(d, n)


def unwrap_heading(prev_psi: float, new_psi: float) -> float:
    """Shift ``new_psi`` by a multiple of 2*pi to land within pi of ``prev_psi``."""
    return new_psi + _TWO_PI * round((prev_psi - new_psi) / _TWO_PI)
