"""Flat-output algebra for the circular-hull vessel.

The position pair (x, y) is a flat output of the decoupled-yaw model: the
heading, yaw rate, yaw moment, body velocities and surge force are all
recoverable from (x, y) and their time derivatives.  This module carries

* the full inversion used as an open-loop feedforward oracle
  (:func:`flat_feedforward`), built on the next map,
* the change of input from the pair of double-integrator chains back to
  heading and thrust (:func:`physical_from_brunovsky`), the reconstruction
  the online guidance runs every tick, and
* heading bookkeeping (:func:`unwrap_heading`).

Both divide by the vector ``(x'' + beta*x', y'' + beta*y')``; when that
vector vanishes the heading is undefined and :class:`SingularityError` is
raised so callers can apply their fallback (hold the previous heading,
zero thrust).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import tau

from . import reference_trajectory

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


def flat_feedforward(spec, t: float, beta: float, gamma: float) -> FlatFeedforward:
    """Full open-loop inversion of the reference ``spec`` (a
    :class:`~heolsim.reference_trajectory.TrajectorySpec`) at time ``t``.

    Needs derivatives up to order 4 (two analytic differentiations of the
    heading).  Orders 0-2 are ``sample``'s; jerk and snap follow from the
    identity ``x^(k+2) = -w**2 * x^(k)`` (``k >= 1``) that both variants
    satisfy, ``w`` the circle's ``angular_rate`` and 0 on a line.  Heading,
    thrust and the :class:`SingularityError` of a degenerate reference are
    :func:`physical_from_brunovsky`'s, fed the reference accelerations.
    """
    (_, vx, ax), (_, vy, ay) = reference_trajectory.sample(spec, t)
    circle = spec.variant == reference_trajectory.CIRCLE
    w2 = spec.angular_rate ** 2 if circle else 0.0
    jx, jy, sx, sy = -w2 * vx, -w2 * vy, -w2 * ax, -w2 * ay
    psi, Fu = physical_from_brunovsky(ax, ay, vx, vy, beta)
    cp = math.cos(psi)
    sp = math.sin(psi)
    # The defining vector (d, n) = (ax + beta*vx, ay + beta*vy) is
    # Fu * (cos psi, sin psi); differentiate it twice along the reference.
    d_dot, n_dot = jx + beta * ax, jy + beta * ay
    d_ddot, n_ddot = sx + beta * jx, sy + beta * jy
    Fu_dot = d_dot * cp + n_dot * sp
    psi_dot = (n_dot * cp - d_dot * sp) / Fu
    psi_ddot = (n_ddot * cp - d_ddot * sp - 2.0 * Fu_dot * psi_dot) / Fu
    return FlatFeedforward(
        psi=psi,
        r=psi_dot,
        Gamma_r=psi_ddot + gamma * psi_dot,
        u=vx * cp + vy * sp,
        v=-vx * sp + vy * cp,
        Fu=Fu,
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
    """Shift ``new_psi`` by a multiple of 2*pi to land within pi of
    ``prev_psi``; a NaN or infinite turn count raises ``ValueError``."""
    try:
        return new_psi + tau * round((prev_psi - new_psi) / tau)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"cannot unwrap heading {new_psi!r} near {prev_psi!r}: {exc}") from None
