"""Inner-loop heading controller.

The guidance layer outputs a heading reference; this PID (rate feedback on
the measured yaw rate, optional integral action) produces the normalized
yaw moment that makes the vessel track it.  It must run well above the
outer loop's bandwidth for the cascade to behave like the idealized
heading-as-input model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import pi, tau

__all__ = ["AutopilotGains", "AutopilotState", "autopilot_step"]


@dataclass(frozen=True)
class AutopilotGains:
    """Heading loop gains; defaults give roughly 5x outer-loop bandwidth."""

    Kp_psi: float = 25.0
    Kd_psi: float = 10.0
    Ki_psi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.Kp_psi < math.inf or not 0.0 < self.Kd_psi < math.inf:
            raise ValueError("heading P and D gains must be positive and finite")
        if not 0.0 <= self.Ki_psi < math.inf:
            raise ValueError("heading integral gain must be nonnegative and finite")


@dataclass
class AutopilotState:
    """Trapezoidal integrator memory for the heading error."""

    integral: float = 0.0
    prev_error: float = 0.0


def autopilot_step(
    psi_ref: float,
    psi: float,
    r: float,
    gains: AutopilotGains,
    state: AutopilotState,
    dt: float,
) -> float:
    """One heading-loop update; returns the normalized yaw moment.

    The error is wrapped to (-pi, pi] so the commanded rotation never
    exceeds pi, and the damping term feeds back the measured rate instead
    of a differentiated error, avoiding kicks when the reference jumps.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("autopilot step must be positive and finite")
    e_psi = -((-(psi_ref - psi) + pi) % tau - pi)
    if e_psi != e_psi:  # only a non-finite error wraps to NaN
        raise ValueError("heading error must be finite")
    integral = state.integral + 0.5 * dt * (state.prev_error + e_psi)
    state.integral = integral
    state.prev_error = e_psi
    return gains.Kp_psi * e_psi - gains.Kd_psi * r + gains.Ki_psi * integral
