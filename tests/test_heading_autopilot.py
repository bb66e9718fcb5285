import math

import numpy as np
import pytest

from heolsim.heading_autopilot import (
    AutopilotGains,
    AutopilotState,
    autopilot_step,
)


def wrapped(angle):
    """The heading error ``autopilot_step`` wraps ``angle`` to: with
    ``Kp_psi = 1``, ``Ki_psi = 0`` and ``r = 0`` the moment is exactly the
    wrapped error."""
    gains = AutopilotGains(Kp_psi=1.0, Ki_psi=0.0)
    return autopilot_step(angle, 0.0, 0.0, gains, AutopilotState(), 1e-3)


class TestHeadingErrorWrap:
    def test_identity_inside_range(self):
        assert wrapped(0.0) == 0.0
        assert wrapped(0.1) == pytest.approx(0.1)
        assert wrapped(-3.0) == pytest.approx(-3.0)

    def test_three_half_pi(self):
        assert wrapped(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_half_open_interval(self):
        # pi maps to itself, -pi to +pi: the range is (-pi, pi].
        assert wrapped(math.pi) == math.pi
        assert wrapped(-math.pi) == math.pi

    def test_preserves_value_modulo_two_pi(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.uniform(-3.0, 3.0)
            want = wrapped(a)
            for k in range(-3, 4):
                got = wrapped(a + 2 * math.pi * k)
                assert got == pytest.approx(want, abs=1e-9)
                assert -math.pi < got <= math.pi + 1e-12

    @pytest.mark.parametrize("psi_ref, psi", [
        (math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (0.3, math.nan),
    ])
    def test_rejects_nonfinite(self, psi_ref, psi):
        # Refused before the integrator memory moves.
        state = AutopilotState()
        with pytest.raises(ValueError, match="heading error must be finite"):
            autopilot_step(psi_ref, psi, 0.0, AutopilotGains(), state, 1e-3)
        assert state == AutopilotState()


class TestAutopilotStep:
    def test_zero_error_from_rest(self):
        st = AutopilotState()
        out = autopilot_step(0.7, 0.7, 0.0, AutopilotGains(), st, 1e-3)
        assert out == 0.0

    def test_proportional_term(self):
        gains = AutopilotGains(Kp_psi=25.0, Kd_psi=1e-9 + 1.0, Ki_psi=0.0)
        # Kd acts on the rate, which is zero here.
        out = autopilot_step(0.1, 0.0, 0.0, gains, AutopilotState(), 1e-3)
        assert out == pytest.approx(2.5, rel=1e-6)

    def test_rate_feedback_opposes_rotation(self):
        gains = AutopilotGains(Kp_psi=25.0, Kd_psi=10.0)
        out = autopilot_step(0.0, 0.0, 0.5, gains, AutopilotState(), 1e-3)
        assert out == pytest.approx(-5.0)

    def test_integral_accumulates_by_trapezoid(self):
        gains = AutopilotGains(Kp_psi=1e-12 + 1.0, Kd_psi=1.0, Ki_psi=2.0)
        st = AutopilotState()
        dt = 0.1
        # constant error 1.0 for 1 s: trapezoid ramps 0.05, 0.15, ... 0.95
        for i in range(10):
            out = autopilot_step(1.0, 0.0, 0.0, gains, st, dt)
        assert st.integral == pytest.approx(0.95)
        assert out == pytest.approx(1.0 * 1.0 + 2.0 * 0.95, rel=1e-9)

    def test_shortest_path_never_exceeds_pi(self):
        gains = AutopilotGains()
        # Reference three-quarters of a turn ahead: command the quarter turn
        # backwards instead.
        out = autopilot_step(3 * math.pi / 2, 0.0, 0.0, gains, AutopilotState(), 1e-3)
        assert out < 0.0
        assert out == pytest.approx(gains.Kp_psi * (-math.pi / 2))

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            AutopilotGains(Kp_psi=0.0)
        with pytest.raises(ValueError):
            AutopilotGains(Ki_psi=-1.0)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, dt):
        # An infinite step would return nan and leave an infinite integral.
        state = AutopilotState()
        with pytest.raises(ValueError, match="autopilot step must be positive and finite"):
            autopilot_step(0.1, 0.0, 0.0, AutopilotGains(), state, dt)
        assert state == AutopilotState()


class TestYawLoop:
    GAMMA = 1.0

    def simulate(self, gains, psi_ref, duration, dt=1e-3):
        # Decoupled yaw plant: psi' = r, r' = Gamma_r - gamma * r.
        st = AutopilotState()
        psi, r = 0.0, 0.0
        n = round(duration / dt)
        trace = np.empty((n + 1, 2))
        for i in range(n + 1):
            g = autopilot_step(psi_ref, psi, r, gains, st, dt)
            trace[i] = (i * dt, psi)
            # exact-enough small-step integration of the linear plant
            r_new = r + dt * (g - self.GAMMA * r)
            psi += dt * 0.5 * (r + r_new)
            r = r_new
        return trace

    def test_default_gains_settle_a_unit_step_quickly(self):
        trace = self.simulate(AutopilotGains(), 1.0, duration=2.0)
        tail = trace[trace[:, 0] >= 2.0 - 0.25]
        assert np.all(np.abs(tail[:, 1] - 1.0) < 0.01)

    def test_closed_loop_poles_are_stable(self):
        # With rate feedback the closed yaw loop is linear:
        # s^2 + (Kd + gamma) s + Kp (+ Ki / s when enabled).
        g = AutopilotGains()
        poles = np.roots([1.0, g.Kd_psi + self.GAMMA, g.Kp_psi])
        assert np.all(poles.real < 0.0)
        g2 = AutopilotGains(Kp_psi=25.0, Kd_psi=10.0, Ki_psi=5.0)
        poles = np.roots([1.0, g2.Kd_psi + self.GAMMA, g2.Kp_psi, g2.Ki_psi])
        assert np.all(poles.real < -1e-6)

    def test_faster_than_outer_loop_defaults(self):
        # Bandwidth separation guard for the shipped default tunings.
        from heolsim.heol_control import HeolConfig

        assert AutopilotGains().Kp_psi >= 25.0 * HeolConfig().Kp
