import math
from dataclasses import astuple

import numpy as np
import pytest

from heolsim.vessel_dynamics import (
    InertialForce,
    VesselDerivative,
    VesselParams,
    VesselState,
)


def naive_derivative(state, fu, gamma_r, p, fx, fy):
    """Independent literal transcription of the model, kept as the oracle."""
    x, y, psi, u, v, r = state
    xdot = u * math.cos(psi) - v * math.sin(psi)
    ydot = u * math.sin(psi) + v * math.cos(psi)
    psidot = r
    wind_body_x = fx * math.cos(psi) + fy * math.sin(psi)
    wind_body_y = -fx * math.sin(psi) + fy * math.cos(psi)
    udot = fu + p.a * v * r - p.beta_u * u + wind_body_x
    vdot = p.b * u * r - p.beta_v * v + wind_body_y
    rdot = gamma_r + p.c * u * v - p.gamma * r
    return np.array([xdot, ydot, psidot, udot, vdot, rdot])


class TestVesselParams:
    def test_rejects_nonpositive_damping(self):
        with pytest.raises(ValueError):
            VesselParams(a=1.0, b=-1.0, c=0.0, beta_u=0.0, beta_v=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            VesselParams(a=1.0, b=-1.0, c=0.0, beta_u=1.0, beta_v=1.0, gamma=-2.0)

    def test_rejects_inconsistent_mass_ratios(self):
        with pytest.raises(ValueError):
            VesselParams(a=1.0, b=-2.0, c=0.0, beta_u=1.0, beta_v=1.0, gamma=1.0)

    def test_accepts_published_rounded_ratios(self):
        # Rounded to two decimals, a*b = -0.9976; must still construct.
        p = VesselParams(a=0.58, b=-1.72, c=0.0, beta_u=10.0, beta_v=15.0, gamma=1.0)
        assert p.beta_v == 15.0

    def test_hovercraft_constructor(self):
        p = VesselParams.hovercraft(beta=10.0, gamma=1.0)
        assert (p.a, p.b, p.c) == (1.0, -1.0, 0.0)
        assert p.beta_u == p.beta_v == 10.0


class TestVesselState:
    def test_tuple_roundtrip(self):
        s = VesselState(1.0, 2.0, 0.3, 0.4, 0.5, 0.6)
        assert VesselState(*astuple(s)) == s

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VesselState(x=float("nan"))


def full_derivative(state, params, wind=InertialForce(), fu=0.0, gamma_r=0.0):
    return VesselDerivative(params, wind)(state, fu, gamma_r)


def hovercraft(beta, gamma, fu=0.0, gamma_r=0.0):
    plant = VesselDerivative(VesselParams.hovercraft(beta, gamma))
    return lambda state: plant(state, fu, gamma_r)


class TestSurfaceVesselDerivative:
    PARAMS = VesselParams(a=0.58, b=-1.72, c=0.3, beta_u=10.0, beta_v=15.0, gamma=1.0)

    def test_equilibrium_is_zero(self):
        d = full_derivative((0.0,) * 6, self.PARAMS)
        np.testing.assert_allclose(d, 0.0)

    def test_pure_surge_damping(self):
        p = VesselParams.hovercraft(beta=10.0, gamma=1.0)
        d = full_derivative((0, 0, 0, 1.0, 0, 0), p)
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0, -10.0, 0.0, 0.0], atol=1e-15)

    def test_matches_naive_transcription(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            state = tuple(rng.uniform(-5.0, 5.0, size=6))
            fu, gamma_r = rng.uniform(-20, 20), rng.uniform(-5, 5)
            wind = InertialForce(fx=rng.uniform(-60, 60), fy=rng.uniform(-60, 60))
            got = full_derivative(state, self.PARAMS, wind, fu, gamma_r)
            want = naive_derivative(state, fu, gamma_r, self.PARAMS,
                                    wind.fx, wind.fy)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_frame_consistency(self):
        # No sideways velocity and zero heading: inertial x rate equals surge.
        d = full_derivative((3.0, -2.0, 0.0, 1.7, 0.0, 0.2), self.PARAMS)
        assert d[0] == 1.7

    def test_wind_rotation_roundtrip(self):
        # The wind contribution to (udot, vdot), rotated back to the inertial
        # frame, must reproduce (fx, fy) at every heading.
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi = rng.uniform(-10.0, 10.0)
            state = (0.0, 0.0, psi, 0.0, 0.0, 0.0)
            wind = InertialForce(fx=rng.uniform(-50, 50), fy=rng.uniform(-50, 50))
            calm = full_derivative(state, self.PARAMS)
            windy = full_derivative(state, self.PARAMS, wind)
            du = windy[3] - calm[3]
            dv = windy[4] - calm[4]
            fx_back = du * math.cos(psi) - dv * math.sin(psi)
            fy_back = du * math.sin(psi) + dv * math.cos(psi)
            assert math.hypot(fx_back - wind.fx, fy_back - wind.fy) < 1e-12


class TestHovercraftDerivative:
    def test_term_by_term_example(self):
        d = hovercraft(beta=10.0, gamma=1.0)((0, 0, 0, 0, 1.0, 1.0))
        assert d[3] == pytest.approx(1.0)     # v*r coupling
        assert d[4] == pytest.approx(-10.0)   # sway damping
        assert d[5] == pytest.approx(-1.0)    # yaw damping

    def test_yaw_rate_independent_of_uv(self):
        rng = np.random.default_rng(9)
        r = 0.7
        base = hovercraft(10.0, 1.0)((0, 0, 0.4, 0.0, 0.0, r))[5]
        for _ in range(50):
            u, v = rng.uniform(-5.0, 5.0, size=2)
            d = hovercraft(10.0, 1.0)((0, 0, 0.4, u, v, r))
            assert d[5] == base

    def test_yaw_decoupling_by_finite_differences(self):
        h = 1e-6
        state = (0.0, 0.0, 0.3, 1.0, -0.5, 0.4)
        plant = hovercraft(10.0, 1.0, fu=3.0, gamma_r=0.5)

        def rdot(u, v):
            s = (state[0], state[1], state[2], u, v, state[5])
            return plant(s)[5]

        d_du = (rdot(1.0 + h, -0.5) - rdot(1.0 - h, -0.5)) / (2 * h)
        d_dv = (rdot(1.0, -0.5 + h) - rdot(1.0, -0.5 - h)) / (2 * h)
        assert abs(d_du) < 1e-9
        assert abs(d_dv) < 1e-9

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            hovercraft(beta=-1.0, gamma=1.0)((0,) * 6)
