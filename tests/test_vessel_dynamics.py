import math

import numpy as np
import pytest

from heolsim.vessel_dynamics import (
    ControlInputs,
    InertialForce,
    PhysicalParams,
    VesselParams,
    VesselState,
    hovercraft_derivative,
    reduce_params,
    surface_vessel_derivative,
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


def random_physical(rng):
    m = rng.uniform(1.0, 100.0)
    mu = rng.uniform(0.5, 50.0)   # m - Xudot
    mv = rng.uniform(0.5, 50.0)   # m - Yvdot
    mr = rng.uniform(0.5, 50.0)   # Iz - Nrdot
    Iz = rng.uniform(0.5, 20.0)
    return PhysicalParams(
        m=m,
        Iz=Iz,
        Xudot=m - mu,
        Yvdot=m - mv,
        Nrdot=Iz - mr,
        du=rng.uniform(0.1, 30.0),
        dv=rng.uniform(0.1, 30.0),
        dr=rng.uniform(0.1, 30.0),
    )


class TestReduceParams:
    def test_circular_hull_case(self):
        p = PhysicalParams(m=10.0, Iz=2.0, Xudot=-5.0, Yvdot=-5.0, Nrdot=-1.0,
                           du=15.0, dv=15.0, dr=3.0)
        red = reduce_params(p)
        assert red.a == pytest.approx(1.0)
        assert red.b == pytest.approx(-1.0)
        assert red.c == pytest.approx(0.0)
        assert red.beta_u == pytest.approx(1.0)
        assert red.beta_v == pytest.approx(1.0)
        assert red.gamma == pytest.approx(1.0)

    def test_equal_added_masses_give_zero_coupling(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_physical(rng)
            p = PhysicalParams(m=p.m, Iz=p.Iz, Xudot=p.Xudot, Yvdot=p.Xudot,
                               Nrdot=p.Nrdot, du=p.du, dv=p.dv, dr=p.dr)
            assert reduce_params(p).c == 0.0

    def test_mass_ratio_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_physical(rng)
            red = reduce_params(p)
            assert abs(red.a * red.b + 1.0) < 1e-12
            assert red.a * (p.m - p.Xudot) == pytest.approx(p.m - p.Yvdot, rel=1e-12)

    def test_roundtrip_from_reduced(self):
        # Reconstruct physical data realizing arbitrary valid reduced params,
        # reduce again and compare.  c and (a - 1) share sign by construction
        # (both are ratios of positive effective masses).
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(0.2, 3.0)
            beta_u = rng.uniform(0.1, 20.0)
            beta_v = rng.uniform(0.1, 20.0)
            gamma = rng.uniform(0.1, 20.0)
            mu = rng.uniform(0.5, 40.0)
            if abs(a - 1.0) < 1e-3:
                c, mr = 0.0, rng.uniform(0.5, 40.0)
            else:
                c = (a - 1.0) * rng.uniform(0.01, 5.0)
                mr = (a - 1.0) * mu / c
            m = rng.uniform(1.0, 50.0)
            Iz = rng.uniform(0.5, 20.0)
            p = PhysicalParams(m=m, Iz=Iz, Xudot=m - mu, Yvdot=m - a * mu,
                               Nrdot=Iz - mr, du=beta_u * mu, dv=beta_v * a * mu,
                               dr=gamma * mr)
            red = reduce_params(p)
            assert red.a == pytest.approx(a, rel=1e-12)
            assert red.b == pytest.approx(-1.0 / a, rel=1e-12)
            assert red.c == pytest.approx(c, rel=1e-12, abs=1e-12)
            assert red.beta_u == pytest.approx(beta_u, rel=1e-12)
            assert red.beta_v == pytest.approx(beta_v, rel=1e-12)
            assert red.gamma == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("Xudot", 11.0),   # m - Xudot <= 0
        ("Yvdot", 10.0),   # m - Yvdot = 0
        ("Nrdot", 3.0),    # Iz - Nrdot <= 0
    ])
    def test_rejects_nonpositive_divisors(self, field, value):
        kwargs = dict(m=10.0, Iz=2.0, Xudot=-5.0, Yvdot=-5.0, Nrdot=-1.0,
                      du=1.0, dv=1.0, dr=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)


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
        assert VesselState(*s.as_tuple()) == s

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            VesselState(x=float("nan"))


class TestSurfaceVesselDerivative:
    PARAMS = VesselParams(a=0.58, b=-1.72, c=0.3, beta_u=10.0, beta_v=15.0, gamma=1.0)

    def test_equilibrium_is_zero(self):
        d = surface_vessel_derivative((0.0,) * 6, ControlInputs(), self.PARAMS)
        np.testing.assert_allclose(d, 0.0)

    def test_pure_surge_damping(self):
        p = VesselParams.hovercraft(beta=10.0, gamma=1.0)
        d = surface_vessel_derivative((0, 0, 0, 1.0, 0, 0), ControlInputs(), p)
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0, -10.0, 0.0, 0.0], atol=1e-15)

    def test_matches_naive_transcription(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            state = tuple(rng.uniform(-5.0, 5.0, size=6))
            ctrl = ControlInputs(Fu=rng.uniform(-20, 20), Gamma_r=rng.uniform(-5, 5))
            wind = InertialForce(fx=rng.uniform(-60, 60), fy=rng.uniform(-60, 60))
            got = surface_vessel_derivative(state, ctrl, self.PARAMS, wind)
            want = naive_derivative(state, ctrl.Fu, ctrl.Gamma_r, self.PARAMS,
                                    wind.fx, wind.fy)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_frame_consistency(self):
        # No sideways velocity and zero heading: inertial x rate equals surge.
        d = surface_vessel_derivative((3.0, -2.0, 0.0, 1.7, 0.0, 0.2),
                                      ControlInputs(), self.PARAMS)
        assert d[0] == 1.7

    def test_wind_rotation_roundtrip(self):
        # The wind contribution to (udot, vdot), rotated back to the inertial
        # frame, must reproduce (fx, fy) at every heading.
        rng = np.random.default_rng(5)
        for _ in range(100):
            psi = rng.uniform(-10.0, 10.0)
            state = (0.0, 0.0, psi, 0.0, 0.0, 0.0)
            wind = InertialForce(fx=rng.uniform(-50, 50), fy=rng.uniform(-50, 50))
            calm = surface_vessel_derivative(state, ControlInputs(), self.PARAMS)
            windy = surface_vessel_derivative(state, ControlInputs(), self.PARAMS, wind)
            du = windy[3] - calm[3]
            dv = windy[4] - calm[4]
            fx_back = du * math.cos(psi) - dv * math.sin(psi)
            fy_back = du * math.sin(psi) + dv * math.cos(psi)
            assert math.hypot(fx_back - wind.fx, fy_back - wind.fy) < 1e-12


class TestHovercraftDerivative:
    def test_equals_substituted_full_model(self):
        rng = np.random.default_rng(23)
        p = VesselParams.hovercraft(beta=7.5, gamma=2.5)
        for _ in range(100):
            state = tuple(rng.uniform(-4.0, 4.0, size=6))
            ctrl = ControlInputs(Fu=rng.uniform(-20, 20), Gamma_r=rng.uniform(-5, 5))
            wind = InertialForce(fx=rng.uniform(-50, 50), fy=rng.uniform(-50, 50))
            got = hovercraft_derivative(state, ctrl, 7.5, 2.5, wind)
            want = surface_vessel_derivative(state, ctrl, p, wind)
            assert got == want

    def test_term_by_term_example(self):
        d = hovercraft_derivative((0, 0, 0, 0, 1.0, 1.0), ControlInputs(),
                                  beta=10.0, gamma=1.0)
        assert d[3] == pytest.approx(1.0)     # v*r coupling
        assert d[4] == pytest.approx(-10.0)   # sway damping
        assert d[5] == pytest.approx(-1.0)    # yaw damping

    def test_yaw_rate_independent_of_uv(self):
        rng = np.random.default_rng(9)
        r = 0.7
        base = hovercraft_derivative((0, 0, 0.4, 0.0, 0.0, r), ControlInputs(),
                                     10.0, 1.0)[5]
        for _ in range(50):
            u, v = rng.uniform(-5.0, 5.0, size=2)
            d = hovercraft_derivative((0, 0, 0.4, u, v, r), ControlInputs(),
                                      10.0, 1.0)
            assert d[5] == base

    def test_yaw_decoupling_by_finite_differences(self):
        h = 1e-6
        state = (0.0, 0.0, 0.3, 1.0, -0.5, 0.4)
        ctrl = ControlInputs(Fu=3.0, Gamma_r=0.5)

        def rdot(u, v):
            s = (state[0], state[1], state[2], u, v, state[5])
            return hovercraft_derivative(s, ctrl, 10.0, 1.0)[5]

        d_du = (rdot(1.0 + h, -0.5) - rdot(1.0 - h, -0.5)) / (2 * h)
        d_dv = (rdot(1.0, -0.5 + h) - rdot(1.0, -0.5 - h)) / (2 * h)
        assert abs(d_du) < 1e-9
        assert abs(d_dv) < 1e-9

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            hovercraft_derivative((0,) * 6, ControlInputs(), beta=-1.0, gamma=1.0)
