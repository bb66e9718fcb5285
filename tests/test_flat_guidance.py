import math
import re

import numpy as np
import pytest

from heolsim.flat_guidance import (
    SingularityError,
    flat_feedforward,
    physical_from_brunovsky,
    unwrap_heading,
)
from heolsim.reference_trajectory import TrajectorySpec, sample
from heolsim.sim_engine import rk4_step
from heolsim.vessel_dynamics import VesselDerivative, VesselParams


class TestFlatHeading:
    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vx, ax, vy, ay = rng.uniform(-3, 3, size=4)
            base, fu = physical_from_brunovsky(ax, ay, vx, vy, 4.0)
            k = rng.uniform(0.1, 50.0)
            scaled, fu_k = physical_from_brunovsky(
                k * ax, k * ay, k * vx, k * vy, 4.0)
            assert scaled == pytest.approx(base, abs=1e-12)
            assert fu_k == pytest.approx(k * fu, rel=1e-12)

    def test_recovers_heading_of_simulated_vehicle(self):
        # Drive the plant open loop with smooth positive thrust, then invert
        # the recorded motion.  Inertial accelerations come from finite
        # differences of the recorded velocities, keeping the oracle
        # independent of the model equations.
        beta, gamma = 4.0, 2.0
        dt = 1e-3
        n = 4000
        state = (0.0, 0.0, 0.2, 1.0, 0.0, 0.0)
        states = [state]
        thrust = []
        plant = VesselDerivative(VesselParams.hovercraft(beta, gamma))
        for i in range(n):
            t = i * dt
            fu = 12.0 + 2.0 * math.sin(0.5 * t)
            gamma_r = 0.3 * math.cos(0.7 * t)
            thrust.append(fu)
            state = rk4_step(plant, state, fu, gamma_r, dt)
            states.append(state)
        arr = np.array(states)
        psi_rec = arr[:, 2]
        vx = arr[:, 3] * np.cos(psi_rec) - arr[:, 4] * np.sin(psi_rec)
        vy = arr[:, 3] * np.sin(psi_rec) + arr[:, 4] * np.cos(psi_rec)
        ax = np.gradient(vx, dt)
        ay = np.gradient(vy, dt)
        for i in range(50, n - 50, 97):
            psi, fu = physical_from_brunovsky(
                ax[i], ay[i], vx[i], vy[i], beta)
            diff = (psi - psi_rec[i] + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-6
            # The central difference spans the steps before and after i,
            # each under its own held thrust.
            assert fu == pytest.approx(0.5 * (thrust[i - 1] + thrust[i]), abs=1e-4)


class TestFlatFeedforward:
    def test_line_reference(self):
        ff = flat_feedforward(TrajectorySpec("line", speed=2.0), 4.0,
                              beta=10.0, gamma=1.0)
        assert ff.psi == pytest.approx(0.0)
        assert ff.r == pytest.approx(0.0)
        assert ff.Gamma_r == pytest.approx(0.0)
        assert ff.u == pytest.approx(2.0)
        assert ff.v == pytest.approx(0.0)
        assert ff.Fu == pytest.approx(20.0)

    @pytest.mark.parametrize("speed", [2.0, -2.0])
    def test_a_line_reads_no_angular_rate(self, speed):
        # The jerk-and-snap identity's rate is 0 on a line, whatever its
        # unread angular_rate field holds.  Backwards, the heading is pi,
        # whose sine is not exactly 0, so a rate read by mistake would
        # show in r and Gamma_r.
        plain = TrajectorySpec("line", speed=speed)
        spun = TrajectorySpec("line", speed=speed, angular_rate=3.0)
        for t in (0.0, 4.0):
            assert (flat_feedforward(spun, t, beta=10.0, gamma=1.0)
                    == flat_feedforward(plain, t, beta=10.0, gamma=1.0))

    def test_circle_at_zero_is_finite(self):
        ff = flat_feedforward(TrajectorySpec("circle", radius=1.0, angular_rate=1.0),
                              0.0, beta=10.0, gamma=1.0)
        assert ff.psi == pytest.approx(math.atan2(10.0, -1.0))
        assert math.isfinite(ff.Fu) and math.isfinite(ff.Gamma_r)

    def test_heading_rates_match_finite_differences(self):
        spec = TrajectorySpec("circle", radius=2.0, angular_rate=0.8, phase=0.4)
        beta, gamma = 6.0, 1.5
        h = 1e-5
        for t in (0.7, 2.9, 5.3):
            psis = []
            for tt in (t - h, t, t + h):
                psis.append(flat_feedforward(spec, tt, beta, gamma).psi)
            psis = np.unwrap(psis)
            ff = flat_feedforward(spec, t, beta, gamma)
            fd_rate = (psis[2] - psis[0]) / (2 * h)
            fd_acc = (psis[2] - 2 * psis[1] + psis[0]) / h**2
            assert ff.r == pytest.approx(fd_rate, rel=1e-7, abs=1e-8)
            assert ff.Gamma_r - gamma * ff.r == pytest.approx(fd_acc, rel=1e-4, abs=1e-4)

    def test_singular_reference_raises(self):
        still = TrajectorySpec("line", speed=0.0)
        with pytest.raises(SingularityError):
            flat_feedforward(still, 1.0, beta=10.0, gamma=1.0)

    def test_open_loop_inputs_track_the_reference(self):
        # The defining property: feeding the inverted inputs into the exact
        # plant reproduces the flat outputs to integration accuracy.
        spec = TrajectorySpec("circle", radius=1.0, angular_rate=1.0)
        beta, gamma = 10.0, 1.0
        dt = 1e-3
        plant = VesselDerivative(VesselParams.hovercraft(beta, gamma))
        x_d, y_d = sample(spec, 0.0)
        ff0 = flat_feedforward(spec, 0.0, beta, gamma)
        state = (x_d[0], y_d[0], ff0.psi, ff0.u, ff0.v, ff0.r)
        worst = 0.0
        for i in range(5000):
            ff = flat_feedforward(spec, i * dt, beta, gamma)
            state = rk4_step(plant, state, ff.Fu, ff.Gamma_r, dt)
            x_d, y_d = sample(spec, (i + 1) * dt)
            worst = max(worst, math.hypot(state[0] - x_d[0], state[1] - y_d[0]))
        assert worst < 1e-6


class TestBrunovskyMaps:
    def test_reconstruction_examples(self):
        psi, fu = physical_from_brunovsky(0.0, 0.0, 2.0, 0.0, 10.0)
        assert psi == pytest.approx(0.0)
        assert fu == pytest.approx(20.0)
        psi, fu = physical_from_brunovsky(0.0, 0.0, 0.0, 1.0, 10.0)
        assert psi == pytest.approx(math.pi / 2)
        assert fu == pytest.approx(10.0)

    def test_roundtrip_is_identity(self):
        # The plant is the oracle: the chain accelerations a hovercraft
        # state and thrust produce must invert to that heading and thrust.
        rng = np.random.default_rng(17)
        for _ in range(200):
            psi = rng.uniform(-7.0, 7.0)
            fu = rng.uniform(0.1, 30.0)
            u, v, r = rng.uniform(-3.0, 3.0, size=3)
            beta = rng.uniform(0.5, 20.0)
            gamma = rng.uniform(0.5, 20.0)
            plant = VesselDerivative(VesselParams.hovercraft(beta, gamma))
            d = plant((0.0, 0.0, psi, u, v, r), fu, 0.0)
            cp, sp = math.cos(psi), math.sin(psi)
            du, dv = d[3] - v * r, d[4] + u * r
            psi_back, fu_back = physical_from_brunovsky(
                du * cp - dv * sp, du * sp + dv * cp, d[0], d[1], beta)
            diff = (psi_back - psi + math.pi) % (2 * math.pi) - math.pi
            assert abs(diff) < 1e-9
            assert fu_back == pytest.approx(fu, abs=1e-9)

    def test_thrust_is_vector_norm_exactly(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            w_x, w_y = rng.uniform(-30.0, 30.0, size=2)
            vx, vy = rng.uniform(-3.0, 3.0, size=2)
            beta = rng.uniform(0.5, 20.0)
            _, fu = physical_from_brunovsky(w_x, w_y, vx, vy, beta)
            assert fu == math.hypot(w_x + beta * vx, w_y + beta * vy)
            assert fu >= 0.0

    def test_reconstruction_singularity(self):
        with pytest.raises(SingularityError):
            physical_from_brunovsky(0.0, 0.0, 0.0, 0.0, 10.0)


class TestUnwrapHeading:
    def test_branch_crossing(self):
        out = unwrap_heading(3.1, -3.1)
        assert out == pytest.approx(-3.1 + 2 * math.pi)

    def test_no_shift_needed(self):
        assert unwrap_heading(0.0, 0.1) == 0.1

    def test_random_walk_stays_continuous(self):
        rng = np.random.default_rng(31)
        true = 0.0
        unwrapped = 0.0
        for _ in range(500):
            true += rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6)
            wrapped = math.atan2(math.sin(true), math.cos(true))
            new = unwrap_heading(unwrapped, wrapped)
            assert abs(new - unwrapped) < math.pi / 2
            unwrapped = new
        assert unwrapped == pytest.approx(true, abs=1e-9)

    @pytest.mark.parametrize("prev, new, cause", [
        (0.0, math.inf, "cannot convert float infinity to integer"),
        # The difference overflows to infinity.
        (1e308, -1e308, "cannot convert float infinity to integer"),
        (0.0, math.nan, "cannot convert float NaN to integer"),
    ])
    def test_refuses_a_heading_it_cannot_wrap(self, prev, new, cause):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot unwrap heading {new!r} near {prev!r}: {cause}")):
            unwrap_heading(prev, new)
