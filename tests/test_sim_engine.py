import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heolsim import sim_engine
from heolsim.heading_autopilot import AutopilotGains
from heolsim.heol_control import HeolConfig, IpdGains
from heolsim.reference_trajectory import TrajectorySpec
from heolsim.sim_engine import (
    NonFiniteState,
    ScenarioConfig,
    body_to_inertial_velocity,
    rk4_step,
    run_scenario,
)
from heolsim.vessel_dynamics import (
    InertialForce,
    VesselDerivative,
    VesselParams,
    VesselState,
)


def hovercraft_config(**overrides):
    base = dict(
        model=VesselParams.hovercraft(beta=10.0, gamma=1.0),
        trajectory=TrajectorySpec.line(speed=2.0),
        controller_beta=10.0,
        initial_state=VesselState(y=10.0),
        wind=InertialForce(fy=-50.0),
        heol=HeolConfig(T=0.5, dt=1e-3),
        autopilot=AutopilotGains(),
        duration=60.0,
        dt_plant=1e-3,
        control_decimation=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def otter_config(**overrides):
    period = 2 * math.pi / 0.04
    base = dict(
        model=VesselParams(a=0.58, b=-1.72, c=0.0, beta_u=10.0, beta_v=15.0,
                           gamma=1.0),
        trajectory=TrajectorySpec.circle(radius=25.0, angular_rate=0.04),
        controller_beta=10.0,
        initial_state=VesselState(x=40.0, psi=math.pi / 2),
        wind=InertialForce(fy=-50.0),
        heol=HeolConfig(T=0.5, dt=1e-3),
        autopilot=AutopilotGains(),
        duration=1.2 * period,
        dt_plant=1e-3,
        control_decimation=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRk4Step:
    def test_zero_field_is_identity(self):
        state = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        out = rk4_step(lambda s: (0.0,) * 6, state, 0.1)
        assert out == state

    def test_single_step_matches_exponential(self):
        gamma, dt = 1.0, 1e-3
        out = rk4_step(lambda s: (-gamma * s[0],), (1.0,), dt)
        assert out[0] == pytest.approx(math.exp(-gamma * dt), abs=1e-12)

    def test_blowup_raises(self):
        state = (1.0,)
        with pytest.raises(NonFiniteState):
            for _ in range(10000):
                state = rk4_step(lambda s: (100.0 * s[0],), state, 0.1)


    def test_uses_the_derivative_s_own_step(self):
        class Unrolled:
            def __call__(self, state):
                raise AssertionError("generic stages used")

            def rk4(self, state, dt):
                return (state[0] + dt,)

        assert rk4_step(Unrolled(), (1.0,), 0.5) == (1.5,)


def _bits(outcome):
    return outcome if isinstance(outcome, str) else tuple(map(float.hex, outcome))


def _step_both_ways(plant, state, dt):
    """Outcome of the unrolled and of the generic step: the result's bits,
    or "diverged"."""
    outcomes = []
    for deriv_fn in (plant, lambda s: plant(s)):
        try:
            outcomes.append(_bits(rk4_step(deriv_fn, state, dt)))
        except NonFiniteState:
            outcomes.append("diverged")
    return outcomes


_nonzero = st.floats(-100.0, 100.0).filter(lambda f: f != 0.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)
# States near zero keep one-ulp differences in a stage visible in the result.
_moderate = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-50.0, 50.0))
_plants = st.builds(
    lambda a, c, bu, bv, g, fx, fy, fu, gr: VesselDerivative(
        VesselParams(a=a, b=-1.0 / a, c=c, beta_u=bu, beta_v=bv, gamma=g),
        InertialForce(fx=fx, fy=fy), fu, gr,
    ),
    a=st.floats(0.3, 3.0),
    c=st.floats(-5.0, 5.0).filter(lambda f: f != 0.0),
    bu=st.floats(0.01, 50.0),
    bv=st.floats(0.01, 50.0),
    g=st.floats(0.01, 50.0),
    fx=_nonzero,
    fy=_nonzero,
    fu=st.one_of(_moderate, _finite),
    gr=st.one_of(_moderate, _finite),
)
_states = st.tuples(
    st.one_of(_moderate, _finite),
    st.one_of(_moderate, _finite),
    st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6), _finite),
    st.one_of(_moderate, _finite),
    st.one_of(_moderate, _finite),
    st.one_of(_moderate, _finite),
)
_dts = st.sampled_from([1e-4, 1e-3, 1e-2])


class TestUnrolledVesselStep:
    """The engine's unrolled plant step against the generic RK4 stages over
    the same derivative: equal bits, or both diverge."""

    @settings(max_examples=400, deadline=None)
    @given(plant=_plants, state=_states, dt=_dts)
    def test_matches_generic_step(self, plant, state, dt):
        fast, generic = _step_both_ways(plant, state, dt)
        assert fast == generic

    @settings(max_examples=200, deadline=None)
    @given(
        plant=_plants,
        state=_states,
        dt=_dts,
        where=st.integers(0, 7),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_input_diverges_both_ways(self, plant, state, dt, where, bad):
        if where < 6:
            state = state[:where] + (bad,) + state[where + 1:]
        elif where == 6:
            plant.fu = bad
        else:
            plant.gamma_r = bad
        assert _step_both_ways(plant, state, dt) == ["diverged", "diverged"]


class TestBodyToInertial:
    def test_axis_aligned(self):
        assert body_to_inertial_velocity((0, 0, 0.0, 1.0, 0.0, 0)) == (1.0, 0.0)
        vx, vy = body_to_inertial_velocity((0, 0, math.pi / 2, 1.0, 0.0, 0))
        assert vx == pytest.approx(0.0, abs=1e-15)
        assert vy == pytest.approx(1.0)

    def test_rotation_preserves_speed(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            psi, u, v = rng.uniform(-7, 7, size=3)
            vx, vy = body_to_inertial_velocity((0, 0, psi, u, v, 0))
            assert vx * vx + vy * vy == pytest.approx(u * u + v * v, rel=1e-12)


class TestRunScenario:
    def test_log_grid_and_shape(self):
        cfg = hovercraft_config(duration=2.0)
        log, metrics = run_scenario(cfg)
        assert len(log) == 2001
        np.testing.assert_allclose(np.diff(log.t), 1e-3, rtol=1e-9)
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(2.0)

    def test_matched_feedforward_regime(self):
        # Started exactly on the reference with no wind: the loop coasts and
        # the errors stay at numerical zero.
        cfg = hovercraft_config(
            initial_state=VesselState(x=0.0, y=0.0, psi=0.0, u=2.0, v=0.0, r=0.0),
            wind=InertialForce(),
            duration=20.0,
        )
        log, metrics = run_scenario(cfg)
        assert metrics.rms_error_x < 1e-3
        assert metrics.rms_error_y < 1e-3
        assert np.max(np.hypot(log.e_x, log.e_y)) < 1e-3

    def test_deterministic_replay(self):
        cfg_a = hovercraft_config(duration=5.0)
        cfg_b = hovercraft_config(duration=5.0)
        log_a, _ = run_scenario(cfg_a)
        log_b, _ = run_scenario(cfg_b)
        for name in ("x", "y", "psi", "F_hat_y", "F_u", "Gamma_r"):
            assert np.array_equal(getattr(log_a, name), getattr(log_b, name))

    def test_wind_estimate_converges_on_line(self):
        log, metrics = run_scenario(hovercraft_config())
        half = log.t >= 30.0
        assert abs(metrics.F_hat_y_mean + 50.0) < 0.5
        assert np.abs(log.e_y[half]).max() < 0.1
        assert metrics.convergence_time is not None

    def test_wind_off_baseline(self):
        on = run_scenario(hovercraft_config(duration=30.0))[1]
        off = run_scenario(
            hovercraft_config(duration=30.0, wind=InertialForce())
        )[1]
        assert abs(off.F_hat_y_mean) < 0.05 * abs(on.F_hat_y_mean)
        assert abs(off.F_hat_x_mean) < 0.05 * abs(on.F_hat_y_mean)

    def test_yaw_channel_consistency(self):
        # Reconstructing r' by finite differences must reproduce the logged
        # yaw moment minus damping once the initial transient has passed.
        cfg = hovercraft_config(duration=10.0)
        log, _ = run_scenario(cfg)
        dt = cfg.dt_plant
        rdot_fd = (log.r[2:] - log.r[:-2]) / (2 * dt)
        want = log.Gamma_r[1:-1] - cfg.model.gamma * log.r[1:-1]
        sel = log.t[1:-1] >= 5.0
        np.testing.assert_allclose(rdot_fd[sel], want[sel], atol=1e-3)

    def test_cascade_insensitive_to_inner_gains(self):
        # The inner loop is much faster than the outer one, so doubling its
        # gains must barely move the converged tracking quality.
        cfg_a = otter_config(duration=60.0)
        cfg_b = otter_config(
            duration=60.0,
            autopilot=AutopilotGains(Kp_psi=50.0, Kd_psi=20.0),
        )
        m_a = run_scenario(cfg_a)[1]
        m_b = run_scenario(cfg_b)[1]
        norm_a = math.hypot(m_a.rms_error_x, m_a.rms_error_y)
        norm_b = math.hypot(m_b.rms_error_x, m_b.rms_error_y)
        assert abs(norm_a - norm_b) < 0.2 * max(norm_a, norm_b)

    def test_control_decimation_consistency(self):
        # Running the controller at half rate barely changes the outcome but
        # changes the tick grid; both must satisfy the tracking bound.
        cfg = hovercraft_config(
            duration=30.0,
            control_decimation=2,
            heol=HeolConfig(T=0.5, dt=2e-3),
        )
        log, metrics = run_scenario(cfg)
        assert metrics.rms_error_y < 0.05
        assert abs(metrics.F_hat_y_mean + 50.0) < 1.0

    def test_singular_guidance_fallback(self):
        # A null reference with the vehicle parked on it gives the guidance
        # nothing to point at: thrust is cut and events are recorded.
        cfg = hovercraft_config(
            trajectory=TrajectorySpec.line(speed=0.0),
            initial_state=VesselState(),
            wind=InertialForce(),
            duration=1.0,
        )
        log, _ = run_scenario(cfg)
        assert len(log.events) > 0
        np.testing.assert_allclose(log.F_u, 0.0)
        np.testing.assert_allclose(log.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(log.psi_ref, 0.0)

    def test_blowup_aborts_with_diagnostic(self):
        cfg = hovercraft_config(
            wind=InertialForce(fy=-1e308), duration=0.05
        )
        with pytest.raises(NonFiniteState):
            run_scenario(cfg)

    def test_blowup_reports_step_time_state_and_inputs(self):
        diverging = dict(
            model=VesselParams(a=1.0, b=-1.0, c=1.0, beta_u=10.0, beta_v=10.0,
                               gamma=1.0),
            wind=InertialForce(fy=-1e5),
        )
        with pytest.raises(NonFiniteState) as info:
            run_scenario(hovercraft_config(duration=0.5, **diverging))
        exc = info.value
        assert exc.step > 0
        assert exc.t == exc.step * 1e-3
        # The same run stopped at that step logs the reported state and
        # inputs as its last row.
        log, _ = run_scenario(hovercraft_config(duration=exc.t, **diverging))
        assert len(log) == exc.step + 1
        last = tuple(getattr(log, name)[-1] for name in ("x", "y", "psi", "u", "v", "r"))
        assert last == exc.state
        assert (log.F_u[-1], log.Gamma_r[-1]) == exc.inputs
        assert f"{exc.state}" in str(exc)

    def test_errors_are_reference_minus_position(self):
        log, _ = run_scenario(otter_config(duration=2.0))
        assert np.array_equal(log.e_x, log.x_ref - log.x)
        assert np.array_equal(log.e_y, log.y_ref - log.y)

    def test_metrics_convergence_time(self):
        cfg = hovercraft_config(duration=30.0, wind=InertialForce())
        log, metrics = run_scenario(cfg)
        # 10 m initial offset, threshold 0.5 m: converges well before the end
        # and never leaves again.
        assert metrics.convergence_time is not None
        assert 0.0 < metrics.convergence_time < 15.0
        norms = np.hypot(log.e_x, log.e_y)
        after = log.t >= metrics.convergence_time
        assert np.all(norms[after] < 0.5)

    def test_metrics_not_converged_is_none(self):
        cfg = hovercraft_config(duration=2.0, convergence_threshold=1e-9)
        _, metrics = run_scenario(cfg)
        assert metrics.convergence_time is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hovercraft_config(duration=-1.0)
        with pytest.raises(ValueError):
            hovercraft_config(control_decimation=0)
        with pytest.raises(ValueError):
            # controller period must match plant rate times decimation
            hovercraft_config(heol=HeolConfig(T=0.5, dt=2e-3))
        with pytest.raises(ValueError):
            hovercraft_config(controller_beta=0.0)
        with pytest.raises(ValueError, match="plant steps"):
            hovercraft_config(duration=1e300, dt_plant=1e-300,
                              heol=HeolConfig(T=0.5, dt=1e-300))

    def test_estimator_windows_must_fit_in_memory(self, monkeypatch):
        # 1 MB of "physical memory": the 1001-row log fits, two windows of
        # 100,001 samples do not, two of 1,001 do.
        monkeypatch.setattr(sim_engine, "_memory_bytes", lambda: 10**6)
        with pytest.raises(ValueError, match="heol.T / controller period"):
            hovercraft_config(duration=1.0, heol=HeolConfig(T=100.0, dt=1e-3))
        hovercraft_config(duration=1.0, heol=HeolConfig(T=1.0, dt=1e-3))

    def test_overflowing_metric_is_non_finite_state(self):
        cfg = hovercraft_config(duration=1.0, wind=InertialForce(fx=0.0, fy=-1e306))
        with pytest.raises(NonFiniteState, match="metric rms_error_. is inf") as info:
            run_scenario(cfg)
        assert info.value.step is None and info.value.t is None
