import hashlib
import math
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heolsim import heol_control, sim_engine
from heolsim.flat_guidance import SingularityError
from heolsim.heading_autopilot import AutopilotGains
from heolsim.heol_control import HeolConfig, WindowNotWarm
from heolsim.reference_trajectory import TrajectorySpec, sample
from heolsim.sim_engine import (
    NonFiniteState,
    RunLog,
    RunMetrics,
    rk4_step,
    run_scenario,
)
from heolsim.vessel_dynamics import (
    InertialForce,
    VesselDerivative,
    VesselParams,
    VesselState,
)
from numeric_platform import require_pinned_platform
from scenarios import COMPARISON, builtin


class GenericStages:
    """The classical RK4 stages over any derivative function, as the
    ``rk4`` step :func:`rk4_step` takes: the oracle that the plant's
    unrolled step must match bit for bit."""

    def __init__(self, deriv_fn):
        self.deriv_fn = deriv_fn

    def rk4(self, state, fu, gr, dt):
        deriv_fn = self.deriv_fn
        k1 = deriv_fn(state, fu, gr)
        half = 0.5 * dt
        k2 = deriv_fn([s + half * k for s, k in zip(state, k1)], fu, gr)
        k3 = deriv_fn([s + half * k for s, k in zip(state, k2)], fu, gr)
        k4 = deriv_fn([s + dt * k for s, k in zip(state, k3)], fu, gr)
        sixth = dt / 6.0
        return tuple([
            s + sixth * (a + 2.0 * (b + c) + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ])


def mask_metrics(log, duration, threshold):
    """The run summary over full-length boolean masks and mask-indexed
    copies: the oracle that ``sim_engine._compute_metrics``, which reads
    the log in place, must match bit for bit."""
    t = log.t
    half = t >= 0.5 * duration
    err_norm = np.hypot(log.e_x, log.e_y)
    inside = err_norm < threshold
    if not inside[-1]:
        conv = None
    else:
        outside = np.flatnonzero(~inside)
        conv = float(t[outside[-1] + 1]) if outside.size else float(t[0])
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = RunMetrics(
            rms_error_x=float(np.sqrt(np.mean(log.e_x[half] ** 2))),
            rms_error_y=float(np.sqrt(np.mean(log.e_y[half] ** 2))),
            convergence_time=conv,
            F_hat_x_mean=float(np.mean(log.F_hat_x[half])),
            F_hat_y_mean=float(np.mean(log.F_hat_y[half])),
        )
    for f in fields(RunMetrics):
        value = getattr(metrics, f.name)
        if value is not None and not math.isfinite(value):
            raise NonFiniteState(
                f"metric {f.name} is {value!r}: the logged state stayed "
                f"finite but grew past the float range of the metrics"
            )
    return metrics


class Holds:
    """A derivative whose step returns the state it is given."""

    def rk4(self, state, fu, gr, dt):
        return state


class TestRk4Step:
    def test_zero_field_is_identity(self):
        state = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        out = rk4_step(GenericStages(lambda s, fu, gr: (0.0,) * 6), state,
                       0.0, 0.0, 0.1)
        assert out == state

    def test_single_step_matches_exponential(self):
        gamma, dt = 1.0, 1e-3
        out = rk4_step(GenericStages(lambda s, fu, gr: (-gamma * s[0],)), (1.0,),
                       0.0, 0.0, dt)
        assert out[0] == pytest.approx(math.exp(-gamma * dt), abs=1e-12)

    def test_blowup_raises(self):
        state = (1.0,)
        growth = GenericStages(lambda s, fu, gr: (100.0 * s[0],))
        with pytest.raises(NonFiniteState):
            for _ in range(10000):
                state = rk4_step(growth, state, 0.0, 0.0, 0.1)

    def test_uses_the_derivative_s_own_step(self):
        class Unrolled:
            def __call__(self, state, fu, gr):
                raise AssertionError("generic stages used")

            def rk4(self, state, fu, gr, dt):
                return (state[0] + dt,)

        assert rk4_step(Unrolled(), (1.0,), 0.0, 0.0, 0.5) == (1.5,)

    def test_finite_components_whose_sum_overflows_step(self):
        state = (1e308, 1e308, 1e308, -1.0, 2.0, 3.0)
        assert math.isinf(sum(state))
        assert rk4_step(Holds(), state, 0.0, 0.0, 0.1) == state

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 3, 5])
    def test_a_non_finite_component_raises(self, where, bad):
        state = [1.0] * 6
        state[where] = bad
        with pytest.raises(NonFiniteState):
            rk4_step(Holds(), tuple(state), 0.0, 0.0, 0.1)

    def test_infinities_of_both_signs_raise(self):
        state = (math.inf, -math.inf, 0.0, 0.0, 0.0, 0.0)   # they sum to NaN
        with pytest.raises(NonFiniteState):
            rk4_step(Holds(), state, 0.0, 0.0, 0.1)

    def test_one_component_state_is_checked(self):
        with pytest.raises(NonFiniteState):
            rk4_step(Holds(), (math.nan,), 0.0, 0.0, 1e-3)

    def test_an_infinite_stage_angle_is_non_finite_state(self):
        # The plant's step is plain arithmetic: math.cos's ValueError
        # leaves it as it is, and rk4_step alone translates it.
        plant = VesselDerivative(VesselParams.hovercraft(beta=1.0, gamma=1.0))
        state = (0.0, 0.0, math.inf, 1.0, 0.0, 0.0)
        with pytest.raises(NonFiniteState,
                           match="non-finite stage angle in a step from") as info:
            rk4_step(plant, state, 0.0, 0.0, 0.1)
        assert isinstance(info.value.__cause__, ValueError)
        with pytest.raises(ValueError):
            plant.rk4(state, 0.0, 0.0, 0.1)


def _bits(outcome):
    return outcome if isinstance(outcome, str) else tuple(map(float.hex, outcome))


def _step_both_ways(plant, state, fu, gr, dt):
    """Outcome of the plant's unrolled step and of the oracle's generic
    stages: the result's bits, or "diverged"."""
    outcomes = []
    for deriv_fn in (plant, GenericStages(plant)):
        try:
            outcomes.append(_bits(rk4_step(deriv_fn, state, fu, gr, dt)))
        except NonFiniteState:
            outcomes.append("diverged")
    return outcomes


_nonzero = st.floats(-100.0, 100.0).filter(lambda f: f != 0.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)
# States near zero keep one-ulp differences in a stage visible in the result.
_moderate = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-50.0, 50.0))
_plants = st.builds(
    lambda a, c, bu, bv, g, fx, fy: VesselDerivative(
        VesselParams(a=a, b=-1.0 / a, c=c, beta_u=bu, beta_v=bv, gamma=g),
        InertialForce(fx=fx, fy=fy),
    ),
    a=st.floats(0.3, 3.0),
    c=st.floats(-5.0, 5.0).filter(lambda f: f != 0.0),
    bu=st.floats(0.01, 50.0),
    bv=st.floats(0.01, 50.0),
    g=st.floats(0.01, 50.0),
    fx=_nonzero,
    fy=_nonzero,
)
_inputs = st.one_of(_moderate, _finite)
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
    @given(plant=_plants, state=_states, fu=_inputs, gr=_inputs, dt=_dts)
    def test_matches_generic_step(self, plant, state, fu, gr, dt):
        fast, generic = _step_both_ways(plant, state, fu, gr, dt)
        assert fast == generic

    @settings(max_examples=200, deadline=None)
    @given(
        plant=_plants,
        state=_states,
        fu=_inputs,
        gr=_inputs,
        dt=_dts,
        where=st.integers(0, 7),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_input_diverges_both_ways(self, plant, state, fu, gr, dt,
                                                 where, bad):
        if where < 6:
            state = state[:where] + (bad,) + state[where + 1:]
        elif where == 6:
            fu = bad
        else:
            gr = bad
        assert _step_both_ways(plant, state, fu, gr, dt) == ["diverged", "diverged"]


# A vessel parked on a null line: every tick is singular.
_NULL_REFERENCE = {"trajectory.speed": "0", "wind.fy": "0", "initial.y": "0"}


class TestDiscretizationOrder:
    """Self-convergence: how a result moves as the step halves twice.  A
    method of order p moves by 2**p times as much at the first halving as
    at the second, so these fail if a change lowers the order of the plant
    step or of the closed loop."""

    @pytest.mark.parametrize("scenario", ["hovercraft_line", "otter_circle"])
    def test_the_plant_step_is_fourth_order(self, scenario):
        # The built-in's plant, turning and drifting under held inputs for
        # 1 s at steps of 1/80, 1/160 and 1/320 s: ratio 16.6 for both.
        cfg = builtin(scenario)
        plant = VesselDerivative(cfg.model, cfg.wind)
        ends = []
        for n in (80, 160, 320):
            state = (0.0, 0.0, 0.3, 2.0, 0.5, 2.0)
            for _ in range(n):
                state = plant.rk4(state, 20.0, 3.0, 1.0 / n)
            ends.append(np.array(state))
        first, second = (np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:]))
        assert 15.0 < first / second < 18.0

    @pytest.mark.parametrize("scenario", ["hovercraft_line", "otter_circle"])
    def test_the_closed_loop_is_first_order(self, scenario):
        # dt_plant halves while control_decimation doubles, so the ticks
        # and the estimator stay on the same 1e-3 s grid; over 2 s every
        # metric's ratio is within 0.005 of 2.  The convergence time is
        # None: no run converges in 2 s.
        runs = [run_scenario(builtin(scenario, duration=2, dt_plant=1e-3 / k,
                                     control_decimation=k))[1] for k in (1, 2, 4)]
        for f in fields(RunMetrics):
            a, b, c = (getattr(m, f.name) for m in runs)
            if f.name == "convergence_time":
                assert a is b is c is None
            else:
                assert 1.9 < (a - b) / (b - c) < 2.1, f.name


class TestRunScenario:
    def test_log_grid_and_shape(self, builtin_run):
        log, _ = builtin_run("hovercraft_line", duration=2.0)
        assert len(log) == 2001
        np.testing.assert_allclose(np.diff(log.t), 1e-3, rtol=1e-9)
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(2.0)

    def test_shared_runs_are_read_only_and_run_once(self, builtin_run):
        log, metrics = builtin_run("hovercraft_line", duration=2.0)
        assert builtin_run("hovercraft_line", duration="2") == (log, metrics)
        assert not log.data.flags.writeable
        for name in sim_engine._COLUMNS:
            column = getattr(log, name)
            assert column.base is log.data and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            log.e_x[0] = 0.0

    def test_matched_feedforward_regime(self):
        # Started exactly on the reference with no wind: the loop coasts and
        # the errors stay at numerical zero.
        cfg = replace(
            builtin("hovercraft_line"), wind=InertialForce(), duration=20.0,
            initial_state=VesselState(x=0.0, y=0.0, psi=0.0, u=2.0, v=0.0, r=0.0))
        log, metrics = run_scenario(cfg)
        assert metrics.rms_error_x < 1e-3
        assert metrics.rms_error_y < 1e-3
        assert np.max(np.hypot(log.e_x, log.e_y)) < 1e-3

    def test_deterministic_replay(self, builtin_run):
        log_a, _ = builtin_run("hovercraft_line", duration=5.0)
        log_b, _ = run_scenario(builtin("hovercraft_line", duration=5.0))
        for name in ("x", "y", "psi", "F_hat_y", "F_u", "Gamma_r"):
            assert np.array_equal(getattr(log_a, name), getattr(log_b, name))

    def test_wind_estimate_converges_on_line(self, builtin_run):
        log, metrics = builtin_run("hovercraft_line")
        half = log.t >= 30.0
        assert abs(metrics.F_hat_y_mean + 50.0) < 0.5
        assert np.abs(log.e_y[half]).max() < 0.1
        assert metrics.convergence_time is not None

    def test_wind_off_baseline(self, builtin_run):
        on = builtin_run("hovercraft_line", duration=30.0)[1]
        off = builtin_run("hovercraft_line", duration=30.0, **{"wind.fy": 0})[1]
        assert abs(off.F_hat_y_mean) < 0.05 * abs(on.F_hat_y_mean)
        assert abs(off.F_hat_x_mean) < 0.05 * abs(on.F_hat_y_mean)

    def test_yaw_channel_consistency(self, builtin_run):
        # Reconstructing r' by finite differences must reproduce the logged
        # yaw moment minus damping once the initial transient has passed.
        cfg = builtin("hovercraft_line", duration=10.0)
        log, _ = builtin_run("hovercraft_line", duration=10.0)
        dt = cfg.dt_plant
        rdot_fd = (log.r[2:] - log.r[:-2]) / (2 * dt)
        want = log.Gamma_r[1:-1] - cfg.model.gamma * log.r[1:-1]
        sel = log.t[1:-1] >= 5.0
        np.testing.assert_allclose(rdot_fd[sel], want[sel], atol=1e-3)

    def test_cascade_insensitive_to_inner_gains(self):
        # The inner loop is much faster than the outer one, so doubling its
        # gains must barely move the converged tracking quality.
        cfg_a = builtin("otter_circle", duration=60.0)
        cfg_b = replace(cfg_a, autopilot=AutopilotGains(Kp_psi=50.0, Kd_psi=20.0))
        m_a = run_scenario(cfg_a)[1]
        m_b = run_scenario(cfg_b)[1]
        norm_a = math.hypot(m_a.rms_error_x, m_a.rms_error_y)
        norm_b = math.hypot(m_b.rms_error_x, m_b.rms_error_y)
        assert abs(norm_a - norm_b) < 0.2 * max(norm_a, norm_b)

    def test_control_decimation_consistency(self):
        # Running the controller at half rate barely changes the outcome but
        # changes the tick grid; both must satisfy the tracking bound.
        cfg = replace(builtin("hovercraft_line"), duration=30.0, control_decimation=2,
                      heol=HeolConfig(T=0.5))
        log, metrics = run_scenario(cfg)
        assert metrics.rms_error_y < 0.05
        assert abs(metrics.F_hat_y_mean + 50.0) < 1.0

    def test_singular_guidance_fallback(self, builtin_run):
        # A null reference with the vehicle parked on it gives the guidance
        # nothing to point at: thrust is cut at every tick.
        log, _ = builtin_run("hovercraft_line", duration=1.0, **_NULL_REFERENCE)
        assert (log.F_u == 0.0).all()
        np.testing.assert_allclose(log.x, 0.0, atol=1e-12)
        np.testing.assert_allclose(log.psi_ref, 0.0)

    def test_blowup_reports_step_time_state_and_inputs(self):
        diverging = dict(
            model=VesselParams(a=1.0, b=-1.0, c=1.0, beta_u=10.0, beta_v=10.0,
                               gamma=1.0),
            wind=InertialForce(fy=-1e5),
        )
        with pytest.raises(NonFiniteState) as info:
            run_scenario(replace(builtin("hovercraft_line"), duration=0.5,
                                 **diverging))
        exc = info.value
        assert exc.step > 0
        assert exc.t == exc.step * 1e-3
        # The same run stopped at that step logs the reported state and
        # inputs as its last row.
        log, _ = run_scenario(replace(builtin("hovercraft_line"), duration=exc.t,
                                      **diverging))
        assert len(log) == exc.step + 1
        last = tuple(getattr(log, name)[-1] for name in ("x", "y", "psi", "u", "v", "r"))
        assert last == exc.state
        assert (log.F_u[-1], log.Gamma_r[-1]) == exc.inputs
        assert f"{exc.state}" in str(exc)

    def test_non_finite_guidance_output_is_divergence(self):
        # Kp * e_y and Kd * de_y overflow to opposite infinities at the first
        # tick, so the commanded acceleration is nan before any plant step.
        cfg = replace(builtin("hovercraft_line"), duration=0.3,
                      initial_state=VesselState(y=1e300, v=-1e300),
                      heol=HeolConfig(Kp=1e10, Kd=1e10, T=0.5))
        with pytest.raises(NonFiniteState, match="non-finite guidance output") as info:
            run_scenario(cfg)
        assert (info.value.step, info.value.t) == (0, 0.0)
        assert info.value.inputs[1] == 0.0

    def test_errors_are_reference_minus_position(self, builtin_run):
        log, _ = builtin_run("otter_circle", duration=2.0)
        assert np.array_equal(log.e_x, log.x_ref - log.x)
        assert np.array_equal(log.e_y, log.y_ref - log.y)

    def test_diverged_run_leaves_its_packed_rows_complete(self, monkeypatch):
        # The run diverges 100 rows into its second log block, which the
        # sink is never told is finished; its rows hold their errors too.
        class KeepingSink(sim_engine._LogSink):
            def matrix(self, rows):
                self.data = super().matrix(rows)
                return self.data

        block = sim_engine._LOG_BLOCK_ROWS
        real = sim_engine.rk4_step
        steps = []

        def rk4_step(plant, state, fu, gamma_r, dt):
            steps.append(1)
            if len(steps) == block + 100:
                state = (math.nan,) + tuple(state[1:])
            return real(plant, state, fu, gamma_r, dt)

        sink = KeepingSink()
        monkeypatch.setattr(sim_engine, "_log_sink", sink)
        monkeypatch.setattr(sim_engine, "rk4_step", rk4_step)
        with pytest.raises(NonFiniteState) as info:
            run_scenario(builtin("otter_circle", duration=6.0))
        assert info.value.step == block + 99
        packed = RunLog(sink.data[:info.value.step + 1])
        assert (packed.x_ref - packed.x).tobytes() == packed.e_x.tobytes()
        assert (packed.y_ref - packed.y).tobytes() == packed.e_y.tobytes()

    def test_metrics_convergence_time(self, builtin_run):
        log, metrics = builtin_run("hovercraft_line", duration=30.0, **{"wind.fy": 0})
        # 10 m initial offset, threshold 0.5 m: converges well before the end
        # and never leaves again.
        assert metrics.convergence_time is not None
        assert 0.0 < metrics.convergence_time < 15.0
        norms = np.hypot(log.e_x, log.e_y)
        after = log.t >= metrics.convergence_time
        assert np.all(norms[after] < 0.5)

    def test_metrics_not_converged_is_none(self, builtin_run):
        _, metrics = builtin_run("hovercraft_line", duration=2.0, convergence_threshold=1e-9)
        assert metrics.convergence_time is None

    def test_horizon_must_span_ten_controller_periods(self):
        # The controller period is dt_plant * control_decimation: 1 ms at
        # decimation 1, 10 ms at decimation 10.
        for T, decimation in ((5e-3, 1), (5e-3, 10), (0.05, 10), (0.0999, 10)):
            with pytest.raises(ValueError, match="at least 10 controller periods"):
                replace(builtin("hovercraft_line"), control_decimation=decimation,
                        heol=HeolConfig(T=T))
        for T, decimation in ((0.1, 10), (0.05, 1)):
            replace(builtin("hovercraft_line"), control_decimation=decimation,
                    heol=HeolConfig(T=T))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            replace(builtin("hovercraft_line"), duration=-1.0)
        for decimation, message in ((0, "at least 1"), (2.5, "an integer"),
                                    (2.0, "an integer")):
            with pytest.raises(ValueError, match=f"control decimation must be {message}"):
                replace(builtin("hovercraft_line"), control_decimation=decimation)
        with pytest.raises(ValueError):
            replace(builtin("hovercraft_line"), controller_beta=0.0)
        with pytest.raises(ValueError, match="plant steps"):
            replace(builtin("hovercraft_line"), duration=1e300, dt_plant=1e-300)
        with pytest.raises(ValueError, match="shorter than half a plant step"):
            replace(builtin("hovercraft_line"), duration=5e-4)
        for threshold in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="convergence threshold"):
                replace(builtin("hovercraft_line"), convergence_threshold=threshold)
        assert len(run_scenario(builtin("hovercraft_line", duration=6e-4))[0]) == 2

    @pytest.mark.parametrize("build", [
        pytest.param(lambda bad: HeolConfig(Kp=bad), id="HeolConfig.Kp"),
        pytest.param(lambda bad: HeolConfig(Kd=bad), id="HeolConfig.Kd"),
        pytest.param(lambda bad: AutopilotGains(Kp_psi=bad), id="AutopilotGains.Kp_psi"),
        pytest.param(lambda bad: AutopilotGains(Kd_psi=bad), id="AutopilotGains.Kd_psi"),
        pytest.param(lambda bad: AutopilotGains(Ki_psi=bad), id="AutopilotGains.Ki_psi"),
        pytest.param(lambda bad: VesselParams.hovercraft(beta=bad, gamma=1.0),
                     id="hovercraft.beta"),
        pytest.param(lambda bad: VesselParams.hovercraft(beta=1.0, gamma=bad),
                     id="hovercraft.gamma"),
        pytest.param(lambda bad: VesselParams(a=bad, b=-1.0, c=0.0, beta_u=1.0,
                                              beta_v=1.0, gamma=1.0),
                     id="VesselParams.a"),
        pytest.param(lambda bad: VesselParams(a=1.0, b=-1.0, c=bad, beta_u=1.0,
                                              beta_v=1.0, gamma=1.0),
                     id="VesselParams.c"),
        pytest.param(lambda bad: InertialForce(fx=bad), id="InertialForce.fx"),
        pytest.param(lambda bad: InertialForce(fy=bad), id="InertialForce.fy"),
        pytest.param(lambda bad: HeolConfig(T=bad), id="HeolConfig.T"),
        pytest.param(lambda bad: replace(builtin("hovercraft_line"), controller_beta=bad),
                     id="ScenarioConfig.controller_beta"),
        pytest.param(lambda bad: replace(builtin("hovercraft_line"), dt_plant=bad),
                     id="ScenarioConfig.dt_plant"),
        pytest.param(lambda bad: replace(builtin("hovercraft_line"),
                                         convergence_threshold=bad),
                     id="ScenarioConfig.convergence_threshold"),
        # sample's domain is the finite times from 0 on.
        pytest.param(lambda bad: sample(TrajectorySpec("line", speed=1.0), bad),
                     id="sample.t"),
        pytest.param(lambda bad: TrajectorySpec("line", speed=bad), id="line.speed"),
        pytest.param(lambda bad: TrajectorySpec("circle", radius=bad, angular_rate=1.0),
                     id="circle.radius"),
        pytest.param(lambda bad: TrajectorySpec("circle", radius=1.0, angular_rate=bad),
                     id="circle.angular_rate"),
        pytest.param(lambda bad: TrajectorySpec("circle", radius=1.0, angular_rate=1.0,
                                                center_x=bad),
                     id="circle.center"),
        pytest.param(lambda bad: TrajectorySpec("circle", radius=1.0, angular_rate=1.0,
                                                phase=bad),
                     id="circle.phase"),
    ])
    def test_nan_fails_every_positivity_check(self, build):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                build(bad)

    def test_estimator_windows_must_fit_in_memory(self, monkeypatch):
        # 1 MB of "physical memory": the 1001-row log fits, a window of
        # 100,001 samples does not, one of 1,001 does.
        line = builtin("hovercraft_line")
        monkeypatch.setattr(sim_engine, "_memory_bytes", lambda: 10**6)
        with pytest.raises(ValueError, match="heol.T / controller period"):
            replace(line, duration=1.0, heol=HeolConfig(T=100.0))
        replace(line, duration=1.0, heol=HeolConfig(T=1.0))

    def test_overflowing_metric_is_non_finite_state(self):
        cfg = replace(builtin("hovercraft_line"), duration=1.0,
                      wind=InertialForce(fx=0.0, fy=-1e306))
        with pytest.raises(NonFiniteState, match="metric rms_error_. is inf") as info:
            run_scenario(cfg)
        assert info.value.step is None and info.value.t is None


_BLOCK = sim_engine._LOG_BLOCK_ROWS


def _synthetic_log(t, e_x, e_y, F_hat_x, F_hat_y):
    data = np.zeros((len(t), len(sim_engine._COLUMNS)))
    for name, column in (("t", t), ("e_x", e_x), ("e_y", e_y),
                         ("F_hat_x", F_hat_x), ("F_hat_y", F_hat_y)):
        data[:, sim_engine._COLUMNS.index(name)] = column
    return RunLog(data)


@st.composite
def _synthetic_runs(draw):
    """A log on the engine's time grid, with its duration and threshold.

    Its length lies on either side of a multiple of the block size, or
    anywhere.  The final half starts at any row, at ``t`` or between two
    rows.  The last row outside the threshold is none (converged at row
    0), the last row (never converged), one on either side of a block
    edge, or any row; a row exactly at the threshold is outside.  The
    errors, or the estimates, may be large enough to overflow a metric.
    """
    rows = draw(st.one_of(
        st.sampled_from([q * _BLOCK + d for q in (1, 2, 3) for d in (-1, 0, 1)]),
        st.integers(1, 3 * _BLOCK + 2),
    ))
    dt = draw(st.sampled_from([1e-3, 0.1, 0.37]))
    t = np.arange(rows) * dt
    k = draw(st.integers(0, rows - 1))
    half = t[k] if k == 0 or draw(st.booleans()) else 0.5 * (t[k - 1] + t[k])
    edges = [e for q in range(1, rows // _BLOCK + 1)
             for e in (q * _BLOCK - 1, q * _BLOCK) if e < rows]
    last = draw(draw(st.sampled_from([
        st.none(), st.just(rows - 1), st.sampled_from(edges or [rows - 1]),
        st.integers(0, rows - 1),
    ])))
    threshold = 0.5
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = rng.uniform(0.0, 0.49, rows)
    if last is not None:
        radius[:last] = np.where(rng.random(last) < 0.5, radius[:last],
                                 rng.uniform(0.5, 2.0, last))
    angle = rng.uniform(0.0, 2.0 * math.pi, rows)
    e_x, e_y = radius * np.cos(angle), radius * np.sin(angle)
    if last is not None:
        e_x[last], e_y[last] = draw(st.sampled_from([(threshold, 0.0), (0.0, 2.0)]))
    F_hat_x, F_hat_y = rng.standard_normal((2, rows))
    huge = draw(st.one_of(st.none(), st.sampled_from([e_x, e_y, F_hat_x, F_hat_y])))
    if huge is e_x or huge is e_y:
        huge[rng.integers(k, rows)] = 1e200     # its square overflows
    elif huge is not None:
        huge *= 1e307                           # the sum may overflow
    log = _synthetic_log(t, e_x, e_y, F_hat_x, F_hat_y)
    return log, 2.0 * half, threshold


def _engine_fold(log, duration, threshold):
    """The engine's fold of a log on its grid, block by block as the engine
    folds it: the metric columns of the final half, rows from the first at
    or after ``duration / 2``, and the convergence time."""
    final = np.empty((4, len(log) - np.searchsorted(log.t, 0.5 * duration)))
    settled = 0
    for lo in range(0, len(log), _BLOCK):
        settled, _ = sim_engine._fold(settled, (0, None, None), final, log.data, lo,
                                      min(lo + _BLOCK, len(log)), threshold, 1)
    return final, float(log.t[settled]) if settled < len(log) else None


def _engine_metrics(log, duration, threshold):
    """The engine's summary of a log on its grid, from its fold."""
    return sim_engine._compute_metrics(*_engine_fold(log, duration, threshold))


def _metric_bits(metrics):
    return tuple(v if v is None else v.hex() for v in astuple(metrics))


def _summary(compute, log, duration, threshold):
    """The bits of each metric, or the message of the divergence."""
    try:
        return _metric_bits(compute(log, duration, threshold))
    except NonFiniteState as exc:
        return str(exc)


class _ForgettingSink(sim_engine._LogSink):
    """The default sink, overwriting with NaN every row it is told is final."""

    def matrix(self, rows):
        self.data = super().matrix(rows)
        return self.data

    def finished(self, rows):
        self.data[:rows] = math.nan


def _outcome(cfg):
    """The bits of each metric of a run and its fallbacks, or the step and
    message of its divergence."""
    try:
        log, metrics = run_scenario(cfg)
        return _metric_bits(metrics), log.fallbacks
    except NonFiniteState as exc:
        return exc.step, str(exc)


@st.composite
def _grid_runs(draw):
    """A ``hovercraft_line`` run of 75 to 18,000 rows: any plant step,
    tick spacing and threshold, and a duration drawn anywhere (mostly not a
    whole number of steps) or as twice a whole number of steps (its half
    is then a logged time); and a log block size that puts the first
    final-half row ``k`` on a block edge, inside the first of several
    blocks, inside the only block, or anywhere else."""
    dt = draw(st.floats(5e-4, 4e-3))
    duration = draw(st.one_of(st.floats(0.3, 9.0),
                              st.integers(150, 4500).map(lambda j: 2 * j * dt)))
    cfg = builtin("hovercraft_line", dt_plant=dt, duration=duration,
                  control_decimation=draw(st.integers(1, 5)),
                  convergence_threshold=draw(st.floats(0.5, 11.0)))
    rows = round(cfg.duration / cfg.dt_plant) + 1
    k = sim_engine._first_row_at(0.5 * cfg.duration, cfg.dt_plant, rows)
    block = draw(st.one_of(st.just(k), st.integers(k + 1, rows - 1),
                           st.integers(rows, rows + 9), st.integers(2, k - 1),
                           st.just(_BLOCK)))
    return cfg, block


class TestComputeMetrics:
    @settings(max_examples=60, deadline=None)
    @given(_grid_runs())
    def test_the_engine_reads_its_grid_as_the_log_does(self, run):
        # The engine finds the final half from t = i * dt before its loop,
        # and folds the convergence time and the final half block by block
        # before each notice, wherever the blocks split the log; the log's
        # own times and the mask formula must agree with both.
        cfg, block = run
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_engine, "_LOG_BLOCK_ROWS", block)
            log, metrics = run_scenario(cfg)
        assert (sim_engine._first_row_at(0.5 * cfg.duration, cfg.dt_plant, len(log))
                == np.searchsorted(log.t, 0.5 * cfg.duration))
        assert _metric_bits(metrics) == _metric_bits(
            mask_metrics(log, cfg.duration, cfg.convergence_threshold))

    @pytest.mark.parametrize("name, keys", [
        ("hovercraft_line", {"duration": 10}),
        ("hovercraft_line", {"duration": 10, "control_decimation": 10}),
        ("otter_circle", {"duration": 10}),
        ("otter_circle", {"duration": 10, "control_decimation": 10}),
        ("otter_circle", {"duration": 10, "heol.variant": "riachy", "heol.T": 0.3,
                          "control_decimation": 3}),
        ("hovercraft_line", {"heol.T": 0.05}),   # diverges at step 29053
        ("hovercraft_line", {"duration": 10, **_NULL_REFERENCE}),   # every tick falls back
    ])
    def test_the_engine_reads_no_finished_row_again(self, monkeypatch, name, keys):
        # Rows the sink has been told are final may be discarded: the
        # metrics, the fallbacks and the step of a divergence must not
        # read them.
        cfg = builtin(name, **keys)
        want = _outcome(cfg)
        monkeypatch.setattr(sim_engine, "_log_sink", _ForgettingSink())
        assert _outcome(cfg) == want

    @pytest.mark.parametrize("last_outside", [None, 0, _BLOCK - 2, _BLOCK - 1, _BLOCK,
                                              4999, 5000])
    def test_the_block_scan_finds_the_last_row_outside(self, builtin_run, last_outside):
        # The error norm of this run falls at every row, so a threshold at
        # one row's norm leaves exactly the rows up to it outside (a norm at
        # the threshold is outside): on either side of a block edge, at the
        # last row (never converged) or none (converged at row 0).
        keys = {"duration": 1.0, "dt_plant": 2e-4}
        log, _ = builtin_run("hovercraft_line", **keys)
        norms = np.hypot(log.e_x, log.e_y)
        assert len(log) == 5001 and np.all(np.diff(norms) < 0)
        threshold = 2.0 * norms[0] if last_outside is None else float(norms[last_outside])
        _, metrics = run_scenario(builtin("hovercraft_line", convergence_threshold=threshold,
                                          **keys))
        settled = 0 if last_outside is None else last_outside + 1
        assert metrics.convergence_time == (float(log.t[settled]) if settled < len(log)
                                            else None)
        assert metrics == mask_metrics(log, 1.0, threshold)

    @settings(max_examples=200, deadline=None)
    @given(_synthetic_runs())
    def test_matches_the_mask_formula(self, run):
        assert (_summary(_engine_metrics, *run)
                == _summary(mask_metrics, *run))

    def test_holds_at_most_about_one_final_half_column(self):
        # numpy reports its buffers to tracemalloc.  The engine holds its
        # copy of the four metric columns of the final half through its
        # loop, and the metrics add at most about one column to it; the
        # full-length masks and norms of mask_metrics peak near 3.7 columns.
        rows = 120_001
        t = np.arange(rows) * 1e-3
        rng = np.random.default_rng(0)
        e_x, e_y = 10.0 * np.exp(-t) * rng.standard_normal((2, rows))
        log = _synthetic_log(t, e_x, e_y, *rng.standard_normal((2, rows)))
        final, conv = _engine_fold(log, 120.0, 0.5)
        column = 8 * (rows - 60_000)
        assert final.nbytes == 4 * column   # what the engine holds through its loop
        tracemalloc.start()
        try:
            metrics = sim_engine._compute_metrics(final, conv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics == mask_metrics(log, 120.0, 0.5)
        assert peak <= 1.25 * column


def _counting(monkeypatch, module, name, counts, returned):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        result = real(*args, **kwargs)
        returned.setdefault(name, set()).add(type(result))
        return result

    monkeypatch.setattr(module, name, counted)


class TestLayerCalls:
    """The engine calls each layer the benchmark's tracer times through its
    module global, as often as the config implies; a layer folded into its
    caller would leave its per-layer metrics unmeasured.  ``heol_step`` has
    one branch per feedback variant, and a fractional horizon has its own
    coefficients, so both variants and a fractional ``heol.T`` are run.
    ``sample`` and ``heol_step`` return exact tuples: a tuple subclass
    would miss the interpreter's exact-tuple unpacking path.  Both axes
    estimate from one window, x from lane 0 and y from lane 1 at each tick,
    and that window is cold until it holds a horizon of samples."""

    def _check_counts(self, monkeypatch, scenario, decimation, overrides):
        cfg = builtin(scenario, duration=1.5, control_decimation=decimation,
                      **overrides)
        counts = {}
        returned = {}
        for name in ("sample", "heol_step", "physical_from_brunovsky",
                     "unwrap_heading", "autopilot_step", "rk4_step"):
            _counting(monkeypatch, sim_engine, name, counts, returned)
        estimates = []   # (window, lane, warm) of each estimate_F call
        real_estimate = heol_control.estimate_F

        def estimate_F(window, lane=0):
            try:
                out = real_estimate(window, lane)
            except WindowNotWarm:
                estimates.append((window, lane, False))
                raise
            estimates.append((window, lane, True))
            return out

        monkeypatch.setattr(heol_control, "estimate_F", estimate_F)
        _counting(monkeypatch, heol_control, "estimate_F", counts, returned)
        log, _ = run_scenario(cfg)
        rows = len(log)
        ticks = (rows - 1) // decimation + 1
        assert rows == 1501
        assert counts == {
            "sample": rows,
            "heol_step": ticks,
            "estimate_F": 2 * ticks,
            "physical_from_brunovsky": ticks,
            "unwrap_heading": ticks - np.count_nonzero(log.F_u[::decimation] == 0.0),
            "autopilot_step": rows,
            "rk4_step": rows - 1,
        }
        assert returned["sample"] == {tuple}
        assert returned["heol_step"] == {tuple}
        assert len({id(window) for window, _, _ in estimates}) == 1
        assert [lane for _, lane, _ in estimates] == [0, 1] * ticks
        # Cold for the horizon in controller periods, rounded up.
        cold = math.ceil(round(cfg.heol.T / (cfg.dt_plant * decimation), 6))
        warm = [warm for _, _, warm in estimates]
        assert warm == [False] * 2 * cold + [True] * 2 * (ticks - cold)

    @pytest.mark.parametrize("decimation", [1, 3])
    @pytest.mark.parametrize("scenario", ["otter_circle", "hovercraft_line"])
    def test_each_traced_layer_is_called_as_often_as_implied(
        self, monkeypatch, scenario, decimation
    ):
        self._check_counts(monkeypatch, scenario, decimation, {})

    @pytest.mark.parametrize("overrides", [
        {"heol.variant": "riachy"},
        {"heol.T": "0.2505"},
        {"heol.variant": "riachy", "heol.T": "0.2505"},
    ], ids=["riachy", "fractional_T", "riachy_fractional_T"])
    @pytest.mark.parametrize("decimation", [1, 3])
    @pytest.mark.parametrize("scenario", ["otter_circle", "hovercraft_line"])
    def test_each_variant_and_a_fractional_horizon(
        self, monkeypatch, scenario, decimation, overrides
    ):
        self._check_counts(monkeypatch, scenario, decimation, overrides)


class TestFallbackEncoding:
    """The fallback ticks are read from the log (see ``RunLog``): the
    guidance calls that raised :class:`SingularityError` are exactly the
    tick rows whose ``F_u`` is ``0.0``, and the engine's fold counts them
    with their first and last time wherever its blocks split the ticks.
    The partial run starts 1e-9 m off a null line in a faint wind: the
    first tick's command is exactly ``SINGULARITY_EPS``, the next ones
    fall just below it, and the fallback stops when the estimator goes
    live at 0.5 s."""

    @pytest.mark.parametrize("block", [7, 100, 4096])
    @pytest.mark.parametrize("overrides, fallback_ticks", [
        ({**_NULL_REFERENCE, "duration": "1"}, range(1001)),
        ({**_NULL_REFERENCE, "duration": "2", "control_decimation": "7",
          "heol.variant": "riachy"}, range(286)),
        ({"trajectory.speed": "0", "wind.fy": "-1e-10", "initial.y": "1e-9",
          "control_decimation": "5", "duration": "4"}, range(1, 100)),
    ], ids=["null_reference", "null_reference_riachy_decim7", "partial"])
    def test_raised_ticks_are_the_zero_thrust_tick_rows(
        self, monkeypatch, overrides, fallback_ticks, block
    ):
        cfg = builtin("hovercraft_line", **overrides)
        real = sim_engine.physical_from_brunovsky
        calls = []  # one per tick, in order: did its guidance call raise?

        def recording(*args):
            try:
                result = real(*args)
            except SingularityError:
                calls.append(True)
                raise
            calls.append(False)
            return result

        monkeypatch.setattr(sim_engine, "physical_from_brunovsky", recording)
        monkeypatch.setattr(sim_engine, "_LOG_BLOCK_ROWS", block)
        log, _ = run_scenario(cfg)
        tick_thrust = log.F_u[::cfg.control_decimation]
        raised = np.flatnonzero(calls)
        assert len(calls) == len(tick_thrust)
        assert raised.tolist() == list(fallback_ticks)
        assert np.array_equal(raised, np.flatnonzero(tick_thrust == 0.0))
        times = log.t[::cfg.control_decimation][raised]
        assert log.fallbacks == (raised.size, *times[[0, -1]].tolist())


# The log matrix's sha256 of each comparison config over 5 s.
_LOG_DIGESTS = {
    "line": "3c843aff95d08f5f2087194e80dbdb67fd5a0d5a9fc4e136e9f524e10c488414",
    "circle": "167f24dd231d46ea582d0f406a0e9888613a1751290eca820c05e52f7c597b5f",
    "line_decim10": "c1da9c6219773c1830de1e732ebbbba6436d6f541a5b6180754c4207d11cfef6",
    "circle_decim10": "3413ea5c313baf288e281aac738e07b34521603756d496ed08ce5cf7f7bcac44",
    "line_riachy": "51e9b096ec6b951b7e0d1af3f14b7506785b09da24b81b474e6092ffd21a1316",
    "circle_riachy": "9ba82ca8d78a46538a5878cb8f9b44f96e89c13202fbf27bf53de06ec32f36fd",
    "circle_riachy_decim3_fractional_T":
        "5802160e46cc497869b7813de5e954463a215acaac66fe3889460eed5dadfbf2",
}


class TestLogBytes:
    """Every column of the log, to the bit, for the seven comparison
    configs (``scenarios.COMPARISON``).  Five seconds each, so every
    estimator is live for most of the run.  The bits hold on the numeric platform they
    were recorded on; elsewhere each pin fails first, naming the recorded
    and the current platform (``numeric_platform``)."""

    @pytest.mark.parametrize("config, digest", _LOG_DIGESTS.items(), ids=_LOG_DIGESTS)
    def test_log_sha256_is_pinned(self, builtin_run, config, digest):
        require_pinned_platform()
        scenario, overrides = COMPARISON[config]
        log, _ = builtin_run(scenario, duration=5, **overrides)
        assert hashlib.sha256(log.data.tobytes()).hexdigest() == digest

    # RunMetrics of shortened built-ins, as the engine with one window per
    # axis and a centered quadrature vector gave them; the shared track
    # must keep every bit.
    @pytest.mark.parametrize("name, overrides, want", [
        ("hovercraft_line", {"duration": 10}, RunMetrics(
            rms_error_x=0.11660610637533711, rms_error_y=1.283248679819535,
            convergence_time=8.45, F_hat_x_mean=0.17319065374907322,
            F_hat_y_mean=-54.465374206361794)),
        ("otter_circle", {"duration": 10}, RunMetrics(
            rms_error_x=1.9364956238957485, rms_error_y=1.0241031656105717,
            convergence_time=None, F_hat_x_mean=2.4700237023163685,
            F_hat_y_mean=-56.09321242595508)),
        ("otter_circle", {"duration": 10, "heol.variant": "riachy", "heol.T": 0.3,
                          "control_decimation": 3}, RunMetrics(
            rms_error_x=0.7529411464549055, rms_error_y=0.3675389926756725,
            convergence_time=8.481, F_hat_x_mean=-0.7245781534020913,
            F_hat_y_mean=-52.10532884078412)),
    ])
    def test_builtin_metrics_keep_their_bits(self, builtin_run, name, overrides, want):
        require_pinned_platform()
        assert builtin_run(name, **overrides)[1] == want
