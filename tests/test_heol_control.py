import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heolsim.heol_control import (
    RIACHY,
    WITH_DERIVATIVE,
    HeolAxisState,
    HeolConfig,
    IpdGains,
    SampleWindow,
    WindowNotWarm,
    estimate_F,
    heol_step,
    ipd_delta,
    ipd_delta_riachy,
    nominal_control,
    riachy_signal,
)
from heolsim.reference_trajectory import ReferencePoint, TrajectorySpec, sample


def kernel_g(sigma, T):
    return (T - sigma) ** 2 - 4.0 * (T - sigma) * sigma + sigma**2


def kernel_dw(sigma, T):
    return 0.5 * (T - sigma) ** 2 * sigma**2


def fine_integral(g_fn, dw_fn, T, now, n=200_000):
    """Independent high-resolution evaluation of the window functional."""
    sigma = np.linspace(0.0, T, n + 1)
    t = sigma + now - T
    integ = kernel_g(sigma, T) * g_fn(t) - kernel_dw(sigma, T) * dw_fn(t)
    return 60.0 / T**5 * np.trapezoid(integ, sigma)


def window_from_functions(g_fn, dw_fn, T, now, dt, capacity=None):
    n = round(T / dt)
    w = SampleWindow(capacity or (n + 1))
    for i in range(n + 1):
        t = now - T + i * dt
        w.append(t, float(g_fn(t)), float(dw_fn(t)))
    return w


class TestKernelContinuum:
    """Validate the kernel algebra itself before trusting the estimator."""

    def test_quadratic_signal_yields_its_curvature(self):
        T, F0 = 1.0, -50.0
        val = fine_integral(lambda t: 0.5 * F0 * t**2, lambda t: 0.0 * t, T, now=T)
        assert val == pytest.approx(F0, rel=1e-9)

    def test_affine_signals_are_annihilated(self):
        T = 0.7
        val = fine_integral(lambda t: 3.1 - 2.2 * t, lambda t: 0.0 * t, T, now=5.0)
        assert abs(val) < 1e-6

    def test_window_offset_does_not_matter(self):
        # Shifting the window start only adds affine-in-sigma terms.
        T, F0 = 1.0, -50.0
        for now in (1.0, 2.5, 17.0):
            val = fine_integral(lambda t: 0.5 * F0 * t**2, lambda t: 0.0 * t, T, now)
            assert val == pytest.approx(F0, rel=1e-6)

    def test_constant_feedback_term_is_subtracted(self):
        # g'' - dw == F0 with dw nonzero: the feedback integral must carry a
        # minus sign for the functional to return F0.
        T, F0, A, nu = 1.0, -50.0, 20.0, 3.0
        g_fn = lambda t: 0.5 * F0 * t**2 + 0.3 * t + 1.1 - A / nu**2 * np.sin(nu * t)
        dw_fn = lambda t: A * np.sin(nu * t)
        val = fine_integral(g_fn, dw_fn, T, now=3.7)
        assert val == pytest.approx(F0, rel=1e-6)
        # The opposite sign is off by far more than any quadrature error.
        sigma = np.linspace(0.0, T, 200_001)
        t = sigma + 3.7 - T
        flipped = 60.0 / T**5 * np.trapezoid(
            kernel_g(sigma, T) * g_fn(t) + kernel_dw(sigma, T) * dw_fn(t), sigma
        )
        assert abs(flipped - F0) / abs(F0) > 0.05


class TestEstimate:
    def test_zero_window(self):
        w = window_from_functions(lambda t: 0.0, lambda t: 0.0, 1.0, 1.0, 1e-3)
        assert estimate_F(w, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("now", [1.0, 2.5, 10.0])
    def test_polynomial_exactness(self, now):
        T, dt, F0 = 1.0, 1e-3, -50.0
        w = window_from_functions(lambda t: 0.5 * F0 * t**2, lambda t: 0.0, T, now, dt)
        got = estimate_F(w, T, now)
        assert abs(got - F0) / abs(F0) < 5e-3

    def test_constant_residual_with_nonzero_feedback(self):
        T, dt, F0, A, nu = 1.0, 1e-3, -50.0, 20.0, 3.0
        now = 3.7
        g_fn = lambda t: 0.5 * F0 * t**2 + 0.3 * t + 1.1 - A / nu**2 * math.sin(nu * t)
        dw_fn = lambda t: A * math.sin(nu * t)
        w = window_from_functions(g_fn, dw_fn, T, now, dt)
        got = estimate_F(w, T, now)
        assert abs(got - F0) / abs(F0) < 5e-3

    def test_large_signal_offset_does_not_bias(self):
        # The integral-substitution signal carries big accumulated constants;
        # recentering keeps the quadrature bias negligible.
        T, dt, F0 = 1.0, 1e-3, 2.0
        off = 5000.0
        w = window_from_functions(lambda t: off + 0.5 * F0 * t**2, lambda t: 0.0,
                                  T, 2.0, dt)
        assert estimate_F(w, T, 2.0) == pytest.approx(F0, rel=1e-3)

    def test_slow_sine_tracks_second_derivative(self):
        T, dt, om = 0.2, 1e-3, 1.0
        for now in (1.0, 2.3, 4.1):
            g_fn = lambda t: math.sin(om * t)
            w = window_from_functions(g_fn, lambda t: 0.0, T, now, dt)
            got = estimate_F(w, T, now)
            fine = fine_integral(lambda t: np.sin(om * t), lambda t: 0.0 * t, T, now)
            mid = now - T / 2.0
            assert got == pytest.approx(fine, abs=1e-3)
            assert got == pytest.approx(-(om**2) * math.sin(om * mid), abs=1e-2)

    def test_fast_path_matches_reference_quadrature(self):
        T, dt = 0.5, 1e-3
        now = 2.0
        rng = np.random.default_rng(4)
        n = round(T / dt)
        ts = now - T + np.arange(n + 1) * dt
        g = np.sin(3.0 * ts) + 100.0
        dw = np.cos(2.0 * ts)
        w = SampleWindow(n + 1)
        for t, gv, dv in zip(ts, g, dw):
            w.append(float(t), float(gv), float(dv))
        sigma = ts - (now - T)
        integ = kernel_g(sigma, T) * (g - g.mean()) - kernel_dw(sigma, T) * dw
        want = 60.0 / T**5 * np.trapezoid(integ, sigma)
        assert estimate_F(w, T, now) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_general_path_with_oversized_window(self):
        # Window retains more than one horizon: only [now-T, now] may enter.
        T, dt = 0.5, 1e-3
        now = 2.0
        g_fn = lambda t: math.sin(3.0 * t)
        w = SampleWindow(2 * round(T / dt))
        t = now - 1.8 * T
        while t <= now + 1e-12:
            w.append(t, g_fn(t), 0.0)
            t += dt
        got = estimate_F(w, T, now)
        fine = fine_integral(lambda t: np.sin(3.0 * t), lambda t: 0.0 * t, T, now)
        assert got == pytest.approx(fine, abs=2e-3)

    def test_general_path_interpolates_horizon_start(self):
        # Horizon not an integer number of samples: the start node is
        # synthesized by interpolation.
        T, dt = 0.1234, 1e-3
        now = 1.0
        g_fn = lambda t: math.sin(5.0 * t) + 2.0 * t
        n = math.ceil(T / dt) + 1
        w = SampleWindow(n + 1)
        for i in range(n + 1):
            t = now - n * dt + i * dt
            w.append(t, g_fn(t), 0.0)
        got = estimate_F(w, T, now)
        fine = fine_integral(lambda t: np.sin(5.0 * t) + 2.0 * t,
                             lambda t: 0.0 * t, T, now)
        assert got == pytest.approx(fine, rel=3e-3)

    def test_ignores_samples_after_now(self):
        T, dt = 1.0, 1e-2
        g_fn = lambda t: math.sin(2.0 * t)
        full = SampleWindow(400)
        trimmed = SampleWindow(400)
        t = 0.0
        while t <= 2.0 + 1e-12:
            full.append(t, g_fn(t), 0.1 * t)
            if t <= 1.5 + 1e-12:
                trimmed.append(t, g_fn(t), 0.1 * t)
            t += dt
        assert estimate_F(full, T, 1.5) == pytest.approx(
            estimate_F(trimmed, T, 1.5), rel=1e-12, abs=1e-12
        )

    def test_not_warm_raises(self):
        w = SampleWindow(1001)
        with pytest.raises(WindowNotWarm):
            estimate_F(w, 1.0, 1.0)
        w.append(0.0, 1.0, 0.0)
        w.append(0.5, 1.0, 0.0)
        with pytest.raises(WindowNotWarm):
            estimate_F(w, 1.0, 0.5)


class TestSampleWindow:
    def test_eviction_keeps_capacity_and_order(self):
        w = SampleWindow(3)
        for i in range(5):
            w.append(float(i), float(i) * 2.0, float(i) * 3.0)
        ts, g, dw = w.ordered()
        np.testing.assert_allclose(ts, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(g, [4.0, 6.0, 8.0])
        np.testing.assert_allclose(dw, [6.0, 9.0, 12.0])
        assert w.span() == 2.0
        assert len(w) == 3

    def test_backfill_last_feedback(self):
        w = SampleWindow(4)
        w.append(0.0, 1.0)
        w.append(0.1, 2.0)
        w.set_last_delta_w(9.0)
        _, _, dw = w.ordered()
        np.testing.assert_allclose(dw, [0.0, 9.0])

    def test_rejects_nonincreasing_timestamps(self):
        w = SampleWindow(4)
        w.append(1.0, 0.0)
        with pytest.raises(ValueError):
            w.append(1.0, 0.0)

    def test_capacity_from_config(self):
        cfg = HeolConfig(T=1.0, dt=1e-3)
        assert cfg.window_capacity() == 1001
        cfg = HeolConfig(T=0.5, dt=1e-3)
        assert cfg.window_capacity() == 501
        cfg = HeolConfig(T=1.0, dt=3e-3)
        assert cfg.window_capacity() == 335


class TestLinearBufferProperty:
    """The compacting linear buffer and the single-dot fast path against a
    plain-list model and a direct trapezoid computed here."""

    @settings(max_examples=60, deadline=None)
    @given(
        cap=st.integers(2, 600),
        laps=st.integers(4, 6),
        extra=st.integers(0, 600),
        log2_dt=st.integers(-12, -4),
        offset=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
        backfill_p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ordered_and_fast_path_match_reference(
        self, cap, laps, extra, log2_dt, offset, scale, backfill_p, seed
    ):
        # A power-of-two step keeps every timestamp and window-relative time
        # exact, so only the summation order separates the two quadratures.
        dt = 2.0**log2_dt
        T = (cap - 1) * dt
        n = laps * cap + 2 + extra % cap   # at least laps - 1 compactions
        rng = np.random.default_rng(seed)
        g_vals = offset + scale * rng.standard_normal(n)
        dw_vals = scale * rng.standard_normal(n)
        backfills = rng.random(n) < backfill_p
        fills = scale * rng.standard_normal(n)
        checkpoints = set(range(0, n, max(cap // 3, 1))) | {cap - 2, cap - 1, n - 1}

        w = SampleWindow(cap)
        model = []
        for i in range(n):
            t = i * dt
            w.append(t, float(g_vals[i]), float(dw_vals[i]))
            model.append([t, float(g_vals[i]), float(dw_vals[i])])
            if backfills[i]:
                w.set_last_delta_w(float(fills[i]))
                model[-1][2] = float(fills[i])
            if i not in checkpoints:
                continue
            want = np.array(model[-cap:])
            ts, g, dw = w.ordered()
            np.testing.assert_array_equal(ts, want[:, 0])
            np.testing.assert_array_equal(g, want[:, 1])
            np.testing.assert_array_equal(dw, want[:, 2])
            if len(model) < cap:
                if len(model) >= 2:
                    with pytest.raises(WindowNotWarm):
                        estimate_F(w, T, t)
                continue
            got = estimate_F(w, T, t)
            assert w._coef_T == T   # the cached single-dot path was taken
            sigma = ts - (t - T)
            k_g = kernel_g(sigma, T)
            k_dw = kernel_dw(sigma, T)
            scale5 = 60.0 / T**5
            mean = g.mean()
            direct = scale5 * np.trapezoid(k_g * (g - mean) - k_dw * dw, sigma)
            magnitude = scale5 * (
                np.trapezoid(np.abs(k_g * g) + np.abs(k_dw * dw), sigma)
                + abs(mean) * np.trapezoid(np.abs(k_g), sigma)
            )
            assert abs(got - direct) <= 1e-12 * magnitude


class TestFeedbackLaws:
    def test_nominal_control_returns_reference_acceleration(self):
        ref = sample(TrajectorySpec.line(speed=2.0), 1.0)
        assert nominal_control(ref) == (0.0, 0.0)
        ref = sample(TrajectorySpec.circle(radius=1.0, angular_rate=1.0), 0.0)
        wx, wy = nominal_control(ref)
        assert wx == pytest.approx(-1.0)
        assert wy == pytest.approx(0.0)

    def test_ipd_delta(self):
        gains = IpdGains(Kp=4.0, Kd=2.0)
        assert ipd_delta(0.0, 0.0, 0.0, gains) == 0.0
        assert ipd_delta(1.0, 0.0, 0.0, gains) == -4.0
        assert ipd_delta(1.0, 2.0, 3.0, gains) == -(4.0 + 4.0 + 3.0)

    def test_riachy_signal_zero_history(self):
        state = HeolAxisState(window=SampleWindow(10))
        for i in range(10):
            y = riachy_signal(state, 0.0, Kd=2.0, dt=0.1)
        assert y == 0.0

    def test_riachy_signal_constant_error(self):
        state = HeolAxisState(window=SampleWindow(10))
        dt = 1e-3
        y = 0.0
        for i in range(1001):  # t = 0 .. 1 s inclusive
            y = riachy_signal(state, 1.0, Kd=2.0, dt=dt)
        assert y == pytest.approx(3.0, rel=1e-12)

    def test_riachy_second_derivative_identity(self):
        # Y'' must equal e'' + Kd*e' (checked by finite differences).
        Kd, dt = 2.0, 1e-3
        state = HeolAxisState(window=SampleWindow(10))
        ts = np.arange(0, 2.0, dt)
        ys = np.array([riachy_signal(state, math.sin(3.0 * t), Kd, dt) for t in ts])
        ydd = (ys[2:] - 2 * ys[1:-1] + ys[:-2]) / dt**2
        want = -9.0 * np.sin(3.0 * ts[1:-1]) + Kd * 3.0 * np.cos(3.0 * ts[1:-1])
        np.testing.assert_allclose(ydd, want, atol=5e-3)

    def test_ipd_delta_riachy_matches_substitution(self):
        gains = IpdGains(Kp=4.0, Kd=2.0)
        assert ipd_delta_riachy(0.0, 0.0, 4.0) == 0.0
        e, e_dot, f_hat = 1.3, -0.7, 2.1
        fcal = f_hat + gains.Kd * e_dot
        assert ipd_delta_riachy(e, fcal, gains.Kp) == pytest.approx(
            ipd_delta(e, e_dot, f_hat, gains)
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HeolConfig(T=5e-3, dt=1e-3)
        with pytest.raises(ValueError):
            HeolConfig(dt=0.0)
        with pytest.raises(ValueError):
            HeolConfig(variant="pid")
        with pytest.raises(ValueError):
            IpdGains(Kp=0.0, Kd=1.0)


def simulate_double_integrator(cfg, dist, duration, initial=(0.0, 0.0),
                               spec=None):
    """Exact zero-order-hold double integrator driven by the controller."""
    spec = spec or TrajectorySpec.line(speed=0.0)
    dt = cfg.dt
    axis_x = HeolAxisState.for_config(cfg)
    axis_y = HeolAxisState.for_config(cfg)
    px, py = initial
    vx = vy = 0.0
    n = round(duration / dt)
    hist = np.empty((n + 1, 5))
    for i in range(n + 1):
        t = i * dt
        ref = sample(spec, t)
        w = heol_step(ref, (px, py, vx, vy), cfg, axis_x, axis_y)
        hist[i] = (t, ref.x_d[0] - px, ref.y_d[0] - py,
                   axis_x.last_F_hat, axis_y.last_F_hat)
        if i < n:
            ax = w.wx + dist[0]
            ay = w.wy + dist[1]
            px += vx * dt + 0.5 * ax * dt * dt
            py += vy * dt + 0.5 * ay * dt * dt
            vx += ax * dt
            vy += ay * dt
    return hist


class TestClosedLoop:
    def test_constant_disturbance_is_rejected(self):
        cfg = HeolConfig(gains=IpdGains(Kp=1.0, Kd=2.0), T=1.0, dt=1e-3)
        d = (-50.0, 12.0)
        hist = simulate_double_integrator(cfg, d, duration=20.0)
        assert abs(hist[-1, 1]) < 1e-4
        assert abs(hist[-1, 2]) < 1e-4
        assert hist[-1, 3] == pytest.approx(d[0], rel=1e-3)
        assert hist[-1, 4] == pytest.approx(d[1], rel=1e-3)

    def test_variants_reach_the_same_steady_state(self):
        d = (-50.0, 0.0)
        finals = []
        for variant in (WITH_DERIVATIVE, RIACHY):
            cfg = HeolConfig(gains=IpdGains(), T=0.5, variant=variant, dt=1e-3)
            hist = simulate_double_integrator(cfg, d, duration=20.0,
                                              initial=(3.0, 0.0))
            finals.append(hist[-1, 1])
        assert abs(finals[0]) < 1e-3
        assert abs(finals[1]) < 1e-3

    def test_step_response_follows_second_order_envelope(self):
        # With no disturbance the estimate stays at zero and the error obeys
        # e'' + Kd e' + Kp e = 0; Kp=1, Kd=2 is the critically damped pair.
        cfg = HeolConfig(gains=IpdGains(Kp=1.0, Kd=2.0), T=0.5, dt=1e-3)
        e0 = 10.0
        hist = simulate_double_integrator(cfg, (0.0, 0.0), duration=10.0,
                                          initial=(-e0, 0.0))
        t = hist[:, 0]
        want = e0 * (1.0 + t) * np.exp(-t)
        np.testing.assert_allclose(hist[:, 1], want, atol=2e-2 * e0)
        assert abs(hist[-1, 1]) < 1e-2

    def test_axes_are_symmetric(self):
        # One shared gain pair: swapping the axes swaps the outputs exactly.
        cfg = HeolConfig(T=0.5, dt=1e-3)
        d = (7.0, -3.0)
        hist_a = simulate_double_integrator(cfg, d, 5.0, initial=(2.0, -1.0))
        cfg_b = HeolConfig(T=0.5, dt=1e-3)
        hist_b = simulate_double_integrator(cfg_b, (d[1], d[0]), 5.0,
                                            initial=(-1.0, 2.0))
        np.testing.assert_allclose(hist_a[:, 1], hist_b[:, 2], atol=1e-12)
        np.testing.assert_allclose(hist_a[:, 3], hist_b[:, 4], atol=1e-12)


class TestHeolStep:
    def test_pure_feedforward_when_measurements_match(self):
        spec = TrajectorySpec.circle(radius=2.0, angular_rate=0.5)
        cfg = HeolConfig(T=0.1, dt=1e-2)
        ax = HeolAxisState.for_config(cfg)
        ay = HeolAxisState.for_config(cfg)
        for i in range(60):
            t = i * cfg.dt
            ref = sample(spec, t)
            w = heol_step(ref, (ref.x_d[0], ref.y_d[0], ref.x_d[1], ref.y_d[1]),
                          cfg, ax, ay)
        assert w.wx == pytest.approx(ref.x_d[2], abs=1e-12)
        assert w.wy == pytest.approx(ref.y_d[2], abs=1e-12)
        assert ax.last_F_hat == pytest.approx(0.0, abs=1e-12)

    def test_cold_window_uses_pd_only(self):
        cfg = HeolConfig(gains=IpdGains(Kp=1.0, Kd=2.0), T=0.5, dt=1e-3)
        ax = HeolAxisState.for_config(cfg)
        ay = HeolAxisState.for_config(cfg)
        ref = sample(TrajectorySpec.line(speed=2.0), 0.0)
        w = heol_step(ref, (0.0, 10.0, 0.0, 0.0), cfg, ax, ay)
        # e_x = 0, de_x = 2  ->  wx = 0 - (-(2*2)) = 4
        assert w.wx == pytest.approx(4.0)
        # e_y = -10, de_y = 0  ->  wy = -(-(1*-10)) = -10
        assert w.wy == pytest.approx(-10.0)
        assert ax.last_F_hat == 0.0 and ay.last_F_hat == 0.0
