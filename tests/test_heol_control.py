import functools
import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from heolsim.heol_control import (
    RIACHY,
    WITH_DERIVATIVE,
    HeolConfig,
    SampleWindow,
    WindowNotWarm,
    _quadrature,
    estimate_F,
    heol_step,
    riachy_signal,
)
from heolsim.reference_trajectory import TrajectorySpec, sample
from scenarios import fill_window, simulate_double_integrator


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


def kernel_average(F_fn, T, now, n=200_000):
    """Independent high-resolution K-weighted average of ``F`` over
    ``[now - T, now]``: what the estimator's continuum functional returns
    for a signal whose second derivative is ``F``."""
    sigma = np.linspace(0.0, T, n + 1)
    return 60.0 / T**5 * np.trapezoid(kernel_dw(sigma, T) * F_fn(sigma + now - T),
                                      sigma)


def fill_and_estimate(w, laps):
    """Estimate both lanes of ``w`` at each of the ``capacity + 1`` end
    indices of a warm window, ``laps`` times over."""
    i = np.arange(2 * w._cap)
    lanes = (np.sin(i), 0.5 * i), (np.cos(i), -0.5 * i)
    for _ in range(laps):
        for end in range(w._cap, 2 * w._cap + 1):
            fill_window(w, *((g[:end], dw[:end]) for g, dw in lanes))
            estimate_F(w, 0)
            estimate_F(w, 1)


def window_from_functions(g_fn, dw_fn, T, now, dt):
    ts = [now - T + i * dt for i in range(round(T / dt) + 1)]
    return fill_window(SampleWindow(T, dt), ([float(g_fn(t)) for t in ts],
                                             [float(dw_fn(t)) for t in ts]))


def ones(n):
    """Lane 0's samples of a window that has stored ``n`` signals of 1."""
    return [1.0] * n, [0.0] * n


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
        assert estimate_F(w) == 0.0

    @pytest.mark.parametrize("now", [1.0, 2.5, 10.0])
    def test_polynomial_exactness(self, now):
        T, dt, F0 = 1.0, 1e-3, -50.0
        w = window_from_functions(lambda t: 0.5 * F0 * t**2, lambda t: 0.0, T, now, dt)
        got = estimate_F(w)
        assert abs(got - F0) / abs(F0) < 5e-3

    def test_constant_residual_with_nonzero_feedback(self):
        T, dt, F0, A, nu = 1.0, 1e-3, -50.0, 20.0, 3.0
        now = 3.7
        g_fn = lambda t: 0.5 * F0 * t**2 + 0.3 * t + 1.1 - A / nu**2 * math.sin(nu * t)
        dw_fn = lambda t: A * math.sin(nu * t)
        w = window_from_functions(g_fn, dw_fn, T, now, dt)
        got = estimate_F(w)
        assert abs(got - F0) / abs(F0) < 5e-3

    def test_large_signal_offset_does_not_bias(self):
        # The integral-substitution signal carries big accumulated constants;
        # recentering keeps the quadrature bias negligible.
        T, dt, F0 = 1.0, 1e-3, 2.0
        off = 5000.0
        w = window_from_functions(lambda t: off + 0.5 * F0 * t**2, lambda t: 0.0,
                                  T, 2.0, dt)
        assert estimate_F(w) == pytest.approx(F0, rel=1e-3)

    def test_full_window_offset_does_not_bias(self):
        # Recentering uses the mean of the samples the horizon spans, not of
        # all samples stored.
        T, dt, F0, off = 0.5, 2.0**-10, 2.0, 5000.0
        w = SampleWindow(T, dt)
        t = np.arange(2 * w._cap) * dt
        fill_window(w, (off + 0.5 * F0 * t * t, 0.0 * t))
        assert estimate_F(w) == pytest.approx(F0, rel=1e-3)

    def test_samples_older_than_the_horizon_do_not_matter(self):
        # Two full windows that differ only before now - T.
        T, dt, F0 = 0.5, 2.0**-10, 2.0
        m = round(T / dt) + 1
        got = []
        t = np.arange(2 * m) * dt
        for old in (0.0, 1e4):
            g = 0.5 * F0 * t * t
            g[:m] += old
            got.append(estimate_F(fill_window(SampleWindow(T, dt), (g, 0.0 * t))))
        assert got[0] == got[1]
        assert got[0] == pytest.approx(F0, rel=1e-3)

    def test_slow_sine_tracks_second_derivative(self):
        T, dt, om = 0.2, 1e-3, 1.0
        for now in (1.0, 2.3, 4.1):
            g_fn = lambda t: math.sin(om * t)
            w = window_from_functions(g_fn, lambda t: 0.0, T, now, dt)
            got = estimate_F(w)
            fine = fine_integral(lambda t: np.sin(om * t), lambda t: 0.0 * t, T, now)
            mid = now - T / 2.0
            assert got == pytest.approx(fine, abs=1e-3)
            assert got == pytest.approx(-(om**2) * math.sin(om * mid), abs=1e-2)

    def test_is_the_trapezoid_rule_of_the_recentered_kernel_integral(self):
        T, dt = 0.5, 1e-3
        now = 2.0
        rng = np.random.default_rng(4)
        n = round(T / dt)
        ts = now - T + np.arange(n + 1) * dt
        g = np.sin(3.0 * ts) + 100.0
        dw = np.cos(2.0 * ts)
        w = fill_window(SampleWindow(T, dt), (g, dw))
        sigma = ts - (now - T)
        integ = kernel_g(sigma, T) * (g - g.mean()) - kernel_dw(sigma, T) * dw
        want = 60.0 / T**5 * np.trapezoid(integ, sigma)
        assert estimate_F(w) == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_full_window_estimates_over_its_last_horizon(self):
        # Twice the horizon stored: only [now-T, now] may enter.
        T, dt = 0.5, 1e-3
        now = 2.0
        g_fn = lambda t: math.sin(3.0 * t)
        w = SampleWindow(T, dt)
        n = 2 * w._cap
        g = [g_fn(now - (n - 1 - i) * dt) for i in range(n)]
        got = estimate_F(fill_window(w, (g, [0.0] * n)))
        fine = fine_integral(lambda t: np.sin(3.0 * t), lambda t: 0.0 * t, T, now)
        assert got == pytest.approx(fine, abs=2e-3)

    def test_fractional_horizon_interpolates_its_start(self):
        # Horizon not an integer number of samples: the start node is
        # synthesized by interpolation.
        T, dt = 0.1234, 1e-3
        now = 1.0
        g_fn = lambda t: math.sin(5.0 * t) + 2.0 * t
        n = math.ceil(T / dt) + 1
        g = [g_fn(now - n * dt + i * dt) for i in range(n + 1)]
        got = estimate_F(fill_window(SampleWindow(T, dt), (g, [0.0] * (n + 1))))
        fine = fine_integral(lambda t: np.sin(5.0 * t) + 2.0 * t,
                             lambda t: 0.0 * t, T, now)
        assert got == pytest.approx(fine, rel=3e-3)

    def test_not_warm_raises(self):
        w = SampleWindow(1.0, 1e-3)
        with pytest.raises(WindowNotWarm):
            estimate_F(w)
        fill_window(w, ones(2))
        with pytest.raises(WindowNotWarm):
            estimate_F(w)

    def test_not_warm_until_the_rounded_up_horizon_is_stored(self):
        # T is 2e-6 steps over 99 steps: more than the 1e-6 that counts as
        # whole, so it is rounded up to 100 steps and 101 samples are needed.
        dt = 2.0**-13
        T = 99.000002 * dt
        w = SampleWindow(T, dt)
        assert w._cap == 101
        fill_window(w, ones(100))
        with pytest.raises(WindowNotWarm, match="holds 100 of the 101"):
            estimate_F(w)
        fill_window(w, ones(101))
        assert estimate_F(w) == pytest.approx(0.0, abs=1e-9)


class TestEstimatorOracle:
    """With no feedback and a signal whose second derivative is ``F``, the
    estimate is the K-weighted average of ``F`` over ``[now - T, now]`` up
    to the trapezoid rule's O(dt^2) error: the error falls 4x per halving
    of ``dt``.  The kernel is symmetric, so that average is a zero-phase
    filter of ``F`` delayed by ``T/2``."""

    T = 0.5
    STEPS = [2.0**-8, 2.0**-9, 2.0**-10]

    def errors(self, g_fn, want, now):
        return [estimate_F(window_from_functions(g_fn, lambda t: 0.0, self.T, now, dt))
                - want
                for dt in self.STEPS]

    # Period in horizons, and the filter's gain there as README states it.
    @pytest.mark.parametrize("periods, gain", [(10, 0.99), (2, 0.84), (1, 0.46),
                                               (0.5, -0.03)])
    def test_sine_is_filtered_with_second_order_error(self, periods, gain):
        T, now, A = self.T, 3.3, 10.0
        om = 2.0 * math.pi / (periods * T)
        want = kernel_average(lambda t: A * np.sin(om * t), T, now)
        assert want == pytest.approx(gain * A * math.sin(om * (now - T / 2.0)),
                                     abs=5e-3 * A)
        errs = self.errors(lambda t: -A / om**2 * math.sin(om * t), want, now)
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize("now", [1.0, 3.3, 7.7])
    def test_ramp_is_delayed_by_half_the_horizon(self, now):
        a, b = 3.0, -2.0
        want = a + b * (now - self.T / 2.0)
        assert kernel_average(lambda t: a + b * t, self.T, now) == \
            pytest.approx(want, rel=1e-12)
        errs = self.errors(lambda t: a * t * t / 2.0 + b * t**3 / 6.0, want, now)
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.02)


class TestSampleWindow:
    def test_eviction_keeps_capacity_and_order(self):
        # Eight ticks into a window of three samples: the seventh compacts
        # it, and the newest three signals, the errors, stay in order.
        cfg = HeolConfig(T=2.0)
        w = SampleWindow(cfg.T, 1.0)
        still = (0.0, 0.0, 0.0)
        for i in range(8):
            heol_step(still, still, 2.0 * i, 0.0, 0.0, 0.0, cfg, w)
        assert w._end == 4
        np.testing.assert_array_equal(w._gdw[0, 2 * (w._end - 3):2 * w._end:2],
                                      [10.0, 12.0, 14.0])

    def test_backfill_last_feedback(self):
        # Cold ticks: each stores dw = -(Kp * e + Kd * e_dot) as its
        # feedback value.
        cfg = HeolConfig(Kp=1.0, Kd=2.0, T=3.0)
        w = SampleWindow(cfg.T, 1.0)
        still = (0.0, 0.0, 0.0)
        heol_step(still, still, 1.0, 0.0, 0.0, 0.0, cfg, w)
        heol_step(still, still, 2.0, 0.0, -4.0, 0.0, cfg, w)
        np.testing.assert_array_equal(w._gdw[0, 1:2 * w._end:2], [-1.0, -10.0])

    def test_capacity_spans_the_horizon(self):
        # m - 1 stored samples leave the window cold, m make it warm.
        for T, dt, m in ((1.0, 1e-3, 1001), (0.5, 1e-3, 501), (1.0, 3e-3, 335),
                         (1.0, 1.0, 2)):
            w = fill_window(SampleWindow(T, dt), ones(m - 1))
            with pytest.raises(WindowNotWarm):
                estimate_F(w)
            estimate_F(fill_window(w, ones(m)))

    @pytest.mark.parametrize("T, dt", [
        (1.0, 1e-3), (0.5, 1e-3), (1.0, 3e-3), (1.0, 1.0), (0.1234, 1e-3),
        (0.2505, 3e-3), (99.000002 * 2.0**-13, 2.0**-13),
    ])
    def test_memory_guard_bounds_what_the_window_holds(self, T, dt):
        # ScenarioConfig refuses a window by (T / dt + 2) * BYTES_PER_SAMPLE.
        w = SampleWindow(T, dt)
        assert T / dt + 2.0 >= w._cap
        tracemalloc.start()
        try:
            fill_and_estimate(w, laps=2)
            views = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # Every warm end index of both lanes has its view.
        assert sum(v is not None for lane in w._views for v in lane) == 2 * (w._cap + 1)
        # Data bytes of the arrays and the lists' slots; their headers are
        # a fixed cost per window, not per sample.
        arrays = w._gdw.nbytes + w._coef.nbytes
        slots = 8 * sum(map(len, w._views))
        assert arrays + views + slots <= SampleWindow.BYTES_PER_SAMPLE * w._cap

    def test_estimates_read_cached_views_of_the_buffer(self):
        w = SampleWindow(0.1234, 1e-3)
        for end in range(w._cap):
            fill_window(w, ones(end), ones(end))
            for lane in range(2):
                with pytest.raises(WindowNotWarm):
                    estimate_F(w, lane)
        assert all(v is None for lane in w._views for v in lane)
        fill_and_estimate(w, laps=2)
        cached = [list(lane) for lane in w._views]
        assert all(v is not None for lane in cached for v in lane)
        assert all(np.shares_memory(v, w._gdw) for lane in cached for v in lane)
        fill_and_estimate(w, laps=2)
        assert all(a is b for old, new in zip(cached, w._views)
                   for a, b in zip(old, new, strict=True))

    @pytest.mark.parametrize("T, dt", [
        (0.0, 1e-3), (-1.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
        (1.0, 0.0), (1.0, -1e-3), (1.0, math.nan), (1.0, math.inf),
        (0.5e-3, 1e-3),   # shorter than one step
        # T**5 underflows to 0, T**5 overflows, 60 / T**5 overflows.
        (1e-70, 1e-71), (1e62, 1e61), (1e-62, 1e-63),
    ])
    def test_rejects_a_bad_horizon_or_step(self, T, dt):
        with pytest.raises(ValueError):
            SampleWindow(T, dt)


class TestCompactionProperty:
    """``heol_step``'s window against a plain-list model: ticks of random
    errors and velocities, at least three compactions included, leave each
    lane's buffer ending in the model's newest ``m`` ``(g, dw)`` pairs,
    oldest first, where ``g`` is the lane's error and ``dw`` its feedback
    law; each tick's estimate is the quadrature vector dotted with them
    as they stood before the backfill, and each later estimate with them
    after it; and a window with fewer is cold.  For whole and fractional
    horizons, with errors on lane 0 only (zeros on lane 1) or on both."""

    @settings(max_examples=150, deadline=None)
    @example(steps=10, frac=0.0, dt=1e-2, lanes=2, laps=3, extra=0, seed=0)
    @example(steps=2, frac=0.0, dt=1.0, lanes=2, laps=3, extra=0, seed=0)
    @given(
        steps=st.integers(1, 40),
        frac=st.sampled_from([0.0, 0.0, 0.5, 0.25, 0.3, 0.875]),
        dt=st.sampled_from([2.0**-10, 1e-3, 0.01, 0.25]),
        lanes=st.integers(1, 2),
        laps=st.integers(3, 5),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_window_matches_a_list_model(self, steps, frac, dt, lanes, laps, extra, seed):
        T = (steps + frac) * dt
        m = steps + 1 + (frac > 0.0)
        cfg = HeolConfig(Kp=1.5, Kd=2.5, T=T)
        w = SampleWindow(T, dt)
        coef = _quadrature(T, dt)
        assert coef.size == 2 * m
        assert len(w._gdw) == 2 and w._cap == m
        # Compactions come at ticks 2 * m + 1 + k * (m + 1), k >= 0.
        n = (laps + 2) * (m + 1) + extra
        rng = np.random.default_rng(seed)
        model = [[], []]   # per lane: [g, dw] per tick
        compactions = 0
        count = 0
        while count < n:
            # One burst of ticks, then the checks.
            for _ in range(int(rng.integers(1, m + 2))):
                end = w._end
                e = np.zeros(2)
                e[:lanes] = 1e3 * rng.standard_normal(lanes)
                ref_v, v = rng.standard_normal((2, 2)).tolist()
                e_x, e_y = e.tolist()
                x_d, y_d = (0.0, ref_v[0], 0.0), (0.0, ref_v[1], 0.0)
                *_, F_hat_x, F_hat_y = heol_step(x_d, y_d, e_x, e_y, *v, cfg, w)
                compactions += w._end < end
                count += 1
                for lane, e_i, r_v, v_i, F_hat in ((0, e_x, ref_v[0], v[0], F_hat_x),
                                                   (1, e_y, ref_v[1], v[1], F_hat_y)):
                    f = -F_hat
                    model[lane].append([e_i, 0.0])
                    if count < m:
                        assert f == 0.0
                    else:
                        newest = np.array(model[lane][-m:]).ravel()
                        assert f == float(coef.dot(newest))
                    model[lane][-1][1] = -(cfg.Kp * e_i + cfg.Kd * (r_v - v_i) + f)
            for lane in range(2):
                if count < m:
                    with pytest.raises(WindowNotWarm):
                        estimate_F(w, lane)
                else:
                    newest = np.array(model[lane][-m:]).ravel()
                    np.testing.assert_array_equal(
                        w._gdw[lane, 2 * (w._end - m): 2 * w._end], newest)
                    assert estimate_F(w, lane) == float(coef.dot(newest))
        assert compactions >= 3


class TestRiachyMemoryProperty:
    """The ``riachy`` memory the window holds against a per-lane list
    model: each tick's signal is the lane's newest error plus ``Kd`` times
    the left-to-right sum of the trapezoids of the lane's errors so far,
    so the first tick adds nothing, and storing each tick's signal with its
    feedback ``dw = -(F + Kp * e)``, at least two compactions included,
    leaves the memory intact: every stored ``(g, dw)`` pair is the model's."""

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.integers(1, 30),
        dt=st.sampled_from([2.0**-10, 1e-3, 0.01, 0.25]),
        Kd=st.sampled_from([1e-3, 0.5, 2.0, 7.3]),
        laps=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signals_match_a_trapezoid_list_model(self, steps, dt, Kd, laps, seed):
        cfg = HeolConfig(Kp=1.5, Kd=Kd, T=steps * dt, variant=RIACHY)
        window = SampleWindow(cfg.T, dt)
        m = window._cap
        # Compactions come at ticks 2 * m + 1 + k * (m + 1), k >= 0.
        n = 2 * m + 1 + (laps - 1) * (m + 1)
        errors = 1e3 * np.random.default_rng(seed).standard_normal((n, 2))
        model = []
        for lane in range(2):
            es = errors[:, lane].tolist()
            trapezoids = [0.5 * dt * (a + b) for a, b in zip(es, es[1:])]
            model.append([[e + Kd * i, None] for e, i
                          in zip(es, accumulate(trapezoids, initial=0.0))])
        still = (0.0, 0.0, 0.0)
        compactions = 0
        for k, (e_x, e_y) in enumerate(errors.tolist()):
            end = window._end
            *_, F_hat_x, F_hat_y = heol_step(still, still, e_x, e_y, 0.0, 0.0,
                                             cfg, window)
            compactions += window._end < end
            for lane, e, F_hat in ((0, e_x, F_hat_x), (1, e_y, F_hat_y)):
                model[lane][k][1] = -(-F_hat + cfg.Kp * e)
                newest = window._gdw[lane, 2 * window._end - 2: 2 * window._end]
                assert newest.tolist() == model[lane][k]
        assert compactions == laps
        for lane in range(2):
            np.testing.assert_array_equal(
                window._gdw[lane, 2 * (window._end - m): 2 * window._end],
                np.array(model[lane][-m:]).ravel())


class TestFeedbackLaws:
    def test_riachy_signal_zero_history(self):
        window = SampleWindow(1.0, 0.1)
        for i in range(10):
            g = riachy_signal(window, 0.0, 0.0, Kd=2.0)
        assert g == (0.0, 0.0)

    def test_riachy_signal_constant_error(self):
        window = SampleWindow(1.0, 1e-3)
        for i in range(1001):  # t = 0 .. 1 s inclusive
            g = riachy_signal(window, 1.0, -0.5, Kd=2.0)
        assert g == pytest.approx((3.0, -1.5), rel=1e-12)

    def test_riachy_second_derivative_identity(self):
        # Y'' must equal e'' + Kd*e' (checked by finite differences).
        Kd, dt = 2.0, 1e-3
        window = SampleWindow(1.0, dt)
        ts = np.arange(0, 2.0, dt)
        ys = np.array([riachy_signal(window, math.sin(3.0 * t), math.cos(3.0 * t), Kd)
                       for t in ts])
        ydd = (ys[2:] - 2 * ys[1:-1] + ys[:-2]) / dt**2
        s, c = np.sin(3.0 * ts[1:-1]), np.cos(3.0 * ts[1:-1])
        want = np.stack([-9.0 * s + Kd * 3.0 * c, -9.0 * c - Kd * 3.0 * s], axis=1)
        np.testing.assert_allclose(ydd, want, atol=5e-3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HeolConfig(T=0.0)
        with pytest.raises(ValueError):
            HeolConfig(variant="pid")
        with pytest.raises(ValueError):
            HeolConfig(Kp=0.0, Kd=1.0)
        for T in (math.inf, math.nan, 1e-70, 1e62, 1e-62):
            with pytest.raises(ValueError, match="estimation horizon"):
                HeolConfig(T=T)


def kernel_response(om, T):
    """The estimator's kernel filter ``H`` at angular frequency ``om``."""
    s = np.linspace(0.0, T, 20_001)
    return np.trapezoid(30.0 * (T - s) ** 2 * s**2 / T**5 * np.exp(-1j * om * (T - s)), s)


@functools.lru_cache(maxsize=None)
def sine_response_error(period, dt, T=0.5, Kp=1.0, Kd=2.0, duration=40.0):
    """Relative error of the steady error amplitude under an x disturbance
    ``A*sin(om*t)`` against the linear prediction: the loop obeys
    ``e'' + Kd e' + Kp e = (1 - H)F`` with ``H`` the estimator's kernel
    filter, so the amplitude is ``|1 - H(i om)| A / |Kp - om^2 + i Kd om|``."""
    cfg = HeolConfig(Kp=Kp, Kd=Kd, T=T)
    A, om = 10.0, 2.0 * math.pi / period
    hist = simulate_double_integrator(
        cfg, lambda t: (A * math.sin(om * t), 0.0), duration, dt=dt)
    last = hist[hist[:, 0] >= duration - 2.0 * period, 1]
    measured = 0.5 * (last.max() - last.min())
    H = kernel_response(om, T)
    predicted = abs(1.0 - H) * A / abs(Kp - om**2 + 1j * Kd * om)
    return abs(measured - predicted) / predicted


class TestClosedLoop:
    @pytest.mark.parametrize("period, bound", [(5.0, 1e-4), (1.0, 5e-3), (0.5, 3e-3)])
    def test_sine_disturbance_leaves_the_predicted_error(self, period, bound):
        assert sine_response_error(period, 1e-3) < bound

    # Ten examples of at most 27k steps each: about 2 s, within a 10 s budget.
    # A failing draw is reported as drawn, since shrinking it reruns them.
    @settings(max_examples=10, deadline=None,
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(period=st.floats(0.5, 5.0), T=st.floats(0.2, 1.0),
           Kp=st.floats(1.0, 4.0), Kd=st.floats(1.0, 3.0))
    def test_sine_disturbance_error_over_periods_windows_and_gains(
            self, period, T, Kp, Kd):
        # To first order in om*dt the sampled loop differs from the linear
        # prediction by timing alone: the held PD feedback lags by half a
        # step and the estimator, reading held inputs as point samples, by
        # at most one.  A lag tau turns a path's phasor P into
        # P*exp(-i om tau), off by at most om*tau*|P|: relative to the
        # prediction that is |H|/|1 - H| for the estimate and
        # |Kp + i Kd om|/|Kp - om^2 + i Kd om| for the PD path.  The
        # tolerance is one full step on both.  The rest is second order
        # (the hold's sinc, the window quadrature, peaks read between
        # samples, at most (om*dt)^2/8), and the transient has decayed by
        # exp(-16) before the last two periods are measured.  Over a grid
        # of these ranges the error stays below 0.7 of the tolerance.
        dt, om = 2e-3, 2.0 * math.pi / period
        decay = -np.roots([1.0, Kd, Kp]).real.max()
        H = kernel_response(om, T)
        tolerance = om * dt * (abs(H) / abs(1.0 - H)
                               + abs(Kp + 1j * Kd * om) / abs(Kp - om**2 + 1j * Kd * om))
        duration = 2.0 * period + T + 16.0 / decay
        assert sine_response_error(period, dt, T, Kp, Kd, duration) < tolerance

    def test_sine_prediction_error_shrinks_with_the_step(self):
        assert sine_response_error(1.0, 5e-4) <= 0.6 * sine_response_error(1.0, 1e-3)

    def test_constant_disturbance_is_rejected(self):
        cfg = HeolConfig(Kp=1.0, Kd=2.0, T=1.0)
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
            cfg = HeolConfig(T=0.5, variant=variant)
            hist = simulate_double_integrator(cfg, d, duration=20.0,
                                              initial=(3.0, 0.0))
            finals.append(hist[-1, 1])
        assert abs(finals[0]) < 1e-3
        assert abs(finals[1]) < 1e-3

    def test_step_response_follows_second_order_envelope(self):
        # With no disturbance the estimate stays at zero and the error obeys
        # e'' + Kd e' + Kp e = 0; Kp=1, Kd=2 is the critically damped pair.
        cfg = HeolConfig(Kp=1.0, Kd=2.0, T=0.5)
        e0 = 10.0
        hist = simulate_double_integrator(cfg, (0.0, 0.0), duration=10.0,
                                          initial=(-e0, 0.0))
        t = hist[:, 0]
        want = e0 * (1.0 + t) * np.exp(-t)
        np.testing.assert_allclose(hist[:, 1], want, atol=2e-2 * e0)
        assert abs(hist[-1, 1]) < 1e-2

    def test_axes_are_symmetric(self):
        # One shared gain pair: swapping the axes swaps the outputs exactly.
        cfg = HeolConfig(T=0.5)
        d = (7.0, -3.0)
        hist_a = simulate_double_integrator(cfg, d, 5.0, initial=(2.0, -1.0))
        cfg_b = HeolConfig(T=0.5)
        hist_b = simulate_double_integrator(cfg_b, (d[1], d[0]), 5.0,
                                            initial=(-1.0, 2.0))
        np.testing.assert_allclose(hist_a[:, 1], hist_b[:, 2], atol=1e-12)
        np.testing.assert_allclose(hist_a[:, 3], hist_b[:, 4], atol=1e-12)


class TestHeolStep:
    def test_pure_feedforward_when_measurements_match(self):
        spec = TrajectorySpec("circle", radius=2.0, angular_rate=0.5)
        cfg = HeolConfig(T=0.1)
        window = SampleWindow(cfg.T, 1e-2)
        for i in range(60):
            t = i * window.dt
            x_d, y_d = sample(spec, t)
            w_x, w_y, F_hat_x, _ = heol_step(
                x_d, y_d, 0.0, 0.0, x_d[1], y_d[1], cfg, window)
        assert w_x == pytest.approx(x_d[2], abs=1e-12)
        assert w_y == pytest.approx(y_d[2], abs=1e-12)
        assert F_hat_x == pytest.approx(0.0, abs=1e-12)

    def test_riachy_integrates_over_the_window_step(self):
        # The error integral advances by one trapezoid of the tick spacing.
        cfg = HeolConfig(T=0.1, variant=RIACHY)
        window = SampleWindow(cfg.T, 0.01)
        x_d, y_d = sample(TrajectorySpec("line", speed=0.0), 0.0)
        heol_step(x_d, y_d, 1.0, -2.0, 0.0, 0.0, cfg, window)
        heol_step(x_d, y_d, 3.0, -0.5, 0.0, 0.0, cfg, window)
        assert window._e_int_x == 0.5 * window.dt * (1.0 + 3.0)
        assert window._e_int_y == 0.5 * window.dt * (-2.0 + -0.5)

    def test_cold_window_uses_pd_only(self):
        cfg = HeolConfig(Kp=1.0, Kd=2.0, T=0.5)
        window = SampleWindow(cfg.T, 1e-3)
        x_d, y_d = sample(TrajectorySpec("line", speed=2.0), 0.0)
        # At x = 0, y = 10 on a line through the origin.
        w_x, w_y, F_hat_x, F_hat_y = heol_step(
            x_d, y_d, 0.0, -10.0, 0.0, 0.0, cfg, window)
        # e_x = 0, de_x = 2  ->  wx = 0 - (-(2*2)) = 4
        assert w_x == pytest.approx(4.0)
        # e_y = -10, de_y = 0  ->  wy = -(-(1*-10)) = -10
        assert w_y == pytest.approx(-10.0)
        assert F_hat_x == 0.0 and F_hat_y == 0.0

    @pytest.mark.parametrize("variant", [WITH_DERIVATIVE, RIACHY])
    def test_warm_feedback_law_is_exact(self, variant):
        # The engine's own law, bit for bit: w = w* - dw with dw of the
        # variant, and dw backfilled as the newest feedback sample.
        cfg = HeolConfig(Kp=1.5, Kd=2.5, T=0.1, variant=variant)
        window = SampleWindow(cfg.T, 0.01)
        spec = TrajectorySpec("circle", radius=2.0, angular_rate=0.5)
        first_warm = window._cap - 1
        assert first_warm == 10  # so 30 of the 40 ticks are warm
        for i in range(40):
            t = i * window.dt
            x_d, y_d = sample(spec, t)
            e_x = x_d[0] - 0.3 * t * t
            e_y = y_d[0] + 0.2 * t**3
            vx, vy = 0.6 * t, -0.6 * t * t
            w_x, w_y, F_hat_x, F_hat_y = heol_step(x_d, y_d, e_x, e_y, vx, vy,
                                                   cfg, window)
            for lane, r_d, e, vel, w_i, F_hat in (
                (0, x_d, e_x, vx, w_x, F_hat_x),
                (1, y_d, e_y, vy, w_y, F_hat_y),
            ):
                f = -F_hat
                assert (f != 0.0) == (i >= first_warm)
                if variant == RIACHY:
                    dw = -(f + cfg.Kp * e)
                else:
                    dw = -(cfg.Kp * e + cfg.Kd * (r_d[1] - vel) + f)
                assert w_i == r_d[2] - dw
                assert window._gdw[lane, 2 * window._end - 1] == dw
