"""Both controller axes on one shared sample track.

``HeolAxisState.pair`` puts the x and y axes on lanes 0 and 1 of one
two-lane ``SampleWindow``: one timestamp list, one append, one compaction
and one set of time checks per tick.  ``heol_step`` must give the same bits
with it as with two one-lane windows from ``HeolAxisState.for_config``.
"""

import math
import struct
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heolsim import heol_control
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
)
from heolsim.reference_trajectory import ReferencePoint
from heolsim.scenario_cli import BUILTIN_SCENARIOS, build_scenario, parse_config_text
from heolsim.sim_engine import RunMetrics, run_scenario


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@contextmanager
def recorded_estimates():
    """Every ``estimate_F`` call made through the module global, as
    ``(window, lane, result)`` with ``None`` for ``WindowNotWarm``."""
    real = heol_control.estimate_F
    calls = []

    def record(window, T, now, lane=0):
        try:
            out = real(window, T, now, lane)
        except WindowNotWarm:
            calls.append((window, lane, None))
            raise
        calls.append((window, lane, out))
        return out

    with mock.patch.object(heol_control, "estimate_F", record):
        yield calls


def drive(cfg, axes, ticks):
    """Run ``heol_step`` over ``ticks`` of ``(e_x, e_x_dot, wx_star, e_y,
    e_y_dot, wy_star)``; returns the commands, the estimates, the estimate
    calls and how many times the x window compacted."""
    axis_x, axis_y = axes
    out = []
    compactions = 0
    with recorded_estimates() as calls:
        for i, (ex, dex, wsx, ey, dey, wsy) in enumerate(ticks):
            ref = ReferencePoint(i * cfg.dt, (ex, dex, wsx, 0.0, 0.0),
                                 (ey, dey, wsy, 0.0, 0.0))
            end = axis_x.window._end
            w = heol_step(ref, (0.0, 0.0, 0.0, 0.0), cfg, axis_x, axis_y)
            compactions += axis_x.window._end < end
            out.append((w.wx, w.wy, axis_x.last_F_hat, axis_y.last_F_hat))
    return out, calls, compactions


class TestSharedTrackProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        periods=st.integers(11, 90),
        frac=st.sampled_from([0.0, 0.0, 0.5, 0.25, 0.3, 0.875]),
        dt=st.sampled_from([2.0**-10, 2.0**-6, 1e-3, 0.01, 0.05]),
        variant=st.sampled_from([WITH_DERIVATIVE, RIACHY]),
        laps=st.integers(3, 5),
        extra=st.integers(0, 90),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_gives_the_bits_of_two_windows(
        self, periods, frac, dt, variant, laps, extra, scale, seed
    ):
        cfg = HeolConfig(gains=IpdGains(Kp=1.5, Kd=2.5), T=(periods - frac) * dt,
                         variant=variant, dt=dt)
        cap = cfg.window_capacity()
        # Compactions come at appends 2 * cap + 1 + k * (cap + 1), k >= 0.
        n = (laps + 1) * (cap + 1) + extra % cap
        rng = np.random.default_rng(seed)
        ticks = (scale * rng.standard_normal((n, 6))).tolist()

        separate = (HeolAxisState.for_config(cfg), HeolAxisState.for_config(cfg))
        shared = HeolAxisState.pair(cfg)
        got_sep, calls_sep, _ = drive(cfg, separate, ticks)
        got_pair, calls_pair, compactions = drive(cfg, shared, ticks)

        assert compactions >= 3
        assert [[bits(v) for v in row] for row in got_pair] == \
            [[bits(v) for v in row] for row in got_sep]
        # Two estimates per tick, cold on the same ticks, the same bits.
        assert len(calls_pair) == len(calls_sep) == 2 * n
        cold_sep = [out is None for _, _, out in calls_sep]
        assert [out is None for _, _, out in calls_pair] == cold_sep
        assert 0 < sum(cold_sep) < 2 * n
        assert [bits(out) for _, _, out in calls_pair if out is not None] == \
            [bits(out) for _, _, out in calls_sep if out is not None]
        # Each axis estimates from its own lane of the one shared window.
        assert {(id(w), lane) for w, lane, _ in calls_pair[0::2]} == \
            {(id(shared[0].window), 0)}
        assert {(id(w), lane) for w, lane, _ in calls_pair[1::2]} == \
            {(id(shared[0].window), 1)}
        for lane, axis in enumerate(separate):
            for a, b in zip(shared[0].window.ordered(lane), axis.window.ordered()):
                np.testing.assert_array_equal(a, b)


class TestSharedWindow:
    def test_pair_shares_one_two_lane_window(self):
        cfg = HeolConfig(T=0.1, dt=1e-2)
        ax, ay = HeolAxisState.pair(cfg)
        assert ax.window is ay.window
        assert (ax.lane, ay.lane) == (0, 1)
        assert len(ax.window._rows) == 2 and ax.window.capacity == 11

    def test_lanes_must_be_filled_together(self):
        w = SampleWindow(4, lanes=2)
        with pytest.raises(ValueError, match="append_lanes"):
            w.append(0.0, 1.0)
        with pytest.raises(ValueError, match="1 signal values for 2 lanes"):
            w.append_lanes(0.0, (1.0,))
        assert len(w) == 0
        with pytest.raises(ValueError, match="at least one lane"):
            SampleWindow(4, lanes=0)

    def test_swapped_or_repeated_axes_are_refused(self):
        cfg = HeolConfig(T=0.1, dt=1e-2)
        ref = ReferencePoint(0.0, (1.0, 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0, 0.0))
        ax, ay = HeolAxisState.pair(cfg)
        with pytest.raises(ValueError, match="append_lanes"):
            heol_step(ref, (0.0, 0.0, 0.0, 0.0), cfg, ay, ax)
        one = HeolAxisState.for_config(cfg)
        with pytest.raises(ValueError, match="strictly increasing"):
            heol_step(ref, (0.0, 0.0, 0.0, 0.0), cfg, one, one)

    def test_lanes_keep_their_own_samples(self):
        w = SampleWindow(3, lanes=2)
        for i in range(7):
            w.append_lanes(float(i), (float(i), -10.0 * i))
            w.set_last_delta_w(100.0 + i, 1)
        g0, dw0 = w.ordered(0)
        g1, dw1 = w.ordered(1)
        assert w.newest_time == 6.0
        np.testing.assert_array_equal(g0, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(dw0, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(g1, [-40.0, -50.0, -60.0])
        np.testing.assert_array_equal(dw1, [104.0, 105.0, 106.0])

    def test_checks_are_reused_only_for_the_same_horizon_and_time(self):
        dt = 0.125
        T = 10 * dt
        w = SampleWindow(11, lanes=2)
        for i in range(11):
            w.append_lanes(i * dt, (math.sin(i * dt), i * dt * i * dt))
        now = 10 * dt
        a = estimate_F(w, T, now, 0)
        b = estimate_F(w, T, now, 1)
        assert b == pytest.approx(2.0, rel=0.1)   # (t^2)'' on a coarse grid
        assert estimate_F(w, T, now, 0) == a
        with pytest.raises(ValueError, match="positive"):
            estimate_F(w, 0.0, now, 1)
        with pytest.raises(WindowNotWarm, match="older than now"):
            estimate_F(w, T, now + dt, 1)
        with pytest.raises(WindowNotWarm, match="holds 11 of the 12"):
            estimate_F(w, T + dt, now, 1)
        assert estimate_F(w, T, now, 1) == b
        # An append ends the reuse: the old time is now before the newest.
        w.append_lanes(now + dt, (0.0, 0.0))
        with pytest.raises(ValueError, match="after now"):
            estimate_F(w, T, now, 1)


def _builtin_metrics(name, **overrides):
    raw = parse_config_text(BUILTIN_SCENARIOS[name])
    raw.update({key: str(value) for key, value in overrides.items()})
    cfg, _ = build_scenario(raw)
    return run_scenario(cfg)[1]


class TestEngineOnSharedTrack:
    def test_engine_estimates_both_axes_from_one_window(self):
        with recorded_estimates() as calls:
            _builtin_metrics("otter_circle", duration=0.6)
        assert len(calls) == 2 * 601
        assert len({id(window) for window, _, _ in calls}) == 1
        assert [lane for _, lane, _ in calls] == [0, 1] * 601
        assert sum(out is None for _, _, out in calls) == 2 * 500

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
    def test_builtin_metrics_keep_their_bits(self, name, overrides, want):
        assert _builtin_metrics(name, **overrides) == want
