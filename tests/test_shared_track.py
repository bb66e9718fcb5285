"""Both controller axes on one shared sample track.

The engine puts the x and y axes on lanes 0 and 1 of one
``SampleWindow``: one append and one compaction per tick, and one
``estimate_F`` call per axis, each from its own lane.  The built-in
scenarios' metrics are pinned bit for bit.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from heolsim import heol_control
from heolsim.heol_control import HeolConfig, SampleWindow, WindowNotWarm
from heolsim.sim_engine import RunMetrics, run_scenario
from scenarios import builtin


@contextmanager
def recorded_estimates():
    """Every ``estimate_F`` call made through the module global, as
    ``(window, lane, result)`` with ``None`` for ``WindowNotWarm``."""
    real = heol_control.estimate_F
    calls = []

    def record(window, lane=0):
        try:
            out = real(window, lane)
        except WindowNotWarm:
            calls.append((window, lane, None))
            raise
        calls.append((window, lane, out))
        return out

    with mock.patch.object(heol_control, "estimate_F", record):
        yield calls


class TestSharedWindow:
    def test_one_window_holds_both_axes(self):
        cfg = HeolConfig(T=0.1)
        w = SampleWindow(cfg.T, 1e-2)
        assert len(w._gdw) == 2 and w._cap == 11

    def test_lanes_keep_their_own_samples(self):
        w = SampleWindow(2.0, 1.0)
        for i in range(7):
            w._cells[1][w.append(float(i), -10.0 * i)] = 100.0 + i
        # (g, dw) pairs of the newest three samples of each lane, oldest first.
        newest = slice(2 * (w._end - 3), 2 * w._end)
        np.testing.assert_array_equal(w._gdw[0, newest],
                                      [4.0, 0.0, 5.0, 0.0, 6.0, 0.0])
        np.testing.assert_array_equal(w._gdw[1, newest],
                                      [-40.0, 104.0, -50.0, 105.0, -60.0, 106.0])


class TestEngineOnSharedTrack:
    def test_engine_estimates_both_axes_from_one_window(self):
        with recorded_estimates() as calls:
            run_scenario(builtin("otter_circle", duration=0.6))
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
        assert run_scenario(builtin(name, **overrides))[1] == want
