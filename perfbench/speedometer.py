"""Host-speed calibration for timings on a shared host.

A shared host runs the same code at different speeds.  On the 2-vCPU host
of the baseline each vCPU switches, independently and every few seconds,
between two speeds about 1.9x apart; CPU time slows just as much as wall
time, and no time is reported as stolen.  A repetition's wall time then
depends on how much of it fell into slow stretches, and run-level medians
of the same code spread by up to a third between sets of runs.

The speedometer measures the speed that the repetition itself saw.  An
interval timer interrupts the process every ``INTERVAL_S``; the signal
handler, on the same thread, runs a fixed kernel a few times back to back
and keeps the median time of the warm runs.  The ticks come at even wall
intervals, so the mean of ``KERNEL_REFERENCE_S / kernel time`` over the
ticks of a stretch is the stretch's mean speed relative to the reference
speed, and

    calibrated = (wall time - speedometer time) * mean speed

is the time the same work takes at the reference speed.  Work that grows
makes the wall time longer at the same speed, so the calibrated time grows
by the same share; a slow stretch of the host makes the wall time longer
and the speed lower, and the two cancel.

How much a slow stretch slows code depends on the code: a tight float loop
slows by about 1.4x where the simulator slows by 1.9x.  The kernel is
therefore a small stand-alone simulation in the simulator's style (an RK4
step on tuples of floats and a dot product over a 200-sample numpy window);
it calls nothing of the program, and its warm runs slow by the same 1.9x.
Only warm runs count, so that the program's own cache footprint does not
show up as host speed.  The speedometer takes about 1% of the process's
time, and that time is taken out of every calibrated value.  It owns
``SIGALRM`` and ``ITIMER_REAL`` while it runs; the program uses neither.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
KERNEL_STEPS = 6
# Kernel runs per tick.  The first WARM_RUNS refill the caches the program
# has just used, so that the median of the rest measures the host and not
# the program's cache footprint.
BURST_RUNS = 8
WARM_RUNS = 3
# Warm kernel time at the baseline host's fast speed.  A constant, so that
# calibrated times compare between runs and commits; on the baseline host a
# calibrated time reads close to the wall time of an undisturbed run.
KERNEL_REFERENCE_S = 3.8e-5

_WINDOW = np.linspace(0.0, 1.0, 200)
_WEIGHTS = np.cos(_WINDOW)


def _derivative(state):
    x, y, u, v = state
    return (u, v, -math.sin(x) - 0.1 * u, -math.cos(y) - 0.1 * v)


def _rk4(state, dt):
    k1 = _derivative(state)
    half = 0.5 * dt
    k2 = _derivative(tuple(s + half * k for s, k in zip(state, k1)))
    k3 = _derivative(tuple(s + half * k for s, k in zip(state, k2)))
    k4 = _derivative(tuple(s + dt * k for s, k in zip(state, k3)))
    return tuple(
        s + dt / 6.0 * (a + 2.0 * (b + c) + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def kernel() -> float:
    state = (0.1, 0.2, 0.0, 0.0)
    acc = 0.0
    for _ in range(KERNEL_STEPS):
        state = _rk4(state, 0.01)
        acc += float(np.dot(_WINDOW, _WEIGHTS)) * state[0]
    return acc


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def warm_kernel_s() -> float:
    """Median time of the kernel once its caches are warm."""
    runs = []
    for _ in range(BURST_RUNS):
        t0 = time.perf_counter()
        kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs[WARM_RUNS:])


class Speedometer:
    """Measures the host's speed every ``INTERVAL_S`` between ``start`` and
    ``stop``, and on every call of ``tick``.

    ``ticks`` holds (start, duration, warm kernel time) triples, the start
    on ``CLOCK_MONOTONIC``, which the parent process shares.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []
        self._previous = None

    def tick(self, *signal_args) -> None:
        t0 = monotonic()
        warm = warm_kernel_s()
        self.ticks.append((t0, monotonic() - t0, warm))

    def start(self) -> "Speedometer":
        self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def mean_speed(ticks, start: float, end: float) -> float:
    """Mean speed relative to the reference over the ticks in the stretch."""
    inside = [warm for t0, _, warm in ticks if start <= t0 < end]
    if not inside:
        raise ValueError("no speedometer tick in the stretch to calibrate")
    return sum(KERNEL_REFERENCE_S / warm for warm in inside) / len(inside)


def calibrate(ticks, start: float, end: float, speed_over=None) -> float:
    """Time the wall-clock stretch ``[start, end]`` would have taken at the
    reference speed, without the speedometer's own time.  The speed is the
    mean over the ticks in the stretch, or in ``speed_over`` = (from, to)."""
    spent = sum(took for t0, took, _ in ticks if start <= t0 < end)
    return (end - start - spent) * mean_speed(ticks, *(speed_over or (start, end)))
