"""Outer-loop tracking controller: nominal feedforward plus model-free PD.

Per axis, the loop is closed around the double-integrator error dynamics

    e'' = F + dw

where ``e`` is the position tracking error, ``dw`` the feedback part of the
commanded acceleration and ``F`` lumps every unmodeled effect (disturbances,
model mismatch, inner-loop lag).  ``F`` is estimated online from a sliding
window of samples by :func:`estimate_F` and canceled by the feedback law,
written once in :func:`heol_step`, so constant disturbances leave no
steady-state error.

Two feedback variants are provided: the plain form
``dw = -(Kp*e + Kd*e' + F_hat)`` uses the measured error rate, while the
integral substitution ``Y = e + Kd * int(e)`` (:func:`riachy_signal`)
removes the rate term entirely: ``dw = -(F_hat + Kp*e)``.

The estimator kernel is ``K(s) = (T-s)^2 * s^2 / 2`` on a window of length
``T``:

    F_hat = (60/T^5) * int_0^T [ K''(s) * g(t-T+s) - K(s) * dw(t-T+s) ] ds

with ``K''(s) = (T-s)^2 - 4*(T-s)*s + s^2``.  Integrating by parts twice
(boundary terms vanish since K and K' are zero at both ends) shows this
equals the K-weighted average of ``g'' - dw``, i.e. exactly F whenever
``g'' - dw`` is constant over the window, with no knowledge of initial
conditions.  The sign of the ``dw`` term follows from that identity.
``K''`` integrates to zero, so a constant added to ``g`` leaves the
estimate unchanged; the window's quadrature vector keeps that exactly by
centering its signal weights, so each estimate is one dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WindowNotWarm",
    "HeolConfig",
    "SampleWindow",
    "WITH_DERIVATIVE",
    "RIACHY",
    "estimate_F",
    "riachy_signal",
    "heol_step",
]

WITH_DERIVATIVE = "with_derivative"
RIACHY = "riachy"


class WindowNotWarm(RuntimeError):
    """The sample window does not yet cover a full estimation horizon."""


@dataclass(frozen=True)
class HeolConfig:
    """Tuning of the outer loop.

    ``Kp, Kd`` are the feedback gains both axes share; s^2 + Kd*s + Kp
    must be Hurwitz, so both are positive.  ``T`` is the estimation
    horizon.  The controller period is the engine's tick spacing, and the
    window must hold enough samples for the quadrature to make sense:
    :class:`~heolsim.sim_engine.ScenarioConfig` requires ``T`` to span at
    least 10 periods.
    """

    Kp: float = 1.0
    Kd: float = 2.0
    T: float = 0.5
    variant: str = WITH_DERIVATIVE

    def __post_init__(self):
        if not 0.0 < self.Kp < math.inf or not 0.0 < self.Kd < math.inf:
            raise ValueError("feedback gains must be positive and finite")
        if not 0.0 < self.T < math.inf:
            raise ValueError("estimation horizon must be positive and finite")
        _scale(self.T)
        if self.variant not in (WITH_DERIVATIVE, RIACHY):
            raise ValueError(f"unknown feedback variant {self.variant!r}")


def _scale(T: float) -> float:
    """The kernel's normalization ``60 / T**5`` of a positive horizon;
    raises ``ValueError`` where ``T**5`` or the quotient leaves the
    range of positive finite floats."""
    try:
        scale = 60.0 / T**5
    except (OverflowError, ZeroDivisionError):  # T**5 overflows or underflows
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"estimation horizon {T!r} is out of range: T**5 "
                         f"or 60 / T**5 leaves the float range")
    return scale


def _quadrature(T: float, dt: float) -> np.ndarray:
    """The interleaved kernel-times-trapezoid vector for the newest ``m``
    samples, on a grid of step ``dt``, that span the horizon ``T``: signal
    weights at even, negated feedback weights at odd positions, matching
    the sample layout of :class:`SampleWindow`.

    ``m - 1`` is ``T / dt`` rounded up; a ratio within 1e-6 of a whole
    number counts as whole.  A horizon starting ``frac > 0`` steps after
    the oldest sample has its first node at ``(1 - frac) * x_0 + frac *
    x_1``, folded into their coefficients.  The signal weights are centered
    to sum to zero, which recenters the signal by the mean of those ``m``
    samples (see :func:`estimate_F`).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"sample step {dt!r} must be positive and finite")
    if not dt <= T < math.inf:
        raise ValueError(f"horizon {T!r} must be finite and span at least "
                         f"one sample step ({dt!r})")
    scale = _scale(T)
    ratio = T / dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-6:
        frac = 0.0
    else:
        n = math.ceil(ratio)
        frac = n - ratio
    m = n + 1
    sigma = np.arange(m) * dt
    tw = np.full(m, dt)
    tw[0] = tw[-1] = 0.5 * dt
    if frac:
        # Keep the newest node at T and move the oldest to the start, 0.
        sigma = T - sigma[::-1]
        sigma[0] = 0.0
        tw[0] = 0.5 * sigma[1]
        tw[1] += 0.5 * (sigma[1] - dt)
    # Signal and feedback kernels on the window-relative times.
    rev = T - sigma
    w1 = rev * rev - 4.0 * rev * sigma + sigma * sigma
    w2 = 0.5 * rev * rev * sigma * sigma
    c1 = scale * w1 * tw
    c2 = scale * w2 * tw
    if frac:
        # w2 vanishes at the start node: only the signal weights move.
        c1[1] += frac * c1[0]
        c1[0] *= 1.0 - frac
    coef = np.empty(2 * m)
    coef[0::2] = c1 - c1.sum() / m
    coef[1::2] = -c2
    return coef


class SampleWindow:
    """Sliding window of (signal, feedback) samples of the two controller
    axes, x on lane 0 and y on lane 1, sized and weighted for the horizon
    ``T`` on a grid of step ``dt``.

    Its capacity is the ``m`` samples the horizon spans, and its
    quadrature vector (:func:`_quadrature`) is computed once, here; ``dt``
    is kept as the grid step.  :func:`heol_step` is the window's one
    writer: each tick it stores the two axes' signal values at the next
    grid point with zero feedback values, estimates, and then fills the
    feedback values in (the newest sample gets zero kernel weight at the
    window edge, so the estimate at insertion time is unaffected).

    Storage is a linear buffer of ``2 * capacity`` sample slots: each lane
    interleaves its ``(signal, feedback)`` pairs in its own contiguous row
    of one ``(2, 4 * capacity)`` float array.  Single values are read and
    written through a memoryview of each row, which is cheaper than numpy
    scalar indexing and stores the same doubles.  Samples are stored at
    the end index; when it reaches ``2 * capacity``, the newest
    ``capacity - 1`` samples of both axes are moved to the front before
    the write, one block copy per ``capacity + 1`` ticks.  Invariant: the
    stored samples always occupy the contiguous slots ``[end - min(end,
    capacity), end)``, oldest first, with no wrap-around.

    A warm window's end index is one of the ``capacity + 1`` values
    ``capacity .. 2 * capacity``, so its newest ``capacity`` samples of a
    lane are one of that many slices of the lane's row.  ``_views[lane][end
    - capacity]`` caches that slice, ``_gdw[lane, 2*(end-capacity) :
    2*end]``, built by :func:`estimate_F` the first time it needs it, so
    no tick builds more than one and a cold window holds none.  Compaction
    copies within the same buffer, so a cached view stays valid.  Each
    estimate's dot product writes into the 0-d array ``_dot_out``, which
    costs less than the numpy scalar the dot would return otherwise.

    The window also holds the ``riachy`` memory of both lanes, which
    :func:`riachy_signal` advances by one step of ``dt``: each lane's error
    integral, ``_e_int_x`` and ``_e_int_y``, and its error at the last
    call, ``_e_prev_x`` and ``_e_prev_y``, ``None`` before the first.
    """

    # Bytes held per unit of capacity, at most: four interleaved sample
    # floats for each axis, the two quadrature coefficients, and each
    # lane's cached views with their list slots (a view measures 112 bytes
    # with tracemalloc, its slot 8): capacity + 1 views per lane, at most
    # two per unit of capacity.
    BYTES_PER_SAMPLE = 2 * 4 * 8 + 2 * 8 + 2 * 2 * (112 + 8)

    __slots__ = ("_cap", "_gdw", "_cells", "_views", "_end",
                 "_coef", "_dot_out", "dt",
                 "_e_int_x", "_e_int_y", "_e_prev_x", "_e_prev_y")

    def __init__(self, T: float, dt: float):
        # Interleaved [c1_0, -c2_0, c1_1, -c2_1, ...].
        self._coef = _quadrature(T, dt)
        self._dot_out = np.empty(())
        self.dt = dt
        self._cap = capacity = self._coef.size // 2
        # Per lane: g at even, dw at odd positions of its row.
        self._gdw = np.zeros((2, 4 * capacity))
        self._cells = tuple(map(memoryview, self._gdw))
        self._views = ([None] * (capacity + 1), [None] * (capacity + 1))
        self._end = 0           # slot after the newest sample
        self._e_int_x = self._e_int_y = 0.0
        self._e_prev_x = self._e_prev_y = None


def estimate_F(window: SampleWindow, lane: int = 0) -> float:
    """Sliding-window estimate of the lumped residual acceleration of one
    lane of ``window`` at its newest sample.

    Composite trapezoidal quadrature of the kernel integral over the
    window's horizon, as one dot product of the lane's newest samples
    against the window's quadrature vector (:func:`_quadrature`).  The
    vector's signal weights sum to zero, which recenters the signal by the
    mean of the samples it weights: the kernel annihilates constants
    exactly, so this leaves the estimate unchanged analytically while
    removing the O(dt^2) quadrature bias a large constant offset would
    otherwise contribute (the integral-substitution variant accumulates
    such offsets).  Samples older than the horizon never enter the
    estimate.

    Raises :class:`WindowNotWarm` until the window stores the samples the
    horizon needs.  The lane's newest samples are read through the view
    the window caches for its end index (see :class:`SampleWindow`).
    """
    k = window._end - window._cap
    if k < 0:
        raise WindowNotWarm(
            f"window holds {window._end} of the {window._cap} samples the "
            f"horizon needs"
        )
    views = window._views[lane]
    view = views[k]
    if view is None:
        view = views[k] = window._gdw[lane, 2 * k: 2 * window._end]
    return float(window._coef.dot(view, window._dot_out))


def riachy_signal(window: SampleWindow, e_x: float, e_y: float,
                  Kd: float) -> tuple[float, float]:
    """Integral substitution Y = e + Kd * int(e) of both axes' errors,
    removing the rate term.

    Advances each lane's running trapezoidal integral, held in ``window``,
    by one step of ``window.dt``; the first call adds nothing.  Since
    Y'' = e'' + Kd*e', running the window estimator on Y yields the lumped
    residual augmented by Kd*e', which the rate-free feedback law cancels.
    """
    i_x, i_y = window._e_int_x, window._e_int_y
    if window._e_prev_x is not None:
        dt = window.dt
        i_x += 0.5 * dt * (window._e_prev_x + e_x)
        i_y += 0.5 * dt * (window._e_prev_y + e_y)
        window._e_int_x, window._e_int_y = i_x, i_y
    window._e_prev_x, window._e_prev_y = e_x, e_y
    return e_x + Kd * i_x, e_y + Kd * i_y


def heol_step(
    x_d: tuple,
    y_d: tuple,
    e_x: float,
    e_y: float,
    vx: float,
    vy: float,
    cfg: HeolConfig,
    window: SampleWindow,
) -> tuple[float, float, float, float]:
    """One controller tick for both axes.

    Args:
        x_d / y_d: each axis's reference at the tick time, the pair
            :func:`~heolsim.reference_trajectory.sample` returns.
        e_x, e_y: the tracking errors, reference minus measured position.
        vx, vy: the measured inertial-frame velocity.
        cfg: shared tuning; one gain pair serves both axes.
        window: the two axes' samples and ``riachy`` memory, a
            :class:`SampleWindow` for ``cfg.T`` on the tick grid.

    Returns ``(w_x, w_y, F_hat_x, F_hat_y)``: the accelerations to command
    to the integrator chains and each axis's plant-disturbance estimate.
    ``w = w* - dw``: ``w*`` is the reference acceleration, and ``dw`` the
    feedback law of the configured variant, ``-(Kp*e + Kd*e_dot + F_hat)``
    or ``-(F_hat + Kp*e)``, backfilled into the axis's newest sample.
    While the window is cold the estimate contribution is zero, leaving
    plain feedforward-plus-PD behavior.  Each call stores both axes'
    signals (the errors, or their ``riachy`` substitutes) as the window's
    newest sample, compacting it as :class:`SampleWindow` describes.
    """
    Kp, Kd = cfg.Kp, cfg.Kd
    riachy = cfg.variant == RIACHY
    if riachy:
        g_x, g_y = riachy_signal(window, e_x, e_y, Kd)
    else:
        g_x, g_y = e_x, e_y
    end = window._end
    cap = window._cap
    if end == 2 * cap:
        # Compaction: keep the newest cap - 1 samples at the front.
        window._gdw[:, : 2 * cap - 2] = window._gdw[:, 2 * cap + 2:]
        end = cap - 1
    cells_x, cells_y = window._cells
    newest_dw = 2 * end
    cells_x[newest_dw] = g_x
    cells_y[newest_dw] = g_y
    newest_dw += 1
    cells_x[newest_dw] = 0.0
    cells_y[newest_dw] = 0.0
    window._end = end + 1
    try:
        f_x = estimate_F(window, 0)
    except WindowNotWarm:
        f_x = 0.0
    if riachy:
        dw_x = -(f_x + Kp * e_x)
    else:
        dw_x = -(Kp * e_x + Kd * (x_d[1] - vx) + f_x)
    cells_x[newest_dw] = dw_x
    try:
        f_y = estimate_F(window, 1)
    except WindowNotWarm:
        f_y = 0.0
    if riachy:
        dw_y = -(f_y + Kp * e_y)
    else:
        dw_y = -(Kp * e_y + Kd * (y_d[1] - vy) + f_y)
    cells_y[newest_dw] = dw_y
    # Sign flip: the window estimates F in e'' = F + dw, e = ref - plant,
    # so an additive plant disturbance d appears as F = -d; the reported
    # plant-side estimate converges to d.
    return x_d[2] - dw_x, y_d[2] - dw_y, -f_x, -f_y
