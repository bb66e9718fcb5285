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
estimate unchanged; the cached quadrature vector keeps that exactly by
centering its signal weights, so each estimate is one dot product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flat_guidance import BrunovskyInputs
from .reference_trajectory import ReferencePoint

__all__ = [
    "WindowNotWarm",
    "IpdGains",
    "HeolConfig",
    "SampleWindow",
    "HeolAxisState",
    "WITH_DERIVATIVE",
    "RIACHY",
    "estimate_F",
    "riachy_signal",
    "heol_step",
]

WITH_DERIVATIVE = "with_derivative"
RIACHY = "riachy"

_TIME_TOL = 1e-9

_new = tuple.__new__


class WindowNotWarm(RuntimeError):
    """The sample window does not yet cover a full estimation horizon."""


@dataclass(frozen=True)
class IpdGains:
    """Shared feedback gains; s^2 + Kd*s + Kp must be Hurwitz."""

    Kp: float = 1.0
    Kd: float = 2.0

    def __post_init__(self):
        if not self.Kp > 0.0 or not self.Kd > 0.0:
            raise ValueError("feedback gains must be positive")


@dataclass(frozen=True)
class HeolConfig:
    """Tuning of the outer loop.

    ``T`` is the estimation horizon, ``dt`` the controller period.  The
    window must hold enough samples for the quadrature to make sense,
    hence ``T >= 10*dt``.
    """

    gains: IpdGains = IpdGains()
    T: float = 0.5
    variant: str = WITH_DERIVATIVE
    dt: float = 1e-3

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("controller period must be positive")
        if not self.T >= 10.0 * self.dt:
            raise ValueError("estimation horizon must span at least 10 periods")
        if self.variant not in (WITH_DERIVATIVE, RIACHY):
            raise ValueError(f"unknown feedback variant {self.variant!r}")

    def window_capacity(self) -> int:
        """Samples needed to span the horizon, oldest included."""
        return _horizon_grid(self.T, self.dt)[0]


def _horizon_grid(T: float, dt: float) -> tuple[int, float]:
    """Samples a horizon ``T`` needs on a grid of step ``dt``, and how many
    steps (``frac``, in ``[0, 1)``) its start lies after the oldest of them.
    A ``T / dt`` within 1e-6 of a whole number counts as whole."""
    ratio = T / dt
    n = round(ratio)
    if abs(ratio - n) <= 1e-6:
        return n + 1, 0.0
    n = math.ceil(ratio)
    return n + 1, n - ratio


class SampleWindow:
    """Fixed-capacity window of timestamped (signal, feedback) samples on
    one or more lanes that share their timestamps.

    Timestamps must be strictly increasing and evenly spaced.  The newest
    sample's feedback value may be filled in after insertion (it gets zero
    kernel weight at the window edge, so the estimate at insertion time is
    unaffected).  A window of one lane (the default) is filled by
    :meth:`append`; one of several lanes, such as the two controller axes
    of :meth:`HeolAxisState.pair`, takes one signal value per lane at each
    timestamp through :meth:`append_lanes`, so the timestamps are checked
    once for all lanes.  Only the newest timestamp and the step are kept:
    the estimator needs no other.

    Storage is a linear buffer of ``2 * capacity`` sample slots: each lane
    interleaves its ``(signal, feedback)`` pairs in its own contiguous row
    of one ``(lanes, 4 * capacity)`` float array.  Single values are read
    and written through a memoryview of each row, which is cheaper than
    numpy scalar indexing and stores the same doubles.  Samples are
    appended at the end index; when it reaches ``2 * capacity`` on a full
    window, the newest ``capacity - 1`` samples of every lane are moved to
    the front before the write, one block copy per ``capacity`` appends.
    Invariant: the stored samples always occupy the contiguous slots
    ``[end - size, end)``, oldest first, so the newest ``k`` samples of a
    lane are a single view ``_rows[lane][2*(end-k) : 2*end]`` with no
    wrap-around.  Appends only store samples: the estimator's
    mean-centering lives in the cached quadrature vector.

    A window that passed :func:`estimate_F`'s checks for a horizon stays
    warm for it across appends: the window never shrinks, so each append
    only moves the checked time to its own.
    """

    # Bytes held per unit of capacity and lane, at most: four interleaved
    # sample floats and the two cached quadrature coefficients.
    BYTES_PER_SAMPLE = 4 * 8 + 2 * 8

    __slots__ = (
        "_cap", "_gdw", "_rows", "_cells", "_end", "_size", "_newest",
        "_step", "_coef_T", "_coef", "_warm_now",
    )

    def __init__(self, capacity: int, lanes: int = 1):
        if capacity < 2:
            raise ValueError("window capacity must be at least 2")
        if lanes < 1:
            raise ValueError("a window needs at least one lane")
        self._cap = capacity
        # Per lane: g at even, dw at odd positions of its row.
        self._gdw = np.zeros((lanes, 4 * capacity))
        self._rows = tuple(self._gdw)
        self._cells = tuple(map(memoryview, self._rows))
        self._end = 0           # slot after the newest sample
        self._size = 0
        self._newest = 0.0      # newest timestamp, as a Python float
        self._step = 0.0
        self._coef_T = None     # horizon the cached quadrature vector matches
        self._coef = None       # interleaved [c1_0, -c2_0, c1_1, -c2_1, ...]
        # The now that passed estimate_F's checks for _coef_T, moved to
        # each append's time.
        self._warm_now = None

    @property
    def capacity(self) -> int:
        return self._cap

    def __len__(self) -> int:
        return self._size

    @property
    def newest_time(self) -> float:
        if self._size == 0:
            raise IndexError("window is empty")
        return self._newest

    def append(self, t: float, g: float, dw: float = 0.0) -> None:
        """Store one sample on a one-lane window."""
        if len(self._rows) != 1:
            raise ValueError(
                f"append() fills one lane; this window has {len(self._rows)}, "
                f"use append_lanes()"
            )
        self.append_lanes(t, (g,))
        self._cells[0][2 * self._end - 1] = dw

    def append_lanes(self, t: float, gs) -> None:
        """Store the signal values ``gs``, one per lane, at time ``t``; their
        feedback values start at zero (see :meth:`set_last_delta_w`)."""
        cells = self._cells
        if len(gs) != len(cells):
            raise ValueError(f"{len(gs)} signal values for {len(cells)} lanes")
        t = float(t)
        size = self._size
        end = self._end
        if size:
            newest = self._newest
            if t <= newest:
                raise ValueError("sample timestamps must be strictly increasing")
            step = t - newest
            if size == 1:
                self._step = step
            elif abs(step - self._step) > _TIME_TOL * max(self._step, 1.0):
                raise ValueError("sample timestamps must be evenly spaced")
        cap = self._cap
        if size < cap:
            self._size = size + 1
        elif end == 2 * cap:
            # Compaction: keep the newest cap - 1 samples at the front.
            self._gdw[:, : 2 * cap - 2] = self._gdw[:, 2 * cap + 2:]
            end = cap - 1
        j = 2 * end
        for row, g in zip(cells, gs):
            row[j] = g
            row[j + 1] = 0.0
        self._newest = t
        self._end = end + 1
        if self._warm_now is not None:  # still warm at t, see the class docstring
            self._warm_now = t

    def set_last_delta_w(self, dw: float, lane: int = 0) -> None:
        """Backfill the feedback value of the newest sample of ``lane``."""
        if self._size == 0:
            raise IndexError("window is empty")
        self._cells[lane][2 * self._end - 1] = dw

    def ordered(self, lane: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Copies of (signal, feedback) of ``lane``, oldest to newest."""
        pairs = self._rows[lane][2 * (self._end - self._size): 2 * self._end]
        return pairs[0::2].copy(), pairs[1::2].copy()


def _kernel_weights(sigma: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Signal and feedback kernels evaluated on window-relative times."""
    rev = T - sigma
    w1 = rev * rev - 4.0 * rev * sigma + sigma * sigma
    w2 = 0.5 * rev * rev * sigma * sigma
    return w1, w2


def _cache_coefficients(window: SampleWindow, T: float) -> None:
    """Cache the interleaved kernel-times-trapezoid vector for the newest
    ``m`` samples of ``window`` that span ``T``: signal weights at even,
    negated feedback weights at odd positions, matching the sample layout.
    A horizon starting ``frac > 0`` steps after the oldest of them has its
    first node at ``(1 - frac) * x_0 + frac * x_1``, folded into their
    coefficients.  The signal weights are centered to sum to zero, which
    recenters the signal by the mean of those ``m`` samples (see
    :func:`estimate_F`)."""
    dt = window._step
    m, frac = _horizon_grid(T, dt)
    sigma = np.arange(m) * dt
    tw = np.full(m, dt)
    tw[0] = tw[-1] = 0.5 * dt
    if frac:
        # Keep the newest node at T and move the oldest to the start, 0.
        sigma = T - sigma[::-1]
        sigma[0] = 0.0
        tw[0] = 0.5 * sigma[1]
        tw[1] += 0.5 * (sigma[1] - dt)
    w1, w2 = _kernel_weights(sigma, T)
    scale = 60.0 / T**5
    c1 = scale * w1 * tw
    c2 = scale * w2 * tw
    if frac:
        # w2 vanishes at the start node: only the signal weights move.
        c1[1] += frac * c1[0]
        c1[0] *= 1.0 - frac
    coef = np.empty(2 * m)
    coef[0::2] = c1 - c1.sum() / m
    coef[1::2] = -c2
    window._coef = coef
    window._coef_T = T


def _check_warm(window: SampleWindow, T: float, now: float) -> None:
    """:func:`estimate_F`'s checks of ``T`` and ``now`` against the window.
    On success the window caches the coefficients for ``T`` and remembers
    ``now`` until its next check; an append moves it to its own time
    (:meth:`SampleWindow.append_lanes`)."""
    window._warm_now = None
    if not T > 0.0:
        raise ValueError("estimation horizon must be positive")
    tol = _TIME_TOL * max(T, 1.0)
    size = window._size
    if size < 2:
        raise WindowNotWarm("fewer than two samples stored")
    newest = window._newest
    if newest > now + tol:
        raise ValueError(f"window holds samples after now = {now!r}")
    if newest < now - tol:
        raise WindowNotWarm(f"newest sample {newest!r} is older than now = {now!r}")
    if window._coef_T != T:
        _cache_coefficients(window, T)
    if window._coef.size > 2 * size:
        raise WindowNotWarm(
            f"window holds {size} of the {window._coef.size // 2} samples "
            f"the horizon needs"
        )
    window._warm_now = now


def estimate_F(window: SampleWindow, T: float, now: float, lane: int = 0) -> float:
    """Sliding-window estimate of the lumped residual acceleration of one
    lane of ``window``.

    Composite trapezoidal quadrature of the kernel integral over
    ``[now - T, now]``, as one dot product of the lane's newest samples
    against a cached vector (:func:`_cache_coefficients`); the newest
    sample must sit at ``now``.  The vector's signal weights sum to zero,
    which recenters the signal by the mean of the samples it weights: the
    kernel annihilates constants exactly, so this leaves the estimate
    unchanged analytically while removing the O(dt^2) quadrature bias a
    large constant offset would otherwise contribute (the
    integral-substitution variant accumulates such offsets).  Samples
    older than the horizon never enter the estimate.

    Raises :class:`WindowNotWarm` until the window stores the samples the
    horizon needs on its grid (:func:`_horizon_grid`) or while the newest
    is older than ``now``, and ``ValueError`` if it is newer.  The lanes of
    a window share their timestamps, so once ``T`` and ``now`` pass these
    checks, the other lanes' estimates reuse them, and an append keeps a
    warm window warm for its ``T``: only a new ``T`` or a ``now`` other than
    the newest sample's time runs the checks again.
    """
    if now != window._warm_now or T != window._coef_T:
        _check_warm(window, T, now)
    coef = window._coef
    end = 2 * window._end
    return float(coef.dot(window._rows[lane][end - coef.size: end]))


@dataclass
class HeolAxisState:
    """Per-axis controller memory (single-owner, not thread-safe).

    ``lane`` is the axis's lane of ``window``; the two axes of
    :meth:`pair` share one two-lane window.
    """

    window: SampleWindow
    integral_acc: float = 0.0
    prev_error: float | None = None
    last_F_hat: float = 0.0
    lane: int = 0

    @classmethod
    def for_config(cls, cfg: HeolConfig) -> "HeolAxisState":
        return cls(window=SampleWindow(cfg.window_capacity()))

    @classmethod
    def pair(cls, cfg: HeolConfig) -> tuple["HeolAxisState", "HeolAxisState"]:
        """The x and y axis states on lanes 0 and 1 of one shared window."""
        window = SampleWindow(cfg.window_capacity(), lanes=2)
        return cls(window=window), cls(window=window, lane=1)


def riachy_signal(state: HeolAxisState, e: float, Kd: float, dt: float) -> float:
    """Integral substitution Y = e + Kd * int(e), removing the rate term.

    Updates the running trapezoidal integral held in ``state``.  Since
    Y'' = e'' + Kd*e', running the window estimator on Y yields the lumped
    residual augmented by Kd*e', which the rate-free feedback law cancels.
    """
    if not dt > 0.0:
        raise ValueError("integration step must be positive")
    if state.prev_error is not None:
        state.integral_acc += 0.5 * dt * (state.prev_error + e)
    state.prev_error = e
    return e + Kd * state.integral_acc


def heol_step(
    ref: ReferencePoint,
    meas: tuple[float, float, float, float],
    cfg: HeolConfig,
    axis_x: HeolAxisState,
    axis_y: HeolAxisState,
) -> BrunovskyInputs:
    """One controller tick for both axes.

    Args:
        ref: reference sample at the tick time (``ref.t`` timestamps the
            window samples).
        meas: measured ``(x, y, vx, vy)`` with inertial-frame velocities.
        cfg: shared tuning; one gain pair serves both axes.
        axis_x / axis_y: per-axis memory, mutated in place: two one-lane
            windows (:meth:`HeolAxisState.for_config`) or lanes 0 and 1 of
            one shared window (:meth:`HeolAxisState.pair`), which give the
            same bits.  Each axis also records the plant-disturbance
            estimate in ``last_F_hat``.

    Returns the accelerations to command to the integrator chains,
    ``w = w* - dw``: ``w*`` is the reference acceleration, and ``dw`` the
    feedback law of the configured variant, ``-(Kp*e + Kd*e_dot + F_hat)``
    or ``-(F_hat + Kp*e)``, backfilled into the axis's newest sample.
    While either window is cold its estimate contribution is zero, leaving
    plain feedforward-plus-PD behavior.
    """
    x, y, vx, vy = meas
    t, x_d, y_d = ref
    e_x = x_d[0] - x
    e_y = y_d[0] - y
    Kp, Kd = cfg.gains.Kp, cfg.gains.Kd
    T = cfg.T
    riachy = cfg.variant == RIACHY
    if riachy:
        g_x = riachy_signal(axis_x, e_x, Kd, cfg.dt)
        g_y = riachy_signal(axis_y, e_y, Kd, cfg.dt)
    else:
        g_x, g_y = e_x, e_y
    win_x, lane_x = axis_x.window, axis_x.lane
    win_y, lane_y = axis_y.window, axis_y.lane
    if win_x is win_y and lane_x < lane_y:
        win_x.append_lanes(t, (g_x, g_y))
    else:
        win_x.append(t, g_x)
        win_y.append(t, g_y)
    try:
        f_x = estimate_F(win_x, T, t, lane_x)
    except WindowNotWarm:
        f_x = 0.0
    if riachy:
        dw_x = -(f_x + Kp * e_x)
    else:
        dw_x = -(Kp * e_x + Kd * (x_d[1] - vx) + f_x)
    win_x._cells[lane_x][2 * win_x._end - 1] = dw_x
    # Sign flip: the window estimates F in e'' = F + dw, e = ref - plant,
    # so an additive plant disturbance d appears as F = -d; the reported
    # plant-side estimate converges to d.
    axis_x.last_F_hat = -f_x
    try:
        f_y = estimate_F(win_y, T, t, lane_y)
    except WindowNotWarm:
        f_y = 0.0
    if riachy:
        dw_y = -(f_y + Kp * e_y)
    else:
        dw_y = -(Kp * e_y + Kd * (y_d[1] - vy) + f_y)
    win_y._cells[lane_y][2 * win_y._end - 1] = dw_y
    axis_y.last_F_hat = -f_y
    # tuple.__new__ skips the NamedTuple's Python-level __new__.
    return _new(BrunovskyInputs, (x_d[2] - dw_x, y_d[2] - dw_y))
