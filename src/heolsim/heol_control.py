"""Outer-loop tracking controller: nominal feedforward plus model-free PD.

Per axis, the loop is closed around the double-integrator error dynamics

    e'' = F + dw

where ``e`` is the position tracking error, ``dw`` the feedback part of the
commanded acceleration and ``F`` lumps every unmodeled effect (disturbances,
model mismatch, inner-loop lag).  ``F`` is estimated online from a sliding
window of samples by :func:`estimate_F` and canceled by the feedback law
(:func:`ipd_delta`), so constant disturbances leave no steady-state error.

Two feedback variants are provided: the plain form uses the measured error
rate, while the integral substitution ``Y = e + Kd * int(e)`` removes the
rate term entirely (:func:`riachy_signal` / :func:`ipd_delta_riachy`).

The estimator kernel is ``K(s) = (T-s)^2 * s^2 / 2`` on a window of length
``T``:

    F_hat = (60/T^5) * int_0^T [ K''(s) * g(t-T+s) - K(s) * dw(t-T+s) ] ds

with ``K''(s) = (T-s)^2 - 4*(T-s)*s + s^2``.  Integrating by parts twice
(boundary terms vanish since K and K' are zero at both ends) shows this
equals the K-weighted average of ``g'' - dw``, i.e. exactly F whenever
``g'' - dw`` is constant over the window, with no knowledge of initial
conditions.  The sign of the ``dw`` term follows from that identity.
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
    "nominal_control",
    "estimate_F",
    "ipd_delta",
    "riachy_signal",
    "ipd_delta_riachy",
    "heol_step",
]

WITH_DERIVATIVE = "with_derivative"
RIACHY = "riachy"

_TIME_TOL = 1e-9


class WindowNotWarm(RuntimeError):
    """The sample window does not yet cover a full estimation horizon."""


@dataclass(frozen=True)
class IpdGains:
    """Shared feedback gains; s^2 + Kd*s + Kp must be Hurwitz."""

    Kp: float = 1.0
    Kd: float = 2.0

    def __post_init__(self):
        if self.Kp <= 0.0 or self.Kd <= 0.0:
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
        if self.dt <= 0.0:
            raise ValueError("controller period must be positive")
        if self.T < 10.0 * self.dt:
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
    """Fixed-capacity window of timestamped (signal, feedback) samples.

    Timestamps must be strictly increasing and evenly spaced.  The newest
    sample's feedback value may be filled in after insertion (it gets zero
    kernel weight at the window edge, so the estimate at insertion time is
    unaffected).

    Storage is a linear buffer of ``2 * capacity`` sample slots: the
    ``(signal, feedback)`` pairs are interleaved in one float array and the
    timestamps sit in a list with the same slot numbering.  Samples are
    appended at the end index; when it reaches ``2 * capacity`` on a full
    window, the newest ``capacity - 1`` samples are moved to the front
    before the write, one block copy per ``capacity`` appends.  Invariant:
    the stored samples always occupy the contiguous slots
    ``[end - size, end)``, oldest first, so the newest ``k`` samples are a
    single view ``_gdw[2*(end-k) : 2*end]`` with no wrap-around.
    """

    # Bytes held per unit of capacity: two timestamp slots (a list pointer
    # and a float object each), four interleaved sample floats and the two
    # cached quadrature coefficients.
    BYTES_PER_SAMPLE = 2 * (8 + 24) + 4 * 8 + 2 * 8

    __slots__ = (
        "_cap", "_ts", "_gdw", "_end", "_size", "_newest", "_g_sum",
        "_step", "_coef_T", "_coef", "_c1_sum",
    )

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("window capacity must be at least 2")
        self._cap = capacity
        self._ts = [0.0] * (2 * capacity)
        self._gdw = np.zeros(4 * capacity)  # g at even, dw at odd positions
        self._end = 0           # slot after the newest sample
        self._size = 0
        self._newest = 0.0      # newest timestamp, as a Python float
        self._g_sum = 0.0       # running sum for mean-centering
        self._step = 0.0
        self._coef_T = None     # horizon the cached quadrature vector matches
        self._coef = None       # interleaved [c1_0, -c2_0, c1_1, -c2_1, ...]
        self._c1_sum = 0.0

    @property
    def capacity(self) -> int:
        return self._cap

    def __len__(self) -> int:
        return self._size

    @property
    def oldest_time(self) -> float:
        if self._size == 0:
            raise IndexError("window is empty")
        return self._ts[self._end - self._size]

    @property
    def newest_time(self) -> float:
        if self._size == 0:
            raise IndexError("window is empty")
        return self._newest

    def append(self, t: float, g: float, dw: float = 0.0) -> None:
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
        gdw = self._gdw
        cap = self._cap
        if size == cap:
            self._g_sum -= gdw[2 * (end - cap)]
            if end == 2 * cap:
                # Compaction: keep the newest cap - 1 samples at the front.
                gdw[: 2 * cap - 2] = gdw[2 * cap + 2:]
                self._ts[: cap - 1] = self._ts[cap + 1:]
                end = cap - 1
        else:
            self._size = size + 1
        self._ts[end] = t
        j = 2 * end
        gdw[j] = g
        gdw[j + 1] = dw
        self._g_sum += g
        self._newest = t
        self._end = end + 1

    def set_last_delta_w(self, dw: float) -> None:
        """Backfill the feedback value of the newest sample."""
        if self._size == 0:
            raise IndexError("window is empty")
        self._gdw[2 * self._end - 1] = dw

    def ordered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of (timestamps, signal, feedback), oldest to newest."""
        end = self._end
        lo = end - self._size
        pairs = self._gdw[2 * lo: 2 * end]
        return np.array(self._ts[lo:end]), pairs[0::2].copy(), pairs[1::2].copy()


def _kernel_weights(sigma: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Signal and feedback kernels evaluated on window-relative times."""
    rev = T - sigma
    w1 = rev * rev - 4.0 * rev * sigma + sigma * sigma
    w2 = 0.5 * rev * rev * sigma * sigma
    return w1, w2


def _cache_coefficients(window: SampleWindow, T: float) -> None:
    """Cache the interleaved kernel-times-trapezoid vector for the newest
    samples of ``window`` that span ``T``: signal weights at even, negated
    feedback weights at odd positions, matching the sample layout.  A
    horizon starting ``frac > 0`` steps after the oldest of them has its
    first node at ``(1 - frac) * x_0 + frac * x_1``, folded into their
    coefficients."""
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
    coef[0::2] = c1
    coef[1::2] = -c2
    window._coef = coef
    window._c1_sum = float(c1.sum())
    window._coef_T = T


def estimate_F(window: SampleWindow, T: float, now: float) -> float:
    """Sliding-window estimate of the lumped residual acceleration.

    Composite trapezoidal quadrature of the kernel integral over
    ``[now - T, now]``, as one dot product of the newest samples against a
    cached vector (:func:`_cache_coefficients`); the newest sample must sit
    at ``now``.  The signal is recentered by its window mean (folded in via
    the signal-kernel sum): the kernel annihilates constants exactly, so
    this leaves the estimate unchanged analytically while removing the
    O(dt^2) quadrature bias a large constant offset would otherwise
    contribute (the integral-substitution variant accumulates such offsets).

    Raises :class:`WindowNotWarm` until the window stores the samples the
    horizon needs on its grid (:func:`_horizon_grid`) or while the newest
    is older than ``now``, and ``ValueError`` if it is newer.
    """
    if T <= 0.0:
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
    end = window._end
    lo = 2 * end - window._coef.size
    if lo < 2 * (end - size):
        raise WindowNotWarm(
            f"window holds {size} of the {window._coef.size // 2} samples "
            f"the horizon needs"
        )
    acc = window._coef.dot(window._gdw[lo: 2 * end])
    return float(acc) - (window._g_sum / size) * window._c1_sum


@dataclass
class HeolAxisState:
    """Per-axis controller memory (single-owner, not thread-safe)."""

    window: SampleWindow
    integral_acc: float = 0.0
    prev_error: float | None = None
    last_F_hat: float = 0.0

    @classmethod
    def for_config(cls, cfg: HeolConfig) -> "HeolAxisState":
        return cls(window=SampleWindow(cfg.window_capacity()))


def nominal_control(ref: ReferencePoint) -> tuple[float, float]:
    """Feedforward accelerations: the reference accelerations themselves."""
    return ref.x_d[2], ref.y_d[2]


def ipd_delta(e: float, e_dot: float, F_hat: float, gains: IpdGains) -> float:
    """Feedback acceleration increment from error, error rate and estimate."""
    return -(gains.Kp * e + gains.Kd * e_dot + F_hat)


def riachy_signal(state: HeolAxisState, e: float, Kd: float, dt: float) -> float:
    """Integral substitution Y = e + Kd * int(e), removing the rate term.

    Updates the running trapezoidal integral held in ``state``.  Since
    Y'' = e'' + Kd*e', running the window estimator on Y yields the lumped
    residual augmented by Kd*e', which the rate-free feedback law cancels.
    """
    if dt <= 0.0:
        raise ValueError("integration step must be positive")
    if state.prev_error is not None:
        state.integral_acc += 0.5 * dt * (state.prev_error + e)
    state.prev_error = e
    return e + Kd * state.integral_acc


def ipd_delta_riachy(e: float, Fcal_hat: float, Kp: float) -> float:
    """Rate-free feedback increment using the augmented estimate."""
    return -(Fcal_hat + Kp * e)


def _axis_step(
    t: float,
    e: float,
    e_dot: float,
    w_star: float,
    cfg: HeolConfig,
    axis: HeolAxisState,
) -> float:
    gains = cfg.gains
    if cfg.variant == RIACHY:
        g = riachy_signal(axis, e, gains.Kd, cfg.dt)
    else:
        g = e
    axis.window.append(t, g, 0.0)
    try:
        f_hat = estimate_F(axis.window, cfg.T, t)
    except WindowNotWarm:
        f_hat = 0.0
    if cfg.variant == RIACHY:
        dw = ipd_delta_riachy(e, f_hat, gains.Kp)
    else:
        dw = ipd_delta(e, e_dot, f_hat, gains)
    axis.window.set_last_delta_w(dw)
    # Sign flip: the window estimates the residual of e'' = F + dw with
    # e = ref - plant, so an additive plant disturbance d appears as F = -d.
    # The reported value is the plant-side estimate that converges to d.
    axis.last_F_hat = -f_hat
    return w_star - dw


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
        axis_x / axis_y: per-axis memory, mutated in place.  Each axis also
            records the plant-disturbance estimate in ``last_F_hat``.

    Returns the accelerations to command to the integrator chains,
    ``w = w* - dw``.  While either window is cold its estimate contribution
    is zero, leaving plain feedforward-plus-PD behavior.
    """
    x, y, vx, vy = meas
    wx_star, wy_star = nominal_control(ref)
    wx = _axis_step(ref.t, ref.x_d[0] - x, ref.x_d[1] - vx, wx_star, cfg, axis_x)
    wy = _axis_step(ref.t, ref.y_d[0] - y, ref.y_d[1] - vy, wy_star, cfg, axis_y)
    return BrunovskyInputs(wx, wy)
