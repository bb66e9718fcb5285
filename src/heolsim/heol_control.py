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
from dataclasses import dataclass, field

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
        ratio = self.T / self.dt
        n = round(ratio)
        if abs(ratio - n) > 1e-6:
            n = math.ceil(ratio)
        return n + 1


class SampleWindow:
    """Fixed-capacity window of timestamped (signal, feedback) samples.

    Timestamps must be strictly increasing.  The newest sample's feedback
    value may be filled in after insertion (it gets zero kernel weight at
    the window edge, so the estimate at insertion time is unaffected).

    Storage is a linear buffer of ``2 * capacity`` sample slots: the
    ``(signal, feedback)`` pairs are interleaved in one float array and the
    timestamps sit in a list with the same slot numbering.  Samples are
    appended at the end index; when it reaches ``2 * capacity`` on a full
    window, the newest ``capacity - 1`` samples are moved to the front
    before the write, one block copy per ``capacity`` appends.  Invariant:
    the stored samples always occupy the contiguous slots
    ``[end - size, end)``, oldest first, so the full window is a single
    view ``_gdw[2*(end-cap) : 2*end]`` with no wrap-around.
    """

    # Bytes held per unit of capacity: two timestamp slots (a list pointer
    # and a float object each), four interleaved sample floats and the two
    # cached quadrature coefficients.
    BYTES_PER_SAMPLE = 2 * (8 + 24) + 4 * 8 + 2 * 8

    __slots__ = (
        "_cap", "_ts", "_gdw", "_end", "_size", "_newest", "_g_sum",
        "_step", "_uniform", "_coef_T", "_coef", "_c1_sum",
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
        self._uniform = True
        self._coef_T = None     # horizon the cached quadrature vector matches
        self._coef = None       # interleaved [c1_0, -c2_0, c1_1, -c2_1, ...]
        self._c1_sum = 0.0

    @property
    def capacity(self) -> int:
        return self._cap

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size == self._cap

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

    def span(self) -> float:
        return self.newest_time - self.oldest_time if self._size >= 2 else 0.0

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
            elif self._uniform and abs(step - self._step) > _TIME_TOL * max(
                abs(self._step), 1.0
            ):
                self._uniform = False
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


def _fast_coefficients(window: SampleWindow, T: float) -> None:
    """Cache the interleaved kernel-times-trapezoid vector of a full uniform
    window: signal weights at even, negated feedback weights at odd
    positions, matching the sample layout."""
    n = window._cap
    dt = window._step
    sigma = np.arange(n) * dt
    w1, w2 = _kernel_weights(sigma, T)
    tw = np.full(n, dt)
    tw[0] = tw[-1] = 0.5 * dt
    scale = 60.0 / T**5
    c1 = scale * w1 * tw
    coef = np.empty(2 * n)
    coef[0::2] = c1
    coef[1::2] = -(scale * w2 * tw)
    window._coef = coef
    window._c1_sum = float(c1.sum())
    window._coef_T = T


def estimate_F(window: SampleWindow, T: float, now: float) -> float:
    """Sliding-window estimate of the lumped residual acceleration.

    Composite trapezoidal quadrature of the kernel integral over
    ``[now - T, now]``.  The signal is recentered by its window mean before
    the quadrature: the kernel annihilates constants exactly, so this
    leaves the estimate unchanged analytically while removing the O(dt^2)
    quadrature bias a large constant offset would otherwise contribute
    (the integral-substitution variant accumulates such offsets).

    Raises :class:`WindowNotWarm` until the stored samples cover the full
    horizon ending at ``now``.  Samples newer than ``now`` are ignored.
    """
    if T <= 0.0:
        raise ValueError("estimation horizon must be positive")
    tol = _TIME_TOL * max(T, 1.0)
    size = window._size
    if size < 2:
        raise WindowNotWarm("fewer than two samples stored")
    start = now - T
    end = window._end
    oldest = window._ts[end - size]
    if oldest > start + tol:
        raise WindowNotWarm(f"window does not cover [{start:.6g}, {now:.6g}]")

    # Fast path: full uniform grid aligned with [now - T, now], which is the
    # steady state of a fixed-rate controller.  One dot product of the
    # contiguous interleaved samples against the cached coefficient vector,
    # mean-centering folded in via the signal-kernel sum.
    cap = window._cap
    if size == cap and window._uniform:
        newest = window._newest
        if abs(newest - now) <= tol and abs(newest - oldest - T) <= tol:
            if window._coef_T != T:
                _fast_coefficients(window, T)
            acc = window._coef.dot(window._gdw[2 * (end - cap): 2 * end])
            return float(acc) - (window._g_sum / cap) * window._c1_sum

    ts, g, dw = window.ordered()
    causal = ts <= now + tol
    ts, g, dw = ts[causal], g[causal], dw[causal]
    if ts.size < 2 or ts[-1] < now - tol or ts[0] > start + tol:
        raise WindowNotWarm(
            f"window does not cover [{start:.6g}, {now:.6g}]"
        )
    i0 = int(np.searchsorted(ts, start - tol))
    if ts[i0] > start + tol:
        # Oldest retained sample sits strictly inside the horizon; linearly
        # interpolate a boundary node at exactly now - T.
        frac = (start - ts[i0 - 1]) / (ts[i0] - ts[i0 - 1])
        g0 = g[i0 - 1] + frac * (g[i0] - g[i0 - 1])
        dw0 = dw[i0 - 1] + frac * (dw[i0] - dw[i0 - 1])
        sigma = np.concatenate(([0.0], ts[i0:] - start))
        g = np.concatenate(([g0], g[i0:]))
        dw = np.concatenate(([dw0], dw[i0:]))
    else:
        sigma = ts[i0:] - start
        sigma[0] = max(sigma[0], 0.0)
        g = g[i0:]
        dw = dw[i0:]
    w1, w2 = _kernel_weights(sigma, T)
    integrand = w1 * (g - g.mean()) - w2 * dw
    steps = np.diff(sigma)
    return 60.0 / T**5 * float(
        np.dot(0.5 * (integrand[1:] + integrand[:-1]), steps)
    )


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
