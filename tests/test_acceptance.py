"""End-to-end acceptance suite.

Each test prints one ``[PASS]/[FAIL]`` line; run with ``pytest -s`` to see
them all.  Tolerances and runtime budgets are fixed here, not tuned
elsewhere.
"""

import math
import time

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from heolsim.flat_guidance import flat_feedforward
from heolsim.heol_control import RIACHY, WITH_DERIVATIVE, HeolConfig
from heolsim.reference_trajectory import TrajectorySpec, sample
from heolsim.scenario_cli import main
from heolsim.sim_engine import rk4_step, run_scenario
from heolsim.vessel_dynamics import VesselDerivative, VesselParams
from scenarios import builtin, fill_window, simulate_double_integrator


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def open_loop_roundtrip(dt, duration=20.0, beta=10.0, gamma=1.0):
    """Feed the inverted reference into the exact plant; worst position error."""
    spec = TrajectorySpec("circle", radius=1.0, angular_rate=1.0)
    plant = VesselDerivative(VesselParams.hovercraft(beta, gamma))
    x_d, y_d = sample(spec, 0.0)
    ff0 = flat_feedforward(spec, 0.0, beta, gamma)
    state = (x_d[0], y_d[0], ff0.psi, ff0.u, ff0.v, ff0.r)
    n = round(duration / dt)
    worst = 0.0
    for i in range(n):
        ff = flat_feedforward(spec, i * dt, beta, gamma)
        state = rk4_step(plant, state, ff.Fu, ff.Gamma_r, dt)
        x_d, y_d = sample(spec, (i + 1) * dt)
        worst = max(worst, math.hypot(state[0] - x_d[0], state[1] - y_d[0]))
    return worst


def test_flatness_roundtrip():
    t0 = time.perf_counter()
    worst = open_loop_roundtrip(dt=1e-3)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    _report(
        "flatness round-trip",
        ok,
        f"max position error {worst:.2e} m (< 1e-3), runtime {elapsed:.2f} s (< 1)",
    )


def test_estimator_exactness():
    from heolsim.heol_control import SampleWindow, estimate_F

    T, dt, F0, A, nu = 1.0, 1e-3, -50.0, 20.0, 3.0
    now = 2.4

    def g_fn(t):
        return 0.5 * F0 * t * t + 0.7 * t - 2.0 - A / nu**2 * math.sin(nu * t)

    def dw_fn(t):
        return A * math.sin(nu * t)

    t0 = time.perf_counter()
    n = round(T / dt)
    ts = [now - T + i * dt for i in range(n + 1)]
    window = fill_window(SampleWindow(T, dt), ([g_fn(t) for t in ts],
                                               [dw_fn(t) for t in ts]))
    got = estimate_F(window)
    elapsed = time.perf_counter() - t0

    # Independent oracle: the same functional on a 100x finer grid.
    sigma = np.linspace(0.0, T, 100 * n + 1)
    ts = sigma + now - T
    k_g = (T - sigma) ** 2 - 4.0 * (T - sigma) * sigma + sigma**2
    k_dw = 0.5 * (T - sigma) ** 2 * sigma**2
    fine = 60.0 / T**5 * np.trapezoid(
        k_g * np.vectorize(g_fn)(ts) - k_dw * np.vectorize(dw_fn)(ts), sigma
    )

    rel = abs(got - F0) / abs(F0)
    ok = rel < 5e-3 and abs(fine - F0) / abs(F0) < 1e-6 and elapsed < 0.1
    _report(
        "estimator exactness",
        ok,
        f"relative error {rel:.2e} (< 5e-3), fine-grid oracle "
        f"{fine:.4f} -> {F0}, runtime {elapsed*1e3:.0f} ms (< 100)",
    )


def test_line_scenario_under_wind():
    t0 = time.perf_counter()
    cfg = builtin("hovercraft_line")
    log, metrics = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    half = log.t >= 0.5 * cfg.duration
    max_ex = float(np.abs(log.e_x[half]).max())
    max_ey = float(np.abs(log.e_y[half]).max())
    fy = metrics.F_hat_y_mean
    fx = metrics.F_hat_x_mean
    ok = (
        max_ex < 0.1 and max_ey < 0.1
        and abs(fy + 50.0) < 0.05 * 50.0
        and abs(fx) < 2.5
        and elapsed < 5.0
    )
    _report(
        "straight-line tracking with wind",
        ok,
        f"final-half max |e| = ({max_ex:.2e}, {max_ey:.2e}) m (< 0.1), "
        f"mean F_hat_y {fy:.2f} (within 5% of -50), mean F_hat_x {fx:.2f} "
        f"(|.| < 2.5), runtime {elapsed:.1f} s (< 5)",
    )


def _estimator_off_law(cfg, log):
    """The estimator-off error law of a ``hovercraft_line`` run ``cfg``
    that starts at rest on the line's origin, and what the law leaves.

    A horizon longer than the run keeps the window cold, so F_hat is 0 and
    the loop is feedforward plus PD.  The guidance compensates drag with
    the reference velocity, so under ideal heading tracking each axis's
    error obeys e'' + (Kd + beta) e' + Kp e = -d, overdamped when
    (Kd + beta)**2 > 4 Kp.  The heading loop is the law's only gap: the
    thrust points along psi, not psi_ref, which adds the force
    F_u * (trig(psi_ref) - trig(psi)) to each axis, and through the law's
    impulse response g that force accounts for the deviation.  g is
    positive with integral 1/Kp, so the force moves e by g * |force| at
    most.  Returns the law's ``(e_x, e_y)`` on the grid ``log.t`` and
    ``lag``, the largest deviation of either axis that the filtered force
    leaves unexplained.
    """
    t = log.t
    Kp, trace = cfg.heol.Kp, cfg.heol.Kd + cfg.controller_beta
    root = math.sqrt(0.25 * trace * trace - Kp)
    p1, p2 = -0.5 * trace + root, -0.5 * trace - root

    def law(e0, de0, d):
        rest = e0 + d / Kp
        a = (de0 - p2 * rest) / (p1 - p2)
        return -d / Kp + a * np.exp(p1 * t) + (rest - a) * np.exp(p2 * t)

    e_y = law(-cfg.initial_state.y, 0.0, cfg.wind.fy)
    e_x = law(0.0, cfg.trajectory.speed, cfg.wind.fx)
    g = (np.exp(p1 * t) - np.exp(p2 * t)) / (p1 - p2)
    n = 1 << (2 * len(t) - 1).bit_length()

    def through_g(force):
        spectrum = np.fft.rfft(force, n) * np.fft.rfft(g, n)
        return np.fft.irfft(spectrum, n)[:len(t)] * cfg.dt_plant

    lag = max(
        float(np.abs(log.e_x - e_x - through_g(
            log.F_u * (np.cos(log.psi_ref) - np.cos(log.psi)))).max()),
        float(np.abs(log.e_y - e_y - through_g(
            log.F_u * (np.sin(log.psi_ref) - np.sin(log.psi)))).max()),
    )
    return e_x, e_y, lag


def test_what_the_estimator_buys():
    t0 = time.perf_counter()
    cfg = builtin("hovercraft_line", **{"heol.T": 100.0})
    log, off = run_scenario(cfg)
    _, on = run_scenario(builtin("hovercraft_line"))
    elapsed = time.perf_counter() - t0
    _, e_y, lag = _estimator_off_law(cfg, log)   # poles -0.0839, -11.916
    dev = np.abs(log.e_y - e_y)
    late = log.t >= 30.0
    # The heading lag moves e by 0.51 m while the thrust turns in the
    # first seconds, 0.14 m after 30 s, which the tolerances round up.
    excursion = float(np.ptp(log.e_y))
    ok = (
        not log.F_hat_x.any() and not log.F_hat_y.any()
        and dev.max() < 0.55 and dev[late].max() < 0.15 and excursion > 59.0
        and lag < 1e-3
        and on.rms_error_y * 1e3 <= off.rms_error_y
        and elapsed < 10.0
    )
    _report(
        "what the estimator buys",
        ok,
        f"estimator off: F_hat 0, e_y within {dev.max():.3f} m (< 0.55) of the "
        f"PD law, {dev[late].max():.3f} m (< 0.15) after 30 s, on a "
        f"{excursion:.1f} m excursion; heading lag explains all but "
        f"{lag:.1e} m (< 1e-3); final-half rms_error_y {off.rms_error_y:.2f} m "
        f"off, {on.rms_error_y:.2e} m on (>= 1e3x smaller), "
        f"runtime {elapsed:.1f} s (< 10)",
    )


# A failing draw is reported as drawn: shrinking it reruns 10-s runs for
# minutes.
@settings(max_examples=15, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(
    fx=st.floats(-60.0, 60.0), fy=st.floats(-60.0, 60.0),
    Kp=st.floats(0.5, 4.0), Kd=st.floats(1.0, 4.0),
    beta=st.floats(5.0, 20.0), y0=st.floats(-20.0, 20.0),
)
def test_estimator_off_law_over_wind_gains_and_drag(fx, fy, Kp, Kd, beta, y0):
    # (Kd + beta)**2 >= 36 > 16 >= 4 Kp: every draw is overdamped, and
    # controller_beta takes the plant's drag rate.
    cfg = builtin("hovercraft_line", **{
        "wind.fx": fx, "wind.fy": fy, "heol.Kp": Kp, "heol.Kd": Kd,
        "model.beta": beta, "initial.y": y0, "duration": 10.0, "heol.T": 11.0})
    log, _ = run_scenario(cfg)
    _, _, lag = _estimator_off_law(cfg, log)
    # The law is continuous, but each command is held over a plant step dt
    # and the lag force is sampled at each step's start.  To first order in
    # dt that adds (dt/2) (Kp e' + Kd e'') and (dt/2) L' to an axis's force
    # (L the lag force), which the law's g, of integral 1/Kp and peak at
    # most 1/(p1 - p2) = 1/(2 root), moves e by at most hold.  Over 55 runs
    # in this box (a third of its corners, random draws, and the largest
    # residual a local search found, 7.1 mm, which the built-in run's 1 mm
    # bound would fail) the residual was 0.09 to 0.36 of hold.
    dt = cfg.dt_plant
    root = math.sqrt(0.25 * (Kd + beta) ** 2 - Kp)
    rate = max(np.abs(np.diff(log.e_x)).max(), np.abs(np.diff(log.e_y)).max()) / dt
    force = max(np.abs(log.F_u * (np.cos(log.psi_ref) - np.cos(log.psi))).max(),
                np.abs(log.F_u * (np.sin(log.psi_ref) - np.sin(log.psi))).max())
    hold = 0.5 * dt * (rate * (1.0 + Kd / root) + force / root)
    assert not log.F_hat_x.any() and not log.F_hat_y.any()
    assert lag <= hold


def test_circle_scenario_mismatched_model():
    t0 = time.perf_counter()
    cfg = builtin("otter_circle")
    log, metrics = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    half = log.t >= 0.5 * cfg.duration
    fy_std = float(np.std(log.F_hat_y[half]))
    course = np.unwrap(np.arctan2(np.gradient(log.y), np.gradient(log.x)))
    sweep = float(course.max() - course.min())
    fallbacks = int(np.count_nonzero(log.F_u[::cfg.control_decimation] == 0.0))
    ok = (
        metrics.rms_error_x < 0.5 and metrics.rms_error_y < 0.5
        and abs(metrics.F_hat_y_mean + 50.0) < 0.10 * 50.0
        and fy_std > 0.0
        and fallbacks == 0
        and sweep >= 2.0 * math.pi
        and elapsed < 10.0
    )
    _report(
        "circle tracking with mismatched plant",
        ok,
        f"final-half rms = ({metrics.rms_error_x:.3f}, {metrics.rms_error_y:.3f}) m "
        f"(< 0.5), mean F_hat_y {metrics.F_hat_y_mean:.2f} (within 10% of -50) "
        f"with std {fy_std:.2f} (> 0), course sweep {sweep:.2f} rad (>= 2*pi), "
        f"{fallbacks} singular events, runtime {elapsed:.1f} s (< 10)",
    )


def test_double_integrator_disturbance_rejection():
    t0 = time.perf_counter()
    cfg = HeolConfig(Kp=1.0, Kd=2.0, T=1.0)
    d = (-50.0, 20.0)
    _, e_x, e_y, F_hat_x, F_hat_y = simulate_double_integrator(cfg, d, 20.0)[-1]
    elapsed = time.perf_counter() - t0
    e_fin = max(abs(e_x), abs(e_y))
    rel_x = abs(F_hat_x - d[0]) / abs(d[0])
    rel_y = abs(F_hat_y - d[1]) / abs(d[1])
    ok = e_fin < 1e-3 and rel_x < 0.01 and rel_y < 0.01 and elapsed < 1.0
    _report(
        "double-integrator disturbance rejection",
        ok,
        f"final |e| = {e_fin:.2e} m (-> 0), estimate errors "
        f"({rel_x:.2e}, {rel_y:.2e}) (< 1%), runtime {elapsed:.2f} s (< 1)",
    )


def test_integrator_convergence_order():
    # dt = 1e-3 sits at the roundoff floor of the round trip; coarse steps
    # keep truncation dominant so the order is measurable.
    t0 = time.perf_counter()
    err_coarse = open_loop_roundtrip(dt=0.04)
    err_fine = open_loop_roundtrip(dt=0.02)
    elapsed = time.perf_counter() - t0
    ratio = err_coarse / err_fine
    ok = ratio >= 12.0 and elapsed < 5.0
    _report(
        "integrator convergence order",
        ok,
        f"halving dt shrinks the error {ratio:.1f}x (>= 12, nominal 16), "
        f"runtime {elapsed:.2f} s (< 5)",
    )


def test_feedback_variant_equivalence():
    t0 = time.perf_counter()
    rms = {}
    for variant in (WITH_DERIVATIVE, RIACHY):
        cfg = builtin("hovercraft_line", **{"heol.variant": variant})
        _, metrics = run_scenario(cfg)
        rms[variant] = math.hypot(metrics.rms_error_x, metrics.rms_error_y)
    elapsed = time.perf_counter() - t0
    a = rms[WITH_DERIVATIVE]
    b = rms[RIACHY]
    worst = max(a, b)
    # Both tails sit far below any meaningful scale (1e-3 m is 1% of the
    # tracking tolerance); a relative comparison of numerical residue is
    # meaningless down there.
    ok = (abs(a - b) <= 0.2 * worst or worst < 1e-3) and elapsed < 10.0
    _report(
        "feedback variant equivalence",
        ok,
        f"final-half rms {a:.2e} m vs {b:.2e} m "
        f"(within 20% or both < 1e-3), runtime {elapsed:.1f} s (< 10)",
    )


def test_csv_determinism(tmp_path):
    scen = tmp_path / "scenarios"
    assert main(["emit-scenarios", str(scen)]) == 0
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main([
            "run", str(scen / "hovercraft_line.cfg"), str(out),
            "--set", "duration=15.0",
        ])
        assert code == 0
        blobs.append((out / "log.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(
        "repeated runs are byte-identical",
        ok,
        f"two runs produced {'identical' if ok else 'DIFFERING'} CSV logs "
        f"({len(blobs[0])} bytes)",
    )
