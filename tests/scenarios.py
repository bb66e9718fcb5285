"""The runs the suite builds: the paper's two scenarios, from the built-in
texts, the seven configs its comparisons share, and the outer loop alone
on an exact double integrator; and estimator windows holding given
samples."""

import numpy as np

from heolsim.heol_control import SampleWindow, heol_step
from heolsim.reference_trajectory import TrajectorySpec, sample
from heolsim.scenario_cli import (
    BUILTIN_SCENARIOS,
    apply_override,
    build_scenario,
    parse_config_text,
)
from heolsim.sim_engine import ScenarioConfig


# The seven configs of the same-bits and same-physics comparisons, by id:
# both built-ins at full rate, at decimation 10 and with ``riachy``, and
# the circle with ``riachy``, decimation 3 and a fractional horizon.
COMPARISON = {
    "line": ("hovercraft_line", {}),
    "circle": ("otter_circle", {}),
    "line_decim10": ("hovercraft_line", {"control_decimation": "10"}),
    "circle_decim10": ("otter_circle", {"control_decimation": "10"}),
    "line_riachy": ("hovercraft_line", {"heol.variant": "riachy"}),
    "circle_riachy": ("otter_circle", {"heol.variant": "riachy"}),
    "circle_riachy_decim3_fractional_T": ("otter_circle", {
        "heol.T": "0.2505", "heol.variant": "riachy", "control_decimation": "3"}),
}


def builtin(name: str, **keys) -> ScenarioConfig:
    """The built-in scenario ``name`` with each config key of ``keys`` set
    as ``heolsim run --set key=value`` sets it, e.g.
    ``builtin("otter_circle", duration=10, **{"heol.T": 0.3})``."""
    raw = parse_config_text(BUILTIN_SCENARIOS[name])
    for key, value in keys.items():
        apply_override(raw, f"{key}={value}")
    return build_scenario(raw)[0]


def simulate_double_integrator(cfg, dist, duration, initial=(0.0, 0.0), dt=1e-3):
    """Exact zero-order-hold double integrator driven by the controller
    ``cfg`` towards a reference held at the origin, one tick per step
    ``dt``, starting at rest at ``initial``.

    ``dist`` is a constant ``(dx, dy)`` or a function of time giving it,
    held over each step at its value at mid-step.  Returns one row ``(t,
    e_x, e_y, F_hat_x, F_hat_y)`` per tick."""
    spec = TrajectorySpec("line", speed=0.0)
    window = SampleWindow(cfg.T, dt)
    px, py = initial
    vx = vy = 0.0
    n = round(duration / dt)
    hist = np.empty((n + 1, 5))
    for i in range(n + 1):
        t = i * dt
        x_d, y_d = sample(spec, t)
        e_x, e_y = x_d[0] - px, y_d[0] - py
        w_x, w_y, F_hat_x, F_hat_y = heol_step(
            x_d, y_d, e_x, e_y, vx, vy, cfg, window)
        hist[i] = (t, e_x, e_y, F_hat_x, F_hat_y)
        if i < n:
            d = dist(t + 0.5 * dt) if callable(dist) else dist
            ax = w_x + d[0]
            ay = w_y + d[1]
            px += vx * dt + 0.5 * ax * dt * dt
            py += vy * dt + 0.5 * ay * dt * dt
            vx += ax * dt
            vy += ay * dt
    return hist


def fill_window(window, *lanes):
    """Store given samples in ``window`` as its ticks would leave them:
    ``lanes`` holds one ``(g, dw)`` pair of equal-length sequences per lane
    from lane 0, oldest sample first (a lane not given is left as it is).
    The samples take the slots from 0 and the end index follows the newest,
    as after that many ``heol_step`` ticks with no compaction, so at most
    ``2 * capacity`` of them fit.  Returns ``window``."""
    for row, (g, dw) in zip(window._gdw, lanes):
        row[0:2 * len(g):2] = g
        row[1:2 * len(dw):2] = dw
    window._end = len(lanes[0][0])
    return window
