"""The two benchmark workloads and the call counts their configs imply.

``circle_cli`` is the paper's mismatched-hull circle run, driven through the
command line exactly as a user runs it; it does not depend on the seed.
``sweep`` is a robustness grid over both built-in scenarios whose parameters
are drawn from the seed; its members go through ``build_scenario`` and
``run_scenario`` and write no files.
"""

from __future__ import annotations

import random

WORKLOADS = ("circle_cli", "sweep")

CIRCLE_SCENARIO = "otter_circle"
# Shortened circle used only by the self-test's smoke run.
SMOKE_CIRCLE_DURATION = 2.0

SWEEP_MEMBERS = 12
SWEEP_DURATION = 15.0
SMOKE_SWEEP_DURATION = 1.0
SWEEP_DECIMATION = 10
SWEEP_HORIZONS = (0.25, 0.5, 1.0, 2.0)
SWEEP_VARIANTS = ("with_derivative", "riachy")


# Writer calls of one ``heolsim run``: one log, one metrics file, three plots.
CLI_WRITER_COUNTS = {
    "scenario_cli.write_csv": 1,
    "scenario_cli.write_metrics": 1,
    "scenario_cli.write_plots": 1,
    "svgplot.render_plot": 3,
}


def sweep_grid(seed: int, duration: float = SWEEP_DURATION) -> list[dict]:
    """Members of the sweep drawn from ``seed``: alternately the line and the
    circle scenario, each with its ``--set`` overrides as strings.

    Model keys exist only for the surface-vessel (circle) scenario; the
    hovercraft line varies wind and estimator settings only.
    """
    rng = random.Random(seed)
    grid = []
    for k in range(SWEEP_MEMBERS):
        scenario = "hovercraft_line" if k % 2 == 0 else "otter_circle"
        overrides = {
            "duration": repr(duration),
            "control_decimation": str(SWEEP_DECIMATION),
            "wind.fx": f"{rng.uniform(-30.0, 30.0):.3f}",
            "wind.fy": f"{rng.uniform(-60.0, 0.0):.3f}",
            "heol.T": repr(rng.choice(SWEEP_HORIZONS)),
            "heol.variant": rng.choice(SWEEP_VARIANTS),
        }
        if scenario == "otter_circle":
            a = round(rng.uniform(0.5, 1.5), 4)
            overrides["model.a"] = repr(a)
            overrides["model.b"] = repr(-1.0 / a)
            overrides["model.beta_v"] = f"{rng.uniform(10.0, 20.0):.3f}"
        grid.append({"scenario": scenario, "overrides": overrides})
    return grid


def implied_counts(resolved: dict) -> dict[str, int]:
    """Calls each traced layer must see for one run of ``resolved``.

    The engine visits ``rows`` time points (both ends included) and steps
    the plant between them; the controller ticks on every
    ``control_decimation``-th row and estimates once per axis.
    ``unwrap_heading`` is skipped on singular ticks, so its count is checked
    against the fallbacks actually seen.
    """
    rows = round(resolved["duration"] / resolved["dt_plant"]) + 1
    ticks = (rows - 1) // resolved["control_decimation"] + 1
    return {
        "rows": rows,
        "reference_trajectory.sample": rows,
        "heading_autopilot.autopilot_step": rows,
        "sim_engine.rk4_step": rows - 1,
        "heol_control.heol_step": ticks,
        "heol_control.estimate_F": 2 * ticks,
        "flat_guidance.physical_from_brunovsky": ticks,
        "sim_engine.run_scenario": 1,
        "scenario_cli.build_scenario": 1,
    }
