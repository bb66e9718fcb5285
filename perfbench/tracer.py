"""In-memory call tracer for the simulator's layer boundaries.

The engine and the CLI call their collaborators through module globals, so
replacing those globals with timing wrappers traces every layer without
editing the program.  Each call is one span; spans are folded as they close
into per-layer totals (calls, wall time, time covered by child spans and
calls that raised), which keeps memory flat over hundreds of thousands of
steps.  The originals are put back when the tracer exits.

A target the program no longer calls through its module global records no
calls; the call-count guard then reports that layer as unmeasured instead of
as free.
"""

from __future__ import annotations

import importlib
import time

# (module looked up at call time, attribute, layer name)
TARGETS = (
    ("heolsim.scenario_cli", "build_scenario", "scenario_cli.build_scenario"),
    ("heolsim.scenario_cli", "run_scenario", "sim_engine.run_scenario"),
    ("heolsim.sim_engine", "sample", "reference_trajectory.sample"),
    ("heolsim.sim_engine", "heol_step", "heol_control.heol_step"),
    ("heolsim.heol_control", "estimate_F", "heol_control.estimate_F"),
    ("heolsim.sim_engine", "physical_from_brunovsky",
     "flat_guidance.physical_from_brunovsky"),
    ("heolsim.sim_engine", "unwrap_heading", "flat_guidance.unwrap_heading"),
    ("heolsim.sim_engine", "autopilot_step", "heading_autopilot.autopilot_step"),
    ("heolsim.sim_engine", "rk4_step", "sim_engine.rk4_step"),
    ("heolsim.scenario_cli", "write_csv", "scenario_cli.write_csv"),
    ("heolsim.scenario_cli", "write_metrics", "scenario_cli.write_metrics"),
    ("heolsim.scenario_cli", "write_plots", "scenario_cli.write_plots"),
    ("heolsim.scenario_cli", "render_plot", "svgplot.render_plot"),
)

CALLS, TOTAL_S, CHILD_S, RAISED = range(4)


class Tracer:
    """Context manager that wraps ``targets`` while it is active.

    ``stats[layer]`` is ``[calls, total_s, child_s, raised]``; a layer's self
    time is ``total_s - child_s``.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats = {layer: [0, 0.0, 0.0, 0] for _, _, layer in targets}
        self._saved: list[tuple[object, str, object]] = []
        # Child-time accumulators of the open spans; the bottom one is the
        # untraced caller.
        self._open = [0.0]

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc_info) -> bool:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, layer: str, fn):
        stat = self.stats[layer]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat[RAISED] += 1
                raise
            finally:
                span = clock() - t0
                stat[CHILD_S] += open_spans.pop()
                open_spans[-1] += span
                stat[CALLS] += 1
                stat[TOTAL_S] += span

        return traced
