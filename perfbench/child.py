"""One benchmark repetition in a fresh interpreter.

Started by ``run.py`` as ``python3 child.py '<job json>'`` with ``src/`` on
``PYTHONPATH`` and one thread per numeric library, so that set-up time and
peak memory belong to this repetition alone.  The findings go to the JSON
file named by ``job["result"]``; stdout and stderr are the program's own.

Modes:
  prepare  import the package, write the built-in scenario files, report
           versions;
  setup    run the workload up to the first ``run_scenario`` call, then stop;
  plain    run the workload with only ``run_scenario`` timed;
  traced   run the workload with every layer of ``tracer.TARGETS`` wrapped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from speedometer import Speedometer

# Every timed child measures the host's speed from before the program's
# import on (see speedometer.py).
JOB = json.loads(sys.argv[1]) if __name__ == "__main__" else None
SPEEDOMETER = Speedometer()
if JOB and JOB["mode"] != "prepare":
    SPEEDOMETER.start()

from heolsim import __version__ as heolsim_version  # noqa: E402
from heolsim import scenario_cli  # noqa: E402
from heolsim.sim_engine import NonFiniteState  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CIRCLE_SCENARIO, SMOKE_CIRCLE_DURATION, SMOKE_SWEEP_DURATION, \
    SWEEP_DURATION, sweep_grid  # noqa: E402

METRIC_KEYS = ("rms_error_x", "rms_error_y", "convergence_time", "F_hat_x_mean", "F_hat_y_mean")
AFTER_SETUP_TICKS = 5
# Resolved keys the call-count guard needs.
RESOLVED_KEYS = ("duration", "dt_plant", "control_decimation")


def monotonic() -> float:
    """System-wide monotonic clock, comparable with the parent's stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised at the first ``run_scenario`` call of a set-up probe.

    A ``BaseException`` so that no error handler of the program swallows it.
    """


class Stage:
    """Hook on ``scenario_cli.run_scenario``: when the first simulation
    starts and the stretches spent simulating (system clock)."""

    def __init__(self, stop_at_first: bool):
        self.stop_at_first = stop_at_first
        self.first_start: float | None = None
        self.sim_spans: list[tuple[float, float]] = []
        self._original = None

    def __enter__(self) -> "Stage":
        self._original = original = scenario_cli.run_scenario

        def staged(cfg):
            if self.first_start is None:
                self.first_start = monotonic()
            if self.stop_at_first:
                raise SetupDone
            t0 = monotonic()
            try:
                return original(cfg)
            finally:
                self.sim_spans.append((t0, monotonic()))

        scenario_cli.run_scenario = staged
        return self

    def __exit__(self, *exc_info) -> bool:
        scenario_cli.run_scenario = self._original
        return False


def _log_digest(path: Path) -> tuple[str, int]:
    """sha256 of the CSV log and its number of data rows."""
    digest = hashlib.sha256()
    lines = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines - 1


def run_circle_cli(job: dict, workdir: Path) -> tuple[float, list[dict], dict]:
    out = workdir / "circle_out"
    argv = ["run", str(workdir / f"{CIRCLE_SCENARIO}.cfg"), str(out)]
    overrides = {}
    if job["smoke"]:
        overrides["duration"] = repr(SMOKE_CIRCLE_DURATION)
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    code = scenario_cli.main(argv)
    t_end = monotonic()
    member = {"scenario": CIRCLE_SCENARIO, "overrides": overrides}
    outputs: dict = {}
    try:
        if code != 0:
            member["error"] = f"heolsim run exited with code {code}"
            return t_end, [member], outputs
        payload = json.loads((out / "metrics.json").read_text())
        member["metrics"] = {k: payload[k] for k in METRIC_KEYS}
        member["resolved"] = {k: payload["resolved_config"][k] for k in RESOLVED_KEYS}
        outputs["files"] = sorted(p.name for p in out.iterdir())
        outputs["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        outputs["csv_bytes"] = (out / "log.csv").stat().st_size
        outputs["csv_sha256"], outputs["csv_rows"] = _log_digest(out / "log.csv")
        return t_end, [member], outputs
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_sweep(job: dict) -> tuple[float, list[dict], dict]:
    duration = SMOKE_SWEEP_DURATION if job["smoke"] else SWEEP_DURATION
    members = []
    for spec in sweep_grid(job["seed"], duration):
        raw = scenario_cli.parse_config_text(scenario_cli.BUILTIN_SCENARIOS[spec["scenario"]])
        for key, value in spec["overrides"].items():
            scenario_cli.apply_override(raw, f"{key}={value}")
        member = dict(spec)
        try:
            cfg, resolved = scenario_cli.build_scenario(raw)
            _, metrics = scenario_cli.run_scenario(cfg)
        except (scenario_cli.ConfigError, NonFiniteState) as exc:
            member["error"] = f"{type(exc).__name__}: {exc}"[:500]
        else:
            member["metrics"] = {k: getattr(metrics, k) for k in METRIC_KEYS}
            member["resolved"] = {k: resolved[k] for k in RESOLVED_KEYS}
        members.append(member)
    return monotonic(), members, {}


def run_workload(job: dict, workdir: Path) -> tuple[float, list[dict], dict]:
    if job["workload"] == "circle_cli":
        return run_circle_cli(job, workdir)
    return run_sweep(job)


def main(job: dict) -> dict:
    workdir = Path(job["workdir"])
    mode = job["mode"]
    result: dict = {"mode": mode}
    if mode == "prepare":
        if scenario_cli.main(["emit-scenarios", str(workdir)]) != 0:
            raise RuntimeError("emit-scenarios failed")
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "heolsim": heolsim_version,
        }
        return result

    tracer = Tracer() if mode == "traced" else None
    stage = Stage(stop_at_first=mode == "setup")
    try:
        with tracer or contextlib.nullcontext(), stage:
            t_end, members, outputs = run_workload(job, workdir)
    except SetupDone:
        result["first_run_start"] = stage.first_start
        # The speed right after set-up stands for the speed during it: set-up
        # is too short for the timer to sample it well.
        for _ in range(AFTER_SETUP_TICKS):
            SPEEDOMETER.tick()
        return result
    except Exception:
        # A defect in the program under test: the whole repetition failed.
        result["crash"] = traceback.format_exc(limit=3)[-2000:]
        return result
    result.update(
        first_run_start=stage.first_start,
        end=t_end,
        sim_spans=stage.sim_spans,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        members=members,
        outputs=outputs,
        trace=None if tracer is None else tracer.stats,
    )
    return result


if __name__ == "__main__":
    findings = main(JOB)
    SPEEDOMETER.stop()
    findings["ticks"] = SPEEDOMETER.ticks
    Path(JOB["result"]).write_text(json.dumps(findings))
