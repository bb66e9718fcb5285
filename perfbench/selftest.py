"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps them out of the repository's test collection: they
start child interpreters and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import speedometer  # noqa: E402
from tracer import CALLS, TARGETS, Tracer  # noqa: E402
from workloads import SWEEP_DECIMATION, SWEEP_HORIZONS, SWEEP_MEMBERS, sweep_grid  # noqa: E402


def test_sweep_grid_depends_only_on_the_seed():
    grid = sweep_grid(7)
    assert grid == sweep_grid(7)
    assert grid != sweep_grid(8)
    assert len(grid) == SWEEP_MEMBERS
    assert sum(m["scenario"] == "otter_circle" for m in grid) == SWEEP_MEMBERS // 2
    for member in grid:
        over = member["overrides"]
        assert over["control_decimation"] == str(SWEEP_DECIMATION)
        assert float(over["heol.T"]) in SWEEP_HORIZONS
        if member["scenario"] == "otter_circle":
            assert float(over["model.b"]) == -1.0 / float(over["model.a"])


def _short_run():
    from heolsim import scenario_cli

    raw = scenario_cli.parse_config_text(scenario_cli.BUILTIN_SCENARIOS["otter_circle"])
    raw["duration"] = "0.2"
    cfg, _ = scenario_cli.build_scenario(raw)
    scenario_cli.run_scenario(cfg)


def test_tracer_restores_every_wrapped_function():
    import importlib

    def current():
        return {
            (module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _ in TARGETS
        }

    originals = current()
    with Tracer() as tracer:
        wrapped = current()
        assert all(wrapped[key] is not fn for key, fn in originals.items())
        _short_run()
    assert all(a is b for a, b in zip(current().values(), originals.values()))
    counts = {layer: stat[CALLS] for layer, stat in tracer.stats.items()}
    assert counts["sim_engine.rk4_step"] == 200
    _short_run()
    assert {layer: stat[CALLS] for layer, stat in tracer.stats.items()} == counts


def test_reference_check_applies_the_stated_tolerance():
    ref = {"rms_error_x": 0.5, "convergence_time": 10.0}
    member = {"metrics": dict(ref), "resolved": {"dt_plant": 0.001}}
    assert run.check_member(member, ref) is None
    member["metrics"]["rms_error_x"] = 0.5 * (1 + 0.5 * run.REL_TOL)
    assert run.check_member(member, ref) is None
    member["metrics"]["rms_error_x"] = 0.5 * (1 + 4 * run.REL_TOL)
    assert "rms_error_x" in run.check_member(member, ref)
    member["metrics"] = dict(ref, convergence_time=10.003)
    assert "convergence_time" in run.check_member(member, ref)
    member["metrics"] = dict(ref, rms_error_x=float("nan"))
    assert "non-finite" in run.check_member(member, None)


def test_calibration_cancels_host_speed():
    ref = speedometer.KERNEL_REFERENCE_S
    # The same 1 s of work at full speed, and at half speed with 10 ms of
    # ticks: both calibrate to 1 s.
    fast = [(0.1 * i, 0.0, ref) for i in range(10)]
    slow = [(0.2 * i, 0.001, 2 * ref) for i in range(10)]
    assert speedometer.calibrate(fast, 0.0, 1.0) == pytest.approx(1.0)
    assert speedometer.calibrate(slow, 0.0, 2.01) == pytest.approx(1.0)
    assert speedometer.calibrate(slow, 0.0, 0.1, speed_over=(0.0, 2.0)) == pytest.approx(0.0495)
    with pytest.raises(ValueError):
        speedometer.calibrate(slow, 0.05, 0.1)


def test_speedometer_ticks_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    meter = speedometer.Speedometer().start()
    deadline = time.monotonic() + 4 * speedometer.INTERVAL_S
    while time.monotonic() < deadline:
        pass
    meter.stop()
    assert len(meter.ticks) >= 3
    assert all(took >= warm > 0 for _, took, warm in meter.ticks)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _traced_rep(estimate_calls):
    """A traced circle_cli repetition of 11 rows at full control rate."""
    resolved = {"duration": 0.01, "dt_plant": 0.001, "control_decimation": 1}
    counts = dict(run.CLI_WRITER_COUNTS, **run.implied_total({"members": [{"resolved": resolved}]}))
    counts["heol_control.estimate_F"] = estimate_calls
    counts["flat_guidance.unwrap_heading"] = 11
    trace = {layer: [counts[layer], 1e-3, 0.0, 0] for _, _, layer in TARGETS}
    return {"mode": "traced", "members": [{"resolved": resolved}], "trace": trace,
            "outputs": {"csv_bytes": 1000}, "spawned": 0.0, "end": 1.0,
            "ticks": [(0.5, 0.0, speedometer.KERNEL_REFERENCE_S)]}


def test_call_count_guard_reports_unmeasured_layers():
    values, guard, unmeasured = run.per_layer([_traced_rep(22)], "circle_cli")
    assert guard == {} and unmeasured == ["trace.overhead_frac"]
    assert values["heol_control.estimate_F.calls"] == 22

    values, guard, unmeasured = run.per_layer([_traced_rep(11)], "circle_cli")
    assert guard == {"heol_control.estimate_F": {"expected": 22, "seen": 11}}
    assert "heol_control.estimate_F.us_per_call" in unmeasured
    assert "heol_control.heol_step.self_us_per_call" in unmeasured
    assert "sim_engine.run_scenario.self_us_per_step" in unmeasured
    assert "sim_engine.rk4_step.us_per_call" not in unmeasured


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["circle_cli", "sweep"])
def test_smoke_run_finishes(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    assert not (ROOT / ".perfbench_work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
