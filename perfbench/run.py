"""heolsim benchmark: one command for every end-to-end or per-layer metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {circle_cli,sweep} --seed N \
        --seconds S --trace {0,1}

Every repetition runs in a fresh single-threaded interpreter, one after
another.  With ``--trace 0`` the run spends ``--seconds`` on set-up probes
and plain repetitions and reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced repetitions and reports the per-layer
metrics, including the tracer's own overhead.  Times are calibrated to a
reference host speed measured inside each child (``speedometer.py``), so
that a shared host's changes of speed cancel out.  Every repetition's outputs
are checked (see ``check_member`` and ``check_logs``).  The report goes to
stdout: a table, one JSON line recording the machine, the inputs and every
sample, and as the last line the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from speedometer import calibrate, mean_speed  # noqa: E402
from tracer import CALLS, CHILD_S, RAISED, TOTAL_S  # noqa: E402
from workloads import CLI_WRITER_COUNTS, SWEEP_MEMBERS, WORKLOADS, implied_counts  # noqa: E402

SETUP_PROBES = 8
MIN_PLAIN_REPS = 2
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 0

# Tolerances against the values recorded on the seed commit
# (reference.json): |value - ref| <= REL_TOL * |ref| + ABS_TOL, and the
# convergence time within CONVERGENCE_STEPS plant steps.
REL_TOL = 1e-6
ABS_TOL = 1e-9
CONVERGENCE_STEPS = 1.5

# Per-layer metrics: name -> (unit, layers whose call counts must match
# the config for the value to be reported).
ENGINE_LAYERS = (
    "sim_engine.run_scenario",
    "reference_trajectory.sample",
    "heol_control.heol_step",
    "heol_control.estimate_F",
    "flat_guidance.physical_from_brunovsky",
    "flat_guidance.unwrap_heading",
    "heading_autopilot.autopilot_step",
    "sim_engine.rk4_step",
)
PER_LAYER = {
    "heol_control.estimate_F.calls": ("count", ("heol_control.estimate_F",)),
    "heol_control.estimate_F.us_per_call": ("us", ("heol_control.estimate_F",)),
    "heol_control.estimate_F.warm_ratio": ("ratio", ("heol_control.estimate_F",)),
    "heol_control.heol_step.self_us_per_call":
        ("us", ("heol_control.heol_step", "heol_control.estimate_F")),
    "sim_engine.rk4_step.calls": ("count", ("sim_engine.rk4_step",)),
    "sim_engine.rk4_step.us_per_call": ("us", ("sim_engine.rk4_step",)),
    "sim_engine.run_scenario.self_us_per_step": ("us", ENGINE_LAYERS),
    "reference_trajectory.sample.us_per_call": ("us", ("reference_trajectory.sample",)),
    "heading_autopilot.autopilot_step.us_per_call":
        ("us", ("heading_autopilot.autopilot_step",)),
    "flat_guidance.physical_from_brunovsky.us_per_call":
        ("us", ("flat_guidance.physical_from_brunovsky",)),
    "flat_guidance.unwrap_heading.us_per_call": ("us", ("flat_guidance.unwrap_heading",)),
    "flat_guidance.singular_fallbacks":
        ("count", ("flat_guidance.physical_from_brunovsky",)),
    "scenario_cli.write_csv.s": ("s", ("scenario_cli.write_csv",)),
    "scenario_cli.write_csv.mb_per_s": ("MB/s", ("scenario_cli.write_csv",)),
    "scenario_cli.write_metrics.s": ("s", ("scenario_cli.write_metrics",)),
    "scenario_cli.write_plots.s": ("s", ("scenario_cli.write_plots",)),
    "svgplot.render_plot.calls": ("count", ("svgplot.render_plot",)),
    "scenario_cli.build_scenario.us": ("us", ("scenario_cli.build_scenario",)),
    "trace.overhead_frac": ("ratio", ()),
}
# Gated end-to-end metrics.  output_mb and failed_frac are reported in the
# table and record only: output_mb is 0 on sweep, and failed_frac is the
# result's failed / attempted.
END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict, workdir: Path) -> dict:
    """Run one child to completion and return its findings plus its spawn
    time on the shared monotonic clock."""
    result_path = workdir / "child.json"
    result_path.unlink(missing_ok=True)
    job = dict(job, workdir=str(workdir), result=str(result_path))
    argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)]
    spawned = monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(
            f"{job['mode']} child exited with code {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    result = json.loads(result_path.read_text())
    result["spawned"] = spawned
    return result


def collect(args, workdir: Path) -> tuple[dict, list[dict], list[dict]]:
    """Prepare, then spend ``args.seconds`` on probes and repetitions."""
    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke}
    prepared = spawn(dict(base, mode="prepare"), workdir)
    start = monotonic()
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(dict(base, mode="setup"), workdir)
            if probe.get("first_run_start") is None:
                raise BenchError(f"set-up probe never reached run_scenario: {probe}")
            probes.append(probe)
    reps: list[dict] = []
    last = 0.0
    while True:
        plain = sum(r["mode"] == "plain" for r in reps)
        traced = len(reps) - plain
        enough = traced >= 1 and plain >= 1 if args.trace else plain >= MIN_PLAIN_REPS
        if enough and monotonic() - start + last > args.seconds:
            break
        mode = "traced" if args.trace and traced < plain else "plain"
        t0 = monotonic()
        reps.append(spawn(dict(base, mode=mode), workdir))
        last = monotonic() - t0
    return prepared, probes, reps


def load_reference(workload: str, seed: int, smoke: bool) -> list[dict] | None:
    """Metrics recorded on the seed commit, if they apply to this input."""
    if smoke:
        return None
    recorded = json.loads((BENCH_DIR / "reference.json").read_text())[workload]
    if recorded["seed"] is not None and recorded["seed"] != seed:
        return None
    return recorded["members"]


def check_member(member: dict, reference: dict | None) -> str | None:
    """Why a member failed, or None.  A member fails on an error (nonzero
    exit, config error, divergence), a non-finite metric, or a departure
    from the reference beyond the stated tolerance."""
    if "error" in member:
        return member["error"]
    metrics = member["metrics"]
    bad = [k for k, v in metrics.items() if v is not None and not math.isfinite(v)]
    if bad:
        return "non-finite metric(s): " + ", ".join(bad)
    if reference is None:
        return None
    step = member["resolved"]["dt_plant"]
    for key, ref in reference.items():
        value = metrics[key]
        if ref is None or value is None:
            ok = ref is value
        elif key == "convergence_time":
            ok = abs(value - ref) <= CONVERGENCE_STEPS * step
        else:
            ok = abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL
        if not ok:
            return f"{key}={value!r} differs from the reference {ref!r}"
    return None


def check_logs(reps: list[dict]) -> dict[int, str]:
    """Every circle repetition writes the five outputs, a log with one row
    per step, and the same log bytes as the first repetition.  Returns the
    problem found in each failing repetition."""
    problems = {}
    first_sha = None
    for i, rep in enumerate(reps):
        out = rep.get("outputs")
        if not out:
            continue
        rows = implied_counts(rep["members"][0]["resolved"])["rows"]
        first_sha = first_sha or out["csv_sha256"]
        if len(out["files"]) != 5:
            problems[i] = f"wrote {out['files']}"
        elif out["csv_rows"] != rows:
            problems[i] = f"log.csv has {out['csv_rows']} rows, expected {rows}"
        elif out["csv_sha256"] != first_sha:
            problems[i] = "log.csv differs from the first repetition's (sha256)"
    return problems


def implied_total(rep: dict) -> Counter:
    """Implied counts summed over the members that ran to completion."""
    return sum(
        (Counter(implied_counts(m["resolved"])) for m in rep["members"] if "resolved" in m),
        Counter(),
    )


def expected_calls(rep: dict, workload: str) -> Counter:
    expected = implied_total(rep)
    for layer, n in CLI_WRITER_COUNTS.items():
        expected[layer] = n if workload == "circle_cli" else 0
    fallbacks = rep["trace"]["flat_guidance.physical_from_brunovsky"][RAISED]
    expected["flat_guidance.unwrap_heading"] = (
        expected["flat_guidance.physical_from_brunovsky"] - fallbacks
    )
    return expected


def layer_values(rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (before the guard).  Span
    times are scaled to the reference host speed by the repetition's mean
    speed."""
    speed = mean_speed(rep["ticks"], rep["spawned"], rep["end"])
    stats = {
        layer: [calls, total * speed, child * speed, raised]
        for layer, (calls, total, child, raised) in rep["trace"].items()
    }

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(layer):
        return 1e6 * ratio(stats[layer][TOTAL_S], stats[layer][CALLS])

    def self_s(layer):
        return stats[layer][TOTAL_S] - stats[layer][CHILD_S]

    est = stats["heol_control.estimate_F"]
    step = stats["heol_control.heol_step"]
    rows = implied_total(rep)["rows"]
    csv = stats["scenario_cli.write_csv"]
    csv_bytes = rep["outputs"].get("csv_bytes", 0)
    return {
        "heol_control.estimate_F.calls": est[CALLS],
        "heol_control.estimate_F.us_per_call": us_per_call("heol_control.estimate_F"),
        "heol_control.estimate_F.warm_ratio": ratio(est[CALLS] - est[RAISED], est[CALLS]),
        "heol_control.heol_step.self_us_per_call":
            1e6 * ratio(self_s("heol_control.heol_step"), step[CALLS]),
        "sim_engine.rk4_step.calls": stats["sim_engine.rk4_step"][CALLS],
        "sim_engine.rk4_step.us_per_call": us_per_call("sim_engine.rk4_step"),
        "sim_engine.run_scenario.self_us_per_step":
            1e6 * ratio(self_s("sim_engine.run_scenario"), rows),
        "reference_trajectory.sample.us_per_call": us_per_call("reference_trajectory.sample"),
        "heading_autopilot.autopilot_step.us_per_call":
            us_per_call("heading_autopilot.autopilot_step"),
        "flat_guidance.physical_from_brunovsky.us_per_call":
            us_per_call("flat_guidance.physical_from_brunovsky"),
        "flat_guidance.unwrap_heading.us_per_call": us_per_call("flat_guidance.unwrap_heading"),
        "flat_guidance.singular_fallbacks":
            stats["flat_guidance.physical_from_brunovsky"][RAISED],
        "scenario_cli.write_csv.s": csv[TOTAL_S],
        "scenario_cli.write_csv.mb_per_s": ratio(csv_bytes / 1e6, csv[TOTAL_S]),
        "scenario_cli.write_metrics.s": stats["scenario_cli.write_metrics"][TOTAL_S],
        "scenario_cli.write_plots.s": stats["scenario_cli.write_plots"][TOTAL_S],
        "svgplot.render_plot.calls": stats["svgplot.render_plot"][CALLS],
        "scenario_cli.build_scenario.us": us_per_call("scenario_cli.build_scenario"),
    }


def summarize(samples: list[float]) -> dict:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def calibrated_sim_s(rep: dict) -> float:
    """Time inside ``run_scenario`` at the reference host speed; a span too
    short to hold a tick takes the repetition's mean speed."""
    whole = (rep["spawned"], rep["end"])
    return sum(
        calibrate(rep["ticks"], t0, t1,
                  None if any(t0 <= t < t1 for t, _, _ in rep["ticks"]) else whole)
        for t0, t1 in rep["sim_spans"]
    )


def end_to_end(probes: list[dict], reps: list[dict]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric.  Times are calibrated to the
    reference host speed (``speedometer.calibrate``); the ``*_wall_s``
    samples and the mean ``speed`` of each repetition are kept beside them."""
    plain = [r for r in reps if r["mode"] == "plain" and "crash" not in r]
    samples = {
        "setup_s": [
            calibrate(r["ticks"], r["spawned"], r["first_run_start"], (r["spawned"], math.inf))
            for r in probes
        ],
        "run_s": [calibrate(r["ticks"], r["spawned"], r["end"]) for r in plain],
        "steps_per_s": [
            implied_total(r)["rows"] / calibrated_sim_s(r) for r in plain if r["sim_spans"]
        ],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "output_mb": [r["outputs"].get("bytes", 0) / 1e6 for r in plain],
        "setup_wall_s": [r["first_run_start"] - r["spawned"] for r in probes],
        "run_wall_s": [r["end"] - r["spawned"] for r in plain],
        "speed": [mean_speed(r["ticks"], r["spawned"], r["end"]) for r in plain],
    }
    return {k: v for k, v in samples.items() if v}


def per_layer(reps: list[dict], workload: str) -> tuple[dict, dict, list[str]]:
    """Median per-layer values over the traced repetitions, the guard
    results, and the metrics left unmeasured because a guard failed."""
    traced = [r for r in reps if r["mode"] == "traced" and "crash" not in r]
    plain = [r for r in reps if r["mode"] == "plain" and "crash" not in r]
    guard: dict[str, dict] = {}
    for rep in traced:
        for layer, n in expected_calls(rep, workload).items():
            if layer == "rows":
                continue
            seen = rep["trace"].get(layer, [0])[CALLS]
            if seen != n:
                guard[layer] = {"expected": n, "seen": seen}
    per_rep = [layer_values(r) for r in traced]
    values = {k: statistics.median_low(v[k] for v in per_rep) for k in per_rep[0]} if per_rep else {}
    if traced and plain:
        values["trace.overhead_frac"] = (
            statistics.median(map(calibrated_sim_s, traced))
            / statistics.median(map(calibrated_sim_s, plain)) - 1.0
        )
    unmeasured = sorted(
        name for name, (_, layers) in PER_LAYER.items()
        if name not in values or any(layer in guard for layer in layers)
    )
    return values, guard, unmeasured


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine(prepared: dict, load_at_start: tuple) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": prepared["versions"]["python"],
        "numpy": prepared["versions"]["numpy"],
        "heolsim": prepared["versions"]["heolsim"],
        "platform": platform.platform(),
        "loadavg_start": load_at_start,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run(args, workdir: Path) -> dict:
    load_at_start = os.getloadavg()
    prepared, probes, reps = collect(args, workdir)
    reference = load_reference(args.workload, args.seed, args.smoke)
    failures: dict[str, str] = {}
    attempted = 0
    for i, rep in enumerate(reps):
        if "crash" in rep:
            planned = 1 if args.workload == "circle_cli" else SWEEP_MEMBERS
            attempted += planned
            for j in range(planned):
                failures[f"rep {i} member {j}"] = "crashed: " + rep["crash"]
            continue
        for j, member in enumerate(rep["members"]):
            attempted += 1
            why = check_member(member, reference[j] if reference else None)
            if why:
                failures[f"rep {i} member {j}"] = why
    if args.workload == "circle_cli":
        for i, why in check_logs(reps).items():
            failures.setdefault(f"rep {i} member 0", why)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine(prepared, load_at_start),
        "members": [
            {"scenario": m["scenario"], "overrides": m["overrides"]}
            for m in next((r["members"] for r in reps if "members" in r), [])
        ],
        "failures": failures,
        "attempted": attempted,
        "failed_frac": len(failures) / attempted,
    }
    if args.trace:
        values, guard, unmeasured = per_layer(reps, args.workload)
        record.update(per_layer=values, guard_failures=guard, unmeasured=unmeasured,
                      traced_reps=sum(r["mode"] == "traced" for r in reps))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items() if name not in unmeasured
        }
    else:
        samples = end_to_end(probes, reps)
        record.update(samples=samples, summary={k: summarize(v) for k, v in samples.items()})
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items() if name in samples
        }
    return {"record": record, "result": {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }}


def print_report(record: dict, result: dict) -> None:
    print(f"heolsim benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} attempted={record['attempted']} "
          f"failed_frac={record['failed_frac']:.4g}")
    if record["trace"]:
        for name, (unit, _) in PER_LAYER.items():
            shown = ("unmeasured" if name in record["unmeasured"]
                     else f"{record['per_layer'][name]:.6g}")
            print(f"  {name:<52} {shown:>14} {unit:<6} (median of {record['traced_reps']})")
        for layer, counts in record["guard_failures"].items():
            print(f"  call-count guard failed: {layer} {counts}")
    else:
        units = dict(END_TO_END, output_mb="MB",
                     setup_wall_s="s", run_wall_s="s", speed="x")
        for name, s in record["summary"].items():
            print(f"  {name:<12} {s['median']:>14.6g} {units[name]:<4} median of {s['n']}, "
                  f"min {s['min']:.6g}, max {s['max']:.6g}")
    for where, why in record["failures"].items():
        print(f"  FAILED {where}: {why}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shortened members for a quick self-test; no reference check")
    return parser.parse_args(argv)


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / name
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heolsim" / "__init__.py").is_file():
        print(f"error: no heolsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with work_dir(str(os.getpid())) as workdir:
            out = run(args, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(out["record"], out["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
