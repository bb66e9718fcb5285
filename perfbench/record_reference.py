"""Write ``reference.json``: the output metrics the benchmark checks against.

Run from the root of a checkout of the commit whose outputs define
correctness (the seed commit), never on a change under test:

    python3 perfbench/record_reference.py

It runs one plain repetition of ``circle_cli`` (which ignores the seed) and one
of ``sweep`` on the default seed, and stores each member's metrics.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, DEFAULT_SEED, spawn, work_dir


def main() -> int:
    recorded = {}
    with work_dir(f"reference-{os.getpid()}") as workdir:
        for workload, seed in (("circle_cli", None), ("sweep", DEFAULT_SEED)):
            job = {"workload": workload, "seed": DEFAULT_SEED, "smoke": False}
            spawn(dict(job, mode="prepare"), workdir)
            rep = spawn(dict(job, mode="plain"), workdir)
            if "crash" in rep or any("error" in m for m in rep["members"]):
                print(f"error: {workload} failed: {rep}", file=sys.stderr)
                return 1
            recorded[workload] = {"seed": seed, "members": [m["metrics"] for m in rep["members"]]}
    (BENCH_DIR / "reference.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
