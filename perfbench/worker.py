"""One measuring process of an untraced run, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED INDEX PASSES SCRATCH < ops.json

Runs one untimed warm-up pass and PASSES timed passes over the ops read from
stdin, in orders drawn from (SEED, INDEX), and prints one JSON line.
"""

import json
import resource
import sys
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

name, seed, index, passes, scratch = sys.argv[1:]
workload = workloads.WORKLOADS[name](int(seed), Path(scratch))
workload.ops = [tuple(op) for op in json.load(sys.stdin)]
workload.rng = np.random.default_rng([int(seed), int(index)])
run.run_passes(workload, 1)  # warm-up: library caches and first-touch allocations
pass_times, op_times, outcomes = run.run_passes(workload, int(passes))
print(json.dumps({
    "pass_times": pass_times,
    "op_times": op_times,
    "outcomes": [[i, result, count] for (i, result), count in outcomes.items()],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
}))
