"""One set-up sample, taken in a fresh interpreter started by run.py.

    python3 perfbench/coldstart.py WORKLOAD SEED SCRATCH

Prints the seconds to `import frameapprox` and finish the workload's setup
op, minus the setup op run again warm.  Only the library import and the op
are timed: the harness modules load between the two timed windows.  The CLI
workloads import `frameapprox.cli` inside their first op, as the command
line does.
"""

import sys
import time
from pathlib import Path

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]

t0 = time.perf_counter()
import frameapprox  # noqa: E402,F401

t1 = time.perf_counter()

import workloads  # noqa: E402

name, seed, scratch = sys.argv[1:]
workload = workloads.WORKLOADS[name](int(seed), Path(scratch))
t2 = time.perf_counter()
workload.run(workload.setup_op)
t3 = time.perf_counter()
workload.run(workload.setup_op)
t4 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2) - (t4 - t3)))
