#!/usr/bin/env python3
"""frameapprox benchmark.

    python3 perfbench/run.py --workload {fit,constants,ssr} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The seed makes the workload's op set; the
run repeats that op set for a fixed number of passes, about S seconds at the
commit that defined the benchmark, so every commit does the same work.  It
checks every op's output, writes a result file under perfbench/out/, and
prints one metric per line followed by a JSON summary as the last line.

--trace 0 reports the end-to-end metrics, measured with no tracing: set-up
in SETUP_PROBES fresh interpreters (coldstart.py), then the passes in
WORKERS fresh interpreters (worker.py), all run one after another.
--trace 1 alternates untraced passes with passes traced from outside the
library, in this process, and reports the per-layer metrics (see
tracing.py and NOTES.md).

The benchmark never sets a thread variable; the caller's environment is
measured as it is, and recorded in the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKERS = 3
SETUP_PROBES = 11
TAIL_BEYOND = 10


def run_passes(workload, count, tracer=None):
    """Run the op set `count` times; returns pass times, per-op times and outcome counts.

    Each pass runs the ops in a fresh order drawn from the workload's seeded
    generator, so an op's times cover many predecessors.  A pass time is the
    sum of its op times; op_times[i] lists op i's time in every pass.
    Outcomes map (op index, result) to how often it occurred; an op that
    raised has result ("raised", reason).
    """
    pass_times, op_times, outcomes = [], [[] for _ in workload.ops], Counter()
    call = tracer.run_op if tracer else lambda i, fn, op: fn(op)
    for _ in range(count):
        if tracer:
            tracer.begin_pass()
            tracer.install()
        try:
            total = 0.0
            for i in workload.rng.permutation(len(workload.ops)).tolist():
                op = workload.ops[i]
                error = None
                t0 = perf_counter()
                try:
                    ret = call(i, workload.run, op)
                except Exception as exc:  # a raising op is a failed op, not a crashed run
                    error = f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                total += dt
                op_times[i].append(dt)
                outcomes[i, ("raised", error) if error else workload.result(op, ret)] += 1
            pass_times.append(total)
        finally:
            if tracer:
                tracer.uninstall()
    return pass_times, op_times, outcomes


def check_outcomes(workload, outcomes):
    """Failed op count and one entry per distinct failure."""
    failed, failures = 0, []
    for (i, result), count in outcomes.items():
        op = workload.ops[i]
        if isinstance(result, tuple) and result and result[0] == "raised":
            reason = f"raised {result[1]}"
        else:
            try:
                reason = workload.check(op, result)
            except Exception as exc:  # a check that cannot run counts the op as failed
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failed += count
            failures.append({"op": repr(op), "count": count, "reason": reason})
    return failed, failures


def op_latency(op_times):
    """Total, median and tail of per-op latency over the distinct ops.

    Each op counts once, as its fastest time over the passes (see NOTES.md:
    the machine's speed changes for seconds at a time, and one worker
    process can run a few ops 2x slower for its whole life).  The total is
    the op set's time with every op at its fastest.  The tail is the highest
    percentile with TAIL_BEYOND ops beyond it, or a tenth of the ops when
    there are fewer than 10 x TAIL_BEYOND.
    Returns (total, median, tail, tail percentile, ops beyond the tail, op count).
    """
    per_op = sorted(min(times) for times in op_times)
    n = len(per_op)
    beyond = min(TAIL_BEYOND, n // 10)
    percentile = 100.0 * (n - 1 - beyond) / max(1, n - 1)
    return (sum(per_op), statistics.median(per_op), per_op[-1 - beyond], percentile,
            beyond, n)


def cold_starts(workload, probes):
    """Set-up time in `probes` fresh interpreters (coldstart.py), one after another."""
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), workload.name, str(workload.seed),
             str(workload.scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr[-2000:]}")
        samples.append(float(out.stdout.splitlines()[-1]))
    return samples


def measure(workload, passes, workers):
    """Run `passes` timed passes split over `workers` fresh interpreters, one after another.

    The state a process starts in can slow a few ops by 2x for the life of
    that process, and which ops it hits differs from process to process, so
    one run samples several processes.
    """
    pass_times, peaks = [], []
    op_times, outcomes = [[] for _ in workload.ops], Counter()
    for index in range(workers):
        share = passes // workers + (index < passes % workers)
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload.name, str(workload.seed),
             str(index), str(share), str(workload.scratch)],
            input=json.dumps(workload.ops), cwd=ROOT, capture_output=True, text=True,
            timeout=150)
        if out.returncode != 0:
            raise RuntimeError(f"worker {index} failed:\n{out.stderr[-2000:]}")
        report = json.loads(out.stdout.splitlines()[-1])
        pass_times += report["pass_times"]
        peaks.append(report["peak_rss_mb"])
        for times, more in zip(op_times, report["op_times"]):
            times += more
        for i, result, count in report["outcomes"]:
            outcomes[i, tuple(result)] += count
    return pass_times, op_times, outcomes, peaks


def untraced(workload, seconds):
    setup = cold_starts(workload, SETUP_PROBES)
    passes = max(WORKERS, round(seconds / workload.nominal_pass_s))
    pass_times, op_times, outcomes, peaks = measure(workload, passes, WORKERS)
    total_s, p50_s, tail_s, tail_pct, beyond, n = op_latency(op_times)
    metrics = {
        "wall_s": (total_s, "s",
                   f"{n} ops, each op's fastest of {passes} passes in {WORKERS} processes"),
        "op_p50_ms": (p50_s * 1e3, "ms",
                      f"p50 of {n} ops, each op's fastest of {passes} passes"),
        "op_tail_ms": (tail_s * 1e3, "ms",
                       f"p{tail_pct:.1f} of {n} ops, {beyond} beyond it, "
                       f"each op's fastest of {passes} passes"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {SETUP_PROBES} fresh processes, "
                    "import frameapprox + first op - warm op"),
        "peak_rss_mb": (statistics.median(peaks), "MB",
                        f"median over {WORKERS} processes of their peak resident set"),
    }
    extra = {"passes": passes, "pass_times_s": pass_times, "setup_samples_s": setup,
             "peak_rss_samples_mb": peaks,
             "op_ms": [[repr(op), min(times) * 1e3, statistics.median(times) * 1e3]
                       for op, times in zip(workload.ops, op_times)]}
    return metrics, outcomes, extra


def traced(workload, seconds):
    import tracing

    run_passes(workload, 1)  # warm-up, as in the untraced run
    tracer = tracing.Tracer()
    each = max(1, round(seconds / 2 / workload.nominal_pass_s))
    plain_times, traced_times, outcomes = [], [], Counter()
    for _ in range(each):  # alternate so drift in the machine hits both sides alike
        times, _, found = run_passes(workload, 1)
        plain_times += times
        outcomes.update(found)
        times, _, found = run_passes(workload, 1, tracer)
        traced_times += times
        outcomes.update(found)
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    layer = tracer.per_layer(overhead)
    metrics = {name: (m["value"], m["unit"], "per pass, median of traced passes")
               for name, m in layer.items()}
    metrics["trace_overhead_frac"] = (
        overhead, "ratio", f"{each} traced over {each} untraced passes, minus 1")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{workload.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "pass", "op"],
        "ops": [repr(op) for op in workload.ops],
        "spans": tracer.span_records(),
    }))
    extra = {"passes": 2 * each, "absent": tracer.absent,
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, outcomes, extra


def benchmark(workload, seconds, trace_on):
    """Measure one workload; returns (metric lines, summary dict, result record)."""
    if trace_on:
        metrics, outcomes, extra = traced(workload, seconds)
    else:
        metrics, outcomes, extra = untraced(workload, seconds)
    attempted = sum(outcomes.values())
    failed, failures = check_outcomes(workload, outcomes)
    lines = [f"{name} = {value!r} {unit}  ({detail})"
             for name, (value, unit, detail) in metrics.items()]
    lines.append(f"fail_frac = {failed / attempted!r}  ({failed} of {attempted} ops failed)")
    lines += [f"FAILED {f['count']}x {f['op']}: {f['reason']}" for f in failures]
    if trace_on and extra["absent"]:
        lines.append("absent (reported as 0): " + ", ".join(extra["absent"]))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = {"workload": workload.name, "seed": workload.seed, "seconds": seconds,
              "trace": int(trace_on), "ops_per_pass": len(workload.ops),
              "fail_frac": failed / attempted, "failures": failures,
              "metric_notes": {name: detail for name, (_, _, detail) in metrics.items()},
              **summary, **extra}
    return lines, summary, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "constants", "ssr"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "frameapprox" / "__init__.py").is_file():
        print(f"error: no src/frameapprox under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import environment
    import workloads

    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        lines, summary, record = benchmark(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["environment"] = environment.record(ROOT)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
