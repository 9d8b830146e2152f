"""Traced mode: spans around calls into each layer, recorded from outside the library.

Each traced function is rebound, for the traced passes only, in every
namespace it is reachable from: every `frameapprox.*` module, and for the
numpy and scipy kernels their own package modules (numpy.linalg.norm(X, 2)
reaches its SVD through numpy.linalg._linalg, so that SVD is a span too).
A span keeps its name, start, end, parent, pass and op.  Self time is the
span's duration minus the time its child spans cover, minus the time the
tracer spent computing counts while the span was open.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (layer, label, module, attribute path).  Two targets may share a label:
# both of the library's A' routes count as "richness".
TARGETS = [
    ("orthopoly", "legendre_table", "frameapprox.orthopoly", "legendre_table"),
    ("orthopoly", "hp_log_quadrature", "frameapprox.orthopoly", "hp_log_quadrature"),
    ("frames", "element_matrix", "frameapprox.frames", "element_matrix"),
    ("frames", "synthesize", "frameapprox.frames", "synthesize"),
    ("sampling", "sample", "frameapprox.sampling", "sample"),
    ("sampling", "richness", "frameapprox.sampling", "richness_estimate"),
    ("sampling", "richness", "frameapprox.sampling", "_richness_from_matrices"),
    ("gram", "build_system", "frameapprox.gram", "build_system"),
    ("gram", "GramSystem.from_matrix", "frameapprox.gram", "GramSystem.from_matrix"),
    ("gram", "build_gram_factor", "frameapprox.gram", "build_gram_factor"),
    ("solver", "approximate", "frameapprox.solver", "approximate"),
    ("solver", "truncated_svd_solve", "frameapprox.solver", "truncated_svd_solve"),
    ("solver", "error_report", "frameapprox.solver", "error_report"),
    ("diagnostics", "compute_kappa", "frameapprox.diagnostics", "compute_kappa"),
    ("diagnostics", "compute_lambda", "frameapprox.diagnostics", "compute_lambda"),
    ("diagnostics", "stable_sampling_rate", "frameapprox.diagnostics", "stable_sampling_rate"),
    ("diagnostics", "constants_sweep", "frameapprox.diagnostics", "constants_sweep"),
    ("cli", "main", "frameapprox.cli", "main"),
    ("cli", "write_csv", "frameapprox.cli", "_write_csv"),
    ("linalg", "svd", "numpy.linalg", "svd"),
    ("linalg", "qr", "numpy.linalg", "qr"),
    ("linalg", "solve_triangular", "scipy.linalg", "solve_triangular"),
]

# label -> the quantities reported for it beyond calls and self_ms
EXTRA = {
    "legendre_table": {"values_computed": ("count", "lower")},
    "hp_log_quadrature": {"distinct_frac": ("ratio", "higher")},
    "element_matrix": {"values_computed": ("count", "lower")},
    "richness": {"distinct_factor_frac": ("ratio", "higher")},
    "build_gram_factor": {"factor_mb_computed": ("MB", "lower")},
    "stable_sampling_rate": {"m_steps": ("count", "lower")},
    "svd": {"gflop_computed": ("GFLOP", "lower")},
    "qr": {"gflop_computed": ("GFLOP", "lower")},
}
# labels whose call count is not reported, only their self time
NO_CALLS = {"GramSystem.from_matrix"}


def metric_table():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    table, seen = [], set()
    for layer, label, _, _ in TARGETS:
        if label in seen:
            continue
        seen.add(label)
        stats = [] if label in NO_CALLS else [("calls", "count", "lower")]
        stats.append(("self_ms", "ms", "lower"))
        stats += [(k, u, b) for k, (u, b) in EXTRA.get(label, {}).items()]
        table += [(f"{layer}.{label}.{k}", u, b) for k, u, b in stats]
    table.append(("trace_overhead_frac", "ratio", "lower"))
    return table


def _svd_gflop(args, kwargs):
    # Golub & Van Loan operation counts for an m x n matrix, m >= n: the
    # library asks for singular values only, or for the thin SVD
    m, n = sorted(np.shape(args[0]), reverse=True)
    if kwargs.get("compute_uv", True):
        flops = 6 * m * n * n + 20 * n ** 3
    else:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    return flops / 1e9


def _qr_gflop(args, kwargs):
    # Householder R of an m x n matrix, m >= n: the library asks for R only
    m, n = sorted(np.shape(args[0]), reverse=True)
    return (2 * m * n * n - 2 * n ** 3 / 3) / 1e9


def _array_mb(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 1e6


def _rule_key(rule):
    return rule.nodes.size, float(rule.nodes[0]), float(rule.nodes[rule.nodes.size // 2])


class _Span:
    __slots__ = ("index", "label", "start", "end", "parent", "pass_", "op",
                 "child_ns", "excluded_ns")

    def __init__(self, index, label, parent, pass_, op):
        self.index, self.label, self.parent, self.pass_, self.op = index, label, parent, pass_, op
        self.child_ns = self.excluded_ns = 0


class Tracer:
    """Wraps the target functions and aggregates their spans per pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = defaultdict(int)
        self.passes = []
        self.op = -1
        self.installed = []
        self.absent = []
        self.wrappers = []
        for layer, label, module, path in TARGETS:
            found = self._resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, original = found
            self.wrappers.append((module, owner, attr, original, self._wrap(label, original)))

    @staticmethod
    def _resolve(module, path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    # -- pass and op bookkeeping --------------------------------------------

    def begin_pass(self):
        self.passes.append({"self_ns": defaultdict(int), "calls": defaultdict(int),
                            "extra": defaultdict(float), "keys": defaultdict(set)})

    def install(self):
        """Rebind every target in each namespace that holds it."""
        for module, owner, attr, original, wrapper in self.wrappers:
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            prefixes = ("frameapprox", module)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(prefixes):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, obj, key, value):
        self.installed.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self):
        while self.installed:
            obj, key, original = self.installed.pop()
            setattr(obj, key, original)

    def run_op(self, index, fn, *args):
        """Call fn(*args) inside a root span for op `index` of the current pass."""
        self.op = index
        return self._call("op", fn, args, {})

    # -- spans ----------------------------------------------------------------

    def _wrap(self, label, original):
        if isinstance(original, classmethod):
            func = original.__func__
            tracer = self

            def method(cls, *args, **kwargs):
                return tracer._call(label, func, (cls, *args), kwargs)

            return classmethod(method)

        def wrapper(*args, **kwargs):
            return self._call(label, original, args, kwargs)

        return wrapper

    def _call(self, label, fn, args, kwargs):
        counts = self.passes[-1]
        parent = self.stack[-1] if self.stack else None
        span = _Span(len(self.spans), label, None if parent is None else parent.index,
                     len(self.passes) - 1, self.op)
        outermost = self.depth[label] == 0
        if label == "build_system" and self.depth["stable_sampling_rate"]:
            counts["extra"]["stable_sampling_rate.m_steps"] += 1
        if label == "richness" and fn.__name__ == "_richness_from_matrices":
            t0 = perf_counter_ns()
            H = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["H"])
            counts["keys"]["richness.factors"].add(
                (H.shape, hashlib.blake2b(H.view(np.uint8), digest_size=16).digest()))
            counts["extra"]["richness.qr_calls"] += 1
            if parent is not None:
                parent.excluded_ns += perf_counter_ns() - t0
        self.spans.append(span)
        self.stack.append(span)
        self.depth[label] += 1
        span.start = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = perf_counter_ns()
            self.stack.pop()
            self.depth[label] -= 1
            duration = span.end - span.start
            counts["self_ns"][label] += duration - span.child_ns - span.excluded_ns
            if parent is not None:
                parent.child_ns += duration
        t0 = perf_counter_ns()
        if outermost:
            counts["calls"][label] += 1
        self._count(label, counts, args, kwargs, out)
        if parent is not None:
            parent.excluded_ns += perf_counter_ns() - t0
        return out

    @staticmethod
    def _count(label, counts, args, kwargs, out):
        extra = counts["extra"]
        if label in ("legendre_table", "element_matrix"):
            extra[f"{label}.values_computed"] += out.size
        elif label == "hp_log_quadrature":
            counts["keys"]["hp_log_quadrature.rules"].add(_rule_key(out))
        elif label == "build_gram_factor":
            extra["build_gram_factor.factor_mb_computed"] += _array_mb(out)
        elif label == "svd":
            extra["svd.gflop_computed"] += _svd_gflop(args, kwargs)
        elif label == "qr":
            extra["qr.gflop_computed"] += _qr_gflop(args, kwargs)

    # -- report ---------------------------------------------------------------

    def _pass_metrics(self, counts):
        calls, extra, keys = counts["calls"], counts["extra"], counts["keys"]
        values = {}
        for layer, label, _, _ in TARGETS:
            values[f"{layer}.{label}.calls"] = calls[label]
            values[f"{layer}.{label}.self_ms"] = counts["self_ns"][label] / 1e6
        for key, total in extra.items():
            layer = next(l for l, lab, _, _ in TARGETS if key.startswith(lab + "."))
            values[f"{layer}.{key}"] = total
        rules = keys["hp_log_quadrature.rules"]
        values["orthopoly.hp_log_quadrature.distinct_frac"] = (
            len(rules) / calls["hp_log_quadrature"] if calls["hp_log_quadrature"] else 0.0)
        qr_calls = extra["richness.qr_calls"]
        values["sampling.richness.distinct_factor_frac"] = (
            len(keys["richness.factors"]) / qr_calls if qr_calls else 0.0)
        return values

    def per_layer(self, overhead_frac):
        """Median over traced passes of each per-layer metric, in report order."""
        per_pass = [self._pass_metrics(p) for p in self.passes]
        report = {}
        for name, unit, _ in metric_table():
            if name == "trace_overhead_frac":
                value = overhead_frac
            else:
                value = statistics.median(p.get(name, 0) for p in per_pass)
            report[name] = {"value": value, "unit": unit}
        return report

    def span_records(self):
        return [[s.label, s.start, s.end, s.parent, s.pass_, s.op] for s in self.spans]
