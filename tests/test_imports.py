"""The package's imports: all at module level, none of sampling by gram at run time, and
none of solver by diagnostics; the names the package exports, and the benchmark's reads of
them."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import frameapprox

SRC = Path(__file__).resolve().parents[1] / "src" / "frameapprox"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the paper's nouns; every other name is reached through its module
PUBLIC_NAMES = {
    # a frame
    "FrameSpec", "legendre_onb", "onb_plus_k", "synthesize", "target_function",
    # a sampling scheme, its families of growing M, and its data
    "SamplingScheme", "inner_product_scheme", "legendre_point_scheme",
    "equispaced_point_scheme", "chebyshev_point_scheme", "inner_products", "legendre_points",
    "equispaced_points", "chebyshev_points", "sample",
    # the sampled system
    "GramSystem", "build_system", "build_gram_factor",
    # the regularized fit
    "RegularizedSolution", "approximate", "truncated_svd_solve", "error_report",
    # the constants kappa, lambda, A'_{M,N} and Theta(N, theta)
    "compute_kappa", "compute_lambda", "richness_estimate", "diagnose", "constants_sweep",
    "stable_sampling_rate",
    # the checks of the paper's bounds
    "verify_error_bound", "verify_coefficient_bound",
}


def _imports(node, module):
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        names.append(node.module or "")
    return any(name.split(".")[-1] == module for name in names)


def _is_type_checking(node):
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    # a function-level import hides a cycle between modules
    found = [
        (function.name, node.lineno)
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_gram_imports_sampling_only_for_type_checking():
    # sampling imports gram, so the reverse import may serve annotations only
    tree = ast.parse((SRC / "gram.py").read_text())
    found = [
        node.lineno
        for statement in tree.body if not _is_type_checking(statement)
        for node in ast.walk(statement)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports(node, "sampling")
    ]
    assert found == []


def test_diagnostics_never_imports_solver():
    # solver's bound check reads kappa and lambda from diagnostics
    tree = ast.parse((SRC / "diagnostics.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports(node, "solver")
    ]
    assert found == []


def test_package_exports_the_public_names():
    exported = {
        name for name, obj in vars(frameapprox).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == PUBLIC_NAMES


def test_benchmark_workloads_read_exported_names():
    # perfbench/workloads.py imports the package as fa
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "fa"
    }
    assert read
    assert sorted(name for name in read if not hasattr(frameapprox, name)) == []


def test_benchmark_trace_targets_resolve():
    # the tracer reports a target it cannot find as absent and reads its
    # metrics as 0, so a rename in the library would pass every run
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [ast.unparse(target) for target in node.targets] == ["TARGETS"]
    ]
    absent = []
    for _, _, module, path in targets:
        if not module.startswith("frameapprox"):
            continue
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            absent.append(f"{module}.{path}")
    assert ("frameapprox.gram", "GramSystem.from_matrix") in {t[2:] for t in targets}
    assert absent == []
