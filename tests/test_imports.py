"""The package's imports: all at module level, none of sampling by gram at run time, and
none of solver by diagnostics."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "frameapprox"


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
