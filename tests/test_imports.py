"""The import graph of the package: every module imports its siblings at
module level, and only their public names."""

import ast
from pathlib import Path

import pytest

import knotcalc

MODULES = sorted(Path(knotcalc.__file__).parent.glob("*.py"))


def _relative_imports(tree):
    """(relative import, whether it sits inside a function body) pairs."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((child, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_sibling_imports_are_module_level_and_public(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node, in_function in _relative_imports(tree):
        where = f"{path.name}:{node.lineno}"
        assert not in_function, f"{where}: relative import inside a function"
        private = [a.name for a in node.names if a.name.startswith("_")]
        assert not private, f"{where}: imports private names {private}"


def test_the_witness_check_imports_only_algebra_and_errors():
    # every certificate rests on knotcalc.witness, so it must not rest on the
    # solver, the homology sweep or the greedy it certifies
    path = Path(knotcalc.__file__).parent / "witness.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {node.module or alias.name
                for node, _ in _relative_imports(tree) for alias in node.names}
    assert imported == {"algebra", "errors"}
