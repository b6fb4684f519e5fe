"""Code layout that the package relies on: one eigen solver.

Every eigen solve goes through ``spin_algebra._tridiagonal_eigh``, so a
``numpy.linalg`` reference anywhere else in the package is a second solver
route.  The source is parsed, not searched, so docstrings and comments may
still name ``numpy.linalg.eigh``.
"""

import ast
from pathlib import Path

import spinmoments

PACKAGE = Path(spinmoments.__file__).resolve().parent


def _linalg_uses(tree: ast.AST):
    """(enclosing function, line) of every ``np.linalg`` / ``numpy.linalg`` attribute
    and every import of ``numpy.linalg``; the function is None at module level."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                yield function, node.lineno
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        if any(name.startswith("numpy.linalg") for name in names):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_numpy_linalg_only_inside_the_tridiagonal_kernel():
    uses = {
        path.name: _linalg_uses(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    kernel = uses.pop("spin_algebra.py")
    assert len(kernel) == 1 and kernel[0][0] == "_tridiagonal_eigh"
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_layout_check_sees_every_spelling():
    source = '''
import numpy.linalg
from numpy import linalg
from numpy.linalg import eigh

def solve(t):
    """numpy.linalg.eigh in a docstring is no call."""
    return np.linalg.eigh(t), numpy.linalg.eigvalsh(t)
'''
    assert [line for _, line in _linalg_uses(ast.parse(source))] == [2, 3, 4, 8, 8]
    assert {function for function, _ in _linalg_uses(ast.parse(source))} == {None, "solve"}
