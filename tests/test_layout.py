"""Code layout that the package relies on: one eigen solver, one closed-form batch,
one state constructor.

Every eigen solve goes through ``spin_algebra._tridiagonal_eigh``, so a
``numpy.linalg`` reference anywhere else in the package is a second solver
route.  Every batch of closed forms goes through ``analytic.log_sweep``, so a
``log_moments`` reference outside ``analytic`` is a second batching route.  Every
state is built by ``states._from_logs``, so a ``SymmetricCorrelatedState`` call
anywhere else is a second constructor.  The source is parsed, not searched, so
docstrings and comments may still name ``numpy.linalg.eigh``, ``log_moments`` or
``SymmetricCorrelatedState(``.
"""

import ast
from pathlib import Path

import spinmoments

PACKAGE = Path(spinmoments.__file__).resolve().parent


def _uses(tree: ast.AST, matches):
    """(enclosing function, line) of every node that matches; the function is
    None at module level."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def _imported(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{a.name}" for a in node.names]
    return [a.name for a in node.names] if isinstance(node, ast.Import) else []


def _linalg_uses(tree: ast.AST):
    """Every ``np.linalg`` / ``numpy.linalg`` attribute and every import of ``numpy.linalg``."""

    def matches(node):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        return any(name.startswith("numpy.linalg") for name in _imported(node))

    return _uses(tree, matches)


def _log_moments_uses(tree: ast.AST):
    """Every name, attribute or import of ``log_moments``."""

    def matches(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return (node.id if isinstance(node, ast.Name) else node.attr) == "log_moments"
        return any(name.rpartition(".")[2] == "log_moments" for name in _imported(node))

    return _uses(tree, matches)


def _state_constructions(tree: ast.AST):
    """Every call of ``SymmetricCorrelatedState``, by name or as an attribute."""

    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        return name == "SymmetricCorrelatedState"

    return _uses(tree, matches)


def _package_uses(find):
    return {path.name: find(ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))}


def test_numpy_linalg_only_inside_the_tridiagonal_kernel():
    uses = _package_uses(_linalg_uses)
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


def test_log_moments_only_inside_analytic():
    uses = _package_uses(_log_moments_uses)
    assert {function for function, _ in uses.pop("analytic.py")} == {"log_sweep", "log_lhs_rhs"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_batching_check_sees_every_spelling():
    source = '''
from .analytic import log_moments
from . import analytic

def score(states):
    """log_moments in a docstring is no call."""
    return analytic.log_moments(states), log_moments(states)
'''
    assert _log_moments_uses(ast.parse(source)) == [(None, 2), ("score", 7), ("score", 7)]


def test_states_are_constructed_only_inside_from_logs():
    uses = _package_uses(_state_constructions)
    assert {function for function, _ in uses.pop("states.py")} == {"_from_logs"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_constructor_check_sees_every_spelling():
    source = '''
from .states import SymmetricCorrelatedState
from . import states

def build(j, signs, log_r):
    """SymmetricCorrelatedState(j) in a docstring is no call."""
    one = states.SymmetricCorrelatedState(j, 2, signs, log_r, 0.0)
    return one, SymmetricCorrelatedState(j, 3, signs, log_r, 0.0)
'''
    assert _state_constructions(ast.parse(source)) == [("build", 7), ("build", 8)]
