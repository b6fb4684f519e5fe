"""Code layout that the package relies on: one eigen solver, one closed-form scorer,
one state constructor.

Every eigen solve goes through ``spin_algebra._tridiagonal_eigh``, so a
``numpy.linalg`` reference anywhere else in the package is a second solver
route.  The closed forms' power sums are summed only in ``analytic.log_sweep``,
and a state's log n only in ``states._from_logs``, so a ``_logsumexp`` reference
anywhere else is a second scorer.  Every state is built by
``states._from_logs``, so a ``SymmetricCorrelatedState`` call anywhere else is a
second constructor.  The source is parsed, not searched, so docstrings and
comments may still name ``numpy.linalg.eigh``, ``_logsumexp`` or
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


def _logsumexp_uses(tree: ast.AST):
    """Every name, attribute or import of ``_logsumexp``."""

    def matches(node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            return (node.id if isinstance(node, ast.Name) else node.attr) == "_logsumexp"
        return any(name.rpartition(".")[2] == "_logsumexp" for name in _imported(node))

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


def test_logsumexp_only_in_the_sweep_and_the_state_norm():
    # analytic imports it once and sums L and R in log_sweep; states sums log n
    uses = _package_uses(_logsumexp_uses)
    analytic = uses.pop("analytic.py")
    assert [function for function, _ in analytic] == [None, "log_sweep", "log_sweep"]
    assert {function for function, _ in uses.pop("states.py")} == {"_from_logs"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_batching_check_sees_every_spelling():
    source = '''
from .states import _logsumexp
from . import states

def score(log_terms):
    """_logsumexp in a docstring is no call."""
    return states._logsumexp(log_terms), _logsumexp(log_terms)
'''
    assert _logsumexp_uses(ast.parse(source)) == [(None, 2), ("score", 7), ("score", 7)]


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
