"""Uniform criterion evaluation: backend choice, sign choices, verdicts.

A criterion compares the ladder moment L against the bound moment R and is
violated exactly when L > R (all the underlying inequalities are
non-strict, so L = R is not a violation).  B = sqrt(L/R) > 1 is the
equivalent violation measure when defined; R = 0 < L reports B = +inf and
L = R = 0 reports B = nan (undefined, never a violation).

States sitting exactly on the boundary (the two-site GHZ Bell ratio is
exactly 1) land one rounding error to either side, so the verdict uses a
relative equality band of 1e-11: everything the criteria family certifies
clears it by orders of magnitude.

Two strategies, both a search over ladder signs s and HZ bound signs l:

* canonical  -- the one point ``kinds.canonical_signs``, used for every
                printed result, on the analytic backend or the oracle.
* exhaustive -- all 2^N s-patterns and, for HZ bounds, all 2^T l-patterns,
                on the oracle.  B is monotone in L and antitone in R, so the
                two are maximised independently; ties go to the pattern found
                first in plus-first lexicographic order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

from . import analytic, kinds, oracle
from .states import SymmetricCorrelatedState, dense_vector

EXHAUSTIVE_MAX_SITES = 16
VERDICT_BAND = 1e-11


class ExhaustiveSearchError(ValueError):
    """Exhaustive sign search asked for beyond its site bound."""


def violated(log_l: float, log_r: float) -> bool:
    """The verdict rule: L > R beyond the relative band, on log L and log R.

    R = 0 < L is a violation (-inf + band stays -inf); L = R = 0 is not.
    """
    return log_l > log_r + VERDICT_BAND


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


class Backend(Enum):
    ORACLE = "oracle"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class SignChoice:
    s: tuple[int, ...]  # ladder signs, length N
    l: tuple[int, ...]  # bound signs on quantum sites (HZ bounds only)

    def s_token(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.s)

    def l_token(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.l)


@dataclass(frozen=True)
class CriterionResult:
    kind: kinds.CriterionKind
    lhs: float
    rhs: float
    b: float  # nan means undefined (L = R = 0)
    violated: bool
    signs: SignChoice
    backend: Backend


def evaluate(
    state: SymmetricCorrelatedState,
    kind: kinds.CriterionKind,
    strategy: str = "canonical",
    *,
    backend: Backend | None = None,
    cap: int | None = None,
) -> CriterionResult:
    """Evaluate one criterion on one state.

    canonical defaults to the analytic backend (exact for every correlated
    state); pass backend=Backend.ORACLE to force the dense contraction.
    exhaustive always runs on the oracle and needs d^N within the cap and
    N <= 16.
    """
    n = state.n_sites
    signs = SignChoice(*kinds.canonical_signs(kind, n))  # validates t_sites <= N
    if strategy == "canonical" and backend in (None, Backend.ANALYTIC):
        log_l, log_r = analytic.log_lhs_rhs(state, kind)
        lhs, rhs = analytic.exp_or_inf(log_l), analytic.exp_or_inf(log_r)
        b = analytic.b_from_logs(log_l, log_r)
        return CriterionResult(kind, lhs, rhs, b, violated(log_l, log_r), signs, Backend.ANALYTIC)
    if strategy == "canonical":
        s_space, l_space = [signs.s], [signs.l]
    elif strategy == "exhaustive":
        if backend is Backend.ANALYTIC:
            raise ValueError("exhaustive search runs on the oracle backend only")
        if n > EXHAUSTIVE_MAX_SITES:
            raise ExhaustiveSearchError(
                f"exhaustive sign search is capped at N <= {EXHAUSTIVE_MAX_SITES} sites, got N = {n}"
            )
        s_space = itertools.product((1, -1), repeat=n)
        l_space = itertools.product((1, -1), repeat=len(signs.l))
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected 'canonical' or 'exhaustive'")

    vec = dense_vector(state, cap=cap)
    ladder = ((abs(oracle.expect_product(vec, kinds.ladder_tags(s), state.j)) ** 2, s) for s in s_space)
    bound = ((oracle.bound_expectation(vec, kinds.bound_tags(kind, n, l), state.j), l) for l in l_space)
    # streamed, not stored (2^N patterns); max and min keep the first of ties
    (lhs, s), (rhs, l) = max(ladder, key=itemgetter(0)), min(bound, key=itemgetter(0))
    verdict = violated(_log(lhs), _log(rhs))
    b = oracle.b_from_moments(lhs, rhs)
    return CriterionResult(kind, lhs, rhs, b, verdict, SignChoice(s, l), Backend.ORACLE)


def nested_verdicts(
    state: SymmetricCorrelatedState,
    t_max: int,
    *,
    bound: str = "cj",
    backend: Backend | None = None,
    cap: int | None = None,
) -> list[CriterionResult]:
    """Evaluate the LHS(T,N) family for T = 0..t_max (canonical signs).

    T = 0 is the Bell inequality and T = N the matching entanglement
    criterion; for the C_J bound the verdict list is monotone in T because
    each C_J subtraction shrinks the bound moment termwise.
    """
    if t_max > state.n_sites:
        raise ValueError(f"t_max = {t_max} exceeds n_sites = {state.n_sites}")
    return [
        evaluate(state, kinds.Steering(t_sites=t, bound=bound), backend=backend, cap=cap)
        for t in range(t_max + 1)
    ]
