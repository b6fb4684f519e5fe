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
                two are optimised independently.

On the oracle either strategy is one batched pass per moment: one
``oracle.expect_table`` call gives L for every s-pattern and another the
bound moments R >= 0 for every l-pattern (the canonical strategy has
one alternative per site).  Exact ties are common (L(s) = L(-s) on real
amplitudes; R depends only on the number of plus signs on symmetric states),
so the pick is not left to rounding: every value within VERDICT_BAND of the
extreme ties, v >= max (1 - band) for L and v <= min (1 + band) for R (so
R = 0 ties only exact zeros), and the first tied pattern in plus-first
lexicographic order labels the result.  L and R are the extremes themselves,
max L and min R, so the search keeps the strongest verdict of its sign space;
they differ from the labelled pattern's own values by less than the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analytic, kinds, oracle
from .states import CapExceededError, SymmetricCorrelatedState, support_vector

EXHAUSTIVE_MAX_SITES = 16
VERDICT_BAND = 1e-11


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
) -> CriterionResult:
    """Evaluate one criterion on one state.

    canonical defaults to the analytic backend (exact for every correlated
    state); pass backend=Backend.ORACLE to force the brute-force oracle.
    exhaustive always runs on the oracle and needs N <= 16.  Beyond either
    limit, N > 16 or the oracle's d^N > 2^62, it raises ``states.CapExceededError``.
    """
    n = state.n_sites
    signs = SignChoice(*kinds.canonical_signs(kind, n))  # validates t_sites <= N
    if strategy == "canonical" and backend in (None, Backend.ANALYTIC):
        log_l, log_r = analytic.log_lhs_rhs(state, kind)
        lhs, rhs = analytic.exp_or_inf(log_l), analytic.exp_or_inf(log_r)
        b = analytic.b_from_logs(log_l, log_r)
        return CriterionResult(kind, lhs, rhs, b, violated(log_l, log_r), signs, Backend.ANALYTIC)
    if strategy == "canonical":
        s_alts, l_alts = [signs.s], [signs.l]
    elif strategy == "exhaustive":
        if backend is Backend.ANALYTIC:
            raise ValueError("exhaustive search runs on the oracle backend only")
        if n > EXHAUSTIVE_MAX_SITES:
            raise CapExceededError(
                f"exhaustive sign search is capped at N <= {EXHAUSTIVE_MAX_SITES} sites, got N = {n}"
            )
        s_alts = [(1,) * n, (-1,) * n]
        l_alts = [(1,) * len(signs.l), (-1,) * len(signs.l)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected 'canonical' or 'exhaustive'")

    vec = support_vector(state)
    ladder = np.abs(oracle.expect_table(vec, _choices(kinds.ladder_tags, s_alts), state.j)) ** 2
    bound_choices = _choices(lambda l: kinds.bound_tags(kind, n, l), l_alts)
    bound = oracle.expect_table(vec, bound_choices, state.j)
    lhs, rhs = float(ladder.max()), float(bound.min())
    if strategy == "exhaustive":
        signs = SignChoice(
            _first_tied(ladder >= lhs * (1 - VERDICT_BAND)), _first_tied(bound <= rhs * (1 + VERDICT_BAND))
        )
    verdict = violated(_log(lhs), _log(rhs))
    b = oracle.b_from_moments(lhs, rhs)
    return CriterionResult(kind, lhs, rhs, b, verdict, signs, Backend.ORACLE)


def _choices(tags, alts: list[tuple[int, ...]]) -> list[tuple[kinds.SiteOp, ...]]:
    """Per site, its tags under each sign pattern in alts, repeats dropped: the
    pattern k of alts is alternative k on every site whose tag it changes."""
    return [tuple(dict.fromkeys(site)) for site in zip(*map(tags, alts))]


def _first_tied(tied: np.ndarray) -> tuple[int, ...]:
    """The signs of the first tied entry in C (plus-first) order, read off the
    table's own axes: one per site with two alternatives, in site order, plus
    for alternative 0."""
    index = np.unravel_index(int(np.argmax(tied)), tied.shape)
    return tuple(1 - 2 * int(a) for a, size in zip(index, tied.shape) if size == 2)


def nested_verdicts(state: SymmetricCorrelatedState, t_max: int) -> list[CriterionResult]:
    """The C_J-bound LHS(T,N) results on the closed forms for T = 0..t_max (canonical
    signs): T = 0 is the Bell inequality, T = N the fixed-J entanglement criterion.
    The verdicts are monotone in T, as each C_J subtraction shrinks R termwise."""
    if t_max > state.n_sites:
        raise ValueError(f"t_max = {t_max} exceeds n_sites = {state.n_sites}")
    return [evaluate(state, kinds.Steering(t)) for t in range(t_max + 1)]
