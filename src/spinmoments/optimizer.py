"""Amplitude optimisation: maximise B over the correlated-state amplitudes.

With A tridiagonal (off-diagonal g_m^(N/2) / 2, ``analytic.log_ladder_weights``)
and D diagonal (``analytic.log_bound_weights``), B^2 = (r^T A r)^2 /
(r^T r . r^T D r).  Since sqrt(xy) = min_c (c x + y/c) / 2,

    max_r B = max_(c > 0) 2 lambda_max(A, c I + D / c),

a 1-D search in log c (the optimum has c^2 = r^T D r / r^T r, so the spread
of log D brackets it) over generalized eigenproblems whose metric
M = c I + D / c is diagonal: each is the tridiagonal M^(-1/2) A M^(-1/2),
assembled in the log domain so that N in the thousands cannot overflow.
Its entries are non-negative, so the top eigenvector has one sign and is
the optimal r.  The r_m = r_-m restriction folds A and D by r = P x (the
HZ bound weights are not symmetric in m).  The reported B is exactly
``analytic.b_ratio(report.best_state(), kind)``, with C_J from ``cj_bound``;
two adjacent zero bound weights make B unbounded (inf).  Where B* is a
supremum approached only as c -> 0 (``ent-hz`` and ``epr2-hz`` at 2J = 2),
B is exact but the reported r, and with it L, R and a scan's ``r_vector``,
is set by ``_LOG_C_PAD``, not by the problem.  No random starts:
``restarts`` and ``seed`` are validated and ignored.

The drivers decide "violated" by ``criteria.violated`` on log L and log R;
an optimised ``scan_curve`` row takes the report's, so it is scored once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, criteria, kinds
from .spin_algebra import SpinQuantum, minimize_on_interval
from .states import SymmetricCorrelatedState, family_label, make_state, _from_amplitudes

DEFAULT_RESTARTS = 20

# Bracket padding in log c: a supremum approached only as c -> 0 (a zero HZ
# bound weight) is missed by ~e^-40 relative at the lower end.
_LOG_C_PAD = 20.0


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    j: SpinQuantum
    n_sites: int
    kind: kinds.CriterionKind
    best_r: np.ndarray  # full d-vector, normalised to sum r^2 = 1
    best_b: float  # == analytic.b_ratio(best_state(), kind)
    violated: bool  # criteria.violated(log_l, log_r)
    log_l: float  # analytic.log_lhs_rhs(best_state(), kind)
    log_r: float

    def best_state(self) -> SymmetricCorrelatedState:
        return _from_amplitudes(self.j, self.n_sites, self.best_r)


@dataclass(frozen=True)
class MinSitesResult:
    dim: int
    kind: kinds.CriterionKind
    min_n: int | None
    b_at_min_n: float  # best B over the scan when no violation was found
    n_max_searched: int


def _fold(log_a: np.ndarray, log_d: np.ndarray, symmetric: bool):
    """Fold map k -> i, pair counts, and log D, log diag and log off-diagonal
    of the folded tridiagonal P^T A P, all summed in the log domain."""
    k = np.arange(log_d.size)
    fold = np.minimum(k, k[::-1]) if symmetric else k
    size = int(fold.max()) + 1
    log_fd = np.full(size, -np.inf)
    np.logaddexp.at(log_fd, fold, log_d)
    lo, hi = fold[:-1], fold[1:]
    within = lo == hi  # the middle link of an even d folds onto one amplitude
    log_diag = np.full(size, -np.inf)
    np.logaddexp.at(log_diag, lo[within], log_a[within] + math.log(2))
    log_off = np.full(size - 1, -np.inf)
    np.logaddexp.at(log_off, np.minimum(lo, hi)[~within], log_a[~within])
    return fold, np.bincount(fold), log_fd, log_diag, log_off


def _log_top_eigenpair(log_diag, log_off, log_metric):
    """(log lambda_max, |eigenvector|) of M^(-1/2) T M^(-1/2), M diagonal."""
    diag = log_diag - log_metric
    off = log_off - 0.5 * (log_metric[:-1] + log_metric[1:])
    shift = max(diag.max(), off.max(initial=-np.inf))
    e = np.exp(off - shift)
    w, v = np.linalg.eigh(np.diag(np.exp(diag - shift)) + np.diag(e, 1) + np.diag(e, -1))
    return shift + math.log(w[-1]), np.abs(v[:, -1])


def optimize_amplitudes(
    j: SpinQuantum,
    n_sites: int,
    kind: kinds.CriterionKind,
    *,
    symmetric: bool = True,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> OptimizationReport:
    """Maximise the analytic B over non-negative amplitudes r.

    The symmetric flag (default on, matching the r_m = r_{-m} restriction
    of the built-in families) folds the search space to ceil(d/2)
    dimensions; pass symmetric=False to probe the full d-vector.
    ``restarts`` (>= 1) and ``seed`` are ignored: the route is exact.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    log_a = analytic.log_ladder_weights(j, n_sites) - math.log(2)
    log_d = analytic.log_bound_weights(j, n_sites, kind)
    zero_pair = np.isneginf(log_d[:-1]) & np.isneginf(log_d[1:])
    if zero_pair.any():  # R = 0 < L on that pair
        r = np.zeros(j.dim)
        k = int(np.argmax(zero_pair))
        r[k : k + 2] = 1.0
        r = np.maximum(r, r[::-1]) if symmetric else r
    else:
        fold, counts, log_fd, log_diag, log_off = _fold(log_a, log_d, symmetric)

        def log_metric(log_c: float) -> np.ndarray:  # log(n_i c + D_i / c)
            return np.logaddexp(np.log(counts) + log_c, log_fd - log_c)

        finite = 0.5 * log_d[np.isfinite(log_d)]
        log_c, _ = minimize_on_interval(
            lambda u: -_log_top_eigenpair(log_diag, log_off, log_metric(u))[0],
            finite.min() - _LOG_C_PAD,
            finite.max() + _LOG_C_PAD,
        )
        _, x = _log_top_eigenpair(log_diag, log_off, log_metric(log_c))
        with np.errstate(divide="ignore"):
            log_r = (np.log(x) - 0.5 * log_metric(log_c))[fold]
        r = np.exp(log_r - log_r.max())
    r = r / math.sqrt(np.sum(r * r))
    r.setflags(write=False)
    log_l, log_r = analytic.log_lhs_rhs(_from_amplitudes(j, n_sites, r), kind)
    b, verdict = analytic.b_from_logs(log_l, log_r), criteria.violated(log_l, log_r)
    return OptimizationReport(j, n_sites, kind, r, b, verdict, log_l, log_r)


def min_sites_for_violation(
    j: SpinQuantum,
    kind: kinds.CriterionKind,
    n_max: int,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> MinSitesResult:
    """Smallest N <= n_max whose optimised state violates the criterion
    (``OptimizationReport.violated``).  ``restarts`` and ``seed`` are
    ignored, as in ``optimize_amplitudes``.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    best_seen = -math.inf
    for n in range(2, n_max + 1):
        report = optimize_amplitudes(j, n, kind, restarts=restarts, seed=seed)
        best_seen = max(best_seen, report.best_b)
        if report.violated:
            return MinSitesResult(
                dim=j.dim, kind=kind, min_n=n, b_at_min_n=report.best_b, n_max_searched=n_max
            )
    return MinSitesResult(
        dim=j.dim, kind=kind, min_n=None, b_at_min_n=best_seen, n_max_searched=n_max
    )


def scan_curve(
    kinds_list: list[kinds.CriterionKind], state_source, points: list[tuple[int, int]]
) -> list[dict]:
    """Criterion evaluations at each (twice_j, n) point, kinds innermost.

    state_source is a states family instance, or the string "optimized" to
    re-optimise the amplitudes at every point and kind.  Rows carry the
    CLI's scan columns.
    """
    optimized = isinstance(state_source, str)
    if optimized and state_source != "optimized":
        raise ValueError(f"unknown state source {state_source!r}")

    rows = []
    for tj, n in points:
        j = SpinQuantum(tj)
        for kind in kinds_list:
            if optimized:
                report = optimize_amplitudes(j, n, kind)
                source, r_vec, log_l, log_r = "optimized", report.best_r, report.log_l, report.log_r
            else:
                state = make_state(state_source, j, n)
                source, r_vec = family_label(state_source), state.unit_amplitudes
                log_l, log_r = analytic.log_lhs_rhs(state, kind)
            rows.append(
                {
                    "twice_j": tj,
                    "n": n,
                    "t": kinds.quantum_sites(kind, n),
                    "family": source,
                    "kind": kinds.kind_token(kind),
                    "L": analytic.exp_or_inf(log_l),
                    "R": analytic.exp_or_inf(log_r),
                    "B": analytic.b_from_logs(log_l, log_r),
                    "violated": criteria.violated(log_l, log_r),
                    "r_vector": tuple(float(v) for v in r_vec),
                }
            )
    return rows
