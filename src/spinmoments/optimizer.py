"""Amplitude optimisation: maximise B over the correlated-state amplitudes.

With A tridiagonal (off-diagonal g_m^(N/2) / 2, ``analytic.log_ladder_weights``)
and D diagonal (``analytic.log_bound_weights``), B^2 = (r^T A r)^2 /
(r^T r . r^T D r).  Since sqrt(xy) = min_c (c x + y/c) / 2,

    max_r B = max_(c > 0) 2 lambda_max(A, c I + D / c),

a 1-D search in t = log c (the optimum has c^2 = r^T D r / r^T r, so the
spread of log D brackets it) over generalized eigenproblems whose metric
M = c I + D / c is diagonal: each is the tridiagonal M^(-1/2) A M^(-1/2),
assembled in the log domain so that N in the thousands cannot overflow.
Its entries are non-negative, so the top eigenvector has one sign and is
the optimal r.  It folds r_m = r_-m exactly when ``kinds.bound_runs`` has
as many J+J- sites as J-J+ sites (every non-HZ kind, and HZ bounds with
T = 2): q(m) is even in m and f+(m) = f-(-m), so D is then mirror symmetric
like A, and so is the top eigenvector.  Other layouts are solved over the
full d-vector (at d <= 3 their zero end weights can leave D symmetric; the
full solve finds the same B).  The layout decides, not log D, whose summed
logs need not be bitwise symmetric.

The search (``spin_algebra.minimize_on_interval``) solves its 65-point grid
in one stacked eigh and polishes the grid's minimum by Brent's zeroin on the
slope.  The slope is free: with x the unit top eigenvector of the folded
problem, n_i the amplitudes folded onto entry i and D_i their summed bound
weights, the envelope theorem gives d(-log lambda_max)/dt = sum_i x_i^2
tanh((log n_i + 2t - log D_i) / 2), where D_i = 0 gives tanh(+inf) = 1.
The reported B is exactly ``analytic.b_ratio(report.best_state(), kind)``,
with C_J from ``cj_bound``; two adjacent zero bound weights make B
unbounded (inf).
Where B* is a supremum approached only as c -> 0 (HZ bounds with T >= 2 at
2J = 2, and ``epr1-hz`` at 2J = 1), B is exact but the reported r, and with
it L, R and a scan's ``r_vector``, is set by ``_LOG_C_PAD``, not by the
problem; where the objective is flat to rounding over a range of c (r on
the m = +-J pair of spin 1 at large N), they are set by the grid.  No
random starts: ``restarts`` and ``seed`` are validated and ignored.

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


def _mirror_symmetric(kind: kinds.CriterionKind, n_sites: int) -> bool:
    """Whether D_m = D_-m: R has as many J+J- sites as J-J+ sites."""
    balance = {kinds.SiteOp.PLUS_MINUS: 1, kinds.SiteOp.MINUS_PLUS: -1}
    return sum(balance.get(tag, 0) * k for tag, k in kinds.bound_runs(kind, n_sites)) == 0


def _fold(log_a: np.ndarray, log_d: np.ndarray, mirror: bool):
    """Fold map k -> i (r_m = r_-m if mirror), pair counts, and log D, log diag and
    log off-diagonal of the folded tridiagonal P^T A P, all summed in the log domain."""
    k = np.arange(log_d.size)
    fold = np.minimum(k, k[::-1]) if mirror else k
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
    """(log lambda_max, |eigenvector|) of M^(-1/2) T M^(-1/2), M diagonal, for
    each row of log_metric (shape (..., k)), by one stacked eigh."""
    diag = log_diag - log_metric
    off = log_off - 0.5 * (log_metric[..., :-1] + log_metric[..., 1:])
    shift = np.maximum(diag.max(-1), off.max(-1, initial=-np.inf))[..., None]
    k = diag.shape[-1]
    t = np.zeros(diag.shape[:-1] + (k * k,))  # flat k x k: diagonal, then both off-diagonals
    t[..., :: k + 1] = np.exp(diag - shift)
    t[..., 1 :: k + 1] = t[..., k :: k + 1] = np.exp(off - shift)
    w, v = np.linalg.eigh(t.reshape(diag.shape + (k,)))
    top = w[..., -1]  # math.log, not np.log: numpy's SIMD log can differ in the last bit
    log_top = np.reshape([math.log(x) for x in top.flat], top.shape)
    return shift[..., 0] + log_top, np.abs(v[..., -1])


def optimize_amplitudes(
    j: SpinQuantum,
    n_sites: int,
    kind: kinds.CriterionKind,
    *,
    restarts: int = 1,
    seed: int = 0,
) -> OptimizationReport:
    """Maximise the analytic B over non-negative amplitudes r: over ceil(d/2)
    folded r_m = r_-m exactly when R has as many J+J- sites as J-J+ sites (D is
    then mirror symmetric), else over the full d-vector.  ``restarts`` (>= 1)
    and ``seed`` are ignored: the route is exact.
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
    else:
        mirror = _mirror_symmetric(kind, n_sites)
        fold, counts, log_fd, log_diag, log_off = _fold(log_a, log_d, mirror)
        solved = {}  # log c -> top eigenvector, for every point the search solves
        log_n = np.log(counts)

        def log_metric(log_c):  # log(n_i c + D_i / c), a row per entry of log_c
            log_c = np.expand_dims(log_c, -1)
            return np.logaddexp(log_n + log_c, log_fd - log_c)

        def objective(log_c):  # (-log lambda_max, its slope in log c), a row per entry of log_c
            log_top, x = _log_top_eigenpair(log_diag, log_off, log_metric(log_c))
            slope = np.sum(x * x * np.tanh(0.5 * (log_n + 2 * np.expand_dims(log_c, -1) - log_fd)), axis=-1)
            pairs = zip(log_c.tolist(), x) if isinstance(log_c, np.ndarray) else [(float(log_c), x)]
            solved.update(pairs)
            return -log_top, slope

        finite = 0.5 * log_d[np.isfinite(log_d)]
        log_c, _ = minimize_on_interval(objective, finite.min() - _LOG_C_PAD, finite.max() + _LOG_C_PAD)
        x = solved[log_c]
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
    restarts: int = 1,
    seed: int = 0,
) -> MinSitesResult:
    """Smallest N in max(2, T)..n_max whose optimised state violates the criterion
    (``OptimizationReport.violated``), T the kind's quantum sites.  ``restarts``
    and ``seed`` are ignored, as in ``optimize_amplitudes``.
    """
    n_min = max(2, kind.t_sites if isinstance(kind, kinds.Steering) else 0)
    if n_max < n_min:
        at_least = "2" if n_min == 2 else f"T = {n_min}, the kind's quantum sites"
        raise ValueError(f"n_max must be >= {at_least}")
    best_seen, min_n = -math.inf, None
    for n in range(n_min, n_max + 1):
        report = optimize_amplitudes(j, n, kind, restarts=restarts, seed=seed)
        best_seen = max(best_seen, report.best_b)
        if report.violated:
            best_seen, min_n = report.best_b, n
            break
    return MinSitesResult(dim=j.dim, kind=kind, min_n=min_n, b_at_min_n=best_seen, n_max_searched=n_max)


def scan_curve(
    kinds_list: list[kinds.CriterionKind], state_source, points: list[tuple[int, int]]
) -> list[dict]:
    """Criterion evaluations at each (twice_j, n) point, kinds innermost.

    state_source is a states family instance, or the string "optimized" to
    re-optimise the amplitudes at every point and kind.  Rows carry the
    CLI's scan columns.  A family's rows are scored by one ``analytic.log_sweep``
    per (twice_j, kind), once every state is built and t checked in row order.
    """
    optimized = isinstance(state_source, str)
    if optimized and state_source != "optimized":
        raise ValueError(f"unknown state source {state_source!r}")

    rows, logs, sweeps = [], [], {}
    for tj, n in points:
        j = SpinQuantum(tj)
        if kinds_list and not optimized:
            state = make_state(state_source, j, n)
            source, r_vec = family_label(state_source), tuple(float(v) for v in state.unit_amplitudes)
        for kind in kinds_list:
            if optimized:
                report = optimize_amplitudes(j, n, kind)
                source, r_vec = "optimized", tuple(float(v) for v in report.best_r)
            else:
                sweeps.setdefault((tj, kind), []).append((len(rows), state))
            logs.append((report.log_l, report.log_r) if optimized else None)
            token, t = kinds.kind_token(kind), kinds.quantum_sites(kind, n)
            rows.append({"twice_j": tj, "n": n, "t": t, "family": source, "kind": token, "r_vector": r_vec})
    for (_, kind), members in sweeps.items():
        index, states = zip(*members)
        log_l, (log_r,) = analytic.log_sweep(states, [kind])
        for i, pair in zip(index, zip(log_l, log_r)):
            logs[i] = pair
    for row, (log_l, log_r) in zip(rows, logs):
        row.update(
            L=analytic.exp_or_inf(log_l),
            R=analytic.exp_or_inf(log_r),
            B=analytic.b_from_logs(log_l, log_r),
            violated=criteria.violated(log_l, log_r),
        )
    return rows
