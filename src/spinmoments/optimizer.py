"""Amplitude optimisation: maximise B over the correlated-state amplitudes.

With A tridiagonal (off-diagonal g_m^(N/2) / 2, ``analytic.log_ladder_weights``)
and D diagonal (``analytic.log_bound_weights``), B^2 = (r^T A r)^2 /
(r^T r . r^T D r).  Since sqrt(xy) = min_c (c x + y/c) / 2,

    max_r B = max_(c > 0) 2 lambda_max(A, c I + D / c),

a 1-D search in t = log c (the optimum has c^2 = r^T D r / r^T r, so the
spread of log D brackets it) over generalized eigenproblems whose metric
M = c I + D / c is diagonal: each is the tridiagonal M^(-1/2) A M^(-1/2),
assembled in the log domain so that its entries cannot overflow.  They
are non-negative, so the top eigenvector x has one sign, and log r =
log x - log M / 2 is the optimal r.  The state is built from log r, so an
r_m below 1e-308 of the largest is kept (``best_r`` rounds it to 0); x
itself still underflows to 0 where the scaled tridiagonal spans more than
1e308 (2J = 3, N = 10^4, ``ent-hz``).  It folds r_m = r_-m exactly when
``kinds.bound_counts`` has as many J+J- sites as J-J+ sites (every non-HZ
kind, and HZ bounds with T = 2): q(m) is even in m and f+(m) = f-(-m), so
D is then mirror symmetric like A, and so is the top eigenvector.  Other layouts are solved over the
full d-vector (at d <= 3 their zero end weights can leave D symmetric; the
full solve finds the same B).  The layout decides, not log D, whose summed
logs need not be bitwise symmetric.

The search (``spin_algebra.minimize_on_interval``) solves its 65-point grid
in one stacked ``spin_algebra._tridiagonal_eigh`` and polishes the grid's
minimum by Brent's zeroin on the slope.  The slope is free: with x the unit
top eigenvector of the folded problem, n_i the amplitudes folded onto entry i
and D_i their summed bound weights, the envelope theorem gives d(-log lambda_max)/dt
= sum_i x_i^2 tanh((log n_i + 2t - log D_i) / 2), where D_i = 0 gives tanh(+inf) = 1.
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
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, criteria, kinds
from .spin_algebra import SpinQuantum, _tridiagonal_eigh, minimize_on_interval
from .states import SymmetricCorrelatedState, check_state, family_label, make_states, _from_logs

# Bracket padding in log c: a supremum approached only as c -> 0 (a zero HZ
# bound weight) is missed by ~e^-40 relative at the lower end.
_LOG_C_PAD = 20.0


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    j: SpinQuantum
    n_sites: int
    kind: kinds.CriterionKind
    best_r: np.ndarray  # full d-vector, normalised to sum r^2 = 1; may round amplitudes to 0
    _state: SymmetricCorrelatedState  # the witness, every amplitude kept as log|r_m|
    best_b: float  # == analytic.b_ratio(best_state(), kind)
    violated: bool  # criteria.violated(log_l, log_r)
    log_l: float  # analytic.log_lhs_rhs(best_state(), kind)
    log_r: float

    def best_state(self) -> SymmetricCorrelatedState:
        return self._state


@dataclass(frozen=True)
class MinSitesResult:
    dim: int
    kind: kinds.CriterionKind
    min_n: int | None
    b_at_min_n: float  # best B over the scan when no violation was found
    n_max_searched: int


def _mirror_symmetric(kind: kinds.CriterionKind, n_sites: int) -> bool:
    """Whether D_m = D_-m: R has as many J+J- sites as J-J+ sites."""
    counts = kinds.bound_counts(kind, n_sites)
    return counts.get(kinds.SiteOp.PLUS_MINUS, 0) == counts.get(kinds.SiteOp.MINUS_PLUS, 0)


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
    each row of log_metric (shape (..., k)), by one stacked ``_tridiagonal_eigh``."""
    diag = log_diag - log_metric
    off = log_off - 0.5 * (log_metric[..., :-1] + log_metric[..., 1:])
    shift = np.maximum(diag.max(-1), off.max(-1, initial=-np.inf))[..., None]
    w, v = _tridiagonal_eigh(np.exp(diag - shift), np.exp(off - shift))
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
        log_r = np.full(j.dim, -np.inf)
        k = int(np.argmax(zero_pair))
        log_r[k : k + 2] = 0.0
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
    log_r = log_r - log_r.max()
    r = np.exp(log_r)
    norm = math.sqrt(np.sum(r * r))
    r = r / norm
    r.setflags(write=False)
    with np.errstate(divide="ignore"):  # log|r| from r where r is a normal float, else from log r
        log_unit = np.where(r >= sys.float_info.min, np.log(r), log_r - math.log(norm))
    (state,) = _from_logs(j, [n_sites], np.isfinite(log_unit), log_unit)
    log_l, log_r = analytic.log_lhs_rhs(state, kind)
    b, verdict = analytic.b_from_logs(log_l, log_r), criteria.violated(log_l, log_r)
    return OptimizationReport(j, n_sites, kind, r, state, b, verdict, log_l, log_r)


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
    CLI's scan columns, keyed in output order.  Once each point's state and t
    are checked in point order, a family builds each spin's states in one
    ``states.make_states`` pass and scores them all with one
    ``analytic.log_sweep``; the rows are finished as arrays.
    """
    optimized = isinstance(state_source, str)
    if optimized and state_source != "optimized":
        raise ValueError(f"unknown state source {state_source!r}")

    tokens, k = [kinds.kind_token(kind) for kind in kinds_list], len(kinds_list)
    heads, reports, n_lists = [], [], {}
    for tj, n in points:  # in point order: the point's state check, then each kind's t
        j = SpinQuantum(tj)
        if kinds_list and not optimized:
            check_state(state_source, j, n)
            n_lists.setdefault(j, []).append(n)
        for kind, token in zip(kinds_list, tokens):
            if optimized:
                reports.append(optimize_amplitudes(j, n, kind))
            heads.append((tj, n, kinds.quantum_sites(kind, n), token))
    sources = [("optimized", tuple(report.best_r.tolist())) for report in reports]
    log_l, log_r = [report.log_l for report in reports], [report.log_r for report in reports]
    if n_lists:  # the states back in point order; the rows of a state share its r_vector
        built = {j: iter(make_states(state_source, j, n_list)) for j, n_list in n_lists.items()}
        states, label = [next(built[SpinQuantum(tj)]) for tj, _ in points], family_label(state_source)
        sources = [source for state in states for source in [(label, tuple(state.unit_amplitudes.tolist()))] * k]
        state_l, kind_r = analytic.log_sweep(states, kinds_list)
        log_l, log_r = np.repeat(state_l, k), np.transpose(kind_r).ravel()
    log_l, log_r = np.asarray(log_l, dtype=float), np.asarray(log_r, dtype=float)
    lhs, rhs = analytic.exp_or_inf(log_l), analytic.exp_or_inf(log_r)
    finished = lhs, rhs, analytic.b_from_logs(log_l, log_r), criteria.violated(log_l, log_r)
    columns = ("twice_j", "n", "t", "family", "kind", "L", "R", "B", "violated", "r_vector")
    return [
        dict(zip(columns, (tj, n, t, label, token, *values, r_vector)))
        for (tj, n, t, token), (label, r_vector), *values in zip(heads, sources, *(a.tolist() for a in finished))
    ]
