"""Closed-form L, R and B = sqrt(L/R) for the correlated state families.

For a state sum_m r_m |J,m>^(x)N / sqrt(n) the ladder moment is

    L = |<prod_k J_k^->|^2
      = (1/n^2) [ sum_m r_{m-1} r_m ((J+m)(J-m+1))^(N/2) ]^2,

identical for the all-plus choice, and the bound moments are single power
sums over m with per-site eigenvalue factors

    q(m)        = J(J+1) - m^2          (Jx^2 + Jy^2)
    q(m) - C_J                          (Jx^2 + Jy^2 - C_J)
    f+(m)       = (J+m)(J-m+1)          (J+ J-)
    f-(m)       = (J-m)(J+m+1)          (J- J+)

R's site layout comes from ``kinds.bound_counts``: each tag's factor is raised
to its count.  Every sum sum_m w_m prod(base^power) is reduced by factoring
out the largest log term, so k^N factors cannot overflow: spin 10 with 30 sites
is routine.  log n is the state's ``log_norm_sq``.  The weights and moments
broadcast over N: one ``log_moments`` call scores states of one J, a row per
state, with log L once and a log R row per kind.  ``log_sweep`` is the one
batching entry: it takes states of any spins, in any order, and makes one
``log_moments`` call per spin; ``log_lhs_rhs`` is the one-state, one-kind call.
C_J is ``cj_bound(j).c_j``, subtracted from q before exponentiation;
``log_sweep``'s ``cj_offset`` is added to it, for ``verify --corrupt-cj`` to
offset the closed forms against the oracle.  R takes the canonical l-pattern.

All eigenvalue factors are quarter-integers assembled from integer
arithmetic on twice_j, so the bases are exact floats.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import kinds
from .kinds import SiteOp
from .spin_algebra import SpinQuantum, cj_bound
from .states import SymmetricCorrelatedState, _logsumexp

# The order the bound factors' logs are summed in: the free factor first.
_SUM_ORDER = (SiteOp.X2_PLUS_Y2, SiteOp.CJ_SHIFTED, SiteOp.PLUS_MINUS, SiteOp.MINUS_PLUS)


@lru_cache(maxsize=None)
def _eigenvalue_factors(j: SpinQuantum) -> dict[SiteOp, np.ndarray]:
    """Per-m eigenvalues q, f+ and f- of the diagonal tags, exact from integer twice_j;
    cached per J, so the arrays are read-only and the dict is never written."""
    tj = j.twice_j
    two_m = 2 * np.arange(j.dim) - tj
    q = (tj * (tj + 2) - two_m * two_m) / 4
    f_plus = (tj + two_m) * (tj - two_m + 2) / 4
    f_minus = (tj - two_m) * (tj + two_m + 2) / 4
    for factor in (q, f_plus, f_minus):
        factor.setflags(write=False)
    return {SiteOp.X2_PLUS_Y2: q, SiteOp.PLUS_MINUS: f_plus, SiteOp.MINUS_PLUS: f_minus}


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def log_ladder_weights(j: SpinQuantum, n_sites: int | np.ndarray) -> np.ndarray:
    """log of the ladder weights g_m^(N/2), g_m = (J-m)(J+m+1), m = -J..J-1.

    L = (sum_m r_m r_(m+1) g_m^(N/2))^2 / n^2; every g_m is positive.
    """
    log_g = np.log(_eigenvalue_factors(j)[SiteOp.MINUS_PLUS][:-1])
    return 0.5 * np.asarray(n_sites, dtype=float)[..., None] * log_g


def log_bound_weights(
    j: SpinQuantum,
    n_sites: int | np.ndarray,
    kind: kinds.CriterionKind,
    *,
    c_j: float | None = None,
) -> np.ndarray:
    """log of the per-m bound weights D_m, R = sum_m r_m^2 D_m / n (-inf where
    an HZ ladder factor vanishes): per tag of ``kinds.bound_counts``, its count
    times the log of its factor, read once over the whole N array.
    """
    counts = kinds.bound_counts(kind, n_sites)
    fac = _eigenvalue_factors(j)
    if np.any(counts.get(SiteOp.CJ_SHIFTED, 0)):
        cj = cj_bound(j).c_j if c_j is None else float(c_j)
        shifted = fac[SiteOp.X2_PLUS_Y2] - cj
        if not np.all(shifted > 0):  # a NaN C_J fails too
            raise ValueError(
                f"C_J = {cj} is not below the Jx^2 + Jy^2 spectrum floor "
                f"{fac[SiteOp.X2_PLUS_Y2].min()} for twice_j = {j.twice_j}"
            )

    log_d = np.zeros(np.shape(n_sites) + (j.dim,))
    for tag in _SUM_ORDER:
        count = np.asarray(counts.get(tag, 0), dtype=float)[..., None]
        if count.any():  # a zero count adds an exact 0.0, never 0 * log 0 = nan
            log_f = _log(shifted if tag is SiteOp.CJ_SHIFTED else fac[tag])
            log_d += count * np.where(count > 0, log_f, 0.0)
    return log_d


def log_moments(j, n_sites, log_amplitudes, signs, log_norm_sq, kind_list, *, c_j=None):
    """(log L, log R) of the states of spin j with log|r_m| and signs along the
    last axis, log n = log_norm_sq and N = n_sites (an int, or an array with a row
    per state); log R has a leading row per kind of kind_list.
    """
    log_terms = log_amplitudes[..., :-1] + log_amplitudes[..., 1:] + log_ladder_weights(j, n_sites)
    log_l = 2 * (_logsumexp(log_terms, signs[..., :-1] * signs[..., 1:]) - log_norm_sq)
    log_d = np.array([log_bound_weights(j, n_sites, kind, c_j=c_j) for kind in kind_list])
    return log_l, _logsumexp(2 * log_amplitudes + log_d) - log_norm_sq


def log_sweep(states, kind_list, *, cj_offset=None) -> tuple[list[float], list[list[float]]]:
    """log L of each state and a log R list per kind, both in the order of states,
    which may mix spins: one ``log_moments`` call per spin, in the order the spins
    first appear.  cj_offset is added to each spin's ``cj_bound(j).c_j``.  N goes
    in as floats: an int-to-float array cast would take a 64 KiB buffer."""
    log_l, log_r = np.empty(len(states)), np.empty((len(kind_list), len(states)))
    by_spin = {}
    for i, s in enumerate(states):
        by_spin.setdefault(s.j, []).append((i, float(s.n_sites), s.log_amplitudes, s.signs, s.log_norm_sq))
    for j, rows in by_spin.items():
        index, *columns = map(np.array, zip(*rows))
        c_j = None if cj_offset is None else cj_bound(j).c_j + cj_offset
        log_l[index], log_r[:, index] = log_moments(j, *columns, kind_list, c_j=c_j)
    return log_l.tolist(), log_r.tolist()


def log_lhs_rhs(state: SymmetricCorrelatedState, kind: kinds.CriterionKind) -> tuple[float, float]:
    """(log L, log R) of one state: the one-row, one-kind ``log_moments`` call."""
    args = (state.j, state.n_sites, state.log_amplitudes, state.signs, state.log_norm_sq)
    log_l, (log_r,) = log_moments(*args, [kind])
    return log_l, float(log_r)


def exp_or_inf(log_x):
    """exp of a float, or elementwise of an array (a float for a float): 0 at
    log x = -inf, and inf for values too large for a double."""
    with np.errstate(over="ignore"):
        x = np.exp(log_x)
    return x if isinstance(x, np.ndarray) else float(x)


def lhs_rhs(state, kind) -> tuple[float, float]:
    """(L, R) in linear scale; values too large for a double report as inf."""
    log_l, log_r = log_lhs_rhs(state, kind)
    return exp_or_inf(log_l), exp_or_inf(log_r)


def b_from_logs(log_l, log_r):
    """sqrt(L/R) of floats, or elementwise of arrays: +inf when R = 0 < L, nan
    (undefined) when L = R = 0, where log L - log R is -inf - -inf."""
    with np.errstate(invalid="ignore"):
        return exp_or_inf(0.5 * np.subtract(log_l, log_r))


def b_ratio(state, kind) -> float:
    return b_from_logs(*log_lhs_rhs(state, kind))


def b_bell(state: SymmetricCorrelatedState) -> float:
    """B for the Bell inequality: no quantum site, R = <prod (Jx^2+Jy^2)>."""
    return b_ratio(state, kinds.Bell())


def b_ent_cj(state: SymmetricCorrelatedState) -> float:
    """B for the fixed-J entanglement criterion (every site C_J-shifted)."""
    return b_ratio(state, kinds.EntanglementCJ())


def b_ent_hz(state: SymmetricCorrelatedState) -> float:
    """B for the ladder-product entanglement criterion, canonical signs.

    With the one-plus sign pattern R = <J1+ J1- prod_{k>=2} Jk- Jk+>, which
    vanishes identically for spin-1/2 so B diverges for any entangled
    generalized GHZ state.
    """
    return b_ratio(state, kinds.EntanglementHZ())


def b_steer_t(state: SymmetricCorrelatedState, t_sites: int) -> float:
    """B for the hybrid model with t_sites quantum sites (C_J bound).

    t_sites = 0 reduces exactly to b_bell and t_sites = N to b_ent_cj;
    steering proper is certified for 1 <= t_sites <= N-1.
    """
    return b_ratio(state, kinds.Steering(t_sites=t_sites, bound="cj"))


def ghz_cj_detection_threshold(n_sites: int) -> float:
    """sin(2 theta) threshold above which the C_J criterion flags a GHZ state."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    return 2.0 ** -(n_sites - 1)

