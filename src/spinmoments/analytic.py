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

R's site layout comes from ``kinds.bound_runs``: each tag's factor is raised
to its run length.  Every sum sum_m w_m prod(base^power) is reduced by
factoring out the largest log term, so k^N factors cannot overflow: spin 10
with 30 sites is routine.  C_J is always subtracted from q before exponentiation.

All eigenvalue factors are quarter-integers assembled from integer
arithmetic on twice_j, so the bases are exact floats.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import kinds
from .kinds import SiteOp
from .spin_algebra import SpinQuantum, cj_value
from .states import SymmetricCorrelatedState, _logsumexp

_LOG_ZERO = -math.inf

# The order the bound factors' logs are summed in: the free factor first.
_SUM_ORDER = (SiteOp.X2_PLUS_Y2, SiteOp.CJ_SHIFTED, SiteOp.PLUS_MINUS, SiteOp.MINUS_PLUS)


def _eigenvalue_factors(j: SpinQuantum) -> dict[SiteOp, np.ndarray]:
    """Per-m eigenvalues q, f+ and f- of the diagonal tags, exact from integer twice_j."""
    tj = j.twice_j
    two_m = 2 * np.arange(j.dim) - tj
    q = (tj * (tj + 2) - two_m * two_m) / 4
    f_plus = (tj + two_m) * (tj - two_m + 2) / 4
    f_minus = (tj - two_m) * (tj + two_m + 2) / 4
    return {SiteOp.X2_PLUS_Y2: q, SiteOp.PLUS_MINUS: f_plus, SiteOp.MINUS_PLUS: f_minus}


def _log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def log_ladder_weights(j: SpinQuantum, n_sites: int) -> np.ndarray:
    """log of the ladder weights g_m^(N/2), g_m = (J-m)(J+m+1), m = -J..J-1.

    L = (sum_m r_m r_(m+1) g_m^(N/2))^2 / n^2; every g_m is positive.
    """
    return 0.5 * n_sites * np.log(_eigenvalue_factors(j)[SiteOp.MINUS_PLUS][:-1])


def log_ladder_moment(state: SymmetricCorrelatedState) -> float:
    """log L for the all-minus (equivalently all-plus) ladder product.

    The nonzero contributions pair adjacent amplitudes: the base between
    m and m+1 is (J-m)(J+m+1), raised to the power N/2.
    """
    log_r = state.log_amplitudes
    signs = state.signs
    log_terms = log_r[:-1] + log_r[1:] + log_ladder_weights(state.j, state.n_sites)
    log_abs_sum = _logsumexp(log_terms, signs[:-1] * signs[1:])
    return 2 * (log_abs_sum - state.log_norm_sq)


def log_bound_weights(
    j: SpinQuantum,
    n_sites: int,
    kind: kinds.CriterionKind,
    *,
    c_j: float | None = None,
    l_signs: Sequence[int] | None = None,
) -> np.ndarray:
    """log of the per-m bound weights D_m, R = sum_m r_m^2 D_m / n (-inf where
    an HZ ladder factor vanishes): per run of ``kinds.bound_runs``, its length
    times the log of its tag's factor.  Only the number of plus l-signs matters.
    """
    powers = dict.fromkeys(_SUM_ORDER, 0)
    for tag, sites in kinds.bound_runs(kind, n_sites, l_signs):
        powers[tag] += sites
    fac = _eigenvalue_factors(j)
    if powers[SiteOp.CJ_SHIFTED]:
        cj = cj_value(j, c_j)
        shifted = fac[SiteOp.CJ_SHIFTED] = fac[SiteOp.X2_PLUS_Y2] - cj
        if np.any(shifted <= 0):
            raise ValueError(
                f"C_J = {cj} is not below the Jx^2 + Jy^2 spectrum floor "
                f"{fac[SiteOp.X2_PLUS_Y2].min()} for twice_j = {j.twice_j}"
            )

    log_d = np.zeros(j.dim)
    for tag, power in powers.items():
        if power > 0:  # a zero power must not meet a log of zero
            log_d = log_d + power * _log(fac[tag])
    return log_d


def log_bound_moment(
    state: SymmetricCorrelatedState,
    kind: kinds.CriterionKind,
    *,
    c_j: float | None = None,
    l_signs: Sequence[int] | None = None,
) -> float:
    """log R for the requested criterion kind (see ``log_bound_weights``)."""
    log_d = log_bound_weights(state.j, state.n_sites, kind, c_j=c_j, l_signs=l_signs)
    return _logsumexp(2 * state.log_amplitudes + log_d) - state.log_norm_sq


def log_lhs_rhs(
    state: SymmetricCorrelatedState,
    kind: kinds.CriterionKind,
    *,
    c_j: float | None = None,
    l_signs: Sequence[int] | None = None,
) -> tuple[float, float]:
    return (
        log_ladder_moment(state),
        log_bound_moment(state, kind, c_j=c_j, l_signs=l_signs),
    )


def exp_or_inf(log_x: float) -> float:
    if log_x == _LOG_ZERO:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp(log_x))


def lhs_rhs(state, kind, *, c_j=None, l_signs=None) -> tuple[float, float]:
    """(L, R) in linear scale; values too large for a double report as inf."""
    log_l, log_r = log_lhs_rhs(state, kind, c_j=c_j, l_signs=l_signs)
    return exp_or_inf(log_l), exp_or_inf(log_r)


def b_from_logs(log_l: float, log_r: float) -> float:
    """sqrt(L/R): +inf when R = 0 < L, nan (undefined) when L = R = 0."""
    if log_r == _LOG_ZERO:
        return math.nan if log_l == _LOG_ZERO else math.inf
    return exp_or_inf(0.5 * (log_l - log_r))


def b_ratio(state, kind, *, c_j=None, l_signs=None) -> float:
    return b_from_logs(*log_lhs_rhs(state, kind, c_j=c_j, l_signs=l_signs))


def b_bell(state: SymmetricCorrelatedState) -> float:
    """B for the Bell inequality: no quantum site, R = <prod (Jx^2+Jy^2)>."""
    return b_ratio(state, kinds.Bell())


def b_ent_cj(state: SymmetricCorrelatedState, c_j: float | None = None) -> float:
    """B for the fixed-J entanglement criterion (every site C_J-shifted)."""
    return b_ratio(state, kinds.EntanglementCJ(), c_j=c_j)


def b_ent_hz(state: SymmetricCorrelatedState, l_signs: Sequence[int] | None = None) -> float:
    """B for the ladder-product entanglement criterion, canonical signs.

    With the one-plus sign pattern R = <J1+ J1- prod_{k>=2} Jk- Jk+>, which
    vanishes identically for spin-1/2 so B diverges for any entangled
    generalized GHZ state.
    """
    return b_ratio(state, kinds.EntanglementHZ(), l_signs=l_signs)


def b_steer_t(state: SymmetricCorrelatedState, t_sites: int, c_j: float | None = None) -> float:
    """B for the hybrid model with t_sites quantum sites (C_J bound).

    t_sites = 0 reduces exactly to b_bell and t_sites = N to b_ent_cj;
    steering proper is certified for 1 <= t_sites <= N-1.
    """
    return b_ratio(state, kinds.Steering(t_sites=t_sites, bound="cj"), c_j=c_j)


def ghz_cj_detection_threshold(n_sites: int) -> float:
    """sin(2 theta) threshold above which the C_J criterion flags a GHZ state."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    return 2.0 ** -(n_sites - 1)


def b_spin1_closed_forms(kind: kinds.CriterionKind, r: float, n_sites: int) -> float:
    """Printed spin-1 formulas for the (1, r, 1) family; a regression surface.

    These duplicate the general machinery on purpose: the two code paths
    must agree, which pins down the index conventions.  Plain double
    arithmetic, so intended for moderate N (the 2^N and (25/16)^N terms).

      bell:        2^((N+2)/2) r / sqrt((r^2+2) (2^N r^2 + 2))
      ent-cj:      ... sqrt((r^2+2) ((25/16)^N r^2 + 2 (9/16)^N))
      epr T=1:     ... sqrt((r^2+2) (9/8 + 25 r^2 2^(N-5)))
      epr T:       ... sqrt((r^2+2) (2 (9/16)^T + r^2 2^(N-T) (25/16)^T))
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n = n_sites
    num = 2 ** ((n + 2) / 2) * r
    if isinstance(kind, kinds.Bell):
        den_sq = (r * r + 2) * (2**n * r * r + 2)
    elif isinstance(kind, kinds.EntanglementCJ):
        den_sq = (r * r + 2) * ((25 / 16) ** n * r * r + 2 * (9 / 16) ** n)
    elif isinstance(kind, kinds.Steering) and kind.bound == "cj":
        t = kind.t_sites
        if t == 1:
            den_sq = (r * r + 2) * (9 / 8 + 25 * r * r * 2.0 ** (n - 5))
        else:
            den_sq = (r * r + 2) * (2 * (9 / 16) ** t + r * r * 2.0 ** (n - t) * (25 / 16) ** t)
    else:
        raise ValueError(f"no printed spin-1 closed form for kind {kind!r}")
    return num / math.sqrt(den_sq)
