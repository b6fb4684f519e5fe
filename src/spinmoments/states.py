"""Correlated multipartite spin states sum_m r_m |J,m>^(x)N.

Every built-in family reduces to a real amplitude vector r indexed by
m = -J..+J (index 0 <-> m = -J).  A state holds r only as its signs and
log|r_m|, so that the closed-form sums stay finite for large J and N (the
bosonic family raises factorials to the power N-2) and an amplitude far
below the largest, as an optimised witness may have, is never rounded to 0.

``support_vector`` gives the oracle its one input, a state's at most d nonzero
amplitudes in the d^N product basis, and ``dense_vector`` scatters them into the
full vector for dense references; the index convention is fixed once, in
``support_vector``.  Each refuses a d^N beyond its bound with ``CapExceededError``:
the int64 index range 2^62, and the dense vector's 2^20 amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .spin_algebra import SpinQuantum

INDEX_RANGE = 2**62  # flat int64 indices: an index plus a bra - ket shift must not wrap


class CapExceededError(ValueError):
    """A state beyond what a route can hold: d^N above its bound, or N above the exhaustive search's."""


def _refuse_above(d: int, n: int, bound: int, name: str) -> None:
    """Raise CapExceededError if d^N > bound, for a bound <= 2^62.  As d >= 2, any N > 62
    exceeds it: d^N is then neither computed nor printed, its digits could run to millions."""
    if n > 62 or d**n > bound:
        size = f"{d}^{n}" if n > 62 else f"{d}^{n} = {d**n}"
        raise CapExceededError(f"d^N = {size} exceeds {name}")


@dataclass(frozen=True)
class UniformMax:
    """Equal-amplitude correlated state, r_m = 1 for every m."""


@dataclass(frozen=True)
class Bosonic:
    """Two-mode bosonic family: r_m = ((J-m)! (J+m)!)^((N-2)/2).

    Coincides with UniformMax at N = 2 and grows factorially otherwise;
    amplitudes are built in the log domain.
    """


@dataclass(frozen=True)
class GeneralizedGHZ:
    """cos(theta)|0>^(x)N + sin(theta)|1>^(x)N, spin-1/2 only."""

    theta: float


@dataclass(frozen=True)
class SpinOneR:
    """Spin-1 amplitude triple (1, r, 1)."""

    r: float


@dataclass(frozen=True)
class Custom:
    """Arbitrary real amplitude vector of length d."""

    amplitudes: tuple[float, ...]


StateFamily = Union[UniformMax, Bosonic, GeneralizedGHZ, SpinOneR, Custom]


# Family name -> class; a family's parameters are its dataclass fields.
FAMILIES = {
    "uniform-max": UniformMax,
    "bosonic": Bosonic,
    "ghz": GeneralizedGHZ,
    "spin1r": SpinOneR,
    "custom": Custom,
}
_LABELS = {cls: name for name, cls in FAMILIES.items()}


def family_label(family: StateFamily) -> str:
    return _LABELS[type(family)]


@dataclass(frozen=True, eq=False)
class SymmetricCorrelatedState:
    """Amplitude vector over the diagonal correlated basis, as signs and log|r_m|."""

    j: SpinQuantum
    n_sites: int
    signs: np.ndarray  # sign r_m: -1, 0 or +1
    log_amplitudes: np.ndarray  # log|r_m|, -inf where r_m = 0
    log_norm_sq: float  # log n, n = sum r_m^2

    @property
    def dim(self) -> int:
        return self.j.dim

    @property
    def unit_amplitudes(self) -> np.ndarray:
        """r / sqrt(n), through the log domain: finite even where r overflows."""
        return self.signs * np.exp(self.log_amplitudes - 0.5 * self.log_norm_sq)


def _from_logs(j: SpinQuantum, n_sites: list[int], signs, log_amplitudes) -> list[SymmetricCorrelatedState]:
    """The states of spin j on each N of n_sites, with sign r_m = signs and log|r_m| =
    log_amplitudes (-inf where r_m = 0): one (d,) pair that every N shares, or log|r_m| a
    row per N.  The arrays are read-only, and log n takes one log-sum-exp per pass."""
    for n in n_sites:
        _check_sites(n)
    signs, log_r = (np.array(v, dtype=float) for v in (signs, log_amplitudes))
    signs.setflags(write=False)
    log_r.setflags(write=False)
    log_n = _logsumexp(2 * log_r)
    if log_r.ndim == 1:
        return [SymmetricCorrelatedState(j, int(n), signs, log_r, log_n) for n in n_sites]
    return [SymmetricCorrelatedState(j, int(n), signs, *row) for n, *row in zip(n_sites, log_r, log_n.tolist())]


def _check_sites(n_sites: int) -> None:
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")


def _logsumexp(log_terms: np.ndarray, signs: np.ndarray | None = None):
    """log|sum_i s_i exp(t_i)| over the last axis, broadcast over the leading ones,
    with each row's largest term factored out (s_i = 1 when signs is None); -inf
    where every term is zero or they cancel exactly.  A 1-D input gives a float."""
    hi = log_terms.max(axis=-1, keepdims=True)
    terms = np.exp(log_terms - np.where(hi == -np.inf, 0.0, hi))
    total = (terms if signs is None else signs * terms).sum(axis=-1)
    with np.errstate(divide="ignore"):
        log_sum = hi[..., 0] + np.log(np.abs(total))
    return float(log_sum) if log_sum.ndim == 0 else log_sum


def _amplitudes(family: StateFamily, j: SpinQuantum) -> np.ndarray | None:
    """The amplitude vector r of family at spin j (None for Bosonic, whose r depends on
    N); ValueError where the family has no state of spin j."""
    if isinstance(family, Bosonic):
        return None
    if isinstance(family, UniformMax):
        return np.ones(j.dim)
    if isinstance(family, GeneralizedGHZ):
        if j.twice_j != 1:
            raise ValueError("GeneralizedGHZ requires spin 1/2 (twice_j = 1)")
        if not math.isfinite(family.theta):
            raise ValueError(f"GeneralizedGHZ theta must be finite, got {family.theta}")
        r = np.array([math.cos(family.theta), math.sin(family.theta)])
        r[np.abs(r) < 1e-15] = 0.0  # theta at 0 or pi/2 is an exact product state
        return r
    if isinstance(family, SpinOneR):
        if j.twice_j != 2:
            raise ValueError("SpinOneR requires spin 1 (twice_j = 2)")
        if not (family.r >= 0 and math.isfinite(family.r)):
            raise ValueError(f"SpinOneR amplitude must be finite and >= 0, got {family.r}")
        return np.array([1.0, family.r, 1.0])
    if not isinstance(family, Custom):
        raise TypeError(f"unknown state family: {family!r}")
    r = np.array(family.amplitudes, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("amplitudes must be finite")
    if r.shape != (j.dim,):
        raise ValueError(f"amplitude vector must have length d = {j.dim}, got shape {r.shape}")
    if not r.any():
        raise ValueError("amplitude vector must not be all zero")
    return r


def check_state(family: StateFamily, j: SpinQuantum, n_sites: int) -> None:
    """Raise what ``make_states`` raises for this N: family fits spin j, then N >= 2."""
    _amplitudes(family, j)
    _check_sites(n_sites)


def make_states(family: StateFamily, j: SpinQuantum, n_sites: list[int]) -> list[SymmetricCorrelatedState]:
    """The states of a family for spin j, one per N of n_sites, built in one pass: a
    family whose r does not depend on N gives them one shared signs/log|r| pair."""
    r = _amplitudes(family, j)
    if r is None:  # Bosonic: log r_m = (N-2)/2 * log((J-m)! (J+m)!); J -/+ m are the integers 2J-k, k
        log_fact = np.array([math.lgamma(v + 1) for v in range(j.dim)])
        half_n = 0.5 * (np.array(n_sites, dtype=float) - 2)
        return _from_logs(j, n_sites, np.ones(j.dim), half_n[:, None] * (log_fact[::-1] + log_fact))
    with np.errstate(divide="ignore"):
        return _from_logs(j, n_sites, np.sign(r), np.log(np.abs(r)))


def make_state(family: StateFamily, j: SpinQuantum, n_sites: int) -> SymmetricCorrelatedState:
    """Build the amplitude vector of a state family for spin j on n_sites sites."""
    return make_states(family, j, [n_sites])[0]


@dataclass(frozen=True)
class SupportVector:
    """The nonzero ``values`` of a unit-norm vector of ``size`` d^N, at ascending int64 flat ``index``.

    The oracle trusts the index and reads the values as complex128, so a malformed support
    is refused here with ValueError: values not complex128, or an index not a 1-D signed
    integer array, not strictly ascending, outside [0, size), or of another length than them.
    """

    index: np.ndarray
    values: np.ndarray
    size: int

    def __post_init__(self):
        index = self.index
        if not (isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind == "i"):
            raise ValueError("a support's index must be a 1-D signed integer array")
        if (index[1:] <= index[:-1]).any() or (index.size and not 0 <= index[0] <= index[-1] < self.size):
            raise ValueError(f"a support's index must be strictly ascending within [0, {self.size})")
        if np.shape(self.values) != index.shape:
            raise ValueError(f"a support has {index.size} indices but values of shape {np.shape(self.values)}")
        dtype = getattr(self.values, "dtype", type(self.values).__name__)
        if dtype != np.complex128:
            raise ValueError(f"a support's values must be complex128, not {dtype}")


def support_vector(state: SymmetricCorrelatedState) -> SupportVector:
    """The nonzero amplitudes of the unit-norm d^N product-basis vector.

    Index convention, fixed once here so the oracle and the states agree
    bit-exactly: site-major base-d digits, digit value m + J, so |J,m>^(x)N
    sits at (m+J) (d^N - 1)/(d - 1).  Component m is r_m / sqrt(n), through
    the log domain, and exact zeros are dropped.  d^N above 2^62 is refused,
    so that the indices stay within int64.
    """
    d, n = state.dim, state.n_sites
    _refuse_above(d, n, INDEX_RANGE, f"the oracle's int64 index range of 2^62 = {INDEX_RANGE}")
    amp = state.unit_amplitudes.astype(complex)
    keep = np.flatnonzero(amp)
    return SupportVector(keep * ((d**n - 1) // (d - 1)), amp[keep], d**n)


def dense_vector(state: SymmetricCorrelatedState) -> np.ndarray:
    """``support_vector`` scattered into the full complex d^N vector, of at most 2^20 amplitudes."""
    _refuse_above(state.dim, state.n_sites, 2**20, f"the cap of {2**20} amplitudes")
    sup = support_vector(state)
    vec = np.zeros(sup.size, dtype=complex)
    vec[sup.index] = sup.values
    vec.setflags(write=False)
    return vec
