"""Criterion kinds: the one definition of each criterion's moments.

A criterion compares L = |<prod_k J_k^{s_k}>|^2 with a bound moment R whose
per-site factors encode the local model ruled out (Cavalcanti et al., PRL 99,
210405): quantum sites carry a quantum bound, the rest Jx^2 + Jy^2.

* Bell            -- R = <prod_k (Jx_k^2 + Jy_k^2)>, no quantum site.
* EntanglementCJ  -- R = <prod_k (Jx_k^2 + Jy_k^2 - C_J)>, every site quantum.
* EntanglementHZ  -- R = <prod_k J_k^{l_k} J_k^{-l_k}>, signs l_k free.
* Steering(T, b)  -- first T sites carry the quantum bound b ('cj' or 'hz'),
                     the rest the plain Jx^2 + Jy^2 factor.  T = 0 reduces to
                     Bell, T = N to the matching entanglement kind; strict
                     steering semantics need 1 <= T <= N-1.

R's canonical site layout is defined once, as ``bound_counts`` (sites per tag);
``canonical_signs`` and the oracle's per-site ``bound_tags`` are read off it, and
the closed forms raise each tag's eigenvalue factor to its count, over N arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np


class SiteOp(Enum):
    PLUS = "plus"                 # J+
    MINUS = "minus"               # J-
    X2_PLUS_Y2 = "xx+yy"          # Jx^2 + Jy^2
    PLUS_MINUS = "+-"             # J+ J-
    MINUS_PLUS = "-+"             # J- J+
    CJ_SHIFTED = "xx+yy-cj"       # Jx^2 + Jy^2 - C_J * I
    IDENTITY = "identity"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash runs Python code


@dataclass(frozen=True)
class Bell:
    pass


@dataclass(frozen=True)
class EntanglementHZ:
    pass


@dataclass(frozen=True)
class EntanglementCJ:
    pass


@dataclass(frozen=True)
class Steering:
    t_sites: int
    bound: str = "cj"

    def __post_init__(self):
        if self.t_sites < 0:
            raise ValueError(f"t_sites must be >= 0, got {self.t_sites}")
        if self.bound not in ("cj", "hz"):
            raise ValueError(f"bound must be 'cj' or 'hz', got {self.bound!r}")


CriterionKind = Union[Bell, EntanglementHZ, EntanglementCJ, Steering]


def quantum_sites(kind: CriterionKind, n_sites: int | np.ndarray) -> int | np.ndarray:
    """Number T of quantum-bounded sites for this kind on n_sites sites (an int,
    or elementwise over an array of N; T > N names the array's first such N)."""
    if isinstance(kind, Bell):
        return 0
    if isinstance(kind, (EntanglementHZ, EntanglementCJ)):
        return n_sites
    if isinstance(kind, Steering):
        t = kind.t_sites
        short = n_sites[n_sites < t] if isinstance(n_sites, np.ndarray) else [n_sites] * bool(n_sites < t)
        if len(short):
            raise ValueError(f"t_sites = {t} exceeds n_sites = {int(short[0])}")
        return t
    raise TypeError(f"unknown criterion kind: {kind!r}")


def _hz_bound(kind: CriterionKind) -> bool:
    return isinstance(kind, EntanglementHZ) or (isinstance(kind, Steering) and kind.bound == "hz")


def bound_counts(kind: CriterionKind, n_sites: int | np.ndarray) -> dict:
    """R's canonical layout: {tag: number of sites carrying it}, quantum tags first,
    for an int N or elementwise over an array of N.  HZ-type bounds put J+J- on
    the first quantum site (the one plus sign of the canonical l) and J-J+ on the
    rest; the other N - T sites carry Jx^2 + Jy^2.  A count may be 0."""
    t = quantum_sites(kind, n_sites)
    if _hz_bound(kind):
        plus = 1 * (t > 0)
        return {SiteOp.PLUS_MINUS: plus, SiteOp.MINUS_PLUS: t - plus, SiteOp.X2_PLUS_Y2: n_sites - t}
    return {SiteOp.CJ_SHIFTED: t, SiteOp.X2_PLUS_Y2: n_sites - t}


def canonical_signs(kind: CriterionKind, n_sites: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical (s, l): all-minus ladder signs s; l is read off ``bound_counts``,
    plus on its J+J- sites and minus on its J-J+ sites, plus first (empty unless
    the bound is HZ-type)."""
    counts = bound_counts(kind, n_sites)
    l = (1,) * counts.get(SiteOp.PLUS_MINUS, 0) + (-1,) * counts.get(SiteOp.MINUS_PLUS, 0)
    return (-1,) * n_sites, l


def bound_tags(kind: CriterionKind, n_sites: int, l_signs: Sequence[int] | None = None) -> list[SiteOp]:
    """Per-site tags of the bound moment R: ``bound_counts`` expanded.  Given l_signs,
    an HZ-type bound tags its quantum sites J+J- (plus) or J-J+ (minus) by them
    instead; other kinds ignore l_signs."""
    counts = bound_counts(kind, n_sites)
    if l_signs is None or not _hz_bound(kind):
        return [tag for tag, k in counts.items() for _ in range(k)]
    free = counts[SiteOp.X2_PLUS_Y2]
    if len(l_signs) != n_sites - free:
        raise ValueError(f"l_signs must have length {n_sites - free}, got {len(l_signs)}")
    return [SiteOp.PLUS_MINUS if s > 0 else SiteOp.MINUS_PLUS for s in l_signs] + [SiteOp.X2_PLUS_Y2] * free


def ladder_tags(signs: Sequence[int]) -> list[SiteOp]:
    """Per-site tags of the ladder product prod_k J_k^{s_k}."""
    return [SiteOp.PLUS if s > 0 else SiteOp.MINUS for s in signs]


_NAMED = {"bell": Bell, "ent-hz": EntanglementHZ, "ent-cj": EntanglementCJ}
_TOKENS = {cls: token for token, cls in _NAMED.items()}
_EPR_RE = re.compile(r"^epr(\d+)(-hz)?$")


def kind_token(kind: CriterionKind) -> str:
    """Short CLI/CSV token, e.g. 'bell', 'ent-cj', 'epr1', 'epr2-hz'."""
    if isinstance(kind, Steering):
        return f"epr{kind.t_sites}{'-hz' if kind.bound == 'hz' else ''}"
    return _TOKENS[type(kind)]


def parse_kind(token: str) -> CriterionKind:
    token = token.strip().lower()
    if token in _NAMED:
        return _NAMED[token]()
    match = _EPR_RE.match(token)
    if match:
        return Steering(t_sites=int(match.group(1)), bound="hz" if match.group(2) else "cj")
    raise ValueError(
        f"unknown criterion kind {token!r}; expected bell, ent-hz, ent-cj, eprT or eprT-hz"
    )
