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

Both backends take the canonical signs (``canonical_signs``) and R's site
layout (``bound_runs``) from here: the oracle expands the runs into per-site
tags, the closed forms raise each tag's eigenvalue factor to its run length.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union


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


def quantum_sites(kind: CriterionKind, n_sites: int) -> int:
    """Number T of quantum-bounded sites for this kind on n_sites sites."""
    if isinstance(kind, Bell):
        return 0
    if isinstance(kind, (EntanglementHZ, EntanglementCJ)):
        return n_sites
    if isinstance(kind, Steering):
        if kind.t_sites > n_sites:
            raise ValueError(f"t_sites = {kind.t_sites} exceeds n_sites = {n_sites}")
        return kind.t_sites
    raise TypeError(f"unknown criterion kind: {kind!r}")


def _hz_bound(kind: CriterionKind) -> bool:
    return isinstance(kind, EntanglementHZ) or (isinstance(kind, Steering) and kind.bound == "hz")


def canonical_signs(kind: CriterionKind, n_sites: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical (s, l): all-minus ladder signs s; for HZ-type bounds, l is
    plus on the first quantum site and minus on the rest (empty otherwise)."""
    t = quantum_sites(kind, n_sites)
    l = (1,) + (-1,) * (t - 1) if t and _hz_bound(kind) else ()
    return (-1,) * n_sites, l


def bound_runs(
    kind: CriterionKind, n_sites: int, l_signs: Sequence[int] | None = None
) -> list[tuple[SiteOp, int]]:
    """R's site layout as ordered runs (tag, number of sites), quantum sites first.

    HZ-type bounds turn the l-signs into J+J- (plus) / J-J+ (minus) tags; the
    default is the canonical l, kept as runs so the list stays O(1) in N.  Other
    kinds ignore l_signs.
    """
    t = quantum_sites(kind, n_sites)
    if not _hz_bound(kind):
        quantum = [(SiteOp.CJ_SHIFTED, t)]
    elif l_signs is None:
        quantum = [(SiteOp.PLUS_MINUS, min(t, 1)), (SiteOp.MINUS_PLUS, t - 1)]
    else:
        if len(l_signs) != t:
            raise ValueError(f"l_signs must have length {t}, got {len(l_signs)}")
        tags = (SiteOp.PLUS_MINUS if s > 0 else SiteOp.MINUS_PLUS for s in l_signs)
        quantum = [(tag, len(list(run))) for tag, run in itertools.groupby(tags)]
    return [(tag, k) for tag, k in quantum + [(SiteOp.X2_PLUS_Y2, n_sites - t)] if k > 0]


def bound_tags(
    kind: CriterionKind, n_sites: int, l_signs: Sequence[int] | None = None
) -> list[SiteOp]:
    """Per-site tags of the bound moment R: ``bound_runs`` expanded."""
    return [tag for tag, k in bound_runs(kind, n_sites, l_signs) for _ in range(k)]


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
