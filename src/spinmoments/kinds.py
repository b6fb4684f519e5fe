"""Criterion kinds shared by the oracle and closed-form backends.

Kinds differ only in the bound moment R compared against the ladder moment
L = |<prod_k J_k^{s_k}>|^2:

* Bell            -- R = <prod_k (Jx_k^2 + Jy_k^2)>, no quantum site.
* EntanglementCJ  -- R = <prod_k (Jx_k^2 + Jy_k^2 - C_J)>, every site quantum.
* EntanglementHZ  -- R = <prod_k J_k^{l_k} J_k^{-l_k}>, signs l_k free.
* Steering(T, b)  -- first T sites carry the quantum bound b ('cj' or 'hz'),
                     the rest the plain Jx^2 + Jy^2 factor.  T = 0 reduces to
                     Bell, T = N to the matching entanglement kind; strict
                     steering semantics need 1 <= T <= N-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union


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


def canonical_l_signs(t_sites: int) -> tuple[int, ...]:
    """Canonical HZ bound signs: plus on the first quantum site, minus on the rest."""
    return (1,) + (-1,) * (t_sites - 1) if t_sites > 0 else ()


def uses_hz_bound(kind: CriterionKind) -> bool:
    return isinstance(kind, EntanglementHZ) or (isinstance(kind, Steering) and kind.bound == "hz")


def uses_cj_bound(kind: CriterionKind) -> bool:
    return isinstance(kind, EntanglementCJ) or (isinstance(kind, Steering) and kind.bound == "cj")


def kind_token(kind: CriterionKind) -> str:
    """Short CLI/CSV token, e.g. 'bell', 'ent-cj', 'epr1', 'epr2-hz'."""
    if isinstance(kind, Bell):
        return "bell"
    if isinstance(kind, EntanglementHZ):
        return "ent-hz"
    if isinstance(kind, EntanglementCJ):
        return "ent-cj"
    suffix = "" if kind.bound == "cj" else "-hz"
    return f"epr{kind.t_sites}{suffix}"


_EPR_RE = re.compile(r"^epr(\d+)(-hz)?$")


def parse_kind(token: str) -> CriterionKind:
    token = token.strip().lower()
    if token == "bell":
        return Bell()
    if token == "ent-hz":
        return EntanglementHZ()
    if token == "ent-cj":
        return EntanglementCJ()
    match = _EPR_RE.match(token)
    if match:
        return Steering(t_sites=int(match.group(1)), bound="hz" if match.group(2) else "cj")
    raise ValueError(
        f"unknown criterion kind {token!r}; expected bell, ent-hz, ent-cj, eprT or eprT-hz"
    )
