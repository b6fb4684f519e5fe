"""Brute-force moment evaluation on d^N vectors, as sums over their support.

The tags and R's layout come from ``kinds``; the sum, its band weights and the
0/0 rule of ``b_from_moments`` are this module's own.

In the |J,m> basis each site operator is one band (J- at offset +1, J+ at -1,
the rest diagonal), built in O(d) from J-'s elements (``spin_algebra._lowering``),
never from the closed forms: this is the ground truth they are tested against,
blind to the states' structure.  Reductions multiply and sum, never a BLAS dot,
whose fused multiply-add leaves a residue where a sum cancels to 0.

The one input is a ``states.SupportVector``: a state's at most d nonzero
amplitudes, never a d^N array (anything else raises TypeError).  ``expect_table``
gives every product over a tuple of alternative tags per site at once, as an
array with one axis per site, and ``expect_product`` is its one-choice call.  The
norm is checked on the amplitudes, and each entry sums psi_i prod_k W_k[m_k(i)]
conj(psi[i + sum_k delta_k d^(N-1-k)]) over them, W_k the band weights on all d
ket rows (0 off the band), delta_k the bra - ket row shift (|psi_i|^2 when all
are 0), each bra amplitude looked up in the ascending support (0 off it), in
about nnz x (entries + N) numbers.  The leading site tags come as a (rows x N)
code matrix, one table block per row: ``expect_table`` passes one row and
``bound_rows`` one per bound moment, so all of a state's R come from one pass.

Every zero-offset tag is diagonal and positive semidefinite (C_J lies below
every J(J+1) - m^2), so a table whose offsets are all 0 holds bound moments
R >= 0.  The kernel checks them there, once: a value below -IMAG_TOL raises
ArithmeticError, and rounding below 0 is clamped to 0.

The oracle's one limit is d^N <= 2^62, the flat int64 indices of
``states.support_vector``; d itself is unbounded.  C_J is always
``cj_bound(j).c_j``, read only for a table that holds the C_J-shifted tag: the
oracle takes no override, so it cannot be handed the same wrong C_J as the
closed forms it checks.

``scale`` multiplies the five spin matrices by a constant (ladder operators by
scale, quadratic products by scale^2, C_J rescaled accordingly).  scale = 2 turns
spin-1/2 operators into Pauli matrices; L and R pick up scale^(2N) while B is
unchanged, which is the unit-convention equivalence the tests pin down.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .kinds import CriterionKind, SiteOp, bound_tags, ladder_tags
from .spin_algebra import SpinQuantum, _lowering, cj_bound
from .states import SupportVector, SymmetricCorrelatedState, support_vector

IMAG_TOL = 1e-10
NORM_TOL = 1e-10


@lru_cache(maxsize=None)
def _site_bands(j: SpinQuantum, scale: float, cj: bool = False) -> tuple[dict[SiteOp, int], np.ndarray, np.ndarray]:
    """Tag -> row code; per row, in tag order with IDENTITY last, the band weights on all
    d ket rows (0 off the band) and the bra - ket row shift.  The C_J-shifted row is
    NaN unless ``cj`` is set, so ``cj_bound`` is read only for the tables that use it."""
    low = _lowering(j)
    lower, upper = np.append(0.0, low), np.append(low, 0.0)  # <m-1|J-|m>, <m+1|J+|m> on ket m
    xx_yy = (lower**2 + upper**2) / 2  # (J+J- + J-J+) / 2
    ops = (
        (SiteOp.PLUS, -1, scale * upper),
        (SiteOp.MINUS, 1, scale * lower),
        (SiteOp.X2_PLUS_Y2, 0, scale**2 * xx_yy),
        (SiteOp.PLUS_MINUS, 0, scale**2 * lower**2),
        (SiteOp.MINUS_PLUS, 0, scale**2 * upper**2),
        (SiteOp.CJ_SHIFTED, 0, scale**2 * (xx_yy - cj_bound(j).c_j) if cj else np.full(j.dim, np.nan)),
        (SiteOp.IDENTITY, 0, np.ones(j.dim)),
    )
    codes = {op: code for code, (op, _, _) in enumerate(ops)}
    return codes, np.array([band for _, _, band in ops]), -np.array([offset for _, offset, _ in ops])


def _size_of(state_vector: SupportVector) -> int:
    """d^N of a ``SupportVector``; anything else, an ndarray too, is refused."""
    if not isinstance(state_vector, SupportVector):
        raise TypeError(f"the oracle takes a states.SupportVector, not {type(state_vector).__name__}")
    return state_vector.size


def expect_table(
    state_vector: SupportVector,
    choices: Sequence[Sequence[SiteOp]],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """Every product <psi| O_1 (x) ... (x) O_N |psi> with O_k drawn from choices[k].

    Returns the array of shape (len(choices[0]), ..., len(choices[N-1])) whose
    entry (a_0, ..., a_{N-1}) takes choices[k][a_k] on site k, so with (plus,
    minus) alternatives on every site its C order is
    ``itertools.product((1, -1), repeat=N)``.  A site's alternatives may be any
    tags, but at least one.  When every offset is 0 (exactly the Hermitian
    products) the table is real and R >= 0.  The support's vector has length d^N.
    """
    size = _size_of(state_vector)
    n = len(choices)
    if n == 0 or j.dim**n != size:
        raise ValueError(f"vector has {size} amplitudes, expected d^N = {j.dim}^{n} = {j.dim**n}")
    if any(len(alts) == 0 for alts in choices):
        raise ValueError(f"site {[len(alts) for alts in choices].index(0)} has no alternative tags")
    codes, rows, shifts = _site_bands(j, float(scale), any(SiteOp.CJ_SHIFTED in alts for alts in choices))
    sites = [[codes[op] for op in alts] for alts in choices]
    lead = np.array([[alts[0] if len(alts) == 1 else -1 for alts in sites]])  # -1: IDENTITY
    return _support_table(state_vector, lead, sites, j.dim, rows, shifts).reshape(tuple(map(len, sites)))


def _check_norm(flat: np.ndarray) -> None:
    nrm = math.sqrt(flat @ flat)
    if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails this too
        raise ValueError(f"state vector must be normalised (|norm - 1| = {abs(nrm - 1.0):.3e})")


def _support_table(
    vec: SupportVector, lead: np.ndarray, sites: Sequence, d: int, rows: np.ndarray, shifts: np.ndarray
):
    """The table, flattened, as sums over psi's support (module docstring), one block per
    row of the (rows, N) leading site codes ``lead``; each site of ``sites`` with several
    alternative codes adds an axis, in site order.  Bound moments are clamped to R >= 0."""
    ket, amp = vec.index, vec.values
    _check_norm(amp.view(np.float64))
    place = d ** np.arange(lead.shape[1] - 1, -1, -1)
    digits = ket[:, None] // place % d
    acc = rows[lead[:, None], digits].prod(axis=-1)
    off = shifts[lead] @ place  # bra - ket per row; a bra off psi has weight 0
    for k, codes in enumerate(sites):
        if len(codes) > 1:
            acc = (acc[:, None] * rows[codes][:, digits[:, k]]).reshape(-1, len(ket))
            off = (off[:, None] + shifts[codes] * place[k]).ravel()
    if not off.any():
        values = (acc * (amp.real**2 + amp.imag**2)).sum(axis=-1)
        if np.any(values < -IMAG_TOL):
            raise ArithmeticError(f"bound moment came out negative ({np.min(values):.3e})")
        return np.maximum(values, 0.0)
    bra = ket + off[:, None]
    pos = np.searchsorted(ket, bra)
    pos[ket.take(pos, mode="clip") != bra] = len(ket)  # a bra off psi: the 0 appended below
    del bra, off  # freed before the complex entries x amplitudes products below
    acc = acc.astype(complex, order="C")  # products in place: mixed types or orders take buffers
    acc *= amp
    acc *= np.append(np.conj(amp), 0)[pos]
    return acc.sum(axis=-1)


def expect_product(
    state_vector: SupportVector, ops: Sequence[SiteOp], j: SpinQuantum, *, scale: float = 1.0
) -> complex:
    """<psi| O_1 (x) ... (x) O_N |psi>: the one-choice ``expect_table``."""
    return complex(expect_table(state_vector, [(op,) for op in ops], j, scale=scale).item())


def lhs_moment(state: SymmetricCorrelatedState, signs: Sequence[int], *, scale: float = 1.0) -> float:
    """L = |<prod_k J_k^{s_k}>|^2 for the given per-site ladder signs."""
    if len(signs) != state.n_sites:
        raise ValueError(f"signs must have length N = {state.n_sites}, got {len(signs)}")
    return abs(expect_product(support_vector(state), ladder_tags(signs), state.j, scale=scale)) ** 2


def rhs_moment(
    state: SymmetricCorrelatedState, kind: CriterionKind, *, l_signs: Sequence[int] | None = None, scale: float = 1.0
) -> float:
    """R = <prod of the kind's bound tags> >= 0."""
    return expect_product(support_vector(state), bound_tags(kind, state.n_sites, l_signs), state.j, scale=scale).real


def bound_rows(
    state_vector: SupportVector,
    tag_rows: Sequence[Sequence[SiteOp]],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """One bound moment R >= 0 per row of N zero-offset tags, all from one pass over
    psi's support: entry i is ``expect_product(state_vector, tag_rows[i], j,
    scale=scale).real``, so on a state's support ``rhs_moment`` of the kind whose
    bound tags are row i, bit for bit.  A ladder tag, a row whose length is not N or
    no row at all raises ValueError.
    """
    size = _size_of(state_vector)
    codes, rows, shifts = _site_bands(j, float(scale), any(SiteOp.CJ_SHIFTED in tags for tags in tag_rows))
    for tags in tag_rows or [()]:  # no row at all is refused as an empty one
        if not tags or j.dim ** len(tags) != size:
            n = len(tags)
            raise ValueError(f"a row of {n} tags needs d^N = {j.dim}^{n} amplitudes, the vector has {size}")
        if any(shifts[codes[op]] for op in tags):
            raise ValueError("bound_rows takes zero-offset (bound) tags, not ladder tags")
    lead = np.array([[codes[op] for op in tags] for tags in tag_rows])
    return _support_table(state_vector, lead, (), j.dim, rows, shifts)


def b_from_moments(lhs: float, rhs: float) -> float:
    """sqrt(L/R) with the 0-denominator conventions shared with analytic."""
    if rhs == 0.0:
        return math.nan if lhs == 0.0 else math.inf
    return math.sqrt(lhs / rhs)
