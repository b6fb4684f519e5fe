"""Brute-force moment evaluation on d^N vectors, one banded contraction.

The tags and R's layout come from ``kinds``; the contraction, its band weights
and the 0/0 rule of ``b_from_moments`` are this module's own.

In the |J,m> basis each site operator is one band (J- at offset +1, J+ at -1,
the rest diagonal), with weights read off ``build_spin_matrices``, never off the
closed forms: this is the ground truth they are tested against, blind to the
states' structure.  Reductions multiply and sum, never a BLAS dot, whose fused
multiply-add leaves a residue where a sum cancels to 0.

``expect_table`` is the one contraction: given a tuple of alternative tags per
site it returns every product at once, as an array with one axis per site, and
``expect_product`` is its one-choice call.  A state enters as its
``states.support_vector``, at most d nonzero amplitudes, and takes the support
route with no d^N array.  A dense vector's route is set by it and the table's
shape: a sum over psi's nonzero amplitudes costs about entries + N per
amplitude, so the support route runs when psi's nonzero 64-bit words times
(entries + N) are at most d^N.  One max over the words of each block of psi
(about 2^10 amplitudes) is both the route test and the support search, so psi
is read once: words are counted and amplitudes found only in the blocks it
hits, and more hit blocks than d^N / (entries + N) go dense at once.  The
support route checks the norm on the amplitudes and sums psi_i prod_k
W_k[m_k(i)] conj(psi[i + sum_k delta_k d^(N-1-k)]) over them, W_k the band
weights on all d ket rows (0 off the band), delta_k the bra - ket row shift
(|psi_i|^2 when all are 0), each bra amplitude looked up in the ascending
support (0 off it), holding a few numbers per entry and amplitude.  Its
leading site tags come as a (rows x N) code matrix, one table block per row:
``expect_table`` passes one row and ``bound_rows`` one per bound moment, so all
of a state's R come from one pass (digits, place values, norm check and clamp
once).  The dense route, for dense vectors on large supports, reads all of psi.
A bound table (every offset 0) is reduced leading site first: site 0 folds in
|psi|^2, squared from psi's float view block by block, and each later site is d
in-place multiply-adds; with at most d alternatives per site no output exceeds
d^N reals.  A ladder table reads psi through strided views, one axis per
alternative, and loops over the leading sites' alternatives so that no chunk
holds more than d^N complex products; the table itself has one entry per
pattern, 2^N <= d^N for sign patterns.  So an exhaustive sign search on a dense
vector stays within a few times its 16 d^N bytes, where gathering every pattern
at once would take (2 (d - 1))^N products.

C_J is always ``cj_bound(j).c_j``: the oracle takes no override, so it cannot
be handed the same wrong C_J as the closed forms it checks.

``scale`` multiplies the five spin matrices by a constant (ladder operators by
scale, quadratic products by scale^2, C_J rescaled accordingly).  scale = 2 turns
spin-1/2 operators into Pauli matrices; L and R pick up scale^(2N) while B is
unchanged, which is the unit-convention equivalence the tests pin down.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import kinds
from .kinds import SiteOp, bound_tags, ladder_tags
from .spin_algebra import SpinQuantum, build_spin_matrices, cj_bound
from .states import SupportVector, SymmetricCorrelatedState, support_vector

IMAG_TOL = 1e-10
NORM_TOL = 1e-10
_BLOCK = 1 << 13  # site-0 columns squared at a time, so the scratch stays in cache


@lru_cache(maxsize=None)
def _site_bands(j: SpinQuantum, scale: float) -> tuple[dict[SiteOp, tuple], np.ndarray, np.ndarray]:
    """Per tag (offset, bra rows, ket rows, weights, row): mat[bra, ket] = diag(weights), 0
    elsewhere; per row, in tag order with IDENTITY last, weights on all d ket rows, bra - ket shift."""
    mats = build_spin_matrices(j)
    xx_yy = mats.jx @ mats.jx + mats.jy @ mats.jy
    bands, rows = {}, np.zeros((len(SiteOp), j.dim))
    for op, offset, mat in (
        (SiteOp.PLUS, -1, scale * mats.jplus),
        (SiteOp.MINUS, 1, scale * mats.jminus),
        (SiteOp.X2_PLUS_Y2, 0, scale**2 * xx_yy),
        (SiteOp.PLUS_MINUS, 0, scale**2 * (mats.jplus @ mats.jminus)),
        (SiteOp.MINUS_PLUS, 0, scale**2 * (mats.jminus @ mats.jplus)),
        (SiteOp.CJ_SHIFTED, 0, scale**2 * (xx_yy - cj_bound(j).c_j * np.eye(j.dim))),
        (SiteOp.IDENTITY, 0, np.eye(j.dim)),
    ):
        band = np.diagonal(mat, offset)
        if np.any(mat != np.diag(band, offset)) or np.any(band.imag):
            raise ArithmeticError(f"{op.value} is not a real band at offset {offset}")
        bra, ket = (slice(max(k, 0), j.dim + min(k, 0)) for k in (-offset, offset))
        rows[len(bands), ket] = band.real
        bands[op] = (offset, bra, ket, np.array(band.real), len(bands))
    return bands, rows, -np.array([band[0] for band in bands.values()])


def expect_table(
    state_vector: np.ndarray | SupportVector,
    choices: Sequence[Sequence[SiteOp]],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """Every product <psi| O_1 (x) ... (x) O_N |psi> with O_k drawn from choices[k].

    Returns the array of shape (len(choices[0]), ..., len(choices[N-1])) whose
    entry (a_0, ..., a_{N-1}) takes choices[k][a_k] on site k, so with (plus,
    minus) alternatives on every site its C order is
    ``itertools.product((1, -1), repeat=N)``.  When every offset is 0 (exactly
    the Hermitian products) the table is real.  The module docstring gives the
    entries, support and dense.  The vector must have length d^N and unit norm.
    """
    sparse = isinstance(state_vector, SupportVector)
    vec = state_vector if sparse else np.asarray(state_vector, dtype=complex).ravel()
    d = j.dim
    n = len(choices)
    if n == 0 or d**n != vec.size:
        raise ValueError(f"vector has {vec.size} amplitudes, expected d^N = {d}^{n} = {d**n}")
    table, rows, shifts = _site_bands(j, float(scale))
    sites = [[table[op] for op in alts] for alts in choices]
    shape = tuple(map(len, sites))
    for alts in (alts for alts in sites if len(alts) > 1):  # each must be a stride of psi (_pattern_view)
        starts = [band[2].start for band in alts]
        if len({len(band[3]) for band in alts}) > 1 or len({b - a for a, b in zip(starts, starts[1:])}) > 1:
            raise ValueError("a site's alternatives must be bands of one length on evenly spaced rows")
    ket = vec.index if sparse else _support(vec, d, n, vec.size // (math.prod(shape) + n))
    if ket is not None:
        lead = np.array([[alts[0][4] if len(alts) == 1 else -1 for alts in sites]])  # -1: IDENTITY
        return _support_table(ket, vec.values if sparse else vec[ket], lead, sites, d, rows, shifts).reshape(shape)
    flat = vec.view(np.float64)
    _check_norm(flat)
    if not any(band[0] for alts in sites for band in alts):
        first, *later = map(np.atleast_2d, _weights(sites))
        out = _site0(flat.reshape(d, -1, 2), first)
        for w in later:  # each site's buffers die with its call
            out = _next_site(out.reshape(len(out), w.shape[1], -1), w)
        return out.reshape(shape)

    psi = vec.reshape((d,) * n)
    bra, ket = (_pattern_view(psi, sites, side) for side in (1, 2))
    weights = _weights(sites)
    size, lead = bra.size, 0
    while size > vec.size:  # with every site looped, size <= d^N
        size //= shape[lead]
        lead += 1
    out = np.empty(shape, dtype=complex)
    for combo in itertools.product(*map(range, shape[:lead])):
        index = tuple(a for a, alts in zip(combo, sites) if len(alts) > 1)
        acc = np.conj(bra[index])
        acc *= ket[index]
        chosen = [w[a] if w.ndim == 2 else w for w, a in zip(weights, combo)] + weights[lead:]
        out[combo] = _reduce(acc, chosen).reshape(shape[lead:])
    return out


def _check_norm(flat: np.ndarray) -> None:
    nrm = math.sqrt(flat @ flat)
    if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails this too
        raise ValueError(f"state vector must be normalised (|norm - 1| = {abs(nrm - 1.0):.3e})")


def _support(vec: np.ndarray, d: int, n: int, most: int) -> np.ndarray | None:
    """``np.flatnonzero(vec)`` if psi has at most ``most`` nonzero 64-bit words, else
    None, by the block search of the module docstring (in place when every block hits)."""
    blocks = vec.reshape(-1, d ** min(n, int(7 / math.log(d))))
    if len(blocks) == 1:
        return np.flatnonzero(vec != 0) if np.count_nonzero(vec.view(np.uint64)) <= most else None
    hit = np.flatnonzero(blocks.view(np.uint64).max(axis=1))
    if len(hit) > most:  # each hit block holds a nonzero word
        return None
    held = blocks if len(hit) == len(blocks) else blocks[hit]
    if np.count_nonzero(held.view(np.uint64)) > most:
        return None
    blk, col = np.divmod(np.flatnonzero(held != 0), blocks.shape[1])
    return hit[blk] * blocks.shape[1] + col


def _support_table(
    ket: np.ndarray, amp: np.ndarray, lead: np.ndarray, sites: Sequence, d: int, rows: np.ndarray, shifts: np.ndarray
):
    """The table, flattened, as sums over psi's nonzero amplitudes amp at ascending ket
    (module docstring), one block per row of the (rows, N) leading site codes ``lead``."""
    _check_norm(amp.view(np.float64))
    place = d ** np.arange(lead.shape[1] - 1, -1, -1)
    digits = ket[:, None] // place % d
    acc = rows[lead[:, None], digits].prod(axis=-1)
    off = shifts[lead] @ place  # bra - ket per row; a bra off psi has weight 0
    for k, alts in enumerate(sites):
        if len(alts) > 1:  # a new alternative axis, in site order
            codes = [band[4] for band in alts]
            acc = (acc[:, None] * rows[codes][:, digits[:, k]]).reshape(-1, len(ket))
            off = (off[:, None] + shifts[codes] * place[k]).ravel()
    if not off.any():
        return (acc * (amp.real**2 + amp.imag**2)).sum(axis=-1)
    bra = ket + off[:, None]
    pos = np.searchsorted(ket, bra)
    pos[ket.take(pos, mode="clip") != bra] = len(ket)  # a bra off psi: the 0 appended below
    del bra, off  # freed before the complex entries x amplitudes products below
    acc = acc.astype(complex, order="C")  # products in place: mixed types or orders take buffers
    acc *= amp
    acc *= np.append(np.conj(amp), 0)[pos]
    return acc.sum(axis=-1)


def _weights(sites: list[list[tuple]]) -> list[np.ndarray]:
    """Per site its band weights: (band,) for one alternative, else (alternatives, band)."""
    return [alts[0][3] if len(alts) == 1 else np.stack([band[3] for band in alts]) for alts in sites]


def _pattern_view(psi: np.ndarray, sites: list[list[tuple]], side: int) -> np.ndarray:
    """psi at the bra (side 1) or ket (side 2) rows of every band, as a read-only
    view: one alternative axis per site with several, in site order, then one
    band axis per site; each alternative axis is a stride of psi (J+ and J-
    are one row apart; diagonal alternatives repeat the same rows)."""
    base = psi[tuple(alts[0][side] for alts in sites)]
    shape, strides = [], []
    for alts, stride in zip(sites, psi.strides):
        if len(alts) > 1:
            shape.append(len(alts))
            strides.append((alts[1][side].start - alts[0][side].start) * stride)
    if not shape:
        return base
    return as_strided(base, tuple(shape) + base.shape, tuple(strides) + base.strides, writeable=False)


def _site0(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(alternatives, d^(N-1)) = sum_i w[:, i] |row i|^2, squared _BLOCK columns at a time."""
    out = np.zeros((len(w), rows.shape[1]))
    scratch = np.empty((min(_BLOCK, rows.shape[1]), 2))
    weighted = np.empty((len(w), len(scratch)))
    for start in range(0, rows.shape[1], _BLOCK):
        acc = out[:, start : start + _BLOCK]
        sq, tmp = scratch[: acc.shape[1]], weighted[:, : acc.shape[1]]
        for i, row in enumerate(rows[:, start : start + _BLOCK]):
            np.multiply(row, row, out=sq)
            acc += np.multiply(w[:, i, None], np.add(sq[:, 0], sq[:, 1], out=sq[:, 0]), out=tmp)
    return out


def _next_site(prev: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(patterns * alternatives, rest) = sum_i w[:, i] prev[:, i] for prev = (patterns, d, rest)."""
    out = np.zeros((len(prev), len(w), prev.shape[2]))
    tmp = np.empty_like(out)
    for i in range(w.shape[1]):
        out += np.multiply(prev[:, i, None], w[:, i, None], out=tmp)
    return out.reshape(-1, prev.shape[2])


def _reduce(acc: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Reduce acc's band axes, last site first, multiplying and summing.  An
    (alternatives, band) weight lines up with its site's alternative axis, so
    every product keeps acc's shape and is taken in place (acc is the caller's
    own buffer), and a band of length 1 is dropped rather than summed."""
    later = 0
    for k in reversed(range(len(weights))):
        w = weights[k]
        if w.ndim == 2:  # (alternatives, band) against acc's last k + 1 + later axes
            w = w.reshape((w.shape[0],) + (1,) * (later + k) + (w.shape[1],))
            later += 1
        acc *= w
        acc = acc[..., 0] if acc.shape[-1] == 1 else acc.sum(axis=-1)
    return acc


def expect_product(
    state_vector: np.ndarray | SupportVector,
    ops: Sequence[SiteOp],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> complex:
    """<psi| O_1 (x) ... (x) O_N |psi>: the one-choice ``expect_table``."""
    return complex(expect_table(state_vector, [(op,) for op in ops], j, scale=scale).item())


def lhs_moment(
    state: SymmetricCorrelatedState,
    signs: Sequence[int],
    *,
    cap: int | None = None,
    scale: float = 1.0,
) -> float:
    """L = |<prod_k J_k^{s_k}>|^2 for the given per-site ladder signs."""
    if len(signs) != state.n_sites:
        raise ValueError(f"signs must have length N = {state.n_sites}, got {len(signs)}")
    vec = support_vector(state, cap=cap)
    value = expect_product(vec, ladder_tags(signs), state.j, scale=scale)
    return abs(value) ** 2


def rhs_moment(
    state: SymmetricCorrelatedState,
    kind: kinds.CriterionKind,
    *,
    l_signs: Sequence[int] | None = None,
    cap: int | None = None,
    scale: float = 1.0,
) -> float:
    """R for the criterion kind (see ``bound_expectation``)."""
    vec = support_vector(state, cap=cap)
    tags = bound_tags(kind, state.n_sites, l_signs)
    return bound_expectation(vec, tags, state.j, scale=scale)


def bound_expectation(
    state_vector: np.ndarray | SupportVector,
    tags: Sequence[SiteOp],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> float:
    """A bound moment R = <prod of bound tags> (see ``bound_table``)."""
    return float(_nonnegative(expect_product(state_vector, tags, j, scale=scale).real))


def bound_rows(
    state_vector: np.ndarray | SupportVector,
    tag_rows: Sequence[Sequence[SiteOp]],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """One clamped bound moment R per row of N zero-offset tags, all from one pass over
    psi's support: on a state's support, entry i is ``bound_expectation(state_vector,
    tag_rows[i], j, scale=scale)`` bit for bit.  A ladder tag, a row whose length is
    not N or no row at all raises ValueError.  An ndarray enters by its nonzero
    support, with no route rule: the pass holds about rows x N numbers per amplitude.
    """
    sparse = isinstance(state_vector, SupportVector)
    vec = state_vector if sparse else np.asarray(state_vector, dtype=complex).ravel()
    table, rows, shifts = _site_bands(j, float(scale))
    for tags in tag_rows or [()]:  # no row at all is refused as an empty one
        if not tags or j.dim ** len(tags) != vec.size:
            n = len(tags)
            raise ValueError(f"a row of {n} tags needs d^N = {j.dim}^{n} amplitudes, the vector has {vec.size}")
        if any(table[op][0] for op in tags):
            raise ValueError("bound_rows takes zero-offset (bound) tags, not ladder tags")
    lead = np.array([[table[op][4] for op in tags] for tags in tag_rows])
    ket = vec.index if sparse else np.flatnonzero(vec)
    amp = vec.values if sparse else vec[ket]
    return _nonnegative(_support_table(ket, amp, lead, (), j.dim, rows, shifts))


def bound_table(state_vector: np.ndarray | SupportVector, choices: Sequence[Sequence[SiteOp]], j: SpinQuantum) -> np.ndarray:
    """Every bound moment R over the per-site choices (see ``expect_table``).

    Every factor operator is positive semidefinite, so a genuinely negative
    entry can only mean an internal error and raises; rounding below zero is
    clamped to 0.
    """
    return _nonnegative(expect_table(state_vector, choices, j).real)


def _nonnegative(values):
    """The bound moments, checked and clamped (see ``bound_table``)."""
    if np.any(values < -IMAG_TOL):
        raise ArithmeticError(f"bound moment came out negative ({np.min(values):.3e})")
    return np.maximum(values, 0.0)


def b_from_moments(lhs: float, rhs: float) -> float:
    """sqrt(L/R) with the 0-denominator conventions shared with analytic."""
    if rhs == 0.0:
        return math.nan if lhs == 0.0 else math.inf
    return math.sqrt(lhs / rhs)
