"""Brute-force moment evaluation on dense d^N vectors, one banded contraction.

The tags and R's layout come from ``kinds``; the contraction, its band weights
and the 0/0 rule of ``b_from_moments`` are this module's own.

In the |J,m> basis each site operator is one band (J- at offset +1, J+ at -1,
the rest diagonal), with weights read off ``build_spin_matrices``, never off the
closed forms: this is the ground truth they are tested against, blind to the
states' structure.  A ladder product allocates prod_k (d - |offset_k|) complex
amplitudes; a bound moment R folds |psi|^2 into its first reduction on the float
view of psi and allocates d^(N-1) reals.  Reductions multiply and sum, never a
BLAS dot, whose fused multiply-add leaves a residue where a sum cancels to 0.

C_J is always ``cj_bound(j).c_j``: the oracle takes no override, so it cannot
be handed the same wrong C_J as the closed forms it checks.

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

from . import kinds
from .kinds import SiteOp, bound_tags, ladder_tags
from .spin_algebra import SpinQuantum, build_spin_matrices, cj_bound
from .states import SymmetricCorrelatedState, dense_vector

IMAG_TOL = 1e-10
NORM_TOL = 1e-10


@lru_cache(maxsize=None)
def _site_bands(j: SpinQuantum, scale: float) -> dict[SiteOp, tuple]:
    """Per tag (offset, bra rows, ket rows, weights): mat[bra, ket] = diag(weights), 0 elsewhere."""
    mats = build_spin_matrices(j)
    xx_yy = mats.jx @ mats.jx + mats.jy @ mats.jy
    bands = {}
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
        bands[op] = (offset, bra, ket, np.array(band.real))
    return bands


def expect_product(
    state_vector: np.ndarray,
    ops: Sequence[SiteOp],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> complex:
    """<psi| O_1 (x) ... (x) O_N |psi>: conj(psi[bra rows]) * psi[ket rows] reduced last
    axis first against the band weights.  When every offset is 0 (exactly the
    Hermitian products) the reduction runs on the real |psi|^2, so the value is
    real by construction.  The vector must have length d^N and unit norm."""
    vec = np.asarray(state_vector, dtype=complex).ravel()
    d = j.dim
    n = len(ops)
    if n == 0 or d**n != vec.size:
        raise ValueError(f"vector has {vec.size} amplitudes, expected d^N = {d}^{n} = {d**n}")
    flat = vec.view(np.float64)
    nrm = math.sqrt(flat @ flat)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"state vector must be normalised (|norm - 1| = {abs(nrm - 1.0):.3e})")

    table = _site_bands(j, float(scale))
    offsets, bra, ket, weights = zip(*[table[op] for op in ops])
    if not any(offsets):
        pair = flat.reshape((d,) * n + (2,))
        acc = np.einsum("...ik,...ik,i->...", pair, pair, weights[-1])
        weights = weights[:-1]
    else:
        psi = vec.reshape((d,) * n)
        acc = np.conj(psi[bra]) * psi[ket]
    for w in reversed(weights):
        acc = (acc * w).sum(axis=-1)
    return complex(acc)


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
    vec = dense_vector(state, cap=cap)
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
    vec = dense_vector(state, cap=cap)
    tags = bound_tags(kind, state.n_sites, l_signs)
    return bound_expectation(vec, tags, state.j, scale=scale)


def bound_expectation(
    state_vector: np.ndarray,
    tags: Sequence[SiteOp],
    j: SpinQuantum,
    *,
    scale: float = 1.0,
) -> float:
    """A bound moment R = <prod of bound tags>: real, non-negative by construction.

    Every factor operator is positive semidefinite, so a genuinely negative
    expectation can only mean an internal error and raises; rounding below
    zero is clamped to 0.
    """
    value = expect_product(state_vector, tags, j, scale=scale).real
    if value < -IMAG_TOL:
        raise ArithmeticError(f"bound moment came out negative ({value:.3e})")
    return max(value, 0.0)


def b_from_moments(lhs: float, rhs: float) -> float:
    """sqrt(L/R) with the 0-denominator conventions shared with analytic."""
    if rhs == 0.0:
        return math.nan if lhs == 0.0 else math.inf
    return math.sqrt(lhs / rhs)
