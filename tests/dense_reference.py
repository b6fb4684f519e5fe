"""Dense references for the oracle's banded ``expect_product`` and for ``compute_cj``.

Each site operator is built as a full d x d matrix and applied to its
tensor axis by ``tensordot`` + ``moveaxis``, one axis at a time, and the
result is closed with ``vdot``.  It reads nothing of the band structure
the package relies on, so the two routes check each other.  ``as_support``
hands the oracle any dense vector, its one input being a ``SupportVector``.
``dense_cj`` is C_J by dense d x d assembly, the reference for the
tridiagonal kernel's C_J.
"""

from __future__ import annotations

import math

import numpy as np

from spinmoments.oracle import SiteOp
from spinmoments.spin_algebra import (
    SpinQuantum,
    _cj_allowance,
    _lowering,
    build_spin_matrices,
    cj_bound,
    minimize_on_interval,
)
from spinmoments.states import SupportVector


def as_support(vec) -> SupportVector:
    """The ``np.flatnonzero`` amplitudes of a dense vector, as the oracle takes them."""
    flat = np.asarray(vec, dtype=complex).ravel()
    index = np.flatnonzero(flat)
    return SupportVector(index, flat[index], flat.size)


def site_matrix(op: SiteOp, j: SpinQuantum, *, scale: float) -> np.ndarray:
    mats = build_spin_matrices(j)
    xx_yy = mats.jx @ mats.jx + mats.jy @ mats.jy
    return {
        SiteOp.PLUS: scale * mats.jplus,
        SiteOp.MINUS: scale * mats.jminus,
        SiteOp.X2_PLUS_Y2: scale**2 * xx_yy,
        SiteOp.PLUS_MINUS: scale**2 * (mats.jplus @ mats.jminus),
        SiteOp.MINUS_PLUS: scale**2 * (mats.jminus @ mats.jplus),
        SiteOp.CJ_SHIFTED: scale**2 * (xx_yy - cj_bound(j).c_j * np.eye(j.dim)),
        SiteOp.IDENTITY: np.eye(j.dim, dtype=complex),
    }[op]


def dense_expect_product(vec, ops, j: SpinQuantum, *, scale=1.0) -> complex:
    """<psi| O_1 (x) ... (x) O_N |psi> by per-axis dense matrix application."""
    psi = np.asarray(vec, dtype=complex).reshape((j.dim,) * len(ops))
    phi = psi
    for k, op in enumerate(ops):
        mat = site_matrix(op, j, scale=scale)
        phi = np.moveaxis(np.tensordot(mat, phi, axes=(1, k)), 0, k)
    return complex(np.vdot(psi, phi))


def dense_cj(j: SpinQuantum) -> float:
    """C_J as ``compute_cj`` found it before its solves went through
    ``_tridiagonal_eigh``: the even block of H(a) assembled as dense matrices,
    base - a (2 Jx), and handed to ``numpy.linalg.eigh`` for each stack of a."""
    half = (j.dim + 1) // 2
    lowering = _lowering(j)
    off = lowering[: half - 1]
    if j.dim % 2:
        off[-1] *= math.sqrt(2)
    corner = 0.0 if j.dim % 2 else lowering[half - 1]
    two_jx = np.diag(off, 1) + np.diag(off, -1)
    two_jx[-1, -1] = corner
    base = np.diag(j.j * (j.j + 1) - j.m_values()[:half] ** 2)

    def lowest(a):
        a = np.asarray(a)
        w, v = np.linalg.eigh(base - a[..., None, None] * two_jx)
        x = v[..., 0]
        two_jx_x = 2 * np.sum(off * x[..., :-1] * x[..., 1:], axis=-1) + corner * x[..., -1] ** 2
        return w[..., 0] + a * a, 2 * a - two_jx_x

    _, floor = minimize_on_interval(lowest, 0.0, j.j)
    return floor - _cj_allowance(j)
