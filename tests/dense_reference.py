"""Dense reference contraction for the oracle's banded ``expect_product``.

Each site operator is built as a full d x d matrix and applied to its
tensor axis by ``tensordot`` + ``moveaxis``, one axis at a time, and the
result is closed with ``vdot``.  It reads nothing of the band structure
the package relies on, so the two routes check each other.
"""

from __future__ import annotations

import numpy as np

from spinmoments.oracle import SiteOp
from spinmoments.spin_algebra import SpinQuantum, build_spin_matrices, cj_bound


def site_matrix(op: SiteOp, j: SpinQuantum, *, c_j: float, scale: float) -> np.ndarray:
    mats = build_spin_matrices(j)
    xx_yy = mats.jx @ mats.jx + mats.jy @ mats.jy
    return {
        SiteOp.PLUS: scale * mats.jplus,
        SiteOp.MINUS: scale * mats.jminus,
        SiteOp.X2_PLUS_Y2: scale**2 * xx_yy,
        SiteOp.PLUS_MINUS: scale**2 * (mats.jplus @ mats.jminus),
        SiteOp.MINUS_PLUS: scale**2 * (mats.jminus @ mats.jplus),
        SiteOp.CJ_SHIFTED: scale**2 * (xx_yy - c_j * np.eye(j.dim)),
        SiteOp.IDENTITY: np.eye(j.dim, dtype=complex),
    }[op]


def dense_expect_product(vec, ops, j: SpinQuantum, *, c_j=None, scale=1.0) -> complex:
    """<psi| O_1 (x) ... (x) O_N |psi> by per-axis dense matrix application."""
    if c_j is None:
        c_j = cj_bound(j).c_j
    psi = np.asarray(vec, dtype=complex).reshape((j.dim,) * len(ops))
    phi = psi
    for k, op in enumerate(ops):
        mat = site_matrix(op, j, c_j=c_j, scale=scale)
        phi = np.moveaxis(np.tensordot(mat, phi, axes=(1, k)), 0, k)
    return complex(np.vdot(psi, phi))
