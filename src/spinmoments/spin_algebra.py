"""Spin-J operator matrices and the conjugate-spin uncertainty floor C_J.

Spin quantum numbers are carried around as the integer ``twice_j`` (so
J = twice_j/2 is exact and half-integers never touch floating point in any
interface).  All operators are dimensionless (hbar = 1): the spin-1/2
matrices are the Pauli matrices divided by two.

C_J is the minimum of Var(Jx) + Var(Jy) over pure spin-J states.  It is
strictly positive because Jx and Jy have no common eigenstate.  The exact
values 1/4 and 7/16 serve J = 1/2 and 1; every larger J gets a certified
lower bound from a 1-D minimisation of the lowest eigenvalue of a
tridiagonal matrix (``compute_cj``, through ``_tridiagonal_eigh``).  The
quoted literature values are kept in ``_CJ_TABLE`` as a reference only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SpinQuantum:
    """A spin quantum number J stored exactly as twice_j = 2J."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)) or isinstance(self.twice_j, bool):
            raise TypeError(f"twice_j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 1:
            raise ValueError("twice_j must be >= 1; spin 0 has no conjugate spin pair")

    @property
    def dim(self) -> int:
        """Local Hilbert-space dimension d = 2J + 1."""
        return self.twice_j + 1

    @property
    def j(self) -> float:
        """J as a float, for arithmetic only (exact: halves are representable)."""
        return self.twice_j / 2

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers m = -J..+J, ascending."""
        return (2 * np.arange(self.dim) - self.twice_j) / 2


@dataclass(frozen=True, eq=False)
class SpinMatrices:
    """Dense complex d x d representations of Jx, Jy, Jz, J+, J-."""

    j: SpinQuantum
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray


def _lowering(j: SpinQuantum) -> np.ndarray:
    """<m-1|J-|m> = sqrt((J+m)(J-m+1)) for m = -J+1..+J, ascending."""
    m = j.m_values()[1:]
    return np.sqrt((j.j + m) * (j.j - m + 1))


def build_spin_matrices(j: SpinQuantum) -> SpinMatrices:
    """Construct the spin-J matrices in the |J,m> basis ordered m = -J..+J.

    jz is diagonal with entries m, and the lowering operator has
    <m-1|J-|m> = sqrt((J+m)(J-m+1)).  jx = (J+ + J-)/2, jy = (J+ - J-)/2i.
    """
    jz = np.diag(j.m_values()).astype(complex)
    jminus = np.diag(_lowering(j), 1).astype(complex)
    jplus = jminus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    for arr in (jx, jy, jz, jplus, jminus):
        arr.setflags(write=False)
    return SpinMatrices(j=j, jx=jx, jy=jy, jz=jz, jplus=jplus, jminus=jminus)


class BoundSource(Enum):
    TABULATED = "tabulated"
    COMPUTED = "computed"


@dataclass(frozen=True)
class UncertaintyBound:
    """Lower bound c_j of Var(Jx) + Var(Jy) for spin j."""

    j: SpinQuantum
    c_j: float
    source: BoundSource


# C_J as quoted in the literature, keyed by twice_j, kept as the reference
# the computed floor is checked against.  1/4 and 7/16 are exact; the rest
# are quoted to the available precision and may sit above the true floor
# (2J = 4 by 4.7e-5), so only the exact entries are ever used as bounds.
_CJ_TABLE = {
    1: 1 / 4,
    2: 7 / 16,
    3: 0.6009,
    4: 0.7496,
    5: 0.8877,
    6: 1.0178,
    7: 1.1416,
    8: 1.26,
}

_EXACT_TWICE_J = (1, 2)

_GRID_POINTS = 65  # grid of minimize_on_interval


def minimize_on_interval(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of a unimodal f on [lo, hi], where f(x)
    returns (value, slope) and broadcasts: one call on the 65-point grid
    locates the basin, and Brent's zeroin (Algorithms for Minimization
    without Derivatives, 1973, ch. 4) on the slope polishes it inside the
    grid cell where the slope changes sign, down to a bracket of 1e-15 +
    4.5e-16 |x|.  The better of the polished point and the grid minimum is
    returned; a grid minimum whose slope points out of [lo, hi] is returned
    as it is.  It is the one search of ``compute_cj`` and the optimiser."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    values, slopes = f(grid)
    k = int(np.argmin(values))
    n = k + 1 if slopes[k] < 0 else k - 1  # the neighbour the slope descends to
    if not 0 <= n < _GRID_POINTS or slopes[n] * slopes[k] >= 0:
        return float(grid[k]), float(values[k])
    a = c = (float(grid[n]), float(slopes[n]), float(values[n]))  # (x, slope, value)
    b = (float(grid[k]), float(slopes[k]), float(values[k]))
    d = e = b[0] - a[0]
    while True:
        if (b[1] > 0) == (c[1] > 0):  # keep the root between b and c
            c, d = a, b[0] - a[0]
            e = d
        if abs(c[1]) < abs(b[1]):
            a, b, c = b, c, b
        tol = 0.5e-15 + 2.25e-16 * abs(b[0])
        m = 0.5 * (c[0] - b[0])
        if abs(m) <= tol or b[1] == 0:
            break
        step = m
        if abs(e) >= tol and abs(a[1]) > abs(b[1]):  # secant, or inverse quadratic
            s = b[1] / a[1]
            if a[0] == c[0]:
                p, q = 2 * m * s, 1 - s
            else:
                q, r = a[1] / c[1], b[1] / c[1]
                p = s * (2 * m * q * (q - r) - (b[0] - a[0]) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            p, q = abs(p), (-q if p > 0 else q)
            if 2 * p < min(3 * m * q - abs(tol * q), abs(e * q)):
                step = p / q
        e, d = (d, step) if step != m else (m, m)  # bisect unless an interpolation was taken
        a, x = b, b[0] + (d if abs(d) > tol else math.copysign(tol, m))
        value, slope = f(x)
        b = (x, float(slope), float(value))
    return (b[0], b[2]) if b[2] < values[k] else (float(grid[k]), float(values[k]))


def _tridiagonal_eigh(diag, off):
    """``numpy.linalg.eigh`` of the stacked symmetric tridiagonals diag (..., k), off (..., k - 1)."""
    k = diag.shape[-1]
    t = np.zeros(diag.shape[:-1] + (k * k,))  # flat k x k, through strides: diagonal, then both off-diagonals
    t[..., :: k + 1] = diag
    t[..., 1 :: k + 1] = t[..., k :: k + 1] = off
    return np.linalg.eigh(t.reshape(diag.shape + (k,)))


@lru_cache(maxsize=None)
def cj_bound(j: SpinQuantum) -> UncertaintyBound:
    """Return C_J: exact for J <= 1, otherwise the computed lower bound, computed once per J."""
    if j.twice_j in _EXACT_TWICE_J:
        return UncertaintyBound(j=j, c_j=_CJ_TABLE[j.twice_j], source=BoundSource.TABULATED)
    return compute_cj(j)


def _cj_allowance(j: SpinQuantum) -> float:
    """Margin subtracted from the located minimum to make it a lower bound.

    It covers the eigenvalue rounding, a few ulps of ||H|| ~ J(J+1), and
    the error of the located minimum: H'' = 2, so d^2 lambda_min / da^2 <= 2
    and a minimiser off by delta <= 1e-15 + 4.5e-16 J (the zeroin bracket
    of ``minimize_on_interval``) is high by at most delta^2 ~ 1e-30 J^2.
    Both sit at least three orders of magnitude below the allowance, which
    stays at or below 1e-9 while J(J+1) <= 1000 (2J <= 62).
    """
    return 1e-12 * max(1.0, j.j * (j.j + 1))


def compute_cj(j: SpinQuantum) -> UncertaintyBound:
    """Certified lower bound on C_J = min over states of Var(Jx) + Var(Jy).

    Var(Jx) + Var(Jy) = min over (a, b) of <(Jx - a)^2 + (Jy - b)^2>, and a
    rotation about z sets b = 0 and a >= 0, so (Hofmann and Takeuchi, PRA
    68, 032103)

        C_J = min over a in [0, J] of lambda_min(H(a)),
        H(a) = (Jx - a)^2 + Jy^2 = J(J+1) - Jz^2 - 2a Jx + a^2,

    a real symmetric tridiagonal matrix in the |J,m> basis, solved by
    ``_tridiagonal_eigh``.  H(a) commutes with m -> -m, and for a >= 0 its
    off-diagonals are <= 0, so its ground state is even (Perron-Frobenius; at
    a = 0 the even combination of |+-J> reaches the degenerate minimum):
    lambda_min is taken on the even block of size ceil(d/2), in the basis
    (|m> + |-m>)/sqrt(2), m < 0, plus |0> for integer J.  ``minimize_on_interval``
    locates its single basin in a by the Hellmann-Feynman slope 2a - x^T (2 Jx) x,
    x the unit lowest eigenvector; the returned value is that minimum less
    ``_cj_allowance``, so it never exceeds the true floor.
    """
    half = (j.dim + 1) // 2
    lowering = _lowering(j)  # <m-1|J-|m> = 2 <m-1|Jx|m>
    off = lowering[: half - 1]  # 2 Jx on the even block
    if j.dim % 2:
        off[-1] *= math.sqrt(2)  # the link to the unpaired |0>
    corner = np.append(np.zeros(half - 1), 0.0 if j.dim % 2 else lowering[half - 1])  # 2 Jx's diagonal: +-1/2's link
    base = j.j * (j.j + 1) - j.m_values()[:half] ** 2

    def lowest(a):  # (lambda_min + a^2, its slope in a), one stacked solve for an array of a
        a = np.asarray(a)
        w, v = _tridiagonal_eigh(base - a[..., None] * corner, 0.0 - a[..., None] * off)
        x = v[..., 0]  # x^T (2 Jx) x summed elementwise: a stack's rows equal single solves
        two_jx_x = 2 * np.sum(off * x[..., :-1] * x[..., 1:], axis=-1) + corner[-1] * x[..., -1] ** 2
        return w[..., 0] + a * a, 2 * a - two_jx_x

    _, floor = minimize_on_interval(lowest, 0.0, j.j)
    return UncertaintyBound(j=j, c_j=floor - _cj_allowance(j), source=BoundSource.COMPUTED)
