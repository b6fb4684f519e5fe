"""Spin-J operator matrices and the conjugate-spin uncertainty floor C_J.

Spin quantum numbers are carried around as the integer ``twice_j`` (so
J = twice_j/2 is exact and half-integers never touch floating point in any
interface).  All operators are dimensionless (hbar = 1): the spin-1/2
matrices are the Pauli matrices divided by two.

C_J is the minimum of Var(Jx) + Var(Jy) over pure spin-J states.  It is
strictly positive because Jx and Jy have no common eigenstate.  The exact
values 1/4 and 7/16 serve J = 1/2 and 1; every larger J gets a certified
lower bound from a 1-D minimisation of the lowest eigenvalue of a
tridiagonal matrix (see ``compute_cj``).  The quoted literature values are
kept in ``_CJ_TABLE`` as a reference only.
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


def build_spin_matrices(j: SpinQuantum) -> SpinMatrices:
    """Construct the spin-J matrices in the |J,m> basis ordered m = -J..+J.

    jz is diagonal with entries m, and the lowering operator has
    <m-1|J-|m> = sqrt((J+m)(J-m+1)).  jx = (J+ + J-)/2, jy = (J+ - J-)/2i.
    """
    d = j.dim
    jv = j.j
    m = j.m_values()
    jz = np.diag(m).astype(complex)
    jminus = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        jminus[k - 1, k] = math.sqrt((jv + m[k]) * (jv - m[k] + 1))
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

_GRID_POINTS = 65  # grid of minimize_on_interval and of the optimiser's log-c search
_INV_PHI = (math.sqrt(5) - 1) / 2  # golden-section step


def minimize_on_interval(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the minimum of a unimodal f on [lo, hi]: a grid locates
    the basin, a golden-section search polishes it within the two
    neighbouring cells down to a bracket of 1e-12 + 3e-8 |x|, and the better
    of the two points is returned.  f must broadcast numpy-style: it is
    called once on the whole grid array, then on scalars.  It is
    ``compute_cj``'s search only; the optimiser polishes its log-c grid by the
    slope (``optimizer._search_log_c``)."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    values = f(grid)
    k = int(np.argmin(values))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, _GRID_POINTS - 1)]
    c, e = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fe = f(c), f(e)
    while b - a > 1e-12 + 3e-8 * abs(c):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INV_PHI * (b - a)
            fe = f(e)
    x, fx = (c, fc) if fc <= fe else (e, fe)
    if fx < values[k]:
        return float(x), float(fx)
    return float(grid[k]), float(values[k])


@lru_cache(maxsize=None)
def cj_bound(j: SpinQuantum) -> UncertaintyBound:
    """Return C_J: exact for J <= 1, otherwise the computed lower bound."""
    if j.twice_j in _EXACT_TWICE_J:
        return UncertaintyBound(j=j, c_j=_CJ_TABLE[j.twice_j], source=BoundSource.TABULATED)
    return compute_cj(j)


def _cj_allowance(j: SpinQuantum) -> float:
    """Margin subtracted from the located minimum to make it a lower bound.

    It covers the eigenvalue rounding, a few ulps of ||H|| ~ J(J+1), and
    the error of the located minimum: H'' = 2, so d^2 lambda_min / da^2 <= 2
    and a minimiser off by delta <= 1e-12 + 3e-8 J (the golden-section
    bracket of ``minimize_on_interval``) is high by at most delta^2 ~
    1e-15 J^2.  Both sit three orders of magnitude below the allowance,
    which stays at or below 1e-9 while J(J+1) <= 1000 (2J <= 62).
    """
    return 1e-12 * max(1.0, j.j * (j.j + 1))


@lru_cache(maxsize=None)
def compute_cj(j: SpinQuantum) -> UncertaintyBound:
    """Certified lower bound on C_J = min over states of Var(Jx) + Var(Jy).

    Var(Jx) + Var(Jy) = min over (a, b) of <(Jx - a)^2 + (Jy - b)^2>, and a
    rotation about z sets b = 0 and a >= 0, so (Hofmann and Takeuchi, PRA
    68, 032103)

        C_J = min over a in [0, J] of lambda_min(H(a)),
        H(a) = (Jx - a)^2 + Jy^2 = J(J+1) - Jz^2 - 2a Jx + a^2,

    a real symmetric tridiagonal matrix in the |J,m> basis.  H(a) commutes
    with m -> -m, and for a >= 0 its off-diagonals are <= 0, so its ground
    state is even (Perron-Frobenius; at a = 0 the even combination of
    |+-J> reaches the degenerate minimum): lambda_min is taken on the even
    block of size ceil(d/2), in the basis (|m> + |-m>)/sqrt(2), m < 0, plus
    |0> for integer J.  ``minimize_on_interval`` locates its single basin
    in a; the returned value is that minimum less ``_cj_allowance``, so it
    never exceeds the true floor.
    """
    jv = j.j
    m = j.m_values()
    half = (j.dim + 1) // 2
    lowering = np.sqrt((jv + m[1:]) * (jv - m[1:] + 1))  # <m-1|J-|m> = 2 <m-1|Jx|m>
    base = np.diag(jv * (jv + 1) - m[:half] ** 2)
    two_jx = np.diag(lowering[: half - 1], 1)  # 2 Jx on the even block
    if j.dim % 2:
        two_jx[-2, -1] *= math.sqrt(2)  # the link to the unpaired |0>
    two_jx = two_jx + two_jx.T
    if not j.dim % 2:
        two_jx[-1, -1] = lowering[half - 1]  # the |-1/2> <-> |+1/2> link, inside one pair

    def lowest(a):  # broadcasts: one stacked eigvalsh for an array of a
        a = np.asarray(a)
        return np.linalg.eigvalsh(base - a[..., None, None] * two_jx)[..., 0] + a * a

    _, floor = minimize_on_interval(lowest, 0.0, jv)
    return UncertaintyBound(j=j, c_j=floor - _cj_allowance(j), source=BoundSource.COMPUTED)
