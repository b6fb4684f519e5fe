"""Reference values the benchmark checks outputs against.

Nothing here imports spinmoments: the C_J floor is recomputed by its own
route, and the other values are closed forms or published figures.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

# C_J as quoted in the literature, keyed by 2J, with half a unit in the
# last quoted digit as the tolerance (1/4 and 7/16 are exact).
QUOTED_CJ = {
    1: (0.25, 1e-12),
    2: (7 / 16, 1e-12),
    3: (0.6009, 5e-5),
    4: (0.7496, 5e-5),
    5: (0.8877, 5e-5),
    6: (1.0178, 5e-5),
    7: (1.1416, 5e-5),
    8: (1.26, 5e-3),
}

# Smallest N with a Bell violation for optimised correlated states, per d.
BELL_MIN_SITES = {2: 3, 3: 3, 4: 8}

# B of the spin-1 state (1, 1, 1) under the HZ entanglement bound.
SPIN1_UNIFORM_HZ_B = 2 / math.sqrt(3)


def ghz_ladder_moment(theta: float) -> float:
    """L = |<J+ ... J+>|^2 = (cos(theta) sin(theta))^2 for spin-1/2 GHZ."""
    return (math.cos(theta) * math.sin(theta)) ** 2


def _jx_and_jx2_plus_jy2(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """Real Jx and Jx^2 + Jy^2 = J(J+1) - Jz^2 in the |J,m> basis."""
    j = twice_j / 2
    m = np.arange(twice_j + 1) - j
    lower = np.sqrt((j + m[1:]) * (j - m[1:] + 1))  # <m-1|J-|m>
    jx = (np.diag(lower, 1) + np.diag(lower, -1)) / 2
    return jx, np.diag(j * (j + 1) - m * m)


def cj_floor(twice_j: int) -> float:
    """min over a of the lowest eigenvalue of (Jx - a)^2 + Jy^2.

    Var(Jx) + Var(Jy) = min over (a, b) of <(Jx - a)^2 + (Jy - b)^2>, and a
    rotation about z sets b = 0, so this is the floor C_J.  A grid over
    a in [0, J] picks the basin, a bounded scalar search polishes it.
    """
    jx, xy = _jx_and_jx2_plus_jy2(twice_j)
    eye = np.eye(twice_j + 1)

    def lowest(a: float) -> float:
        return float(np.linalg.eigvalsh(xy - 2 * a * jx + a * a * eye)[0])

    grid = np.linspace(0.0, twice_j / 2, 201)
    k = int(np.argmin([lowest(a) for a in grid]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(lowest, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return min(float(res.fun), lowest(grid[k]))
