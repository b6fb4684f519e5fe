"""Amplitude optimisation: maximise B over the correlated-state amplitudes.

The search space is tiny (ceil(d/2) free amplitudes once the m <-> -m
symmetry is folded in), so a multi-start Nelder-Mead is plenty.
Non-negativity comes from an absolute-value reparameterisation and the
objective normalises sum r_m^2 = 1 before evaluating -- B is scale-free in
r, the normalisation is just a gauge choice.

Each run starts from two deterministic points (the uniform and bosonic
amplitude vectors) plus `restarts` seeded draws from the uniform simplex,
so the optimum can never fall below either reference family.  Random
generators are split per restart index, making reports reproducible no
matter how the restarts are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import analytic, kinds
from .spin_algebra import SpinQuantum
from .states import Bosonic, SymmetricCorrelatedState, make_state, _from_amplitudes

DEFAULT_RESTARTS = 20
VIOLATION_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class OptimizationReport:
    j: SpinQuantum
    n_sites: int
    kind: kinds.CriterionKind
    best_r: np.ndarray  # full d-vector, normalised to sum r^2 = 1
    best_b: float
    restarts_run: int
    converged: bool
    trace: tuple[tuple[int, float], ...]  # (start index, final B)

    def best_state(self) -> SymmetricCorrelatedState:
        return _from_amplitudes(self.j, self.n_sites, self.best_r)


@dataclass(frozen=True)
class MinSitesResult:
    dim: int
    kind: kinds.CriterionKind
    min_n: int | None
    b_at_min_n: float  # best B over the scan when no violation was found
    n_max_searched: int


def _expand_symmetric(x: np.ndarray, d: int) -> np.ndarray:
    """Map free parameters to the full |m| <-> -|m| symmetric d-vector."""
    r = np.empty(d)
    half = d // 2
    outer = np.abs(x[:half])
    r[:half] = outer
    r[d - half:] = outer[::-1]
    if d % 2:
        r[half] = abs(x[half])
    return r


def _objective(j, n_sites, kind, symmetric, c_j):
    d = j.dim

    def negative_b(x: np.ndarray) -> float:
        r = _expand_symmetric(x, d) if symmetric else np.abs(x)
        total = math.sqrt(np.sum(r * r))
        if total < 1e-12:
            return 1.0  # all-zero is invalid; any real B beats this
        state = _from_amplitudes(j, n_sites, r / total)
        b = analytic.b_ratio(state, kind, c_j=c_j)
        if math.isnan(b):
            return 1.0
        return -b

    return negative_b


def optimize_amplitudes(
    j: SpinQuantum,
    n_sites: int,
    kind: kinds.CriterionKind,
    *,
    symmetric: bool = True,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    c_j: float | None = None,
) -> OptimizationReport:
    """Maximise the analytic B over non-negative amplitudes r.

    The symmetric flag (default on, matching the r_m = r_{-m} restriction
    of the built-in families) folds the search space to ceil(d/2)
    dimensions; pass symmetric=False to probe the full d-vector.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    d = j.dim
    n_free = (d + 1) // 2 if symmetric else d
    objective = _objective(j, n_sites, kind, symmetric, c_j)

    bos = make_state(Bosonic(), j, n_sites).unit_amplitudes
    bos_free = bos[:n_free] if symmetric else bos
    starts = [np.full(n_free, 1.0 / math.sqrt(n_free)), bos_free]
    for i in range(restarts):
        rng = np.random.default_rng((seed, j.twice_j, n_sites, i))
        starts.append(np.sqrt(rng.dirichlet(np.ones(n_free))))

    trace = []
    best_x, best_fun = None, math.inf
    converged = False
    for idx, x0 in enumerate(starts):
        with np.errstate(invalid="ignore"):  # simplex may hold inf B (HZ bounds)
            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"fatol": 1e-10, "xatol": 1e-8, "maxiter": 2000, "maxfev": 4000},
            )
        converged = converged or bool(res.success)
        trace.append((idx, -float(res.fun)))
        if res.fun < best_fun:
            best_x, best_fun = np.asarray(res.x), float(res.fun)

    best_b = -best_fun
    if math.isnan(best_b) or best_b < 0:
        raise RuntimeError(
            f"no restart produced a finite B for twice_j={j.twice_j}, N={n_sites}, "
            f"kind={kinds.kind_token(kind)}; trace={trace}"
        )
    r = _expand_symmetric(best_x, d) if symmetric else np.abs(best_x)
    r = r / math.sqrt(np.sum(r * r))
    r.setflags(write=False)
    return OptimizationReport(
        j=j,
        n_sites=n_sites,
        kind=kind,
        best_r=r,
        best_b=best_b,
        restarts_run=len(starts),
        converged=converged,
        trace=tuple(trace),
    )


def min_sites_for_violation(
    j: SpinQuantum,
    kind: kinds.CriterionKind,
    n_max: int,
    *,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    margin: float = VIOLATION_MARGIN,
    symmetric: bool = True,
) -> MinSitesResult:
    """Smallest N <= n_max whose optimised state violates the criterion.

    A violation requires best_b > 1 + margin, guarding the decision against
    optimiser noise exactly at the boundary.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    best_seen = -math.inf
    for n in range(2, n_max + 1):
        report = optimize_amplitudes(
            j, n, kind, symmetric=symmetric, restarts=restarts, seed=seed
        )
        best_seen = max(best_seen, report.best_b)
        if report.best_b > 1.0 + margin:
            return MinSitesResult(
                dim=j.dim, kind=kind, min_n=n, b_at_min_n=report.best_b, n_max_searched=n_max
            )
    return MinSitesResult(
        dim=j.dim, kind=kind, min_n=None, b_at_min_n=best_seen, n_max_searched=n_max
    )


def scan_curve(
    axis: str,
    kinds_list: list[kinds.CriterionKind],
    state_source,
    values: list[int],
    *,
    twice_j: int | None = None,
    n_sites: int | None = None,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> list[dict]:
    """Grid of criterion evaluations along N (fixed J) or along d (fixed N).

    axis "n": values are site counts, twice_j is fixed.
    axis "d": values are twice_j entries, n_sites is fixed.
    state_source is a states family instance, or the string "optimized" to
    re-optimise the amplitudes at every grid point and kind.
    """
    from . import criteria
    from .states import family_label

    if axis == "n":
        if twice_j is None:
            raise ValueError("axis 'n' needs twice_j")
        grid = [(twice_j, n) for n in values]
    elif axis == "d":
        if n_sites is None:
            raise ValueError("axis 'd' needs n_sites")
        grid = [(tj, n_sites) for tj in values]
    else:
        raise ValueError(f"axis must be 'n' or 'd', got {axis!r}")

    optimized = isinstance(state_source, str)
    if optimized and state_source != "optimized":
        raise ValueError(f"unknown state source {state_source!r}")

    rows = []
    for tj, n in grid:
        j = SpinQuantum(tj)
        for kind in kinds_list:
            if optimized:
                report = optimize_amplitudes(j, n, kind, restarts=restarts, seed=seed)
                state = report.best_state()
                source = "optimized"
                r_vec = report.best_r
            else:
                state = make_state(state_source, j, n)
                source = family_label(state_source)
                r_vec = state.unit_amplitudes
            result = criteria.evaluate(state, kind)
            rows.append(
                {
                    "twice_j": tj,
                    "n": n,
                    "t": kinds.quantum_sites(kind, n),
                    "family": source,
                    "kind": kinds.kind_token(kind),
                    "lhs": result.lhs,
                    "rhs": result.rhs,
                    "b": result.b,
                    "violated": result.violated,
                    "r_vector": tuple(float(v) for v in r_vec),
                }
            )
    return rows
