"""Property tests: no amplitude vector beats the optimiser's maximum."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from spinmoments import analytic, optimizer
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering, parse_kind
from spinmoments.optimizer import optimize_amplitudes
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import Custom, make_state

TWICE_J = (1, 2, 3, 4, 6)
SITES = (2, 3, 5, 8, 12)
KINDS = ("bell", "epr1", "ent-cj", "ent-hz", "epr1-hz", "epr2-hz")


@st.composite
def cases(draw):
    tj = draw(st.sampled_from(TWICE_J))
    n = draw(st.sampled_from(SITES))
    kind = draw(st.sampled_from(KINDS))
    amplitudes = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False),
            min_size=tj + 1,
            max_size=tj + 1,
        ).filter(lambda r: any(v > 0 for v in r))
    )
    return tj, n, kind, amplitudes


# ent-hz's bound weights are not mirror symmetric: this unfolded optimum gives
# B = 1.00006, above the best r_m = r_-m state's 0.9311
@example((3, 6, "ent-hz", [0.34597, 0.35203, 0.62029, 0.60961]))
@settings(max_examples=200, deadline=None)
@given(cases())
def test_no_amplitudes_beat_the_full_optimum(case):
    tj, n, kind_token, amplitudes = case
    j, kind = SpinQuantum(tj), parse_kind(kind_token)
    b = analytic.b_ratio(make_state(Custom(tuple(amplitudes)), j, n), kind)
    best = optimize_amplitudes(j, n, kind).best_b
    assert math.isnan(b) or b <= best + 1e-12 * max(1.0, best)


def _unfolded_reference(j, n, kind):
    """max_c 2 lambda_max(A, c I + D / c) over the full d-vector: a dense eigvalsh
    on a 401-point log c grid, polished by a bounded scalar search.  The bracket
    is 30 wider than the spread of log D / 2 on each side, so a supremum at
    c -> 0 is reached to e^-60 relative."""
    a = np.exp(analytic.log_ladder_weights(j, n)) / 2
    log_d = analytic.log_bound_weights(j, n, kind)
    finite = 0.5 * log_d[np.isfinite(log_d)]

    def log_top(u):
        scale = 1 / np.sqrt(np.exp(u) + np.exp(log_d - u))
        t = np.diag(a * scale[:-1] * scale[1:], 1)
        return math.log(np.linalg.eigvalsh(t + t.T)[-1])

    grid = np.linspace(finite.min() - 30.0, finite.max() + 30.0, 401)
    i = int(np.argmax([log_top(u) for u in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    polish = minimize_scalar(lambda u: -log_top(u), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return 2 * math.exp(max(log_top(grid[i]), -polish.fun))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_optimum_matches_an_unfolded_reference(case):
    # the fold is decided by the kind: mirror-symmetric D gives a mirror-symmetric
    # r, and either way B is the optimum over the full d-vector
    tj, n, kind_token, _ = case
    j, kind = SpinQuantum(tj), parse_kind(kind_token)
    report = optimize_amplitudes(j, n, kind)
    assert report.best_b == analytic.b_ratio(report.best_state(), kind)
    if optimizer._mirror_symmetric(kind, n):
        assert np.array_equal(report.best_r, report.best_r[::-1])
    if math.isinf(report.best_b):  # two adjacent zero bound weights
        return
    assert report.best_b == pytest.approx(_unfolded_reference(j, n, kind), rel=1e-12)


@st.composite
def grid_cases(draw):
    tj, n = draw(st.integers(1, 12)), draw(st.integers(2, 60))
    kind = draw(
        st.one_of(
            st.sampled_from((Bell(), EntanglementHZ(), EntanglementCJ())),
            st.builds(Steering, st.integers(0, n), st.sampled_from(("cj", "hz"))),
        )
    )
    return SpinQuantum(tj), n, kind


def _searched(j, n, kind):
    """The report, and (objective, lo, hi, returned log c) of its log-c search,
    or None when two adjacent zero bound weights leave nothing to search."""
    searches, search = [], optimizer.minimize_on_interval

    def spy(f, lo, hi):
        found = search(f, lo, hi)
        searches.append((f, lo, hi, found[0]))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "minimize_on_interval", spy)
        report = optimize_amplitudes(j, n, kind)
    return report, (searches[0] if searches else None)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_stacked_grid_rows_equal_single_point_solves(case):
    # row i of the grid's one stacked eigh is bit-identical, log lambda and
    # eigenvector, to the solve the objective makes at grid[i] alone, and so
    # are the objective's value and slope there
    j, n, kind = case
    calls, solves, solve, search = [], [], optimizer._log_top_eigenpair, optimizer.minimize_on_interval

    def recorded(f, lo, hi):
        def g(t):
            calls.append((f, t, f(t)))
            return calls[-1][-1]

        return search(g, lo, hi)

    def top(*args):
        solves.append(solve(*args))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "minimize_on_interval", recorded)
        mp.setattr(optimizer, "_log_top_eigenpair", top)
        optimize_amplitudes(j, n, kind)
        assume(calls)  # two adjacent zero bound weights: no search
        (f, grid, (values, slopes)), (log_lam, vectors) = calls[0], solves[0]
        assert grid.shape == values.shape == slopes.shape == log_lam.shape == (65,)
        assert np.array_equal(values, -log_lam) and vectors.shape[0] == 65
        for i, u in enumerate(grid.tolist()):
            solves.clear()
            value, slope = f(u)
            assert value == values[i] and slope == slopes[i]
            ((one_lam, one_vector),) = solves
            assert one_lam.shape == () and one_lam == log_lam[i]
            assert np.array_equal(one_vector, vectors[i])


_INV_PHI = (math.sqrt(5) - 1) / 2  # golden-section step


def _golden_section_minimum(f, lo, hi):
    """(x, f(x)) at the minimum of a unimodal f on [lo, hi] by value alone: the
    same 65-point grid locates the basin, a golden-section search polishes it
    within the two neighbouring cells down to a bracket of 1e-12 + 3e-8 |x|,
    and the better of the two points is returned.  f broadcasts."""
    grid = np.linspace(lo, hi, 65)
    values = f(grid)
    k = int(np.argmin(values))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
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


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_slope_search_is_no_worse_than_a_golden_section(case):
    # the reference polishes the same grid with golden section on the value alone
    j, n, kind = case
    report, searched = _searched(j, n, kind)
    assume(searched)
    f, lo, hi, _ = searched
    _, value = _golden_section_minimum(lambda t: f(t)[0], lo, hi)
    assert report.best_b >= (1 - 2e-12) * 2 * math.exp(-value)


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_interior_optimum_is_stationary_in_c(case):
    # d(-log lambda_max)/dt = 0 at t = log c is c^2 = r^T D r / r^T r
    j, n, kind = case
    report, searched = _searched(j, n, kind)
    assume(searched)
    _, lo, hi, log_c = searched
    # a polished point: the ends of the bracket are grid points (a supremum at
    # an end), and a grid minimum is kept where it ties the polished value
    # within rounding
    assume(log_c not in np.linspace(lo, hi, 65))
    r, log_d = report.best_r, analytic.log_bound_weights(j, n, kind)
    log_rdr = np.logaddexp.reduce(2 * np.log(r[r > 0]) + log_d[r > 0])
    assert 2 * log_c - log_rdr == pytest.approx(0, abs=1e-12)  # r^T r = 1


def _log_family_bell_witness(j, n):
    """log B of the family's closed-form Bell witness: r on m = -1, 0, 1 with
    the weights that balance the bound at integer J, r on m = +-1/2 at
    half-integer J."""
    half = j.twice_j / 2
    if j.twice_j % 2 == 0:
        q0 = half * (half + 1)
        return 0.5 * math.log(2) - math.log1p(math.exp(0.5 * n * math.log((q0 - 1) / q0)))
    g = (half + 0.5) ** 2
    return 0.5 * n * math.log(g / (g - 0.5)) - math.log(2)


# at d = 3 from N = 2202, r_0 / r_+-1 is below the double range: a linear r
# reads it as 0, and then B = 0
@example(2, 3000)
@example(4, 10**4)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(2, 10**4))
def test_optimised_bell_never_falls_below_the_family_witness(tj, n):
    j = SpinQuantum(tj)
    report = optimize_amplitudes(j, n, Bell())
    log_b = 0.5 * (report.log_l - report.log_r)
    assert log_b >= _log_family_bell_witness(j, n) - 1e-9
