"""Property tests: no amplitude vector beats the optimiser's maximum."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from spinmoments import analytic, optimizer
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering, parse_kind
from spinmoments.optimizer import optimize_amplitudes
from spinmoments.spin_algebra import SpinQuantum, minimize_on_interval
from spinmoments.states import Custom, make_state

TWICE_J = (1, 2, 3, 4, 6)
SITES = (2, 3, 5, 8, 12)
KINDS = ("bell", "epr1", "ent-cj", "ent-hz", "epr2-hz")


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


@settings(max_examples=200, deadline=None)
@given(cases())
def test_no_amplitudes_beat_the_full_optimum(case):
    tj, n, kind_token, amplitudes = case
    j, kind = SpinQuantum(tj), parse_kind(kind_token)
    b = analytic.b_ratio(make_state(Custom(tuple(amplitudes)), j, n), kind)
    best = optimize_amplitudes(j, n, kind, symmetric=False).best_b
    assert math.isnan(b) or b <= best + 1e-12 * max(1.0, best)


@settings(max_examples=100, deadline=None)
@given(cases())
def test_symmetric_optimum_is_achieved_and_dominated(case):
    tj, n, kind_token, _ = case
    j, kind = SpinQuantum(tj), parse_kind(kind_token)
    sym = optimize_amplitudes(j, n, kind)
    full = optimize_amplitudes(j, n, kind, symmetric=False)
    assert np.array_equal(sym.best_r, sym.best_r[::-1])
    assert sym.best_b <= full.best_b * (1 + 1e-12)
    assert sym.best_b == analytic.b_ratio(sym.best_state(), kind)


@st.composite
def grid_cases(draw):
    tj, n = draw(st.integers(1, 12)), draw(st.integers(2, 60))
    kind = draw(
        st.one_of(
            st.sampled_from((Bell(), EntanglementHZ(), EntanglementCJ())),
            st.builds(Steering, st.integers(0, n), st.sampled_from(("cj", "hz"))),
        )
    )
    return SpinQuantum(tj), n, kind, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(grid_cases())
def test_stacked_grid_rows_equal_single_point_solves(case):
    # row i of the grid's one stacked eigh is bit-identical, log lambda and
    # eigenvector, to the solve the objective makes at grid[i] alone
    j, n, kind, symmetric = case
    searches, solves, solve = [], [], optimizer._log_top_eigenpair

    def search(f, lo, hi):
        searches.append((f, lo, hi))
        return minimize_on_interval(f, lo, hi)

    def top(*args):
        solves.append(solve(*args))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "minimize_on_interval", search)
        mp.setattr(optimizer, "_log_top_eigenpair", top)
        optimize_amplitudes(j, n, kind, symmetric=symmetric)
        assume(searches)  # two adjacent zero bound weights: no search
        (f, lo, hi), (log_lam, vectors) = searches[0], solves[0]
        grid = np.linspace(lo, hi, 65)
        assert log_lam.shape == (65,) and vectors.shape[0] == 65
        for i, u in enumerate(grid):
            solves.clear()
            assert f(u) == -log_lam[i]
            ((one_lam, one_vector),) = solves
            assert one_lam.shape == () and one_lam == log_lam[i]
            assert np.array_equal(one_vector, vectors[i])
