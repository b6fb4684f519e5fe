"""Property tests: no amplitude vector beats the optimiser's maximum."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from spinmoments import analytic
from spinmoments.kinds import parse_kind
from spinmoments.optimizer import optimize_amplitudes
from spinmoments.spin_algebra import SpinQuantum
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
