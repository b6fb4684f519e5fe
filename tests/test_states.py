import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import (
    Bosonic,
    CapExceededError,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    SupportVector,
    SymmetricCorrelatedState,
    UniformMax,
    _logsumexp,
    dense_vector,
    family_label,
    make_state,
    make_states,
    support_vector,
)

HALF = SpinQuantum(1)
ONE = SpinQuantum(2)


def test_uniform_max_spin1():
    st = make_state(UniformMax(), ONE, 2)
    assert st.signs.tolist() == [1.0, 1.0, 1.0]
    assert st.log_amplitudes.tolist() == [0.0, 0.0, 0.0]
    assert st.log_norm_sq == pytest.approx(math.log(3.0), rel=1e-15)
    assert np.allclose(st.unit_amplitudes, 1 / math.sqrt(3), rtol=1e-15, atol=0)


def test_a_state_holds_its_amplitudes_only_as_signs_and_logs():
    names = [f.name for f in fields(SymmetricCorrelatedState)]
    assert names == ["j", "n_sites", "signs", "log_amplitudes", "log_norm_sq"]


def test_bosonic_spin_half_is_ghz():
    # (J-m)! (J+m)! is 1 for both m, any N: log r = 0 exactly
    for n in (2, 3, 7):
        st = make_state(Bosonic(), HALF, n)
        assert st.signs.tolist() == [1.0, 1.0]
        assert st.log_amplitudes.tolist() == [0.0, 0.0]
        assert np.allclose(st.unit_amplitudes, 1 / math.sqrt(2), rtol=1e-15, atol=0)


def test_bosonic_spin1_four_sites():
    # ((J-m)! (J+m)!)^((N-2)/2) at N=4: (2, 1, 2)
    st = make_state(Bosonic(), ONE, 4)
    assert st.signs.tolist() == [1.0, 1.0, 1.0]
    assert np.allclose(st.log_amplitudes, [math.log(2.0), 0.0, math.log(2.0)], rtol=0, atol=1e-13)
    assert np.allclose(st.unit_amplitudes, [2 / 3, 1 / 3, 2 / 3], rtol=1e-13, atol=0)


def test_bosonic_equals_uniform_at_two_sites():
    for tj in range(1, 8):
        j = SpinQuantum(tj)
        boson = make_state(Bosonic(), j, 2)
        uniform = make_state(UniformMax(), j, 2)
        # exponent N-2 = 0 makes this exact, not approximate
        assert np.array_equal(boson.signs, uniform.signs)
        assert np.array_equal(boson.log_amplitudes, uniform.log_amplitudes)
        assert np.array_equal(boson.unit_amplitudes, uniform.unit_amplitudes)


def test_builtin_families_are_symmetric():
    cases = [
        (UniformMax(), SpinQuantum(5), 4),
        (Bosonic(), SpinQuantum(6), 5),
        (Bosonic(), SpinQuantum(3), 9),
        (SpinOneR(0.37), ONE, 3),
    ]
    for family, j, n in cases:
        st = make_state(family, j, n)
        assert np.all(st.signs == 1.0)
        for values in (st.log_amplitudes, st.unit_amplitudes):
            assert np.array_equal(values, values[::-1])


def test_ghz_amplitudes_and_product_limits():
    st = make_state(GeneralizedGHZ(0.3), HALF, 5)
    assert st.signs.tolist() == [1.0, 1.0]
    assert np.allclose(st.log_amplitudes, [math.log(math.cos(0.3)), math.log(math.sin(0.3))], rtol=1e-15, atol=0)
    assert st.unit_amplitudes[0] == pytest.approx(math.cos(0.3), abs=1e-15)
    assert st.unit_amplitudes[1] == pytest.approx(math.sin(0.3), abs=1e-15)
    for theta, hot in ((0.0, 0), (math.pi / 2, 1)):
        st = make_state(GeneralizedGHZ(theta), HALF, 3)
        assert np.flatnonzero(st.signs).tolist() == [hot]
        assert np.flatnonzero(np.isfinite(st.log_amplitudes)).tolist() == [hot]
        assert st.unit_amplitudes.tolist() == [1.0 - hot, float(hot)]


def test_family_spin_compatibility():
    with pytest.raises(ValueError):
        make_state(GeneralizedGHZ(0.5), ONE, 2)
    with pytest.raises(ValueError):
        make_state(SpinOneR(1.0), HALF, 2)
    with pytest.raises(ValueError):
        make_state(SpinOneR(-0.1), ONE, 2)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_ghz_refuses_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match=f"theta must be finite, got {theta}"):
        make_state(GeneralizedGHZ(theta), HALF, 2)


def test_custom_validation():
    with pytest.raises(ValueError):
        make_state(Custom((0.0, 0.0)), HALF, 2)
    with pytest.raises(ValueError):
        make_state(Custom((1.0, float("nan"), 1.0)), ONE, 2)
    with pytest.raises(ValueError):
        make_state(Custom((1.0, 1.0)), ONE, 2)  # wrong length
    with pytest.raises(ValueError):
        make_state(Custom((1.0, 1.0)), HALF, 1)  # n_sites < 2
    st = make_state(Custom((1.0, -2.0, 0.5)), ONE, 3)
    assert np.array_equal(st.signs, [1.0, -1.0, 1.0])


@st.composite
def family_sweeps(draw):
    """(family, j, N list): a family that fits its spin, 2J = 1..12, N unsorted with repeats."""
    tj = draw(st.integers(1, 12))
    amplitude = st.floats(-1e3, 1e3, allow_nan=False) | st.just(0.0)
    custom = st.lists(amplitude, min_size=tj + 1, max_size=tj + 1).filter(any).map(lambda a: Custom(tuple(a)))
    choices = [st.just(UniformMax()), st.just(Bosonic()), custom]
    if tj == 1:
        choices.append(st.floats(-10, 10, allow_nan=False).map(GeneralizedGHZ))
    if tj == 2:
        choices.append(st.floats(0, 1e3, allow_nan=False).map(SpinOneR))
    n_list = draw(st.lists(st.integers(2, 400), min_size=1, max_size=12))
    return draw(st.one_of(choices)), SpinQuantum(tj), n_list


@settings(max_examples=300, deadline=None)
@given(family_sweeps())
def test_batched_states_equal_one_at_a_time_states(sweep):
    # bit for bit, row by row; log n equals a 1-D log-sum-exp of the state's own row
    family, j, n_list = sweep
    batch = make_states(family, j, n_list)
    assert [state.n_sites for state in batch] == n_list
    for state, n in zip(batch, n_list):
        one = make_state(family, j, n)
        assert state.signs.tolist() == one.signs.tolist()
        assert state.log_amplitudes.tolist() == one.log_amplitudes.tolist()
        assert state.log_norm_sq == one.log_norm_sq == _logsumexp(2 * one.log_amplitudes)
        assert type(state.log_norm_sq) is float
        assert not (state.signs.flags.writeable or state.log_amplitudes.flags.writeable)
    if not isinstance(family, Bosonic):  # r does not depend on N: one shared pair
        assert all(s.signs is batch[0].signs and s.log_amplitudes is batch[0].log_amplitudes for s in batch)


def test_log_amplitudes_consistent():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = rng.integers(2, 8)
        r = rng.normal(size=d)
        r[rng.integers(0, d)] = 0.0
        if not np.any(r):
            continue
        st = make_state(Custom(tuple(r)), SpinQuantum(int(d - 1)), 3)
        finite = np.isfinite(st.log_amplitudes)
        assert np.allclose(np.exp(st.log_amplitudes[finite]), np.abs(r[finite]), rtol=1e-13)
        assert np.all(np.isneginf(st.log_amplitudes[~finite]))


@pytest.mark.parametrize(
    "log_terms, signs",
    [
        ([700.0, 699.5, 698.0, 700.0, -700.0], [1, -1, 1, -1, 1]),
        ([700.0, 702.25, 690.0], None),
        ([-700.0, -700.5, -703.0, -701.0], [1, 1, -1, 0]),
        ([-700.0, -699.0, -720.0], None),
    ],
)
def test_logsumexp_matches_fsum_of_rescaled_terms(log_terms, signs):
    # exp(+-700) sits at the edge of the double range; rescaled by the
    # largest term, math.fsum gives the correctly rounded sum
    hi = max(log_terms)
    s = [1] * len(log_terms) if signs is None else signs
    expected = hi + math.log(abs(math.fsum(si * math.exp(t - hi) for si, t in zip(s, log_terms))))
    signs = None if signs is None else np.array(signs, dtype=float)
    assert _logsumexp(np.array(log_terms), signs) == pytest.approx(expected, rel=1e-15, abs=1e-12)


def test_logsumexp_exact_cancellation_and_zero_terms():
    assert _logsumexp(np.array([700.0, 700.0]), np.array([1.0, -1.0])) == -math.inf
    assert _logsumexp(np.array([-math.inf, -math.inf])) == -math.inf


def test_logsumexp_reduces_rows_independently_without_warnings():
    log_terms = np.array(
        [
            [700.0, 699.5, 698.0, -math.inf],
            [-math.inf, -math.inf, -math.inf, -math.inf],  # every term zero
            [700.0, 700.0, -math.inf, -math.inf],  # cancels exactly
            [-700.0, -699.0, -720.0, -701.0],
        ]
    )
    signs = np.array([[1, -1, 1, 1], [1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _logsumexp(log_terms, signs)
        unsigned = _logsumexp(log_terms)
    assert isinstance(batched, np.ndarray) and batched.shape == (4,)
    assert batched.tolist() == [_logsumexp(t, s) for t, s in zip(log_terms, signs)]
    assert unsigned.tolist() == [_logsumexp(t) for t in log_terms]
    assert batched[1] == batched[2] == -math.inf
    assert all(type(v) is float for v in (_logsumexp(log_terms[0]), _logsumexp(log_terms[1])))


def test_large_bosonic_stays_in_log_domain():
    st = make_state(Bosonic(), SpinQuantum(20), 30)
    assert np.all(np.isfinite(st.log_amplitudes))
    assert math.isfinite(st.log_norm_sq)


def test_dense_vector_ghz():
    st = make_state(GeneralizedGHZ(math.pi / 4), HALF, 2)
    vec = dense_vector(st)
    expect = np.zeros(4, dtype=complex)
    expect[0] = expect[3] = 1 / math.sqrt(2)
    assert np.allclose(vec, expect, atol=1e-15)


def test_dense_vector_uniform_spin1():
    vec = dense_vector(make_state(UniformMax(), ONE, 2))
    hot = np.flatnonzero(np.abs(vec) > 0)
    assert hot.tolist() == [0, 4, 8]
    assert np.allclose(vec[hot], 1 / math.sqrt(3), atol=1e-15)


def test_dense_vector_unit_norm():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        r = rng.normal(size=d)
        if not np.any(np.abs(r) > 1e-12):
            continue
        st = make_state(Custom(tuple(r)), SpinQuantum(d - 1), n)
        assert abs(np.linalg.norm(dense_vector(st)) - 1.0) < 1e-14


def test_dense_vector_cap():
    st = make_state(GeneralizedGHZ(0.4), HALF, 24)
    with pytest.raises(CapExceededError) as err:
        dense_vector(st)
    message = str(err.value)
    assert "2^24" in message and str(2**20) in message
    assert dense_vector(make_state(GeneralizedGHZ(0.4), HALF, 20)).size == 2**20
    # beyond N = 62 the size is named as a power and never computed
    with pytest.raises(CapExceededError) as err:
        dense_vector(make_state(GeneralizedGHZ(0.4), HALF, 10**6))
    assert str(err.value) == f"d^N = 2^1000000 exceeds the cap of {2**20} amplitudes"


def test_family_labels():
    assert family_label(UniformMax()) == "uniform-max"
    assert family_label(GeneralizedGHZ(0.1)) == "ghz"
    assert family_label(Custom((1.0, 1.0))) == "custom"


def test_support_vector_refuses_a_malformed_index():
    # 2J = 2, N = 3 uniform-max: the oracle trusts the index, and read in
    # reverse it would give <J-^(x)3> = 0 instead of 1.8856, so every malformed
    # support is refused when it is built; the state's own support passes
    from spinmoments.oracle import SiteOp, expect_product

    sup = support_vector(make_state(UniformMax(), ONE, 3))
    own = SupportVector(sup.index, sup.values, sup.size)
    assert expect_product(own, [SiteOp.MINUS] * 3, ONE).real == pytest.approx(4 * math.sqrt(2) / 3, rel=1e-14)
    for index, values, match in (
        (sup.index[::-1].copy(), sup.values, "ascending"),  # reversed
        (np.array([0, 0, 26]), sup.values, "ascending"),  # a duplicate
        (np.array([0, 13, 40]), sup.values, r"\[0, 27\)"),  # past the size
        (np.array([-1, 13, 26]), sup.values, r"\[0, 27\)"),  # below 0
        (sup.index, sup.values[:2], "values"),  # fewer values than indices
        (sup.index.astype(float), sup.values, "integer"),  # not an integer array
        (sup.index[None, :], sup.values, "integer"),  # not 1-D
        (sup.index, sup.values.astype(np.complex64), "complex64"),  # read as float64 pairs, it fails the norm
        (sup.index, sup.values.real.astype(np.float32), "float32"),
    ):
        with pytest.raises(ValueError, match=match):
            SupportVector(index, values, sup.size)
