import itertools
import math

import numpy as np
import pytest
from dense_reference import dense_expect_product

from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering
from spinmoments.oracle import (
    SiteOp,
    b_from_moments,
    bound_tags,
    expect_product,
    ladder_tags,
    lhs_moment,
    rhs_moment,
)
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import (
    Bosonic,
    CapExceededError,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    UniformMax,
    dense_vector,
    make_state,
)

HALF = SpinQuantum(1)
ONE = SpinQuantum(2)


def test_identity_product_is_one():
    vec = dense_vector(make_state(UniformMax(), ONE, 3))
    value = expect_product(vec, [SiteOp.IDENTITY] * 3, ONE)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_ghz_all_lowering_moment():
    for theta in (math.pi / 4, 0.3, 1.1):
        st = make_state(GeneralizedGHZ(theta), HALF, 3)
        vec = dense_vector(st)
        value = expect_product(vec, [SiteOp.MINUS] * 3, HALF)
        assert abs(value) ** 2 == pytest.approx((math.cos(theta) * math.sin(theta)) ** 2, abs=1e-14)


DIAGONAL_OPS = [op for op in SiteOp if op not in (SiteOp.PLUS, SiteOp.MINUS)]


def _op_lists(rng, n):
    """A mixed list over every tag, an all-diagonal one and an all-ladder one."""
    yield [SiteOp(v) for v in rng.choice([op.value for op in SiteOp], size=n)]
    yield [DIAGONAL_OPS[k] for k in rng.integers(len(DIAGONAL_OPS), size=n)]
    yield [SiteOp.PLUS if s else SiteOp.MINUS for s in rng.integers(2, size=n)]


def test_banded_contraction_matches_dense_reference():
    # random complex unit vectors, d = 2..10 with d^N <= 2^14, every tag (C_J from cj_bound)
    rng = np.random.default_rng(20261018)
    seen = set()
    for d in range(2, 11):
        j = SpinQuantum(d - 1)
        n_max = max(n for n in range(1, 15) if d**n <= 2**14)
        for n in range(1, n_max + 1):
            vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            vec /= np.linalg.norm(vec)
            for ops in _op_lists(rng, n):
                seen.update(ops)
                for scale in (1.0, 2.0):
                    got = expect_product(vec, ops, j, scale=scale)
                    want = dense_expect_product(vec, ops, j, scale=scale)
                    err = abs(got - want)
                    assert err <= max(1e-12 * abs(want), 1e-14), (d, n, ops, scale)
    assert seen == set(SiteOp)


def test_mixed_ladder_signs_vanish_on_correlated_states():
    # raising one site and lowering another leaves the all-equal-digit basis
    st = make_state(UniformMax(), ONE, 3)
    vec = dense_vector(st)
    value = expect_product(vec, [SiteOp.PLUS, SiteOp.MINUS, SiteOp.MINUS], ONE)
    assert value == 0


def test_xxyy_product_uniform_spin1():
    # (1/n) sum_m r_m^2 [J(J+1) - m^2]^N = (1 + 16 + 1)/3... computed directly
    vec = dense_vector(make_state(UniformMax(), ONE, 2))
    value = expect_product(vec, [SiteOp.X2_PLUS_Y2] * 2, ONE)
    assert value.real == pytest.approx((1 + 2**2 + 1) / 3, rel=1e-14)
    assert value.real == pytest.approx(2.0, rel=1e-14)


def test_lhs_spin1r_closed_form():
    # L = 2^(N+2) r^2 / (r^2+2)^2
    for r in (0.0, 0.7, 1.0, 2.5):
        for n in (2, 3, 5):
            st = make_state(SpinOneR(r), ONE, n)
            got = lhs_moment(st, (-1,) * n)
            assert got == pytest.approx(2 ** (n + 2) * r * r / (r * r + 2) ** 2, abs=1e-12)


def test_lhs_vanishes_for_product_state():
    st = make_state(GeneralizedGHZ(0.0), HALF, 4)
    assert lhs_moment(st, (-1,) * 4) == 0.0


def test_bell_rhs_spin_half():
    # Jx^2 + Jy^2 = I/2 for spin-1/2, any state
    for n in (2, 3, 6):
        st = make_state(GeneralizedGHZ(0.9), HALF, n)
        assert rhs_moment(st, Bell()) == pytest.approx(0.5**n, rel=1e-13)


def test_hz_rhs_zero_for_ghz():
    for theta in (0.2, math.pi / 4):
        st = make_state(GeneralizedGHZ(theta), HALF, 4)
        assert rhs_moment(st, EntanglementHZ()) == 0.0


def test_cj_rhs_uniform_spin1():
    # direct sum with C_1 = 7/16: (2 (9/16)^2 + (25/16)^2)/3
    st = make_state(UniformMax(), ONE, 2)
    expected = (2 * (9 / 16) ** 2 + (25 / 16) ** 2) / 3
    assert rhs_moment(st, EntanglementCJ()) == pytest.approx(expected, rel=1e-13)


def test_steering_rhs_interpolates():
    st = make_state(Bosonic(), ONE, 4)
    bell = rhs_moment(st, Bell())
    ent = rhs_moment(st, EntanglementCJ())
    mid = rhs_moment(st, Steering(2))
    assert ent < mid < bell


def test_rhs_real_and_nonnegative_across_kinds():
    kinds_list = [Bell(), EntanglementHZ(), EntanglementCJ(), Steering(1), Steering(1, "hz")]
    states = [
        make_state(UniformMax(), SpinQuantum(3), 3),
        make_state(Bosonic(), ONE, 4),
        make_state(Custom((0.3, -1.0, 0.6, 0.1)), SpinQuantum(3), 3),
    ]
    for st in states:
        for kind in kinds_list:
            assert rhs_moment(st, kind) >= 0.0


def test_lhs_sign_flip_symmetry():
    rng = np.random.default_rng(17)
    st = make_state(Bosonic(), ONE, 4)
    for _ in range(10):
        signs = tuple(rng.choice([1, -1], size=4))
        flipped = tuple(-s for s in signs)
        assert lhs_moment(st, signs) == pytest.approx(lhs_moment(st, flipped), abs=1e-14)


def test_scale_invariance_of_b():
    # scaling the spin matrices by c multiplies L and R by c^(2N): B is unchanged.
    # c = 2 is the Pauli-operator convention for spin-1/2.
    cases = [
        (make_state(GeneralizedGHZ(math.pi / 4), HALF, 4), Bell()),
        (make_state(GeneralizedGHZ(0.6), HALF, 3), EntanglementCJ()),
        (make_state(Bosonic(), ONE, 4), Steering(1)),
        (make_state(UniformMax(), SpinQuantum(3), 3), EntanglementCJ()),
    ]
    for st, kind in cases:
        n = st.n_sites
        l1 = lhs_moment(st, (-1,) * n)
        r1 = rhs_moment(st, kind)
        l2 = lhs_moment(st, (-1,) * n, scale=2.0)
        r2 = rhs_moment(st, kind, scale=2.0)
        assert l2 == pytest.approx(2 ** (2 * n) * l1, rel=1e-12)
        assert r2 == pytest.approx(2 ** (2 * n) * r1, rel=1e-12)
        b1, b2 = b_from_moments(l1, r1), b_from_moments(l2, r2)
        assert b2 == pytest.approx(b1, rel=1e-12)


def test_pauli_units_spin_half_bounds():
    # in sigma units the Bell bound becomes 2^N and the C_J-shifted bound 1
    st = make_state(GeneralizedGHZ(math.pi / 4), HALF, 3)
    assert rhs_moment(st, Bell(), scale=2.0) == pytest.approx(2**3, rel=1e-13)
    assert rhs_moment(st, EntanglementCJ(), scale=2.0) == pytest.approx(1.0, rel=1e-13)


def test_vector_validation():
    vec = dense_vector(make_state(UniformMax(), ONE, 2))
    with pytest.raises(ValueError, match="d\\^N"):
        expect_product(vec, [SiteOp.IDENTITY] * 3, ONE)
    with pytest.raises(ValueError, match="normalised"):
        expect_product(2 * vec, [SiteOp.IDENTITY] * 2, ONE)
    with pytest.raises(ValueError, match="d\\^N"):
        expect_product(np.ones(1), [], ONE)  # no sites


def test_cap_propagates():
    st = make_state(GeneralizedGHZ(0.4), HALF, 25)
    with pytest.raises(CapExceededError):
        lhs_moment(st, (-1,) * 25)


def test_cap_override_reaches_spin_5_half():
    st = make_state(UniformMax(), SpinQuantum(5), 8)  # 6^8 amplitudes
    got = lhs_moment(st, (-1,) * 8, cap=6**8)
    from spinmoments import analytic

    want_log = analytic.log_ladder_moment(st)
    assert got == pytest.approx(math.exp(want_log), rel=1e-10)


def test_bound_tags_layout():
    assert bound_tags(Bell(), 3) == [SiteOp.X2_PLUS_Y2] * 3
    assert bound_tags(EntanglementCJ(), 2) == [SiteOp.CJ_SHIFTED] * 2
    assert bound_tags(EntanglementHZ(), 3) == [
        SiteOp.PLUS_MINUS,
        SiteOp.MINUS_PLUS,
        SiteOp.MINUS_PLUS,
    ]
    assert bound_tags(Steering(1), 3) == [SiteOp.CJ_SHIFTED] + [SiteOp.X2_PLUS_Y2] * 2
    assert bound_tags(Steering(2, "hz"), 3, l_signs=(-1, 1)) == [
        SiteOp.MINUS_PLUS,
        SiteOp.PLUS_MINUS,
        SiteOp.X2_PLUS_Y2,
    ]
    assert ladder_tags((1, -1)) == [SiteOp.PLUS, SiteOp.MINUS]


def test_b_from_moments_edge_cases():
    assert b_from_moments(0.5, 0.125) == 2.0
    assert b_from_moments(0.3, 0.0) == math.inf
    assert math.isnan(b_from_moments(0.0, 0.0))


def test_cj_shifted_uses_current_bound():
    # C_1 = 7/16: R = (1/3) [2 (2 - 1 - 7/16)^2 + (2 - 7/16)^2] = 787/768
    st = make_state(UniformMax(), ONE, 2)
    assert rhs_moment(st, EntanglementCJ()) == pytest.approx(787 / 768, rel=1e-14, abs=0)


def test_hermitian_products_are_real_by_construction():
    # every product of offset-0 tags is reduced on the float64 view of psi
    rng = np.random.default_rng(20261019)
    for d in range(2, 7):
        j = SpinQuantum(d - 1)
        for n in range(1, 4):
            vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            vec /= np.linalg.norm(vec)
            for ops in itertools.product(DIAGONAL_OPS, repeat=n):
                assert expect_product(vec, ops, j).imag == 0.0, (d, ops)
