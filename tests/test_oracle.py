import itertools
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import as_support, dense_expect_product, site_matrix
from hypothesis import given, settings, strategies as st

from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering, canonical_signs
from spinmoments.oracle import (
    SiteOp,
    b_from_moments,
    bound_rows,
    bound_tags,
    expect_product,
    expect_table,
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
    SupportVector,
    UniformMax,
    dense_vector,
    make_state,
    support_vector,
)

HALF = SpinQuantum(1)
ONE = SpinQuantum(2)


def test_identity_product_is_one():
    vec = as_support(dense_vector(make_state(UniformMax(), ONE, 3)))
    value = expect_product(vec, [SiteOp.IDENTITY] * 3, ONE)
    assert value == pytest.approx(1.0, abs=1e-14)


def test_ghz_all_lowering_moment():
    for theta in (math.pi / 4, 0.3, 1.1):
        st = make_state(GeneralizedGHZ(theta), HALF, 3)
        vec = as_support(dense_vector(st))
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
            sup = as_support(vec)
            for ops in _op_lists(rng, n):
                seen.update(ops)
                for scale in (1.0, 2.0):
                    got = expect_product(sup, ops, j, scale=scale)
                    want = dense_expect_product(vec, ops, j, scale=scale)
                    err = abs(got - want)
                    assert err <= max(1e-12 * abs(want), 1e-14), (d, n, ops, scale)
    assert seen == set(SiteOp)


PAIRS = [
    (SiteOp.PLUS, SiteOp.MINUS),
    (SiteOp.MINUS, SiteOp.PLUS),
    (SiteOp.PLUS_MINUS, SiteOp.MINUS_PLUS),
    (SiteOp.X2_PLUS_Y2, SiteOp.CJ_SHIFTED),
    (SiteOp.IDENTITY, SiteOp.MINUS_PLUS),
]


def _choice_lists(rng, n):
    """Random mixes of one-tag and two-tag sites (at most three with two), and
    the ladder and HZ-bound pairs on every site when 2^N <= 32."""
    tags = list(SiteOp)
    for _ in range(2):
        two = set(rng.choice(n, size=rng.integers(min(n, 3) + 1), replace=False).tolist())
        yield [PAIRS[rng.integers(len(PAIRS))] if k in two else (tags[rng.integers(len(tags))],) for k in range(n)]
    if 2**n <= 32:
        yield [PAIRS[0]] * n
        yield [PAIRS[2]] * n


def test_expect_table_matches_per_pattern_products():
    # every entry against expect_product on its pattern and the dense reference;
    # d = 2..6 with d^N <= 2^12, on random vectors with full support
    rng = np.random.default_rng(20261020)
    for d in range(2, 7):
        j = SpinQuantum(d - 1)
        for n in range(1, 13):
            if d**n > 2**12:
                break
            vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            vec /= np.linalg.norm(vec)
            sup = as_support(vec)
            for choices in _choice_lists(rng, n):
                for scale in (1.0, 2.0):
                    table = expect_table(sup, choices, j, scale=scale)
                    assert table.shape == tuple(map(len, choices))
                    for index in np.ndindex(table.shape):
                        ops = [alts[a] for alts, a in zip(choices, index)]
                        for want in (
                            expect_product(sup, ops, j, scale=scale),
                            dense_expect_product(vec, ops, j, scale=scale),
                        ):
                            err = abs(table[index] - want)
                            assert err <= max(1e-12 * abs(want), 1e-14), (d, n, ops, scale)


def test_expect_table_order_is_plus_first():
    st = make_state(Custom((0.3, -1.0, 0.6)), ONE, 3)
    vec = as_support(dense_vector(st))
    table = expect_table(vec, [(SiteOp.PLUS, SiteOp.MINUS)] * 3, ONE)
    patterns = list(itertools.product((1, -1), repeat=3))
    for flat_index, signs in enumerate(patterns):
        assert table.flat[flat_index] == pytest.approx(expect_product(vec, ladder_tags(signs), ONE), abs=1e-15)


def test_expect_table_takes_uneven_alternatives():
    # a site's alternatives may be any tags: bands of different lengths, on rows
    # not evenly spaced, or one tag twice; every entry against expect_product on
    # its pattern and the dense reference, on a random vector and a state's support
    rng = np.random.default_rng(20261024)
    uneven = [
        (SiteOp.PLUS, SiteOp.IDENTITY),
        (SiteOp.MINUS, SiteOp.X2_PLUS_Y2, SiteOp.PLUS),
        (SiteOp.CJ_SHIFTED,),
        (SiteOp.PLUS, SiteOp.MINUS, SiteOp.PLUS),
    ]
    for d in (2, 3, 4):
        j = SpinQuantum(d - 1)
        vec = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
        state = make_state(Custom(tuple(rng.normal(size=d))), j, 4)
        vec /= np.linalg.norm(vec)
        for psi, dense in ((as_support(vec), vec), (support_vector(state), dense_vector(state))):
            table = expect_table(psi, uneven, j)
            assert table.shape == (2, 3, 1, 3)
            for index in np.ndindex(table.shape):
                ops = [alts[a] for alts, a in zip(uneven, index)]
                for want in (expect_product(psi, ops, j), dense_expect_product(dense, ops, j)):
                    assert abs(table[index] - want) <= 1e-12 * _term_sum(dense, ops, j, 1.0), (d, ops)


def test_mixed_ladder_signs_vanish_on_correlated_states():
    # raising one site and lowering another leaves the all-equal-digit basis
    st = make_state(UniformMax(), ONE, 3)
    vec = as_support(dense_vector(st))
    value = expect_product(vec, [SiteOp.PLUS, SiteOp.MINUS, SiteOp.MINUS], ONE)
    assert value == 0


def test_xxyy_product_uniform_spin1():
    # (1/n) sum_m r_m^2 [J(J+1) - m^2]^N = (1 + 16 + 1)/3... computed directly
    vec = as_support(dense_vector(make_state(UniformMax(), ONE, 2)))
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
        expect_product(as_support(vec), [SiteOp.IDENTITY] * 3, ONE)
    with pytest.raises(ValueError, match="normalised"):
        expect_product(as_support(2 * vec), [SiteOp.IDENTITY] * 2, ONE)
    with pytest.raises(ValueError, match="d\\^N"):
        expect_product(as_support(np.ones(1)), [], ONE)  # no sites


def test_oracle_public_functions():
    # six, with no second input route or clamp wrapper beside expect_table
    import inspect

    from spinmoments import oracle

    public = {
        name
        for name, obj in vars(oracle).items()
        if inspect.isfunction(obj) and obj.__module__ == oracle.__name__ and not name.startswith("_")
    }
    assert public == {"expect_table", "expect_product", "bound_rows", "lhs_moment", "rhs_moment", "b_from_moments"}


def test_only_a_support_vector_is_taken():
    # the oracle's one input is a SupportVector: a dense ndarray (or a list)
    # holding the same state is refused on every entry, before any check of it
    state = make_state(UniformMax(), ONE, 3)
    sup, tags = support_vector(state), [SiteOp.X2_PLUS_Y2] * 3
    for bad in (dense_vector(state), np.asarray(sup.values), list(dense_vector(state)), None):
        for call in (
            lambda: expect_table(bad, [(op,) for op in tags], ONE),
            lambda: expect_product(bad, tags, ONE),
            lambda: bound_rows(bad, [tags], ONE),
        ):
            with pytest.raises(TypeError, match="SupportVector"):
                call()
    assert bound_rows(sup, [tags], ONE)[0] == expect_product(sup, tags, ONE).real > 0


def test_a_site_without_alternatives_is_refused():
    # 2J = 2, N = 3: the empty middle site is named, on a support and an ndarray alike
    sup = support_vector(make_state(UniformMax(), ONE, 3))
    choices = [(SiteOp.MINUS,), (), (SiteOp.MINUS,)]
    with pytest.raises(ValueError, match="site 1 has no alternative"):
        expect_table(sup, choices, ONE)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vectors_are_refused_on_both_routes(bad):
    # 2J = 1, N = 12: every amplitude bad, or one bad amplitude among zeros
    n = 12
    signs, _ = canonical_signs(Bell(), n)
    lone = np.zeros(2**n, dtype=complex)
    lone[5] = bad
    for vec in (np.full(2**n, bad, dtype=complex), lone):
        with pytest.raises(ValueError, match="normalised"):
            expect_product(as_support(vec), ladder_tags(signs), HALF)
        with pytest.raises(ValueError, match="normalised"):
            bound_rows(as_support(vec), [bound_tags(Bell(), n)], HALF)


def test_cap_propagates():
    # the oracle's two limits, d^N <= 2^62 and d <= 1024, reach the state entry points
    beyond_int64 = make_state(GeneralizedGHZ(0.4), HALF, 63)
    beyond_d = make_state(UniformMax(), SpinQuantum(1024), 2)
    for st, match in ((beyond_int64, "d\\^N = 2\\^63 exceeds"), (beyond_d, "d = 1025 exceeds 1024")):
        with pytest.raises(CapExceededError, match=match):
            lhs_moment(st, (-1,) * st.n_sites)
        with pytest.raises(CapExceededError, match=match):
            rhs_moment(st, Bell())


def test_lhs_moment_reaches_spin_5_half():
    st = make_state(UniformMax(), SpinQuantum(5), 8)  # 6^8 amplitudes, above a dense vector's 2^20
    got = lhs_moment(st, (-1,) * 8)
    from spinmoments import analytic

    want_log = analytic.log_lhs_rhs(st, Bell())[0]
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
    # every product of offset-0 tags is a real weighted sum of |psi_i|^2
    rng = np.random.default_rng(20261019)
    for d in range(2, 7):
        j = SpinQuantum(d - 1)
        for n in range(1, 4):
            vec = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            sup = as_support(vec / np.linalg.norm(vec))
            for ops in itertools.product(DIAGONAL_OPS, repeat=n):
                assert expect_product(sup, ops, j).imag == 0.0, (d, ops)


@st.composite
def bound_cases(draw):
    """d = 2..6 with d^N <= 2^12, 1-3 offset-0 tags per site (at most 64 patterns),
    and a random complex unit vector on a random support: a product of per-site
    level sets, or GHZ-like (every site on the same level)."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, max(k for k in range(1, 13) if d**k <= 2**12)))
    choices, patterns = [], 1
    for _ in range(n):
        alts = draw(st.lists(st.sampled_from(DIAGONAL_OPS), min_size=1, max_size=min(3, 64 // patterns)))
        choices.append(tuple(alts))
        patterns *= len(alts)
    levels = draw(st.lists(st.sets(st.integers(0, d - 1), min_size=1), min_size=n, max_size=n))
    ghz = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if ghz:
        support = np.zeros((d,) * n, dtype=bool)
        for level in levels[0]:
            support[(level,) * n] = True
    else:
        support = np.ones(1, dtype=bool)
        for site in levels:
            support = np.multiply.outer(support, np.isin(np.arange(d), list(site)))
    support = support.ravel()
    vec = (rng.normal(size=d**n) + 1j * rng.normal(size=d**n)) * support
    return SpinQuantum(d - 1), choices, vec / np.linalg.norm(vec), support, draw(st.sampled_from((1.0, 2.0)))


def _weight_vector(ops, j, scale):
    """prod_k <i_k| O_k |i_k> over the basis, in psi's C order."""
    w = np.ones(1)
    for op in ops:
        w = np.multiply.outer(w, site_matrix(op, j, scale=scale).diagonal().real).ravel()
    return w


@settings(max_examples=100, deadline=None)
@given(bound_cases())
def test_bound_table_matches_dense_reference(case):
    # every entry to 1e-12 relative to the sum of its terms' magnitudes (the
    # entry itself unless C_J-shifted weights cancel), and exactly 0.0 where
    # the weights vanish on the whole support, as the exhaustive R == 0 needs
    j, choices, vec, support, scale = case
    table = expect_table(as_support(vec), choices, j, scale=scale)
    assert table.shape == tuple(map(len, choices)) and np.isrealobj(table)
    prob = np.abs(vec) ** 2
    for index in np.ndindex(table.shape):
        ops = [alts[a] for alts, a in zip(choices, index)]
        w = _weight_vector(ops, j, scale)
        want = dense_expect_product(vec, ops, j, scale=scale)
        assert abs(table[index] - want) <= 1e-12 * (np.abs(w) @ prob), (ops, scale)
        if not np.any(w[support]):
            assert table[index] == 0.0, (ops, scale)


def _peak(call):
    """tracemalloc peak of call(), in bytes, caches warm."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_over_psi(call, vec):
    """``_peak`` over the 16 d^N bytes of psi."""
    return _peak(call) / vec.nbytes


@st.composite
def sparse_table_cases(draw):
    """d = 2..6 with d^N <= 2^12; one-tag sites (any tag) and up to five ``PAIRS``
    sites; a random complex unit vector on a product support, a GHZ-like one or
    one basis state."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, max(k for k in range(1, 13) if d**k <= 2**12)))
    two = draw(st.sets(st.integers(0, n - 1), max_size=min(n, 5)))
    choices = [draw(st.sampled_from(PAIRS)) if k in two else (draw(st.sampled_from(list(SiteOp))),) for k in range(n)]
    support = np.zeros((d,) * n, dtype=bool)
    kind = draw(st.sampled_from(("product", "ghz", "basis")))
    if kind == "product":
        levels = draw(st.lists(st.sets(st.integers(0, d - 1), min_size=1), min_size=n, max_size=n))
        support[np.ix_(*map(sorted, levels))] = True
    elif kind == "ghz":
        for level in draw(st.sets(st.integers(0, d - 1), min_size=1)):
            support[(level,) * n] = True
    else:
        support[tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))] = True
    support = support.ravel()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vec = (rng.normal(size=d**n) + 1j * rng.normal(size=d**n)) * support
    return SpinQuantum(d - 1), choices, vec / np.linalg.norm(vec), support, draw(st.sampled_from((1.0, 2.0)))


def _term_sum(vec, ops, j, scale):
    """The sum of the product's terms in magnitude, <|psi|| |O_1| (x) ... (x) |O_N| ||psi|>."""
    psi = np.abs(vec).reshape((j.dim,) * len(ops))
    phi = psi
    for k, op in enumerate(ops):
        phi = np.moveaxis(np.tensordot(np.abs(site_matrix(op, j, scale=scale)), phi, axes=(1, k)), 0, k)
    return float(np.sum(psi * phi))


@settings(max_examples=100, deadline=None)
@given(sparse_table_cases())
def test_sparse_support_tables_match_dense_reference(case):
    # ladder and mixed tables: every entry to 1e-12 relative to
    # the sum of its terms' magnitudes, bound entries exactly 0.0 where the
    # weights vanish on the support, and the norm check still fires
    j, choices, vec, support, scale = case
    table = expect_table(as_support(vec), choices, j, scale=scale)
    assert table.shape == tuple(map(len, choices))
    for index in np.ndindex(table.shape):
        ops = [alts[a] for alts, a in zip(choices, index)]
        want = dense_expect_product(vec, ops, j, scale=scale)
        assert abs(table[index] - want) <= 1e-12 * _term_sum(vec, ops, j, scale), (ops, scale)
        if np.isrealobj(table) and not np.any(_weight_vector(ops, j, scale)[support]):
            assert table[index] == 0.0, (ops, scale)
    with pytest.raises(ValueError, match="normalised"):
        expect_table(as_support(2 * vec), choices, j, scale=scale)


def test_support_route_transient_memory():
    # 2J = 1, N = 20 uniform-max: 2 nonzero amplitudes of 2^20, so a Bell R and
    # the canonical ladder product are sums over the support alone
    n = 20
    vec = dense_vector(make_state(UniformMax(), HALF, n))
    sup = as_support(vec)
    signs, _ = canonical_signs(Bell(), n)
    bell = _peak_over_psi(lambda: bound_rows(sup, [bound_tags(Bell(), n)], HALF), vec)
    ladder = _peak_over_psi(lambda: expect_product(sup, ladder_tags(signs), HALF), vec)
    assert bell <= 0.2, bell
    assert ladder <= 0.2, ladder


def test_state_paths_stay_far_below_the_state_size():
    # 2J = 1, N = 20 uniform-max: the state hands the oracle its 2 amplitudes,
    # so a bound and a ladder product never see a d^N array (16 MiB of psi)
    n = 20
    st_ = make_state(UniformMax(), HALF, n)
    signs, _ = canonical_signs(Bell(), n)
    for call in (lambda: rhs_moment(st_, Bell()), lambda: lhs_moment(st_, signs)):
        peak = _peak(call)
        assert peak < 64 * 1024, peak


def test_support_pass_memory_scales_with_amplitudes():
    # tracemalloc peak, caches warm, of a 2^10-entry ladder table ((J+, J-) on
    # ten sites) and HZ bound table ((J+J-, J-J+) on ten sites) against
    # amplitudes x (entries + N) numbers of 8 bytes.  A ladder table last holds
    # its complex products, the gathered conj bra amplitudes (16 bytes each)
    # and their positions (8), 5 numbers per entry and amplitude; the N term is
    # the digits and their weights, 2 per site and amplitude.  Measured 5.01-
    # 5.06 (ladder) and 3.75-3.76 (bound) here, up to 5.4 on 2^8 entries; 6
    # leaves room for allocator rounding.  A state's support needs the same at
    # d^N = 3^12 and 3^39, and so does a dense vector's (``as_support``).
    for n in (12, 39):
        state = make_state(Bosonic(), ONE, n)
        sup = support_vector(state)
        for psi in [sup] if n == 39 else [sup, as_support(dense_vector(state))]:
            for pair, rest in ((PAIRS[0], SiteOp.MINUS), (PAIRS[2], SiteOp.IDENTITY)):
                choices = [pair] * 10 + [(rest,)] * (n - 10)
                peak = _peak(lambda: expect_table(psi, choices, ONE))
                assert peak <= 6 * 8 * len(sup.values) * (2**10 + n), (n, pair, peak)


@st.composite
def state_table_cases(draw):
    """A ``Custom`` state, d = 2..6 with d^N <= 2^12, whose random amplitudes
    include exact zeros; per site one tag (any), a ladder pair or 2-3 offset-0
    tags, at most 64 entries in all; and a random scale."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(2, max(k for k in range(2, 13) if d**k <= 2**12)))
    amps = draw(st.lists(st.just(0.0) | st.floats(-4, -1e-3) | st.floats(1e-3, 4), min_size=d, max_size=d).filter(any))
    choices, entries = [], 1
    for _ in range(n):
        alts = draw(
            st.sampled_from(list(SiteOp)).map(lambda op: (op,))
            | st.sampled_from(PAIRS[:2])
            | st.lists(st.sampled_from(DIAGONAL_OPS), min_size=2, max_size=3).map(tuple)
        )
        if entries * len(alts) > 64:
            alts = alts[:1]
        choices.append(alts)
        entries *= len(alts)
    scale = draw(st.floats(0.25, 4))
    return make_state(Custom(tuple(amps)), SpinQuantum(d - 1), n), choices, scale


@settings(max_examples=150, deadline=None)
@given(state_table_cases())
def test_state_support_tables_match_the_dense_vector(case):
    # a state's support gives the dense reference to 1e-12 of the terms'
    # magnitudes, and its dense vector's table bit for bit (both are the same
    # support); a NaN or non-normalised support is refused
    state, choices, scale = case
    j, sup, vec = state.j, support_vector(state), dense_vector(state)
    assert sup.size == vec.size and np.array_equal(sup.index, np.flatnonzero(vec))
    table = expect_table(sup, choices, j, scale=scale)
    dense = expect_table(as_support(vec), choices, j, scale=scale)
    assert table.dtype == dense.dtype and table.shape == tuple(map(len, choices))
    assert table.tobytes() == dense.tobytes()
    for index in np.ndindex(table.shape):
        ops = [alts[a] for alts, a in zip(choices, index)]
        want = dense_expect_product(vec, ops, j, scale=scale)
        assert abs(table[index] - want) <= 1e-12 * _term_sum(vec, ops, j, scale), (ops, scale)
    for bad in (2 * sup.values, np.full_like(sup.values, np.nan)):
        with pytest.raises(ValueError, match="normalised"):
            expect_table(SupportVector(sup.index, bad, sup.size), choices, j, scale=scale)


@st.composite
def bound_rows_cases(draw):
    """A ``Custom`` state, d = 2..6 and N = 2..8 with d^N <= 2^12, whose random
    amplitudes include exact zeros; 1-6 rows of N offset-0 tags (IDENTITY among
    them); and a random scale."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(2, max(k for k in range(2, 9) if d**k <= 2**12)))
    amps = draw(st.lists(st.just(0.0) | st.floats(-4, -1e-3) | st.floats(1e-3, 4), min_size=d, max_size=d).filter(any))
    tag_rows = draw(st.lists(st.lists(st.sampled_from(DIAGONAL_OPS), min_size=n, max_size=n), min_size=1, max_size=6))
    scale = draw(st.floats(0.25, 4))
    return make_state(Custom(tuple(amps)), SpinQuantum(d - 1), n), tag_rows, scale


@settings(max_examples=150, deadline=None)
@given(bound_rows_cases())
def test_bound_rows_equal_one_row_bound_moments(case):
    # each row of the one pass is the one-row bound moment bit for bit, R >= 0,
    # and the dense reference to 1e-12 of the terms' sum; a NaN amplitude, a
    # ladder tag and a row of the wrong length are refused
    state, tag_rows, scale = case
    j, sup, vec = state.j, support_vector(state), dense_vector(state)
    values = bound_rows(sup, tag_rows, j, scale=scale)
    assert values.shape == (len(tag_rows),) and values.dtype == np.float64
    for value, tags in zip(values.tolist(), tag_rows):
        assert value == expect_product(sup, tags, j, scale=scale).real >= 0
        want = dense_expect_product(vec, tags, j, scale=scale).real
        assert abs(value - want) <= 1e-12 * _term_sum(vec, tags, j, scale), (tags, scale)
    assert np.array_equal(bound_rows(as_support(vec), tag_rows, j, scale=scale), values)
    nan = SupportVector(sup.index, np.full_like(sup.values, np.nan), sup.size)
    for bad in (nan, as_support(np.where(vec != 0, np.nan, 0))):
        with pytest.raises(ValueError, match="normalised"):
            bound_rows(bad, tag_rows, j, scale=scale)
    n = state.n_sites
    for ladder in (SiteOp.PLUS, SiteOp.MINUS):
        with pytest.raises(ValueError, match="ladder"):
            bound_rows(sup, tag_rows + [[ladder] + tag_rows[0][1:]], j, scale=scale)
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match="amplitudes"):
            bound_rows(sup, tag_rows + [[SiteOp.IDENTITY] * length], j, scale=scale)
