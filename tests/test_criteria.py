import math

import pytest

from spinmoments.criteria import Backend, SignChoice, evaluate, nested_verdicts
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import Bosonic, GeneralizedGHZ, SpinOneR, UniformMax, make_state

HALF = SpinQuantum(1)
ONE = SpinQuantum(2)

GHZ = lambda n, theta=math.pi / 4: make_state(GeneralizedGHZ(theta), HALF, n)


def test_canonical_ghz_bell():
    res = evaluate(GHZ(3), Bell())
    assert res.b == pytest.approx(math.sqrt(2), rel=1e-12)
    assert res.violated
    assert res.backend is Backend.ANALYTIC
    assert res.signs.s == (-1, -1, -1)
    assert res.signs.l == ()


def test_equality_is_not_violation():
    # GHZ Bell ratio is exactly 1 at two sites: L = R
    res = evaluate(GHZ(2), Bell())
    assert res.b == pytest.approx(1.0, rel=1e-14)
    assert not res.violated


@pytest.mark.parametrize(
    "st,kind",
    [
        (GHZ(2), Bell()),  # B exactly 1
        (GHZ(3), EntanglementHZ()),  # R = 0 < L
        (GHZ(3, 0.0), EntanglementHZ()),  # L = R = 0
    ],
    ids=["b-one", "r-zero", "l-r-zero"],
)
def test_backends_share_the_verdict_rule_at_boundaries(st, kind):
    an = evaluate(st, kind, backend=Backend.ANALYTIC)
    orc = evaluate(st, kind, backend=Backend.ORACLE)
    assert an.violated == orc.violated == (an.rhs == 0.0 < an.lhs)


def test_uniform_spin1_two_sites_no_bell_violation():
    res = evaluate(make_state(UniformMax(), ONE, 2), Bell())
    assert res.b == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-12)
    assert not res.violated


def test_canonical_backends_agree():
    cases = [
        (make_state(UniformMax(), ONE, 3), Bell()),
        (make_state(Bosonic(), ONE, 4), EntanglementCJ()),
        (make_state(Bosonic(), SpinQuantum(3), 3), Steering(1)),
        (GHZ(4, 0.8), EntanglementCJ()),
        (make_state(SpinOneR(0.7), ONE, 4), Steering(2, "hz")),
    ]
    for st, kind in cases:
        an = evaluate(st, kind, backend=Backend.ANALYTIC)
        orc = evaluate(st, kind, backend=Backend.ORACLE)
        assert orc.backend is Backend.ORACLE
        assert an.b == pytest.approx(orc.b, rel=1e-11)
        assert an.violated == orc.violated
        assert an.lhs == pytest.approx(orc.lhs, rel=1e-11, abs=1e-300)
        assert an.rhs == pytest.approx(orc.rhs, rel=1e-11, abs=1e-300)


def test_hz_infinite_b_choices():
    res = evaluate(GHZ(3), EntanglementHZ(), "exhaustive")
    assert res.b == math.inf
    assert res.violated
    assert res.rhs == 0.0
    # any mixed l pattern zeroes R; the argmin must not be all-equal
    assert len(set(res.signs.l)) == 2


def test_hz_undefined_for_product_state():
    res = evaluate(GHZ(3, 0.0), EntanglementHZ(), "exhaustive")
    assert math.isnan(res.b)
    assert not res.violated


def test_exhaustive_dominates_canonical():
    cases = [
        (make_state(UniformMax(), ONE, 3), Bell()),
        (make_state(Bosonic(), ONE, 4), EntanglementCJ()),
        (GHZ(4, 0.6), Steering(1)),
        (make_state(UniformMax(), SpinQuantum(3), 3), EntanglementHZ()),
    ]
    for st, kind in cases:
        can = evaluate(st, kind, backend=Backend.ORACLE)
        exh = evaluate(st, kind, "exhaustive")
        assert exh.b >= can.b - 1e-13 or (math.isinf(exh.b) and math.isinf(can.b))


def test_exhaustive_optimal_ladder_signs_all_equal():
    for st in (
        make_state(UniformMax(), ONE, 3),
        make_state(Bosonic(), ONE, 4),
        make_state(Bosonic(), SpinQuantum(1), 6),
        make_state(SpinOneR(0.8), ONE, 3),
        make_state(UniformMax(), SpinQuantum(4), 3),
    ):
        res = evaluate(st, Bell(), "exhaustive")
        assert len(set(res.signs.s)) == 1


def test_exhaustive_site_choice_immaterial_for_symmetric_states():
    # all single-plus l patterns give the same R on a correlated state
    from spinmoments import oracle

    st = make_state(Bosonic(), ONE, 4)
    values = []
    for k in range(4):
        l = tuple(1 if i == k else -1 for i in range(4))
        values.append(oracle.rhs_moment(st, EntanglementHZ(), l_signs=l))
    assert max(values) - min(values) < 1e-13


def test_exhaustive_guards():
    st = GHZ(17)
    with pytest.raises(ValueError, match="capped"):
        evaluate(st, Bell(), "exhaustive", cap=2**20)
    with pytest.raises(ValueError, match="oracle"):
        evaluate(GHZ(3), Bell(), "exhaustive", backend=Backend.ANALYTIC)
    with pytest.raises(ValueError, match="strategy"):
        evaluate(GHZ(3), Bell(), "thorough")


def test_exhaustive_rejects_negative_bound_moment(monkeypatch):
    # a negative R is an internal error, not an infinite B
    from spinmoments import oracle

    monkeypatch.setattr(oracle, "expect_product", lambda *args, **kwargs: -1.0 + 0j)
    st = make_state(UniformMax(), SpinQuantum(2), 3)
    with pytest.raises(ArithmeticError, match="negative"):
        evaluate(st, EntanglementHZ(), "exhaustive")


def test_steering_t_validation():
    with pytest.raises(ValueError, match="exceeds"):
        evaluate(GHZ(3), Steering(4))
    with pytest.raises(ValueError):
        Steering(-1)
    with pytest.raises(ValueError):
        Steering(1, bound="xy")


def test_steering_aliases_to_entanglement_and_bell():
    st = make_state(Bosonic(), ONE, 4)
    assert evaluate(st, Steering(0)).b == pytest.approx(evaluate(st, Bell()).b, rel=1e-14)
    assert evaluate(st, Steering(4)).b == pytest.approx(
        evaluate(st, EntanglementCJ()).b, rel=1e-14
    )


def test_nested_verdicts_ghz_powers():
    n = 6
    results = nested_verdicts(GHZ(n), n)
    for t, res in enumerate(results):
        assert res.b == pytest.approx(2.0 ** ((n + t - 2) / 2), rel=1e-12)
    assert [r.violated for r in results] == [True] * (n + 1)


def test_nested_verdicts_monotone_and_consistent():
    for st in (
        make_state(Bosonic(), ONE, 5),
        make_state(UniformMax(), SpinQuantum(4), 4),
        make_state(SpinOneR(0.5), ONE, 6),
    ):
        results = nested_verdicts(st, st.n_sites)
        bs = [r.b for r in results]
        assert all(b2 >= b1 for b1, b2 in zip(bs, bs[1:]))
        # once violated, stays violated as T grows
        flags = [r.violated for r in results]
        assert flags == sorted(flags)
        for r in results:
            assert r.violated == (r.lhs > r.rhs)
    with pytest.raises(ValueError, match="t_max"):
        nested_verdicts(GHZ(3), 4)


def test_sign_choice_tokens():
    sc = SignChoice(s=(-1, -1, 1), l=(1, -1))
    assert sc.s_token() == "--+"
    assert sc.l_token() == "+-"


def test_canonical_oracle_builds_one_dense_vector(monkeypatch):
    from spinmoments import criteria, oracle, states

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return states.dense_vector(*args, **kwargs)

    for module in (criteria, oracle):
        monkeypatch.setattr(module, "dense_vector", counting)
    for kind in (Bell(), EntanglementHZ(), Steering(2, "hz"), EntanglementCJ()):
        calls.clear()
        evaluate(make_state(Bosonic(), ONE, 4), kind, backend=Backend.ORACLE)
        assert len(calls) == 1, kind


@pytest.mark.parametrize("backend", [Backend.ANALYTIC, Backend.ORACLE])
def test_canonical_evaluate_reports_the_canonical_signs(backend):
    from spinmoments import kinds

    st = make_state(UniformMax(), SpinQuantum(3), 4)
    for token in ("bell", "ent-hz", "ent-cj", "epr0-hz", "epr1", "epr2-hz", "epr4-hz"):
        kind = kinds.parse_kind(token)
        res = evaluate(st, kind, backend=backend)
        assert res.backend is backend
        assert res.signs == SignChoice(*kinds.canonical_signs(kind, 4)), token
