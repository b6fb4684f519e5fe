import itertools
import math
import sys
import tracemalloc

import pytest

from spinmoments import kinds, oracle
from spinmoments.criteria import VERDICT_BAND, Backend, SignChoice, evaluate, nested_verdicts
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, SiteOp, Steering
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import (
    Bosonic,
    CapExceededError,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    UniformMax,
    make_state,
    support_vector,
)

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
    st = make_state(Bosonic(), ONE, 4)
    values = []
    for k in range(4):
        l = tuple(1 if i == k else -1 for i in range(4))
        values.append(oracle.rhs_moment(st, EntanglementHZ(), l_signs=l))
    assert max(values) - min(values) < 1e-13


def _per_pattern_search(st, kind):
    """The exhaustive search as one public one-pattern oracle call per sign pattern,
    with the tie rule: the first pattern within VERDICT_BAND of the extreme labels
    the result, whose L and R are the extremes."""
    n = st.n_sites
    s_space = list(itertools.product((1, -1), repeat=n))
    l_space = list(itertools.product((1, -1), repeat=len(kinds.canonical_signs(kind, n)[1])))
    ls = [oracle.lhs_moment(st, s) for s in s_space]
    rs = [oracle.rhs_moment(st, kind, l_signs=l) for l in l_space]
    k_l = next(k for k, v in enumerate(ls) if v >= max(ls) * (1 - VERDICT_BAND))
    k_r = next(k for k, v in enumerate(rs) if v <= min(rs) * (1 + VERDICT_BAND))
    return s_space[k_l], l_space[k_r], max(ls), min(rs)


def _grid_states():
    for tj in (1, 2, 3):
        families = [UniformMax(), Bosonic(), Custom(tuple((-1) ** k * (k + 0.3) for k in range(tj + 1)))]
        families += {1: [GeneralizedGHZ(0.7)], 2: [SpinOneR(0.8)], 3: []}[tj]
        for family in families:
            for n in range(2, 6):
                yield make_state(family, SpinQuantum(tj), n)


def test_exhaustive_equals_per_pattern_search():
    for st in _grid_states():
        for token in ("bell", "ent-hz", "ent-cj", "epr1", "epr2-hz"):
            res = evaluate(st, kinds.parse_kind(token), "exhaustive")
            s, l, lhs, rhs = _per_pattern_search(st, kinds.parse_kind(token))
            case = (st.j.twice_j, st.n_sites, token)
            assert (res.signs.s, res.signs.l) == (s, l), case
            assert res.lhs == pytest.approx(lhs, rel=1e-12, abs=0), case
            assert res.rhs == pytest.approx(rhs, rel=1e-12, abs=0), case
            # the canonical signs are one point of the search, so it bounds them
            canon = evaluate(st, kinds.parse_kind(token), backend=Backend.ORACLE)
            assert res.lhs >= canon.lhs * (1 - 1e-13) and res.rhs <= canon.rhs * (1 + 1e-13), case
            assert res.violated or not canon.violated, case


def test_exhaustive_ties_go_to_the_first_pattern():
    # L(s) = L(-s) on real amplitudes, and R depends only on how many l are plus
    # on a state with |r_m| = |r_-m|: the tie goes to all-plus s and to the
    # first tied l in plus-first order, pluses leading
    for st in (make_state(UniformMax(), SpinQuantum(3), 5), make_state(Bosonic(), ONE, 4)):
        for token in ("bell", "ent-hz", "epr2-hz"):
            res = evaluate(st, kinds.parse_kind(token), "exhaustive")
            assert res.signs.s == (1,) * st.n_sites
            assert res.signs.l == tuple(sorted(res.signs.l, reverse=True))
    res = evaluate(make_state(Bosonic(), ONE, 4), Steering(2, "hz"), "exhaustive")
    assert res.signs.l == (1, -1)  # the first single-plus pattern


def _patch_entry(monkeypatch, first_tags, entry, change):
    """Change one entry of the oracle tables whose first site offers first_tags."""
    original = oracle.expect_table

    def patched(vec, choices, j, **kwargs):
        table = original(vec, choices, j, **kwargs)
        if choices[0] == first_tags:
            table = table.copy()
            table.flat[entry] = change(table.flat[entry])
        return table

    monkeypatch.setattr(oracle, "expect_table", patched)


LADDER_PAIR = (SiteOp.PLUS, SiteOp.MINUS)
HZ_PAIR = (SiteOp.PLUS_MINUS, SiteOp.MINUS_PLUS)


@pytest.mark.parametrize("factor, s_index", [(1 + 1e-13, 0), (1 + 1e-9, 15)])
def test_ladder_ties_within_the_band(monkeypatch, factor, s_index):
    # all-minus (entry 15) raised inside the band still ties with all-plus
    st = make_state(Bosonic(), ONE, 4)
    plain = evaluate(st, Bell(), "exhaustive")
    _patch_entry(monkeypatch, LADDER_PAIR, 15, lambda v: v * math.sqrt(factor))
    res = evaluate(st, Bell(), "exhaustive")
    assert res.signs.s == list(itertools.product((1, -1), repeat=4))[s_index]
    # the value reported is the maximum, also when it is not the labelled pattern's
    assert res.lhs == pytest.approx(plain.lhs * factor, rel=1e-15, abs=0)


@pytest.mark.parametrize("factor, l_index", [(1 - 1e-13, 1), (1 - 1e-9, 6)])
def test_bound_ties_within_the_band(monkeypatch, factor, l_index):
    # entries 1..6 tie for the minimum; entry 6, (-, -, +), lowered inside the
    # band still ties with entry 1, (+, +, -)
    st = make_state(UniformMax(), ONE, 3)
    plain = evaluate(st, EntanglementHZ(), "exhaustive")
    assert plain.signs.l == (1, 1, -1)
    _patch_entry(monkeypatch, HZ_PAIR, 6, lambda v: v * factor)
    res = evaluate(st, EntanglementHZ(), "exhaustive")
    assert res.signs.l == list(itertools.product((1, -1), repeat=3))[l_index]
    assert res.rhs == pytest.approx(plain.rhs * factor, rel=1e-15, abs=0)  # the minimum


def test_exhaustive_memory_stays_near_the_state_size():
    # 2J = 2, N = 10: a table over all 2^N ladder patterns, unchunked, would
    # hold (2(d - 1))^N = 4^10 products, 18 times the 3^10 amplitudes
    st = make_state(Bosonic(), ONE, 10)
    evaluate(make_state(Bosonic(), ONE, 2), EntanglementHZ(), "exhaustive")  # caches warm
    tracemalloc.start()
    try:
        res = evaluate(st, EntanglementHZ(), "exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.violated
    assert peak <= 4 * 16 * 3**10, peak / (16 * 3**10)


def test_exhaustive_guards():
    st = GHZ(17)
    with pytest.raises(CapExceededError, match="capped"):  # exit 3 on the command line
        evaluate(st, Bell(), "exhaustive")
    with pytest.raises(ValueError, match="oracle"):
        evaluate(GHZ(3), Bell(), "exhaustive", backend=Backend.ANALYTIC)
    with pytest.raises(ValueError, match="strategy"):
        evaluate(GHZ(3), Bell(), "thorough")


def test_no_state_path_takes_a_cap():
    # the oracle's one limit is its own (d^N <= 2^62): no caller sets it
    from spinmoments.states import support_vector

    st = GHZ(3)
    entry_points = [
        lambda **kw: support_vector(st, **kw),
        lambda **kw: oracle.lhs_moment(st, (-1,) * 3, **kw),
        lambda **kw: oracle.rhs_moment(st, Bell(), **kw),
        lambda **kw: evaluate(st, Bell(), backend=Backend.ORACLE, **kw),
    ]
    for call in entry_points:
        call()
        with pytest.raises(TypeError):
            call(cap=2**20)


def test_retired_keywords_are_refused():
    # no caller set these, so they are gone: each raises TypeError, not ignored
    from spinmoments import analytic
    from spinmoments.states import dense_vector

    st = GHZ(3)
    retired = [
        lambda **kw: dense_vector(st, **kw),
        lambda **kw: analytic.lhs_rhs(st, EntanglementHZ(), **kw),
        lambda **kw: analytic.b_ratio(st, EntanglementHZ(), **kw),
        lambda **kw: analytic.b_ent_hz(st, **kw),
        lambda **kw: nested_verdicts(st, 2, **kw),
        lambda **kw: nested_verdicts(st, 2, **kw),
    ]
    keywords = [{"cap": 2**24}] + [{"l_signs": (1, -1, -1)}] * 3 + [{"bound": "hz"}, {"backend": Backend.ORACLE}]
    for call, kw in zip(retired, keywords, strict=True):
        call()
        with pytest.raises(TypeError):
            call(**kw)


def _patch_weight(monkeypatch, tag, level, weight):
    """Hand the oracle's kernel the band weights with ``tag``'s weight on m = level - 1 set."""
    original = oracle._support_table
    code = oracle._site_bands(ONE, 1.0)[0][tag]

    def patched(vec, lead, sites, d, rows, shifts):
        rows = rows.copy()
        rows[code, level] = weight
        return original(vec, lead, sites, d, rows, shifts)

    monkeypatch.setattr(oracle, "_support_table", patched)


def _hz_entries_at(value):
    """(HZ tag, level, weight, entries) for 2J = 2, N = 3 uniform-max, whose HZ
    bound table entry with k plus signs is (1/3) sum_m a_m^k b_m^(3-k), a = J+J-
    = (0, 2, 2) and b = J-J+ = (2, 2, 0) on m = -1, 0, 1: each patch turns the
    listed entries (plus-first order) into value and leaves the others above 0."""
    edge = math.copysign(abs(3 * value - 8) ** (1 / 3), 3 * value - 8)
    return [
        (SiteOp.PLUS_MINUS, 2, edge, (0,)),  # (a_1^3 + 8) / 3, all plus
        (SiteOp.PLUS_MINUS, 1, 3 * value / 4, (3, 5, 6)),  # a_0 b_0^2 / 3, one plus
        (SiteOp.MINUS_PLUS, 0, edge, (7,)),  # (b_-1^3 + 8) / 3, all minus
    ]


def test_exhaustive_rejects_negative_bound_moment(monkeypatch):
    # a negative R is an internal error, not an infinite B: the kernel checks
    # every entry of the bound table, so a negative one raises wherever it sits
    st = make_state(UniformMax(), ONE, 3)
    for value in (-1.0, -2e-10):
        for tag, level, weight, _ in _hz_entries_at(value):
            with monkeypatch.context() as patch:
                _patch_weight(patch, tag, level, weight)
                with pytest.raises(ArithmeticError, match="negative"):
                    evaluate(st, EntanglementHZ(), "exhaustive")


def test_exhaustive_clamps_bound_rounding_to_zero(monkeypatch):
    # rounding below 0 is clamped to exactly 0, the minimum, and the first
    # clamped entry in plus-first order labels the result
    st = make_state(UniformMax(), ONE, 3)
    patterns = list(itertools.product((1, -1), repeat=3))
    for tag, level, weight, entries in _hz_entries_at(-1e-11):
        with monkeypatch.context() as patch:
            _patch_weight(patch, tag, level, weight)
            table = oracle.expect_table(support_vector(st), [HZ_PAIR] * 3, ONE)
            res = evaluate(st, EntanglementHZ(), "exhaustive")
        assert [k for k, v in enumerate(table.flat) if v == 0.0] == list(entries)
        assert res.rhs == 0.0
        assert res.signs.l == patterns[entries[0]]


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
        # the oracle-side hierarchy is evaluate's oracle backend, one T at a time
        on_oracle = [evaluate(st, Steering(t), backend=Backend.ORACLE) for t in range(st.n_sites + 1)]
        assert [r.violated for r in on_oracle] == flags
        assert [r.b for r in on_oracle] == pytest.approx(bs, rel=1e-9)
    with pytest.raises(ValueError, match="t_max"):
        nested_verdicts(GHZ(3), 4)


def test_sign_choice_tokens():
    sc = SignChoice(s=(-1, -1, 1), l=(1, -1))
    assert sc.s_token() == "--+"
    assert sc.l_token() == "+-"


def _spy_everywhere(monkeypatch, name: str) -> list:
    """Calls of ``states.<name>``, spied on in every spinmoments module that holds it."""
    from spinmoments import states

    calls, original = [], getattr(states, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "spinmoments" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


def test_state_paths_build_no_dense_vector(monkeypatch, capsys):
    # the oracle gets each state's support: no dense d^N vector on any state
    # path, and one support per oracle evaluate
    from spinmoments import cli

    dense = _spy_everywhere(monkeypatch, "dense_vector")
    supports = _spy_everywhere(monkeypatch, "support_vector")
    st = make_state(Bosonic(), ONE, 4)
    for kind in (Bell(), EntanglementHZ(), Steering(2, "hz"), EntanglementCJ()):
        for strategy in ("canonical", "exhaustive"):
            supports.clear()
            evaluate(st, kind, strategy, backend=Backend.ORACLE)
            assert len(supports) == 1, (kind, strategy)
    assert cli.main(["verify", "--max-twice-j", "2"]) == 0
    capsys.readouterr()
    oracle.lhs_moment(st, (-1,) * 4)
    oracle.rhs_moment(st, EntanglementHZ())
    assert supports and dense == []


@pytest.mark.parametrize("backend", [Backend.ANALYTIC, Backend.ORACLE])
def test_canonical_evaluate_reports_the_canonical_signs(backend):
    from spinmoments import kinds

    st = make_state(UniformMax(), SpinQuantum(3), 4)
    for token in ("bell", "ent-hz", "ent-cj", "epr0-hz", "epr1", "epr2-hz", "epr4-hz"):
        kind = kinds.parse_kind(token)
        res = evaluate(st, kind, backend=backend)
        assert res.backend is backend
        assert res.signs == SignChoice(*kinds.canonical_signs(kind, 4)), token
