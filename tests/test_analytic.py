import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinmoments import analytic, kinds, oracle
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, SiteOp, Steering
from spinmoments.spin_algebra import SpinQuantum, cj_bound
from spinmoments.states import (
    Bosonic,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    UniformMax,
    _logsumexp,
    make_state,
)

HALF = SpinQuantum(1)
ONE = SpinQuantum(2)


# ---------------------------------------------------------------------------
# spin-1/2 GHZ family


def test_ghz_b_ratios_exact_powers():
    for n in range(2, 41):
        st = make_state(GeneralizedGHZ(math.pi / 4), HALF, n)
        assert analytic.b_ent_cj(st) == pytest.approx(2.0 ** (n - 1), rel=1e-12)
        assert analytic.b_steer_t(st, 1) == pytest.approx(2.0 ** ((n - 1) / 2), rel=1e-12)
        assert analytic.b_bell(st) == pytest.approx(2.0 ** ((n - 2) / 2), rel=1e-12)


def test_ghz_general_theta_scaling():
    # every ratio carries the common factor sin(2 theta)
    for theta in (0.2, 0.7, 1.3):
        st = make_state(GeneralizedGHZ(theta), HALF, 5)
        s2 = math.sin(2 * theta)
        assert analytic.b_ent_cj(st) == pytest.approx(s2 * 2.0**4, rel=1e-12)
        assert analytic.b_bell(st) == pytest.approx(s2 * 2.0**1.5, rel=1e-12)


def test_ghz_hz_criterion_diverges():
    for theta in (0.1, 0.3, math.pi / 4, 1.2):
        for n in (2, 3, 6):
            st = make_state(GeneralizedGHZ(theta), HALF, n)
            assert analytic.b_ent_hz(st) == math.inf
    # product state: 0/0, undefined
    assert math.isnan(analytic.b_ent_hz(make_state(GeneralizedGHZ(0.0), HALF, 3)))


def test_ghz_detection_threshold():
    assert analytic.ghz_cj_detection_threshold(2) == 0.5
    assert analytic.ghz_cj_detection_threshold(5) == 1 / 16
    with pytest.raises(ValueError):
        analytic.ghz_cj_detection_threshold(1)
    for n in range(2, 9):
        thr = analytic.ghz_cj_detection_threshold(n)
        theta_hi = 0.5 * math.asin(min(1.0, thr * (1 + 1e-6)))
        theta_lo = 0.5 * math.asin(thr * (1 - 1e-6))
        assert analytic.b_ent_cj(make_state(GeneralizedGHZ(theta_hi), HALF, n)) > 1
        assert analytic.b_ent_cj(make_state(GeneralizedGHZ(theta_lo), HALF, n)) < 1


# ---------------------------------------------------------------------------
# spin-1 closed forms


def test_bosonic_spin1_bell_formula():
    for n in range(2, 31):
        st = make_state(Bosonic(), ONE, n)
        ref = 2 * math.sqrt(2.0 ** (n - 1)) / (math.sqrt(3) * math.sqrt(2.0 ** (n - 1) + 1))
        assert analytic.b_bell(st) == pytest.approx(ref, rel=1e-10)
    assert analytic.b_bell(make_state(Bosonic(), ONE, 3)) == pytest.approx(4 / math.sqrt(15), rel=1e-12)


def test_bosonic_spin1_ent_formula():
    for n in range(2, 25):
        st = make_state(Bosonic(), ONE, n)
        ref = 2.0 ** (3 * n) / math.sqrt((3.0 ** (2 * n) * 2.0 ** (n - 1) + 5.0 ** (2 * n)) * (2.0 ** (n - 1) + 1))
        assert analytic.b_ent_cj(st) == pytest.approx(ref, rel=1e-10)


def test_bosonic_spin1_epr_formula():
    for n in range(2, 25):
        st = make_state(Bosonic(), ONE, n)
        ref = 2.0 ** ((n + 4) / 2) / math.sqrt(17 * (2.0 ** (n - 1) + 1))
        assert analytic.b_steer_t(st, 1) == pytest.approx(ref, rel=1e-10)


def b_spin1_closed_forms(kind: kinds.CriterionKind, r: float, n_sites: int) -> float:
    """Printed spin-1 formulas for the (1, r, 1) family; a regression surface.

    These duplicate the general machinery on purpose: the two code paths
    must agree, which pins down the index conventions.  Plain double
    arithmetic, so intended for moderate N (the 2^N and (25/16)^N terms).

      bell:        2^((N+2)/2) r / sqrt((r^2+2) (2^N r^2 + 2))
      ent-cj:      ... sqrt((r^2+2) ((25/16)^N r^2 + 2 (9/16)^N))
      epr T=1:     ... sqrt((r^2+2) (9/8 + 25 r^2 2^(N-5)))
      epr T:       ... sqrt((r^2+2) (2 (9/16)^T + r^2 2^(N-T) (25/16)^T))
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    n = n_sites
    num = 2 ** ((n + 2) / 2) * r
    if isinstance(kind, Bell):
        den_sq = (r * r + 2) * (2**n * r * r + 2)
    elif isinstance(kind, EntanglementCJ):
        den_sq = (r * r + 2) * ((25 / 16) ** n * r * r + 2 * (9 / 16) ** n)
    elif isinstance(kind, Steering) and kind.bound == "cj":
        t = kind.t_sites
        if t == 1:
            den_sq = (r * r + 2) * (9 / 8 + 25 * r * r * 2.0 ** (n - 5))
        else:
            den_sq = (r * r + 2) * (2 * (9 / 16) ** t + r * r * 2.0 ** (n - t) * (25 / 16) ** t)
    else:
        raise ValueError(f"no printed spin-1 closed form for kind {kind!r}")
    return num / math.sqrt(den_sq)


def test_spin1_printed_forms_match_general_path():
    rs = (0.25, 0.8409, 1.0, 3.0)
    for r in rs:
        for n in (2, 3, 5, 9):
            st = make_state(SpinOneR(r), ONE, n)
            assert b_spin1_closed_forms(Bell(), r, n) == pytest.approx(
                analytic.b_bell(st), rel=1e-12
            )
            assert b_spin1_closed_forms(EntanglementCJ(), r, n) == pytest.approx(
                analytic.b_ent_cj(st), rel=1e-12
            )
            assert b_spin1_closed_forms(Steering(1), r, n) == pytest.approx(
                analytic.b_steer_t(st, 1), rel=1e-12
            )
            for t in (2, 3):
                if t <= n:
                    assert b_spin1_closed_forms(Steering(t), r, n) == pytest.approx(
                        analytic.b_steer_t(st, t), rel=1e-12
                    )


def test_spin1_printed_form_values():
    # direct substitutions
    assert b_spin1_closed_forms(Bell(), 1.0, 3) == pytest.approx(
        2**2.5 / (math.sqrt(3) * math.sqrt(10)), rel=1e-14
    )
    assert b_spin1_closed_forms(EntanglementCJ(), 1.0, 3) == pytest.approx(
        2**2.5 / (math.sqrt(3) * math.sqrt((25 / 16) ** 3 + 2 * (9 / 16) ** 3)), rel=1e-14
    )
    with pytest.raises(ValueError):
        b_spin1_closed_forms(EntanglementHZ(), 1.0, 3)
    with pytest.raises(ValueError):
        b_spin1_closed_forms(Bell(), -0.5, 3)


def test_hz_spin1_uniform_two_sites():
    # L = (4/3)^2, R = 4/3 by direct evaluation, so B = 2/sqrt(3); the
    # C_J criterion is the stronger one here
    st = make_state(UniformMax(), ONE, 2)
    lhs, rhs = analytic.lhs_rhs(st, EntanglementHZ())
    assert lhs == pytest.approx(16 / 9, rel=1e-13)
    assert rhs == pytest.approx(4 / 3, rel=1e-13)
    b_hz = analytic.b_ent_hz(st)
    assert b_hz == pytest.approx(2 / math.sqrt(3), rel=1e-13)
    assert b_hz < analytic.b_ent_cj(st)


# ---------------------------------------------------------------------------
# reductions and orderings


def test_steering_reduction_chain():
    states = [
        make_state(Bosonic(), ONE, 5),
        make_state(UniformMax(), SpinQuantum(3), 4),
        make_state(GeneralizedGHZ(0.9), HALF, 6),
    ]
    for st in states:
        assert analytic.b_steer_t(st, 0) == pytest.approx(analytic.b_bell(st), rel=1e-12)
        assert analytic.b_steer_t(st, st.n_sites) == pytest.approx(
            analytic.b_ent_cj(st), rel=1e-12
        )


def test_b_nondecreasing_in_t():
    states = [
        make_state(UniformMax(), SpinQuantum(tj), n)
        for tj, n in ((1, 4), (2, 5), (3, 4), (5, 3))
    ] + [make_state(Bosonic(), SpinQuantum(4), 6), make_state(SpinOneR(0.6), ONE, 5)]
    for st in states:
        values = [analytic.b_steer_t(st, t) for t in range(st.n_sites + 1)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


def test_negative_custom_amplitudes_signed_sum():
    # direct float evaluation of the ladder sum as a cross-check on the
    # signed log-domain reduction
    r = np.array([0.7, -0.4, 0.2, 0.5])
    j = SpinQuantum(3)
    n = 4
    st = make_state(Custom(tuple(r)), j, n)
    jv = j.j
    m = j.m_values()
    num = sum(
        r[k] * r[k + 1] * ((jv - m[k]) * (m[k] + jv + 1)) ** (n / 2) for k in range(3)
    )
    lhs = (num / np.sum(r * r)) ** 2
    got_lhs, _ = analytic.lhs_rhs(st, Bell())
    assert got_lhs == pytest.approx(lhs, rel=1e-12)


def test_signed_ladder_sum_matches_oracle():
    st = make_state(Custom((0.3, -1.0, 0.6, 0.1)), SpinQuantum(3), 3)
    got_lhs, _ = analytic.lhs_rhs(st, Bell())
    assert got_lhs == pytest.approx(oracle.lhs_moment(st, (-1,) * 3), rel=1e-12)


def test_signed_ladder_sum_cancels_exactly():
    # both ladder terms are 0.5 * 2^(3/2), with opposite signs
    st = make_state(Custom((1.0, 0.5, -1.0)), ONE, 3)
    log_l, _ = analytic.log_lhs_rhs(st, Bell())
    assert log_l == -math.inf
    assert analytic.lhs_rhs(st, Bell())[0] == 0.0
    assert oracle.lhs_moment(st, (-1,) * 3) == 0.0


def test_eigenvalue_factors_built_once_per_j():
    fac = analytic._eigenvalue_factors(ONE)
    assert analytic._eigenvalue_factors(SpinQuantum(2)) is fac
    analytic.b_ratio(make_state(UniformMax(), ONE, 3), EntanglementCJ())
    assert SiteOp.CJ_SHIFTED not in fac
    assert not any(v.flags.writeable for v in fac.values())


def test_bad_cj_rejected():
    st = make_state(UniformMax(), ONE, 3)
    with pytest.raises(ValueError, match="spectrum floor"):
        analytic.log_sweep([st], [EntanglementCJ()], cj_offset=1.0625)  # C_J = 1.5, above q_min = J = 1


def test_nan_cj_rejected():
    # NaN compares False both ways, so the floor check must ask for shifted > 0
    st = make_state(UniformMax(), ONE, 3)
    with pytest.raises(ValueError, match="C_J = nan .* spectrum floor"):
        analytic.log_sweep([st], [EntanglementCJ()], cj_offset=math.nan)


# ---------------------------------------------------------------------------
# log-domain evaluation against exact rational arithmetic


def _log_big(value) -> float:
    p, q = value.numerator, value.denominator
    return _log_int(p) - _log_int(q)


def _log_int(p: int) -> float:
    if p.bit_length() <= 512:
        return math.log(p)
    shift = p.bit_length() - 512
    return math.log(p >> shift) + shift * math.log(2)


def _exact_log_b_sq(tj: int, n: int, t: int, c_j: Fraction) -> float:
    """log B^2 for the bosonic family via exact integer/rational arithmetic."""
    assert n % 2 == 0
    jf = Fraction(tj, 2)
    ms = [Fraction(2 * k - tj, 2) for k in range(tj + 2 - 1)]
    r = [
        (math.factorial(int(jf - m)) * math.factorial(int(jf + m))) ** ((n - 2) // 2)
        for m in ms
    ]
    num = sum(
        r[k] * r[k + 1] * ((jf - ms[k]) * (jf + ms[k] + 1)) ** (n // 2)
        for k in range(len(ms) - 1)
    )
    norm = sum(rv * rv for rv in r)
    bound = sum(
        rv * rv * (jf * (jf + 1) - m * m) ** (n - t) * (jf * (jf + 1) - m * m - c_j) ** t
        for rv, m in zip(r, ms)
    )
    return 2 * _log_big(Fraction(num)) - _log_big(Fraction(norm)) - _log_big(Fraction(bound))


@pytest.mark.parametrize(
    "tj,n,t",
    [(20, 8, 0), (20, 30, 0), (2, 30, 30), (2, 12, 1), (1, 20, 20), (7, 16, 0)],
)
def test_log_domain_matches_exact_rationals(tj, n, t):
    # C_J enters only for t > 0 and is exact (1/4, 7/16) for the spins used
    c_j = {1: Fraction(1, 4), 2: Fraction(7, 16)}.get(tj, Fraction(0))
    st = make_state(Bosonic(), SpinQuantum(tj), n)
    kind = Bell() if t == 0 else Steering(t)
    log_l, log_r = analytic.log_lhs_rhs(st, kind)
    assert log_l - log_r == pytest.approx(_exact_log_b_sq(tj, n, t, c_j), rel=1e-11, abs=1e-11)


def test_large_spin_large_n_finite():
    # C_J offset below cj_bound's (see test_spin_algebra for its computation);
    # the point here is that 5^60-scale power sums stay in the log domain
    st = make_state(Bosonic(), SpinQuantum(20), 30)
    for kind in (Bell(), EntanglementCJ(), Steering(3)):
        log_l, (log_r,) = analytic.log_sweep([st], [kind], cj_offset=-1e-3)
        b = analytic.b_from_logs(log_l[0], log_r[0])
        assert math.isfinite(b) and b > 0


# ---------------------------------------------------------------------------
# sweeps: one array pass per 2J equals the state-by-state closed forms


def _row_by_row(state, kind, c_j):
    """(log L, log R) of one state by 1-D reductions, one row at a time: the
    reference the array pass must reproduce bit for bit."""

    def logsumexp(log_terms, signs=None):
        hi = np.max(log_terms)
        if np.isneginf(hi):
            return -math.inf
        terms = np.exp(log_terms - hi)
        with np.errstate(divide="ignore"):
            return float(hi + np.log(abs(np.sum(terms if signs is None else signs * terms))))

    fac = analytic._eigenvalue_factors(state.j)
    log_r, signs = state.log_amplitudes, state.signs
    log_norm_sq = logsumexp(2 * log_r)
    ladder = log_r[:-1] + log_r[1:] + 0.5 * state.n_sites * np.log(fac[SiteOp.MINUS_PLUS][:-1])
    log_l = 2 * (logsumexp(ladder, signs[:-1] * signs[1:]) - log_norm_sq)
    powers = Counter(kinds.bound_tags(kind, state.n_sites))  # the per-site layout, counted
    cj = cj_bound(state.j).c_j if c_j is None else c_j
    log_d = np.zeros(state.dim)
    for tag in analytic._SUM_ORDER:
        power = powers[tag]
        if power:
            factor = fac[SiteOp.X2_PLUS_Y2] - cj if tag is SiteOp.CJ_SHIFTED else fac[tag]
            with np.errstate(divide="ignore"):
                log_d = log_d + power * np.log(factor)
    return log_l, logsumexp(2 * log_r + log_d) - log_norm_sq


_AMPLITUDES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5]) | st.floats(-3, 3, allow_subnormal=False)


def _family(draw, tj):
    """A state family of spin tj/2: custom vectors carry signs and exact zeros."""
    label = draw(
        st.sampled_from(
            ["uniform-max", "bosonic", "custom"] + ["ghz"] * (tj == 1) + ["spin1r"] * (tj == 2)
        )
    )
    if label == "ghz":  # theta = 0 is a product state; theta = 2 a negative amplitude
        return GeneralizedGHZ(draw(st.sampled_from([0.0, 0.3, math.pi / 4, 2.0])))
    if label == "spin1r":
        return SpinOneR(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    if label == "custom":
        amplitudes = st.lists(_AMPLITUDES, min_size=tj + 1, max_size=tj + 1)
        return Custom(tuple(draw(amplitudes.filter(lambda r: any(r)))))
    return {"uniform-max": UniformMax(), "bosonic": Bosonic()}[label]


@st.composite
def sweeps(draw):
    tj = draw(st.integers(1, 12))
    family = _family(draw, tj)
    n_values = draw(st.lists(st.integers(2, 300), min_size=1, max_size=6))
    tokens = draw(st.lists(st.sampled_from(["bell", "ent-hz", "ent-cj", "epr", "epr-hz"]), min_size=1, max_size=4))
    for i, token in enumerate(tokens):
        if token.startswith("epr"):
            t = draw(st.integers(0, min(n_values)))
            tokens[i] = token.replace("epr", f"epr{t}")
    # the C_J offset ranges over values that keep C_J below the floor J of Jx^2 + Jy^2
    top = 0.49 * tj - cj_bound(SpinQuantum(tj)).c_j
    cj_offset = draw(st.none() | st.floats(-0.5, top, allow_subnormal=False))
    return SpinQuantum(tj), family, n_values, [kinds.parse_kind(token) for token in tokens], cj_offset


@settings(max_examples=300, deadline=None)
@given(sweeps())
# always run: a zero J+ J- factor at 2J = 1 under an override, and a custom
# vector with a zero and a negative amplitude against eprT-hz with T = N
@example((HALF, GeneralizedGHZ(0.3), [2, 3, 300], [EntanglementHZ()], -0.15))
@example((SpinQuantum(3), Custom((1.0, 0.0, -0.5, 2.0)), [4, 7, 40], [Steering(4, "hz"), Bell()], None))
@example((ONE, SpinOneR(0.0), [2, 5, 9], [Steering(2), EntanglementCJ(), EntanglementHZ()], -0.125))
def test_sweep_rows_equal_one_state_closed_forms(case):
    j, family, n_values, kind_list, cj_offset = case
    c_j = None if cj_offset is None else cj_bound(j).c_j + cj_offset
    states = [make_state(family, j, n) for n in n_values]
    log_l, log_r_lists = analytic.log_sweep(states, kind_list, cj_offset=cj_offset)
    assert len(log_r_lists) == len(kind_list)
    for kind, log_r in zip(kind_list, log_r_lists):
        assert len(log_l) == len(log_r) == len(states)
        for state, row in zip(states, zip(log_l, log_r)):
            one_l, (one_r,) = analytic.log_sweep([state], [kind], cj_offset=cj_offset)
            one = (one_l[0], one_r[0])
            if cj_offset is None:  # the one-state closed form, which takes no offset
                assert analytic.log_lhs_rhs(state, kind) == one
                assert all(type(v) is float for v in analytic.log_lhs_rhs(state, kind))
            assert all(type(v) is float for v in row + one)
            assert row == one == _row_by_row(state, kind, c_j)


@st.composite
def mixed_sweeps(draw):
    """States of 1-3 spins, d <= 12, interleaved, each of its own family and N;
    a kind list; and a C_J offset."""
    spins = draw(st.lists(st.integers(1, 11), min_size=1, max_size=3, unique=True))
    states = []
    for _ in range(draw(st.integers(1, 8))):
        tj = draw(st.sampled_from(spins))
        states.append(make_state(_family(draw, tj), SpinQuantum(tj), draw(st.integers(2, 300))))
    tokens = draw(st.lists(st.sampled_from(["bell", "ent-hz", "ent-cj", "epr1", "epr2-hz"]), min_size=1, max_size=4))
    return states, [kinds.parse_kind(token) for token in tokens], draw(st.sampled_from([None, 0.0, -1e-3]))


_MIXED = [
    make_state(Custom((1.0, 0.0, -0.5, 2.0)), SpinQuantum(3), 5),
    make_state(GeneralizedGHZ(2.0), HALF, 7),
    make_state(Bosonic(), SpinQuantum(3), 40),
    make_state(SpinOneR(0.0), ONE, 3),
    make_state(UniformMax(), HALF, 300),
]


@settings(max_examples=300, deadline=None)
@given(mixed_sweeps())
@example((_MIXED[:3:2], [Bell(), EntanglementHZ()], None))
@example((_MIXED, [EntanglementCJ(), Steering(1), Steering(2, "hz")], -1e-3))
def test_sweep_takes_log_n_as_the_states_store_it(case):
    # each state's stored log n is bit for bit the log-sum-exp over its spin's
    # stacked amplitudes, so the sweep equals the closed forms with log n
    # recomputed, one state at a time
    states, kind_list, _ = case
    log_l, log_r = analytic.log_sweep(states, kind_list)
    for j in {s.j for s in states}:
        index = [i for i, s in enumerate(states) if s.j == j]
        log_n = _logsumexp(2 * np.array([states[i].log_amplitudes for i in index]))
        assert log_n.tolist() == [states[i].log_norm_sq for i in index]
    for s, state in enumerate(states):
        for kind, row in zip(kind_list, log_r):
            assert (log_l[s], row[s]) == _row_by_row(state, kind, None)


@settings(max_examples=300, deadline=None)
@given(mixed_sweeps())
@example((_MIXED, [Bell(), EntanglementCJ(), Steering(1), Steering(2, "hz")], -1e-3))
@example((_MIXED[::-1], [EntanglementHZ(), Steering(1)], 0.0))
def test_mixed_spin_sweep_rows_equal_one_state_closed_forms(case):
    # any spins in any order: row s is state s, bit for bit, with each spin's
    # C_J offset as verify --corrupt-cj offsets it, and offset 0.0 is no offset
    states, kind_list, cj_offset = case
    log_l, log_r = analytic.log_sweep(states, kind_list, cj_offset=cj_offset)
    assert len(log_l) == len(states) and [len(row) for row in log_r] == [len(states)] * len(kind_list)
    for s, state in enumerate(states):
        c_j = None if cj_offset is None else cj_bound(state.j).c_j + cj_offset
        for kind, row in zip(kind_list, log_r):
            assert (log_l[s], row[s]) == _row_by_row(state, kind, c_j)
            if cj_offset is None:
                assert (log_l[s], row[s]) == analytic.log_lhs_rhs(state, kind)
    assert analytic.log_sweep(states, kind_list, cj_offset=0.0) == analytic.log_sweep(states, kind_list)


def test_sweep_of_no_states_is_empty():
    for cj_offset in (None, 0.0, -1e-3):
        assert analytic.log_sweep([], [Bell(), EntanglementCJ()], cj_offset=cj_offset) == ([], [[], []])


def test_weights_broadcast_over_n():
    # N = 1 gives ent-hz no J- J+ site, whose factor is zero at m = J: the
    # zero power must stay out of that row while the others take the log
    j, n_values = SpinQuantum(3), np.array([1, 2, 3, 7, 40])
    ladder = analytic.log_ladder_weights(j, n_values)
    assert ladder.shape == (5, 3)
    for kind in (Bell(), EntanglementHZ(), EntanglementCJ(), Steering(1, "hz"), Steering(1)):
        bound = analytic.log_bound_weights(j, n_values, kind)
        assert bound.shape == (5, 4)
        for i, n in enumerate(n_values.tolist()):
            assert np.array_equal(ladder[i], analytic.log_ladder_weights(j, n))
            assert np.array_equal(bound[i], analytic.log_bound_weights(j, n, kind))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tj", range(1, 13))
def test_weights_over_an_n_array_stack_the_int_calls(tj):
    # one bound_counts read over the whole array equals the int-N calls stacked,
    # bit for bit, -inf included (ent-hz and HZ steering at 2J = 1), on shuffled
    # N with repeats, given as ints and as floats
    j, rng = SpinQuantum(tj), np.random.default_rng(tj)
    tokens = ["bell", "ent-cj", "ent-hz"] + [f"epr{t}{hz}" for t in range(4) for hz in ("", "-hz")]
    for kind in map(kinds.parse_kind, tokens):
        low = max(1, getattr(kind, "t_sites", 1))
        n_values = rng.permutation(list(range(low, low + 5)) * 2 + [low, 60, 200])
        stacked = np.array([analytic.log_bound_weights(j, int(n), kind) for n in n_values])
        for n_array in (n_values, n_values.astype(float)):
            assert np.array_equal(analytic.log_bound_weights(j, n_array, kind), stacked), (tj, kind)
        if tj == 1 and isinstance(kind, EntanglementHZ):
            assert np.isneginf(stacked).any()


def test_sweep_raises_what_the_first_row_raises():
    # N goes in as floats, in the states' order; the message names the first N too small
    states = [make_state(UniformMax(), ONE, n) for n in (3, 2)]
    with pytest.raises(ValueError, match="^t_sites = 4 exceeds n_sites = 3$"):
        analytic.log_sweep(states, [Steering(4)])

    states = [make_state(UniformMax(), ONE, n) for n in (2, 5)]
    for others in ([], [Bell()], [Bell(), EntanglementHZ()]):  # the bad kind alone or after good ones
        with pytest.raises(ValueError, match="t_sites = 3 exceeds n_sites = 2"):
            analytic.log_sweep(states, others + [Steering(3)])
        with pytest.raises(ValueError, match="not below the Jx\\^2 \\+ Jy\\^2 spectrum floor"):
            analytic.log_sweep(states, others + [Steering(1)], cj_offset=1.0625)
        free = others + [Bell(), EntanglementHZ()]  # no C_J factor: the offset is ignored
        assert analytic.log_sweep(states, free, cj_offset=1.0625) == analytic.log_sweep(states, free)


@pytest.mark.filterwarnings("error")
def test_array_forms_equal_the_scalar_forms_elementwise():
    # a family scan finishes its rows as arrays, log L a row per state and log R
    # a row per kind; each cell equals the scalar call, and -inf - -inf (L = R = 0)
    # or an exp past the double range warns of nothing
    from spinmoments import criteria

    inf = math.inf
    values = [-inf, -800.0, -1.0, 0.0, 1.5 - 1e-12, 1.5, 709.0, 800.0]
    log_l, log_r = np.array(values), np.array(values)[:, None]
    b, verdict = analytic.b_from_logs(log_l, log_r), criteria.violated(log_l, log_r)
    assert analytic.exp_or_inf(log_l).tolist() == [analytic.exp_or_inf(v) for v in values]
    assert {type(v) for v in b.tolist()[3] + verdict.tolist()[3]} == {float, bool}
    for i, r in enumerate(values):
        for k, l in enumerate(values):
            one = analytic.b_from_logs(l, r)
            assert type(one) is float and (b[i, k] == one or math.isnan(b[i, k]) and math.isnan(one))
            assert verdict[i, k] == criteria.violated(l, r)
    assert math.isnan(b[0, 0]) and not verdict[0, 0]  # L = R = 0: undefined, no violation
    assert b[0, 5] == inf and verdict[0, 5]  # R = 0 < L
    assert b[5, 0] == analytic.exp_or_inf(-inf) == 0.0  # L = 0
    assert b[1, 7] == analytic.exp_or_inf(800.0) == inf  # past the double range
