import math
from fractions import Fraction

import numpy as np
import pytest

from spinmoments import analytic, oracle
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, SiteOp, Steering
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import (
    Bosonic,
    Custom,
    GeneralizedGHZ,
    SpinOneR,
    UniformMax,
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


def test_spin1_printed_forms_match_general_path():
    rs = (0.25, 0.8409, 1.0, 3.0)
    for r in rs:
        for n in (2, 3, 5, 9):
            st = make_state(SpinOneR(r), ONE, n)
            assert analytic.b_spin1_closed_forms(Bell(), r, n) == pytest.approx(
                analytic.b_bell(st), rel=1e-12
            )
            assert analytic.b_spin1_closed_forms(EntanglementCJ(), r, n) == pytest.approx(
                analytic.b_ent_cj(st), rel=1e-12
            )
            assert analytic.b_spin1_closed_forms(Steering(1), r, n) == pytest.approx(
                analytic.b_steer_t(st, 1), rel=1e-12
            )
            for t in (2, 3):
                if t <= n:
                    assert analytic.b_spin1_closed_forms(Steering(t), r, n) == pytest.approx(
                        analytic.b_steer_t(st, t), rel=1e-12
                    )


def test_spin1_printed_form_values():
    # direct substitutions
    assert analytic.b_spin1_closed_forms(Bell(), 1.0, 3) == pytest.approx(
        2**2.5 / (math.sqrt(3) * math.sqrt(10)), rel=1e-14
    )
    assert analytic.b_spin1_closed_forms(EntanglementCJ(), 1.0, 3) == pytest.approx(
        2**2.5 / (math.sqrt(3) * math.sqrt((25 / 16) ** 3 + 2 * (9 / 16) ** 3)), rel=1e-14
    )
    with pytest.raises(ValueError):
        analytic.b_spin1_closed_forms(EntanglementHZ(), 1.0, 3)
    with pytest.raises(ValueError):
        analytic.b_spin1_closed_forms(Bell(), -0.5, 3)


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


def test_hz_l_sign_count_only_matters():
    st = make_state(Bosonic(), ONE, 4)
    a = analytic.log_bound_moment(st, EntanglementHZ(), l_signs=(1, -1, -1, -1))
    b = analytic.log_bound_moment(st, EntanglementHZ(), l_signs=(-1, -1, 1, -1))
    assert a == pytest.approx(b, abs=1e-13)


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
        analytic.b_ratio(st, EntanglementCJ(), c_j=1.5)  # above q_min = J = 1


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
    # C_J supplied directly (see test_spin_algebra for its computation); the
    # point here is that 5^60-scale power sums stay in the log domain
    st = make_state(Bosonic(), SpinQuantum(20), 30)
    for kind in (Bell(), EntanglementCJ(), Steering(3)):
        b = analytic.b_ratio(st, kind, c_j=2.4453176)
        assert math.isfinite(b) and b > 0
