import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dense_reference import dense_cj

from spinmoments import spin_algebra
from spinmoments.spin_algebra import (
    BoundSource,
    SpinQuantum,
    _CJ_TABLE,
    _cj_allowance,
    _lowering,
    _tridiagonal_eigh,
    build_spin_matrices,
    cj_bound,
    compute_cj,
    minimize_on_interval,
)


def test_spin_quantum_basics():
    j = SpinQuantum(3)
    assert j.dim == 4
    assert j.j == 1.5
    assert np.array_equal(j.m_values(), [-1.5, -0.5, 0.5, 1.5])


def test_spin_quantum_rejects_trivial_and_float():
    with pytest.raises(ValueError):
        SpinQuantum(0)
    with pytest.raises(ValueError):
        SpinQuantum(-2)
    with pytest.raises(TypeError):
        SpinQuantum(1.5)


def test_spin_half_is_half_pauli():
    # Pauli matrices written in this package's basis order m = -1/2, +1/2
    # (the usual convention lists spin-up first, which permutes sy and sz)
    m = build_spin_matrices(SpinQuantum(1))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, 1j], [-1j, 0]], dtype=complex)
    sz = np.array([[-1, 0], [0, 1]], dtype=complex)
    assert np.allclose(m.jx, sx / 2)
    assert np.allclose(m.jy, sy / 2)
    assert np.allclose(m.jz, sz / 2)


def test_spin_one_ladder_elements():
    m = build_spin_matrices(SpinQuantum(2))
    assert np.allclose(np.diag(m.jz), [-1, 0, 1])
    # <0|J-|+1> = sqrt(2): row m=0 (index 1), column m=+1 (index 2)
    assert m.jminus[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert np.allclose(m.jplus, m.jminus.conj().T)


@pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 5, 8, 13, 27, 40])
def test_commutators_and_casimir(twice_j):
    j = SpinQuantum(twice_j)
    m = build_spin_matrices(j)

    def comm(a, b):
        return a @ b - b @ a

    assert np.max(np.abs(comm(m.jx, m.jy) - 1j * m.jz)) < 1e-12
    assert np.max(np.abs(comm(m.jy, m.jz) - 1j * m.jx)) < 1e-12
    assert np.max(np.abs(comm(m.jz, m.jx) - 1j * m.jy)) < 1e-12
    casimir = m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz
    assert np.max(np.abs(casimir - j.j * (j.j + 1) * np.eye(j.dim))) < 1e-12


@pytest.mark.parametrize("twice_j", range(1, 21))
def test_jx_spectrum_matches_jz(twice_j):
    # dense eigensolve as the independent check on the representation
    j = SpinQuantum(twice_j)
    m = build_spin_matrices(j)
    eigs = np.sort(np.linalg.eigvalsh(m.jx))
    assert np.allclose(eigs, j.m_values(), atol=1e-12)


def test_lowering_elements_are_one_formula():
    # <m-1|J-|m> = sqrt((J+m)(J-m+1)) element by element, bit for bit, over
    # every d the oracle builds; jminus carries exactly these on its superdiagonal
    for twice_j in range(1, 1024):
        j = SpinQuantum(twice_j)
        loop = [math.sqrt((j.j + m) * (j.j - m + 1)) for m in j.m_values()[1:]]
        assert _lowering(j).tolist() == loop
    for twice_j in (1, 2, 3, 40, 101):
        j = SpinQuantum(twice_j)
        jminus = build_spin_matrices(j).jminus
        assert np.array_equal(jminus, np.diag(_lowering(j), 1))


def _cj_eigenvalue_route(twice_j: int) -> float:
    # C_J = min_a lambda_min((Jx - a)^2 + Jy^2): completing the square makes
    # the shifted expectation an upper envelope of the variance sum, and the
    # z-rotation symmetry removes the Jy shift.  Dense complex eigensolves
    # with no bracketing grid, independent of the tridiagonal route under test.
    m = build_spin_matrices(SpinQuantum(twice_j))
    eye = np.eye(twice_j + 1)

    def lowest(a):
        op = (m.jx - a * eye) @ (m.jx - a * eye) + m.jy @ m.jy
        return float(np.linalg.eigvalsh(op)[0])

    res = minimize_scalar(lowest, bounds=(0.0, twice_j / 2 + 1), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


@pytest.mark.parametrize("twice_j", [*range(1, 41), 61, 62])
def test_cj_bound_is_sound_and_tight(twice_j):
    # a lower bound on the true floor, and no looser than the 1e-9 allowance;
    # 61 and 62 cover both parities of the even block at the largest 2J where
    # the allowance stays at or below 1e-9 (J(J+1) <= 1000)
    floor = _cj_eigenvalue_route(twice_j)
    assert floor - 1e-9 <= cj_bound(SpinQuantum(twice_j)).c_j <= floor + 1e-12


@pytest.mark.parametrize("twice_j", [100, 199, 200])
def test_cj_bound_is_sound_within_the_allowance_at_large_spin(twice_j):
    # beyond 2J = 62 the allowance 1e-12 J(J+1) exceeds 1e-9; C_J stays
    # below the dense floor and within that allowance of it
    j = SpinQuantum(twice_j)
    floor = _cj_eigenvalue_route(twice_j)
    assert floor - _cj_allowance(j) <= cj_bound(j).c_j <= floor


def _well(x_star, power=2, offset=0.0):
    """(value, slope) of (x - x_star)^power + offset; broadcasts."""
    return lambda x: ((x - x_star) ** power + offset, power * (x - x_star) ** (power - 1))


# on [-1, 3] the grid nodes sit at -1 + k/16
@pytest.mark.parametrize(
    "f, x_star",
    [
        (_well(0.7071), 0.7071),  # inside a cell
        (_well(0.3125, offset=2.0), 0.3125),  # on a grid node
        (_well(-1.25), -1.0),  # increasing: the minimum is at lo
        (_well(3.25), 3.0),  # decreasing: the minimum is at hi
        (_well(1.2345, power=4), 1.2345),  # flat bottom
    ],
)
def test_minimize_on_interval_polishes_the_grid_minimum(f, x_star):
    lo, hi = -1.0, 3.0
    x, fx = minimize_on_interval(f, lo, hi)
    assert abs(x - x_star) <= 1e-12 * (hi - lo)
    assert fx == f(x)[0]
    assert all(fx <= f(g)[0] for g in np.linspace(lo, hi, 65))


def test_minimize_on_interval_evaluates_the_grid_in_one_call():
    shapes, f = [], _well(0.7071)

    def spy(x):
        shapes.append(np.shape(x))
        return f(x)

    minimize_on_interval(spy, -1.0, 3.0)
    assert shapes[0] == (65,)
    assert len(shapes) > 1 and all(shape == () for shape in shapes[1:])


@pytest.mark.parametrize("twice_j", [3, 9, 40, 200])
def test_compute_cj_solves_its_grid_in_one_stacked_call(eigen_solves, twice_j):
    # the most over 2J = 3..200 is 15: the grid and at most 14 zeroin steps
    compute_cj.__wrapped__(SpinQuantum(twice_j))  # past the cache
    assert eigen_solves.count((65,)) == 1
    assert all(shape in ((65,), ()) for shape in eigen_solves)
    assert len(eigen_solves) <= 15


@pytest.mark.parametrize("stack", [(), (3,), (65,)])
def test_tridiagonal_eigh_equals_dense_eigh(stack):
    # eigenvalues and eigenvectors bit for bit as eigh of the np.diag-built
    # matrices, k = 1 (no off-diagonal) to 40, and each row as its single solve
    rng = np.random.default_rng(sum(stack))
    for k in range(1, 41):
        diag, off = rng.standard_normal(stack + (k,)), rng.standard_normal(stack + (k - 1,))
        w, v = _tridiagonal_eigh(diag, off)
        dense = np.zeros(stack + (k, k))
        for i in np.ndindex(stack):
            dense[i] = np.diag(diag[i]) + np.diag(off[i], 1) + np.diag(off[i], -1)
        dense_w, dense_v = np.linalg.eigh(dense)
        assert w.shape == stack + (k,) and v.shape == stack + (k, k)
        assert np.array_equal(w, dense_w) and np.array_equal(v, dense_v)
        for i in np.ndindex(stack):
            one_w, one_v = _tridiagonal_eigh(diag[i], off[i])
            assert np.array_equal(one_w, w[i]) and np.array_equal(one_v, v[i])


def test_compute_cj_equals_the_dense_assembly():
    # the kernel hands eigh the same matrices the dense d x d assembly built,
    # +0.0 off the band included, so C_J does not move in any bit
    for twice_j in range(1, 65):
        j = SpinQuantum(twice_j)
        assert compute_cj.__wrapped__(j).c_j == dense_cj(j)


def _cj_searches(monkeypatch, twice_js):
    """(lowest, lo, hi) of each compute_cj search, one per 2J."""
    searches = []

    def spy(f, lo, hi):
        searches.append((f, lo, hi))
        return minimize_on_interval(f, lo, hi)

    monkeypatch.setattr(spin_algebra, "minimize_on_interval", spy)
    for twice_j in twice_js:
        compute_cj.__wrapped__(SpinQuantum(twice_j))
    assert len(searches) == len(twice_js)
    return searches


def test_cj_grid_rows_equal_single_point_solves(monkeypatch):
    # each row of the stacked eigh, value and slope, is bit-identical to a
    # solve at that a alone
    for lowest, lo, hi in _cj_searches(monkeypatch, range(3, 41)):
        grid = np.linspace(lo, hi, 65)
        values, slopes = lowest(grid)
        assert values.shape == slopes.shape == (65,)
        for i, a in enumerate(grid):
            value, slope = lowest(a)
            assert value == values[i] and slope == slopes[i]


def test_cj_slope_matches_a_central_difference(monkeypatch):
    # d/da (lambda_min + a^2) = 2a - x^T (2 Jx) x (Hellmann-Feynman)
    for lowest, lo, hi in _cj_searches(monkeypatch, [3, 9, 40, 200]):
        h, checked = 1e-4, 0
        for a in np.linspace(lo, hi, 97)[1:-1]:
            _, slope = lowest(float(a))
            if abs(slope) < 0.05:
                continue
            difference = (lowest(float(a) + h)[0] - lowest(float(a) - h)[0]) / (2 * h)
            assert difference == pytest.approx(slope, rel=1e-6)
            checked += 1
        assert checked >= 80


def test_cj_bound_within_quoted_half_unit():
    # the quoted values carry half a unit in their last digit; 1/4 and 7/16
    # are exact and are returned as tabulated
    half_unit = {1: 1e-12, 2: 1e-12, 3: 5e-5, 4: 5e-5, 5: 5e-5, 6: 5e-5, 7: 5e-5, 8: 5e-3}
    for tj, quoted in _CJ_TABLE.items():
        bound = cj_bound(SpinQuantum(tj))
        assert abs(bound.c_j - quoted) <= half_unit[tj]
        expected = BoundSource.TABULATED if tj <= 2 else BoundSource.COMPUTED
        assert bound.source is expected
    assert cj_bound(SpinQuantum(1)).c_j == 0.25
    assert cj_bound(SpinQuantum(2)).c_j == 0.4375


def test_compute_cj_matches_table_spot():
    assert compute_cj(SpinQuantum(2)).c_j == pytest.approx(7 / 16, abs=1e-3)
    assert compute_cj(SpinQuantum(4)).c_j == pytest.approx(0.7496, abs=1e-3)


def test_compute_cj_matches_eigenvalue_route_beyond_table():
    got = compute_cj(SpinQuantum(9))
    assert got.source is BoundSource.COMPUTED
    assert got.c_j == pytest.approx(_cj_eigenvalue_route(9), abs=1e-6)


def test_computed_cj_grows_past_table_end():
    # J=5 must exceed C_4 = 1.26 (the table trend continues)
    got = compute_cj(SpinQuantum(10))
    assert got.c_j > 1.26


def test_compute_cj_validates_arguments():
    # compute_cj takes only j: the retired search knobs are refused, not ignored
    for knob in ({"restarts": 0}, {"tol": -1.0}, {"restarts": 12}, {"seed": 0}):
        with pytest.raises(TypeError):
            compute_cj(SpinQuantum(1), **knob)


def test_cj_override_only_on_the_closed_form_chain():
    # every verdict and the oracle read C_J from cj_bound: a c_j= keyword is
    # refused everywhere, and analytic.log_sweep's cj_offset=, the route of
    # verify --corrupt-cj, is the one override
    from spinmoments import analytic, criteria, optimizer, oracle, spin_algebra
    from spinmoments.kinds import EntanglementCJ
    from spinmoments.states import UniformMax, make_state, support_vector

    j = SpinQuantum(2)
    st = make_state(UniformMax(), j, 2)
    vec, tags = support_vector(st), [oracle.SiteOp.CJ_SHIFTED] * 2
    entry_points = [
        lambda **kw: oracle.expect_product(vec, tags, j, **kw),
        lambda **kw: oracle.expect_table(vec, [(tag,) for tag in tags], j, **kw),
        lambda **kw: oracle.bound_rows(vec, [tags], j, **kw),
        lambda **kw: oracle.rhs_moment(st, EntanglementCJ(), **kw),
        lambda **kw: criteria.evaluate(st, EntanglementCJ(), **kw),
        lambda **kw: criteria.nested_verdicts(st, 2, **kw),
        lambda **kw: optimizer.optimize_amplitudes(j, 2, EntanglementCJ(), **kw),
        lambda **kw: analytic.lhs_rhs(st, EntanglementCJ(), **kw),
        lambda **kw: analytic.log_lhs_rhs(st, EntanglementCJ(), **kw),
        lambda **kw: analytic.b_ratio(st, EntanglementCJ(), **kw),
        lambda **kw: analytic.b_ent_cj(st, **kw),
        lambda **kw: analytic.b_steer_t(st, 1, **kw),
    ]
    for call in entry_points:
        call()
        with pytest.raises(TypeError):
            call(c_j=0.1)
    assert not hasattr(spin_algebra, "cj_value")
    assert "c_j" not in optimizer.OptimizationReport.__dataclass_fields__
    log_l, (log_r,) = analytic.log_sweep([st], [EntanglementCJ()], cj_offset=0.1)
    assert analytic.b_from_logs(log_l[0], log_r[0]) != analytic.b_ent_cj(st)
    with pytest.raises(TypeError):
        analytic.log_sweep([st], [EntanglementCJ()], c_j=0.1)


def test_cj_bound_beyond_table_flagged_computed():
    assert cj_bound(SpinQuantum(9)).source is BoundSource.COMPUTED


def test_table_is_monotone_in_j():
    values = [_CJ_TABLE[tj] for tj in sorted(_CJ_TABLE)]
    assert values == sorted(values)
