import math

import numpy as np
import pytest

from spinmoments import analytic
from spinmoments.criteria import evaluate
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering
from spinmoments.optimizer import min_sites_for_violation, optimize_amplitudes, scan_curve
from spinmoments.spin_algebra import SpinQuantum
from spinmoments.states import Bosonic, Custom, UniformMax, make_state

ONE = SpinQuantum(2)


def test_objective_gauge_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = rng.uniform(0.05, 1.0, size=5)
        for c in (0.01, 3.0, 250.0):
            a = analytic.b_bell(make_state(Custom(tuple(r)), SpinQuantum(4), 4))
            b = analytic.b_bell(make_state(Custom(tuple(c * r)), SpinQuantum(4), 4))
            assert b == pytest.approx(a, rel=1e-12)


def test_best_beats_deterministic_starts():
    for tj, n, kind in ((2, 4, Bell()), (4, 5, EntanglementCJ()), (3, 4, Steering(1))):
        j = SpinQuantum(tj)
        report = optimize_amplitudes(j, n, kind, restarts=5, seed=1)
        uniform_b = analytic.b_ratio(make_state(UniformMax(), j, n), kind)
        bosonic_b = analytic.b_ratio(make_state(Bosonic(), j, n), kind)
        assert report.best_b >= uniform_b - 1e-12
        assert report.best_b >= bosonic_b - 1e-12


def test_report_is_self_consistent():
    # the reported B is exactly the B of the reported state
    cases = [
        (tj, n, kind, symmetric)
        for tj, n, kind in ((2, 5, Bell()), (3, 6, EntanglementHZ()), (4, 7, Steering(2, "hz")))
        for symmetric in (True, False)
    ]
    for tj, n, kind, symmetric in cases:
        report = optimize_amplitudes(SpinQuantum(tj), n, kind, symmetric=symmetric)
        assert np.sum(report.best_r**2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(report.best_r >= 0)
        assert report.best_b == analytic.b_ratio(report.best_state(), kind)


@pytest.mark.parametrize("tj", [1, 2, 3])
def test_report_verdict_matches_criteria(tj):
    # d = 2..4, N = 2..8, including B = 1 exactly at d = 2, N = 2
    for n in range(2, 9):
        report = optimize_amplitudes(SpinQuantum(tj), n, Bell())
        result = evaluate(report.best_state(), Bell())
        assert report.violated == result.violated
        assert report.best_b == result.b


def test_seed_reproducibility():
    # the route is exact: seed and restarts are accepted and ignored
    reports = [
        optimize_amplitudes(SpinQuantum(3), 4, Bell(), restarts=restarts, seed=seed)
        for seed in (0, 7)
        for restarts in (1, 20)
    ]
    for other in reports[1:]:
        assert other.best_b == reports[0].best_b
        assert np.array_equal(other.best_r, reports[0].best_r)


def test_spin_half_hz_is_unbounded():
    # R vanishes identically for spin 1/2 with mixed l signs
    for symmetric in (True, False):
        report = optimize_amplitudes(SpinQuantum(1), 4, EntanglementHZ(), symmetric=symmetric)
        assert report.best_b == math.inf
        assert np.array_equal(report.best_r, np.full(2, 1 / math.sqrt(2)))


@pytest.mark.parametrize("kind", [Bell(), EntanglementCJ()], ids=["bell", "ent-cj"])
def test_large_spin_many_sites_finite(kind):
    report = optimize_amplitudes(SpinQuantum(9), 1000, kind)
    assert math.isfinite(report.best_b) and report.best_b > 0
    assert np.all(np.isfinite(report.best_r))
    assert np.sum(report.best_r**2) == pytest.approx(1.0, abs=1e-12)


def test_symmetry_constraint_respected():
    report = optimize_amplitudes(SpinQuantum(5), 4, Bell(), restarts=4, seed=0)
    assert np.array_equal(report.best_r, report.best_r[::-1])


def test_asymmetric_search_matches_symmetric_here():
    # the built-in families are symmetric; releasing the constraint must not
    # lose ground, and for these criteria it has nothing extra to find
    sym = optimize_amplitudes(ONE, 4, Bell(), restarts=8, seed=0)
    asym = optimize_amplitudes(ONE, 4, Bell(), symmetric=False, restarts=8, seed=0)
    assert asym.best_b == pytest.approx(sym.best_b, abs=1e-7)


def test_spin1_bell_matches_dense_1d_grid():
    # the symmetric spin-1 search is the (1, r, 1) family up to gauge, so a
    # dense grid over the printed one-parameter ratio is a complete oracle
    for n in (3, 5):
        rs = np.arange(1e-4, 10.0 + 1e-9, 1e-4)
        grid = 2 ** ((n + 2) / 2) * rs / np.sqrt((rs * rs + 2) * (2.0**n * rs * rs + 2))
        best_grid = float(np.max(grid))
        report = optimize_amplitudes(ONE, n, Bell(), restarts=8, seed=0)
        assert report.best_b == pytest.approx(best_grid, abs=1e-8)


def _simplex_grid_best(j, n, kind, points_per_axis, symmetric=True):
    """Coarse simplex scan (>= 10^4 points) refined once around the best cell.

    B is evaluated for the whole grid at once from the closed-form weights
    (L = (sum r_m r_m+1 g_m)^2 / n^2, R = sum r_m^2 D_m / n); the best point
    is cross-checked against analytic.b_ratio.
    """
    k = np.arange(j.dim)
    fold = np.minimum(k, k[::-1]) if symmetric else k
    ladder = np.exp(analytic.log_ladder_weights(j, n))
    bound = np.exp(analytic.log_bound_weights(j, n, kind))

    def values(axes):
        mesh = np.meshgrid(*axes, indexing="ij")
        r = np.stack([m.ravel() for m in mesh], axis=1)[:, fold]
        with np.errstate(divide="ignore", invalid="ignore"):
            b = (r[:, :-1] * r[:, 1:]) @ ladder / np.sqrt(np.sum(r * r, 1) * ((r * r) @ bound))
        b[np.isnan(b)] = -math.inf  # all-zero rows and L = R = 0
        return r, b

    n_free = fold.max() + 1
    r, b = values([np.linspace(0.0, 1.0, points_per_axis)] * n_free)
    step = 1.0 / (points_per_axis - 1)
    x = r[int(np.argmax(b))][:n_free]  # fold is the identity on the free amplitudes
    r, b = values([np.linspace(max(v - step, 0.0), v + step, points_per_axis) for v in x])
    best = int(np.argmax(b))
    checked = analytic.b_ratio(make_state(Custom(tuple(r[best])), j, n), kind)
    assert checked == pytest.approx(b[best], rel=1e-12)
    return b[best]


def _points_per_axis(n_free):
    return {1: 10001, 2: 110, 3: 22, 4: 11}[n_free]  # >= 10^4 grid points each


@pytest.mark.parametrize("tj,n", [(1, 5), (2, 4), (3, 6)])
def test_optimizer_not_beaten_by_simplex_grid(tj, n):
    j = SpinQuantum(tj)
    grid_best = _simplex_grid_best(j, n, Bell(), _points_per_axis((j.dim + 1) // 2))
    report = optimize_amplitudes(j, n, Bell())
    assert report.best_b >= grid_best * (1 - 1e-12)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "full"])
@pytest.mark.parametrize("kind", [EntanglementHZ(), Steering(2, "hz")], ids=["ent-hz", "epr2-hz"])
@pytest.mark.parametrize("tj,n", [(2, 4), (3, 5)])
def test_hz_optimizer_not_beaten_by_simplex_grid(tj, n, kind, symmetric):
    # HZ bound weights vanish at m = +-J and are not symmetric in m
    j = SpinQuantum(tj)
    n_free = (j.dim + 1) // 2 if symmetric else j.dim
    grid_best = _simplex_grid_best(j, n, kind, _points_per_axis(n_free), symmetric)
    report = optimize_amplitudes(j, n, kind, symmetric=symmetric)
    assert report.best_b >= grid_best * (1 - 1e-12)


def test_restart_validation():
    with pytest.raises(ValueError):
        optimize_amplitudes(ONE, 3, Bell(), restarts=0)
    with pytest.raises(ValueError):
        min_sites_for_violation(ONE, Bell(), 1)


def test_min_sites_spin_half_and_spin1():
    res = min_sites_for_violation(SpinQuantum(1), Bell(), 6, restarts=4, seed=0)
    assert res.min_n == 3
    assert res.b_at_min_n == pytest.approx(math.sqrt(2), rel=1e-9)
    assert res.dim == 2
    res = min_sites_for_violation(ONE, Bell(), 6, restarts=6, seed=0)
    assert res.min_n == 3
    assert res.b_at_min_n > 1 + 1e-9


def test_min_sites_none_found():
    # spin 2 cannot violate Bell with 4 sites
    res = min_sites_for_violation(SpinQuantum(4), Bell(), 4, restarts=4, seed=0)
    assert res.min_n is None
    assert res.b_at_min_n < 1
    assert res.n_max_searched == 4


def test_scan_curve_rows_and_trends():
    rows = scan_curve([Bell(), EntanglementCJ()], Bosonic(), [(2, 2), (2, 3), (2, 4)])
    assert len(rows) == 6
    assert [row["n"] for row in rows] == [2, 2, 3, 3, 4, 4]
    assert all(row["twice_j"] == 2 for row in rows)
    assert {row["kind"] for row in rows} == {"bell", "ent-cj"}
    assert all(row["family"] == "bosonic" for row in rows)
    # spin-2 bosonic entanglement ratio decays with N after its early peak
    rows = scan_curve([EntanglementCJ()], Bosonic(), [(4, n) for n in range(3, 9)])
    bs = [row["B"] for row in rows]
    assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))


def test_scan_curve_optimized_includes_r():
    rows = scan_curve([Bell()], "optimized", [(1, 3), (2, 3)])
    assert [row["twice_j"] for row in rows] == [1, 2]
    assert all(row["n"] == 3 for row in rows)
    for row in rows:
        assert row["family"] == "optimized"
        r = np.array(row["r_vector"])
        assert np.sum(r * r) == pytest.approx(1.0, abs=1e-10)


def test_scan_curve_validation():
    with pytest.raises(ValueError, match="state source"):
        scan_curve([Bell()], "optimal", [(1, 2)])
