import math

import numpy as np
import pytest

from spinmoments import analytic, optimizer
from spinmoments.criteria import evaluate
from spinmoments.kinds import Bell, EntanglementCJ, EntanglementHZ, Steering, parse_kind
from spinmoments.optimizer import min_sites_for_violation, optimize_amplitudes, scan_curve
from spinmoments.spin_algebra import SpinQuantum, cj_bound
from spinmoments.states import Bosonic, Custom, GeneralizedGHZ, UniformMax, _from_logs, make_state

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
    # the reported B is exactly the B of the reported state, folded or not
    cases = ((2, 5, Bell()), (3, 6, EntanglementHZ()), (4, 7, Steering(2, "hz")), (4, 7, Steering(1, "hz")))
    for tj, n, kind in cases:
        report = optimize_amplitudes(SpinQuantum(tj), n, kind)
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
    for kind in (EntanglementHZ(), Steering(2, "hz"), Steering(3, "hz")):
        report = optimize_amplitudes(SpinQuantum(1), 4, kind)
        assert report.best_b == math.inf
        assert np.array_equal(report.best_r, np.full(2, 1 / math.sqrt(2)))


@pytest.mark.parametrize("kind", [Bell(), EntanglementCJ()], ids=["bell", "ent-cj"])
def test_large_spin_many_sites_finite(kind):
    report = optimize_amplitudes(SpinQuantum(9), 1000, kind)
    assert math.isfinite(report.best_b) and report.best_b > 0
    assert np.all(np.isfinite(report.best_r))
    assert np.sum(report.best_r**2) == pytest.approx(1.0, abs=1e-12)


GRID_DIMS = range(2, 16)
GRID_SITES = (2, 5, 20, 100, 500, 2000, 5000, 10**4)
GRID_KINDS = ("bell", "epr1", "ent-cj", "ent-hz", "epr2-hz")


@pytest.mark.parametrize(
    "d, n, token, b",
    [
        (3, 2000, "ent-cj", 2.2934255459138285e107),
        (3, 5000, "bell", math.sqrt(2)),
        (3, 5000, "epr1", 1.6),
        (3, 5000, "ent-cj", 1.4977492731542079e268),
        (3, 10**4, "bell", math.sqrt(2)),
        (3, 10**4, "epr1", 1.6),
        (3, 10**4, "ent-cj", math.inf),
        (4, 10**4, "ent-hz", 2 / math.sqrt(3)),
        (5, 10**4, "bell", 1.414213562373217),
        (5, 10**4, "epr1", 1.5117935898225454),
        (5, 10**4, "ent-cj", 8.42426839526807e289),
        (5, 10**4, "epr2-hz", 1.4142135623706444),
    ],
)
def test_witnesses_keep_amplitudes_below_the_double_range(d, n, token, b):
    # the optimal r has an amplitude below 1e-308 of the largest: rounded to 0
    # it took every ladder term it carries, and read B = 0 or far below 1
    report = optimize_amplitudes(SpinQuantum(d - 1), n, parse_kind(token))
    assert report.violated
    assert report.best_b == pytest.approx(b, rel=1e-12)


def test_a_witness_at_b_one_stays_not_violated():
    # d = 7, N = 10^4, ent-hz: B = 1 exactly (1.5e-48 with the amplitude rounded)
    report = optimize_amplitudes(SpinQuantum(6), 10**4, EntanglementHZ())
    assert report.best_b == 1.0 and not report.violated


def test_no_optimised_row_reads_zero():
    # every ladder weight is positive, so B = 0 is never an optimum
    zero = [
        (d, n, token)
        for d in GRID_DIMS
        for n in GRID_SITES
        for token in GRID_KINDS
        if not optimize_amplitudes(SpinQuantum(d - 1), n, parse_kind(token)).best_b > 0
    ]
    assert zero == []


def test_best_state_keeps_an_amplitude_that_the_unit_vector_rounds_to_zero():
    report = optimize_amplitudes(ONE, 5000, Bell())
    state = report.best_state()
    assert report.best_r[1] == 0.0 and report.best_state() is state
    assert state.signs.tolist() == [1.0, 1.0, 1.0]
    assert -math.inf < state.log_amplitudes[1] < math.log(1e-308)
    # the normal-float amplitudes take log|r| from r itself
    assert state.log_amplitudes[[0, 2]].tolist() == np.log(report.best_r[[0, 2]]).tolist()
    (rebuilt,) = _from_logs(ONE, [5000], state.signs, state.log_amplitudes)
    assert np.array_equal(rebuilt.signs, state.signs)
    assert np.array_equal(rebuilt.log_amplitudes, state.log_amplitudes)
    assert rebuilt.log_norm_sq == state.log_norm_sq
    assert analytic.b_ratio(state, Bell()) == report.best_b == analytic.b_ratio(rebuilt, Bell())
    assert report.best_b == pytest.approx(math.sqrt(2), rel=1e-12)


def test_symmetry_constraint_respected():
    report = optimize_amplitudes(SpinQuantum(5), 4, Bell(), restarts=4, seed=0)
    assert np.array_equal(report.best_r, report.best_r[::-1])


def test_the_fold_has_no_keyword():
    with pytest.raises(TypeError, match="symmetric"):
        optimize_amplitudes(ONE, 4, Bell(), symmetric=False)


@pytest.mark.parametrize(
    "kind, n, mirror",
    [
        (Bell(), 5, True),
        (EntanglementCJ(), 5, True),
        (Steering(3), 5, True),
        (Steering(0, "hz"), 5, True),
        (Steering(2, "hz"), 5, True),
        (EntanglementHZ(), 2, True),
        (EntanglementHZ(), 3, False),
        (Steering(1, "hz"), 5, False),
        (Steering(3, "hz"), 5, False),
    ],
)
def test_fold_exactly_when_the_layout_balances_the_hz_tags(kind, n, mirror):
    # the layout rule (as many J+J- sites as J-J+ sites) agrees with the
    # weights themselves at d = 8, and decides whether r comes out folded
    assert optimizer._mirror_symmetric(kind, n) == mirror
    d = np.exp(analytic.log_bound_weights(SpinQuantum(7), n, kind))
    assert np.allclose(d, d[::-1], rtol=1e-13, atol=0) == mirror
    report = optimize_amplitudes(SpinQuantum(7), n, kind)
    assert np.array_equal(report.best_r, report.best_r[::-1]) == mirror


@pytest.mark.parametrize(
    "token, min_n",
    [("epr1-hz", [2, 2, 8, 9, None]), ("ent-hz", [2, 2, 2, 11, None])],
)
def test_hz_min_sites_reach_the_unfolded_optimum(token, min_n):
    # with r_m = r_-m forced, epr1-hz needs N = 3 at d = 2 and 3, and ent-hz
    # finds no N <= 12 at d = 5
    kind = parse_kind(token)
    found = [min_sites_for_violation(SpinQuantum(d - 1), kind, 12).min_n for d in range(2, 7)]
    assert found == min_n


def test_spin1_bell_matches_dense_1d_grid():
    # the symmetric spin-1 search is the (1, r, 1) family up to gauge, so a
    # dense grid over the printed one-parameter ratio is a complete oracle
    for n in (3, 5):
        rs = np.arange(1e-4, 10.0 + 1e-9, 1e-4)
        grid = 2 ** ((n + 2) / 2) * rs / np.sqrt((rs * rs + 2) * (2.0**n * rs * rs + 2))
        best_grid = float(np.max(grid))
        report = optimize_amplitudes(ONE, n, Bell(), restarts=8, seed=0)
        assert report.best_b == pytest.approx(best_grid, abs=1e-8)


def _simplex_grid_best(j, n, kind, points_per_axis, mirror=True):
    """Coarse simplex scan (>= 10^4 points) refined once around the best cell.

    B is evaluated for the whole grid at once from the closed-form weights
    (L = (sum r_m r_m+1 g_m)^2 / n^2, R = sum r_m^2 D_m / n); the best point
    is cross-checked against analytic.b_ratio.
    """
    k = np.arange(j.dim)
    fold = np.minimum(k, k[::-1]) if mirror else k
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


@pytest.mark.parametrize("mirror", [True, False], ids=["symmetric", "full"])
@pytest.mark.parametrize("kind", [EntanglementHZ(), Steering(2, "hz")], ids=["ent-hz", "epr2-hz"])
@pytest.mark.parametrize("tj,n", [(2, 4), (3, 5)])
def test_hz_optimizer_not_beaten_by_simplex_grid(tj, n, kind, mirror):
    # HZ bound weights vanish at m = +-J; ent-hz's are not mirror symmetric,
    # epr2-hz's are: either way the optimum beats the finer grid over r_m = r_-m
    # and the grid over the full d-vector
    j = SpinQuantum(tj)
    n_free = (j.dim + 1) // 2 if mirror else j.dim
    grid_best = _simplex_grid_best(j, n, kind, _points_per_axis(n_free), mirror)
    report = optimize_amplitudes(j, n, kind)
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


@pytest.mark.parametrize("token, t", [("epr3", 3), ("epr3-hz", 3), ("epr5", 5)])
def test_min_sites_of_a_steering_kind_starts_at_t(token, t):
    # no N below T holds T quantum sites: the search starts at N = T, and finds the
    # N and B of a plain loop over optimize_amplitudes from there
    kind = parse_kind(token)
    for d in (2, 3, 4):
        j = SpinQuantum(d - 1)
        for n in range(t, 11):
            report = optimize_amplitudes(j, n, kind)
            if report.violated:
                break
        res = min_sites_for_violation(j, kind, 10)
        assert report.violated and (res.min_n, res.b_at_min_n) == (n, report.best_b), d
    with pytest.raises(ValueError, match=f"n_max must be >= T = {t}"):
        min_sites_for_violation(SpinQuantum(1), kind, t - 1)


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


@pytest.mark.parametrize(
    "kinds_list, family, points, message",
    [
        ([Steering(1), Steering(3)], UniformMax(), [(2, 5), (2, 2), (2, 1)], "t_sites = 3 exceeds n_sites = 2"),
        ([Steering(1), Steering(3)], UniformMax(), [(2, 5), (2, 1), (2, 2)], "n_sites must be >= 2, got 1"),
        ([Bell()], GeneralizedGHZ(0.3), [(1, 3), (2, 3), (1, 1)], "GeneralizedGHZ requires spin 1/2"),
        ([Bell()], UniformMax(), [(1, 3), (0, 3), (1, 1)], "twice_j must be >= 1"),
    ],
)
def test_scan_curve_raises_the_first_bad_point_in_order(kinds_list, family, points, message):
    with pytest.raises(ValueError, match=message):
        scan_curve(kinds_list, family, points)


def test_scan_curve_without_kinds_builds_no_state():
    assert scan_curve([], GeneralizedGHZ(0.3), [(2, 1)]) == []


# The bound on the solves of one optimisation; the slope polish stays far
# below it (test_optimizer_solve_counts_over_a_fixed_grid bounds the mean).
@pytest.mark.parametrize(
    "tj, n, kind, most",
    [
        (1, 30, Bell(), 40),
        (3, 30, Bell(), 40),
        (4, 8, EntanglementHZ(), 40),
        (9, 150, EntanglementCJ(), 40),
        (6, 20, Steering(3, "hz"), 40),
        (40, 1000, Bell(), 40),
        (1, 2, Bell(), 42),
    ],
)
def test_optimizer_solves_its_grid_in_one_stacked_call(eigen_solves, tj, n, kind, most):
    cj_bound(SpinQuantum(tj))  # C_J's own solves are not the optimiser's
    eigen_solves.clear()
    optimize_amplitudes(SpinQuantum(tj), n, kind)
    assert eigen_solves.count((65,)) == 1
    assert all(shape in ((65,), ()) for shape in eigen_solves)
    assert len(eigen_solves) <= most


@pytest.mark.parametrize(
    "tj, n, kind",
    [
        (1, 2, Bell()),
        (3, 30, Bell()),
        (4, 8, EntanglementHZ()),
        (6, 20, Steering(3, "hz")),
        (9, 150, EntanglementCJ()),
    ],
)
def test_optimizer_reuses_the_searched_eigenvector(eigen_solves, monkeypatch, tj, n, kind):
    # one stacked solve for the grid, then one per scalar step of the polish:
    # the returned point's eigenvector comes from the search, not a further solve
    cj_bound(SpinQuantum(tj))
    eigen_solves.clear()
    calls, solves_at_return, search = [], [], optimizer.minimize_on_interval

    def counting(f, lo, hi):
        def spy(t):
            calls.append(np.shape(t))
            return f(t)

        found = search(spy, lo, hi)
        solves_at_return.append(len(eigen_solves))
        return found

    monkeypatch.setattr(optimizer, "minimize_on_interval", counting)
    optimize_amplitudes(SpinQuantum(tj), n, kind)
    assert calls[0] == (65,) and calls[1:] and all(shape == () for shape in calls[1:])
    assert solves_at_return == [len(calls)] == [len(eigen_solves)]
    assert eigen_solves == [(65,)] + [()] * (len(calls) - 1)


def test_optimizer_solve_counts_over_a_fixed_grid(eigen_solves):
    # d = 2..20, N = 2..30, folded and unfolded kinds, zero bound weights included
    counts = []
    for tj in range(1, 20):
        cj_bound(SpinQuantum(tj))
        for n in range(2, 31):
            for token in ("bell", "epr1", "ent-cj", "ent-hz", "epr1-hz"):
                eigen_solves.clear()
                optimize_amplitudes(SpinQuantum(tj), n, parse_kind(token))
                counts.append(len(eigen_solves))
    assert np.mean(counts) <= 10 and max(counts) <= 48


@pytest.mark.parametrize(
    "tj, n, kind",
    [
        (2, 4, Bell()),  # folded
        (3, 5, Steering(1)),  # folded, even d
        (9, 150, EntanglementCJ()),
        (3, 6, EntanglementHZ()),  # unfolded
        (4, 8, Steering(2, "hz")),
        (2, 6, EntanglementHZ()),  # zero bound weights at 2J = 2
        (2, 10, Steering(2, "hz")),
    ],
)
def test_objective_slope_matches_a_central_difference(monkeypatch, tj, n, kind):
    searches, search = [], optimizer.minimize_on_interval

    def spy(f, lo, hi):
        searches.append((f, lo, hi))
        return search(f, lo, hi)

    monkeypatch.setattr(optimizer, "minimize_on_interval", spy)
    optimize_amplitudes(SpinQuantum(tj), n, kind)
    ((f, lo, hi),) = searches
    h, checked = 1e-4, 0
    for t in np.linspace(lo, hi, 97)[1:-1]:
        _, slope = f(float(t))
        if abs(slope) < 0.05:
            continue
        difference = (f(float(t) + h)[0] - f(float(t) - h)[0]) / (2 * h)
        assert difference == pytest.approx(slope, rel=1e-6)
        checked += 1
    assert checked >= 30
