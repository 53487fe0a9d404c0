"""Weight construction, row normalization, log-determinants, Moran's I."""

import itertools
import math

import numpy as np
import pytest

from mixsar.errors import NumericalError
from mixsar.spatial import (
    knn_inverse_distance,
    log_det_system,
    morans_i,
    pairwise_distances,
    rook_lattice,
    row_normalize,
    solve_system,
    validate_weights,
)

RNG = np.random.default_rng(99)


def random_weights(n, rng=RNG, density=0.6):
    raw = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(raw, 0.0)
    zero = np.flatnonzero(raw.sum(axis=1) == 0)
    raw[zero, (zero + 1) % n] = 1.0
    np.fill_diagonal(raw, 0.0)
    return row_normalize(raw)


# -- rook lattice ---------------------------------------------------------------

def test_rook_1x2_exchange():
    np.testing.assert_allclose(rook_lattice(1, 2), [[0.0, 1.0], [1.0, 0.0]])


def test_rook_2x2_two_neighbours_each():
    w = rook_lattice(2, 2)
    assert np.all((w > 0).sum(axis=1) == 2)
    np.testing.assert_allclose(w[w > 0], 0.5)


def test_rook_10x15_interior_cells():
    w = rook_lattice(10, 15)
    assert w.shape == (150, 150)
    validate_weights(w, allow_isolated=False)
    interior = [r * 15 + c for r in range(1, 9) for c in range(1, 14)]
    for i in interior[:10]:
        assert (w[i] > 0).sum() == 4
        np.testing.assert_allclose(w[i][w[i] > 0], 0.25)


def test_rook_symmetric_prenormalization_neighbour_rule():
    n_rows, n_cols = 4, 5
    w = rook_lattice(n_rows, n_cols)
    for i, j in itertools.product(range(20), range(20)):
        ri, ci = divmod(i, n_cols)
        rj, cj = divmod(j, n_cols)
        is_neighbour = abs(ri - rj) + abs(ci - cj) == 1
        assert (w[i, j] > 0) == is_neighbour


def test_rook_rejects_single_cell():
    with pytest.raises(ValueError):
        rook_lattice(1, 1)


# -- kNN inverse distance ---------------------------------------------------------

def test_knn_collinear_tie_breaks_low_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    w = knn_inverse_distance(pts, k=1, cutoff=10.0)
    np.testing.assert_allclose(w, [[0, 1, 0], [1, 0, 0], [0, 1, 0]])


def test_knn_cutoff_severs_clusters():
    pts = np.vstack([RNG.normal(0, 0.5, (5, 2)), RNG.normal(100, 0.5, (5, 2))])
    w = knn_inverse_distance(pts, k=9, cutoff=10.0)
    assert np.all(w[:5, 5:] == 0)
    assert np.all(w[5:, :5] == 0)
    validate_weights(w, allow_isolated=False)


def test_knn_sweep_gives_nine_candidates():
    pts = RNG.normal(size=(30, 2)) * 5
    mats = [knn_inverse_distance(pts, k=k, cutoff=50.0) for k in range(2, 11)]
    assert len(mats) == 9
    for k, w in zip(range(2, 11), mats):
        assert np.all((w > 0).sum(axis=1) <= k)


def test_knn_isolated_unit_identified():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [500.0, 0.0]])
    with pytest.raises(ValueError, match=r"\[2\]"):
        knn_inverse_distance(pts, k=2, cutoff=10.0)


def test_knn_weights_inverse_distance_before_normalization():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    w = knn_inverse_distance(pts, k=2, cutoff=10.0)
    # unit 0: neighbours at distance 1 and 3 -> weights 1 and 1/3, normalized
    np.testing.assert_allclose(w[0], [0.0, 0.75, 0.25])


def test_greatcircle_distances():
    pts = np.array([[0.0, 0.0], [90.0, 0.0], [0.0, 90.0]])
    d = pairwise_distances(pts, metric="greatcircle")
    np.testing.assert_allclose(d[0, 1], 90.0, atol=1e-9)
    np.testing.assert_allclose(d[0, 2], 90.0, atol=1e-9)
    np.testing.assert_allclose(d[1, 2], 90.0, atol=1e-9)


def scalar_great_circle_degrees(a, b):
    """Haversine central angle in degrees between two (lon, lat) points, one pair at a time."""
    lon1, lat1, lon2, lat2 = map(math.radians, (*a, *b))
    s = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(
        (lon2 - lon1) / 2
    ) ** 2
    return math.degrees(2 * math.asin(min(1.0, math.sqrt(s))))


def test_greatcircle_matches_scalar_formula():
    rng = np.random.default_rng(8)
    pts = np.vstack([
        np.column_stack([rng.uniform(-180, 180, 40), rng.uniform(-90, 90, 40)]),
        [[0.0, 0.0], [180.0, 0.0], [0.0, 90.0], [0.0, -90.0], [10.0, 45.0], [10.0, 45.0 + 1e-9]],
    ])
    d = pairwise_distances(pts, metric="greatcircle")
    n = len(pts)
    oracle = np.array([[scalar_great_circle_degrees(pts[i], pts[j]) for j in range(n)]
                       for i in range(n)])
    np.testing.assert_allclose(d, oracle, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), 0.0)


@pytest.mark.parametrize("metric", ["euclidean", "greatcircle"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distances_reject_non_finite_locations(metric, bad):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    pts[1, 0] = bad
    with pytest.raises(ValueError, match=r"non-finite location coordinates at units \[1\]"):
        pairwise_distances(pts, metric)
    with pytest.raises(ValueError, match="non-finite"):
        knn_inverse_distance(pts, k=1, cutoff=10.0, metric=metric)


# -- row normalization --------------------------------------------------------------

def test_row_normalize_example():
    np.testing.assert_allclose(row_normalize([[0.0, 2.0], [3.0, 0.0]]), [[0, 1], [1, 0]])


def test_row_normalize_idempotent():
    w = random_weights(8)
    np.testing.assert_allclose(row_normalize(w), w, atol=1e-15)


def test_row_normalize_row_sums():
    w = random_weights(25)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_row_normalize_rejects_zero_row():
    with pytest.raises(ValueError, match=r"\[1\]"):
        row_normalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad, message", [
    ([[0.0, np.nan], [1.0, 0.0]], "non-finite"),
    ([[0.0, np.inf], [1.0, 0.0]], "non-finite"),
    ([[0.0, -1.0], [1.0, 0.0]], "non-negative"),
    ([[1.0, 0.0], [0.0, 1.0]], "diagonal"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], "square"),
])
def test_normalize_and_validate_share_the_matrix_checks(bad, message):
    with pytest.raises(ValueError, match=message) as normalized:
        row_normalize(bad)
    with pytest.raises(ValueError, match=message) as validated:
        validate_weights(bad)
    assert str(normalized.value) == str(validated.value)


# -- log determinant ------------------------------------------------------------------

def cofactor_det(a):
    """Naive cofactor expansion, for n <= 6 oracle checks."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def test_log_det_zero_rho_is_zero():
    for n in (2, 5, 12):
        assert log_det_system(0.0, random_weights(n)) == 0.0


def test_log_det_two_unit_closed_form():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert log_det_system(0.5, w) == pytest.approx(math.log(0.75), abs=1e-14)


def test_log_det_matches_cofactor_oracle():
    for n in (2, 3, 4, 5, 6):
        w = random_weights(n)
        for rho in (-0.9, -0.3, 0.2, 0.7):
            expected = math.log(abs(cofactor_det(np.eye(n) - rho * w)))
            assert log_det_system(rho, w) == pytest.approx(expected, abs=1e-10)


def test_log_det_smooth_in_rho():
    w = random_weights(15)
    grid = np.linspace(-0.99, 0.99, 397)
    vals = np.array([log_det_system(r, w) for r in grid])
    assert np.all(np.isfinite(vals))
    # steepens only toward the +/-1 singularities of the spatial multiplier
    inner = (grid > -0.95) & (grid < 0.95)
    assert np.max(np.abs(np.diff(vals[inner]))) < 0.1


def test_log_det_rejects_rho_out_of_range():
    with pytest.raises(ValueError):
        log_det_system(1.0, random_weights(3))


def test_log_det_singularity_flagged():
    # I - rho W singular at rho = 1 with this non-stochastic scaled matrix
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(NumericalError):
        log_det_system(0.5, w)  # det = 1 - 1 = 0


# -- linear solves with I - rho W --------------------------------------------------------

def test_solve_system_matches_dense_inverse():
    w = random_weights(9)
    rhs = RNG.normal(size=(9, 3))
    for rho in (-0.8, 0.0, 0.6):
        expected = np.linalg.inv(np.eye(9) - rho * w) @ rhs
        np.testing.assert_allclose(solve_system(rho, w, rhs), expected, atol=1e-12)
        np.testing.assert_allclose(solve_system(rho, w, rhs[:, 0]), expected[:, 0], atol=1e-12)


def test_solve_system_leaves_weights_untouched():
    w = random_weights(6)
    before = w.copy()
    solve_system(0.7, w, np.ones(6))
    np.testing.assert_array_equal(w, before)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, np.nan])
def test_solve_system_and_log_det_reject_rho_out_of_range(rho):
    w = random_weights(3)
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        solve_system(rho, w, np.ones(3))
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        log_det_system(rho, w)


def test_solve_system_singularity_flagged():
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(NumericalError, match="singular"):
        solve_system(0.5, w, np.ones(2))


# -- Moran's I -------------------------------------------------------------------------

def brute_force_moran(values, w):
    values = np.asarray(values, dtype=float)
    n = values.size
    zbar = values.mean()
    num = 0.0
    s0 = 0.0
    for i in range(n):
        for j in range(n):
            num += w[i, j] * (values[i] - zbar) * (values[j] - zbar)
            s0 += w[i, j]
    den = sum((v - zbar) ** 2 for v in values)
    return n / s0 * num / den


def test_moran_1x2_alternating_pattern():
    rep = morans_i([1.0, -1.0], rook_lattice(1, 2))
    assert rep.statistic == pytest.approx(-1.0, abs=1e-14)
    assert rep.expectation == pytest.approx(-1.0)
    assert math.isnan(rep.z_score)


def test_moran_matches_brute_force():
    for n in (5, 17, 50):
        w = random_weights(n)
        vals = RNG.normal(size=n)
        rep = morans_i(vals, w)
        assert rep.statistic == pytest.approx(brute_force_moran(vals, w), abs=1e-12)


def test_moran_expectation_closed_form():
    for n in (3, 10, 31):
        rep = morans_i(RNG.normal(size=n), random_weights(n))
        assert rep.expectation == pytest.approx(-1.0 / (n - 1), abs=1e-15)
        assert rep.variance > 0


def test_moran_checkerboard_strongly_negative():
    w = rook_lattice(6, 6)
    vals = np.array([(-1.0) ** (r + c) for r in range(6) for c in range(6)])
    rep = morans_i(vals, w)
    assert rep.statistic == pytest.approx(-1.0, abs=1e-12)
    assert rep.p_value < 1e-6


def test_moran_smooth_surface_positive_and_permutation_shrinks():
    w = rook_lattice(8, 8)
    vals = np.array([r + c for r in range(8) for c in range(8)], dtype=float)
    smooth = morans_i(vals, w)
    assert smooth.statistic > 0.5
    perm = morans_i(RNG.permutation(vals), w)
    assert abs(perm.statistic - perm.expectation) < abs(smooth.statistic - smooth.expectation)


def test_moran_rejects_constant_values():
    with pytest.raises(ValueError):
        morans_i(np.ones(5), random_weights(5))
