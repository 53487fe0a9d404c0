"""Weight construction and checks, log-determinants, Moran's I."""

import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsar import spatial
from mixsar.errors import NumericalError
from mixsar.model import assemble_design, fit
from mixsar.simulation import gen_response
from mixsar.spatial import (
    SpatialWeights,
    knn_inverse_distance,
    log_det_system,
    morans_i,
    pairwise_distances,
    rook_lattice,
    solve_system,
)

RNG = np.random.default_rng(99)


def row_normalize(w):
    """Each row of w divided by its sum, as a dense array: the formula whose
    weights a kNN W matches bit for bit."""
    w = np.asarray(w, dtype=float)
    return w / w.sum(axis=1, keepdims=True)


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
    w = rook_lattice(2, 2).matrix
    assert np.all((w > 0).sum(axis=1) == 2)
    np.testing.assert_allclose(w[w > 0], 0.5)


def test_rook_10x15_interior_cells():
    w = rook_lattice(10, 15).matrix
    assert w.shape == (150, 150)
    SpatialWeights(w)
    interior = [r * 15 + c for r in range(1, 9) for c in range(1, 14)]
    for i in interior[:10]:
        assert (w[i] > 0).sum() == 4
        np.testing.assert_allclose(w[i][w[i] > 0], 0.25)


def test_rook_symmetric_prenormalization_neighbour_rule():
    n_rows, n_cols = 4, 5
    w = rook_lattice(n_rows, n_cols).matrix
    for i, j in itertools.product(range(20), range(20)):
        ri, ci = divmod(i, n_cols)
        rj, cj = divmod(j, n_cols)
        is_neighbour = abs(ri - rj) + abs(ci - cj) == 1
        assert (w[i, j] > 0) == is_neighbour


def test_rook_rejects_single_cell():
    with pytest.raises(ValueError):
        rook_lattice(1, 1)


@pytest.mark.parametrize("n_rows, n_cols, message", [
    pytest.param(2.5, 3, "n_rows must be an integer >= 1, got 2.5",
                 id="2.5-3-n_rows must be an integer, got 2.5"),
    pytest.param(3, "3", "n_cols must be an integer >= 1, got '3'",
                 id="3-3-n_cols must be an integer, got '3'"),
    pytest.param(True, 3, "n_rows must be an integer >= 1, got True",
                 id="True-3-n_rows must be an integer, got True"),
])
def test_rook_rejects_non_integer_sizes(n_rows, n_cols, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rook_lattice(n_rows, n_cols)


def test_rook_accepts_numpy_integer_sizes():
    np.testing.assert_array_equal(rook_lattice(np.int64(3), np.int64(2)), rook_lattice(3, 2))


def reference_rook(n_rows, n_cols):
    """Cell-by-cell construction: link each cell to its right and lower neighbour."""
    if n_rows < 1 or n_cols < 1 or n_rows * n_cols < 2:
        raise ValueError("lattice needs at least 2 cells")
    n = n_rows * n_cols
    adj = np.zeros((n, n))
    for r in range(n_rows):
        for c in range(n_cols):
            i = r * n_cols + c
            if c + 1 < n_cols:
                adj[i, i + 1] = adj[i + 1, i] = 1.0
            if r + 1 < n_rows:
                adj[i, i + n_cols] = adj[i + n_cols, i] = 1.0
    return row_normalize(adj)


def outcome(build, *args):
    """The matrix ``build`` returns, or the message of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_outcome(actual, expected):
    if isinstance(expected, str) or isinstance(actual, str):
        assert actual == expected
    else:
        np.testing.assert_array_equal(actual, expected)


def test_rook_matches_cell_loop_up_to_12x12():
    for n_rows, n_cols in itertools.product(range(1, 13), repeat=2):
        assert_same_outcome(outcome(rook_lattice, n_rows, n_cols),
                            outcome(reference_rook, n_rows, n_cols))


# -- kNN inverse distance ---------------------------------------------------------

def test_knn_collinear_tie_breaks_low_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    w = knn_inverse_distance(pts, k=1, cutoff=10.0)
    np.testing.assert_allclose(w, [[0, 1, 0], [1, 0, 0], [0, 1, 0]])


def test_knn_cutoff_severs_clusters():
    pts = np.vstack([RNG.normal(0, 0.5, (5, 2)), RNG.normal(100, 0.5, (5, 2))])
    w = knn_inverse_distance(pts, k=9, cutoff=10.0).matrix
    assert np.all(w[:5, 5:] == 0)
    assert np.all(w[5:, :5] == 0)
    SpatialWeights(w)


def test_knn_sweep_gives_nine_candidates():
    pts = RNG.normal(size=(30, 2)) * 5
    mats = [knn_inverse_distance(pts, k=k, cutoff=50.0).matrix for k in range(2, 11)]
    assert len(mats) == 9
    for k, w in zip(range(2, 11), mats):
        assert np.all((w > 0).sum(axis=1) <= k)


def test_knn_isolated_unit_identified():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [500.0, 0.0]])
    with pytest.raises(ValueError, match=r"\[2\]"):
        knn_inverse_distance(pts, k=2, cutoff=10.0)


@pytest.mark.parametrize("metric", ["euclidean", "greatcircle"])
def test_knn_rejects_duplicate_locations(metric):
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"positive \(duplicate locations\?\)"):
        knn_inverse_distance(pts, k=1, cutoff=10.0, metric=metric)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None, True])
def test_knn_rejects_non_integer_k(k):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match=r"k must be an integer"):
        knn_inverse_distance(pts, k=k, cutoff=10.0)


def test_knn_accepts_numpy_integer_k():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    np.testing.assert_array_equal(knn_inverse_distance(pts, k=np.int64(2), cutoff=10.0),
                                  knn_inverse_distance(pts, k=2, cutoff=10.0))


@pytest.mark.parametrize("cutoff", [np.nan, 0.0, -1.0])
def test_knn_rejects_non_positive_cutoff(cutoff):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ValueError, match="cutoff must be positive"):
        knn_inverse_distance(pts, k=1, cutoff=cutoff)


def reference_knn(locations, k, cutoff, metric):
    """Unit-by-unit construction: sort each unit's eligible neighbours on its own."""
    dist = pairwise_distances(locations, metric)
    n = dist.shape[0]
    if np.any(dist[~np.eye(n, dtype=bool)] <= 0):
        raise ValueError("all pairwise distances must be positive (duplicate locations?)")
    w = np.zeros((n, n))
    isolated = []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        eligible = others[dist[i, others] <= cutoff]
        if eligible.size == 0:
            isolated.append(i)
            continue
        keep = eligible[np.argsort(dist[i, eligible], kind="stable")][:k]
        w[i, keep] = 1.0 / dist[i, keep]
    if isolated:
        raise ValueError(f"units with no neighbour within cutoff {cutoff}: {isolated}")
    return row_normalize(w)


@st.composite
def knn_cases(draw):
    """Small point sets laid out to produce ties and duplicates, plus scattered sphere points."""
    n = draw(st.integers(min_value=1, max_value=10))
    layout = draw(st.sampled_from(["grid", "line", "scattered"]))
    if layout == "grid":
        cell = st.integers(min_value=0, max_value=3).map(float)
        point = st.tuples(cell, cell)
    elif layout == "line":
        point = st.tuples(st.integers(min_value=0, max_value=6).map(float), st.just(0.0))
    else:
        point = st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0))
    pts = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=float)
    k = draw(st.integers(min_value=1, max_value=n + 2))
    cutoff = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 100.0, math.inf]))
    metric = draw(st.sampled_from(["euclidean", "greatcircle"]))
    return pts, k, cutoff, metric


@settings(max_examples=200, deadline=None, derandomize=True)
@given(knn_cases())
@example((np.array([[0.0, 0.0]]), 1, math.inf, "euclidean"))
@example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), 1, 10.0, "greatcircle"))
@example((np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), 6, math.inf, "euclidean"))
@example((np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 1, 1.0, "greatcircle"))
def test_knn_matches_per_unit_loop(case):
    assert_same_outcome(outcome(knn_inverse_distance, *case), outcome(reference_knn, *case))


def stable_sort_knn(locations, k, cutoff):
    """The k-nearest rule by a stable sort of every row of distances: the first
    min(k, n - 1) units, lower index first among ties, kept within the cutoff."""
    dist = pairwise_distances(locations)
    n = dist.shape[0]
    np.fill_diagonal(dist, np.inf)
    rows = np.arange(n)[:, None]
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :min(k, n - 1)]
    near = dist[rows, nearest]
    within = near <= cutoff
    isolated = np.flatnonzero(~within.any(axis=1)).tolist()
    if isolated:
        raise ValueError(f"units with no neighbour within cutoff {cutoff}: {isolated}")
    w = np.zeros((n, n))
    w[rows, nearest] = np.where(within, 1.0 / near, 0.0)
    return row_normalize(w)


@pytest.mark.parametrize("k", [1, 3, 4, 5, 8])
def test_knn_on_a_grid_of_ties_matches_a_stable_sort(k):
    """Every unit of an integer grid has 2 to 4 neighbours at each of several
    distances, so the k-th distance is nearly always tied."""
    pts = np.array(list(itertools.product(range(12), repeat=2)), dtype=float)
    for cutoff in (0.5, 1.0, 1.5, 10.0):
        assert_same_outcome(outcome(knn_inverse_distance, pts, k, cutoff),
                            outcome(stable_sort_knn, pts, k, cutoff))


def test_knn_weights_inverse_distance_before_normalization():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    w = knn_inverse_distance(pts, k=2, cutoff=10.0).matrix
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
    with pytest.raises(ValueError, match=re.escape("locations has 1 non-finite entries, at (row, col) [[1, 0]]")):
        pairwise_distances(pts, metric)
    with pytest.raises(ValueError, match="non-finite"):
        knn_inverse_distance(pts, k=1, cutoff=10.0, metric=metric)


# -- the checks of an array W -----------------------------------------------------------

@pytest.mark.parametrize("bad, message", [
    ([[0.0, np.nan], [1.0, 0.0]], r"1 non-finite entries, at \(row, col\) \[\[0, 1\]\]$"),
    ([[0.0, np.inf], [np.nan, 0.0]], r"2 non-finite entries, at \(row, col\) \[\[0, 1\], \[1, 0\]\]$"),
    ([[0.0, -1.0], [1.0, 0.0]], "non-negative"),
    ([[1.0, 0.0], [0.0, 1.0]], "diagonal"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], "square"),
], ids=["bad0-non-finite", "bad1-non-finite", "bad2-non-negative", "bad3-diagonal", "bad4-square"])
def test_normalize_and_validate_share_the_matrix_checks(bad, message):
    """An array W is checked as the edges it holds: a NaN, a negative entry and a
    diagonal entry are edges that the one edge check names."""
    with pytest.raises(ValueError, match=message):
        SpatialWeights(bad)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_det_rejects_non_finite_weights(bad):
    """An array W is checked as a SpatialWeights is, before any log-det."""
    with pytest.raises(ValueError, match=re.escape(
            "weight matrix has 2 non-finite entries, at (row, col) [[0, 1], [1, 0]]")):
        log_det_system(0.5, np.array([[0.0, bad], [bad, 0.0]]))


def test_spectral_log_det_rejects_a_non_finite_result(monkeypatch):
    monkeypatch.setattr(spatial, "_spectrum", lambda w, route: np.array([1.0, np.nan, -1.0]))
    sw = rook_lattice(1, 3)
    sw.eigenvalues  # known, so an off-grid log-det takes the sum over them
    with pytest.raises(NumericalError, match=r"not finite at rho=0\.5"):
        log_det_system(0.5, sw)


def test_a_log_det_read_from_the_grid_table_is_checked_too(monkeypatch):
    monkeypatch.setattr(spatial, "_spectrum", lambda w, route: np.array([1.0, np.nan, -1.0]))
    rho = float(spatial.RHO_GRID[150])
    with pytest.raises(NumericalError, match=re.escape(f"not finite at rho={rho}")):
        log_det_system(rho, rook_lattice(1, 3))


def test_solve_system_rejects_non_finite_solution():
    # finite system, but x = rhs / 0.5 overflows; the bipartite route of this W
    # gets there with no overflow warning on the way
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    for weights in (w, SpatialWeights(w), rook_lattice(1, 2)):
        with pytest.raises(NumericalError, match=r"not finite at rho=0\.5"):
            solve_system(0.5, weights, np.full(2, 1e308))
    with pytest.raises(NumericalError, match=r"not finite at rho=0\.5"):  # the LU route
        solve_system(0.5, (np.ones((3, 3)) - np.eye(3)) / 2.0, np.full(3, 1e308))


@pytest.mark.parametrize("rho", [0.5, 0.0])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_system_names_non_finite_weights(bad, rho):
    # with inf, the solve alone returns a finite [-0, -0]
    w = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError,
                       match=r"2 non-finite entries, at \(row, col\) \[\[0, 1\], \[1, 0\]\]$"):
        solve_system(rho, w, np.ones(2))


def test_log_det_singularity_flagged(monkeypatch):
    # I - 0.5 W would be singular for this scaled matrix, which is no weight matrix
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape("rows [0, 1] are neither zero nor normalized")):
        log_det_system(0.5, w)
    # a row-stochastic W never gives a zero determinant at |rho| < 1; were the LU to
    # find one, it is named
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: (0.0, -np.inf))
    with pytest.raises(NumericalError, match=r"singular at rho=0\.5"):
        log_det_system(0.5, (np.ones((3, 3)) - np.eye(3)) / 2.0)
    # nor a negative one, which is named, not taken as |det|
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: (-1.0, 0.25))
    with pytest.raises(NumericalError, match=r"det\(I - rho W\) is negative at rho=0\.5"):
        log_det_system(0.5, (np.ones((3, 3)) - np.eye(3)) / 2.0)


# -- linear solves with I - rho W --------------------------------------------------------

def test_solve_system_matches_dense_inverse():
    w = random_weights(9)
    rhs = RNG.normal(size=(9, 3))
    for rho in (-0.8, 0.0, 0.6):
        expected = np.linalg.inv(np.eye(9) - rho * w) @ rhs
        np.testing.assert_allclose(solve_system(rho, w, rhs), expected, atol=1e-12)
        np.testing.assert_allclose(solve_system(rho, w, rhs[:, 0]), expected[:, 0], atol=1e-12)


@pytest.mark.parametrize("w, bitwise", [(rook_lattice(4, 5).matrix, False),
                                         (random_weights(12, np.random.default_rng(5)), True)],
                         ids=["rook", "asymmetric"])
def test_solves_take_spatial_weights_and_match_the_array_bitwise(w, bitwise):
    """An array is solved as the SpatialWeights it is wrapped in, so both solve
    bitwise alike. An object whose W takes the LU matches a dense LU of I - rho W
    bitwise; a bipartite W takes the half-size route instead, a different
    algorithm, so it matches the dense LU to rounding and leaves a residual at
    rounding."""
    rhs = np.random.default_rng(8).normal(size=w.shape[0])
    obj = SpatialWeights(w)

    def draw(weights):
        return gen_response(weights, 0.3, None, None, None, None, rhs, 1.0, 0.5,
                            np.random.default_rng(9))
    x = solve_system(0.3, obj, rhs)
    assert np.array_equal(x, solve_system(0.3, w, rhs))
    assert np.array_equal(draw(obj), draw(w))
    dense = np.linalg.solve(np.eye(len(w)) - 0.3 * w, rhs)
    if bitwise:
        assert np.array_equal(x, dense)
    else:
        np.testing.assert_allclose(x, dense, rtol=1e-12)
    assert np.abs(x - 0.3 * (w @ x) - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_solve_system_leaves_weights_untouched():
    w = random_weights(6)
    before = w.copy()
    solve_system(0.7, w, np.ones(6))
    np.testing.assert_array_equal(w, before)


@pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, -1.5, np.nan])
def test_solve_system_and_log_det_reject_rho_out_of_range(rho):
    w = random_weights(3)
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        solve_system(rho, w, np.ones(3))
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        log_det_system(rho, w)
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        log_det_system(rho, SpatialWeights(w))
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        SpatialWeights(w).traces(rho)


def test_solve_system_singularity_flagged(monkeypatch):
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match=re.escape("rows [0, 1] are neither zero nor normalized")):
        solve_system(0.5, w, np.ones(2))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match=r"singular at rho=0\.5"):  # on the LU route
        solve_system(0.5, (np.ones((3, 3)) - np.eye(3)) / 2.0, np.ones(3))



@pytest.mark.parametrize("call", [
    pytest.param(lambda w: solve_system(0.3, w, np.ones(2)), id="solve_system"),
    pytest.param(lambda w: log_det_system(0.3, w), id="log_det_system"),
    pytest.param(lambda w: gen_response(w, 0.3, None, None, None, None, np.ones(2), 1.0, 0.0,
                                        np.random.default_rng(0)), id="gen_response"),
])
def test_non_square_weights_are_a_shape_error(call):
    with pytest.raises(ValueError, match=re.escape("weight matrix must be square, got shape (2, 3)")):
        call(np.ones((2, 3)))


def test_solve_system_names_a_right_hand_side_without_n_rows():
    w = rook_lattice(3, 3).matrix
    for rhs in (np.ones(8), np.ones((10, 2)), 1.0):
        with pytest.raises(ValueError, match=re.escape(
                f"right-hand side has shape {np.shape(rhs)} but W has (9, 9)")):
            solve_system(0.3, w, rhs)
    with pytest.raises(ValueError, match=re.escape("shape (8,) but W has (9, 9)")):
        solve_system(0.3, SpatialWeights(w), np.ones(8))


def test_solve_system_lists_at_most_ten_non_finite_weights():
    w = np.full((4, 4), np.inf)
    np.fill_diagonal(w, 0.0)
    pairs = [[i, j] for i in range(4) for j in range(4) if i != j][:10]
    with pytest.raises(ValueError) as err:
        solve_system(0.5, w, np.ones(4))
    assert str(err.value) == f"weight matrix has 12 non-finite entries, at (row, col) {pairs} ..."


# -- SpatialWeights ----------------------------------------------------------------------

def count_spectra(monkeypatch):
    """Count the eigendecompositions of W from here on; returns the list of matrices."""
    calls = []
    decompose = spatial._spectrum

    def counted(w, *route):
        calls.append(w)
        return decompose(w, *route)

    monkeypatch.setattr(spatial, "_spectrum", counted)
    return calls


@pytest.mark.parametrize("kind, routes", [
    ("rook", ["eigh"]),
    ("knn", ["eigvals"]),
    ("symmetric_support", ["eigvals"]),
], ids=["rook", "knn", "symmetric_support"])
def test_spectral_log_det_matches_dense_on_the_rho_grid(kind, routes, monkeypatch):
    rng = np.random.default_rng(8)
    if kind == "rook":
        w = rook_lattice(12, 15).matrix
    elif kind == "knn":  # asymmetric great-circle neighbours
        locations = np.column_stack([rng.uniform(-20, 20, 150), rng.uniform(30, 60, 150)])
        w = knn_inverse_distance(locations, k=5, cutoff=180.0, metric="greatcircle").matrix
    else:  # random weights on a lattice's edges: W is not similar to a symmetric matrix
        adjacent = rook_lattice(6, 8).matrix > 0
        w = row_normalize(adjacent * rng.uniform(0.5, 1.5, adjacent.shape))
    used = []

    def logged(name):
        decompose = getattr(np.linalg, name)

        def call(a):
            used.append(name)
            return decompose(a)
        return call

    for name in ("eigvals", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, logged(name))
    sw = SpatialWeights(w)
    grid = spatial.RHO_GRID
    spectral = [log_det_system(rho, sw) for rho in grid]
    assert used == routes
    dense = [np.linalg.slogdet(np.eye(len(w)) - rho * w)[1] for rho in grid]
    np.testing.assert_allclose(spectral, dense, rtol=0, atol=1e-10)


def test_spatial_weights_computes_its_spectrum_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    sw = rook_lattice(3, 4)
    assert calls == []
    first = sw.eigenvalues
    for rho in (0.1, -0.4, 0.1, 0.7):
        log_det_system(rho, sw)
    assert sw.eigenvalues is first
    assert len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 0.5
    np.testing.assert_allclose(np.sort(first), np.sort(np.linalg.eigvals(sw.matrix).real),
                               atol=1e-12)


def test_spatial_weights_matrix_is_a_read_only_view():
    w = rook_lattice(3, 3).matrix
    sw = SpatialWeights(w)
    assert np.shares_memory(sw.matrix, w)
    np.testing.assert_array_equal(sw.matrix, w)
    with pytest.raises(ValueError, match="read-only"):
        sw.matrix[0, 1] = 0.5


def test_spatial_weights_copy_keeps_matrix_read_only_and_carries_its_spectrum(monkeypatch):
    sw = rook_lattice(3, 3)
    undecomposed = pickle.loads(pickle.dumps(sw))
    sw.eigenvalues
    copy = pickle.loads(pickle.dumps(sw))
    calls = count_spectra(monkeypatch)
    np.testing.assert_array_equal(copy.matrix, sw.matrix)
    assert not copy.matrix.flags.writeable
    np.testing.assert_array_equal(copy.eigenvalues, sw.eigenvalues)
    assert not copy.eigenvalues.flags.writeable
    assert log_det_system(0.3, copy) == log_det_system(0.3, sw)
    assert calls == []
    # a copy made before the first decomposition carries the spectrum too
    np.testing.assert_array_equal(undecomposed.eigenvalues, sw.eigenvalues)
    assert calls == []


def test_a_copy_pickled_before_the_first_decomposition_carries_the_spectrum(monkeypatch):
    calls = count_spectra(monkeypatch)
    sw = rook_lattice(3, 4)
    assert calls == []
    copy = pickle.loads(pickle.dumps(sw))
    assert len(calls) == 1
    assert copy.eigenvalues is not sw.eigenvalues
    np.testing.assert_array_equal(copy.eigenvalues, sw.eigenvalues)
    assert not copy.eigenvalues.flags.writeable
    pickle.loads(pickle.dumps(sw))
    assert len(calls) == 1


def spectrum(w):
    """W's eigenvalues by the route that a SpatialWeights of W finds."""
    return spatial._spectrum(w, spatial._route_of(len(w), spatial._edges(w)))


def test_spectrum_forms_no_system_matrix_and_runs_no_slogdet(monkeypatch):
    used = []
    monkeypatch.setattr(spatial, "_system_matrix", lambda rho, w: used.append("_system_matrix"))
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: used.append("slogdet"))
    for w in (rook_lattice(3, 4).matrix, queen_lattice(3, 4), asymmetric_on_lattice(3, 4)):
        spectrum(w)
    assert used == []


def queen_lattice(n_rows, n_cols):
    """Row-normalized rook plus diagonal neighbours: reversible, with triangles."""
    cell = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)
    adj = np.zeros((cell.size, cell.size))
    for a, b in ((cell[:, :-1], cell[:, 1:]), (cell[:-1], cell[1:]),
                 (cell[:-1, :-1], cell[1:, 1:]), (cell[:-1, 1:], cell[1:, :-1])):
        adj[a, b] = adj[b, a] = 1.0
    return row_normalize(adj)


def symmetric_on_lattice(n_rows, n_cols, seed=8):
    """D^-1 A for a random symmetric A on a rook lattice's edges: reversible, bipartite."""
    upper = np.triu((rook_lattice(n_rows, n_cols).matrix > 0)
                    * np.random.default_rng(seed).uniform(0.5, 1.5, (n_rows * n_cols,) * 2))
    return row_normalize(upper + upper.T)


def asymmetric_on_lattice(n_rows, n_cols, seed=8):
    """Random weights on a rook lattice's edges, each direction drawn apart: not reversible."""
    adjacent = rook_lattice(n_rows, n_cols).matrix > 0
    return row_normalize(adjacent * np.random.default_rng(seed).uniform(0.5, 1.5, adjacent.shape))


def log_linalg(monkeypatch, names=("eigvals", "eigvalsh", "eigh")):
    """Record (name, shape of the first argument) for each call of the named
    np.linalg functions."""
    used = []

    def logged(name):
        decompose = getattr(np.linalg, name)

        def call(a, *args):
            used.append((name, np.shape(a)))
            return decompose(a, *args)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, logged(name))
    return used


def one_way(n_rows, n_cols):
    """A rook lattice less one direction of one edge: its support is not symmetric."""
    adjacent = rook_lattice(n_rows, n_cols).matrix > 0
    adjacent[n_cols + 1, n_cols + 2] = False
    return row_normalize(adjacent.astype(float))


@pytest.mark.parametrize("w, route", [
    (rook_lattice(1, 2).matrix, ("eigh", (1, 1))),
    (rook_lattice(3, 3).matrix, ("eigh", (4, 4))),  # colour classes of 5 and 4 units
    (rook_lattice(10, 15).matrix, ("eigh", (75, 75))),
    (rook_lattice(30, 30).matrix, ("eigh", (450, 450))),
    (symmetric_on_lattice(6, 8), ("eigh", (24, 24))),
    (queen_lattice(5, 6), ("eigvalsh", (30, 30))),
    (asymmetric_on_lattice(6, 8), ("eigvals", (48, 48))),
    (one_way(3, 4), ("eigvals", (12, 12))),
    (scipy.linalg.block_diag(rook_lattice(3, 3).matrix, symmetric_on_lattice(2, 4)),
     ("eigh", (8, 8))),
], ids=["rook1x2", "rook3x3", "rook10x15", "rook30x30", "symmetric_a", "queen", "asymmetric",
        "one_way", "disconnected"])
def test_spectrum_route_log_det_and_traces_match_dense(w, route, monkeypatch):
    """Each route's spectrum gives the dense log-det and traces. A bipartite
    reversible W runs one eigh of its (n1, n1) Gram matrix, which serves the
    spectrum and every solve, with no np.linalg.solve; any other W solves by
    one np.linalg.solve, the LU of I - rho W."""
    n = len(w)
    bipartite = route[0] == "eigh"
    used = log_linalg(monkeypatch, names=("eigvals", "eigvalsh", "eigh", "solve"))
    sw = SpatialWeights(w)
    assert sw.eigenvalues.size == n
    assert used == [route]
    grid = spatial.RHO_GRID
    np.testing.assert_allclose([log_det_system(rho, sw) for rho in grid],
                               [np.linalg.slogdet(np.eye(n) - rho * w)[1] for rho in grid],
                               rtol=0, atol=1e-10)
    for rho in (-0.99, -0.3, 0.5, 0.99):
        g = np.linalg.solve(np.eye(n) - rho * w, w)
        np.testing.assert_allclose(sw.traces(rho), [np.trace(g), np.trace(g @ g)], rtol=1e-10)
    rhs = np.random.default_rng(3).normal(size=(n, 3))
    for rho in (-0.999, -0.4, 0.0, 0.4, 0.999):
        for c in (rhs[:, 0], rhs):
            expected = np.linalg.solve(np.eye(n) - rho * w, c)
            used.clear()
            x = solve_system(rho, sw, c)
            assert used == ([] if bipartite else [("solve", (n, n))])
            # at n = 900 and rho = 0.999 the dense LU is itself off by up to 1.3e-11
            # in its smallest entries (against three refinement steps in extended
            # precision), so there each entry may also differ by 1e-12 of the largest
            atol = 1e-12 * np.abs(expected).max() if n == 900 else 0.0
            np.testing.assert_allclose(x, expected, rtol=1e-12, atol=atol)
            assert np.abs(x - rho * (w @ x) - c).max() <= 1e-12 * max(1.0, np.abs(c).max())
    with pytest.raises(ValueError, match=re.escape("rho must satisfy |rho| < 1, got 1.0")):
        solve_system(1.0, sw, rhs)
    with pytest.raises(ValueError, match=re.escape(
            f"right-hand side has shape {(n - 1,)} but W has {(n, n)}")):
        solve_system(0.4, sw, rhs[1:, 0])


@pytest.mark.parametrize("w", [
    rook_lattice(4, 5).matrix,
    queen_lattice(4, 5),
    knn_inverse_distance(np.random.default_rng(5).uniform(0.0, 10.0, (30, 2)), k=4,
                         cutoff=100.0).matrix,
    scipy.linalg.block_diag(rook_lattice(3, 3).matrix, symmetric_on_lattice(2, 4)),
], ids=["rook", "queen", "knn", "disconnected"])
def test_an_array_takes_the_route_of_a_fresh_spatial_weights(w):
    """On every route, a log-det and a solve on an array are bitwise those on a
    SpatialWeights of it, on the grid and off it, and both match a dense
    slogdet and LU of I - rho W to 1e-12 relative."""
    n = len(w)
    rhs = np.random.default_rng(4).normal(size=(n, 2))
    for rho in (*spatial.RHO_GRID[[10, 60, 150, 190]].tolist(), -0.9, -0.35, 0.55, 0.95):
        a = np.eye(n) - rho * w
        got = log_det_system(rho, w)
        assert got == log_det_system(rho, SpatialWeights(w))
        assert math.isclose(got, np.linalg.slogdet(a)[1], rel_tol=1e-12)
        x = solve_system(rho, w, rhs)
        assert np.array_equal(x, solve_system(rho, SpatialWeights(w), rhs))
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), rtol=1e-12)


def test_spectrum_sends_a_weight_off_reversibility_by_1e_9_to_eigvals(monkeypatch):
    a = symmetric_on_lattice(6, 8)
    used = log_linalg(monkeypatch)
    spectrum(a)
    a[5, 6] *= 1.0 + 1e-9  # one direction of one edge: pi_5 w_56 and pi_6 w_65 now differ
    lam = spectrum(a)
    assert [name for name, _ in used] == ["eigh", "eigvals"]
    for rho in (-0.999, 0.4, 0.999):
        assert math.isclose(np.log1p(-rho * lam).sum().real,
                            np.linalg.slogdet(np.eye(len(a)) - rho * a)[1], abs_tol=1e-10)


def test_a_dense_w_keeps_16_bytes_per_edge():
    """SpatialWeights keeps W's edges as int32 i and j and float w_ij, and
    shares the matrix; w_ji is looked up among the edges (_transposed) when the
    Moran sums and the route are found, and is not kept."""
    w = row_normalize(np.ones((1000, 1000)) - np.eye(1000))
    tracemalloc.start()
    try:
        sw = SpatialWeights(w)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(sw.matrix, w)
    assert kept <= 16 * 999_000 + 2**16


def test_building_a_dense_w_peaks_at_twice_what_it_keeps():
    """Checking a dense W and finding its Moran sums peaks at 29.9 bytes per
    edge (tracemalloc, 1000 x 1000 W), 13.9 beside the 16 it keeps, while the S1
    terms are formed: the 8 of w_ji, looked up among the edges by their int32
    keys, 4 more, and one block of queries. Finding the edges peaks at 28.1: the
    int64 flat positions, w_ij, int32 i and the int64 n i taken off the positions."""
    w = row_normalize(np.ones((1000, 1000)) - np.eye(1000))
    tracemalloc.start()
    try:
        SpatialWeights(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * 999_000


def dense_edges_and_sums(w):
    """W's edges and Moran sums by dense formulas: int64 flat indices cast to
    int32, whole w_ij and w_ji gathers, and one bincount over i and j."""
    i, j = (k.astype(np.int32) for k in np.divmod(np.flatnonzero(w > 0), w.shape[0]))
    w_ij, w_ji = w[i, j], w[j, i]
    margins = np.bincount(np.concatenate([i, j]), np.concatenate([w_ij, w_ij]))
    return (i, j, w_ij), (float(w_ij.sum()), float((w_ij * (w_ij + w_ji)).sum()),
                          float((margins**2).sum()))


@pytest.mark.parametrize("w", [
    row_normalize(np.ones((300, 300)) - np.eye(300)),
    rook_lattice(30, 30).matrix,
    knn_inverse_distance(np.random.default_rng(5).uniform(0.0, 10.0, (200, 2)), k=6,
                         cutoff=100.0).matrix,
    asymmetric_on_lattice(7, 9),
    scipy.linalg.block_diag(rook_lattice(3, 4).matrix, np.zeros((2, 2))),  # isolated units last
], ids=["dense", "rook", "knn", "asymmetric", "isolated"])
def test_edges_and_moran_sums_are_bitwise_the_dense_formulas(w):
    edges = spatial._edges(w)
    expected_edges, expected_sums = dense_edges_and_sums(w)
    for got, expected in zip(edges, expected_edges, strict=True):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert spatial._sums_of(edges) == expected_sums


# -- W kept as its edges -------------------------------------------------------------------

LAGGED = [
    rook_lattice(6, 7),
    SpatialWeights(rook_lattice(6, 7).matrix),
    knn_inverse_distance(np.random.default_rng(5).uniform(0.0, 10.0, (40, 2)), k=4, cutoff=100.0),
    SpatialWeights(asymmetric_on_lattice(5, 6)),
    SpatialWeights(scipy.linalg.block_diag(rook_lattice(3, 3).matrix, symmetric_on_lattice(2, 4))),
]


@pytest.mark.parametrize("w", LAGGED, ids=["rook", "rook-array", "knn", "asymmetric",
                                           "disconnected"])
def test_the_lag_is_the_dense_product(w):
    """W x over the edges is the matrix product to 1e-15 of max |x|, for a 1-d
    and an (n, 2) x; a W built from edges forms no matrix for it."""
    x = np.random.default_rng(15).normal(size=(len(w), 2))
    formed = "matrix" in vars(w)
    lagged = [(w.lag(c), c) for c in (x[:, 0], x)]
    assert ("matrix" in vars(w)) == formed
    for got, c in lagged:
        assert got.shape == c.shape
        np.testing.assert_allclose(got, np.asarray(w) @ c, rtol=0, atol=1e-15 * np.abs(c).max())
    for bad in (x[1:], x[:, :, None], np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"x has shape {np.shape(bad)} but W has {w.shape}")):
            w.lag(bad)


def test_a_rook_fit_forms_no_matrix():
    """A 50 x 50 rook W is built, solved and fitted with Wald errors without its
    (n, n) matrix: the peak stays within four times the 12.5 MB that its route's
    Q takes, a bound that the 50 MB matrix alone would reach."""
    rng = np.random.default_rng(50)
    x = rng.normal(size=(2500, 2))
    tracemalloc.start()
    try:
        w = rook_lattice(50, 50)
        y = solve_system(0.4, w, x @ [1.0, -0.7] + 0.5 * rng.normal(size=2500))
        res = fit(y, scalars=x, weights=w, std_errors=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.std_errors is not None
    assert "matrix" not in vars(w)
    assert peak <= 4 * 8 * 1250**2


def test_a_pickled_rook_w_is_its_edges_and_solves_alike(monkeypatch):
    """A pickled rook W carries no (n, n) array, and its copy checks, sums and
    looks up nothing again, and solves bit for bit as the original."""
    w = rook_lattice(30, 30)
    data = pickle.dumps(w)
    assert len(data) < 8 * 900**2
    redone = []
    for name in ("_check_edges", "_sums_of", "_transposed", "_route_of"):
        monkeypatch.setattr(spatial, name, lambda *args, name=name: redone.append(name))
    copy = pickle.loads(data)
    monkeypatch.undo()
    assert redone == []
    assert copy._moran_sums == w._moran_sums
    assert "matrix" not in vars(w) and "matrix" not in vars(copy)
    rhs = np.random.default_rng(30).normal(size=(900, 2))
    for c in (rhs[:, 0], rhs):
        assert np.array_equal(solve_system(0.4, copy, c), solve_system(0.4, w, c))
        assert np.array_equal(copy.lag(c), w.lag(c))


@pytest.mark.parametrize("w", [
    rook_lattice(4, 5).matrix,
    queen_lattice(4, 5),
    knn_inverse_distance(np.random.default_rng(5).uniform(0.0, 10.0, (30, 2)), k=4,
                         cutoff=100.0).matrix,
    asymmetric_on_lattice(4, 5),
    scipy.linalg.block_diag(rook_lattice(3, 3).matrix, symmetric_on_lattice(2, 4)),
], ids=["rook", "queen", "knn", "asymmetric", "disconnected"])
def test_a_w_built_from_its_edges_answers_as_the_array_does(w):
    """from_edges on an array's edges gives its log-dets, solves, eigenvalues and
    Moran's I bit for bit, and a matrix equal to it, formed on first use: each
    w_ji looked up among the edges is the one gathered from the array."""
    edges = spatial._edges(w)
    assert spatial._transposed(edges).tobytes() == w[edges[1], edges[0]].tobytes()
    from_array = SpatialWeights(w)
    from_edges = SpatialWeights.from_edges(len(w), *edges)
    rhs = np.random.default_rng(6).normal(size=(len(w), 2))
    for rho in (float(spatial.RHO_GRID[150]), 0.55, -0.3):
        assert log_det_system(rho, from_edges) == log_det_system(rho, from_array)
        assert np.array_equal(solve_system(rho, from_edges, rhs),
                              solve_system(rho, from_array, rhs))
    assert np.array_equal(from_edges.eigenvalues, from_array.eigenvalues)
    assert morans_i(rhs[:, 0], from_edges) == morans_i(rhs[:, 0], from_array)
    assert np.array_equal(from_edges.matrix, w) and not from_edges.matrix.flags.writeable


# (n, i, j, w_ij) of a 3-unit path 0 - 1 - 2, each with one fault
PATH = (3, [0, 1, 1, 2], [1, 0, 2, 1], [1.0, 0.5, 0.5, 1.0])


def dense(n, i, j, w_ij):
    w = np.zeros((n, n))
    w[i, j] = w_ij
    return w


@pytest.mark.parametrize("edges", [
    (3, [0, 1, 1, 2], [1, 0, 2, 1], [np.inf, 0.5, 0.5, 1.0]),
    (3, [0, 0, 1, 1, 2], [0, 1, 0, 2, 1], [0.5, 0.5, 0.5, 0.5, 1.0]),
    (3, [0, 1, 1, 2], [1, 0, 2, 1], [1.0, -0.5, 1.5, 1.0]),
    (3, [0, 1, 1, 2], [1, 0, 2, 1], [1.0, 0.5, 0.6, 1.0]),
    (4, *PATH[1:]),
], ids=["non-finite", "self-loop", "negative", "row-sum", "isolated"])
def test_from_edges_refuses_what_validate_weights_refuses_alike(edges):
    """Edges and the array that holds them are refused with one message."""
    with pytest.raises(ValueError) as expected:
        SpatialWeights(dense(*edges))
    with pytest.raises(ValueError) as got:
        SpatialWeights.from_edges(*edges)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("edges, message", [
    ((3, [0, 1, 1, 2], [1, 0, 3, 1], PATH[3]),
     "edges must join units 0 to 2, got (row, col) [[1, 3]]"),
    ((3, [0, 1, 1, 2], [1, 2, 0, 1], [1.0, 0.5, 0.5, 1.0]),
     "edges must be unique and sorted row-major: edge 2, (row, col) [1, 0], is not after [1, 2]"),
    ((3, [0, 1, 1, 1, 2], [1, 0, 2, 2, 1], [1.0, 0.5, 0.25, 0.25, 1.0]),
     "edges must be unique and sorted row-major: edge 3, (row, col) [1, 2], is not after [1, 2]"),
    ((3, [0, 1, 1, 1, 2], [1, 0, 2, 2, 1], [1.0, 0.5, 0.5, 0.0, 1.0]),
     "edge weights must be positive; a zero weight is no edge"),
    ((3, [0.0, 1.0, 1.0, 2.0], *PATH[2:]),
     "edges must be three 1-d arrays of one length, i and j integer: got float64(4,), "
     "int64(4,) and (4,)"),
    ((3, [0, 1, 1], *PATH[2:]),
     "edges must be three 1-d arrays of one length, i and j integer: got int64(3,), "
     "int64(4,) and (4,)"),
], ids=["outside", "unsorted", "repeated", "zero-weight", "float-index", "lengths"])
def test_from_edges_refuses_an_edge_list_that_no_w_has(edges, message):
    with pytest.raises(ValueError) as err:
        SpatialWeights.from_edges(*edges)
    assert str(err.value) == message


def test_every_constructor_checks_its_w_once_by_the_edge_check(monkeypatch):
    """An array W, an edge list, a rook lattice and a kNN W each pass the one
    rule for a W, _check_edges, exactly once; a kNN W is kept as its edges and
    forms no matrix to be built, lagged or tested by Moran's I."""
    array = np.asarray(rook_lattice(3, 4))
    edges = spatial._edges(array)
    pts = np.random.default_rng(7).uniform(0.0, 10.0, (30, 2))
    check, calls = spatial._check_edges, []

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(spatial, "_check_edges", counted)
    for build in (lambda: SpatialWeights(array), lambda: SpatialWeights.from_edges(12, *edges),
                  lambda: rook_lattice(3, 4), lambda: knn_inverse_distance(pts, 4, 100.0)):
        calls.clear()
        w = build()
        assert calls == [len(w)]
    assert "matrix" not in vars(w)
    x = np.random.default_rng(8).normal(size=30)
    w.lag(x)
    assert "matrix" not in vars(w)
    morans_i(x, w)
    assert "matrix" not in vars(w)


def test_an_empty_array_is_no_w():
    with pytest.raises(ValueError, match=re.escape("n must be an integer >= 1, got 0")):
        SpatialWeights(np.zeros((0, 0)))


def test_a_pickled_copy_carries_the_route_and_decomposes_nothing(monkeypatch):
    sw = rook_lattice(6, 7)
    copy = pickle.loads(pickle.dumps(sw))
    used = log_linalg(monkeypatch, names=("eigvals", "eigvalsh", "eigh", "solve", "slogdet"))
    c = np.random.default_rng(6).normal(size=42)
    np.testing.assert_array_equal(solve_system(0.4, copy, c), solve_system(0.4, sw, c))
    assert log_det_system(0.4, copy) == log_det_system(0.4, sw)
    assert used == []


def test_an_off_grid_log_det_takes_the_spectrum_only_when_it_is_known(monkeypatch):
    """Off the grid, a bipartite W always sums over its spectrum: its route, which
    its first log-det or solve finds, holds it. Any other W whose eigenvalues are
    unknown runs one slogdet and no eigvals, and once they are computed, neither."""
    rook = rook_lattice(4, 5)
    knn = knn_inverse_distance(np.random.default_rng(7).uniform(0.0, 10.0, (20, 2)), k=4,
                               cutoff=100.0)
    used = log_linalg(monkeypatch, names=("eigvals", "eigvalsh", "eigh", "slogdet"))
    log_det_system(0.3, knn)
    assert used == [("slogdet", (20, 20))]
    used.clear()
    assert log_det_system(0.3, rook) == float(np.log1p(-0.3 * rook.eigenvalues).sum().real)
    assert used == [("eigh", (10, 10))]
    used.clear()
    solve_system(0.3, rook, np.ones(20))
    assert used == []
    knn.eigenvalues
    assert used == [("eigvals", (20, 20))]
    used.clear()
    assert log_det_system(0.3, knn) == float(np.log1p(-0.3 * knn.eigenvalues).sum().real)
    assert used == []


def count_grid_tables(monkeypatch):
    """Record the shape of each 2-d np.log1p from here on: one per table of
    ln|I - rho W| on the rho grid, as every per-point sum is 1-d."""
    shapes, log1p = [], np.log1p

    def counted(x, *args, **kwargs):
        if np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", counted)
    return shapes


@pytest.mark.parametrize("w, route", [
    (rook_lattice(10, 15).matrix, "bipartite"),
    (queen_lattice(5, 6), "eigvalsh"),
    (knn_inverse_distance(np.random.default_rng(5).uniform(0.0, 10.0, (60, 2)), k=4,
                          cutoff=100.0).matrix, "eigvals"),
    (scipy.linalg.block_diag(rook_lattice(3, 3).matrix, symmetric_on_lattice(2, 4)),
     "bipartite"),
], ids=["rook", "queen", "knn", "disconnected"])
def test_log_det_on_the_grid_reads_a_table_equal_to_each_sum(w, route, monkeypatch):
    """Each grid rho's log-det is read from one table per W, built by one
    broadcast log1p, and equals the per-point sum bit for bit."""
    sw = SpatialWeights(w)
    assert (isinstance(sw._route, spatial._Bipartite) if route == "bipartite"
            else sw._route == route)
    assert np.iscomplexobj(sw.eigenvalues) == (route == "eigvals")
    tables = count_grid_tables(monkeypatch)
    for rho in spatial.RHO_GRID.tolist():
        assert log_det_system(rho, sw) == float(np.log1p(-rho * sw.eigenvalues).sum().real)
    assert tables == [(spatial.RHO_GRID.size, len(w))]
    assert list(sw._grid_log_dets) == spatial.RHO_GRID.tolist()


def test_log_det_off_the_grid_takes_the_direct_sum_and_builds_no_table(monkeypatch):
    sw = rook_lattice(6, 7)
    sw.eigenvalues  # known, so each off-grid log-det is the sum over them
    tables = count_grid_tables(monkeypatch)
    off_grid = [0.4, math.nextafter(float(spatial.RHO_GRID[120]), 1.0),
                math.nextafter(-spatial.RHO_BOUND, 0.0), np.float64(-0.25), np.array(0.3)]
    for rho in off_grid:
        assert float(rho) not in spatial._ON_GRID
        assert log_det_system(rho, sw) == float(np.log1p(-rho * sw.eigenvalues).sum().real)
    assert tables == [] and "_grid_log_dets" not in vars(sw)
    on_grid = float(spatial.RHO_GRID[120])
    assert log_det_system(np.array(on_grid), sw) == log_det_system(on_grid, sw)
    assert len(tables) == 1
    for rho in (1.0, -1.0, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"rho must satisfy |rho| < 1, got {rho}")):
            log_det_system(rho, sw)


def test_a_pickled_copy_rebuilds_the_table_from_its_eigenvalues(monkeypatch):
    """The pickled state is W, its eigenvalues and its route, not the table,
    which the copy rebuilds by one broadcast log1p and no decomposition."""
    sw = rook_lattice(6, 7)
    table = sw._grid_log_dets
    assert set(sw.__reduce__()[2]) == {"_eigenvalues", "_route"}
    copy = pickle.loads(pickle.dumps(sw))
    used, tables = log_linalg(monkeypatch), count_grid_tables(monkeypatch)
    assert "_grid_log_dets" not in vars(copy)
    assert copy._grid_log_dets == table and copy._grid_log_dets is not table
    assert used == [] and tables == [(spatial.RHO_GRID.size, 42)]


def test_the_rho_grid_is_one_read_only_constant():
    np.testing.assert_array_equal(
        spatial.RHO_GRID, np.linspace(-spatial.RHO_BOUND, spatial.RHO_BOUND, 201))
    assert not spatial.RHO_GRID.flags.writeable
    assert spatial._ON_GRID == set(spatial.RHO_GRID.tolist())


def test_the_bipartite_split_keeps_g_and_no_copy_of_b():
    """The route of a 30 x 30 rook lattice keeps G's eigenvectors Q, 8 n1^2
    bytes as G took, and at most 16 bytes per unit beside them: G's
    eigenvalues mu, the smaller colour class and sqrt(pi) on it."""
    sw = rook_lattice(30, 30)
    tracemalloc.start()
    try:
        split = sw._route
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert split.q.shape == (450, 450) and split.mu.shape == (450,)
    assert kept <= 8 * 450**2 + 16 * 900


@pytest.mark.parametrize("build, reference", [
    (lambda: rook_lattice(6, 7), lambda: reference_rook(6, 7)),
    (lambda: knn_inverse_distance(np.random.default_rng(4).uniform(0.0, 10.0, (30, 2)), k=4,
                                  cutoff=100.0),
     lambda: reference_knn(np.random.default_rng(4).uniform(0.0, 10.0, (30, 2)), 4, 100.0,
                           "euclidean")),
], ids=["rook", "knn"])
def test_constructors_return_spatial_weights_that_read_as_their_matrix(build, reference):
    """The constructors return a SpatialWeights. numpy reads it as its matrix:
    np.asarray gives the read-only matrix itself, bitwise the array the
    per-unit construction gives, and np.array a writable copy."""
    w = build()
    assert isinstance(w, SpatialWeights)
    n = len(w)
    assert w.shape == (n, n)
    view = np.asarray(w)
    assert view is w.matrix and not view.flags.writeable
    expected = reference()
    assert view.dtype == expected.dtype and view.tobytes() == expected.tobytes()
    copy = np.array(w)
    assert copy.flags.writeable and not np.shares_memory(copy, view)
    assert copy.tobytes() == expected.tobytes()
    copy[0, 1] = 0.5  # the object is untouched
    assert view.tobytes() == expected.tobytes()


def test_len_is_the_unit_count():
    w = knn_inverse_distance(np.random.default_rng(2).uniform(0, 10, (7, 2)), k=2,
                             cutoff=100.0).matrix
    assert len(SpatialWeights(w)) == len(w) == 7


@pytest.mark.parametrize("kind", ["rook", "knn"])
def test_traces_match_dense_g_and_the_eigenvalue_sums(kind):
    rng = np.random.default_rng(12)
    if kind == "rook":
        w = rook_lattice(5, 6).matrix
    else:  # asymmetric, with a complex spectrum
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(30, 2)), k=4, cutoff=100.0).matrix
    sw = SpatialWeights(w)
    lam = sw.eigenvalues
    assert np.iscomplexobj(lam) == (kind == "knn")
    for rho in (-0.99, 0.0, 0.5, 0.99):
        tr_g, tr_g2 = sw.traces(rho)
        g = np.linalg.solve(np.eye(len(w)) - rho * w, w)
        # tr G = tr W = 0 at rho = 0, where the eigenvalue sum leaves rounding
        np.testing.assert_allclose([tr_g, tr_g2], [np.trace(g), np.trace(g @ g)],
                                   rtol=1e-10, atol=1e-12)
        # bitwise the expression it replaced: a sum over (lam / (1 - rho lam))^power
        assert tr_g == float(np.sum((lam / (1.0 - rho * lam)) ** 1).real)
        assert tr_g2 == float(np.sum((lam / (1.0 - rho * lam)) ** 2).real)


@pytest.mark.parametrize("kind", ["rook", "knn"])
def test_an_off_grid_log_det_does_not_depend_on_what_ran_before(kind):
    """On a rook W the log-det off the grid is one sum over the spectrum, bit for
    bit, on a fresh W, after a solve and after the eigenvalues. A non-bipartite W
    takes one LU until its eigenvalues are known and their sum after: the two
    agree to rounding, not to the bit."""
    rho = 0.33
    assert rho not in spatial._ON_GRID

    def weights():
        if kind == "rook":
            return rook_lattice(20, 30)
        return knn_inverse_distance(np.random.default_rng(8).uniform(0.0, 10.0, (100, 2)), k=4,
                                    cutoff=100.0)

    fresh = log_det_system(rho, weights())
    solved = weights()
    solve_system(rho, solved, np.ones(len(solved)))
    decomposed = weights()
    decomposed.eigenvalues
    after = [log_det_system(rho, solved), log_det_system(rho, decomposed)]
    if kind == "rook":
        assert after == [fresh, fresh]
    else:
        np.testing.assert_allclose(after, [fresh, fresh], rtol=1e-13, atol=0)


@pytest.mark.parametrize("bad, message", [
    (np.zeros((2, 3)), "weight matrix must be square, got shape (2, 3)"),
    (np.array([[0.0, np.inf], [1.0, 0.0]]),
     "weight matrix has 1 non-finite entries, at (row, col) [[0, 1]]"),
    (np.array([[0.5, 0.5], [1.0, 0.0]]), "weight matrix diagonal must be zero"),
    (np.array([[0.0, 1.0, 0.0], [1.5, 0.0, -0.5], [0.0, 1.0, 0.0]]),
     "weight matrix entries must be non-negative"),
    (np.array([[0.0, 0.5], [1.0, 0.0]]), "rows [0] are neither zero nor normalized (sums [0.5])"),
    (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     "isolated units (all-zero rows): [2]"),
], ids=["bad0", "bad1", "bad2", "bad3", "bad4", "bad5"])
def test_spatial_weights_rejects_what_validate_weights_rejects(bad, message):
    """Each fault of an array W has one message, the one that the array check
    gave before an array was checked as its edges."""
    with pytest.raises(ValueError) as got:
        SpatialWeights(bad)
    assert str(got.value) == message


def test_spatial_weights_refuses_to_wrap_itself():
    """A second object over the same W would check it and find its edges
    again, and start without the first one's route and eigenvalues."""
    w = rook_lattice(3, 4)
    with pytest.raises(ValueError, match="already a SpatialWeights; pass it as it is"):
        SpatialWeights(w)
    assert SpatialWeights.of(w) is w  # as log_det_system, solve_system and a design take it


# each entry point that takes W, called with W, a response y and a scalar block x
TAKES_W = {
    "log_det_system": lambda w, y, x: log_det_system(0.3, w),
    "solve_system": lambda w, y, x: solve_system(0.3, w, y),
    "morans_i": lambda w, y, x: morans_i(y, w),
    "gen_response": lambda w, y, x: gen_response(w, 0.3, None, None, None, None, x[:, 0], 1.0,
                                                 0.5, np.random.default_rng(0)),
    "assemble_design": lambda w, y, x: assemble_design(y, scalars=x, weights=w),
    "fit": lambda w, y, x: fit(y, scalars=x, weights=w, std_errors=True),
}


@pytest.mark.parametrize("entry", TAKES_W)
def test_an_array_w_is_wrapped_once_and_an_object_never(entry, monkeypatch):
    w = rook_lattice(4, 5)
    rng = np.random.default_rng(12)
    y, x = rng.normal(size=20), rng.normal(size=(20, 2))
    built = []
    init = SpatialWeights.__init__
    monkeypatch.setattr(SpatialWeights, "__init__",
                        lambda self, matrix: built.append(matrix) or init(self, matrix))
    TAKES_W[entry](w.matrix, y, x)
    assert len(built) == 1
    TAKES_W[entry](w, y, x)
    assert len(built) == 1


@pytest.mark.parametrize("entry", TAKES_W)
def test_every_entry_point_refuses_an_isolated_unit_alike(entry):
    w = np.pad(rook_lattice(4, 5).matrix, ((0, 1), (0, 1)))  # unit 20 has no neighbour
    rng = np.random.default_rng(13)
    y, x = rng.normal(size=21), rng.normal(size=(21, 2))
    with pytest.raises(ValueError, match=re.escape("isolated units (all-zero rows): [20]")):
        TAKES_W[entry](w, y, x)


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
    rep = morans_i([1.0, -1.0], rook_lattice(1, 2).matrix)
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
    w = rook_lattice(6, 6).matrix
    vals = np.array([(-1.0) ** (r + c) for r in range(6) for c in range(6)])
    rep = morans_i(vals, w)
    assert rep.statistic == pytest.approx(-1.0, abs=1e-12)
    assert rep.p_value < 1e-6


def test_moran_smooth_surface_positive_and_permutation_shrinks():
    w = rook_lattice(8, 8).matrix
    vals = np.array([r + c for r in range(8) for c in range(8)], dtype=float)
    smooth = morans_i(vals, w)
    assert smooth.statistic > 0.5
    perm = morans_i(RNG.permutation(vals), w)
    assert abs(perm.statistic - perm.expectation) < abs(smooth.statistic - smooth.expectation)


@pytest.mark.parametrize("kind", ["rook", "knn", "random"])
def test_moran_on_spatial_weights_equals_moran_on_the_array(kind):
    rng = np.random.default_rng(8)
    if kind == "rook":
        w = rook_lattice(5, 6).matrix
    elif kind == "knn":
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(30, 2)), k=4, cutoff=100.0).matrix
    else:
        w = random_weights(30, rng)
    sw = SpatialWeights(w)
    for _ in range(3):
        vals = rng.normal(size=30)
        assert morans_i(vals, sw) == morans_i(vals, w)


def test_spatial_weights_sums_moran_moments_once(monkeypatch):
    w = rook_lattice(4, 5).matrix
    calls = []
    sums_of = spatial._sums_of
    monkeypatch.setattr(spatial, "_sums_of", lambda *args: calls.append(args) or sums_of(*args))
    sw = SpatialWeights(w)
    assert len(calls) == 1
    rng = np.random.default_rng(9)
    for _ in range(3):
        morans_i(rng.normal(size=20), sw)
    assert len(calls) == 1
    morans_i(rng.normal(size=20), w)  # an array is summed on every call
    assert len(calls) == 2


def test_moran_rejects_non_finite_values():
    # NaN used to give a NaN statistic, z-score and p-value without complaint
    w = rook_lattice(3, 4).matrix
    vals = np.arange(12.0)
    vals[[3, 7]] = [np.nan, np.inf]
    with pytest.raises(ValueError, match=r"^values has 2 non-finite entries, at indices \[3, 7\]$"):
        morans_i(vals, w)
    with pytest.raises(ValueError,
                       match=r"12 non-finite entries, at indices \[0, 1, .*, 9\] \.\.\.$"):
        morans_i(np.full(12, np.nan), w)
    w = w.copy()
    w[4, 5] = np.inf  # W is named by the same rule, at (row, col)
    with pytest.raises(ValueError, match=re.escape(
            "weight matrix has 1 non-finite entries, at (row, col) [[4, 5]]")):
        morans_i(np.arange(12.0), w)


def test_moran_rejects_constant_values():
    with pytest.raises(ValueError):
        morans_i(np.ones(5), random_weights(5))


# -- input checks ---------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: pairwise_distances(np.ones((3, 3))), "locations must be an (n, 2) array",
                 id="locations-shape"),
    pytest.param(lambda: pairwise_distances(np.eye(2), metric="manhattan"),
                 "unknown metric 'manhattan'; use 'euclidean' or 'greatcircle'", id="metric"),
    pytest.param(lambda: knn_inverse_distance(np.eye(2), 0, 1.0), "k must be an integer >= 1, got 0",
                 id="knn-k-zero"),
    pytest.param(lambda: morans_i(np.arange(3.0), rook_lattice(2, 2).matrix),
                 "3 values but 4x4 weights",
                 id="moran-size"),
    pytest.param(lambda: morans_i([1.0], np.zeros((1, 1))), "isolated units (all-zero rows): [0]",
                 id="moran-one-unit"),
    pytest.param(lambda: morans_i([1.0, 2.0, 4.0], np.zeros((3, 3))),
                 "isolated units (all-zero rows): [0, 1, 2]", id="moran-zero-weights"),
])
def test_spatial_input_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
