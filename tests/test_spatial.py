"""Weight construction, row normalization, log-determinants, Moran's I."""

import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsar import spatial
from mixsar.errors import NumericalError
from mixsar.simulation import gen_response
from mixsar.spatial import (
    SpatialWeights,
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


@pytest.mark.parametrize("n_rows, n_cols, message", [
    (2.5, 3, "n_rows must be an integer, got 2.5"),
    (3, "3", "n_cols must be an integer, got '3'"),
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


@pytest.mark.parametrize("metric", ["euclidean", "greatcircle"])
def test_knn_rejects_duplicate_locations(metric):
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"positive \(duplicate locations\?\)"):
        knn_inverse_distance(pts, k=1, cutoff=10.0, metric=metric)


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None])
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


@pytest.mark.filterwarnings("ignore:invalid value encountered in slogdet:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_det_rejects_non_finite_weights(bad):
    with pytest.raises(NumericalError, match=r"rho=0\.5"):
        log_det_system(0.5, np.array([[0.0, bad], [bad, 0.0]]))


def test_spectral_log_det_rejects_a_non_finite_result(monkeypatch):
    monkeypatch.setattr(spatial, "_spectrum", lambda w: np.array([1.0, np.nan, -1.0]))
    with pytest.raises(NumericalError, match=r"not finite at rho=0\.5"):
        log_det_system(0.5, SpatialWeights(rook_lattice(1, 3)))


def test_solve_system_rejects_non_finite_solution():
    # finite system, but x = rhs / 0.5 overflows
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError, match=r"not finite at rho=0\.5"):
        solve_system(0.5, w, np.full(2, 1e308))


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
@pytest.mark.parametrize("rho", [0.5, 0.0])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_solve_system_names_non_finite_weights(bad, rho):
    # with inf, the solve alone returns a finite [-0, -0]
    w = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError,
                       match=r"2 non-finite entries, at \(row, col\) \[\[0, 1\], \[1, 0\]\]$"):
        solve_system(rho, w, np.ones(2))


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


@pytest.mark.parametrize("w", [rook_lattice(4, 5), random_weights(12, np.random.default_rng(5))],
                         ids=["rook", "asymmetric"])
def test_solves_take_spatial_weights_and_match_the_array_bitwise(w):
    rhs = np.random.default_rng(8).normal(size=w.shape[0])
    obj = SpatialWeights(w)
    assert np.array_equal(solve_system(0.3, obj, rhs), solve_system(0.3, w, rhs))

    def draw(weights):
        return gen_response(weights, 0.3, None, None, None, None, rhs, 1.0, 0.5,
                            np.random.default_rng(9))
    assert np.array_equal(draw(obj), draw(w))


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
    with pytest.raises(ValueError, match=r"\|rho\| < 1"):
        log_det_system(rho, SpatialWeights(w))


def test_solve_system_singularity_flagged():
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(NumericalError, match="singular"):
        solve_system(0.5, w, np.ones(2))



@pytest.mark.parametrize("call", [
    pytest.param(lambda w: solve_system(0.3, w, np.ones(2)), id="solve_system"),
    pytest.param(lambda w: log_det_system(0.3, w), id="log_det_system"),
    pytest.param(lambda w: gen_response(w, 0.3, None, None, None, None, np.ones(2), 1.0, 0.0,
                                        np.random.default_rng(0)), id="gen_response"),
])
def test_non_square_weights_are_a_shape_error(call):
    with pytest.raises(ValueError, match=re.escape("weight matrix must be square, got shape (2, 3)")):
        call(np.ones((2, 3)))


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

    def counted(w):
        calls.append(w)
        return decompose(w)

    monkeypatch.setattr(spatial, "_spectrum", counted)
    return calls


@pytest.mark.parametrize("kind, routes", [
    ("rook", ["eigvalsh"]),
    ("knn", ["eigvals"]),
    ("symmetric_support", ["eigvalsh", "eigvals"]),
], ids=["rook", "knn", "symmetric_support"])
def test_spectral_log_det_matches_dense_on_the_rho_grid(kind, routes, monkeypatch):
    rng = np.random.default_rng(8)
    if kind == "rook":
        w = rook_lattice(12, 15)
    elif kind == "knn":  # asymmetric great-circle neighbours
        locations = np.column_stack([rng.uniform(-20, 20, 150), rng.uniform(30, 60, 150)])
        w = knn_inverse_distance(locations, k=5, cutoff=180.0, metric="greatcircle")
    else:  # random weights on a lattice's edges: W is not similar to a symmetric matrix
        adjacent = rook_lattice(6, 8) > 0
        w = row_normalize(adjacent * rng.uniform(0.5, 1.5, adjacent.shape))
    used = []

    def logged(name):
        decompose = getattr(np.linalg, name)

        def call(a):
            used.append(name)
            return decompose(a)
        return call

    for name in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, logged(name))
    sw = SpatialWeights(w)
    grid = np.linspace(-0.999, 0.999, 201)
    spectral = [log_det_system(rho, sw) for rho in grid]
    assert used == routes
    np.testing.assert_allclose(spectral, [log_det_system(rho, w) for rho in grid],
                               rtol=0, atol=1e-10)


def test_spatial_weights_computes_its_spectrum_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    sw = SpatialWeights(rook_lattice(3, 4))
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
    w = rook_lattice(3, 3)
    sw = SpatialWeights(w)
    assert np.shares_memory(sw.matrix, w)
    np.testing.assert_array_equal(sw.matrix, w)
    with pytest.raises(ValueError, match="read-only"):
        sw.matrix[0, 1] = 0.5


def test_spatial_weights_copy_keeps_matrix_read_only_and_carries_its_spectrum(monkeypatch):
    sw = SpatialWeights(rook_lattice(3, 3))
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
    # a copy made before the decomposition has none to carry
    np.testing.assert_array_equal(undecomposed.eigenvalues, sw.eigenvalues)
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [
    np.zeros((2, 3)),
    np.array([[0.0, np.inf], [1.0, 0.0]]),
    np.array([[0.5, 0.5], [1.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [1.5, 0.0, -0.5], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.5], [1.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
])
def test_spatial_weights_rejects_what_validate_weights_rejects(bad):
    with pytest.raises(ValueError) as expected:
        validate_weights(bad, allow_isolated=False)
    with pytest.raises(ValueError) as got:
        SpatialWeights(bad)
    assert str(got.value) == str(expected.value)


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


@pytest.mark.parametrize("kind", ["rook", "knn", "random"])
def test_moran_on_spatial_weights_equals_moran_on_the_array(kind):
    rng = np.random.default_rng(8)
    if kind == "rook":
        w = rook_lattice(5, 6)
    elif kind == "knn":
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(30, 2)), k=4, cutoff=100.0)
    else:
        w = random_weights(30, rng)
    sw = SpatialWeights(w)
    for _ in range(3):
        vals = rng.normal(size=30)
        assert morans_i(vals, sw) == morans_i(vals, w)


def test_spatial_weights_sums_moran_moments_once(monkeypatch):
    calls = []
    sums_of = spatial._sums_of
    monkeypatch.setattr(spatial, "_sums_of", lambda w: calls.append(w) or sums_of(w))
    w = rook_lattice(4, 5)
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
    w = rook_lattice(3, 4)
    vals = np.arange(12.0)
    vals[[3, 7]] = [np.nan, np.inf]
    with pytest.raises(ValueError, match=r"2 non-finite entries, at units \[3, 7\]$"):
        morans_i(vals, w)
    with pytest.raises(ValueError,
                       match=r"12 non-finite entries, at units \[0, 1, .*, 9\] \.\.\.$"):
        morans_i(np.full(12, np.nan), w)


def test_moran_rejects_constant_values():
    with pytest.raises(ValueError):
        morans_i(np.ones(5), random_weights(5))


# -- input checks ---------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: pairwise_distances(np.ones((3, 3))), "locations must be an (n, 2) array",
                 id="locations-shape"),
    pytest.param(lambda: pairwise_distances(np.eye(2), metric="manhattan"),
                 "unknown metric 'manhattan'; use 'euclidean' or 'greatcircle'", id="metric"),
    pytest.param(lambda: knn_inverse_distance(np.eye(2), 0, 1.0), "k must be at least 1",
                 id="knn-k-zero"),
    pytest.param(lambda: morans_i(np.arange(3.0), rook_lattice(2, 2)), "3 values but 4x4 weights",
                 id="moran-size"),
    pytest.param(lambda: morans_i([1.0], np.zeros((1, 1))), "need at least 2 units",
                 id="moran-one-unit"),
    pytest.param(lambda: morans_i([1.0, 2.0, 4.0], np.zeros((3, 3))), "weight matrix is all zero",
                 id="moran-zero-weights"),
])
def test_spatial_input_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
