"""Curve smoothing, derivatives, quadrature, covariance, FPCA, and scores."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsar.functional import (
    CurveSample,
    FpcaBasis,
    RawCurveObservations,
    default_bandwidth,
    derivative_curves,
    empirical_covariance,
    fpca,
    pve_truncate,
    scores,
    smooth_curves,
    trapezoid_weights,
)
from mixsar.model import fit
from mixsar.spatial import rook_lattice

RNG = np.random.default_rng(7)


def cosine_curves(n, alpha, grid, rng, n_terms=50):
    """Random curves sum_j a_j Z_j sqrt(2) cos(j pi t), Z_j ~ U(-sqrt3, sqrt3)."""
    j = np.arange(1, n_terms + 1)
    amps = (-1.0) ** (j + 1) * j ** (-alpha / 2.0)
    z = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, n_terms))
    basis = np.sqrt(2.0) * np.cos(np.outer(j, np.pi * grid))
    return CurveSample(grid, (z * amps) @ basis)


# -- smoothing ----------------------------------------------------------------

def nw_epanechnikov_oracle(times, vals, grid, h):
    """Brute-force kernel sum at each grid point."""
    out = np.empty(grid.size)
    for gi, t in enumerate(grid):
        num = den = 0.0
        for tj, yj in zip(times, vals):
            u = (t - tj) / h
            if abs(u) <= 1.0:
                k = 0.75 * (1.0 - u * u)
                num += k * yj
                den += k
        out[gi] = num / den if den > 0 else np.nan
    return out


def test_smooth_constant_is_constant():
    raw = RawCurveObservations(np.linspace(0, 1, 20), np.full((3, 20), 4.2))
    sm = smooth_curves(raw, bandwidth=0.3, grid_size=50)
    np.testing.assert_allclose(sm.values, 4.2, atol=1e-12)


def test_smooth_tiny_bandwidth_interpolates_grid_data():
    grid = np.linspace(0, 1, 25)
    vals = RNG.normal(size=(2, 25))
    sm = smooth_curves(RawCurveObservations(grid, vals), bandwidth=1e-9, grid_size=25)
    np.testing.assert_allclose(sm.values, vals, atol=1e-12)


def test_smooth_linear_data_against_oracle():
    times = np.linspace(0, 1, 50)
    vals = times.copy()
    sm = smooth_curves(RawCurveObservations(times, vals[None, :]), bandwidth=0.1, grid_size=100)
    oracle = nw_epanechnikov_oracle(times, vals, sm.grid, 0.1)
    np.testing.assert_allclose(sm.values[0], oracle, atol=1e-12)
    interior = (sm.grid > 0.1) & (sm.grid < 0.9)
    assert np.max(np.abs(sm.values[0][interior] - sm.grid[interior])) < 0.02


def test_smooth_empty_window_falls_back_to_nearest():
    raw = RawCurveObservations(np.array([0.0, 1.0]), np.array([[2.0, 8.0]]))
    sm = smooth_curves(raw, bandwidth=0.05, grid_size=11)
    # grid points more than 0.05 from both ends take the nearest observation
    np.testing.assert_allclose(sm.values[0][:5], 2.0, atol=1e-12)
    np.testing.assert_allclose(sm.values[0][6:], 8.0, atol=1e-12)


def test_smooth_duplicate_points_are_ignored():
    times = np.linspace(0, 1, 30)
    vals = RNG.normal(size=(2, 30))
    base = smooth_curves(RawCurveObservations(times, vals), bandwidth=0.15, grid_size=40)
    times_dup = np.concatenate([times, [times[10]]])
    vals_dup = np.concatenate([vals, vals[:, 10:11]], axis=1)
    order = np.argsort(times_dup, kind="stable")
    dup = smooth_curves(
        RawCurveObservations(times_dup[order], vals_dup[:, order]), bandwidth=0.15, grid_size=40
    )
    np.testing.assert_allclose(dup.values, base.values, atol=1e-14)


def test_smooth_rejects_bad_args():
    raw = RawCurveObservations(np.array([0.0, 0.5, 1.0]), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        smooth_curves(raw, bandwidth=0.0)
    with pytest.raises(ValueError):
        smooth_curves(raw, bandwidth=0.1, grid_size=1)
    # NaN emptied every kernel window and fell back to nearest-observation
    # interpolation; 2.5 became 2 grid points
    for bandwidth in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            smooth_curves(raw, bandwidth=bandwidth)
    with pytest.raises(ValueError, match="grid_size must be an integer >= 2, got 2.5"):
        smooth_curves(raw, bandwidth=0.1, grid_size=2.5)
    assert smooth_curves(raw, bandwidth=0.6, grid_size=np.int64(4)).n_points == 4
    rng = np.random.default_rng(15)
    times = np.sort(rng.uniform(0.0, 1.0, 15))
    with pytest.raises(ValueError, match="bandwidth must be positive and finite, got nan"):
        fit(rng.normal(size=16), RawCurveObservations(times, rng.normal(size=(16, 15))),
            weights=rook_lattice(4, 4), bandwidth=np.nan)
    with pytest.raises(ValueError):
        RawCurveObservations(np.array([0.0, 0.2]), np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        RawCurveObservations(np.array([0.3, 0.2]), np.array([[1.0, 2.0]]))


def two_branch_smooth(raw, bandwidth, grid_size):
    """Reference smoother: the kernel at ``bandwidth``, then a second evaluation,
    at just past the nearest distance, for the grid points it leaves empty."""
    times, uniq_idx = np.unique(raw.times, return_index=True)
    values = raw.values[:, uniq_idx]
    grid = np.linspace(0.0, 1.0, grid_size)
    dist = np.abs(grid[:, None] - times[None, :])
    u = dist / bandwidth
    kernel = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2), 0.0)
    empty = kernel.sum(axis=1) == 0.0
    if np.any(empty):
        local_h = dist[empty].min(axis=1) * (1.0 + 1e-9)
        u_loc = dist[empty] / local_h[:, None]
        kernel[empty] = np.where(np.abs(u_loc) <= 1.0, 0.75 * (1.0 - u_loc**2), 0.0)
    weights = kernel / kernel.sum(axis=1, keepdims=True)
    return values @ weights.T


@st.composite
def raw_smoothing_cases(draw):
    """Raw curves, some with repeated points, a bandwidth in [0.002, 0.3], a grid size."""
    distinct = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=25, unique=True)))
    distinct.sort()
    repeats = draw(st.lists(st.integers(1, 2), min_size=distinct.size, max_size=distinct.size))
    times = np.repeat(distinct, repeats)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.repeat(rng.normal(size=(draw(st.integers(1, 3)), distinct.size)), repeats, axis=1)
    bandwidth = draw(st.floats(0.002, 0.3))
    return RawCurveObservations(times, values), bandwidth, draw(st.integers(2, 150))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_smoothing_cases())
@example((RawCurveObservations([0.0, 1.0], [[2.0, 8.0]]), 0.05, 11))  # interior windows empty
@example((RawCurveObservations([0.0, 1.0], [[2.0, 8.0]]), 0.5, 3))  # nearest at the half-width
@example((RawCurveObservations([0.25, 0.25, 0.5], [[1.0, 1.0, 3.0]]), 0.002, 101))
def test_smooth_matches_the_two_branch_kernel(case):
    raw, bandwidth, grid_size = case
    sm = smooth_curves(raw, bandwidth, grid_size)
    assert np.array_equal(sm.values, two_branch_smooth(raw, bandwidth, grid_size))


def test_default_bandwidth_is_twice_median_spacing():
    assert default_bandwidth(np.linspace(0, 1, 11)) == pytest.approx(0.2)


# -- derivatives ---------------------------------------------------------------

def test_derivative_constant_and_line():
    grid = np.linspace(0, 1, 40)
    sample = CurveSample(grid, np.vstack([np.full(40, 3.0), grid]))
    d = derivative_curves(sample)
    np.testing.assert_allclose(d.values[0], 0.0, atol=1e-13)
    np.testing.assert_allclose(d.values[1], 1.0, atol=1e-12)


def test_derivative_sine_against_analytic():
    grid = np.linspace(0, 1, 100)
    d = derivative_curves(CurveSample(grid, np.sin(2 * np.pi * grid)[None, :]))
    truth = 2 * np.pi * np.cos(2 * np.pi * grid)
    assert np.max(np.abs(d.values[0][1:-1] - truth[1:-1])) < 0.01


def test_derivative_needs_three_points():
    with pytest.raises(ValueError):
        derivative_curves(CurveSample(np.array([0.0, 1.0]), np.array([[1.0, 2.0]])))


# -- quadrature and inner products ----------------------------------------------

def test_l2_inner_of_ones_is_one():
    w = trapezoid_weights(np.linspace(0, 1, 37))
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)  # <1, 1> on [0, 1]


def test_l2_inner_cosine_orthonormality():
    grid = np.linspace(0, 1, 200)
    w = trapezoid_weights(grid)
    phi = np.sqrt(2) * np.cos(np.outer(np.arange(1, 5), np.pi * grid))
    for j in range(4):
        for k in range(4):
            val = np.sum(w * phi[j] * phi[k])
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-3)


def test_trapezoid_weights_integrate_polynomials():
    grid = np.linspace(0, 1, 2001)
    w = trapezoid_weights(grid)
    assert np.sum(w * grid**2) == pytest.approx(1 / 3, abs=1e-6)


# -- covariance ------------------------------------------------------------------

def test_covariance_identical_curves_is_zero():
    grid = np.linspace(0, 1, 20)
    sample = CurveSample(grid, np.tile(np.sin(grid), (5, 1)))
    np.testing.assert_allclose(empirical_covariance(sample), 0.0, atol=1e-15)


def test_covariance_symmetric_psd():
    grid = np.linspace(0, 1, 30)
    sample = cosine_curves(40, 1.1, grid, RNG)
    cov = empirical_covariance(sample)
    np.testing.assert_allclose(cov, cov.T, atol=0)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10


def test_covariance_two_signed_curves():
    grid = np.linspace(0, 1, 25)
    f = np.cos(np.pi * grid)
    cov = empirical_covariance(CurveSample(grid, np.vstack([f, -f])))
    np.testing.assert_allclose(cov, np.outer(f, f), atol=1e-14)


# -- FPCA -------------------------------------------------------------------------

def test_fpca_rank_one_recovery():
    grid = np.linspace(0, 1, 80)
    w = trapezoid_weights(grid)
    phi = np.sqrt(2) * np.cos(np.pi * grid)  # unit L2 norm
    coeffs = RNG.normal(size=12)
    basis = fpca(CurveSample(grid, np.outer(coeffs, phi)))
    lead = basis.eigenfunctions[0]
    err = min(
        np.sqrt(np.sum(w * (lead - phi) ** 2)),
        np.sqrt(np.sum(w * (lead + phi) ** 2)),
    )
    assert err < 1e-3
    assert np.all(basis.eigenvalues[1:] < 1e-8)


def test_fpca_orthonormal_eigenfunctions():
    grid = np.linspace(0, 1, 60)
    basis = fpca(cosine_curves(30, 1.1, grid, RNG))
    gram = (basis.eigenfunctions * basis.quadrature_weights) @ basis.eigenfunctions.T
    np.testing.assert_allclose(gram, np.eye(basis.n_retained), atol=1e-8)


def test_fpca_trace_identity():
    grid = np.linspace(0, 1, 50)
    sample = cosine_curves(25, 2.0, grid, RNG)
    basis = fpca(sample)
    cov = empirical_covariance(sample)
    trace = float(np.sum(trapezoid_weights(grid) * np.diag(cov)))
    assert basis.eigenvalues.sum() == pytest.approx(trace, rel=1e-6)


def test_fpca_eigenvalue_gap_matches_population():
    grid = np.linspace(0, 1, 100)
    basis = fpca(cosine_curves(900, 1.1, grid, np.random.default_rng(42)))
    ratio = basis.eigenvalues[1] / basis.eigenvalues[0]
    assert ratio == pytest.approx(2.0 ** (-1.1), rel=0.2)


def test_fpca_sign_convention_deterministic():
    grid = np.linspace(0, 1, 40)
    basis = fpca(cosine_curves(20, 1.1, grid, np.random.default_rng(3)))
    peaks = np.argmax(np.abs(basis.eigenfunctions), axis=1)
    lead = basis.eigenfunctions[np.arange(basis.n_retained), peaks]
    assert np.all(lead[basis.eigenvalues > 1e-12] > 0)


# -- PVE truncation ----------------------------------------------------------------

@pytest.mark.parametrize(
    "ev,z,expected",
    [
        ([1.0, 0.0, 0.0], 0.7, 1),
        ([0.5, 0.3, 0.2], 0.7, 2),
        ([0.5, 0.3, 0.2], 1.0, 3),
        ([0.5, 0.3, 0.2], 0.8, 2),
        ([0.5, 0.3, 0.2], 0.5, 1),
    ],
)
def test_pve_truncate(ev, z, expected):
    assert pve_truncate(ev, z) == expected


def test_pve_truncate_rejects_degenerate():
    with pytest.raises(ValueError):
        pve_truncate([0.0, 0.0], 0.7)
    with pytest.raises(ValueError):
        pve_truncate([1.0, 0.5], 0.0)


# -- scores --------------------------------------------------------------------------

def test_scores_identical_curves_are_zero():
    grid = np.linspace(0, 1, 30)
    sample = CurveSample(grid, np.tile(np.cos(grid), (4, 1)))
    basis = fpca(sample)
    np.testing.assert_allclose(scores(sample, basis, 3), 0.0, atol=1e-12)


def test_scores_mean_zero_and_variance_matches_eigenvalues():
    grid = np.linspace(0, 1, 60)
    sample = cosine_curves(50, 1.1, grid, RNG)
    basis = fpca(sample)
    sc = scores(sample, basis, 6)
    np.testing.assert_allclose(sc.mean(axis=0), 0.0, atol=1e-8)
    for j in range(6):
        assert np.var(sc[:, j]) == pytest.approx(basis.eigenvalues[j], rel=1e-6)


def test_scores_full_rank_reconstruction():
    grid = np.linspace(0, 1, 50)
    sample = cosine_curves(6, 1.1, grid, RNG)
    basis = fpca(sample)
    sc = scores(sample, basis, 5)  # rank of centered 6-sample covariance
    recon = basis.mean_curve + sc @ basis.eigenfunctions[:5]
    np.testing.assert_allclose(recon, sample.values, atol=1e-8)


def test_scores_parseval():
    grid = np.linspace(0, 1, 40)
    sample = cosine_curves(8, 2.0, grid, RNG)
    basis = fpca(sample)
    sc = scores(sample, basis, basis.n_retained)
    w = trapezoid_weights(grid)
    centered = sample.values - basis.mean_curve
    for i in range(8):
        norm2 = np.sum(w * centered[i] * centered[i])
        assert np.sum(sc[i] ** 2) == pytest.approx(norm2, rel=1e-6)


def test_scores_m_out_of_range():
    grid = np.linspace(0, 1, 20)
    sample = cosine_curves(5, 1.1, grid, RNG)
    basis = fpca(sample)
    with pytest.raises(ValueError):
        scores(sample, basis, basis.n_retained + 1)


# -- input checks ---------------------------------------------------------------------

GRID3 = np.array([0.0, 0.5, 1.0])


def fpca_basis(**fields):
    base = dict(grid=GRID3, mean_curve=np.zeros(3), eigenvalues=np.array([2.0, 1.0]),
                eigenfunctions=np.ones((2, 3)), quadrature_weights=trapezoid_weights(GRID3))
    return FpcaBasis(**{**base, **fields})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: RawCurveObservations([0.5], [[1.0]]),
                 "need at least 2 observation points", id="raw-one-point"),
    pytest.param(lambda: RawCurveObservations([0.0, 1.5], [[1.0, 2.0]]),
                 "observation points must lie in [0, 1]", id="raw-outside-unit-interval"),
    pytest.param(lambda: RawCurveObservations([0.0, np.inf, 1.0], np.ones((1, 3))),
                 "observation points has 1 non-finite entries, at indices [1]",
                 id="raw-non-finite-time"),
    pytest.param(lambda: RawCurveObservations([0.0, 1.0], [[1.0, np.nan]]),
                 "curve values has 1 non-finite entries, at (row, col) [[0, 1]]",
                 id="raw-non-finite"),
    pytest.param(lambda: RawCurveObservations([0.0, 0.5, 0.5], [[1.0, 2.0, 3.0]]),
                 "repeated observation points must carry identical values", id="raw-repeat"),
    pytest.param(lambda: CurveSample([0.5], [[1.0]]), "need at least 2 grid points",
                 id="sample-one-point"),
    pytest.param(lambda: CurveSample([0.0, 0.0, 1.0], [[1.0, 2.0, 3.0]]),
                 "grid must be strictly increasing", id="sample-repeat"),
    pytest.param(lambda: CurveSample([-0.5, 1.0], [[1.0, 2.0]]), "grid points must lie in [0, 1]",
                 id="sample-outside-unit-interval"),
    pytest.param(lambda: CurveSample([np.nan, 0.5, -np.inf], np.ones((1, 3))),
                 "grid points has 2 non-finite entries, at indices [0, 2]",
                 id="sample-non-finite-grid"),
    pytest.param(lambda: CurveSample(GRID3, [[1.0, 2.0]]),
                 "values have 2 columns but there are 3 grid points", id="sample-width"),
    pytest.param(lambda: CurveSample(GRID3, [[1.0, np.inf, 2.0]]),
                 "curve values has 1 non-finite entries, at (row, col) [[0, 1]]",
                 id="sample-non-finite"),
    pytest.param(lambda: fpca_basis(eigenvalues=np.array([1.0, -1.0])),
                 "eigenvalues must be non-negative", id="basis-negative"),
    pytest.param(lambda: fpca_basis(eigenvalues=np.array([1.0, 2.0])),
                 "eigenvalues must be non-increasing", id="basis-increasing"),
    pytest.param(lambda: trapezoid_weights([0.5]), "grid needs at least 2 points",
                 id="trapezoid-one-point"),
    pytest.param(lambda: default_bandwidth([0.5, 0.5]),
                 "need at least 2 distinct observation points", id="bandwidth-one-distinct"),
    pytest.param(lambda: empirical_covariance(CurveSample(GRID3, [[1.0, 2.0, 3.0]])),
                 "need at least 2 subjects", id="covariance-one-subject"),
    pytest.param(lambda: pve_truncate([], 0.5),
                 "eigenvalues must be a non-empty non-negative vector", id="pve-empty"),
    pytest.param(lambda: pve_truncate([1.0, -0.5], 0.5),
                 "eigenvalues must be a non-empty non-negative vector", id="pve-negative"),
    pytest.param(lambda: scores(CurveSample([0.0, 0.4, 1.0], np.ones((2, 3))), fpca_basis(), 1),
                 "sample grid does not match the basis grid", id="scores-grid"),
    pytest.param(lambda: fit(np.arange(4.0), CurveSample([0.0, 0.3, np.nan, 1.0], np.eye(4)),
                             weights=rook_lattice(2, 2)),
                 "grid points has 1 non-finite entries, at indices [2]", id="fit-sample-nan"),
    pytest.param(lambda: fit(np.arange(4.0), RawCurveObservations([0.0, 0.3, np.nan, 1.0],
                                                                  np.eye(4)),
                             weights=rook_lattice(2, 2)),
                 "observation points has 1 non-finite entries, at indices [2]", id="fit-raw-nan"),
])
def test_functional_input_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()

