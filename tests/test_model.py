"""Design assembly, concentrated likelihood, rho optimization, full fits, Wald."""

import math
import re
import warnings
import weakref
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN
from test_spatial import count_grid_tables

from mixsar import geometry, model, simulation, spatial
from mixsar.errors import NumericalError
from mixsar.functional import CurveSample, fpca, pve_truncate, scores, trapezoid_weights
from mixsar.model import (
    MixedDesign,
    assemble_design,
    fit,
    full_loglik,
    optimize_rho,
    wald_std_errors,
)
from mixsar.spatial import SpatialWeights, knn_inverse_distance, log_det_system, rook_lattice

RNG = np.random.default_rng(1234)


def sar_instance(n_rows=4, n_cols=5, rho=0.4, q=2, noise=0.5, rng=RNG, subtract=0):
    """Scalar-covariate SAR draw: returns (y, X, W, delta_true)."""
    w = rook_lattice(n_rows, n_cols).matrix
    n = n_rows * n_cols - subtract
    w = w[:n, :n]
    if subtract:
        w = w / w.sum(axis=1, keepdims=True)
    x = rng.normal(size=(n, q))
    delta = np.concatenate([[0.5], rng.normal(size=q)])
    signal = delta[0] + x @ delta[1:]
    y = np.linalg.solve(np.eye(n) - rho * w, signal + noise * rng.normal(size=n))
    return y, x, w, delta


def make_design(y, x, w):
    return assemble_design(y, scalars=x, weights=w)


def concentrated(rho, design):
    """The concentrated log-likelihood of y at rho: the design's profile of y / s, less n ln s."""
    return design.loglik(rho) - design.n * math.log(design.scale)


# -- design assembly -------------------------------------------------------------

def test_assemble_degenerate_blocks_is_classic_sar_design():
    y, x, w, _ = sar_instance(q=1)
    d = assemble_design(y, scalars=x, weights=w)
    assert d.Z.shape == (20, 2)
    np.testing.assert_allclose(d.Z[:, 0], 1.0)
    np.testing.assert_allclose(d.Z[:, 1], x[:, 0])
    assert d.column_labels == ("intercept", "x_1")


def test_assemble_block_widths():
    n = 150
    w = rook_lattice(10, 15)
    y = RNG.normal(size=n)
    sc = RNG.normal(size=(n, 1))
    comp_ilr = RNG.normal(size=(n, 2))
    x = RNG.normal(size=(n, 1))
    d = assemble_design(y, sc, comp_ilr, x, weights=w)
    # width 1 + m + (d-1) + q
    assert d.Z.shape == (150, 1 + 1 + 2 + 1)
    assert d.blocks["fpc"] == slice(1, 2)
    assert d.blocks["ilr"] == slice(2, 4)
    assert d.blocks["scalar"] == slice(4, 5)


def test_assemble_duplicate_column_names_offending_block():
    y, x, w, _ = sar_instance(q=1)
    dup = np.hstack([x, x])
    with pytest.raises(ValueError, match="scalar"):
        assemble_design(y, scalars=dup, weights=w)


def test_assemble_rejects_mismatched_rows():
    y, x, w, _ = sar_instance()
    with pytest.raises(ValueError):
        assemble_design(y[:-1], scalars=x, weights=w)
    with pytest.raises(ValueError):
        assemble_design(y, scalars=x[:-1], weights=w)


# -- closed-form coefficients -------------------------------------------------------

def test_delta_hat_at_zero_rho_is_ols():
    y, x, w, _ = sar_instance()
    d = make_design(y, x, w)
    ols, *_ = np.linalg.lstsq(d.Z, y, rcond=None)
    np.testing.assert_allclose(d.delta(0.0), ols, atol=1e-12)


def test_delta_hat_exact_recovery_noise_free():
    y, x, w, delta_true = sar_instance(rho=0.3, noise=0.0)
    d = make_design(y, x, w)
    np.testing.assert_allclose(d.delta(0.3), delta_true, atol=1e-10)
    assert d.sigma2(0.3) == pytest.approx(0.0, abs=1e-16 * np.abs(y).max())


def test_delta_hat_matches_normal_equations():
    for _ in range(5):
        y, x, w, _ = sar_instance(rng=RNG)
        d = make_design(y, x, w)
        for rho in (-0.7, 0.0, 0.55):
            target = (np.eye(d.n) - rho * w) @ y
            oracle = np.linalg.inv(d.Z.T @ d.Z) @ d.Z.T @ target
            np.testing.assert_allclose(d.delta(rho), oracle, atol=1e-8)


def test_sigma2_hat_matches_direct_residuals():
    y, x, w, _ = sar_instance()
    d = make_design(y, x, w)
    rho = 0.25
    e = y - rho * (w @ y) - d.Z @ d.delta(rho)
    assert d.sigma2(rho) == pytest.approx(float(e @ e) / d.n, abs=1e-14)


# -- likelihoods ----------------------------------------------------------------------

def test_profile_identity_constant_offset():
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6)
    d = make_design(y, x, w)
    n = d.n
    expected = -0.5 * n * (np.log(2 * np.pi) + 1.0)
    for rho in np.linspace(-0.9, 0.9, 10):
        gap = full_loglik(rho, d.delta(rho), d.sigma2(rho), d) - concentrated(rho, d)
        assert gap == pytest.approx(expected, abs=1e-8)


def test_full_loglik_zero_case():
    n = 12
    w = rook_lattice(3, 4)
    d = assemble_design(np.zeros(n) + 1e-300, weights=w)  # y ~ 0
    val = full_loglik(0.0, np.zeros(1), 1.0, d)
    assert val == pytest.approx(-0.5 * n * np.log(2 * np.pi), abs=1e-10)


def test_full_loglik_matches_reduced_form_density():
    y, x, w, _ = sar_instance(n_rows=1, n_cols=5, rho=0.3, q=1)
    d = make_design(y, x, w)
    rho, sigma2 = 0.3, 0.8
    delta = d.delta(rho)
    a = np.eye(d.n) - rho * w
    mean = np.linalg.solve(a, d.Z @ delta)
    cov = sigma2 * np.linalg.inv(a.T @ a)
    oracle = scipy.stats.multivariate_normal(mean=mean, cov=cov).logpdf(y)
    assert full_loglik(rho, delta, sigma2, d) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("sigma2", [np.nan, 0.0, -1.0, np.inf])
def test_full_loglik_rejects_non_positive_sigma2(sigma2):
    y, x, w, _ = sar_instance()
    d = make_design(y, x, w)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        full_loglik(0.3, d.delta(0.3), sigma2, d)


def test_maximized_loglik_dominates_grid():
    y, x, w, _ = sar_instance(rho=0.5)
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    best = full_loglik(rho_hat, d.delta(rho_hat), d.sigma2(rho_hat), d)
    for rho in np.linspace(-0.95, 0.95, 20):
        val = full_loglik(rho, d.delta(rho), d.sigma2(rho), d)
        assert best >= val - 1e-9


def test_concentrated_loglik_degenerate_exact_fit():
    w = rook_lattice(2, 3)
    y = np.zeros(6)  # exact fit at every rho: residual variance is literally 0
    d = assemble_design(y, weights=w)
    with pytest.raises(NumericalError):
        d.loglik(0.2)
    with pytest.raises(ValueError, match="rho is not identified"):  # Wy = 0 as well
        optimize_rho(d)


# -- rho optimization -------------------------------------------------------------------

def test_optimize_rho_agrees_with_grid_oracle():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rho=0.4, rng=rng)
        d = make_design(y, x, w)
        rho_hat = optimize_rho(d)
        grid = np.arange(-0.999, 0.9991, 0.001)
        vals = [concentrated(r, d) for r in grid]
        assert abs(rho_hat - grid[int(np.argmax(vals))]) < 0.002


def test_optimize_rho_zero_truth_unbiased_ballpark():
    rng = np.random.default_rng(7)
    y, x, w, _ = sar_instance(n_rows=10, n_cols=15, rho=0.0, rng=rng)
    d = make_design(y, x, w)
    assert abs(optimize_rho(d)) < 3 * 0.056


def dense_profile(rho, design):
    """The full log-likelihood at rho with delta and sigma2 profiled out; its
    log-determinant is the dense one."""
    return full_loglik(rho, design.delta(rho), design.sigma2(rho), design)


def test_optimize_rho_keeps_an_optimum_at_the_grid_endpoint():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rho=-0.9999, rng=np.random.default_rng(0))
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    assert abs(rho_hat + model.RHO_BOUND) <= 1e-15
    # the profile falls from the boundary inward
    assert dense_profile(-model.RHO_BOUND, d) > dense_profile(-model.RHO_BOUND + 1e-6, d)


def test_optimize_rho_keeps_the_grid_point_when_the_root_scores_lower(monkeypatch):
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rho=0.4, rng=np.random.default_rng(2))
    d = make_design(y, x, w)
    grid = model.RHO_GRID
    best = grid[int(np.argmax([concentrated(r, d) for r in grid]))]
    # a score that reads negative everywhere drives the bisection to the bracket's left end
    monkeypatch.setattr(SpatialWeights, "traces", lambda weights, rho: (np.inf, np.inf))
    assert optimize_rho(d) == best


def test_optimize_rho_finds_an_interior_optimum_near_the_lower_bound():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rho=-0.998, rng=np.random.default_rng(3))
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    assert -model.RHO_BOUND < rho_hat < -0.998  # inside the grid's first bracket
    best = dense_profile(rho_hat, d)
    for rho in [*np.linspace(-model.RHO_BOUND, -0.98, 401), rho_hat - 1e-7, rho_hat + 1e-7]:
        assert best >= dense_profile(rho, d)


def test_optimize_rho_passes_over_the_rho_whose_log_det_fails(monkeypatch):
    """A rho whose log-det raises NumericalError scores -inf: the search stays
    where the profile is finite, though its maximum lies beyond."""
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rho=0.8, rng=np.random.default_rng(2))
    d = make_design(y, x, w)
    assert optimize_rho(d) > 0.6
    log_det = model.log_det_system

    def failing_above_half(rho, weights):
        if rho > 0.5:
            raise NumericalError(f"no log-det at rho={rho}")
        return log_det(rho, weights)

    monkeypatch.setattr(model, "log_det_system", failing_above_half)
    rho_hat = optimize_rho(d)
    assert rho_hat == max(r for r in model.RHO_GRID.tolist() if r <= 0.5)
    assert math.isfinite(d.loglik(rho_hat))


def test_optimize_rho_names_a_profile_that_fails_on_the_whole_grid(monkeypatch):
    def failing(rho, weights):
        raise NumericalError(f"no log-det at rho={rho}")

    monkeypatch.setattr(model, "log_det_system", failing)
    y, x, w = small_case()
    with pytest.raises(NumericalError, match="non-finite on the whole rho grid"):
        optimize_rho(make_design(y, x, w))


def bisect_rho(design):
    """Reference: the rho search before safeguarded Newton. The same grid, then
    bisection on the sign of the score times sigma2(rho) to adjacent floats."""
    def objective(rho):
        try:
            return design.loglik(rho)
        except NumericalError:
            return -np.inf

    grid = model.RHO_GRID
    vals = np.array([objective(r) for r in grid])
    best = int(np.argmax(vals))
    lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        e = design.e_y - mid * design.e_w
        lam = design.weights.eigenvalues
        trace = float(np.sum(lam / (1.0 - mid * lam)).real)
        ascends = e @ design.e_w - design.mean_square(mid) * trace > 0
        lo, hi = (mid, hi) if ascends else (lo, mid)
        mid = 0.5 * (lo + hi)
    return float(grid[best]) if objective(mid) < vals[best] else mid


def knn_design(n=40, rho=0.5, seed=4):
    """Asymmetric kNN weights, whose spectrum is complex."""
    rng = np.random.default_rng(seed)
    w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=4, cutoff=100.0)
    x = rng.normal(size=(n, 2))
    y = np.linalg.solve(np.eye(n) - rho * w.matrix,
                        0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=n))
    return make_design(y, x, w)


def noise_free_design():
    rng = np.random.default_rng(5)
    w = rook_lattice(10, 10)
    x = rng.normal(size=(100, 2))
    y = np.linalg.solve(np.eye(100) - 0.6 * w.matrix, 0.7 + x @ [-1.2, 2.0])
    return make_design(y, x, w)


def golden_design(name):
    """The design that fit() builds for a golden case."""
    designs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "optimize_rho", lambda design: designs.append(design) or 0.0)
        fit(**{**GOLDEN[name][0](), "std_errors": False})
    return designs[0]


RHO_SEARCH_DESIGNS = {
    "rook": lambda: make_design(
        *sar_instance(n_rows=5, n_cols=6, rng=np.random.default_rng(2))[:3]),
    "knn": knn_design,
    "interior_near_lower_bound": lambda: make_design(
        *sar_instance(n_rows=6, n_cols=6, rho=-0.998, rng=np.random.default_rng(3))[:3]),
    "endpoint": lambda: make_design(
        *sar_instance(n_rows=6, n_cols=6, rho=-0.9999, rng=np.random.default_rng(0))[:3]),
    "noise_free": noise_free_design,
    **{f"golden_{name}": lambda name=name: golden_design(name) for name in GOLDEN},
}


def assert_within_one_ulp(actual, expected):
    assert abs(actual - expected) <= math.ulp(expected), (actual, expected)


@pytest.mark.parametrize("name", sorted(RHO_SEARCH_DESIGNS))
def test_optimize_rho_matches_the_bisection_reference(name):
    d = RHO_SEARCH_DESIGNS[name]()
    if name == "knn":
        assert np.iscomplexobj(d.weights.eigenvalues)
    assert_within_one_ulp(optimize_rho(d), bisect_rho(d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["rook", "knn"]), n_rows=st.integers(3, 7),
       n_cols=st.integers(3, 7), rho=st.floats(-0.99, 0.99), seed=st.integers(0, 2**32 - 1))
def test_optimize_rho_matches_the_bisection_reference_on_random_designs(kind, n_rows, n_cols,
                                                                        rho, seed):
    rng = np.random.default_rng(seed)
    n = n_rows * n_cols
    if kind == "rook":
        w = rook_lattice(n_rows, n_cols)
    else:
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=4, cutoff=100.0)
    x = rng.normal(size=(n, 2))
    y = np.linalg.solve(np.eye(n) - rho * w.matrix,
                        0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=n))
    d = make_design(y, x, w)
    assert_within_one_ulp(optimize_rho(d), bisect_rho(d))


def count_scores(monkeypatch):
    """Count the score evaluations from here on, as trace calls; returns their rhos."""
    scores = []
    traces = SpatialWeights.traces

    def counted(weights, rho):
        scores.append(rho)
        return traces(weights, rho)

    monkeypatch.setattr(SpatialWeights, "traces", counted)
    return scores


@pytest.mark.parametrize("name", sorted(RHO_SEARCH_DESIGNS))
def test_optimize_rho_evaluation_budget(name, monkeypatch):
    d = RHO_SEARCH_DESIGNS[name]()
    scores, log_dets = count_scores(monkeypatch), []
    log_det_system = model.log_det_system

    def counted_log_det_system(rho, w):
        log_dets.append(rho)
        return log_det_system(rho, w)

    monkeypatch.setattr(model, "log_det_system", counted_log_det_system)
    optimize_rho(d)
    assert 1 <= len(scores) <= 12  # bisection to adjacent floats takes about 48
    assert len(log_dets) == model._RHO_GRID_POINTS + 1  # each grid point, then the root


@pytest.mark.parametrize("seed", [661, 1528])
def test_optimize_rho_gallops_where_rounding_flattens_the_score(seed, monkeypatch):
    # Near rho_hat ~ 1e-4, e_y - rho e_w does not change over a few hundred floats
    # of rho, so the computed score is flat there and Newton's step undershoots
    # its sign change; stepping one float at a time took up to 52 score evaluations.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(150, 2))
    d = make_design(0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=150), x, rook_lattice(10, 15))
    scores = count_scores(monkeypatch)
    rho_hat = optimize_rho(d)
    assert abs(rho_hat) < 1e-3
    assert len(scores) <= 20
    assert_within_one_ulp(rho_hat, bisect_rho(d))


@pytest.mark.parametrize("name", sorted(RHO_SEARCH_DESIGNS))
def test_grid_sigma2_equals_the_scalar_sigma2(name):
    design = RHO_SEARCH_DESIGNS[name]()
    grid = model.RHO_GRID
    np.testing.assert_allclose(design.sigma2(grid), [design.sigma2(r) for r in grid],
                               rtol=1e-14, atol=0)


# -- end-to-end fit -----------------------------------------------------------------------

def mixed_inputs(n_rows=5, n_cols=6, rho=0.4, seed=11):
    rng = np.random.default_rng(seed)
    n = n_rows * n_cols
    w = rook_lattice(n_rows, n_cols)
    grid = np.linspace(0, 1, 60)
    j = np.arange(1, 21)
    basis_mat = np.sqrt(2) * np.cos(np.outer(j, np.pi * grid))
    z = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, 20))
    amps = (-1.0) ** (j + 1) * j ** (-0.55)
    curves = CurveSample(grid, (z * amps) @ basis_mat)
    beta_t = 0.3 * basis_mat[0] + 4.0 * ((-1.0) ** (j[1:] + 1) * j[1:] ** (-2.0)) @ basis_mat[1:]
    comps = geometry.ilr_inv(rng.normal(size=(n, 2)))
    beta_comp = np.array([4 / 9, 2 / 9, 1 / 3])
    x = rng.normal(1.0, 0.5, size=n)
    wq = trapezoid_weights(grid)
    signal = (
        (curves.values * wq) @ beta_t
        + geometry.ilr(comps) @ geometry.ilr(beta_comp)
        + 1.0 * x
    )
    y = np.linalg.solve(np.eye(n) - rho * w.matrix, signal + 0.5 * rng.normal(size=n))
    return y, curves, comps, x, w


@pytest.mark.parametrize("rho", [np.nan, 1.0, -1.5])
def test_fit_rejects_pinned_rho_outside_unit_interval(rho):
    y, x, w, _ = sar_instance()
    message = re.escape(f"rho must satisfy |rho| < 1, got {rho}")
    with pytest.raises(ValueError, match=message):
        fit(y, scalars=x, weights=w, rho=rho)
    with pytest.raises(ValueError, match=message):  # the score, through W's traces
        make_design(y, x, w).score(rho)


def test_fit_pinned_zero_rho_reproduces_ols():
    y, curves, comps, x, w = mixed_inputs()
    res = fit(y, curves, comps, x, weights=w, rho=0.0)
    basis = fpca(curves)
    m = pve_truncate(basis.eigenvalues, 0.7)
    z = np.hstack(
        [np.ones((y.size, 1)), scores(curves, basis, m), geometry.ilr(comps), x[:, None]]
    )
    ols, *_ = np.linalg.lstsq(z, y, rcond=None)
    np.testing.assert_allclose(
        np.concatenate([[res.alpha_hat], res.b_hat, res.theta_hat, res.beta_scalar_hat]),
        ols,
        atol=1e-8,
    )
    assert res.rho_hat == 0.0


def test_fit_residual_identity_and_diagnostics():
    y, curves, comps, x, w = mixed_inputs()
    res = fit(y, curves, comps, x, weights=w)
    delta = res.delta_hat
    scores_m = res.b_hat.size
    e_check = y - res.rho_hat * (w.matrix @ y)
    # rebuild Z exactly as fit assembles it
    from mixsar.functional import fpca, scores

    basis = fpca(curves)
    z = np.hstack(
        [np.ones((y.size, 1)), scores(curves, basis, scores_m), geometry.ilr(comps), x[:, None]]
    )
    np.testing.assert_allclose(res.residuals, e_check - z @ delta, atol=1e-10)
    # reduced-form fitted values and the definitional diagnostics
    fitted = np.linalg.solve(np.eye(y.size) - res.rho_hat * w.matrix, z @ delta)
    np.testing.assert_allclose(res.fitted, fitted, atol=1e-10)
    sse = np.sum((y - fitted) ** 2)
    assert res.mse_fitted == pytest.approx(sse / y.size, rel=1e-12)
    assert res.r_squared == pytest.approx(1 - sse / np.sum((y - y.mean()) ** 2), rel=1e-12)
    assert res.sigma2_hat > 0


def test_fit_noise_free_recovers_parameters():
    rng = np.random.default_rng(5)
    n = 100
    w = rook_lattice(10, 10)
    x = rng.normal(size=(n, 2))
    delta_true = np.array([0.7, -1.2, 2.0])
    y = np.linalg.solve(np.eye(n) - 0.6 * w.matrix, delta_true[0] + x @ delta_true[1:])
    res = fit(y, scalars=x, weights=w)
    assert res.rho_hat == pytest.approx(0.6, abs=1e-4)
    np.testing.assert_allclose(
        np.concatenate([[res.alpha_hat], res.beta_scalar_hat]), delta_true, atol=1e-3
    )


def test_fit_beta_curve_lies_in_retained_span():
    y, curves, comps, x, w = mixed_inputs()
    res = fit(y, curves, comps, x, weights=w)
    from mixsar.functional import fpca

    basis = fpca(curves)
    wq = basis.quadrature_weights
    for j in range(res.n_components):
        proj = np.sum(wq * res.beta_t_hat * basis.eigenfunctions[j])
        assert proj == pytest.approx(res.b_hat[j], abs=1e-10)
    for j in range(res.n_components, res.n_components + 4):
        assert np.sum(wq * res.beta_t_hat * basis.eigenfunctions[j]) == pytest.approx(0.0, abs=1e-8)


def test_fit_permutation_equivariance():
    y, curves, comps, x, w = mixed_inputs(seed=21)
    res = fit(y, curves, comps, x, weights=w)
    perm = np.random.default_rng(0).permutation(y.size)
    res_p = fit(
        y[perm],
        CurveSample(curves.grid, curves.values[perm]),
        comps[perm],
        x[perm],
        weights=w.matrix[np.ix_(perm, perm)],
    )
    assert res_p.rho_hat == pytest.approx(res.rho_hat, abs=1e-8)
    assert res_p.sigma2_hat == pytest.approx(res.sigma2_hat, rel=1e-8)
    np.testing.assert_allclose(res_p.delta_hat, res.delta_hat, atol=1e-8)


def test_fit_blocks_optional():
    y, _, _, x, w = mixed_inputs()
    res = fit(y, scalars=x, weights=w)
    assert res.beta_t_hat is None and res.beta_comp_hat is None
    assert res.b_hat.size == 0 and res.theta_hat.size == 0
    res2 = fit(y, weights=w)
    assert res2.beta_scalar_hat.size == 0
    assert np.isfinite(res2.loglik)


def test_fit_composition_coefficient_on_simplex():
    y, curves, comps, x, w = mixed_inputs(seed=33)
    res = fit(y, curves, comps, x, weights=w)
    assert res.beta_comp_hat.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.beta_comp_hat > 0)
    np.testing.assert_allclose(geometry.ilr(res.beta_comp_hat), res.theta_hat, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e3, 3e3])
def test_fit_returns_theta_hat_when_the_composition_underflows(scale):
    """Far from unit scale, theta_hat is still the estimate; where a part of
    its composition cannot be represented, beta_comp_hat is None with a
    warning, and fit does not raise."""
    rng = np.random.default_rng(0)
    w, grid = rook_lattice(10, 15), np.linspace(0.0, 1.0, 100)
    curves = simulation.gen_functional(150, 1.1, grid, rng)
    comps = simulation.gen_composition(150, simulation.COMP_MEAN, simulation.COMP_ILR_COV, rng)
    x = rng.normal(simulation.SCALAR_MEAN, simulation.SCALAR_SD, 150)
    y = simulation.gen_response(w.matrix, 0.4, curves, simulation.true_beta_t(grid), comps,
                                simulation.TRUE_COMP_COEF, x, simulation.TRUE_SCALAR_COEF, 1.0,
                                rng)
    base = fit(y, curves, comps, x, weights=w)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit(scale * y, curves, comps, x, weights=w)
    assert res.rho_hat == pytest.approx(base.rho_hat, rel=1e-12, abs=0)
    np.testing.assert_allclose(res.theta_hat, scale * base.theta_hat, rtol=1e-10, atol=0)
    if scale == 1.0:
        assert caught == []
        np.testing.assert_allclose(geometry.ilr(res.beta_comp_hat), res.theta_hat, atol=1e-12)
    else:  # at 1e3 a part falls below 1e-300, at 3e3 one underflows to 0
        assert res.beta_comp_hat is None
        (warning,) = caught
        assert warning.category is UserWarning
        assert "beta_comp_hat is None" in str(warning.message)
        assert "theta_hat holds the estimate" in str(warning.message)


def dense_loglik(rho, delta, sigma2, design):
    """The Gaussian log-likelihood at (rho, delta, sigma2), its log-det by a dense
    slogdet of I - rho W: the oracle for full_loglik and fit's loglik."""
    y, w, z, n = design.y, design.weights.matrix, design.Z, design.n
    e = y - rho * (w @ y) - z @ delta
    return (-0.5 * n * np.log(2.0 * np.pi * sigma2) + np.linalg.slogdet(np.eye(n) - rho * w)[1]
            - (e @ e) / (2.0 * sigma2))


@pytest.mark.parametrize("kind", ["rook", "knn"])
@pytest.mark.parametrize("rho", [None, 0.6, -0.5])
def test_fit_loglik_is_full_loglik_at_the_estimates(kind, rho):
    rng = np.random.default_rng(29)
    if kind == "rook":
        y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rng=rng)
    else:
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(36, 2)), k=4, cutoff=100.0)
        x = rng.normal(size=(36, 2))
        y = np.linalg.solve(np.eye(36) - 0.4 * w.matrix,
                            0.5 + x @ [1.0, -0.7] + rng.normal(size=36))
    res = fit(y, scalars=x, weights=w, rho=rho)
    design = make_design(y, x, w)
    # sigma2 and the log-likelihood each have one home: the design's profile
    assert res.sigma2_hat == design.sigma2(res.rho_hat)
    assert res.loglik == design.loglik(res.rho_hat) - design.n * (
        0.5 * math.log(2.0 * math.pi) + 0.5 + math.log(design.scale))
    expected = dense_loglik(res.rho_hat, res.delta_hat, res.sigma2_hat, design)
    np.testing.assert_allclose(res.loglik, expected, rtol=1e-13, atol=0)
    assert math.isclose(full_loglik(res.rho_hat, res.delta_hat, res.sigma2_hat, design),
                        expected, rel_tol=1e-12)
    if rho is None:  # pinned at rho_hat, on the W whose eigenvalues the search computed
        pinned = fit(y, scalars=x, weights=w, rho=res.rho_hat)
        np.testing.assert_allclose(pinned.loglik, res.loglik, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind", ["rook", "knn"])
def test_a_pinned_fit_does_not_depend_on_what_ran_on_its_weights(kind):
    """A pinned fit on a fresh rook W and one after an estimated fit on it agree
    bit for bit: a bipartite W's log-det is always the sum over its spectrum. A
    non-bipartite W takes one LU until its eigenvalues are known, so its loglik
    agrees to rounding only; sigma2 does not involve W's log-det."""
    rng = np.random.default_rng(31)
    points = rng.uniform(0.0, 10.0, size=(100, 2))

    def weights():
        if kind == "rook":
            return rook_lattice(10, 10)
        return knn_inverse_distance(points, k=4, cutoff=100.0)

    x = rng.normal(size=(100, 2))
    y = np.linalg.solve(np.eye(100) - 0.4 * weights().matrix,
                        0.5 + x @ [1.0, -0.7] + rng.normal(size=100))
    fresh = fit(y, scalars=x, weights=weights(), rho=0.37)
    w = weights()
    fit(y, scalars=x, weights=w)
    after = fit(y, scalars=x, weights=w, rho=0.37)
    assert after.sigma2_hat == fresh.sigma2_hat
    if kind == "rook":
        assert after.loglik == fresh.loglik
    else:
        np.testing.assert_allclose(after.loglik, fresh.loglik, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wy_and_the_residual_have_one_home_in_the_design(name, monkeypatch):
    designs, products = [], []
    search = model.optimize_rho
    monkeypatch.setattr(model, "optimize_rho",
                        lambda design: designs.append(design) or search(design))
    wy = MixedDesign.wy
    counted = cached_property(lambda design: products.append(design) or wy.func(design))
    counted.__set_name__(MixedDesign, "wy")
    monkeypatch.setattr(MixedDesign, "wy", counted)
    res = fit(**GOLDEN[name][0]())
    (design,) = designs
    assert products == [design]  # W @ y is formed once per fit, Wald errors included
    rho, delta, s2 = res.rho_hat, res.delta_hat, res.sigma2_hat
    assert np.array_equal(res.residuals, design.residuals(rho, delta))

    # the Gaussian formula, bitwise, on the residual that the design forms
    y, w, z, n = design.y, design.weights.matrix, design.Z, design.n
    e = y - rho * (w @ y) - z @ delta
    gaussian = (-0.5 * n * np.log(2.0 * np.pi * s2) + log_det_system(rho, design.weights)
                - (e @ e) / (2.0 * s2))
    assert full_loglik(rho, delta, s2, design) == gaussian
    # and within rounding of a dense LU; fit takes the profile at rho_hat instead
    dense = dense_loglik(rho, delta, s2, design)
    assert math.isclose(full_loglik(rho, delta, s2, design), dense, rel_tol=1e-12)
    np.testing.assert_allclose(res.loglik, dense, rtol=1e-13, atol=0)


def test_z_is_factored_once_per_design(monkeypatch):
    """One reduced QR of Z with unit-norm columns answers the rank check and
    both least squares of the profile; no SVD of Z runs in a fit."""
    factored = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        factored.append(a)
        return qr(a, *args, **kwargs)

    def forbidden(name):
        return lambda *args, **kwargs: pytest.fail(f"np.linalg.{name} called")

    monkeypatch.setattr(np.linalg, "qr", counted)
    for name in ("matrix_rank", "lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rng=np.random.default_rng(5))
    fit(y, scalars=x, weights=w, std_errors=True)
    (scaled,) = factored
    assert scaled.shape == (30, 3)
    np.testing.assert_allclose(np.linalg.norm(scaled, axis=0), 1.0, rtol=1e-15)

    factored.clear()
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    d.delta(rho_hat), d.sigma2(rho_hat), d.loglik(rho_hat)
    assert len(factored) == 1


def count_spectra(monkeypatch):
    """Count the eigendecompositions of W from here on; returns the list of matrices."""
    calls = []
    decompose = spatial._spectrum

    def counted(w, *route):
        calls.append(w)
        return decompose(w, *route)

    monkeypatch.setattr(spatial, "_spectrum", counted)
    return calls


def test_fits_sharing_spatial_weights_match_fits_on_the_array(monkeypatch):
    shared = rook_lattice(6, 7)
    w = shared.matrix
    calls = count_spectra(monkeypatch)
    sums = []
    sums_of = spatial._sums_of
    monkeypatch.setattr(spatial, "_sums_of", lambda *args: sums.append(args) or sums_of(*args))
    for seed in (21, 22):
        y, x, _, _ = sar_instance(n_rows=6, n_cols=7, rng=np.random.default_rng(seed))
        plain = fit(y, scalars=x, weights=w, std_errors=True)
        calls.clear()
        sums.clear()
        res = fit(y, scalars=x, weights=shared, std_errors=True)
        for name in ("rho_hat", "delta_hat", "sigma2_hat", "std_errors", "p_values", "loglik",
                     "fitted", "residuals", "r_squared", "mse_fitted"):
            np.testing.assert_array_equal(getattr(res, name), getattr(plain, name), err_msg=name)
        assert res.residual_moran == plain.residual_moran
        # the first shared fit decomposes W; the second reuses its eigenvalues
        assert len(calls) == (seed == 21)
        assert sums == []  # summed for Moran's I when the object was built


@pytest.mark.parametrize("kind", ["rook", "knn"])
def test_pinned_rho_fit_computes_no_spectrum(kind, monkeypatch):
    rng = np.random.default_rng(3)
    if kind == "rook":
        w = rook_lattice(5, 6)
    else:
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(30, 2)), k=4, cutoff=100.0)
    x = rng.normal(size=(30, 2))
    y = np.linalg.solve(np.eye(30) - 0.4 * w.matrix, x @ [1.0, -0.7] + 0.5 * rng.normal(size=30))
    calls = count_spectra(monkeypatch)
    logdets, slogdet = [], np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: logdets.append(a.shape) or slogdet(a))
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    for rho in (0.4, 0.399, 0.401):
        fit(y, scalars=x, weights=w, rho=rho)
    if kind == "knn":
        assert calls == []
        assert logdets == [(30, 30)] * 3  # one LU of I - rho W per fit, for its loglik
    else:
        # the first fit's solve runs the one eigh of the (15, 15) Gram matrix, whose
        # mu give every fit's log-det: no slogdet and no eigvals of W
        assert eighs == [(15, 15)]
        assert logdets == []
    fit(y, scalars=x, weights=w, rho=0.4, std_errors=True)  # tr(G^2) needs the spectrum
    assert len(calls) == 1
    assert len(logdets) == (4 if kind == "knn" else 0)
    assert eighs == ([] if kind == "knn" else [(15, 15)])
    assert "_grid_log_dets" not in vars(w)  # no pinned rho is a grid point


@pytest.mark.parametrize("kind", ["rook", "knn"])
def test_fits_sharing_spatial_weights_build_one_grid_table(kind, monkeypatch):
    """The 201 grid log-dets are one broadcast log1p per W, which every fit
    that shares it reads; each estimated fit still asks log_det_system for
    each grid point, then the root and its own log-det at rho_hat."""
    rng = np.random.default_rng(9)
    if kind == "rook":
        w = rook_lattice(5, 6)
    else:
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(30, 2)), k=4, cutoff=100.0)
    tables, log_dets = count_grid_tables(monkeypatch), []
    log_det_system = model.log_det_system
    monkeypatch.setattr(model, "log_det_system",
                        lambda rho, weights: log_dets.append(rho) or log_det_system(rho, weights))
    for rho in (0.4, -0.2, 0.7):
        x = rng.normal(size=(30, 2))
        y = np.linalg.solve(np.eye(30) - rho * w.matrix,
                            x @ [1.0, -0.7] + 0.5 * rng.normal(size=30))
        log_dets.clear()
        fit(y, scalars=x, weights=w)
        assert len(log_dets) == model._RHO_GRID_POINTS + 2
        if rho == 0.4:
            table = w._grid_log_dets
        assert w._grid_log_dets is table
    assert tables == [(model._RHO_GRID_POINTS, 30)]


def test_a_rook_fit_runs_three_dense_steps(monkeypatch):
    """The dense linear algebra of one fit on a rook lattice: one eigh of the
    (n/2, n/2) Gram matrix, which gives the spectrum, hence the loglik's
    log-det, the profile's (k, k) triangular solve with Z's R, and the fitted
    values from products with the Gram matrix's eigenvectors. No slogdet runs,
    and no half-size system is factored."""
    y, x, w, _ = sar_instance(n_rows=10, n_cols=15, rng=np.random.default_rng(4))
    used = []

    def logged(name):
        call = getattr(np.linalg, name)

        def counted(a, *args):
            used.append((name, np.shape(a)))
            return call(a, *args)
        return counted

    for name in ("slogdet", "solve", "eigvalsh", "eigvals", "eigh", "eig", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, logged(name))
    fit(y, scalars=x, weights=w)
    assert sorted(used) == [("eigh", (75, 75)), ("solve", (3, 3))]


def test_assemble_design_takes_spatial_weights_as_they_are():
    y, x, w, _ = sar_instance()
    shared = SpatialWeights(w)
    assert assemble_design(y, scalars=x, weights=shared).weights is shared
    d = assemble_design(y, scalars=x, weights=w)
    assert isinstance(d.weights, SpatialWeights)
    np.testing.assert_array_equal(d.weights.matrix, w)
    with pytest.raises(ValueError, match="weights are 20x20 but response has 19 rows"):
        assemble_design(y[:-1], scalars=x[:-1], weights=shared)


def test_design_with_a_profile_is_freed_without_the_cyclic_collector():
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rng=np.random.default_rng(6))
    d = make_design(y, x, w)
    optimize_rho(d)
    ref = weakref.ref(d)
    del d
    assert ref() is None


# -- Wald inference --------------------------------------------------------------------------

def test_wald_std_errors_take_the_residuals_of_the_fit(monkeypatch):
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rng=np.random.default_rng(17))
    passes, residuals = [], MixedDesign.residuals

    def counted(design, rho, delta):
        passes.append(rho)
        return residuals(design, rho, delta)

    monkeypatch.setattr(MixedDesign, "residuals", counted)
    res = fit(y, scalars=x, weights=w, std_errors=True)
    assert passes == [res.rho_hat]  # the fit's own residuals, which the Wald step reuses


def test_wald_scale_invariance_of_rho_zscore():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rho=0.4, rng=np.random.default_rng(17))
    res1 = fit(y, scalars=x, weights=w, std_errors=True)
    res2 = fit(10.0 * y, scalars=x, weights=w, std_errors=True)
    assert res2.rho_hat == pytest.approx(res1.rho_hat, abs=1e-6)
    z1 = res1.rho_hat / res1.std_errors[0]
    z2 = res2.rho_hat / res2.std_errors[0]
    assert z2 == pytest.approx(z1, rel=1e-3)


def test_wald_calibration_and_size():
    """Monte Carlo check: Wald sd tracks the sampling sd of rho_hat, and the
    p-value of a truly-zero coefficient rejects at roughly nominal rate."""
    rng = np.random.default_rng(2024)
    n_rows = n_cols = 8
    w = rook_lattice(n_rows, n_cols)
    n = n_rows * n_cols
    rejections = 0
    rho_hats, wald_sds = [], []
    n_reps = 200
    for _ in range(n_reps):
        x = rng.normal(size=(n, 2))  # second column has true coefficient 0
        signal = 0.5 + 1.0 * x[:, 0]
        y = np.linalg.solve(np.eye(n) - 0.4 * w.matrix, signal + 0.5 * rng.normal(size=n))
        res = fit(y, scalars=x, weights=w, std_errors=True)
        rho_hats.append(res.rho_hat)
        wald_sds.append(res.std_errors[0])
        p_zero = res.p_values[3]  # [rho, intercept, x_1, x_2, sigma2]
        if p_zero < 0.05:
            rejections += 1
    emp_sd = np.std(rho_hats)
    mean_wald = np.mean(wald_sds)
    assert abs(emp_sd - mean_wald) / mean_wald < 0.5
    assert 0.02 <= rejections / n_reps <= 0.10


def central_difference_hessian(design, params):
    """Reference Hessian of full_loglik at [rho, *delta, sigma2] by central differences.

    Per-parameter steps are 1e-5 * max(1, |value|), clamped so that rho stays
    inside (-1, 1) and sigma2 stays positive.
    """
    k = params.size

    def f(x):
        return full_loglik(x[0], x[1:-1], x[-1], design)

    steps = 1e-5 * np.maximum(1.0, np.abs(params))
    steps[0] = min(steps[0], (1.0 - abs(params[0])) / 2.0)
    steps[-1] = min(steps[-1], params[-1] / 2.0)
    hess = np.empty((k, k))
    f0 = f(params)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = steps[i]
        hess[i, i] = (f(params + ei) - 2.0 * f0 + f(params - ei)) / steps[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(params + ei + ej) - f(params + ei - ej) - f(params - ei + ej) + f(params - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return hess


# kNN at rho=-0.9 is left out: its Hessian has condition number ~110 there, so
# the reference's rounding noise (~1e-6 per entry) moves its SEs by ~1e-4.
@pytest.mark.parametrize("kind, rho", [
    ("rook", None), ("rook", 0.95), ("rook", -0.9), ("knn", None), ("knn", 0.95),
    ("symmetric_support", None), ("symmetric_support", 0.95),
])
def test_wald_closed_form_matches_central_differences(kind, rho):
    rng = np.random.default_rng(41)
    n = 36
    if kind == "rook":
        w = rook_lattice(6, 6).matrix
    elif kind == "knn":  # asymmetric weights: tr(G^2) must not assume G symmetric
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=4, cutoff=100.0).matrix
    else:  # symmetric support, but W is not similar to a symmetric matrix
        adjacent = rook_lattice(6, 6).matrix > 0
        w = adjacent * rng.uniform(0.5, 1.5, adjacent.shape)
        w /= w.sum(axis=1, keepdims=True)
    x = rng.normal(size=(n, 2))
    y = np.linalg.solve(np.eye(n) - 0.4 * w, 0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=n))
    res = fit(y, scalars=x, weights=w, rho=rho, std_errors=True)
    params = np.concatenate([[res.rho_hat], res.delta_hat, [res.sigma2_hat]])
    hess = central_difference_hessian(make_design(y, x, w), params)
    np.testing.assert_allclose(res.std_errors, np.sqrt(np.diag(np.linalg.inv(-hess))),
                               rtol=1e-5)


def test_wald_warns_when_hessian_is_not_negative_definite():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rng=np.random.default_rng(17))
    res = fit(y, scalars=x, weights=w)
    inflated = replace(res, sigma2_hat=3 * res.sigma2_hat)
    with pytest.warns(UserWarning, match="not negative definite"):
        assert wald_std_errors(make_design(y, x, w), inflated) is None


def test_wald_warns_when_hessian_is_singular():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rng=np.random.default_rng(17))
    res = fit(y, scalars=x, weights=w)
    # an infinite sigma2 zeroes every Hessian entry but the -tr(G^2) in the corner
    with pytest.warns(UserWarning, match="Wald Hessian is singular"):
        assert wald_std_errors(make_design(y, x, w), replace(res, sigma2_hat=math.inf)) is None


# -- input checks ---------------------------------------------------------------------

def small_case():
    y, x, w, _ = sar_instance(n_rows=3, n_cols=4, q=2, rng=np.random.default_rng(8))
    return y, x, w


def rank_deficient_design():
    y, x, w = small_case()
    z = np.column_stack([np.ones(y.size), x[:, 0], x[:, 0]])
    return MixedDesign(y=y, Z=z, weights=SpatialWeights(w), column_labels=("a", "b", "c"),
                       blocks={"intercept": slice(0, 1), "scalar": slice(1, 3)})


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda y, x, w: assemble_design(np.where(np.arange(y.size) == 3, np.nan, y),
                                                 scalars=x, weights=w),
                 ValueError, "response has 1 non-finite entries, at indices [3]", id="response-non-finite"),
    pytest.param(lambda y, x, w: assemble_design(y, scalars=np.where(x > 1.0, np.inf, x),
                                                 weights=w),
                 ValueError, "scalar block has 3 non-finite entries, at (row, col) [[4, 1], [6, 1], [8, 1]]",
                 id="block-non-finite"),
    pytest.param(lambda y, x, w: assemble_design(y, scalars=x, weights=w, scalar_labels=["a"]),
                 ValueError, "scalar labels do not match the block width", id="label-count"),
    pytest.param(lambda y, x, w: rank_deficient_design().delta(0.3),
                 ValueError, "design is rank deficient at block 'scalar'", id="profile-rank"),
    pytest.param(lambda y, x, w: make_design(y, x, w).loglik(1.0),
                 ValueError, "rho must satisfy |rho| < 1, got 1.0", id="profile-rho"),
    pytest.param(lambda y, x, w: make_design(y, x, w).loglik(np.nan),
                 ValueError, "rho must satisfy |rho| < 1, got nan", id="profile-rho-nan"),
    pytest.param(lambda y, x, w: fit(y, scalars=x, weights=w, pve=0.0),
                 ValueError, "pve must be in (0, 1]", id="fit-pve"),
    pytest.param(lambda y, x, w: fit(y, np.ones((y.size, 3)), weights=w),
                 ValueError, "curves must be RawCurveObservations or CurveSample",
                 id="fit-curve-type"),
    pytest.param(lambda y, x, w: fit(np.zeros(y.size), weights=w, rho=0.3),
                 NumericalError, "residual variance degenerate at rho=0.3", id="fit-constant-y"),
])
def test_model_input_checks(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(*small_case())


def test_a_design_checks_its_rank_at_construction():
    with pytest.raises(ValueError, match=re.escape("design is rank deficient at block 'scalar'")):
        rank_deficient_design()
    y, _, w = small_case()
    with pytest.raises(ValueError, match="13 regressors for only 12 observations"):
        MixedDesign(y=y, Z=np.ones((12, 13)), weights=SpatialWeights(w),
                    column_labels=("intercept",), blocks={"intercept": slice(0, 13)})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 30),
       widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       planted=st.one_of(st.none(), st.integers(1, 9)))
def test_the_rank_decision_is_matrix_rank_on_the_column_scaled_prefixes(seed, n, widths,
                                                                        planted):
    """Per block, the decision from Z's one QR equals np.linalg.matrix_rank on
    Z's prefix with unit-norm columns: with a column planted as an exact
    combination of the ones before it, and on full-rank designs, with column
    scales from 1e-12 to 1e15."""
    k = 1 + sum(widths)
    assume(k < n)
    rng = np.random.default_rng(seed)
    z = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    if planted is not None and planted < k:
        signs = rng.choice([-1.0, 1.0], planted)
        z[:, planted] = z[:, :planted] @ (signs * rng.uniform(0.5, 2.0, planted))
    z = z * 10.0 ** rng.uniform(-12.0, 15.0, k)
    stops = np.cumsum([1, *widths]).tolist()
    blocks = {name: slice(start, stop) for name, start, stop
              in zip(("intercept", "fpc", "ilr", "scalar"), [0, *stops[:-1]], stops)}
    unit = z / np.linalg.norm(z, axis=0)
    expected = next((name for name, span in blocks.items()
                     if np.linalg.matrix_rank(unit[:, :span.stop]) < span.stop), None)
    assert (expected is None) == (planted is None or planted >= k)
    try:
        MixedDesign(y=rng.normal(size=n), Z=z, weights=rook_lattice(1, n),
                    column_labels=tuple(f"z_{j}" for j in range(k)), blocks=blocks)
        found = None
    except ValueError as exc:
        found = re.fullmatch(r"design is rank deficient at block '(\w+)'", str(exc)).group(1)
    assert found == expected


def test_a_design_checks_its_response_at_construction():
    y, _, w = small_case()

    def design(y, w):
        return MixedDesign(y=y, Z=np.ones((y.size, 1)), weights=SpatialWeights(w),
                           column_labels=("intercept",), blocks={"intercept": slice(0, 1)})

    with pytest.raises(ValueError, match=re.escape("response has 1 non-finite entries, at indices [3]")):
        design(np.where(np.arange(y.size) == 3, np.nan, y), w)
    with pytest.raises(ValueError, match=re.escape("weights are 20x20 but response has 12 rows")):
        design(y, rook_lattice(4, 5).matrix)


def test_rho_bound_has_one_definition():
    assert model.RHO_BOUND is spatial.RHO_BOUND == 0.999
    assert model.RHO_GRID is spatial.RHO_GRID
    assert model._RHO_GRID_POINTS == spatial.RHO_GRID.size == 201


# -- units and identification ---------------------------------------------------------

def units_case():
    """FPC scores and two scalars on a 10 x 15 rook lattice."""
    y, curves, _, x, w = mixed_inputs(n_rows=10, n_cols=15, seed=5)
    return y, curves, np.column_stack([x, np.random.default_rng(5).normal(size=x.size)]), w


@pytest.mark.parametrize("column", [0, 1])
def test_a_scalar_in_other_units_scales_only_its_coefficient(column):
    y, curves, x, w = units_case()
    base = fit(y, curves, scalars=x, weights=w)
    where = base.column_labels.index(f"x_{column + 1}")
    for k in [*range(-12, 16), -300, -165, 155, 300]:  # the last four square out of range
        scaled = x.copy()
        scaled[:, column] *= 10.0**k
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(y, curves, scalars=scaled, weights=w)
        assert res.rho_hat == pytest.approx(base.rho_hat, rel=1e-12, abs=0), k
        expected = base.delta_hat.copy()
        expected[where] /= 10.0**k
        np.testing.assert_allclose(res.delta_hat, expected, rtol=1e-10, atol=0, err_msg=k)


@pytest.mark.parametrize("k", [-153, -100, -54, -10, -3, 3, 10, 52, 100, 152, 153, 154])
def test_a_response_in_other_units_scales_the_estimates(k):
    y, curves, x, w = units_case()
    base = fit(y, curves, scalars=x, weights=w, std_errors=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit(y * 10.0**k, curves, scalars=x, weights=w, std_errors=True)
        plain = fit(y * 10.0**k, curves, scalars=x, weights=w)
    for name in ("rho_hat", "delta_hat", "sigma2_hat", "loglik", "fitted", "residual_moran"):
        np.testing.assert_array_equal(getattr(plain, name), getattr(res, name), err_msg=name)
    assert res.loglik == pytest.approx(base.loglik - y.size * k * math.log(10.0), rel=1e-12)
    assert res.r_squared == pytest.approx(base.r_squared, rel=1e-12)
    assert res.residual_moran.statistic == pytest.approx(base.residual_moran.statistic,
                                                         rel=1e-10)
    assert res.rho_hat == pytest.approx(base.rho_hat, rel=1e-12, abs=0)
    np.testing.assert_allclose(res.delta_hat, base.delta_hat * 10.0**k, rtol=1e-10, atol=0)
    assert res.sigma2_hat == pytest.approx(base.sigma2_hat * 10.0 ** (2 * k), rel=1e-10, abs=0)
    # the Wald SEs of rho, delta and sigma2 scale by 1, 10^k and 10^2k; the p-values stay
    units = np.concatenate([[1.0], np.full(base.delta_hat.size, 10.0**k), [10.0 ** (2 * k)]])
    np.testing.assert_allclose(res.std_errors, base.std_errors * units, rtol=1e-10, atol=0)
    np.testing.assert_allclose(res.p_values, base.p_values, rtol=1e-10, atol=0)


def units_design(y, curves, x, w):
    """The design that fit() builds from units_case() inputs, without fitting."""
    if curves is None:
        return assemble_design(y, scalars=x, weights=w)
    basis = fpca(curves)
    fpc = scores(curves, basis, pve_truncate(basis.eigenvalues, 0.7))
    return assemble_design(y, fpc, scalars=x, weights=w)


@pytest.mark.parametrize("with_curves", [True, False])
@pytest.mark.parametrize("k", [-200, -170, -165, -160, 153, 154, 200])
def test_the_profile_is_free_of_the_units_of_the_response(k, with_curves):
    y, curves, x, w = units_case()
    curves = curves if with_curves else None
    base = units_design(y, curves, x, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = units_design(y * 10.0**k, curves, x, w)
        assert optimize_rho(scaled) == pytest.approx(optimize_rho(base), rel=1e-12, abs=0)
        shift = -y.size * k * math.log(10.0)
        assert concentrated(0.3, scaled) == pytest.approx(
            concentrated(0.3, base) + shift, rel=1e-12, abs=0)


def eigenvector_scalars(w, count):
    """``count`` eigenvectors of a rook lattice's W = D^-1 A, none constant:
    W maps their span, with the intercept's, into itself."""
    root = np.sqrt((w.matrix > 0).sum(axis=1))
    vectors = np.linalg.eigh(w.matrix * root[:, None] / root[None, :])[1] / root[:, None]
    return vectors[:, -1 - count:-1]


@pytest.mark.parametrize("response", ["constant", "in_a_span_w_keeps"])
def test_rho_search_rejects_a_wy_in_the_span_of_the_regressors(response):
    w = rook_lattice(10, 15)
    if response == "constant":
        x = np.random.default_rng(9).normal(size=(150, 2))
        y = np.full(150, 2.5)
    else:
        x = eigenvector_scalars(w, 2)
        y = np.column_stack([np.ones(150), x]) @ [0.5, 3.0, -2.0]
    message = "rho is not identified: Wy lies in the span of the regressors"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(y, scalars=x, weights=w)
