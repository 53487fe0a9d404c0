"""Design assembly, concentrated likelihood, rho optimization, full fits, Wald."""

import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN

from mixsar import geometry, model, spatial
from mixsar.errors import NumericalError
from mixsar.functional import CurveSample, trapezoid_weights
from mixsar.model import (
    MixedDesign,
    assemble_design,
    concentrated_loglik,
    delta_hat,
    fit,
    full_loglik,
    optimize_rho,
    sigma2_hat,
    wald_std_errors,
)
from mixsar.spatial import SpatialWeights, knn_inverse_distance, rook_lattice

RNG = np.random.default_rng(1234)


def sar_instance(n_rows=4, n_cols=5, rho=0.4, q=2, noise=0.5, rng=RNG, subtract=0):
    """Scalar-covariate SAR draw: returns (y, X, W, delta_true)."""
    w = rook_lattice(n_rows, n_cols)
    n = n_rows * n_cols - subtract
    w = w[:n, :n]
    if subtract:
        from mixsar.spatial import row_normalize

        w = row_normalize(w)
    x = rng.normal(size=(n, q))
    delta = np.concatenate([[0.5], rng.normal(size=q)])
    signal = delta[0] + x @ delta[1:]
    y = np.linalg.solve(np.eye(n) - rho * w, signal + noise * rng.normal(size=n))
    return y, x, w, delta


def make_design(y, x, w):
    return assemble_design(y, scalars=x, weights=w)


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
    np.testing.assert_allclose(delta_hat(0.0, d), ols, atol=1e-12)


def test_delta_hat_exact_recovery_noise_free():
    y, x, w, delta_true = sar_instance(rho=0.3, noise=0.0)
    d = make_design(y, x, w)
    np.testing.assert_allclose(delta_hat(0.3, d), delta_true, atol=1e-10)
    assert sigma2_hat(0.3, d) == pytest.approx(0.0, abs=1e-16 * np.abs(y).max())


def test_delta_hat_matches_normal_equations():
    for _ in range(5):
        y, x, w, _ = sar_instance(rng=RNG)
        d = make_design(y, x, w)
        for rho in (-0.7, 0.0, 0.55):
            target = (np.eye(d.n) - rho * w) @ y
            oracle = np.linalg.inv(d.Z.T @ d.Z) @ d.Z.T @ target
            np.testing.assert_allclose(delta_hat(rho, d), oracle, atol=1e-8)


def test_sigma2_hat_matches_direct_residuals():
    y, x, w, _ = sar_instance()
    d = make_design(y, x, w)
    rho = 0.25
    e = y - rho * (w @ y) - d.Z @ delta_hat(rho, d)
    assert sigma2_hat(rho, d) == pytest.approx(float(e @ e) / d.n, abs=1e-14)


# -- likelihoods ----------------------------------------------------------------------

def test_profile_identity_constant_offset():
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6)
    d = make_design(y, x, w)
    n = d.n
    expected = -0.5 * n * (np.log(2 * np.pi) + 1.0)
    for rho in np.linspace(-0.9, 0.9, 10):
        gap = full_loglik(rho, delta_hat(rho, d), sigma2_hat(rho, d), d) - concentrated_loglik(rho, d)
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
    delta = delta_hat(rho, d)
    a = np.eye(d.n) - rho * w
    mean = np.linalg.solve(a, d.Z @ delta)
    cov = sigma2 * np.linalg.inv(a.T @ a)
    oracle = scipy.stats.multivariate_normal(mean=mean, cov=cov).logpdf(y)
    assert full_loglik(rho, delta, sigma2, d) == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("sigma2", [np.nan, 0.0, -1.0])
def test_full_loglik_rejects_non_positive_sigma2(sigma2):
    y, x, w, _ = sar_instance()
    d = make_design(y, x, w)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        full_loglik(0.3, delta_hat(0.3, d), sigma2, d)


def test_maximized_loglik_dominates_grid():
    y, x, w, _ = sar_instance(rho=0.5)
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    best = full_loglik(rho_hat, delta_hat(rho_hat, d), sigma2_hat(rho_hat, d), d)
    for rho in np.linspace(-0.95, 0.95, 20):
        val = full_loglik(rho, delta_hat(rho, d), sigma2_hat(rho, d), d)
        assert best >= val - 1e-9


def test_concentrated_loglik_degenerate_exact_fit():
    w = rook_lattice(2, 3)
    y = np.zeros(6)  # exact fit at every rho: residual variance is literally 0
    d = assemble_design(y, weights=w)
    with pytest.raises(NumericalError):
        concentrated_loglik(0.2, d)
    with pytest.raises(NumericalError):
        optimize_rho(d)


# -- rho optimization -------------------------------------------------------------------

def test_optimize_rho_agrees_with_grid_oracle():
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rho=0.4, rng=rng)
        d = make_design(y, x, w)
        rho_hat = optimize_rho(d)
        grid = np.arange(-0.999, 0.9991, 0.001)
        vals = [concentrated_loglik(r, d) for r in grid]
        assert abs(rho_hat - grid[int(np.argmax(vals))]) < 0.002


def test_optimize_rho_zero_truth_unbiased_ballpark():
    rng = np.random.default_rng(7)
    y, x, w, _ = sar_instance(n_rows=10, n_cols=15, rho=0.0, rng=rng)
    d = make_design(y, x, w)
    assert abs(optimize_rho(d)) < 3 * 0.056


def dense_profile(rho, design):
    """The full log-likelihood at rho with delta and sigma2 profiled out; its
    log-determinant is the dense one."""
    return full_loglik(rho, delta_hat(rho, design), sigma2_hat(rho, design), design)


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
    grid = np.linspace(-model.RHO_BOUND, model.RHO_BOUND, model._RHO_GRID_POINTS)
    best = grid[int(np.argmax([concentrated_loglik(r, d) for r in grid]))]
    # a score that reads negative everywhere drives the bisection to the bracket's left end
    monkeypatch.setattr(model, "_trace_g", lambda weights, rho, power: np.inf)
    assert optimize_rho(d) == best


def test_optimize_rho_finds_an_interior_optimum_near_the_lower_bound():
    y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rho=-0.998, rng=np.random.default_rng(3))
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    assert -model.RHO_BOUND < rho_hat < -0.998  # inside the grid's first bracket
    best = dense_profile(rho_hat, d)
    for rho in [*np.linspace(-model.RHO_BOUND, -0.98, 401), rho_hat - 1e-7, rho_hat + 1e-7]:
        assert best >= dense_profile(rho, d)


def bisect_rho(design):
    """Reference: the rho search before safeguarded Newton. The same grid, then
    bisection on the sign of the score times sigma2(rho) to adjacent floats."""
    profile = design._profile

    def objective(rho):
        try:
            return profile.loglik(rho)
        except NumericalError:
            return -np.inf

    grid = np.linspace(-model.RHO_BOUND, model.RHO_BOUND, model._RHO_GRID_POINTS)
    vals = np.array([objective(r) for r in grid])
    best = int(np.argmax(vals))
    lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        e = profile.residuals(mid)
        trace = model._trace_g(profile.weights, mid, 1)
        ascends = e @ profile.e_w - profile.sigma2(mid) * trace > 0
        lo, hi = (mid, hi) if ascends else (lo, mid)
        mid = 0.5 * (lo + hi)
    return float(grid[best]) if objective(mid) < vals[best] else mid


def knn_design(n=40, rho=0.5, seed=4):
    """Asymmetric kNN weights, whose spectrum is complex."""
    rng = np.random.default_rng(seed)
    w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=4, cutoff=100.0)
    x = rng.normal(size=(n, 2))
    y = np.linalg.solve(np.eye(n) - rho * w, 0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=n))
    return make_design(y, x, w)


def noise_free_design():
    rng = np.random.default_rng(5)
    w = rook_lattice(10, 10)
    x = rng.normal(size=(100, 2))
    y = np.linalg.solve(np.eye(100) - 0.6 * w, 0.7 + x @ [-1.2, 2.0])
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
    y = np.linalg.solve(np.eye(n) - rho * w, 0.5 + x @ [1.0, -0.7] + 0.5 * rng.normal(size=n))
    d = make_design(y, x, w)
    assert_within_one_ulp(optimize_rho(d), bisect_rho(d))


def count_scores(monkeypatch):
    """Count the score evaluations from here on, as tr G calls; returns their rhos."""
    scores = []
    trace_g = model._trace_g

    def counted(weights, rho, power):
        if power == 1:
            scores.append(rho)
        return trace_g(weights, rho, power)

    monkeypatch.setattr(model, "_trace_g", counted)
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
    profile = RHO_SEARCH_DESIGNS[name]()._profile
    grid = np.linspace(-model.RHO_BOUND, model.RHO_BOUND, model._RHO_GRID_POINTS)
    np.testing.assert_allclose(profile.sigma2(grid), [profile.sigma2(r) for r in grid],
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
    y = np.linalg.solve(np.eye(n) - rho * w, signal + 0.5 * rng.normal(size=n))
    return y, curves, comps, x, w


@pytest.mark.parametrize("rho", [np.nan, 1.0, -1.5])
def test_fit_rejects_pinned_rho_outside_unit_interval(rho):
    y, x, w, _ = sar_instance()
    with pytest.raises(ValueError, match="pinned rho"):
        fit(y, scalars=x, weights=w, rho=rho)


def test_fit_pinned_zero_rho_reproduces_ols():
    y, curves, comps, x, w = mixed_inputs()
    res = fit(y, curves, comps, x, weights=w, rho=0.0)
    from mixsar.functional import fpca, pve_truncate, scores

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
    e_check = y - res.rho_hat * (w @ y)
    # rebuild Z exactly as fit assembles it
    from mixsar.functional import fpca, scores

    basis = fpca(curves)
    z = np.hstack(
        [np.ones((y.size, 1)), scores(curves, basis, scores_m), geometry.ilr(comps), x[:, None]]
    )
    np.testing.assert_allclose(res.residuals, e_check - z @ delta, atol=1e-10)
    # reduced-form fitted values and the definitional diagnostics
    fitted = np.linalg.solve(np.eye(y.size) - res.rho_hat * w, z @ delta)
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
    y = np.linalg.solve(np.eye(n) - 0.6 * w, delta_true[0] + x @ delta_true[1:])
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
        weights=w[np.ix_(perm, perm)],
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


@pytest.mark.parametrize("kind", ["rook", "knn"])
@pytest.mark.parametrize("rho", [None, 0.6, -0.5])
def test_fit_loglik_is_full_loglik_at_the_estimates(kind, rho):
    rng = np.random.default_rng(29)
    if kind == "rook":
        y, x, w, _ = sar_instance(n_rows=6, n_cols=6, rng=rng)
    else:
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(36, 2)), k=4, cutoff=100.0)
        x = rng.normal(size=(36, 2))
        y = np.linalg.solve(np.eye(36) - 0.4 * w, 0.5 + x @ [1.0, -0.7] + rng.normal(size=36))
    res = fit(y, scalars=x, weights=w, rho=rho)
    expected = full_loglik(res.rho_hat, res.delta_hat, res.sigma2_hat, make_design(y, x, w))
    np.testing.assert_allclose(res.loglik, expected, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wy_and_the_residual_have_one_home_in_the_design(name, monkeypatch):
    designs = []
    search = model.optimize_rho
    monkeypatch.setattr(model, "optimize_rho",
                        lambda design: designs.append(design) or search(design))
    res = fit(**GOLDEN[name][0]())
    (design,) = designs
    assert design.wy is design._profile.wy
    rho, delta, s2 = res.rho_hat, res.delta_hat, res.sigma2_hat
    assert np.array_equal(res.residuals, design.residuals(rho, delta))

    y, w, z, n = design.y, design.W, design.Z, design.n
    e = y - rho * (w @ y) - z @ delta
    gaussian = (-0.5 * n * np.log(2.0 * np.pi * s2) + np.linalg.slogdet(np.eye(n) - rho * w)[1]
                - (e @ e) / (2.0 * s2))
    assert full_loglik(rho, delta, s2, design) == gaussian == res.loglik


def test_least_squares_run_once_per_target_per_design(monkeypatch):
    calls = []
    solve_ls = model._solve_ls

    def counted(z, target):
        calls.append(target)
        return solve_ls(z, target)

    monkeypatch.setattr(model, "_solve_ls", counted)
    y, x, w, _ = sar_instance(n_rows=5, n_cols=6, rng=np.random.default_rng(5))
    fit(y, scalars=x, weights=w, std_errors=True)
    assert len(calls) == 2  # y and Wy on Z

    calls.clear()
    d = make_design(y, x, w)
    rho_hat = optimize_rho(d)
    for view in (delta_hat, sigma2_hat, concentrated_loglik):
        view(rho_hat, d)
    assert len(calls) == 2


def count_spectra(monkeypatch):
    """Count the eigendecompositions of W from here on; returns the list of matrices."""
    calls = []
    decompose = spatial._spectrum

    def counted(w):
        calls.append(w)
        return decompose(w)

    monkeypatch.setattr(spatial, "_spectrum", counted)
    return calls


def test_fits_sharing_spatial_weights_match_fits_on_the_array(monkeypatch):
    w = rook_lattice(6, 7)
    shared = SpatialWeights(w)
    calls = count_spectra(monkeypatch)
    sums = []
    sums_of = spatial._sums_of
    monkeypatch.setattr(spatial, "_sums_of", lambda w: sums.append(w) or sums_of(w))
    for seed in (21, 22):
        y, x, _, _ = sar_instance(n_rows=6, n_cols=7, rng=np.random.default_rng(seed))
        plain = fit(y, scalars=x, weights=w, std_errors=True)
        calls.clear()
        sums.clear()
        res = fit(y, scalars=x, weights=shared, std_errors=True)
        for name in ("rho_hat", "delta_hat", "sigma2_hat", "std_errors", "loglik", "fitted"):
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
    y = np.linalg.solve(np.eye(30) - 0.4 * w, x @ [1.0, -0.7] + 0.5 * rng.normal(size=30))
    calls = count_spectra(monkeypatch)
    for rho in (0.4, 0.399, 0.401):
        fit(y, scalars=x, weights=w, rho=rho)
    assert calls == []
    fit(y, scalars=x, weights=w, rho=0.4, std_errors=True)  # tr(G^2) needs the spectrum
    assert len(calls) == 1


def test_assemble_design_takes_spatial_weights_as_they_are():
    y, x, w, _ = sar_instance()
    shared = SpatialWeights(w)
    assert assemble_design(y, scalars=x, weights=shared).weights is shared
    d = assemble_design(y, scalars=x, weights=w)
    assert isinstance(d.weights, SpatialWeights) and d.W is d.weights.matrix
    np.testing.assert_array_equal(d.W, w)
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
        y = np.linalg.solve(np.eye(n) - 0.4 * w, signal + 0.5 * rng.normal(size=n))
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
        w = rook_lattice(6, 6)
    elif kind == "knn":  # asymmetric weights: tr(G^2) must not assume G symmetric
        w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=4, cutoff=100.0)
    else:  # symmetric support, but W is not similar to a symmetric matrix
        adjacent = rook_lattice(6, 6) > 0
        w = spatial.row_normalize(adjacent * rng.uniform(0.5, 1.5, adjacent.shape))
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
                 ValueError, "response contains non-finite values", id="response-non-finite"),
    pytest.param(lambda y, x, w: assemble_design(y, scalars=np.where(x > 1.0, np.inf, x),
                                                 weights=w),
                 ValueError, "scalar block contains non-finite values", id="block-non-finite"),
    pytest.param(lambda y, x, w: assemble_design(y, scalars=x, weights=w, scalar_labels=["a"]),
                 ValueError, "scalar labels do not match the block width", id="label-count"),
    pytest.param(lambda y, x, w: delta_hat(0.3, rank_deficient_design()),
                 ValueError, "design matrix is rank deficient", id="profile-rank"),
    pytest.param(lambda y, x, w: sigma2_hat(1.0, make_design(y, x, w)),
                 ValueError, "rho must satisfy |rho| < 1, got 1.0", id="profile-rho"),
    pytest.param(lambda y, x, w: fit(y, scalars=x, weights=w, pve=0.0),
                 ValueError, "pve must be in (0, 1]", id="fit-pve"),
    pytest.param(lambda y, x, w: fit(y, np.ones((y.size, 3)), weights=w),
                 ValueError, "curves must be RawCurveObservations or CurveSample",
                 id="fit-curve-type"),
    pytest.param(lambda y, x, w: fit(np.zeros(y.size), weights=w, rho=0.3),
                 NumericalError, "exact fit: residual variance is zero", id="fit-constant-y"),
])
def test_model_input_checks(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build(*small_case())
