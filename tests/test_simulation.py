"""Synthetic data generators and the Monte Carlo driver."""

import math
import multiprocessing
import os

import numpy as np
import pytest

from mixsar import geometry, model, simulation, spatial
from mixsar.errors import NumericalError
from mixsar.functional import trapezoid_weights
from mixsar.simulation import (
    COMP_ILR_COV,
    COMP_MEAN,
    TRUE_COMP_COEF,
    SimConfig,
    SimReport,
    cosine_basis,
    format_report_table,
    gen_composition,
    gen_functional,
    gen_response,
    report_csv_fields,
    run_monte_carlo,
    true_beta_t,
)
from mixsar.spatial import rook_lattice

RNG = np.random.default_rng(314)


class _ZeroRng:
    """Degenerate generator: every uniform draw is 0."""

    def uniform(self, low, high, size=None):
        return np.zeros(size)


# -- functional covariate generator ------------------------------------------------

def test_gen_functional_zero_draws_give_zero_curves():
    grid = np.linspace(0, 1, 50)
    sample = gen_functional(7, 1.1, grid, _ZeroRng())
    np.testing.assert_allclose(sample.values, 0.0)


def test_gen_functional_integrated_variance():
    grid = np.linspace(0, 1, 100)
    sample = gen_functional(2000, 2.0, grid, np.random.default_rng(1))
    pointwise_var = sample.values.var(axis=0)
    integrated = float(np.sum(trapezoid_weights(grid) * pointwise_var))
    assert integrated == pytest.approx(math.pi**2 / 6.0, rel=0.05)


def test_gen_functional_leading_score_variance():
    grid = np.linspace(0, 1, 200)
    sample = gen_functional(1000, 1.1, grid, np.random.default_rng(2))
    w = trapezoid_weights(grid)
    phi1 = np.sqrt(2) * np.cos(np.pi * grid)
    score1 = (sample.values * w) @ phi1
    assert np.var(score1) == pytest.approx(1.0, rel=0.1)


def test_gen_functional_rejects_non_summable_decay():
    with pytest.raises(ValueError):
        gen_functional(5, 1.0, np.linspace(0, 1, 10), RNG)


# -- true coefficient curve ---------------------------------------------------------

def test_true_beta_t_leading_projections():
    grid = np.linspace(0, 1, 4001)
    w = trapezoid_weights(grid)
    beta = true_beta_t(grid)
    basis = cosine_basis(grid, 3)
    assert float(np.sum(w * beta * basis[0])) == pytest.approx(0.3, abs=1e-3)
    assert float(np.sum(w * beta * basis[1])) == pytest.approx(-1.0, abs=1e-3)
    assert float(np.sum(w * beta * basis[2])) == pytest.approx(4.0 / 9.0, abs=1e-3)


def test_true_beta_t_squared_norm_parseval():
    # independent scalar summation of the coefficient series
    expected = 0.3**2 + sum((4.0 * (-1.0) ** (j + 1) / j**2) ** 2 for j in range(2, 51))
    grid = np.linspace(0, 1, 4001)
    quad = float(np.sum(trapezoid_weights(grid) * true_beta_t(grid) ** 2))
    assert quad == pytest.approx(expected, rel=1e-3)


# -- compositional covariate generator ------------------------------------------------

def test_gen_composition_degenerate_covariance_collapses_to_mean():
    comps = gen_composition(40, COMP_MEAN, 1e-12 * np.eye(2), RNG)
    np.testing.assert_allclose(comps, np.broadcast_to(COMP_MEAN, comps.shape), atol=1e-4)


def test_gen_composition_moments():
    comps = gen_composition(5000, COMP_MEAN, COMP_ILR_COV, np.random.default_rng(9))
    coords = geometry.ilr(comps)
    cov = np.cov(coords.T)
    np.testing.assert_allclose(cov, COMP_ILR_COV, rtol=0.1)
    se = np.sqrt(np.diag(COMP_ILR_COV) / 5000)
    np.testing.assert_array_less(np.abs(coords.mean(axis=0) - geometry.ilr(COMP_MEAN)), 3 * se)


def test_gen_composition_rejects_bad_covariance():
    with pytest.raises(ValueError):
        gen_composition(5, COMP_MEAN, np.array([[1.0, 2.0], [2.0, 1.0]]), RNG)  # not PD
    with pytest.raises(ValueError):
        gen_composition(5, COMP_MEAN, np.array([[1.0, 0.5], [0.4, 1.0]]), RNG)  # asymmetric


# -- response generator -----------------------------------------------------------------

class _ZeroNormalRng:
    def standard_normal(self, size=None):
        return np.zeros(size)


def test_gen_response_zero_rho_zero_noise_is_signal():
    n = 12
    w = rook_lattice(3, 4)
    grid = np.linspace(0, 1, 60)
    curves = gen_functional(n, 1.1, grid, np.random.default_rng(3))
    comps = gen_composition(n, COMP_MEAN, COMP_ILR_COV, np.random.default_rng(4))
    scalars = np.linspace(-1, 1, n)
    beta_t = true_beta_t(grid)
    y = gen_response(w, 0.0, curves, beta_t, comps, TRUE_COMP_COEF, scalars, 1.0, 0.0, _ZeroNormalRng())
    wq = trapezoid_weights(grid)
    expected = (
        (curves.values * wq) @ beta_t
        + geometry.ilr(comps) @ geometry.ilr(TRUE_COMP_COEF)
        + scalars
    )
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_gen_response_four_unit_direct_solve():
    w = rook_lattice(2, 2)
    scalars = np.array([1.0, 2.0, -1.0, 0.5])
    y = gen_response(w, 0.6, None, None, None, None, scalars, 2.0, 0.0, _ZeroNormalRng())
    oracle = np.linalg.inv(np.eye(4) - 0.6 * w) @ (2.0 * scalars)
    np.testing.assert_allclose(y, oracle, atol=1e-12)


def test_gen_response_spatial_multiplier_inflates_variance():
    n = 100
    w = rook_lattice(10, 10)
    scalars = np.zeros(n)
    y0 = gen_response(w, 0.0, None, None, None, None, scalars, 0.0, 1.0, np.random.default_rng(5))
    y8 = gen_response(w, 0.8, None, None, None, None, scalars, 0.0, 1.0, np.random.default_rng(5))
    assert np.var(y8) > np.var(y0)


def test_gen_response_singular_system_is_a_numerical_error():
    w = np.array([[0.0, 2.0], [2.0, 0.0]])  # I - 0.5 W is singular
    with pytest.raises(NumericalError, match="singular"):
        gen_response(w, 0.5, None, None, None, None, np.ones(2), 1.0, 0.0, _ZeroNormalRng())


def test_gen_response_names_non_finite_weights():
    w = np.array([[0.0, np.inf], [np.inf, 0.0]])  # the solve alone returns [-0, -0]
    with pytest.raises(ValueError,
                       match=r"2 non-finite entries, at \(row, col\) \[\[0, 1\], \[1, 0\]\]$"):
        gen_response(w, 0.5, None, None, None, None, np.ones(2), 1.0, 0.0, _ZeroNormalRng())


# -- Monte Carlo driver --------------------------------------------------------------------

def test_monte_carlo_reuses_log_dets_across_replications(monkeypatch):
    """W is built once per setting, so later fits reuse the grid's log-determinants."""
    per_fit, rhos = [], []
    dense = spatial.log_det_system

    def counted(rho, w):
        rhos.append(float(rho))
        return dense(rho, w)

    def counted_fit(*args, **kwargs):
        before = len(rhos)
        res = model.fit(*args, **kwargs)
        per_fit.append(rhos[before:])
        return res

    # the memo's misses and full_loglik's direct call both count
    monkeypatch.setattr(spatial, "log_det_system", counted)
    monkeypatch.setattr(model, "log_det_system", counted)
    monkeypatch.setattr(simulation, "fit", counted_fit)
    run_monte_carlo(SimConfig(n_rows=4, n_cols=5, rho_true=0.4, alpha_decay=1.1, n_reps=3,
                              seed=11))
    assert len(per_fit) == 3
    grid = np.linspace(-model.RHO_BOUND, model.RHO_BOUND, model._RHO_GRID_POINTS)
    assert set(grid.tolist()) <= set(per_fit[0])
    assert all(len(calls) < model._RHO_GRID_POINTS for calls in per_fit[1:])
    assert not set(grid.tolist()) & set(per_fit[1] + per_fit[2])


def test_single_replication_report_has_zero_spreads():
    cfg = SimConfig(n_rows=5, n_cols=6, rho_true=0.4, alpha_decay=1.1, n_reps=1, seed=3)
    rep = run_monte_carlo(cfg)
    assert rep.n_reps == 1
    assert rep.std_rho == 0.0
    assert rep.std_beta_scalar == 0.0
    assert rep.std_mse_beta_t == 0.0
    assert rep.sstd_comp == 0.0
    assert np.isfinite(rep.bias_rho)


def test_monte_carlo_deterministic_across_runs_and_workers():
    # 5 reps split unevenly over 2 and 3 workers (a numpy integer counts), and
    # over more workers than reps
    cfg = SimConfig(n_rows=5, n_cols=6, rho_true=0.4, alpha_decay=1.1, n_reps=5, seed=11)

    def fields(workers):
        return {k: repr(v) for k, v in report_csv_fields(run_monte_carlo(cfg, workers)).items()}

    serial = fields(1)
    for workers in (1, 2, np.int64(3), cfg.n_reps + 2):
        assert fields(workers) == serial


@pytest.mark.parametrize("workers", [0, -3, 2.5, 1.0, "2", None])
def test_run_monte_carlo_rejects_bad_workers(workers):
    cfg = SimConfig(n_rows=4, n_cols=5, rho_true=0.4, alpha_decay=1.1, n_reps=2, seed=1)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_monte_carlo(cfg, workers=workers)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched log_det_system only when forked")
def test_monte_carlo_builds_grid_once_per_worker(monkeypatch, tmp_path):
    """Each worker receives one block of replications, so one SpatialWeights."""
    log = tmp_path / "log_dets.txt"
    dense = spatial.log_det_system

    def logged(rho, w):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {float(rho)!r}\n")
        return dense(rho, w)

    monkeypatch.setattr(spatial, "log_det_system", logged)
    run_monte_carlo(SimConfig(n_rows=4, n_cols=5, rho_true=0.4, alpha_decay=1.1, n_reps=8,
                              seed=11), workers=2)
    calls = [(int(pid), float(rho)) for pid, rho in map(str.split, log.read_text().splitlines())]
    grid = set(np.linspace(-model.RHO_BOUND, model.RHO_BOUND, model._RHO_GRID_POINTS).tolist())
    on_grid = [call for call in calls if call[1] in grid]
    pids = {pid for pid, _ in calls}
    assert os.getpid() not in pids
    assert len(on_grid) == len(set(on_grid)) == len(grid) * len(pids)


def test_component_biases_sum_to_zero():
    cfg = SimConfig(n_rows=5, n_cols=6, rho_true=0.0, alpha_decay=2.0, n_reps=4, seed=8)
    rep = run_monte_carlo(cfg)
    assert abs(rep.comp_biases.sum()) < 1e-10
    assert rep.comp_mean.sum() == pytest.approx(1.0, abs=1e-12)


def test_replication_failure_names_rep_and_subseed():
    # 2 units cannot support the full design: the wrapped error must point at
    # the replication and its derived seed, in the serial and the pool path
    for workers, n_reps in ((1, 1), (2, 2)):
        cfg = SimConfig(n_rows=1, n_cols=2, rho_true=0.4, alpha_decay=1.1, n_reps=n_reps,
                        seed=123)
        with pytest.raises(RuntimeError, match=r"replication 0 .*\[123, 0\]"):
            run_monte_carlo(cfg, workers=workers)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(10, 15, 1.0, 1.1, 10, 1)
    with pytest.raises(ValueError):
        SimConfig(10, 15, 0.4, 1.1, 0, 1)
    with pytest.raises(ValueError):
        SimConfig(10, 15, 0.4, 0.9, 10, 1)
    with pytest.raises(ValueError):
        SimConfig(10, 15, 0.4, 1.1, 10, 1, pve=1.2)
    with pytest.raises(ValueError):
        SimConfig(10, 15, 0.4, 1.1, 10, -1)


def test_report_emission_shapes():
    cfg = SimConfig(n_rows=4, n_cols=5, rho_true=0.4, alpha_decay=2.0, n_reps=2, seed=5)
    rep = run_monte_carlo(cfg)
    table = format_report_table(rep)
    lines = table.strip().split("\n")
    assert len(lines) == 2
    assert "bias(rho)" in lines[0]
    fields = report_csv_fields(rep)
    assert fields["n_units"] == 20
    assert fields["n_reps"] == 2
    assert set(fields) >= {"bias_rho", "std_rho", "mean_mse_beta_t", "sstd_comp", "bias_comp_3"}
