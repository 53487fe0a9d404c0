"""Seeded Monte Carlo study of the mixed-covariate spatial lag estimator.

The synthetic benchmark draws, per spatial unit on a rook lattice:

* a functional covariate ``sum_{j<=50} a_j Z_j sqrt(2) cos(j pi t)`` with
  ``a_j = (-1)^(j+1) j^(-alpha/2)`` and ``Z_j ~ U(-sqrt 3, sqrt 3)`` (unit
  variance), so the population eigenvalues decay like ``j^-alpha``;
* a 3-part composition that is Gaussian in ilr coordinates, with mean
  (1/6, 1/3, 1/2) and ilr covariance [[2, -1.5], [-1.5, 2]];
* a scalar covariate Normal(1, 0.5).

Responses solve ``(I - rho W) y = signal + noise_scale * eps`` with the true
coefficient curve ``0.3 phi_1 + sum_{j>=2} 4 (-1)^(j+1) j^-2 phi_j``, true
compositional coefficient (4/9, 2/9, 1/3), and true scalar slope 1.

W is built once per setting, as one :class:`~mixsar.spatial.SpatialWeights`
that the replications' fits share; its eigenvalues, which give each
ln|I - rho W|, are computed before any worker starts and travel with W. Each
replication derives an independent generator from ``(seed, rep)``, so results
are bit-identical for any worker count and aggregation happens in replication
order. Reported spreads are population (ddof=0) standard deviations, which
makes a single-replication report show zeros.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry
from .functional import CurveSample, trapezoid_weights
from .model import fit
from .spatial import SpatialWeights, _matrix_of, rook_lattice, solve_system

N_SERIES_TERMS = 50
TRUE_SCALAR_COEF = 1.0
TRUE_COMP_COEF = np.array([4.0 / 9.0, 2.0 / 9.0, 1.0 / 3.0])
COMP_MEAN = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0])
COMP_ILR_COV = np.array([[2.0, -1.5], [-1.5, 2.0]])
SCALAR_MEAN = 1.0
SCALAR_SD = 0.5
MSE_POINTS = 100


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo setting: lattice, truth, replication count, seed."""

    n_rows: int
    n_cols: int
    rho_true: float
    alpha_decay: float
    n_reps: int
    seed: int
    pve: float = 0.7
    noise_scale: float = 0.5
    grid_size: int = 100

    def __post_init__(self):
        for name in ("n_rows", "n_cols", "n_reps", "seed", "grid_size"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_rows < 1 or self.n_cols < 1 or self.n_rows * self.n_cols < 2:
            raise ValueError("lattice needs at least 2 cells")
        if not -1.0 < self.rho_true < 1.0:
            raise ValueError("rho_true must be in (-1, 1)")
        if not 1.0 < self.alpha_decay < np.inf:
            raise ValueError("alpha_decay must be finite and exceed 1 "
                             "(square-summable amplitudes)")
        if not 0.0 <= self.noise_scale < np.inf:
            raise ValueError("noise_scale must be finite and non-negative")
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")
        if not 0.0 < self.pve <= 1.0:
            raise ValueError("pve must be in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")

    @property
    def n_units(self) -> int:
        return self.n_rows * self.n_cols


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated estimator performance over the replications."""

    config: SimConfig
    n_reps: int
    bias_rho: float
    std_rho: float
    bias_beta_scalar: float
    std_beta_scalar: float
    mean_mse_beta_t: float
    std_mse_beta_t: float
    comp_mean: np.ndarray    # inverse-ilr of the mean coordinate estimate
    comp_biases: np.ndarray  # parts of comp_mean minus the true composition
    sstd_comp: float         # sqrt(total ilr variance / (d-1))
    elapsed_seconds: float


def cosine_basis(grid, n_terms: int = N_SERIES_TERMS) -> np.ndarray:
    """Rows sqrt(2) cos(j pi t), j = 1..n_terms, evaluated on the grid."""
    j = np.arange(1, n_terms + 1)
    return np.sqrt(2.0) * np.cos(np.outer(j, np.pi * np.asarray(grid, dtype=float)))


def gen_functional(n: int, alpha_decay: float, grid, rng) -> CurveSample:
    """Draw n random curves from the truncated cosine expansion."""
    if alpha_decay <= 1.0:
        raise ValueError("alpha_decay must exceed 1")
    j = np.arange(1, N_SERIES_TERMS + 1)
    amps = (-1.0) ** (j + 1) * j ** (-alpha_decay / 2.0)
    z = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, N_SERIES_TERMS))
    return CurveSample(np.asarray(grid, dtype=float), (z * amps) @ cosine_basis(grid))


def true_beta_t(grid) -> np.ndarray:
    """The benchmark coefficient curve evaluated on a grid."""
    j = np.arange(1, N_SERIES_TERMS + 1)
    coefs = 4.0 * (-1.0) ** (j + 1) * j ** (-2.0)
    coefs[0] = 0.3
    return coefs @ cosine_basis(grid)


def gen_composition(n: int, mean, ilr_cov, rng) -> np.ndarray:
    """Draw compositions that are Gaussian in ilr coordinates."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(ilr_cov, dtype=float)
    if cov.shape != (mean.size - 1, mean.size - 1) or not np.allclose(cov, cov.T):
        raise ValueError("ilr covariance must be symmetric with side d-1")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("ilr covariance must be positive definite") from exc
    coords = geometry.ilr(mean) + rng.standard_normal((n, mean.size - 1)) @ chol.T
    return geometry.ilr_inv(coords)


def gen_response(weights, rho: float, curves: CurveSample | None, beta_t, comps, beta_comp,
                 scalars, beta_scalar, noise_scale: float, rng) -> np.ndarray:
    """Solve (I - rho W) y = signal + noise_scale * eps for the responses.

    The signal sums the trapezoid quadrature of each curve against the
    coefficient curve, the Aitchison inner product of each composition with
    the compositional coefficient (computed in ilr coordinates), and the
    scalar terms. Absent covariate blocks contribute nothing; the intercept
    of the generating process is zero. ``weights`` is an array or a
    :class:`~mixsar.spatial.SpatialWeights`.
    """
    n = np.shape(_matrix_of(weights))[0]
    signal = np.zeros(n)
    if curves is not None:
        if curves.n_subjects != n:
            raise ValueError("curve count does not match the weight matrix")
        wq = trapezoid_weights(curves.grid)
        signal += (curves.values * wq) @ np.asarray(beta_t, dtype=float)
    if comps is not None:
        signal += geometry.ilr(comps) @ geometry.ilr(beta_comp)
    if scalars is not None:
        signal += np.asarray(scalars, dtype=float) * float(beta_scalar)
    return solve_system(rho, weights, signal + noise_scale * rng.standard_normal(n))


def _replicate(config: SimConfig, weights: SpatialWeights, truth: tuple, rep: int) -> tuple:
    """One seeded replication on the setting's lattice: generate, fit, and score.

    ``truth`` is ``(grid, beta_grid, eval_pts, beta_eval)``: the setting's
    grid and MSE points with the true coefficient curve on each. Returns one
    flat row, ``(rho_hat, beta_scalar_hat, mse_beta_t, *theta_hat)``: the lag
    estimate, the scalar slope, the coefficient-curve MSE, then the d-1 ilr
    coordinates of the compositional coefficient.
    """
    grid, beta_grid, eval_pts, beta_eval = truth
    rng = np.random.default_rng([config.seed, rep])
    n = config.n_units

    curves = gen_functional(n, config.alpha_decay, grid, rng)
    comps = gen_composition(n, COMP_MEAN, COMP_ILR_COV, rng)
    scalars = rng.normal(SCALAR_MEAN, SCALAR_SD, size=n)
    y = gen_response(
        weights, config.rho_true, curves, beta_grid, comps, TRUE_COMP_COEF,
        scalars, TRUE_SCALAR_COEF, config.noise_scale, rng,
    )
    try:
        res = fit(y, curves, comps, scalars, weights=weights, pve=config.pve)
    except Exception as exc:
        raise RuntimeError(
            f"replication {rep} failed (sub-seed [{config.seed}, {rep}]): {exc}"
        ) from exc

    beta_hat = np.interp(eval_pts, grid, res.beta_t_hat)
    mse_beta_t = float(np.mean((beta_hat - beta_eval) ** 2))

    return (res.rho_hat, float(res.beta_scalar_hat[0]), mse_beta_t, *res.theta_hat)


def run_monte_carlo(config: SimConfig, workers: int = 1) -> SimReport:
    """Run the replications (optionally in parallel) and aggregate.

    Results are independent of ``workers``: every replication derives its
    own generator from (seed, rep) and aggregation is in replication order.
    ``workers`` must be an integer >= 1; with more than one, each worker
    process receives one contiguous block of replications.
    """
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    t0 = time.perf_counter()
    weights = SpatialWeights(rook_lattice(config.n_rows, config.n_cols))
    weights.eigenvalues  # decompose W here, once: the workers' copies carry the result
    grid = np.linspace(0.0, 1.0, config.grid_size)
    eval_pts = (np.arange(MSE_POINTS) + 0.5) / MSE_POINTS  # cell midpoints, off the cosine extrema
    truth = (grid, true_beta_t(grid), eval_pts, true_beta_t(eval_pts))
    task = partial(_replicate, config, weights, truth)
    reps = range(config.n_reps)
    if workers == 1:
        records = [task(r) for r in reps]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, config.n_reps)) as pool:
            records = list(pool.map(task, reps, chunksize=math.ceil(config.n_reps / workers)))

    rows = np.array(records)
    mean, var = rows.mean(axis=0), rows.var(axis=0)
    comp_mean = geometry.ilr_inv(mean[3:])
    return SimReport(
        config=config,
        n_reps=config.n_reps,
        bias_rho=float(mean[0] - config.rho_true),
        std_rho=float(np.sqrt(var[0])),
        bias_beta_scalar=float(mean[1] - TRUE_SCALAR_COEF),
        std_beta_scalar=float(np.sqrt(var[1])),
        mean_mse_beta_t=float(mean[2]),
        std_mse_beta_t=float(np.sqrt(var[2])),
        comp_mean=comp_mean,
        comp_biases=comp_mean - TRUE_COMP_COEF,
        sstd_comp=float(np.sqrt(var[3:].mean())),  # total ilr variance / (d-1)
        elapsed_seconds=time.perf_counter() - t0,
    )


def format_report_table(report: SimReport) -> str:
    """Aligned one-row summary table, spreads in brackets under the
    convention 'value (spread)'; one pooled simplicial std per setting."""
    cfg = report.config
    header = (
        f"{'rho':>5}  {'n':>5}  {'reps':>5}  {'bias(rho) (std)':>18}  "
        f"{'MSE beta(t) (std)':>19}  {'bias(beta) (std)':>18}  "
        f"{'bias comp_1':>12}  {'bias comp_2 (sstd)':>19}  {'bias comp_3':>12}"
    )
    b = report.comp_biases
    row = (
        f"{cfg.rho_true:>5.2f}  {cfg.n_units:>5d}  {report.n_reps:>5d}  "
        f"{report.bias_rho:>8.4f} ({report.std_rho:.3f})  "
        f"{report.mean_mse_beta_t:>9.4f} ({report.std_mse_beta_t:.3f})  "
        f"{report.bias_beta_scalar:>8.4f} ({report.std_beta_scalar:.3f})  "
        f"{b[0]:>12.4f}  {b[1]:>10.4f} ({report.sstd_comp:.4f})  {b[2]:>12.4f}"
    )
    return header + "\n" + row + "\n"


def report_csv_fields(report: SimReport) -> dict:
    """Flat column map for machine-readable emission, full precision."""
    cfg = report.config
    fields = {
        "rho_true": cfg.rho_true,
        "n_units": cfg.n_units,
        "n_rows": cfg.n_rows,
        "n_cols": cfg.n_cols,
        "alpha_decay": cfg.alpha_decay,
        "pve": cfg.pve,
        "noise_scale": cfg.noise_scale,
        "grid_size": cfg.grid_size,
        "seed": cfg.seed,
        "n_reps": report.n_reps,
        "bias_rho": report.bias_rho,
        "std_rho": report.std_rho,
        "bias_beta_scalar": report.bias_beta_scalar,
        "std_beta_scalar": report.std_beta_scalar,
        "mean_mse_beta_t": report.mean_mse_beta_t,
        "std_mse_beta_t": report.std_mse_beta_t,
        "sstd_comp": report.sstd_comp,
    }
    for i, (bias, part) in enumerate(zip(report.comp_biases, report.comp_mean), start=1):
        fields[f"bias_comp_{i}"] = bias
        fields[f"mean_comp_{i}"] = part
    return fields
