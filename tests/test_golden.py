"""Golden outputs: ``fit()`` on three fixed seeds and two Monte Carlo settings
must reproduce recorded estimates.

The fit literals were recorded when Wald errors still came from a
central-difference Hessian. Estimates are compared at rtol 1e-8. Standard
errors are compared at rtol 1e-4: the recorded numeric values move by about
1.3e-5 relative when y changes by 1e-16, and the closed-form Hessian differs
from them by less.
"""

import numpy as np
import pytest

from mixsar.functional import RawCurveObservations
from mixsar.model import fit
from mixsar.simulation import (
    COMP_ILR_COV,
    COMP_MEAN,
    SCALAR_MEAN,
    SCALAR_SD,
    TRUE_COMP_COEF,
    TRUE_SCALAR_COEF,
    SimConfig,
    gen_composition,
    gen_functional,
    gen_response,
    report_csv_fields,
    run_monte_carlo,
    true_beta_t,
)
from mixsar.spatial import knn_inverse_distance, rook_lattice

ESTIMATE_RTOL = 1e-8
SE_RTOL = 1e-4
REPORT_RTOL = 1e-5


def scalar_case():
    """Two scalar covariates on a 6x7 rook lattice."""
    rng = np.random.default_rng(101)
    w = rook_lattice(6, 7)
    n = w.shape[0]
    x = rng.normal(size=(n, 2))
    signal = 0.5 + x @ np.array([1.0, -0.7])
    y = np.linalg.solve(np.eye(n) - 0.4 * w, signal + 0.5 * rng.standard_normal(n))
    return dict(y=y, scalars=x, weights=w, std_errors=True)


def mixed_case():
    """The paper's design on an 8x8 rook lattice: curves, composition, scalar."""
    rng = np.random.default_rng(202)
    w = rook_lattice(8, 8)
    n = w.shape[0]
    grid = np.linspace(0.0, 1.0, 100)
    curves = gen_functional(n, 1.1, grid, rng)
    comps = gen_composition(n, COMP_MEAN, COMP_ILR_COV, rng)
    x = rng.normal(SCALAR_MEAN, SCALAR_SD, n)
    y = gen_response(w, 0.4, curves, true_beta_t(grid), comps, TRUE_COMP_COEF, x,
                     TRUE_SCALAR_COEF, 1.0, rng)
    return dict(y=y, curves=curves, compositions=comps, scalars=x, weights=w,
                std_errors=True)


def raw_curve_case():
    """Noisy raw curves, differentiated, with asymmetric kNN weights."""
    rng = np.random.default_rng(303)
    n, n_obs = 60, 40
    w = knn_inverse_distance(rng.uniform(0.0, 10.0, size=(n, 2)), k=5, cutoff=100.0)
    times = np.sort(rng.uniform(0.0, 1.0, n_obs))
    latent = gen_functional(n, 1.1, times, rng)
    x = rng.normal(SCALAR_MEAN, SCALAR_SD, n)
    y = gen_response(w, 0.3, latent, true_beta_t(times), None, None, x, TRUE_SCALAR_COEF,
                     1.0, rng)
    raw = RawCurveObservations(times, latent.values + 0.05 * rng.standard_normal((n, n_obs)))
    return dict(y=y, curves=raw, scalars=x, weights=w, derivative=True, std_errors=True)


GOLDEN = {
    "scalar": (scalar_case, {
        "rho_hat": 0.3182187142657172,
        "delta_hat": [
            0.401893495823708, 1.0355155175074038, -0.6012723596643718
        ],
        "std_errors": [
            0.11820335112221919, 0.09460891479645893, 0.09833387309222852,
            0.08415071808429896, 0.06812769700126459
        ],
        "sigma2_hat": 0.3102906047210899,
    }),
    "mixed": (mixed_case, {
        "rho_hat": 0.2771999812657844,
        "delta_hat": [
            -0.07179593306240724, -0.2906986716385675, 0.8930547547519301,
            0.7662222354411047, 0.2644733340914511, 0.5609481989514024, -0.5207822609363694,
            0.19285095106768219, -0.5620453995122153, 0.45596043587400564,
            -0.042770562672388414, 0.7904077900857702
        ],
        "std_errors": [
            0.12743304548371598, 0.3834133146830512, 0.10682369205840389,
            0.1856837860049001, 0.22172387959240744, 0.26165909798082465,
            0.2946300590968358, 0.3205072749052097, 0.3303735206235152, 0.3509280679384831,
            0.12881671303447054, 0.14547107128840214, 0.3152175989563869, 0.1553476930319844
        ],
        "sigma2_hat": 0.8722987713787345,
    }),
    "raw_curves": (raw_curve_case, {
        "rho_hat": 0.13253704705737543,
        "delta_hat": [
            0.0963029973370035, -0.010806028369393372, 0.005997653719271893,
            0.006889600970309086, -0.007096121634000289, -0.013196985441253454,
            -0.011825868717925712, -0.012970743698565157, 1.1557046021572477
        ],
        "std_errors": [
            0.1814954848611657, 0.4432138619431316, 0.006805240408324074,
            0.007228990135296916, 0.00863956898470334, 0.009344035035627231,
            0.010116934915843853, 0.011359428464238397, 0.012653652384847232,
            0.27130943215462816, 0.1865960878995789
        ],
        "sigma2_hat": 1.020377223797878,
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fit_reproduces_golden_estimates(name):
    build, expected = GOLDEN[name]
    res = fit(**build())
    np.testing.assert_allclose(res.rho_hat, expected["rho_hat"], rtol=ESTIMATE_RTOL)
    np.testing.assert_allclose(res.delta_hat, expected["delta_hat"], rtol=ESTIMATE_RTOL)
    np.testing.assert_allclose(res.sigma2_hat, expected["sigma2_hat"], rtol=ESTIMATE_RTOL)
    np.testing.assert_allclose(res.std_errors, expected["std_errors"], rtol=SE_RTOL)


# Estimated report_csv_fields of run_monte_carlo(SimConfig(rows, cols, 0.4, 1.1, reps, seed)).
GOLDEN_REPORTS = {
    (6, 8, 6, 5): {
        "bias_rho": -0.05307240796937113, "std_rho": 0.04974536724350386,
        "bias_beta_scalar": 0.0492585356999371, "std_beta_scalar": 0.21218829236617648,
        "mean_mse_beta_t": 0.32932004993926084, "std_mse_beta_t": 0.08255885597072005,
        "sstd_comp": 0.08441804470616579,
        "bias_comp_1": 0.005602446130346717, "mean_comp_1": 0.45004689057479114,
        "bias_comp_2": -0.009139501931426347, "mean_comp_2": 0.21308272029079586,
        "bias_comp_3": 0.0035370558010796582, "mean_comp_3": 0.336870389134413,
    },
    (10, 15, 8, 21): {
        "bias_rho": -0.01777988430103472, "std_rho": 0.08284563081568888,
        "bias_beta_scalar": -0.06419106329115576, "std_beta_scalar": 0.09077845074527498,
        "mean_mse_beta_t": 0.0916374452517627, "std_mse_beta_t": 0.0235848244771248,
        "sstd_comp": 0.044552648653182744,
        "bias_comp_1": -0.006529575889338557, "mean_comp_1": 0.43791486855510586,
        "bias_comp_2": 0.0004772703585707583, "mean_comp_2": 0.22269949258079297,
        "bias_comp_3": 0.00605230553076791, "mean_comp_3": 0.3393856388641012,
    },
}


@pytest.mark.parametrize("setting", sorted(GOLDEN_REPORTS))
def test_monte_carlo_reproduces_golden_report(setting):
    """The study's report on two fixed settings, compared at rtol 1e-5.

    The literals were recorded under OpenBLAS's default thread count. Under
    ``OPENBLAS_NUM_THREADS=1`` the same reports differ by up to 4.6e-7 relative
    (1.3e-9 absolute), because threaded BLAS sums in a different order, so a
    tighter tolerance would pin the thread count rather than the estimator.
    """
    rows, cols, reps, seed = setting
    fields = report_csv_fields(run_monte_carlo(SimConfig(rows, cols, 0.4, 1.1, reps, seed)))
    assert (fields["n_rows"], fields["n_cols"], fields["n_reps"], fields["seed"]) == setting
    expected = GOLDEN_REPORTS[setting]
    np.testing.assert_allclose([fields[k] for k in expected], list(expected.values()),
                               rtol=REPORT_RTOL)
