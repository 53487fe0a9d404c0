"""Golden outputs: ``fit()`` on three fixed seeds and two Monte Carlo settings
must reproduce recorded estimates.

The fit literals were recorded with rho_hat the root of the profile score,
found by bisection to adjacent floats, and the closed-form Wald Hessian.
``test_golden_rho_is_the_root_of_the_dense_score`` checks each recorded rho_hat
against an independent bisection on the score built from dense solves.
Estimates are compared at rtol 1e-8 and standard errors at rtol 1e-4, which
leave room for another BLAS or LAPACK build.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mixsar
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
    y = np.linalg.solve(np.eye(n) - 0.4 * w.matrix, signal + 0.5 * rng.standard_normal(n))
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
    y = gen_response(w.matrix, 0.4, curves, true_beta_t(grid), comps, TRUE_COMP_COEF, x,
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
    y = gen_response(w.matrix, 0.3, latent, true_beta_t(times), None, None, x, TRUE_SCALAR_COEF,
                     1.0, rng)
    raw = RawCurveObservations(times, latent.values + 0.05 * rng.standard_normal((n, n_obs)))
    return dict(y=y, curves=raw, scalars=x, weights=w, derivative=True, std_errors=True)


GOLDEN = {
    "scalar": (scalar_case, {
        "rho_hat": 0.31821871539067614,
        "delta_hat": [
            0.40189349551531506, 1.035515517344974, -0.6012723595224666
        ],
        "std_errors": [
            0.11820333227464326, 0.09460891968067034, 0.09833387685303216,
            0.0841507098428134, 0.06812769603115876
        ],
        "sigma2_hat": 0.31029060464948405,
    }),
    "mixed": (mixed_case, {
        "rho_hat": 0.27719999142565177,
        "delta_hat": [
            -0.07179593718271056, -0.2906986710554942, 0.8930547517630304,
            0.7662222344411943, 0.26447333324311034, 0.5609481987444493,
            -0.5207822617430928, 0.19285095080246176, -0.562045394206474,
            0.45596043779584317, -0.04277056081676264, 0.7904077926078665
        ],
        "std_errors": [
            0.12743313975505627, 0.38341831967414314, 0.10682369695330347,
            0.18568392799548755, 0.2217240473749023, 0.2616594916204783,
            0.2946329988049739, 0.32050642158250564, 0.33037327324190907,
            0.3509337186676716, 0.1288170133746787, 0.14547112309364338,
            0.31522101292752275, 0.15534768428755658
        ],
        "sigma2_hat": 0.8722987698773719,
    }),
    "raw_curves": (raw_curve_case, {
        "rho_hat": 0.13253705216805767,
        "delta_hat": [
            0.09630298820457364, -0.010806028369971563, 0.005997653726621203,
            0.006889601000098239, -0.0070961215788739405, -0.013196985410977368,
            -0.01182586863690871, -0.012970743706849324, 1.1557046034150653
        ],
        "std_errors": [
            0.18149589679507755, 0.44321578692652447, 0.006805240565857502,
            0.007228990142627617, 0.008639570084864956, 0.00934403739697545,
            0.010116936864676287, 0.01135942930487582, 0.012653653869620038,
            0.27131037138623854, 0.1865960031845267
        ],
        "sigma2_hat": 1.0203772234993262,
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


def dense_score_root(case) -> float:
    """The rho in (-0.9, 0.9) where the profile score changes sign.

    The score is n e(rho)'e_w / ||e(rho)||^2 - tr((I - rho W)^-1 W), with the
    trace from a dense solve. The residuals e(rho) = e_y - rho e_w are linear in
    rho, so two pinned-rho fits give e_y and e_w; neither W's spectrum nor the
    rho search is used. Bisection runs until the ends are adjacent floats.
    """
    w = case["weights"].matrix
    n = w.shape[0]
    options = {k: v for k, v in case.items() if k != "std_errors"}
    e_y = fit(**options, rho=0.0).residuals
    e_w = (e_y - fit(**options, rho=0.5).residuals) / 0.5

    def score(rho):
        e = e_y - rho * e_w
        return n * (e @ e_w) / (e @ e) - np.trace(np.linalg.solve(np.eye(n) - rho * w, w))

    lo, hi = -0.9, 0.9
    assert score(lo) > 0.0 > score(hi)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_rho_is_the_root_of_the_dense_score(name):
    build, expected = GOLDEN[name]
    assert expected["rho_hat"] == pytest.approx(dense_score_root(build()), rel=1e-12, abs=0)


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

    The literals were recorded when a golden-section search ended each rho
    search in a 1e-8 bracket; finding rho_hat as the score's root moved the
    reports by up to 1.5e-7 relative (4.1e-9 absolute).
    """
    rows, cols, reps, seed = setting
    fields = report_csv_fields(run_monte_carlo(SimConfig(rows, cols, 0.4, 1.1, reps, seed)))
    assert (fields["n_rows"], fields["n_cols"], fields["n_reps"], fields["seed"]) == setting
    expected = GOLDEN_REPORTS[setting]
    np.testing.assert_allclose([fields[k] for k in expected], list(expected.values()),
                               rtol=REPORT_RTOL)


def reproducible_outputs() -> dict[str, list[float]]:
    """rho_hat, delta_hat and sigma2_hat of the golden fits, and every
    report_csv_fields value of the 10x15, 8-replication golden study."""
    out = {}
    for name, (build, _) in sorted(GOLDEN.items()):
        res = fit(**{**build(), "std_errors": False})
        out[name] = [res.rho_hat, *res.delta_hat.tolist(), res.sigma2_hat]
    report = run_monte_carlo(SimConfig(10, 15, 0.4, 1.1, 8, 21))
    out["report"] = [float(v) for v in report_csv_fields(report).values()]
    return out


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """A single-threaded BLAS sums in another order; the estimates must not care."""
    paths = [str(Path(mixsar.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    code = "import json, test_golden; print(json.dumps(test_golden.reproducible_outputs()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    single = json.loads(proc.stdout)
    here = reproducible_outputs()
    assert single.keys() == here.keys()
    for key, values in here.items():
        np.testing.assert_allclose(single[key], values, rtol=1e-10, atol=0, err_msg=key)
