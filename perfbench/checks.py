"""Output checks: stored references for the default seed, invariants for any seed.

Reference tolerances leave room for changes that reproduce the estimates
closely without bit-identity. A spectral log-determinant moves estimates by
about 1e-8 relative and a closed-form Hessian moves standard errors by about
5e-7 relative. On the stored references (2-core x86-64, OpenBLAS 0.3.31), one
BLAS thread instead of two moved delta_hat by up to 3.3e-7 relative and Monte
Carlo fields by up to 4.2e-7, because the golden-section search can end in a
neighbouring 1e-8 bracket. The numerical Wald Hessian is noisier: perturbing
the response by 1e-16 relative moved standard errors by up to 1.3e-5.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("references.json")
DEFAULT_SEED = 0

# |got - ref| <= ATOL + RTOL * |ref|
ESTIMATE_RTOL, ESTIMATE_ATOL = 1e-5, 1e-7
SE_RTOL, SE_ATOL = 1e-3, 0.0

RHO_LIMIT = 0.999
RHO_PROBE = 1e-3


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def fit_estimates(result) -> dict[str, list[float]]:
    """The estimates a fit is checked on, as flat float lists."""
    out = {
        "rho_hat": [float(result.rho_hat)],
        "delta_hat": [float(v) for v in result.delta_hat],
        "sigma2_hat": [float(result.sigma2_hat)],
    }
    if result.std_errors is not None:
        out["std_errors"] = [float(v) for v in result.std_errors]
    return out


def compare(got: dict[str, list[float]], ref: dict[str, list[float]]) -> list[str]:
    """Problems found comparing estimates with a stored reference."""
    problems = []
    if set(got) != set(ref):
        problems.append(f"estimate keys {sorted(got)} differ from reference {sorted(ref)}")
    for key in sorted(set(got) & set(ref)):
        a, b = got[key], ref[key]
        if len(a) != len(b):
            problems.append(f"{key}: {len(a)} values, reference has {len(b)}")
            continue
        rtol, atol = (SE_RTOL, SE_ATOL) if key == "std_errors" else (ESTIMATE_RTOL, ESTIMATE_ATOL)
        for j, (x, y) in enumerate(zip(a, b)):
            if not abs(x - y) <= atol + rtol * abs(y):
                problems.append(f"{key}[{j}] = {x!r}, reference {y!r}")
    return problems


def fit_invariants(result, profile_loglik, with_std_errors: bool = False) -> list[str]:
    """Problems with a fit that hold for any seed.

    ``profile_loglik(rho)`` is the log-likelihood with rho pinned and the
    coefficients and variance profiled out; it equals the concentrated
    log-likelihood up to a constant, so rho_hat must be a local maximum of it.
    """
    est = fit_estimates(result)
    if with_std_errors and "std_errors" not in est:
        return ["standard errors were requested but not returned"]
    problems = [f"{k} is not finite" for k, v in est.items() if not all(map(math.isfinite, v))]
    if problems:
        return problems
    rho = result.rho_hat
    if not abs(rho) < RHO_LIMIT:
        return [f"|rho_hat| = {abs(rho)} is not below {RHO_LIMIT}"]
    at_hat = profile_loglik(rho)
    for probe in (rho - RHO_PROBE, rho + RHO_PROBE):
        if abs(probe) < RHO_LIMIT and profile_loglik(probe) > at_hat:
            problems.append(f"profile log-likelihood at rho={probe:.6f} exceeds its value at "
                            f"rho_hat={rho:.6f}")
    if "std_errors" in est and not all(v > 0 for v in est["std_errors"]):
        problems.append("standard errors are not all positive")
    return problems


def mc_invariants(fields: dict[str, float]) -> list[str]:
    """Problems with a Monte Carlo report that hold for any seed."""
    problems = [f"{k} is not finite" for k, v in fields.items() if not math.isfinite(v)]
    if problems:
        return problems
    if not abs(fields["rho_true"] + fields["bias_rho"]) < RHO_LIMIT:
        problems.append("mean rho_hat is outside (-0.999, 0.999)")
    for key in ("std_rho", "std_beta_scalar", "mean_mse_beta_t", "sstd_comp"):
        if fields["n_reps"] > 1 and not fields[key] > 0:
            problems.append(f"{key} = {fields[key]} is not positive")
    parts = [v for k, v in fields.items() if k.startswith("mean_comp_")]
    if not (all(p > 0 for p in parts) and abs(sum(parts) - 1.0) < 1e-9):
        problems.append(f"mean composition {parts} is not on the simplex")
    return problems
