"""Spatial lag models with functional, compositional and scalar covariates.

``__all__`` is the package's public API; each name is defined in the module it
is imported from.
"""

from .errors import NumericalError
from .functional import CurveSample, RawCurveObservations
from .geometry import closure, ilr, ilr_inv
from .model import (FitResult, MixedDesign, assemble_design, concentrated_loglik, delta_hat, fit,
                    full_loglik, optimize_rho, sigma2_hat, wald_std_errors)
from .simulation import (SimConfig, SimReport, format_report_table, report_csv_fields,
                         run_monte_carlo)
from .spatial import (SpatialWeights, knn_inverse_distance, log_det_system, morans_i,
                      rook_lattice, solve_system)

__all__ = [
    "fit", "FitResult", "assemble_design", "MixedDesign", "optimize_rho", "full_loglik",
    "concentrated_loglik", "delta_hat", "sigma2_hat", "wald_std_errors",
    "SpatialWeights", "rook_lattice", "knn_inverse_distance", "morans_i", "log_det_system",
    "solve_system",
    "RawCurveObservations", "CurveSample",
    "closure", "ilr", "ilr_inv",
    "SimConfig", "SimReport", "run_monte_carlo", "format_report_table", "report_csv_fields",
    "NumericalError",
]
