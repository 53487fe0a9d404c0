"""The benchmark's workloads: inputs drawn from a seed, one timed operation each.

Every workload uses the paper setting rho_true=0.4 and alpha_decay=1.1, curves
on a 100-point grid, a 3-part composition and one scalar, all drawn with
``mixsar.simulation``'s generators. Operation ``i`` of a run with seed ``s``
draws its inputs from ``numpy.random.default_rng([s, i])``.

mixsar functions are called through their modules (``model.fit``, not a name
imported from it) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from mixsar import model, simulation, spatial
from mixsar.functional import RawCurveObservations

from . import checks

RHO_TRUE = 0.4
ALPHA_DECAY = 1.1
GRID_SIZE = 100
NOISE_SCALE = 0.5
WEIGHTS_ATOL = 1e-12


class RookFit:
    """``fit()`` on mixed covariates over a rook lattice built once in set-up."""

    reps_per_op = 1

    def __init__(self, n_rows: int, n_cols: int):
        self.n_rows, self.n_cols = n_rows, n_cols

    def setup(self):
        return {"W": spatial.rook_lattice(self.n_rows, self.n_cols),
                "grid": np.linspace(0.0, 1.0, GRID_SIZE)}

    def warm_up(self, state, inputs) -> None:
        model.fit(weights=state["W"], rho=RHO_TRUE, **inputs)

    def inputs(self, state, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        n = state["W"].shape[0]
        curves = simulation.gen_functional(n, ALPHA_DECAY, state["grid"], rng)
        comps = simulation.gen_composition(n, simulation.COMP_MEAN, simulation.COMP_ILR_COV,
                                           rng)
        scalars = rng.normal(simulation.SCALAR_MEAN, simulation.SCALAR_SD, size=n)
        y = simulation.gen_response(
            state["W"], RHO_TRUE, curves, simulation.true_beta_t(state["grid"]), comps,
            simulation.TRUE_COMP_COEF, scalars, simulation.TRUE_SCALAR_COEF, NOISE_SCALE, rng,
        )
        return {"y": y, "curves": curves, "compositions": comps, "scalars": scalars}

    def op(self, state, inputs):
        return model.fit(weights=state["W"], **inputs)

    def estimates(self, output):
        return checks.fit_estimates(output)

    def invariant_problems(self, state, inputs, output):
        return checks.fit_invariants(
            output, lambda rho: model.fit(weights=state["W"], rho=rho, **inputs).loglik
        )


class KnnFit:
    """kNN great-circle weights from raw locations, then ``fit()`` on raw noisy
    curves with derivative=True and Wald standard errors.

    The latent curves and their 60 observation points come from one fixed
    stream, drawn in set-up; locations, observation noise, compositions,
    scalars and the response come from the seed. With fresh latent curves per
    operation the number of retained FPCs varies between 11 and 13, and each
    extra component adds about 11% to the Wald step, which made the median
    operation time jump between seeds. This stream keeps 12 components.
    """

    reps_per_op = 1
    K = 6
    CUTOFF_DEG = 180.0   # every unit is eligible: a pure k-nearest rule
    LON = (-20.0, 20.0)
    LAT = (30.0, 60.0)
    OBS_NOISE = 0.1
    CURVE_STREAM = (12345, 1)

    def __init__(self, n_units: int, n_times: int):
        self.n_units, self.n_times = n_units, n_times

    def setup(self):
        rng = np.random.default_rng(self.CURVE_STREAM)
        times = np.sort(rng.uniform(0.0, 1.0, self.n_times))
        return {"curves": simulation.gen_functional(self.n_units, ALPHA_DECAY, times, rng)}

    def warm_up(self, state, inputs) -> None:
        self._fit(inputs, inputs["W"], rho=RHO_TRUE)

    def reference_weights(self, locations) -> np.ndarray:
        """The weights ``knn_inverse_distance`` must return, vectorized.

        Haversine central angles in degrees, the k nearest other units by a
        stable sort (lower index first among ties), inverse distance, rows
        normalized; the 180-degree cutoff excludes no unit. Used to draw the
        response and to check the operation's W.
        """
        lon, lat = np.radians(np.asarray(locations, dtype=float)).T
        s = (np.sin((lat[:, None] - lat[None, :]) / 2.0) ** 2
             + np.cos(lat)[:, None] * np.cos(lat)[None, :]
             * np.sin((lon[:, None] - lon[None, :]) / 2.0) ** 2)
        dist = np.degrees(2.0 * np.arcsin(np.minimum(1.0, np.sqrt(s))))
        np.fill_diagonal(dist, np.inf)
        rows = np.arange(dist.shape[0])[:, None]
        keep = np.argsort(dist, axis=1, kind="stable")[:, :self.K]
        w = np.zeros_like(dist)
        w[rows, keep] = 1.0 / dist[rows, keep]
        return w / w.sum(axis=1, keepdims=True)

    def _fit(self, inputs, w, **options):
        return model.fit(inputs["y"], inputs["curves"], inputs["compositions"],
                         inputs["scalars"], weights=w, derivative=True, **options)

    def inputs(self, state, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        locations = np.column_stack([rng.uniform(*self.LON, self.n_units),
                                     rng.uniform(*self.LAT, self.n_units)])
        curves = state["curves"]
        comps = simulation.gen_composition(self.n_units, simulation.COMP_MEAN,
                                           simulation.COMP_ILR_COV, rng)
        scalars = rng.normal(simulation.SCALAR_MEAN, simulation.SCALAR_SD, size=self.n_units)
        w = self.reference_weights(locations)
        y = simulation.gen_response(
            w, RHO_TRUE, curves, simulation.true_beta_t(curves.grid),
            comps, simulation.TRUE_COMP_COEF, scalars, simulation.TRUE_SCALAR_COEF,
            NOISE_SCALE, rng,
        )
        noisy = curves.values + rng.normal(0.0, self.OBS_NOISE, curves.values.shape)
        return {"locations": locations, "W": w, "y": y,
                "curves": RawCurveObservations(curves.grid, noisy),
                "compositions": comps, "scalars": scalars}

    def op(self, state, inputs):
        w = spatial.knn_inverse_distance(inputs["locations"], k=self.K, cutoff=self.CUTOFF_DEG,
                                         metric="greatcircle")
        return w, self._fit(inputs, w, std_errors=True)

    def estimates(self, output):
        return checks.fit_estimates(output[1])

    def invariant_problems(self, state, inputs, output):
        w, result = output
        problems = []
        gap = float(np.max(np.abs(np.asarray(w) - inputs["W"])))
        if not gap <= WEIGHTS_ATOL:
            problems.append(f"kNN weights differ from the reference by {gap:.3e}")
        return problems + checks.fit_invariants(
            result, lambda rho: self._fit(inputs, w, rho=rho).loglik, with_std_errors=True
        )


class MonteCarlo:
    """``run_monte_carlo`` on the paper's setting; each op is one seeded study."""

    def __init__(self, n_rows: int, n_cols: int, n_reps: int, workers: int):
        self.n_rows, self.n_cols = n_rows, n_cols
        self.reps_per_op, self.workers = n_reps, workers

    def setup(self):
        return {}

    def warm_up(self, state, config) -> None:
        simulation.run_monte_carlo(dataclasses.replace(config, n_reps=2), workers=self.workers)

    def inputs(self, state, seed: int, i: int):
        sub_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        return simulation.SimConfig(self.n_rows, self.n_cols, RHO_TRUE, ALPHA_DECAY,
                                    self.reps_per_op, sub_seed)

    def op(self, state, config):
        return simulation.run_monte_carlo(config, workers=self.workers)

    def estimates(self, report):
        return {k: [v] for k, v in _report_fields(report).items()}

    def invariant_problems(self, state, config, report):
        return checks.mc_invariants(_report_fields(report))


def _report_fields(report) -> dict[str, float]:
    return {k: float(v) for k, v in simulation.report_csv_fields(report).items()}


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fit_rook900": lambda: RookFit(30, 30),
    "fit_knn_se400": lambda: KnnFit(400, 60),
    "mc_paper150_w1": lambda: MonteCarlo(10, 15, n_reps=24, workers=1),
}
