"""Every entry point refuses a non-finite array and a bad integer count by the
same two checks, ``require_finite`` and ``require_int``, with the same message."""

import numpy as np
import pytest

from mixsar import (CurveSample, RawCurveObservations, SimConfig, SpatialWeights, assemble_design,
                    closure, fit, gen_functional, ilr, ilr_inv, knn_inverse_distance,
                    morans_i, rook_lattice, run_monte_carlo)
from mixsar.functional import fpca, scores, smooth_curves
from mixsar.geometry import ilr_basis
from mixsar.simulation import gen_composition, gen_response

N = 20
W = rook_lattice(4, 5)
RNG = np.random.default_rng(27)
Y = RNG.normal(size=N)
X = RNG.normal(size=(N, 2))
COMPS = closure(RNG.uniform(0.5, 1.5, size=(N, 3)))
GRID = np.linspace(0.0, 1.0, 6)
CURVES = RNG.normal(size=(N, GRID.size))
LOCATIONS = RNG.uniform(0.0, 10.0, size=(N, 2))


def poke(array, index, value=np.nan):
    """A copy of ``array`` with ``value`` at ``index``."""
    out = np.array(array, dtype=float)
    out[index] = value
    return out


def respond(noise_scale=0.5, scalars=np.ones(N), beta_scalar=1.0, beta_t=None):
    curves = None if beta_t is None else CurveSample(GRID, CURVES)
    return gen_response(W, 0.4, curves, beta_t, None, None, scalars, beta_scalar, noise_scale,
                        np.random.default_rng(0))


FIRST_TEN = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9] ..."


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: fit(poke(Y, 3), scalars=X, weights=W),
                 "response has 1 non-finite entries, at indices [3]", id="fit-response"),
    pytest.param(lambda: fit(Y, scalars=poke(X, (2, 1), np.inf), weights=W),
                 "scalar block has 1 non-finite entries, at (row, col) [[2, 1]]", id="fit-scalars"),
    pytest.param(lambda: fit(Y, compositions=poke(COMPS, (5, 0)), weights=W),
                 "composition has 1 non-finite entries, at (row, col) [[5, 0]]",
                 id="fit-compositions"),
    pytest.param(lambda: fit(Y, CurveSample(GRID, poke(CURVES, (7, 4))), weights=W),
                 "curve values has 1 non-finite entries, at (row, col) [[7, 4]]",
                 id="fit-curve-values"),
    pytest.param(lambda: fit(Y, RawCurveObservations(poke(GRID, [1, 3], -np.inf), CURVES),
                             weights=W),
                 "observation points has 2 non-finite entries, at indices [1, 3]",
                 id="fit-curve-points"),
    pytest.param(lambda: assemble_design(Y, ilr_block=poke(X, (0, 0)), weights=W),
                 "ilr block has 1 non-finite entries, at (row, col) [[0, 0]]",
                 id="assemble-design"),
    pytest.param(lambda: morans_i(np.full(N, np.inf), W),
                 f"values has {N} non-finite entries, at indices {FIRST_TEN}", id="morans-i"),
    pytest.param(lambda: knn_inverse_distance(poke(LOCATIONS, (4, 1)), 3, 100.0),
                 "locations has 1 non-finite entries, at (row, col) [[4, 1]]", id="knn"),
    pytest.param(lambda: SpatialWeights(poke(W.matrix, (0, 1), np.inf)),
                 "weight matrix has 1 non-finite entries, at (row, col) [[0, 1]]",
                 id="spatial-weights"),
    pytest.param(lambda: SpatialWeights.from_edges(3, [0, 1, 1, 2], [1, 0, 2, 1],
                                                   [1.0, 0.5, np.nan, 1.0]),
                 "weight matrix has 1 non-finite entries, at (row, col) [[1, 2]]",
                 id="spatial-weights-from-edges"),
    pytest.param(lambda: ilr([0.2, np.nan, 0.8]),
                 "composition has 1 non-finite entries, at indices [1]", id="ilr"),
    pytest.param(lambda: ilr_inv([[0.0, 1.0], [np.inf, 0.0]]),
                 "ilr coordinates has 1 non-finite entries, at (row, col) [[1, 0]]", id="ilr-inv"),
    pytest.param(lambda: closure([1.0, np.nan]),
                 "raw parts has 1 non-finite entries, at indices [1]", id="closure"),
    # NaN gave "curve values must be finite", and inf ran
    pytest.param(lambda: gen_functional(5, np.nan, GRID, np.random.default_rng(0)),
                 "alpha_decay must be finite and exceed 1 (square-summable amplitudes), got nan",
                 id="gen-functional-alpha-nan"),
    pytest.param(lambda: gen_functional(5, np.inf, GRID, np.random.default_rng(0)),
                 "alpha_decay must be finite and exceed 1 (square-summable amplitudes), got inf",
                 id="gen-functional-alpha-inf"),
    pytest.param(lambda: gen_functional(5, 2.0, poke(GRID, 2), np.random.default_rng(0)),
                 "grid points has 1 non-finite entries, at indices [2]", id="gen-functional-grid"),
    # NaN gave "ilr covariance must be symmetric with side d-1"
    pytest.param(lambda: gen_composition(5, [0.2, 0.3, 0.5], [[1.0, np.nan], [np.nan, 1.0]],
                                         np.random.default_rng(0)),
                 "ilr covariance has 2 non-finite entries, at (row, col) [[0, 1], [1, 0]]",
                 id="gen-composition-ilr-cov"),
    # NaN and inf were a NumericalError from the solve, and a negative scale ran
    pytest.param(lambda: respond(noise_scale=np.nan),
                 "noise_scale must be finite and non-negative, got nan", id="gen-response-noise-nan"),
    pytest.param(lambda: respond(noise_scale=np.inf),
                 "noise_scale must be finite and non-negative, got inf", id="gen-response-noise-inf"),
    pytest.param(lambda: respond(noise_scale=-1.0),
                 "noise_scale must be finite and non-negative, got -1.0",
                 id="gen-response-noise-negative"),
    pytest.param(lambda: respond(scalars=poke(np.ones(N), 6)),
                 "scalar term has 1 non-finite entries, at indices [6]", id="gen-response-scalars"),
    pytest.param(lambda: respond(beta_scalar=np.nan),
                 f"scalar term has {N} non-finite entries, at indices {FIRST_TEN}",
                 id="gen-response-beta-scalar"),
    pytest.param(lambda: respond(beta_t=poke(np.ones(GRID.size), 0)),
                 f"curve term has {N} non-finite entries, at indices {FIRST_TEN}",
                 id="gen-response-beta-t"),
])
def test_every_entry_point_names_a_non_finite_input_alike(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _sample():
    return CurveSample(GRID, CURVES)


def _raw():
    return RawCurveObservations(GRID, CURVES)


def _config(**changed):
    return SimConfig(**{**dict(n_rows=2, n_cols=3, rho_true=0.4, alpha_decay=2.0, n_reps=1,
                               seed=0), **changed})


# (name, minimum, a call that passes the value there)
INTEGER_SITES = [
    ("n_rows", 1, lambda v: rook_lattice(v, 3)),
    ("n_cols", 1, lambda v: rook_lattice(3, v)),
    ("k", 1, lambda v: knn_inverse_distance(LOCATIONS, v, 100.0)),
    ("grid_size", 2, lambda v: smooth_curves(_raw(), 0.3, v)),
    ("grid_size", 2, lambda v: fit(Y, _raw(), weights=W, grid_size=v)),
    ("n_parts", 2, ilr_basis),
    ("m", 1, lambda v: scores(_sample(), fpca(_sample()), v)),
    ("n_rows", 1, lambda v: _config(n_rows=v)),
    ("n_cols", 1, lambda v: _config(n_cols=v)),
    ("n_reps", 1, lambda v: _config(n_reps=v)),
    ("seed", 0, lambda v: _config(seed=v)),
    ("grid_size", 2, lambda v: _config(grid_size=v)),
    ("workers", 1, lambda v: run_monte_carlo(_config(), workers=v)),
    ("n", 1, lambda v: gen_functional(v, 2.0, GRID, np.random.default_rng(0))),
    ("n", 1, lambda v: gen_composition(v, [0.2, 0.3, 0.5], np.eye(2), np.random.default_rng(0))),
    ("n", 1, lambda v: SpatialWeights.from_edges(v, [0, 1], [1, 0], [1.0, 1.0])),
]


@pytest.mark.parametrize("name, minimum, call", INTEGER_SITES,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(INTEGER_SITES)])
@pytest.mark.parametrize("bad", ["bool", 2.5, "3", "below"])
def test_every_integer_argument_is_checked_alike(name, minimum, call, bad):
    # a bool ran where True was at least the minimum, and 2.5 ran as 2 in ilr_basis
    value = {"bool": True, "below": minimum - 1}.get(bad, bad)
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be an integer >= {minimum}, got {value!r}"
