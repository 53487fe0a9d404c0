"""Aitchison geometry: closure, ilr and its inverse, and ilr as a linear isometry."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsar.geometry import closure, ilr, ilr_basis, ilr_inv

RNG = np.random.default_rng(20240811)


def random_composition(d, size=None):
    return closure(RNG.dirichlet(np.ones(d) * 2.0, size=size) + 1e-9)


def clr_inner(x, y):
    """Aitchison inner product, sum_i log(x_i/g(x)) log(y_i/g(y)), by its definition."""
    lx, ly = np.log(x), np.log(y)
    return float(np.sum((lx - lx.mean()) * (ly - ly.mean())))


compositions = st.integers(min_value=2, max_value=8).flatmap(
    lambda d: st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=d, max_size=d)
).map(lambda parts: closure(np.array(parts)))


# -- closure ------------------------------------------------------------------

def test_closure_equal_parts():
    np.testing.assert_allclose(closure([2.0, 2.0, 2.0]), [1 / 3, 1 / 3, 1 / 3])


def test_closure_proportional():
    np.testing.assert_allclose(closure([1.0, 3.0]), [0.25, 0.75])
    np.testing.assert_allclose(closure([1.0, 2.0, 3.0]), [1 / 6, 1 / 3, 1 / 2])


def test_closure_rows():
    out = closure([[1.0, 1.0], [2.0, 6.0]])
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]])


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        closure([1.0, 0.0])
    with pytest.raises(ValueError):
        closure([1.0, -2.0])
    with pytest.raises(ValueError):
        closure([1.0])
    with pytest.raises(ValueError):
        closure([1.0, np.inf])


# -- ilr is a linear isometry ---------------------------------------------------

def test_inner_isometry_against_ilr():
    for d in (2, 3, 4, 7):
        x, y = random_composition(d), random_composition(d)
        assert clr_inner(x, y) == pytest.approx(float(np.dot(ilr(x), ilr(y))), abs=1e-10)


def test_norm_brute_force_clr():
    x = np.array([1 / 6, 1 / 3, 1 / 2])
    g = (x[0] * x[1] * x[2]) ** (1 / 3)
    expected = math.sqrt(sum(math.log(p / g) ** 2 for p in x))
    assert float(np.linalg.norm(ilr(x))) == pytest.approx(expected, abs=1e-12)


def test_power_linearity_under_ilr():
    # powering, closure of x_i**a, is scalar multiplication in ilr coordinates
    x = random_composition(5)
    for a in (-2.5, 0.3, 4.0):
        np.testing.assert_allclose(ilr(closure(x**a)), a * ilr(x), atol=1e-10)


# -- ilr and its inverse ------------------------------------------------------

def _ilr_by_formula(x):
    """Scalar evaluation of the sequential-binary-partition coordinates."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    out = []
    for i in range(1, d):  # 1-based coordinate index
        rest = x[i:]
        gm_rest = float(np.prod(rest)) ** (1.0 / (d - i))
        out.append(math.sqrt((d - i) / (d - i + 1)) * math.log(x[i - 1] / gm_rest))
    return np.array(out)


def _ilr_inv_displayed(xi):
    """Displayed part-wise inverse (first/middle/last) with the final middle
    term read as xi_i, followed by closure."""
    xi = np.asarray(xi, dtype=float)
    d = len(xi) + 1
    parts = np.empty(d)
    parts[0] = math.exp(math.sqrt(d - 1) / math.sqrt(d) * xi[0])
    for i in range(2, d):  # middle parts, 1-based i = 2..d-1
        s = sum(xi[j - 1] / math.sqrt((d - j + 1) * (d - j)) for j in range(1, i))
        parts[i - 1] = math.exp(-s + math.sqrt(d - i) / math.sqrt(d - i + 1) * xi[i - 1])
    s = sum(xi[j - 1] / math.sqrt((d - j + 1) * (d - j)) for j in range(1, d))
    parts[d - 1] = math.exp(-s)
    return parts / parts.sum()


def test_ilr_neutral_maps_to_origin():
    np.testing.assert_allclose(ilr([1 / 3, 1 / 3, 1 / 3]), [0.0, 0.0], atol=1e-14)


def test_ilr_matches_scalar_formula():
    for x in ([1 / 6, 1 / 3, 1 / 2], random_composition(4), random_composition(6)):
        np.testing.assert_allclose(ilr(x), _ilr_by_formula(x), atol=1e-12)


def test_ilr_roundtrip():
    for d in (2, 3, 5, 9):
        x = random_composition(d)
        np.testing.assert_allclose(ilr_inv(ilr(x)), x, atol=1e-12)
        xi = RNG.normal(size=d - 1) * 2.0
        np.testing.assert_allclose(ilr(ilr_inv(xi)), xi, atol=1e-12)


def test_ilr_inv_origin():
    np.testing.assert_allclose(ilr_inv([0.0, 0.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_ilr_inv_recovers_benchmark_coefficient():
    target = np.array([4 / 9, 2 / 9, 1 / 3])
    np.testing.assert_allclose(ilr_inv(ilr(target)), target, atol=1e-12)


def test_ilr_inv_agrees_with_displayed_formulas():
    for d in (3, 4, 6):
        xi = RNG.normal(size=d - 1)
        np.testing.assert_allclose(ilr_inv(xi), _ilr_inv_displayed(xi), atol=1e-12)


def test_ilr_inv_extreme_coordinates_stay_on_simplex():
    x = ilr_inv([50.0, -30.0])
    assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(x > 0)


def test_ilr_inv_rejects_structural_zero():
    with pytest.raises(ValueError):
        ilr_inv([2000.0, 0.0])


def test_ilr_basis_orthonormal_zero_sum():
    for d in (2, 3, 7):
        v = ilr_basis(d)
        np.testing.assert_allclose(v @ v.T, np.eye(d - 1), atol=1e-14)
        np.testing.assert_allclose(v.sum(axis=1), 0.0, atol=1e-14)


# -- property-based invariants ------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(compositions)
def test_property_roundtrip(x):
    np.testing.assert_allclose(ilr_inv(ilr(x)), x, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(compositions, st.floats(min_value=-5, max_value=5))
def test_property_power_linearity(x, a):
    np.testing.assert_allclose(ilr(closure(x**a)), a * ilr(x), atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_perturb_additivity_and_isometry(data):
    d = data.draw(st.integers(min_value=2, max_value=8))
    parts = st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=d, max_size=d)
    x = closure(np.array(data.draw(parts)))
    y = closure(np.array(data.draw(parts)))
    # perturbation, closure of x_i * y_i, is addition in ilr coordinates
    np.testing.assert_allclose(ilr(closure(x * y)), ilr(x) + ilr(y), atol=1e-10)
    assert clr_inner(x, y) == pytest.approx(float(np.dot(ilr(x), ilr(y))), abs=1e-10)


# -- input checks ---------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: closure(np.ones((2, 2, 2))),
                 "raw parts must be a 1-d or 2-d array, got ndim=3", id="closure-ndim"),
    pytest.param(lambda: ilr([0.5, 0.0, 0.5]),
                 "composition has non-positive parts", id="composition-zero-part"),
    pytest.param(lambda: ilr([0.3, 0.3]),
                 "composition parts do not sum to 1 (max deviation 4.000e-01)", id="composition-sum"),
    pytest.param(lambda: closure([1e-310, 1.0]), "closure produced a part below 1e-300",
                 id="closure-underflow"),
    pytest.param(lambda: ilr_basis(1), "need at least 2 parts", id="basis-one-part"),
    pytest.param(lambda: ilr_inv(np.zeros((1, 1, 2))),
                 "ilr coordinates must be 1-d or 2-d, got ndim=3", id="ilr-inv-ndim"),
    pytest.param(lambda: ilr_inv([0.0, np.nan]), "ilr coordinates contain non-finite entries",
                 id="ilr-inv-non-finite"),
])
def test_geometry_input_checks(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
