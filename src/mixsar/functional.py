"""Functional-data machinery: discretely observed curves, kernel smoothing,
derivatives, covariance eigendecomposition, and principal component scores.

Curves live on a shared evaluation grid inside [0, 1]. Integrals are
trapezoid-rule quadratures on that grid; the eigenproblem of the sample
covariance operator is solved through the quadrature-weighted symmetric
matrix, so eigenfunctions come out orthonormal in the discrete L2 metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_finite_points(points: np.ndarray, name: str) -> None:
    """Reject NaN and infinite points first: the range and order checks pass NaN."""
    bad = np.flatnonzero(~np.isfinite(points))
    if bad.size:
        raise ValueError(f"{name} must be finite, got {points[bad].tolist()} "
                         f"at indices {bad.tolist()}")


@dataclass(frozen=True, eq=False)
class RawCurveObservations:
    """Discrete curve recordings: one shared vector of observation points in
    [0, 1] and one row of values per subject.

    Observation points must be non-decreasing; a repeated point must carry
    identical values in every subject's row (it is collapsed before
    smoothing).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least 2 observation points")
        _check_finite_points(times, "observation points")
        if np.any(times < 0.0) or np.any(times > 1.0):
            raise ValueError("observation points must lie in [0, 1]")
        if np.any(np.diff(times) < 0):
            raise ValueError("observation points must be non-decreasing")
        if values.shape[1] != times.size:
            raise ValueError(
                f"values have {values.shape[1]} columns but there are {times.size} observation points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        dup = np.diff(times) == 0
        if np.any(dup) and not np.array_equal(values[:, :-1][:, dup], values[:, 1:][:, dup]):
            raise ValueError("repeated observation points must carry identical values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class CurveSample:
    """Curves evaluated on a shared, strictly increasing grid in [0, 1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid needs at least 2 points")
        _check_finite_points(grid, "grid points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ValueError("grid must lie in [0, 1]")
        if values.shape[1] != grid.size:
            raise ValueError(f"values have {values.shape[1]} columns for a {grid.size}-point grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.size


@dataclass(frozen=True, eq=False)
class FpcaBasis:
    """Eigendecomposition of a sample covariance operator.

    ``eigenfunctions[j]`` is the j-th eigenfunction on ``grid``, orthonormal
    under the trapezoid quadrature given by ``quadrature_weights``;
    ``eigenvalues`` are non-negative and non-increasing.
    """

    grid: np.ndarray
    mean_curve: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    quadrature_weights: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(ev < 0):
            raise ValueError("eigenvalues must be non-negative")
        if np.any(np.diff(ev) > 1e-12 * max(1.0, ev[0] if ev.size else 1.0)):
            raise ValueError("eigenvalues must be non-increasing")

    @property
    def n_retained(self) -> int:
        return self.eigenfunctions.shape[0]


def trapezoid_weights(grid) -> np.ndarray:
    """Trapezoid-rule quadrature weights for a strictly increasing grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid needs at least 2 points")
    w = np.empty_like(grid)
    d = np.diff(grid)
    w[0] = d[0] / 2.0
    w[-1] = d[-1] / 2.0
    w[1:-1] = (d[:-1] + d[1:]) / 2.0
    return w


def default_bandwidth(times) -> float:
    """Spacing-based default: twice the median gap between distinct points."""
    t = np.unique(np.asarray(times, dtype=float))
    if t.size < 2:
        raise ValueError("need at least 2 distinct observation points")
    return 2.0 * float(np.median(np.diff(t)))


def smooth_curves(raw: RawCurveObservations, bandwidth: float, grid_size: int = 100) -> CurveSample:
    """Nadaraya-Watson smoothing with the Epanechnikov kernel.

    Each subject's observations are regressed onto ``grid_size`` equally
    spaced points spanning [0, 1] with kernel ``0.75 (1 - u^2)`` on |u| <= 1.
    At grid points whose kernel window contains no observation the bandwidth
    is enlarged locally just past the nearest observation distance, so the
    estimate falls back to the nearest observed value (tie-averaged).

    Parameters
    ----------
    raw : RawCurveObservations
        Shared observation points plus one value row per subject.
    bandwidth : float
        Kernel half-width, finite and > 0.
    grid_size : int
        Number of evaluation points, an integer >= 2.
    """
    if not 0 < bandwidth < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    times, uniq_idx = np.unique(raw.times, return_index=True)
    values = raw.values[:, uniq_idx]

    grid = np.linspace(0.0, 1.0, grid_size)
    dist = np.abs(grid[:, None] - times[None, :])  # (G, J)
    nearest = dist.min(axis=1, keepdims=True)
    u = dist / np.where(nearest < bandwidth, bandwidth, nearest * (1.0 + 1e-9))
    kernel = np.where(u <= 1.0, 0.75 * (1.0 - u**2), 0.0)
    weights = kernel / kernel.sum(axis=1, keepdims=True)
    return CurveSample(grid, values @ weights.T)


def derivative_curves(sample: CurveSample) -> CurveSample:
    """Finite-difference derivatives: central inside, one-sided at the ends."""
    if sample.n_points < 3:
        raise ValueError("need at least 3 grid points to differentiate")
    deriv = np.gradient(sample.values, sample.grid, axis=1, edge_order=1)
    return CurveSample(sample.grid, deriv)


def empirical_covariance(sample: CurveSample) -> np.ndarray:
    """Sample covariance surface on the grid: mean of outer products minus
    the outer product of the mean curve. Symmetric by construction."""
    if sample.n_subjects < 2:
        raise ValueError("need at least 2 subjects")
    x = sample.values
    mean = x.mean(axis=0)
    cov = x.T @ x / x.shape[0] - np.outer(mean, mean)
    return (cov + cov.T) / 2.0


def fpca(sample: CurveSample) -> FpcaBasis:
    """Eigendecomposition of the quadrature-weighted covariance operator.

    With D the diagonal of trapezoid weights, the symmetric matrix
    ``D^(1/2) K D^(1/2)`` is diagonalized and its eigenvectors mapped back by
    ``D^(-1/2)``, which makes the eigenfunctions orthonormal under the
    quadrature rule. Eigenvalues are clipped at zero and sorted decreasing;
    each eigenfunction is flipped so its largest-magnitude value is positive,
    keeping results reproducible across platforms.
    """
    cov = empirical_covariance(sample)
    w = trapezoid_weights(sample.grid)
    sqrt_w = np.sqrt(w)
    m = sqrt_w[:, None] * cov * sqrt_w[None, :]
    m = (m + m.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(m)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    funcs = (eigvecs[:, order] / sqrt_w[:, None]).T

    peak = np.argmax(np.abs(funcs), axis=1)
    signs = np.sign(funcs[np.arange(funcs.shape[0]), peak])
    signs[signs == 0] = 1.0
    funcs *= signs[:, None]

    return FpcaBasis(
        grid=sample.grid,
        mean_curve=sample.values.mean(axis=0),
        eigenvalues=eigvals,
        eigenfunctions=funcs,
        quadrature_weights=w,
    )


def pve_truncate(eigenvalues, z: float) -> int:
    """Smallest number of leading eigenvalues whose cumulative share of the
    total reaches ``z``."""
    ev = np.asarray(eigenvalues, dtype=float)
    if not 0.0 < z <= 1.0:
        raise ValueError("z must be in (0, 1]")
    if ev.size == 0 or np.any(ev < 0):
        raise ValueError("eigenvalues must be a non-empty non-negative vector")
    cums = np.cumsum(ev)
    if cums[-1] <= 0.0:
        raise ValueError("all eigenvalues are zero")
    share = cums / cums[-1]  # last entry is exactly 1
    return int(np.searchsorted(share, z - 1e-15) + 1)


def scores(sample: CurveSample, basis: FpcaBasis, m: int) -> np.ndarray:
    """Principal component scores of the centered sample.

    Row i, column j holds the quadrature inner product of subject i's
    centered curve with eigenfunction j. Column means are exactly zero and
    column variances reproduce the eigenvalues.
    """
    if not 1 <= m <= basis.n_retained:
        raise ValueError(f"m must be in [1, {basis.n_retained}], got {m}")
    if sample.n_points != basis.grid.size or np.any(sample.grid != basis.grid):
        raise ValueError("sample grid does not match the basis grid")
    centered = sample.values - basis.mean_curve
    return (centered * basis.quadrature_weights) @ basis.eigenfunctions[:m].T
