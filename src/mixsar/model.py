"""Spatial autoregressive regression with mixed covariate blocks.

The response follows ``y = rho W y + Z delta + eps`` where Z stacks an
intercept, functional principal component scores, ilr coordinates of
compositional covariates, and scalar covariates. Estimation is concentrated
maximum likelihood: for fixed rho the coefficient vector and error variance
have closed forms, leaving a one-dimensional profile objective

    -(n/2) ln(sigma2_hat(rho)) + ln|I - rho W|

maximized by a coarse grid scan followed by golden-section refinement. Wald
standard errors come from the closed-form observed Hessian of the full
log-likelihood (Anselin 1988; Lee 2004). The functional coefficient curve is
rebuilt from the score coefficients on the retained eigenfunctions; the
compositional coefficient is the inverse ilr of its coordinate block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import geometry
from .errors import NumericalError
from .functional import (
    CurveSample,
    RawCurveObservations,
    default_bandwidth,
    derivative_curves,
    fpca,
    pve_truncate,
    scores,
    smooth_curves,
)
from .spatial import MoranReport, SpatialWeights, log_det_system, morans_i, solve_system

RHO_BOUND = 0.999
_RHO_GRID_POINTS = 201
_GOLDEN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MixedDesign:
    """Response, stacked regressor matrix, and spatial weights for one fit.

    ``blocks`` maps block names ("intercept", "fpc", "ilr", "scalar") to
    column slices of Z; absent covariate types simply have no block. The
    design's profile likelihood is built on first use and then shared.
    """

    y: np.ndarray
    Z: np.ndarray
    weights: SpatialWeights
    column_labels: tuple[str, ...]
    blocks: dict[str, slice]

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def W(self) -> np.ndarray:
        return self.weights.matrix

    @cached_property
    def _profile(self) -> _Profile:
        return _Profile(self.y, self.Z, self.weights)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Estimates, reconstructed coefficients, and fit diagnostics."""

    rho_hat: float
    alpha_hat: float
    b_hat: np.ndarray            # FPC score coefficients (may be empty)
    theta_hat: np.ndarray        # ilr-coordinate coefficients (may be empty)
    beta_scalar_hat: np.ndarray  # scalar-covariate coefficients (may be empty)
    sigma2_hat: float
    beta_t_hat: np.ndarray | None    # coefficient curve on `grid`
    beta_comp_hat: np.ndarray | None  # composition, inverse-ilr of theta_hat
    grid: np.ndarray | None
    n_components: int
    loglik: float
    fitted: np.ndarray
    residuals: np.ndarray
    r_squared: float
    mse_fitted: float
    residual_moran: MoranReport
    column_labels: tuple[str, ...]
    std_errors: np.ndarray | None = None  # Wald, ordered [rho, *delta, sigma2]
    p_values: np.ndarray | None = None

    @property
    def delta_hat(self) -> np.ndarray:
        return np.concatenate(
            [[self.alpha_hat], self.b_hat, self.theta_hat, self.beta_scalar_hat]
        )


def assemble_design(y, scores_block=None, ilr_block=None, scalars=None, *, weights,
                    scalar_labels=None) -> MixedDesign:
    """Stack [intercept | FPC scores | ilr coordinates | scalars] into Z.

    ``weights`` is a :class:`~mixsar.spatial.SpatialWeights`, whose memo of
    log-determinants the design then shares, or a row-stochastic ``(n, n)``
    array with no isolated units, wrapped in a fresh one. Verifies consistent
    row counts and that every block adds full column rank; a deficient block
    is named in the error.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    if not isinstance(weights, SpatialWeights):
        weights = SpatialWeights(weights)
    m = weights.matrix.shape[0]
    if m != n:
        raise ValueError(f"weights are {m}x{m} but response has {n} rows")

    parts = [np.ones((n, 1))]
    labels = ["intercept"]
    blocks = {"intercept": slice(0, 1)}

    def add_block(name, raw, names=None):
        mat = np.asarray(raw, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(f"{name} block has shape {mat.shape}, expected ({n}, k)")
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"{name} block contains non-finite values")
        names = list(names) if names else [f"{name}_{j + 1}" for j in range(mat.shape[1])]
        if len(names) != mat.shape[1]:
            raise ValueError(f"{name} labels do not match the block width")
        start = sum(p.shape[1] for p in parts)
        parts.append(mat)
        labels.extend(names)
        blocks[name] = slice(start, start + mat.shape[1])

    if scores_block is not None and np.size(scores_block):
        add_block("fpc", scores_block)
    if ilr_block is not None and np.size(ilr_block):
        add_block("ilr", ilr_block)
    if scalars is not None and np.size(scalars):
        mat = np.asarray(scalars, dtype=float)
        width = 1 if mat.ndim == 1 else mat.shape[1]
        names = list(scalar_labels) if scalar_labels else [f"x_{j + 1}" for j in range(width)]
        add_block("scalar", scalars, names)

    z = np.hstack(parts)
    if z.shape[1] > n:
        raise ValueError(f"{z.shape[1]} regressors for only {n} observations")
    cols = 0
    for name in blocks:
        cols = blocks[name].stop
        if np.linalg.matrix_rank(z[:, :cols]) < cols:
            raise ValueError(f"design is rank deficient at block '{name}'")
    return MixedDesign(y=y, Z=z, weights=weights, column_labels=tuple(labels), blocks=blocks)


class _Profile:
    """The profile likelihood of one design, O(1) per rho.

    Least squares of y and of Wy on Z, done once, give delta(rho) =
    d_y - rho d_w; the residual quadratic ||e_y - rho e_w||^2 gives sigma2(rho).
    It keeps n and the weights, not the design, so a design caching it forms
    no cycle.
    """

    def __init__(self, y: np.ndarray, z: np.ndarray, weights: SpatialWeights):
        self.n = y.size
        self.weights = weights
        self.wy = weights.matrix @ y
        self.d_y = _solve_ls(z, y)
        self.d_w = _solve_ls(z, self.wy)
        e_y = y - z @ self.d_y
        e_w = self.wy - z @ self.d_w
        self.eyy = float(e_y @ e_y)
        self.eyw = float(e_y @ e_w)
        self.eww = float(e_w @ e_w)

    def delta(self, rho: float) -> np.ndarray:
        return self.d_y - rho * self.d_w

    def sigma2(self, rho: float) -> float:
        return (self.eyy - 2.0 * rho * self.eyw + rho * rho * self.eww) / self.n

    def loglik(self, rho: float) -> float:
        s2 = self.sigma2(rho)
        if s2 <= 0.0 or not np.isfinite(s2):
            raise NumericalError(f"residual variance degenerate at rho={rho}")
        return -0.5 * self.n * np.log(s2) + self.weights.log_det(rho)


def _solve_ls(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(z, target, rcond=None)
    if rank < z.shape[1]:
        raise ValueError("design matrix is rank deficient")
    return coef


def _profile_at(rho: float, design: MixedDesign) -> _Profile:
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    return design._profile


def delta_hat(rho: float, design: MixedDesign) -> np.ndarray:
    """Closed-form coefficients at fixed rho: least squares of (I - rho W) y on Z."""
    return _profile_at(rho, design).delta(rho)


def sigma2_hat(rho: float, design: MixedDesign) -> float:
    """Mean squared residual (1/n divisor) at the closed-form coefficients."""
    return _profile_at(rho, design).sigma2(rho)


def full_loglik(rho: float, delta, sigma2: float, design: MixedDesign) -> float:
    """Gaussian log-likelihood of the spatial-lag system at given parameters."""
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    delta = np.asarray(delta, dtype=float)
    e = design.y - rho * (design.W @ design.y) - design.Z @ delta
    n = design.n
    return float(
        -0.5 * n * np.log(2.0 * np.pi * sigma2)
        + log_det_system(rho, design.W)
        - (e @ e) / (2.0 * sigma2)
    )


def concentrated_loglik(rho: float, design: MixedDesign) -> float:
    """Profile objective: -(n/2) ln(sigma2_hat(rho)) + ln|I - rho W|."""
    return _profile_at(rho, design).loglik(rho)


def _golden_section_max(f, lo: float, hi: float, tol: float = _GOLDEN_TOL) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_rho(design: MixedDesign) -> float:
    """Maximize the concentrated log-likelihood over [-0.999, 0.999].

    A 201-point grid locates the basin (guarding against local maxima), then
    golden-section search shrinks the bracketing interval to width 1e-8.
    """
    profile = design._profile

    def objective(rho: float) -> float:
        try:
            return profile.loglik(rho)
        except NumericalError:
            return -np.inf

    grid = np.linspace(-RHO_BOUND, RHO_BOUND, _RHO_GRID_POINTS)
    vals = np.array([objective(r) for r in grid])
    if not np.any(np.isfinite(vals)):
        raise NumericalError("concentrated log-likelihood is non-finite on the whole rho grid")
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    return float(_golden_section_max(objective, lo, hi))


def fit(y, curves=None, compositions=None, scalars=None, *, weights, pve: float = 0.7,
        bandwidth: float | None = None, grid_size: int = 100, derivative: bool = False,
        rho: float | None = None, std_errors: bool = False,
        scalar_labels=None) -> FitResult:
    """End-to-end estimation on mixed covariates.

    Curves (raw observations or an evaluated sample) are reduced to FPC
    scores with truncation level chosen by the cumulative-eigenvalue share
    ``pve``; compositions enter through their ilr coordinates; any covariate
    block may be omitted. ``rho=None`` estimates the spatial lag by profile
    likelihood, otherwise the given value is held fixed.

    Parameters
    ----------
    y : array_like, shape (n,)
        Response.
    curves : RawCurveObservations | CurveSample | None
        Functional covariate. Raw observations are smoothed first
        (Epanechnikov kernel; ``bandwidth`` defaults to twice the median
        observation spacing).
    compositions : array_like, shape (n, d) | None
        Compositional covariate rows (validated against the simplex).
    scalars : array_like, shape (n,) or (n, q) | None
        Numerical covariates.
    weights : array_like, shape (n, n), or SpatialWeights
        Row-stochastic spatial weights, no isolated units. Fits that share one
        :class:`~mixsar.spatial.SpatialWeights` compute each ln|I - rho W| once;
        an array is wrapped in a fresh one for this fit.
    pve : float
        Share of the total FPCA eigenvalue mass the retained components must
        reach, in (0, 1].
    bandwidth : float | None
        Kernel half-width for smoothing raw curves, > 0; None uses the
        default above. Ignored for an evaluated sample.
    grid_size : int
        Number of equally spaced points on [0, 1] that raw curves are
        smoothed onto, >= 2. Ignored for an evaluated sample.
    derivative : bool
        Differentiate the (smoothed) curves before FPCA.
    rho : float | None
        Spatial lag held fixed, with |rho| < 1; None estimates it by profile
        likelihood on [-RHO_BOUND, RHO_BOUND].
    std_errors : bool
        Attach Wald standard errors / p-values from the closed-form Hessian.
    scalar_labels : sequence of str | None
        Names of the scalar columns in ``column_labels``; None gives
        ``x_1, x_2, ...``.
    """
    if not 0.0 < pve <= 1.0:
        raise ValueError("pve must be in (0, 1]")

    basis = None
    n_components = 0
    score_block = None
    if curves is not None:
        if isinstance(curves, RawCurveObservations):
            h = bandwidth if bandwidth is not None else default_bandwidth(curves.times)
            sample = smooth_curves(curves, h, grid_size)
        elif isinstance(curves, CurveSample):
            sample = curves
        else:
            raise ValueError("curves must be RawCurveObservations or CurveSample")
        if derivative:
            sample = derivative_curves(sample)
        basis = fpca(sample)
        n_components = pve_truncate(basis.eigenvalues, pve)
        score_block = scores(sample, basis, n_components)

    ilr_block = geometry.ilr(compositions) if compositions is not None else None

    design = assemble_design(
        y, score_block, ilr_block, scalars, weights=weights, scalar_labels=scalar_labels
    )

    if rho is not None:
        if not abs(rho) < 1.0:
            raise ValueError(f"pinned rho must satisfy |rho| < 1, got {rho}")
        rho_hat = float(rho)
    else:
        rho_hat = optimize_rho(design)

    profile = design._profile
    delta = profile.delta(rho_hat)
    resid = design.y - rho_hat * profile.wy - design.Z @ delta
    sigma2 = float(resid @ resid) / design.n
    if sigma2 <= 0.0:
        raise NumericalError("exact fit: residual variance is zero")
    loglik = full_loglik(rho_hat, delta, sigma2, design)

    def block(name):
        return delta[design.blocks[name]] if name in design.blocks else np.empty(0)

    alpha = float(delta[0])
    b_hat = block("fpc")
    theta = block("ilr")
    beta_scalar = block("scalar")

    beta_t = b_hat @ basis.eigenfunctions[:n_components] if basis is not None else None
    beta_comp = geometry.ilr_inv(theta) if theta.size else None

    fitted = solve_system(rho_hat, design.W, design.Z @ delta)
    sse = float(np.sum((design.y - fitted) ** 2))
    sst = float(np.sum((design.y - design.y.mean()) ** 2))
    r_squared = 1.0 - sse / sst if sst > 0 else float("nan")
    result = FitResult(
        rho_hat=rho_hat,
        alpha_hat=alpha,
        b_hat=b_hat,
        theta_hat=theta,
        beta_scalar_hat=beta_scalar,
        sigma2_hat=sigma2,
        beta_t_hat=beta_t,
        beta_comp_hat=beta_comp,
        grid=basis.grid if basis is not None else None,
        n_components=n_components,
        loglik=loglik,
        fitted=fitted,
        residuals=resid,
        r_squared=r_squared,
        mse_fitted=sse / design.n,
        residual_moran=morans_i(resid, design.W),
        column_labels=design.column_labels,
    )
    if std_errors:
        wald = wald_std_errors(design, result)
        if wald is not None:
            result = replace(result, std_errors=wald[0], p_values=wald[1])
    return result


def wald_std_errors(design: MixedDesign, result: FitResult):
    """Wald standard errors from the inverse negative observed Hessian.

    The Hessian of the full log-likelihood at (rho, delta, sigma2) is taken
    in closed form (Anselin 1988; Lee 2004). Beyond cross products of
    [Wy | Z] and the residual e, it needs tr(G^2) with G = (I - rho W)^-1 W,
    which costs one dense solve. Returns (std_errors, p_values) ordered
    [rho, *delta, sigma2], or None with a warning when the Hessian is not
    negative definite there.
    """
    rho, delta, s2 = result.rho_hat, result.delta_hat, result.sigma2_hat
    params = np.concatenate([[rho], delta, [s2]])
    wy = design.W @ design.y
    e = design.y - rho * wy - design.Z @ delta
    g = solve_system(rho, design.W, design.W)
    x = np.column_stack([wy, design.Z])  # de/d(rho, delta) = -[Wy | Z]

    hess = np.empty((params.size, params.size))
    hess[:-1, :-1] = -(x.T @ x) / s2
    hess[0, 0] -= np.sum(g * g.T)  # tr(G^2)
    hess[:-1, -1] = hess[-1, :-1] = -(x.T @ e) / s2**2
    hess[-1, -1] = design.n / (2.0 * s2**2) - (e @ e) / s2**3

    try:
        cov = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        warnings.warn("Wald Hessian is singular; standard errors unavailable")
        return None
    diag = np.diag(cov)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        warnings.warn("Wald Hessian is not negative definite; standard errors unavailable")
        return None
    se = np.sqrt(diag)
    z = params / se
    pvals = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    return se, pvals
