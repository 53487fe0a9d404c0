"""Spatial autoregressive regression with mixed covariate blocks.

The response follows ``y = rho W y + Z delta + eps`` where Z stacks an
intercept, functional principal component scores, ilr coordinates of
compositional covariates, and scalar covariates. Estimation is concentrated
maximum likelihood: for fixed rho the coefficient vector and error variance
have closed forms, leaving a one-dimensional profile objective

    -(n/2) ln(sigma2(rho)) + ln|I - rho W|

maximized by a grid scan and safeguarded Newton on its score, with ln|I - rho W| from
W's eigenvalues (Ord 1975). Wald standard errors come from the closed-form
observed Hessian (Anselin 1988; Lee 2004). The functional coefficient curve is
rebuilt from the score coefficients on the retained eigenfunctions; the
compositional coefficient is the inverse ilr of its coordinate block, or None
with a warning when a part of it cannot be represented.

One MixedDesign owns Z's factor and every least squares taken from it: Z with
unit-norm columns is factored by one reduced QR, whose |R_jj| decide Z's rank by
a rule no change of units moves, and whose Q and R give the least squares of y
and of Wy that make the profile O(n) per rho. Two powers of two keep it free of
units. Each column is divided by one near its largest |entry| before its norm
is taken. [y, Wy] is divided by s before the least squares: s = 1 unless the
binary exponent of max |y| is beyond +-128, and else the power of two that
brings it to +-128. delta, sigma2 and the profile log-likelihood take back a
factor s, s^2 and a term -n ln s. Dividing by a power of two is exact, so no
result changes wherever the unscaled formulas neither overflow nor underflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import geometry
from .errors import NumericalError, require_finite, require_fraction
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
from .spatial import (RHO_BOUND, RHO_GRID, MoranReport, SpatialWeights, log_det_system,
                      morans_i, solve_system)

_RHO_GRID_POINTS = RHO_GRID.size
_EPS = np.finfo(float).eps
_Y_EXPONENT = 128  # y up to 2^+-128 is taken as is; n of its squares stay well inside floats
_SIGMA_EXPONENT = 480  # sigma up to 2^+-480 is taken as is by full_loglik


def _unit_scale(x: float, limit: int) -> float:
    """1 while |x| is within 2^+-limit, and else the power of two that brings it there."""
    exponent = np.frexp(x)[1]
    return np.ldexp(1.0, exponent - np.clip(exponent, -limit, limit))


@dataclass(frozen=True, eq=False)
class MixedDesign:
    """Response, stacked regressor matrix and spatial weights for one fit, and the
    one owner of Z's factor and of the profile likelihood built on it.

    ``blocks`` maps block names ("intercept", "fpc", "ilr", "scalar") to
    column slices of Z; absent covariate types simply have no block.
    Construction rejects a non-finite y and a W whose size is not y's. It
    factors Z = Q R D, D the column norms, and names the first block with an
    |R_jj| at most n eps, one that adds less than full column rank. With s =
    ``scale``, the power of two above, it takes [d_y, d_w] = D^-1 R^-1 Q'[y, Wy] / s
    and [e_y, e_w] = (I - Q Q')[y, Wy] / s, so delta(rho) = (d_y - rho d_w) s and
    sigma2(rho) = s^2 |e_y - rho e_w|^2 / n, >= 0 even for a noise-free fit.
    ``residuals`` is the one formula for y - rho Wy - Z delta.
    """

    y: np.ndarray
    Z: np.ndarray
    weights: SpatialWeights
    column_labels: tuple[str, ...]
    blocks: dict[str, slice]

    def __post_init__(self):
        require_finite(self.y, "response")
        m = len(self.weights)
        if m != self.n:
            raise ValueError(f"weights are {m}x{m} but response has {self.n} rows")
        if self.Z.shape[1] > self.n:
            raise ValueError(f"{self.Z.shape[1]} regressors for only {self.n} observations")
        binade = np.ldexp(1.0, np.frexp(np.max(np.abs(self.Z), axis=0))[1] - 1)
        norms = np.linalg.norm(self.Z / binade, axis=0) * binade
        q, r = np.linalg.qr(self.Z / np.where(norms > 0.0, norms, 1.0))
        independent = np.abs(np.diag(r)) > self.n * _EPS
        for name, span in self.blocks.items():
            if not independent[:span.stop].all():
                raise ValueError(f"design is rank deficient at block '{name}'")
        scale = _unit_scale(np.max(np.abs(self.y)), _Y_EXPONENT)
        unit = np.stack([self.y, self.wy]) / scale
        coords = unit @ q
        d_y, d_w = np.linalg.solve(r, coords.T).T / norms
        e_y, e_w = unit - coords @ q.T
        # set once here, as cached_property sets wy, past the frozen __setattr__
        self.__dict__.update(scale=scale, d_y=d_y, d_w=d_w, e_y=e_y, e_w=e_w)

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def wy(self) -> np.ndarray:
        return self.weights.lag(self.y)

    def residuals(self, rho: float, delta: np.ndarray) -> np.ndarray:
        return self.y - rho * self.wy - self.Z @ delta

    def delta(self, rho: float) -> np.ndarray:
        """Least squares of y - rho Wy on Z."""
        return (self.d_y - rho * self.d_w) * self.scale

    def mean_square(self, rho):
        """sigma2(rho) / s^2; for an array of rho, one value each."""
        e = self.e_y - np.multiply.outer(rho, self.e_w)
        return np.vecdot(e, e) / self.n

    def sigma2(self, rho):
        """Mean square of y - rho Wy - Z delta(rho); for an array of rho, one value each."""
        return self.mean_square(rho) * self.scale**2

    def loglik(self, rho: float, ms: float | None = None) -> float:
        """-(n/2) ln(ms) + ln|I - rho W|, with ms = mean_square(rho) unless given: the
        profile log-likelihood of y / s at rho, n ln s above that of y. The log-det,
        taken first, checks rho; an ms of 0 or inf is a :class:`NumericalError`."""
        log_det = log_det_system(rho, self.weights)
        ms = self.mean_square(rho) if ms is None else ms
        if not 0.0 < ms < math.inf:
            raise NumericalError(f"residual variance degenerate at rho={rho}")
        return -0.5 * self.n * math.log(ms) + log_det

    def score(self, rho: float) -> tuple[float, float]:
        """f = e'e_w - ms tr G with e = e_y - rho e_w and ms = mean_square(rho), the
        score times sigma2 / s^2 (its sign survives sigma2 -> 0), and
        f' = -e_w'e_w + (2/n) e'e_w tr G - ms tr G^2."""
        e = self.e_y - rho * self.e_w
        e_ew, ms = float(e @ self.e_w), float(e @ e) / self.n
        tr_g, tr_g2 = self.weights.traces(rho)
        slope = 2.0 * e_ew * tr_g / self.n - float(self.e_w @ self.e_w) - ms * tr_g2
        return e_ew - ms * tr_g, slope


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
    beta_comp_hat: np.ndarray | None  # inverse-ilr of theta_hat; None if a part underflows
    grid: np.ndarray | None
    n_components: int
    loglik: float                # full log-likelihood at (rho_hat, delta_hat, sigma2_hat)
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

    ``weights`` is a :class:`~mixsar.spatial.SpatialWeights`, whose eigenvalues
    the design then shares, or a row-stochastic ``(n, n)`` array with no
    isolated units, checked and wrapped in a fresh one by ``SpatialWeights.of``.
    Verifies the blocks' row counts; the design checks y, W's size and its rank.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    weights = SpatialWeights.of(weights)

    parts = [np.ones((n, 1))]
    labels = ["intercept"]
    blocks = {"intercept": slice(0, 1)}

    def add_block(name, raw, prefix, names=None):
        mat = np.asarray(raw, dtype=float)
        if mat.ndim == 1:
            mat = mat[:, None]
        if mat.ndim != 2 or mat.shape[0] != n:
            raise ValueError(f"{name} block has shape {mat.shape}, expected ({n}, k)")
        require_finite(mat, f"{name} block")
        names = list(names) if names else [f"{prefix}_{j + 1}" for j in range(mat.shape[1])]
        if len(names) != mat.shape[1]:
            raise ValueError(f"{name} labels do not match the block width")
        start = sum(p.shape[1] for p in parts)
        parts.append(mat)
        labels.extend(names)
        blocks[name] = slice(start, start + mat.shape[1])

    if scores_block is not None and np.size(scores_block):
        add_block("fpc", scores_block, "fpc")
    if ilr_block is not None and np.size(ilr_block):
        add_block("ilr", ilr_block, "ilr")
    if scalars is not None and np.size(scalars):
        add_block("scalar", scalars, "x", scalar_labels)

    return MixedDesign(y=y, Z=np.hstack(parts), weights=weights, column_labels=tuple(labels),
                       blocks=blocks)


def full_loglik(rho: float, delta, sigma2: float, design: MixedDesign) -> float:
    """Gaussian log-likelihood of the spatial-lag system at any (rho, delta,
    sigma2), with ln|I - rho W| by ``log_det_system``. ``fit`` takes its
    ``loglik`` from the profile instead, to which this is equal at the estimates.

    It is that of e / q at sigma2 / q^2, less n ln q, for q a power of two: 1
    while sigma is within 2^+-480, and else the one that brings it there, so
    that neither 2 pi sigma2 nor e'e leaves the float range.
    """
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
    n = design.n
    q = _unit_scale(math.sqrt(sigma2), _SIGMA_EXPONENT)
    e = design.residuals(rho, np.asarray(delta, dtype=float)) / q
    ms = sigma2 / q / q
    return float(
        -0.5 * n * np.log(2.0 * np.pi * ms)
        + log_det_system(rho, design.weights)
        - (e @ e) / (2.0 * ms)
        - n * math.log(q)
    )


def optimize_rho(design: MixedDesign) -> float:
    """Maximize the concentrated log-likelihood over [-RHO_BOUND, RHO_BOUND].

    The 201 points of ``RHO_GRID`` locate the basin, guarding against local
    maxima, each by its own ``loglik`` call, whose log-det is a lookup in the
    table that W keeps of them (``SpatialWeights``); then
    safeguarded Newton (Press et al., Numerical Recipes, sec. 9.4) on the score
    times sigma2(rho) / s^2 closes the best point's bracket to adjacent floats, unless
    that point scores higher. A step that leaves the bracket halves it instead; one
    that stops shrinking, as rounding flattens the score, doubles the last step.
    The objective is the design's profile of y / s, which differs from the
    concentrated log-likelihood by a constant. Raises ``ValueError`` when rho is
    not identified: the residual of Wy on Z is at most n eps ||Wy||, as for a
    constant y.
    """
    if not np.linalg.norm(design.e_w) > design.n * _EPS * np.linalg.norm(design.wy / design.scale):
        raise ValueError("rho is not identified: Wy lies in the span of the regressors")

    def objective(rho: float, ms: float | None = None) -> float:
        try:
            return design.loglik(rho, ms)
        except NumericalError:
            return -math.inf

    grid = RHO_GRID
    ms = design.mean_square(grid).tolist()
    vals = np.array([objective(r, m) for r, m in zip(grid.tolist(), ms)])
    if not np.any(np.isfinite(vals)):
        raise NumericalError("concentrated log-likelihood is non-finite on the whole rho grid")
    best = int(np.argmax(vals))
    lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)])
    # from the best point, or the float beside it when it is an end of the grid
    rho = min(max(float(grid[best]), math.nextafter(lo, hi)), math.nextafter(hi, lo))
    taken = last_newton = math.inf
    while lo < rho < hi:
        f, slope = design.score(rho)
        lo, hi = (rho, hi) if f > 0 else (lo, rho)
        newton = -f / slope if slope else math.nan
        if abs(newton) < 0.5 * last_newton:
            step = rho + newton
        else:  # Newton has stalled where rounding flattens f: gallop, doubling
            step = rho + (2.0 * taken if f > 0 else -2.0 * taken)
        if step == rho:
            step = math.nextafter(rho, hi if f > 0 else lo)
        step = step if lo < step < hi else 0.5 * (lo + hi)
        rho, taken, last_newton = step, abs(step - rho), abs(newton)
    return float(grid[best]) if objective(rho) < vals[best] else rho


def fit(y, curves=None, compositions=None, scalars=None, *, weights, pve: float = 0.7,
        bandwidth: float | None = None, grid_size: int = 100, derivative: bool = False,
        rho: float | None = None, std_errors: bool = False,
        scalar_labels=None) -> FitResult:
    """End-to-end estimation on mixed covariates.

    Curves (raw observations or an evaluated sample) are reduced to FPC
    scores with truncation level chosen by the cumulative-eigenvalue share
    ``pve``; compositions enter through their ilr coordinates; any covariate
    block may be omitted. ``rho=None`` estimates the spatial lag by profile
    likelihood, otherwise the given value is held fixed. ``sigma2_hat`` and
    ``loglik``, the full log-likelihood, are the design's profile at rho_hat,
    which rejects a rho outside (-1, 1); its ln|I - rho W| is that of
    ``SpatialWeights.log_det``, where a non-bipartite W's one exception to call
    order is set out.

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
    weights : SpatialWeights, or array_like, shape (n, n)
        Row-stochastic spatial weights, no isolated units, such as what
        ``rook_lattice`` or ``knn_inverse_distance`` returns. Fits that share
        one :class:`~mixsar.spatial.SpatialWeights` check W once and decompose
        it once; an array is checked and wrapped in a fresh one for this fit.
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
    require_fraction(pve, "pve")

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

    rho_hat = optimize_rho(design) if rho is None else float(rho)
    # the profile at rho_hat, in y's units; it checks rho and the residual variance
    n, s = design.n, float(design.scale)
    loglik = design.loglik(rho_hat) - n * (0.5 * math.log(2.0 * math.pi) + 0.5 + math.log(s))
    delta = design.delta(rho_hat)
    resid = design.residuals(rho_hat, delta)
    unit = resid / s
    fitted = solve_system(rho_hat, design.weights, design.Z @ delta)

    def block(name):
        return delta[design.blocks[name]] if name in design.blocks else np.empty(0)

    alpha = float(delta[0])
    b_hat = block("fpc")
    theta = block("ilr")
    beta_scalar = block("scalar")

    beta_t = b_hat @ basis.eigenfunctions[:n_components] if basis is not None else None
    beta_comp = None
    if theta.size:
        try:
            beta_comp = geometry.ilr_inv(theta)
        except ValueError as exc:  # a part of the composition underflows
            warnings.warn(f"beta_comp_hat is None ({exc}); theta_hat holds the estimate")

    y_unit = design.y / s
    sse = float(np.sum((y_unit - fitted / s) ** 2))
    sst = float(np.sum((y_unit - y_unit.mean()) ** 2))
    r_squared = 1.0 - sse / sst if sst > 0 else float("nan")
    result = FitResult(
        rho_hat=rho_hat,
        alpha_hat=alpha,
        b_hat=b_hat,
        theta_hat=theta,
        beta_scalar_hat=beta_scalar,
        sigma2_hat=float(design.sigma2(rho_hat)),
        beta_t_hat=beta_t,
        beta_comp_hat=beta_comp,
        grid=basis.grid if basis is not None else None,
        n_components=n_components,
        loglik=loglik,
        fitted=fitted,
        residuals=resid,
        r_squared=r_squared,
        mse_fitted=sse / n * s * s,
        residual_moran=morans_i(unit, design.weights),
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
    taken from W's eigenvalues. It is the Hessian of y / s, s = the design's
    ``scale``, at (rho, delta / s, sigma2 / s^2), so that no power of sigma2
    leaves the float range; the standard errors take back s and s^2. Returns
    (std_errors, p_values) ordered [rho, *delta, sigma2], or None with a
    warning when the Hessian is not negative definite there.
    """
    s = design.scale
    rho, delta, s2 = result.rho_hat, result.delta_hat / s, result.sigma2_hat / s**2
    params = np.concatenate([[rho], delta, [s2]])
    e = result.residuals / s
    x = np.column_stack([design.wy / s, design.Z])  # d(e/s)/d(rho, delta/s) = -[Wy/s | Z]

    hess = np.empty((params.size, params.size))
    hess[:-1, :-1] = -(x.T @ x) / s2
    hess[0, 0] -= design.weights.traces(rho)[1]
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
    return se * np.concatenate([[1.0], np.full(delta.size, s), [s * s]]), pvals
