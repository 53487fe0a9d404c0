"""Spatial weight matrices, the spatial system I - rho W, and spatial diagnostics.

Weight matrices are dense ``(n, n)`` float arrays with zero diagonals and row
sums of 1 (all-zero rows mark isolated units and are rejected by consumers
that need a fully connected system). Constructors here always return
row-normalized matrices. Weights travel either as such arrays or as a
:class:`SpatialWeights`: one validated, fully connected matrix and its
eigenvalues, computed once for all fits that share it, which make each
ln|I - rho W| O(n) (Ord 1975). This module owns I - rho W: one builder,
which checks |rho| < 1, serves the dense ``log_det_system`` and ``solve_system``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class MoranReport:
    """Moran's I with moments under the normality assumption.

    ``z_score``/``p_value`` (two-sided) use the normal approximation; for
    n == 2 the variance degenerates and the inference fields are NaN.
    """

    statistic: float
    expectation: float
    variance: float
    z_score: float
    p_value: float


def _check_matrix(w) -> np.ndarray:
    """Square, finite, zero diagonal, non-negative: what any weight matrix must be."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix contains non-finite entries")
    if np.any(np.diag(w) != 0):
        raise ValueError("weight matrix diagonal must be zero")
    if np.any(w < 0):
        raise ValueError("weight matrix entries must be non-negative")
    return w


def validate_weights(w, allow_isolated: bool = True) -> np.ndarray:
    """Check square shape, finiteness, zero diagonal, non-negativity, unit (or zero) row sums."""
    w = _check_matrix(w)
    sums = w.sum(axis=1)
    zero_rows = np.flatnonzero(sums == 0)
    bad = np.flatnonzero((sums != 0) & (np.abs(sums - 1.0) > 1e-10))
    if bad.size:
        raise ValueError(f"rows {bad.tolist()} are neither zero nor normalized (sums {sums[bad]})")
    if zero_rows.size and not allow_isolated:
        raise ValueError(f"isolated units (all-zero rows): {zero_rows.tolist()}")
    return w


def row_normalize(w) -> np.ndarray:
    """Divide each row of a non-negative zero-diagonal matrix by its sum."""
    w = _check_matrix(w)
    sums = w.sum(axis=1)
    zero_rows = np.flatnonzero(sums == 0)
    if zero_rows.size:
        raise ValueError(f"cannot normalize all-zero rows: units {zero_rows.tolist()}")
    return w / sums[:, None]


def rook_lattice(n_rows: int, n_cols: int) -> np.ndarray:
    """Row-normalized rook-contiguity weights on an R x T grid.

    Units are indexed row-major; two cells are neighbours when they share a
    border (one step horizontally or vertically).
    """
    for name, size in (("n_rows", n_rows), ("n_cols", n_cols)):
        if not isinstance(size, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {size!r}")
    if n_rows < 1 or n_cols < 1 or n_rows * n_cols < 2:
        raise ValueError("lattice needs at least 2 cells")
    n = n_rows * n_cols
    cell = np.arange(n).reshape(n_rows, n_cols)
    adj = np.zeros((n, n))
    for a, b in ((cell[:, :-1], cell[:, 1:]), (cell[:-1], cell[1:])):
        adj[a, b] = adj[b, a] = 1.0
    return row_normalize(adj)


def pairwise_distances(locations, metric: str = "euclidean") -> np.ndarray:
    """Dense distance matrix; metric is "euclidean" or "greatcircle".

    Great-circle treats columns as (longitude, latitude) in degrees and
    returns central angles in degrees.
    """
    pts = np.asarray(locations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("locations must be an (n, 2) array")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        bad = np.flatnonzero(~finite).tolist()
        raise ValueError(f"non-finite location coordinates at units {bad}")
    if metric == "euclidean":
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1))
    if metric == "greatcircle":
        lon, lat = np.radians(pts).T
        s = (np.sin((lat[:, None] - lat[None, :]) / 2.0) ** 2
             + np.cos(lat)[:, None] * np.cos(lat)[None, :]
             * np.sin((lon[:, None] - lon[None, :]) / 2.0) ** 2)
        return np.degrees(2.0 * np.arcsin(np.minimum(1.0, np.sqrt(s))))
    raise ValueError(f"unknown metric {metric!r}; use 'euclidean' or 'greatcircle'")


def knn_inverse_distance(locations, k: int, cutoff: float, metric: str = "euclidean") -> np.ndarray:
    """Inverse-distance weights over the k nearest neighbours within a cutoff.

    For each unit the k nearest other units with distance <= cutoff are kept
    (ties at the k-th distance resolved toward the lower index), weighted by
    1/distance, then row-normalized. A unit that retains no neighbour is an
    error naming the unit.
    """
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    dist = pairwise_distances(locations, metric)
    n = dist.shape[0]
    np.fill_diagonal(dist, np.inf)  # each unit sorts itself last
    if np.any(dist <= 0):
        raise ValueError("all pairwise distances must be positive (duplicate locations?)")

    rows = np.arange(n)[:, None]
    # stable sort on distance keeps lower indices first among ties
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :min(k, n - 1)]
    near = dist[rows, nearest]
    within = near <= cutoff
    isolated = np.flatnonzero(~within.any(axis=1)).tolist()
    if isolated:
        raise ValueError(f"units with no neighbour within cutoff {cutoff}: {isolated}")
    w = np.zeros((n, n))
    w[rows, nearest] = np.where(within, 1.0 / near, 0.0)
    return row_normalize(w)


def _matrix_of(w):
    """The array behind weights given as an array or a :class:`SpatialWeights`."""
    return w.matrix if isinstance(w, SpatialWeights) else w


def _system_matrix(rho: float, w) -> np.ndarray:
    """I - rho W, for square W (an array or a :class:`SpatialWeights`) and |rho| < 1."""
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    w = np.asarray(_matrix_of(w), dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    a = -rho * w
    np.fill_diagonal(a, a.diagonal() + 1.0)
    return a


def log_det_system(rho: float, w) -> float:
    """ln |det(I - rho W)|: Re sum ln(1 - rho lambda) over the eigenvalues of a
    :class:`SpatialWeights`, O(n) once known, or a pivoted LU of an array.

    Raises :class:`NumericalError` when the determinant is non-positive,
    vanishes or is not finite; for row-stochastic W and |rho| < 1 the system
    is guaranteed nonsingular with positive determinant.
    """
    if isinstance(w, SpatialWeights):
        if not abs(rho) < 1.0:
            raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
        sign, logdet = 1.0, float(np.log1p(-rho * w.eigenvalues).sum().real)
    else:
        sign, logdet = np.linalg.slogdet(_system_matrix(rho, w))
    if sign == 0.0:
        raise NumericalError(f"I - rho W is singular at rho={rho}")
    if sign < 0.0:
        raise NumericalError(f"det(I - rho W) is negative at rho={rho}")
    if not math.isfinite(logdet):
        raise NumericalError(f"ln|det(I - rho W)| is not finite at rho={rho}")
    return float(logdet)


def solve_system(rho: float, w, rhs) -> np.ndarray:
    """Solve (I - rho W) x = rhs, for W an array or a :class:`SpatialWeights`.

    Raises ``ValueError`` naming the non-finite entries of W, and
    :class:`NumericalError` if the system is singular or the solution is not
    finite.
    """
    a = _system_matrix(rho, w)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"weight matrix has {len(bad)} non-finite entries, at (row, col) "
                         f"{bad[:10].tolist()}{' ...' if len(bad) > 10 else ''}")
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"I - rho W is singular at rho={rho}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"solution of (I - rho W) x = rhs is not finite at rho={rho}")
    return x


def _spectrum(w: np.ndarray) -> np.ndarray:
    """W's eigenvalues: ``eigvalsh`` of S = sqrt(W o W') if W is similar to S
    (as D^-1 A is for symmetric A), else ``eigvals(W)``. A closed walk of S
    weighs the geometric mean of a walk of W and its reverse, so tr(S^k) <=
    tr(W^k): ln|I - rho S| - ln|I - rho W| grows with rho > 0, and one dense
    check at 0.999 bounds it for every |rho| <= 0.999."""
    if np.array_equal(w > 0, w.T > 0):
        lam = np.linalg.eigvalsh(np.sqrt(w * w.T))
        gap = np.sum(np.log1p(-0.999 * lam)) - np.linalg.slogdet(_system_matrix(0.999, w))[1]
        if abs(gap) <= 1e-10 * w.shape[0]:
            return lam
    return np.linalg.eigvals(w)


class SpatialWeights:
    """One fully connected weight matrix and, from first use, its eigenvalues.

    ``matrix`` is what ``validate_weights(w, allow_isolated=False)`` returns,
    made read-only; it shares memory with ``w`` when ``w`` already is a float
    array, so ``w`` must not change afterwards. ``eigenvalues`` (read-only,
    real or complex) is computed on first use; a pickled copy carries it. The
    sums over W that Moran's I needs are computed once, with the object.
    """

    def __init__(self, w):
        self.matrix = validate_weights(w, allow_isolated=False).view()
        self.matrix.flags.writeable = False
        self._eigenvalues = None
        self._moran_sums = _sums_of(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self.__setstate__({"_eigenvalues": _spectrum(self.matrix)})
        return self._eigenvalues

    def __reduce__(self):
        return type(self), (self.matrix,), {"_eigenvalues": self._eigenvalues}

    def __setstate__(self, state):  # also marks freshly computed eigenvalues read-only
        self._eigenvalues = state["_eigenvalues"]
        if self._eigenvalues is not None:
            self._eigenvalues.flags.writeable = False


def _sums_of(w: np.ndarray) -> tuple[float, float, float]:
    """S0, S1 and S2 of Moran's I moments, which depend on W alone."""
    s0 = float(w.sum())
    s1 = 0.5 * float(((w + w.T) ** 2).sum())
    s2 = float(((w.sum(axis=1) + w.sum(axis=0)) ** 2).sum())
    return s0, s1, s2


def morans_i(values, w) -> MoranReport:
    """Global Moran's I of ``values`` under weight matrix ``w``.

    I = (n / S0) * (z' W z) / (z' z) with z the centered values. Moments are
    the closed forms under the normality assumption; the p-value is the
    two-sided normal approximation. ``w`` is an array, validated here, or a
    :class:`SpatialWeights`, whose matrix and sums over W are reused.
    """
    x = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"values have {bad.size} non-finite entries, at units "
                         f"{bad[:10].tolist()}{' ...' if bad.size > 10 else ''}")
    if isinstance(w, SpatialWeights):
        w, (s0, s1, s2) = w.matrix, w._moran_sums
    else:
        w = validate_weights(w)
        s0, s1, s2 = _sums_of(w)
    n = x.size
    if w.shape[0] != n:
        raise ValueError(f"{n} values but {w.shape[0]}x{w.shape[0]} weights")
    if n < 2:
        raise ValueError("need at least 2 units")
    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise ValueError("values are constant; Moran's I is undefined")
    if s0 == 0.0:
        raise ValueError("weight matrix is all zero")
    stat = n / s0 * float(z @ w @ z) / denom

    expectation = -1.0 / (n - 1)
    var = (n**2 * s1 - n * s2 + 3 * s0**2) / (s0**2 * (n**2 - 1)) - expectation**2
    if var > 0:
        z_score = (stat - expectation) / math.sqrt(var)
        p_value = math.erfc(abs(z_score) / math.sqrt(2))
    else:
        # degenerate configuration (e.g. n == 2): statistic is fine,
        # normal-theory inference is not
        z_score = float("nan")
        p_value = float("nan")
    return MoranReport(stat, expectation, var, z_score, p_value)
