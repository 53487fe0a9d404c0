"""Spatial weight matrices, the spatial system I - rho W, and spatial diagnostics.

A weight matrix W has a zero diagonal, non-negative entries and row sums of 1;
an all-zero row marks an isolated unit, which no W may have. A
:class:`SpatialWeights` is one validated W, kept as its edges: the (i, j) with
w_ij > 0, sorted row-major. It answers what fits ask of W: its unit count, the
spatial lag W x, one product over the edges, its eigenvalues, computed once
and carried by every copy, which make each ln|I - rho W| O(n) (Ord 1975), the
traces of (I - rho W)^-1 W and its square, and every log-det and solve of
I - rho W. The 201 log-dets at ``RHO_GRID``, the points that every profile
search scans, depend on W alone: they are taken once per object, by one
broadcast log1p over the eigenvalues, and each is then a lookup (Pace & Barry
1997). ``rook_lattice`` and ``knn_inverse_distance`` build their W from its
edges, and ``SpatialWeights(w)`` checks an array ``w`` as the edges it holds,
its non-zero entries: one rule (:func:`_check_edges`) says what a W is, with
one message for each fault. A :class:`SpatialWeights` is checked when it is
built and decomposed once for every fit, solve and Moran's I that shares it.
``log_det_system``, ``solve_system``, ``morans_i`` and a design take an array W
too, by checking it and wrapping it in a fresh one (:meth:`SpatialWeights.of`).

W's eigenvalues come from a symmetric matrix whenever W allows it. W = D^-1 A
with symmetric A, as rook and other symmetric contiguity weights are, is
reversible: some pi > 0 has pi_i w_ij = pi_j w_ji on every edge, so W is
similar to S = sqrt(W o W') = Pi^1/2 W Pi^-1/2. One breadth-first search over
W's edges, O(n + nnz), sets pi along a spanning tree of each connected
component, and every edge is then checked against it to a relative tau =
1e-12. Every eigenvalue of W lies within (tau / 2)(1 + O(tau)) of one of S
(Bauer-Fike, S being normal). The same search 2-colours the graph. A
bipartite W, such as a rook lattice, has S = [[0, B], [B', 0]] up to a
permutation, whose eigenvalues are the singular values of B, their negatives,
and zeros (Cvetkovic, Doob & Sachs, *Spectra of Graphs*). They come from the
Gram matrix G = B B', whose side n1 is the smaller colour class. Taken as
square roots, eigenvalues near zero are accurate to about sqrt(eps) only; but
as the spectrum pairs lambda with -lambda, every sum taken over it depends on
lambda^2 alone: ln|I - rho W| = sum ln(1 - rho^2 lambda^2) over the pairs,
and the traces likewise. Any other W is decomposed by the general ``eigvals``.

The same split solves the system. A :class:`SpatialWeights` with a reversible
bipartite W keeps the smaller colour class, sqrt(pi) on it, and one ``eigh``
of G = Q diag(mu) Q', which gives its eigenvalues and each ``solve_system``:
x_a = Pi_a^-1/2 Q ((Q' r) / (1 - rho^2 mu)), by two products with Q and two
lags. Any other W is solved by a pivoted LU of I - rho W, which forms W's
(n, n) matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, require_finite, require_int

RHO_BOUND = 0.999
RHO_GRID = np.linspace(-RHO_BOUND, RHO_BOUND, 201)  # the rho that every profile search scans
RHO_GRID.flags.writeable = False
_ON_GRID = frozenset(RHO_GRID.tolist())
_REVERSIBLE_RTOL = 1e-12  # tau: how far pi_i w_ij and pi_j w_ji may differ, relatively
_EDGE_BLOCK = 1 << 16  # edges per block of w_ji that _transposed looks up; no query is nnz long


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


def _check_edges(n: int, i, j, w_ij) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of a W of n units as int32 i and j and float w_ij, once they
    pass the one check of a W, which an array's :func:`_edges` take too: finite,
    a non-finite w_ij named at its (row, col), no self-loop, no negative weight,
    and rows that sum to 1, to 1e-10, an all-zero row, an isolated unit, being
    an error of its own. An edge must also join two of the n units, have a
    positive weight, and come after the one before it in row-major order, so
    that no (i, j) repeats. What is already int32 or float is not copied."""
    require_int(n, "n", 1)
    i, j, w_ij = np.asarray(i), np.asarray(j), np.asarray(w_ij, dtype=float)
    if not (i.shape == j.shape == w_ij.shape == (w_ij.size,)
            and {i.dtype.kind, j.dtype.kind} <= {"i", "u"}):
        raise ValueError("edges must be three 1-d arrays of one length, i and j integer: "
                         f"got {i.dtype}{i.shape}, {j.dtype}{j.shape} and {w_ij.shape}")
    require_finite(w_ij, "weight matrix", cells=(i, j))
    outside = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
    if outside.size:
        raise ValueError(f"edges must join units 0 to {n - 1}, got (row, col) "
                         f"{np.column_stack([i, j])[outside[:10]].tolist()}")
    if np.any(i == j):
        raise ValueError("weight matrix diagonal must be zero")
    if np.any(w_ij < 0):
        raise ValueError("weight matrix entries must be non-negative")
    if not np.all(w_ij > 0):
        raise ValueError("edge weights must be positive; a zero weight is no edge")
    after = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    if not after.all():
        k = int(np.argmin(after)) + 1
        raise ValueError(f"edges must be unique and sorted row-major: edge {k}, (row, col) "
                         f"{[int(i[k]), int(j[k])]}, is not after {[int(i[k - 1]), int(j[k - 1])]}")
    sums = np.bincount(i, w_ij, minlength=n)
    bad = np.flatnonzero((sums != 0) & (np.abs(sums - 1.0) > 1e-10))
    if bad.size:
        raise ValueError(f"rows {bad.tolist()} are neither zero nor normalized (sums {sums[bad]})")
    zero_rows = np.flatnonzero(sums == 0)
    if zero_rows.size:
        raise ValueError(f"isolated units (all-zero rows): {zero_rows.tolist()}")
    return i.astype(np.int32, copy=False), j.astype(np.int32, copy=False), w_ij


def lattice_units(n_rows: int, n_cols: int) -> int:
    """The unit count n_rows n_cols of a lattice, once each side is an integer
    >= 1 and there are at least 2 cells: the one check of a lattice's size."""
    n = require_int(n_rows, "n_rows", 1) * require_int(n_cols, "n_cols", 1)
    if n < 2:
        raise ValueError("lattice needs at least 2 cells")
    return n


def rook_lattice(n_rows: int, n_cols: int) -> SpatialWeights:
    """Row-normalized rook-contiguity weights on an R x T grid, as a
    :class:`SpatialWeights` built from its edges, in O(n), with
    w_ij = 1 / deg_i; its ``matrix``, the (n, n) array, is formed on first use.

    Units are indexed row-major; two cells are neighbours when they share a
    border (one step horizontally or vertically).
    """
    n = lattice_units(n_rows, n_cols)
    cell = np.arange(n).reshape(n_rows, n_cols)
    # each cell's neighbours above, left, right and below, in ascending order; -1 off the grid
    near = np.full((n_rows, n_cols, 4), -1)
    near[1:, :, 0], near[:, 1:, 1] = cell[:-1], cell[:, :-1]
    near[:, :-1, 2], near[:-1, :, 3] = cell[:, 1:], cell[1:]
    near = near.reshape(n, 4)
    degree = np.count_nonzero(near >= 0, axis=1)
    i = np.repeat(np.arange(n), degree)
    return SpatialWeights.from_edges(n, i, near[near >= 0], 1.0 / degree[i])


def pairwise_distances(locations, metric: str = "euclidean") -> np.ndarray:
    """Dense distance matrix; metric is "euclidean" or "greatcircle".

    Great-circle treats columns as (longitude, latitude) in degrees and
    returns central angles in degrees.
    """
    pts = np.asarray(locations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("locations must be an (n, 2) array")
    require_finite(pts, "locations")
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


def knn_inverse_distance(locations, k: int, cutoff: float,
                         metric: str = "euclidean") -> SpatialWeights:
    """Inverse-distance weights over the k nearest neighbours within a cutoff,
    as a :class:`SpatialWeights` built from its edges, as ``rook_lattice``'s
    is; its ``matrix``, the (n, n) array, is formed on first use.

    For each unit the k nearest other units with distance <= cutoff are kept
    (ties at the k-th distance resolved toward the lower index), weighted by
    1/distance, then row-normalized. A unit that retains no neighbour is an
    error naming the unit.
    """
    require_int(k, "k", 1)
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    dist = pairwise_distances(locations, metric)
    n = dist.shape[0]
    np.fill_diagonal(dist, np.inf)  # no unit is its own neighbour
    if np.any(dist <= 0):
        raise ValueError("all pairwise distances must be positive (duplicate locations?)")

    # the m nearest, ties at the m-th distance d_m going to the lower indices
    m = min(k, n - 1)
    d_m = np.partition(dist, m - 1, axis=1)[:, m - 1:m]
    nearer = dist < d_m
    tie = dist == d_m
    near = nearer | (tie & (np.cumsum(tie, axis=1) <= m - nearer.sum(axis=1, keepdims=True)))
    within = near & (dist <= cutoff)
    isolated = np.flatnonzero(~within.any(axis=1)).tolist()
    if isolated:
        raise ValueError(f"units with no neighbour within cutoff {cutoff}: {isolated}")
    w = np.where(within, 1.0 / dist, 0.0)
    i, j = np.nonzero(within)
    return SpatialWeights.from_edges(n, i, j, w[i, j] / w.sum(axis=1)[i])


def _check_rho(rho: float) -> float:
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    return float(rho)


def _system_matrix(rho: float, w: np.ndarray) -> np.ndarray:
    """I - rho W, for a checked W."""
    a = -rho * w
    np.fill_diagonal(a, a.diagonal() + 1.0)
    return a


def log_det_system(rho: float, w) -> float:
    """ln |det(I - rho W)| by :meth:`SpatialWeights.log_det`; an array W is
    checked and wrapped in a fresh one (:meth:`SpatialWeights.of`)."""
    return SpatialWeights.of(w).log_det(rho)


def solve_system(rho: float, w, rhs) -> np.ndarray:
    """Solve (I - rho W) x = rhs by :meth:`SpatialWeights.solve`; an array W
    is checked and wrapped in a fresh one (:meth:`SpatialWeights.of`)."""
    return SpatialWeights.of(w).solve(rho, rhs)


def _edges(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges ``(i, j, w_ij)`` that an (n, n) array W holds, unchecked: its
    non-zero entries, NaN and negative ones too, in row-major order, i and j as
    int32, from their flat positions k, with no division: i repeats each row's
    index as often as k falls in that row, and j = k - n i."""
    n = w.shape[0]
    k = np.flatnonzero(w != 0)
    w_ij = w.ravel()[k]
    per_row = np.diff(np.searchsorted(k, np.arange(n + 1) * n))
    i = np.repeat(np.arange(n, dtype=np.int32), per_row)
    k -= np.multiply(i, n, dtype=np.int64)
    return i, k.astype(np.int32), w_ij


def _transposed(edges) -> np.ndarray:
    """w_ji on each of W's edges (i, j), 0 where W has no edge (j, i), looked up
    among the edges' keys i m + j, ascending as the edges are sorted, m being one
    above the largest index, which are int32 while m^2 fits, 4 bytes per edge;
    ``_EDGE_BLOCK`` edges are looked up at a time."""
    i, j, w_ij = edges
    w_ji = np.zeros_like(w_ij)
    m = int(max(i.max(initial=-1), j.max(initial=-1))) + 1
    kind = np.int32 if m * m <= np.iinfo(np.int32).max else np.int64
    keys = i.astype(kind)
    keys *= m
    keys += j
    for start in range(0, keys.size, _EDGE_BLOCK):
        e = slice(start, start + _EDGE_BLOCK)
        query = j[e].astype(kind) * m + i[e]
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        w_ji[e] = np.where(keys[at] == query, w_ij[at], 0.0)
    return w_ji


@dataclass(frozen=True, eq=False)
class _Bipartite:
    """A reversible bipartite W, split by colour class: with pi from
    :func:`_search`, S = Pi^1/2 W Pi^-1/2 is [[0, B], [B', 0]] in the order
    (a, b) of the classes. It keeps ``a``, the smaller, of n1 units, ``root`` =
    sqrt(pi) on a, and ``mu``, ascending, and ``q`` of G = B B' = Q diag(mu) Q'.
    """

    a: np.ndarray
    root: np.ndarray
    mu: np.ndarray
    q: np.ndarray

    def solve(self, rho: float, w: SpatialWeights, rhs: np.ndarray) -> np.ndarray:
        """(I - rho W) x = rhs, for this split's W, in O(n1^2 + nnz). As
        W_aa = W_bb = 0 and W_ab W_ba = Pi_a^-1/2 G Pi_a^1/2, x_a = Pi_a^-1/2 Q
        ((Q' r) / (1 - rho^2 mu)) for r = Pi_a^1/2 (rhs_a + rho (W rhs)_a),
        taken as Pi_a^-1/2 (r + Q ((rho^2 mu / (1 - rho^2 mu)) Q' r)), whose
        rounding vanishes at rho = 0, and x_b = rhs_b + rho (W x)_b, with x taken
        as 0 on b. Each W x is the lag :meth:`SpatialWeights.lag`."""
        trailing = tuple(range(1, rhs.ndim))
        root = np.expand_dims(self.root, trailing)
        gain = np.expand_dims((rho * rho) * self.mu, trailing)
        r = root * (rhs[self.a] + rho * w.lag(rhs)[self.a])
        x = np.zeros_like(rhs)
        x[self.a] = (r + self.q @ (gain / (1.0 - gain) * (self.q.T @ r))) / root
        out = rhs + rho * w.lag(x)
        out[self.a] = x[self.a]
        return out


def _route_of(n: int, edges) -> str | _Bipartite:
    """How the W of n units with these :func:`_edges` is decomposed and solved.

    W is reversible if its support is symmetric and pi_i w_ij and pi_j w_ji,
    with pi from :func:`_search`, agree on every edge to a relative tau =
    ``_REVERSIBLE_RTOL``. Returns "eigvals" for a W that is not, "eigvalsh"
    for a reversible W with an edge inside a colour class, and else the
    :class:`_Bipartite` split, by one ``eigh`` of G = B B', B scattered from
    the edges into a dense temporary: b_pq = sqrt(w_ij w_ji) for unit i, the
    p-th of class a, and j, the q-th of class b, w_ji from :func:`_transposed`.
    """
    i, j, w_ij = edges
    w_ji = _transposed(edges)
    if not np.all(w_ji > 0):
        return "eigvals"
    colour, pi = _search(n, (i, j, w_ij, w_ji))
    flow = pi[i] * w_ij  # a flow that underflows to 0 would pass vacuously
    if not np.all((np.abs(flow - pi[j] * w_ji) <= _REVERSIBLE_RTOL * flow) & (flow > 0)):
        return "eigvals"
    if np.any(colour[i] == colour[j]):
        return "eigvalsh"
    in_a = colour if 2 * np.count_nonzero(colour) <= n else ~colour
    a, b = np.flatnonzero(in_a), np.flatnonzero(~in_a)
    rank = np.empty(n, dtype=np.intp)
    rank[a], rank[b] = np.arange(a.size), np.arange(b.size)
    out = in_a[i]
    dense = np.zeros((a.size, b.size))
    dense[rank[i[out]], rank[j[out]]] = np.sqrt(w_ij[out] * w_ji[out])
    return _Bipartite(a, np.sqrt(pi[a]), *np.linalg.eigh(dense @ dense.T))


def _spectrum(w, route: str | _Bipartite) -> np.ndarray:
    """The eigenvalues of W, a :class:`SpatialWeights` or an array, from the
    cheapest matrix that W's ``route`` (:func:`_route_of`) allows, as the module
    docstring sets out: +-sqrt(mu) and zeros from the mu that a bipartite route
    holds, with no (n, n) array, ``eigvalsh(S)`` for any other reversible W, and
    ``eigvals(W)`` for the rest, which read W's matrix. No I - rho W is formed."""
    if route == "eigvals":
        return np.linalg.eigvals(np.asarray(w))
    if route == "eigvalsh":
        w = np.asarray(w)
        return np.linalg.eigvalsh(np.sqrt(w * w.T))
    sigma = np.sqrt(np.clip(route.mu, 0.0, None))
    return np.concatenate([-sigma[::-1], np.zeros(len(w) - 2 * sigma.size), sigma])


def _search(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search of the graph of W's edges (i, j, w_ij, w_ji), from
    each of the n units that no earlier search reached. Returns each unit's
    colour, which is the parity of its depth, and pi: 1 at each root, and
    pi_u w_uv / w_vu at a unit v first reached from u."""
    i, j, w_ij, w_ji = edges
    start = np.searchsorted(i, np.arange(n + 1)).tolist()
    neighbours, forward, back = j.tolist(), w_ij.tolist(), w_ji.tolist()
    seen, colour, pi = [False] * n, [False] * n, [1.0] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for e in range(start[u], start[u + 1]):
                v = neighbours[e]
                if not seen[v]:
                    seen[v], colour[v] = True, not colour[u]
                    pi[v] = pi[u] * forward[e] / back[e]
                    queue.append(v)
    return np.array(colour), np.array(pi)


class SpatialWeights:
    """One weight matrix with no isolated unit, kept as its edges, which answers
    every spectral question.

    What it keeps is W's edges, int32 i and j and float w_ij, sorted row-major,
    16 bytes per edge. ``SpatialWeights(w)`` checks that an array ``w`` is
    square and then checks the edges it holds (:func:`_edges`), and
    :meth:`from_edges` checks copies of edges as given, both by the one rule
    :func:`_check_edges`. ``matrix`` is W as a read-only (n, n) array. An
    object built from an array keeps that array, made read-only, which shares
    memory with ``w`` when ``w`` already is a float array, so ``w`` must not
    change afterwards.
    An object built from edges forms its matrix only on first use: by the
    ``eigvals`` and ``eigvalsh`` routes, the LU log-det and solve, and numpy's
    array protocol, through which ``np.asarray(weights)`` is the read-only
    matrix and ``np.array(weights)`` a writable copy; arithmetic and indexing go
    through ``matrix`` too. A reversible bipartite W, a rook lattice's, never
    needs it. ``len`` is n and ``shape`` is (n, n).

    W is checked and its edges found once per object, and its route and
    eigenvalues at most once, so that every fit, solve and Moran's I that
    shares the object reuses them; wrapping the object again is a
    ``ValueError``. ``eigenvalues`` (read-only, real or complex; see the module
    docstring on their accuracy) is computed on first use; for a bipartite W it
    is read from the route, which the first log-det or solve finds. ``traces``
    comes from it, and so do :meth:`log_det` and the table of ln|I - rho W| at
    the 201 points of ``RHO_GRID``, 201 more floats, built on the first log-det
    at a grid point.

    The edges give every W x (:meth:`lag`), the sums over W that Moran's I
    needs and, with each w_ji looked up among them (:func:`_transposed`), W's
    route (:func:`_route_of`). That of a reversible bipartite W keeps G's
    eigenvectors Q, the 8 n1^2 bytes that G took (1.6 MB on a 30 x 30 rook
    lattice), and mu, the smaller colour class and sqrt(pi) on it, 24 n1 bytes.
    A pickled copy carries the edges, the sums, the route and the eigenvalues,
    not the matrix: it checks and decomposes nothing, and rebuilds the table
    from them in O(201 n).
    """

    def __init__(self, w):
        if isinstance(w, SpatialWeights):
            raise ValueError("w is already a SpatialWeights; pass it as it is")
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        edges = _check_edges(len(w), *_edges(w))
        self.matrix = w.view()
        self.matrix.flags.writeable = False
        self._hold(len(w), edges, _sums_of(edges))

    @classmethod
    def from_edges(cls, n: int, i, j, w_ij) -> SpatialWeights:
        """The W of n units whose edges are (i[k], j[k]) with weights w_ij[k],
        sorted row-major, checked on copies by :func:`_check_edges`, the rule
        that an array W's edges take too."""
        edges = _check_edges(n, np.array(i), np.array(j), np.array(w_ij, dtype=float))
        return cls._of_checked_edges(n, edges, _sums_of(edges))

    @classmethod
    def _of_checked_edges(cls, n: int, edges, moran_sums) -> SpatialWeights:
        """The W of n units with edges already checked and their S0, S1 and S2:
        what :meth:`from_edges` and a pickled copy build, the copy checking and
        summing nothing again."""
        weights = cls.__new__(cls)
        weights._hold(n, edges, moran_sums)
        return weights

    def _hold(self, n: int, edges, moran_sums) -> None:
        self._n, self._edges, self._moran_sums, self._eigenvalues = n, edges, moran_sums, None

    @classmethod
    def of(cls, w) -> SpatialWeights:
        """``w`` as it is when it is a SpatialWeights, else ``w`` checked and
        wrapped in a fresh one: the one way an array W enters a log-det, a
        solve, a Moran's I or a design."""
        return w if isinstance(w, SpatialWeights) else cls(w)

    def __len__(self) -> int:
        return self._n

    @property
    def shape(self) -> tuple[int, int]:
        return self._n, self._n

    @cached_property
    def matrix(self) -> np.ndarray:
        """W as a read-only (n, n) array, scattered from the edges on first use."""
        i, j, w_ij = self._edges
        w = np.zeros(self.shape)
        w[i, j] = w_ij
        w.flags.writeable = False
        return w

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.matrix, dtype=dtype, copy=copy)

    def lag(self, x) -> np.ndarray:
        """W x, in O(nnz), the one product with W: sum_j w_ij x_j over the edges,
        by a bincount for an (n,) x and, for an (n, k) x, by sums over each row's
        run of edges (``np.add.reduceat``), as every row has one. Raises
        ``ValueError`` naming an x of any other shape."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or len(x) != self._n:
            raise ValueError(f"x has shape {x.shape} but W has {self.shape}")
        i, j, w_ij = self._edges
        if x.ndim == 1:
            return np.bincount(i, w_ij * x[j], minlength=self._n)
        starts = np.searchsorted(i, np.arange(self._n))
        return np.add.reduceat(w_ij[:, None] * x[j], starts, axis=0)

    @cached_property
    def _route(self) -> str | _Bipartite:
        return _route_of(self._n, self._edges)

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            self.__setstate__({"_eigenvalues": _spectrum(self, self._route)})
        return self._eigenvalues

    @cached_property
    def _grid_log_dets(self) -> dict[float, float]:
        """ln|I - rho W| at each rho of ``RHO_GRID``, by one broadcast log1p taken
        in place in a (201, n) temporary: each the sum that log_det takes off the grid."""
        table = np.multiply.outer(-RHO_GRID, self.eigenvalues)
        np.log1p(table, out=table)
        return dict(zip(RHO_GRID.tolist(), table.sum(axis=1).real.tolist()))

    def log_det(self, rho: float) -> float:
        """ln |det(I - rho W)|: read from the table at a point of ``RHO_GRID``;
        elsewhere Re sum ln(1 - rho lambda), O(n), for a bipartite W, whose route
        holds its spectrum, and once the eigenvalues are known. Any other W takes
        one pivoted LU until then, so a lone rho on a new W runs no ``eigvals``;
        that log-det alone depends on call order, by rounding.
        Raises :class:`NumericalError` unless the determinant is positive and
        finite, as a row-stochastic W at |rho| < 1 guarantees."""
        rho, sign = _check_rho(rho), 1.0
        if rho in _ON_GRID:
            logdet = self._grid_log_dets[rho]
        elif self._eigenvalues is not None or isinstance(self._route, _Bipartite):
            logdet = float(np.log1p(-rho * self.eigenvalues).sum().real)
        else:
            sign, logdet = np.linalg.slogdet(_system_matrix(rho, self.matrix))
        if sign == 0.0:
            raise NumericalError(f"I - rho W is singular at rho={rho}")
        if sign < 0.0:
            raise NumericalError(f"det(I - rho W) is negative at rho={rho}")
        if not math.isfinite(logdet):
            raise NumericalError(f"ln|det(I - rho W)| is not finite at rho={rho}")
        return float(logdet)

    def solve(self, rho: float, rhs) -> np.ndarray:
        """Solve (I - rho W) x = rhs, through the half-size Gram matrix's eigh
        (:meth:`_Bipartite.solve`) when W is reversible and bipartite, else by a
        pivoted LU. Raises ``ValueError`` naming an rhs without n rows, and
        :class:`NumericalError` if the system is singular or x is not finite."""
        rho = _check_rho(rho)
        if np.shape(rhs)[:1] != self.shape[:1]:
            raise ValueError(f"right-hand side has shape {np.shape(rhs)} but W has {self.shape}")
        route = self._route
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # the check below names it
                if isinstance(route, _Bipartite):
                    x = route.solve(rho, self, np.asarray(rhs, dtype=float))
                else:
                    x = np.linalg.solve(_system_matrix(rho, self.matrix), rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"I - rho W is singular at rho={rho}") from exc
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"solution of (I - rho W) x = rhs is not finite at rho={rho}")
        return x

    def traces(self, rho: float) -> tuple[float, float]:
        """tr G and tr G^2 for G = (I - rho W)^-1 W, from the eigenvalues; |rho| < 1."""
        rho = _check_rho(rho)
        g = self.eigenvalues / (1.0 - rho * self.eigenvalues)
        return float(g.sum().real), float((g * g).sum().real)

    def __reduce__(self):
        return (type(self)._of_checked_edges, (self._n, self._edges, self._moran_sums),
                {"_eigenvalues": self.eigenvalues, "_route": self._route})

    def __setstate__(self, state):  # also marks freshly computed eigenvalues read-only
        self.__dict__.update(state)
        self._eigenvalues.flags.writeable = False


def _sums_of(edges) -> tuple[float, float, float]:
    """S0, S1 and S2 of Moran's I moments, which depend on W alone, from its
    :func:`_edges`: S1 = 0.5 sum (w_ij + w_ji)^2 = sum over the edges of w_ij (w_ij + w_ji),
    formed in place of the w_ji of :func:`_transposed`, and S2 =
    sum_i (w_i. + w_.i)^2, its margins adding each w_ij at i, then at j."""
    i, j, w_ij = edges
    margins = np.bincount(i, w_ij, minlength=int(j.max(initial=-1)) + 1)
    np.add.at(margins, j, w_ij)
    terms = _transposed(edges)
    terms += w_ij
    terms *= w_ij
    return float(w_ij.sum()), float(terms.sum()), float((margins**2).sum())


def morans_i(values, w) -> MoranReport:
    """Global Moran's I of ``values`` under weight matrix ``w``.

    I = (n / S0) * (z' W z) / (z' z) with z the centered values. Moments are
    the closed forms under the normality assumption; the p-value is the
    two-sided normal approximation. ``w`` is a :class:`SpatialWeights`, whose
    edges and sums over W are reused, or an array, checked and wrapped in a
    fresh one (:meth:`SpatialWeights.of`), which admits no W with one unit or
    an all-zero row. z' W z takes W z from :meth:`SpatialWeights.lag`, and the
    sums are taken over W's edges (:func:`_edges`).
    """
    x = require_finite(np.asarray(values, dtype=float).ravel(), "values")
    w = SpatialWeights.of(w)
    n = x.size
    if len(w) != n:
        raise ValueError(f"{n} values but {len(w)}x{len(w)} weights")
    z = x - x.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise ValueError("values are constant; Moran's I is undefined")
    s0, s1, s2 = w._moran_sums
    stat = n / s0 * float(z @ w.lag(z)) / denom

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
