"""Compositional data in the Aitchison geometry: closure and ilr coordinates.

A composition is a vector of ``d >= 2`` strictly positive parts summing to 1.
Compositions are represented as plain float arrays; every operation validates
its inputs, so arrays coming out of :func:`closure` and :func:`ilr_inv` are
always valid compositions. All functions accept a single composition (1-d
array) or a stack of compositions (2-d array, one row per composition). ilr is
an isometry, <x, y>_a = ilr(x) . ilr(y) (Egozcue et al. 2003), so the model
works with compositions in ilr coordinates only.

The ilr transformation uses the sequential-binary-partition orthonormal basis:
coordinate ``i`` (1-based) contrasts part ``i`` against the geometric mean of
the remaining parts ``i+1 .. d``. Its inverse goes through clr space
(reconstruct the log-contrasts, exponentiate, close), which is numerically
safe for large coordinates.
"""

from __future__ import annotations

import numpy as np

from .errors import require_finite, require_int

# Parts this small after closure are structural zeros in disguise; reject them.
_MIN_PART = 1e-300
_SUM_TOL = 1e-10


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"{name} must be a 1-d or 2-d array, got ndim={arr.ndim}")
    if arr.shape[-1] < 2:
        raise ValueError(f"{name} needs at least 2 parts, got {arr.shape[-1]}")
    return require_finite(arr, name)


def _check_composition(x, name: str = "composition") -> np.ndarray:
    arr = _as_float_array(x, name)
    if np.any(arr <= 0):
        raise ValueError(f"{name} has non-positive parts; compositions must be strictly positive")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _SUM_TOL):
        raise ValueError(f"{name} parts do not sum to 1 (max deviation {np.max(np.abs(sums - 1.0)):.3e})")
    return arr


def closure(raw) -> np.ndarray:
    """Normalize strictly positive raw parts onto the simplex.

    Parameters
    ----------
    raw : array_like, shape (d,) or (n, d)
        Strictly positive values, e.g. raw industry outputs.

    Returns
    -------
    ndarray
        Same shape, each composition rescaled to sum to 1.
    """
    arr = _as_float_array(raw, "raw parts")
    if np.any(arr <= 0):
        raise ValueError("closure requires strictly positive parts")
    out = arr / arr.sum(axis=-1, keepdims=True)
    if np.any(out < _MIN_PART):
        raise ValueError("closure produced a part below 1e-300; zeros are invalid in Aitchison geometry")
    return out


def _clr(arr: np.ndarray) -> np.ndarray:
    logs = np.log(arr)
    return logs - logs.mean(axis=-1, keepdims=True)


def ilr_basis(n_parts: int) -> np.ndarray:
    """Orthonormal log-contrast matrix of the sequential binary partition.

    Row ``i`` (0-based) carries sqrt((d-i-1)/(d-i)) on part ``i`` and
    -1/sqrt((d-i-1)(d-i)) on parts ``i+1 .. d-1``. Rows are orthonormal and
    sum to zero, so ``ilr(x) = basis @ clr(x)``.
    """
    d = require_int(n_parts, "n_parts", 2)
    basis = np.zeros((d - 1, d))
    for i in range(d - 1):
        r = d - i - 1  # number of parts to the right
        basis[i, i] = np.sqrt(r / (r + 1))
        basis[i, i + 1:] = -1.0 / np.sqrt(r * (r + 1))
    return basis


def ilr(x) -> np.ndarray:
    """Isometric log-ratio coordinates (length d-1) of a composition."""
    arr = _check_composition(x)
    return _clr(arr) @ ilr_basis(arr.shape[-1]).T


def ilr_inv(coords) -> np.ndarray:
    """Composition represented by ilr coordinates (length d-1).

    Inverse of :func:`ilr` through clr space: parts proportional to
    exp(basis' @ coords), closed onto the simplex.
    """
    arr = np.asarray(coords, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"ilr coordinates must be 1-d or 2-d, got ndim={arr.ndim}")
    require_finite(arr, "ilr coordinates")
    logs = arr @ ilr_basis(arr.shape[-1] + 1)
    logs = logs - logs.max(axis=-1, keepdims=True)
    return closure(np.exp(logs))
