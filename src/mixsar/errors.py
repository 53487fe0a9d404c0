"""Exception types, and the one check for each kind of input.

Bad input raises ``ValueError`` naming the argument and the cause; numerical
failure (a singular system, a non-finite result) raises :class:`NumericalError`,
and an indefinite Wald Hessian only warns. :func:`require_finite` refuses NaN
and inf with ``"{name} has {k} non-finite entries, at indices [..]"``, or ``at
(row, col) [[..]]`` for a 2-d array, listing the first 10; :func:`require_int`
refuses a count with ``"{name} must be an integer >= {minimum}, got {value!r}"``;
:func:`require_fraction` refuses a share outside (0, 1] with ``"{name} must be
in (0, 1]"``.
"""

import numpy as np


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons (singularity, divergence)."""


def require_finite(x: np.ndarray, name: str, cells=None) -> np.ndarray:
    """``x`` as it is, if every entry is finite; positions are found only if not.
    ``cells``, a pair of arrays that give the (row, col) of each entry of a 1-d
    ``x``, as a weight matrix's edges do, names them as a 2-d array's are."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.argwhere(~finite) if np.ndim(x) == 2 else np.flatnonzero(~finite)
        if cells is not None:
            bad = np.column_stack([c[bad] for c in cells])
        two_d = bad.ndim == 2
        raise ValueError(f"{name} has {len(bad)} non-finite entries, at "
                         f"{'(row, col)' if two_d else 'indices'} {bad[:10].tolist()}"
                         f"{' ...' if len(bad) > 10 else ''}")
    return x


def require_int(value, name: str, minimum: int):
    """``value`` as it is, if it is an integer, Python's or numpy's but not a bool,
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """``value`` as it is, if it lies in (0, 1]; NaN does not."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1]")
    return value
