"""Exception types shared across the package.

Input/validation problems raise plain ``ValueError``; numerical failures
(singular systems, non-finite objectives, indefinite Hessians) raise
:class:`NumericalError`.
"""


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons (singularity, divergence)."""
