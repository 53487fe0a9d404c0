"""Exception types shared across the package.

Input/validation problems raise plain ``ValueError``; numerical failures
(singular systems, non-finite results) raise :class:`NumericalError`. An
indefinite Wald Hessian only warns (``model.wald_std_errors`` returns None).
"""


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons (singularity, divergence)."""
