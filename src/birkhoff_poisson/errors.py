"""Exception types shared across the library.

Everything numerical-domain related derives from NumericalDomainError so the
CLI can map the whole family to a single exit code.
"""


class NumericalDomainError(Exception):
    """Input is outside the numerical domain of an operation."""


class SingularInput(NumericalDomainError):
    """Matrix is singular (or its determinant is not 1) beyond tolerance."""


class StratumAmbiguous(NumericalDomainError):
    """A rank decision during elimination fell inside the ambiguity band
    around the zero threshold; the stratum cannot be classified reliably.

    ``mask`` marks the ambiguous matrices of a factored stack (a 0-d array
    for one matrix); it is None where no factorization raised the error."""

    def __init__(self, message: str = "", mask=None):
        super().__init__(message)
        self.mask = mask


class NotPositiveDefinite(NumericalDomainError):
    """Matrix expected to be Hermitian positive definite is not."""


class SymmetryViolation(NumericalDomainError):
    """A factorization of a Cartan-embedded point broke the expected
    upper/lower factor symmetry; signals a factorization or preset bug."""


class InvalidTangent(NumericalDomainError):
    """Matrix fails the invariants of the tangent subspace it should lie in."""
