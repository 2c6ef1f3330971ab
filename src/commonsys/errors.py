"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems exit 2, failed
verification exits 3, size-cap violations exit 4.
"""


class CommonsysError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDocument(CommonsysError):
    """A system or function document does not match its schema."""


class NotOddPrime(CommonsysError):
    """Modulus is not an odd prime in the supported range 3..31."""


class RankDeficient(CommonsysError):
    """Coefficient matrix has rank strictly less than its row count."""


class NoFreeVariables(CommonsysError):
    """System has no free variables (t <= m), so only the trivial solution."""


class NotCentered(CommonsysError):
    """Operation requires a function with mean zero."""


class TooLarge(CommonsysError):
    """Requested enumeration exceeds the configured size cap."""


class MeanConstraintViolated(MalformedDocument):
    """A function's mean, or a pinned mean, violates the property's mean
    requirement."""


class MissingL(CommonsysError):
    """Free-variable count l is required but was not supplied."""


class LTooSmall(CommonsysError):
    """Free-variable count l is below the threshold for the construction."""


class DegenerateT(CommonsysError):
    """A zero solution density makes the requested quantity undefined."""


class InfeasibleMean(CommonsysError):
    """Target mean lies outside [0, 1]."""


class ZeroPolynomial(CommonsysError):
    """Operation is undefined for the zero polynomial."""


class NotExactlyOneRoot(CommonsysError):
    """Root isolation requires exactly one (sign-changing) root in range."""


class DepthExhausted(CommonsysError):
    """Subdivision reached its depth cap without certifying either way."""


class VerificationFailed(CommonsysError):
    """A certificate failed to verify."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NoSuchL(CommonsysError):
    """No integer below the search cap satisfies all derived conditions."""
