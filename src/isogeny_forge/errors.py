"""Shared exception types.

ValueError subclasses signal contract violations by the caller; the remaining
classes signal mathematically meaningful refusals (bad prime, degenerate
curve, exhausted budget) or a certificate that failed its own check.
"""


class DegenerateCurveError(ValueError):
    """Parameters violate a nondegeneracy inequality (e.g. a = b or a = 0)."""


class SingularCurveError(ValueError):
    """A hyperelliptic model with vanishing discriminant where smoothness is required."""


class BadPrimeError(ValueError):
    """The prime divides a quantity that must be invertible for this operation."""


class UnsupportedPrimeError(ValueError):
    """p = 2 requested for an operation defined only at odd primes."""


class InsufficientPrimesError(ValueError):
    """Fewer usable test primes than the certificate contract requires."""


class BudgetExceededError(RuntimeError):
    """Requested enumeration exceeds the desk-scale size contract."""


class CertificateError(RuntimeError):
    """A computed certificate failed its own re-verification (a program bug)."""


class InvalidConfigurationError(ValueError):
    """Slot/curve configuration of a symbol relation is inconsistent."""
