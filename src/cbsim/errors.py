"""Exception types shared across the package."""


class CbsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CbsimError):
    """Unknown scheme, invalid transition index, or inconsistent model setup."""


class DimensionError(CbsimError):
    """Operator shape does not match the expected Hilbert space."""


class DomainError(CbsimError):
    """Parameter outside its physical domain (negative saturation, kr too small, ...)."""


class MultiplicityError(CbsimError):
    """The stationary manifold of a generator is degenerate."""

    def __init__(self, nullity):
        self.nullity = nullity
        super().__init__(f"stationary manifold is degenerate (estimated nullity {nullity})")


class ConditioningError(CbsimError):
    """A linear system is singular or too ill-conditioned to solve reliably."""


class CoverageError(CbsimError):
    """A frequency grid does not cover a predicted spectral feature."""


class ParseError(CbsimError):
    """Run-configuration text is malformed or violates a constraint."""

    def __init__(self, message, line=None, key=None):
        self.line = line
        self.key = key
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)
