"""Exception types shared across the package."""


class QGrapeError(Exception):
    """Base class for all package errors."""


class ValidationError(QGrapeError, ValueError):
    """An input violates a documented precondition or invariant."""


class NumericalStabilityError(QGrapeError, RuntimeError):
    """Propagation produced an invalid state (e.g. positivity loss)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class SingularOutcomeError(QGrapeError, RuntimeError):
    """A measurement outcome has zero probability but nonzero sensitivity,
    so the classical Fisher information diverges."""


class UndefinedRotationError(QGrapeError, ValueError):
    """A single-pulse rotation cannot be constructed from the given state."""


class ConfigError(QGrapeError, ValueError):
    """A scenario configuration file is missing, malformed, or inconsistent."""
