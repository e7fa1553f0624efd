"""Exception types shared across the package."""


class ViscowaveError(Exception):
    """Base class for all package errors."""


class ConfigError(ViscowaveError):
    """Invalid configuration, malformed input file, or mismatched sizes."""


class DomainError(ViscowaveError):
    """Argument outside the mathematical domain of an operation."""


class StepError(ViscowaveError):
    """A time step could not be completed.

    ``suggested_dt`` carries a retry step size when the failure is a
    positivity rejection; it is None for hard solver failures.
    """

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt
