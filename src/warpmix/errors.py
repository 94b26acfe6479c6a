"""Exception types shared across the package."""


class WarpmixError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WarpmixError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UsageError(WarpmixError, ValueError):
    """The API was called incorrectly: bad shapes, lengths, or configuration."""


class NonConvergenceError(WarpmixError, ArithmeticError):
    """An iterative numerical routine hit its iteration cap.

    Carries the offending inputs so callers can report exactly what failed
    instead of propagating silent garbage.
    """

    def __init__(self, message, *, x=None, a=None, b=None):
        super().__init__(message)
        self.x = x
        self.a = a
        self.b = b


class DivergenceError(WarpmixError, RuntimeError):
    """Training produced a non-finite loss.

    ``trace`` holds the per-epoch loss history recorded up to the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DatasetError(WarpmixError, ValueError):
    """A dataset could not be ingested.

    ``code`` is a stable machine-readable tag: one of ``"missing_file"``
    (also a missing checkpoint or predictions file),
    ``"non_numeric_cell"`` (also NaN and infinite cells, NaN or infinite
    values handed to ``Dataset`` directly, and features that ``split``
    normalizes to infinity), ``"empty_dataset"``,
    ``"bad_header"``, ``"bad_label"`` (a classification label that is not an
    integer in ``[0, num_classes)``).
    """

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code
