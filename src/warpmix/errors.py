"""Exception types shared across the package, and the two rules every API
entry point applies to its arguments: one for integers (counts, seeds and
indices) and one for real numbers (rates and coefficients)."""

import math
from typing import Callable, Optional

import numpy as np


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


def check_int(value, name: str, lo: Optional[int] = None, hi: Optional[int] = None) -> int:
    """``value`` as an int, or UsageError naming ``name`` unless it is an
    integer in [lo, hi] (a bound that is None does not apply).

    A Python or numpy integer, or an integral float, counts as its integer
    (3.0 is 3). Bools, strings, fractions, NaN and infinities never do. An
    int is compared as it is, so a huge one cannot overflow the check."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer or isinstance(value, (float, np.floating)) and float(value).is_integer():
        number = int(value)
        if (lo is None or number >= lo) and (hi is None or number <= hi):
            return number
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise UsageError(f"{name} must be an integer{bound}, got {value!r}")


def check_real(value, name: str, rule: str = "", ok: Optional[Callable[[float], bool]] = None) -> float:
    """``value`` as a float, or UsageError naming ``name`` unless it is a
    finite Python or numpy int or float for which ``ok`` holds (if given);
    ``rule`` words ``ok`` for the message. Bools and strings are never
    numbers, and an int past the largest float is not finite."""
    number = math.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if math.isfinite(number) and (ok is None or ok(number)):
        return number
    raise UsageError(f"{name} must be a finite number{rule and ' ' + rule}, got {value!r}")
