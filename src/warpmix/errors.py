"""Exception types shared across the package, and the rules every API entry
point applies to its arguments: one for integers (counts, seeds and
indices), one for real numbers (rates and coefficients) and one for arrays
(points, targets, weights, logits and the kernels' inputs), with the class
label rule built on the last."""

import math
from typing import Callable, Optional

import numpy as np


class WarpmixError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WarpmixError, ValueError):
    """A value handed to the numerical kernel lies outside its mathematical
    domain: a coefficient of warp_pairwise outside [0, 1] or a NaN or
    non-positive strength, once the array rule below has taken them as
    numbers. Every other argument that breaks a rule raises UsageError."""


class UsageError(WarpmixError, ValueError):
    """The API was called incorrectly: bad shapes, lengths, or configuration,
    or a value that breaks the integer, real-number, array or label rule
    below."""


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
    """Training or evaluation produced non-finite values: a training loss,
    parameters or features, or evaluation's predictions or logits.

    ``trace`` holds the per-epoch loss history recorded up to a training
    failure, and is empty for an evaluation failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DatasetError(WarpmixError, ValueError):
    """A dataset could not be ingested.

    ``code`` is a stable machine-readable tag: one of ``"missing_file"``
    (also a missing config, cells, checkpoint or predictions file),
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


def check_array(value, name: str, ndim: Optional[int] = None, finite: bool = True) -> np.ndarray:
    """``value`` as a float64 array (the array itself if it is one), or
    UsageError naming ``name`` unless it is an array, a number or a nested
    list of Python or numpy ints and floats, with ``ndim`` dimensions (if
    given) and, if ``finite``, no NaN or infinity; the finite error names
    the first bad row (0-based). Bools, strings, None, objects, complex
    numbers and ragged nesting are never arrays of numbers, and neither is
    a list that holds a bool among its numbers."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise UsageError(f"{name} must be an array of ints and floats, got ragged nesting") from None
    # numpy takes a bool among a list's numbers as 0 or 1
    bools = isinstance(value, (list, tuple)) and {bool, np.bool_} & {*map(type, np.asarray(value, object).flat)}
    if bools or array.dtype.kind not in "iuf":
        got = "a bool" if bools else f"dtype {array.dtype}"
        raise UsageError(f"{name} must be an array of ints and floats, got {got}")
    if ndim is not None and array.ndim != ndim:
        raise UsageError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    array = array.astype(np.float64, copy=False)
    if finite and not np.isfinite(array).all():
        raise UsageError(f"{name} must be finite, {_first(array, ~np.isfinite(array))}")
    return array


def check_labels(value, name: str, num_classes: int) -> np.ndarray:
    """``value`` as int64 class indices, or UsageError naming ``name`` unless
    the array rule takes it (with no finite part) and each entry is an
    integer in [0, num_classes); an integral float counts as its integer."""
    labels = check_array(value, name, finite=False)
    bad = ~((labels == np.floor(labels)) & (labels >= 0.0) & (labels < num_classes))
    if bad.any():
        raise UsageError(f"{name} must be integers in [0, {num_classes}), {_first(labels, bad)}")
    return labels.astype(np.int64)


def _count(n: int) -> str:
    """A count too large to hold, for a MemoryError: three significant
    digits, or "over 1e+308" for an int past the largest float."""
    return f"{n:.3g}" if n < 1e308 else "over 1e+308"


def _first(array: np.ndarray, bad: np.ndarray) -> str:
    """'got <value> at row <r>' for the first entry of ``array`` where ``bad``
    holds, in row-major order; a 0-d array has no row."""
    at = tuple(np.argwhere(bad)[0])
    return f"got {float(array[at])!r}" + (f" at row {at[0]}" if at else "")
