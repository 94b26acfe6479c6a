"""Calibration and accuracy metrics, plus temperature scaling.

Every metric comes from ``metrics_from_payload``: it takes one predictions
payload of arrays (probabilities and labels, or predictive means, variances
and targets), validates it once and returns all of the task's metrics.
Binning follows one rule, in ``bin_stats``: equal-width bins, a value
exactly on an interior edge goes to the higher bin, and the top bin is
closed. ENCE averages over non-empty bins only; a bin whose root mean
variance is zero yields the infinity sentinel unless its RMSE is also zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError, check_int, check_real

__all__ = [
    "softmax",
    "log_softmax",
    "temperature_scale",
    "bin_stats",
    "payload_bins",
    "metrics_from_payload",
]

_PROB_FLOOR = 1e-12


def _shifted_exp(logits: np.ndarray):
    """(z, exp(z)) for float64 ``logits`` shifted so each row's largest is 0.

    The row max is one ``np.maximum`` per further class column: a reduction
    along the short class axis costs more than the whole exp. ``maximum`` is
    exact, so the shift equals ``logits.max(axis=-1)`` bit for bit. An empty
    class axis raises UsageError; a 0-d input is its own row.
    """
    if logits.ndim == 0:
        top = logits
    elif logits.shape[-1] == 0:
        raise UsageError(f"logits need at least one class, got shape {logits.shape}")
    else:
        top = logits[..., :1]
        for j in range(1, logits.shape[-1]):
            top = np.maximum(top, logits[..., j : j + 1])
    z = logits - top
    return z, np.exp(z)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    _, e = _shifted_exp(np.asarray(logits, dtype=np.float64))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z, e = _shifted_exp(np.asarray(logits, dtype=np.float64))
    return z - np.log(e.sum(axis=-1, keepdims=True))


def _picked_nll(logits: np.ndarray, picks: np.ndarray):
    """(losses, e, total): -log softmax of float64 ``logits`` (..., n, c) at ``picks``.

    ``picks`` are flat indices ``row * c + label`` into each (n, c) block, in
    any shape whose last axis is the rows. Each loss is bit-equal to
    ``-log_softmax(logits)`` at its pick: the label column is picked out of the
    shifted logits first, so log(total) is subtracted from one value per pick
    instead of from every class. The class total adds the columns left to
    right below 8 classes, as numpy's sum of fewer than 8 values does, and is
    numpy's pairwise last-axis sum from 8 on. ``e`` is the shifted exp and
    ``total`` its class total, which a softmax gradient needs.
    """
    z, e = _shifted_exp(logits)
    n, c = logits.shape[-2:]
    if c < 8:
        total = e[..., 0] + e[..., 1]
        for j in range(2, c):
            total += e[..., j]
    else:
        total = e.sum(axis=-1)
    losses = z.reshape(*z.shape[:-2], n * c).take(picks, axis=-1)
    losses -= np.log(total)
    np.negative(losses, out=losses)
    return losses, e, total


def bin_stats(values, lo: float, hi: float, num_bins: int, *columns):
    """Per-bin counts and column sums over equal-width bins of [lo, hi].

    A value exactly on an interior edge goes to the higher bin, the top bin
    is closed, and ``hi <= lo`` puts every value in bin 0. Returns
    ``(counts, sums)``: ``counts`` has one entry per bin and ``sums[k]`` holds
    the per-bin sums of ``columns[k]``. ``num_bins`` is an integer >= 1 by
    the package's integer rule (an integral float or a numpy integer counts
    as its integer); anything else raises UsageError naming it.
    """
    num_bins = check_int(num_bins, "num_bins", 1)
    values = np.asarray(values, dtype=np.float64)
    if hi <= lo:
        idx = np.zeros(values.shape[0], dtype=np.int64)
    else:
        idx = np.clip(np.floor((values - lo) / (hi - lo) * num_bins).astype(np.int64), 0, num_bins - 1)
    sums = [np.bincount(idx, weights=np.asarray(c, dtype=np.float64), minlength=num_bins) for c in columns]
    return np.bincount(idx, minlength=num_bins), np.array(sums)


def _calibration_bins(task: str, num_bins: int, arrays: tuple):
    """``payload_bins`` of already validated payload arrays."""
    if task == "regression":
        means, variances, targets = arrays
        lo, hi = float(variances.min()), float(variances.max())
        return (lo, hi, *bin_stats(variances, lo, hi, num_bins, (means - targets) ** 2, variances))
    probs, labels = arrays
    conf = probs.max(axis=1)
    return (0.0, 1.0, *bin_stats(conf, 0.0, 1.0, num_bins, probs.argmax(axis=1) == labels, conf))


def _weighted_gap(counts, sums) -> float:
    """Sum over non-empty bins of count/n * |mean of column 0 - mean of
    column 1|: ECE on confidence bins, UCE on variance bins."""
    full = counts > 0
    first, second = sums[:, full] / counts[full]
    return float(np.sum(counts[full] / counts.sum() * np.abs(first - second)))


def _ence(counts, sums) -> float:
    full = counts > 0
    rmse, rmv = np.sqrt(sums[:, full] / counts[full])
    if np.any((rmv == 0.0) & (rmse > 0.0)):
        return math.inf
    # rmv == 0 leaves only bins with rmse == 0, which contribute 0
    return float(np.sum(np.abs(rmse - rmv) / np.where(rmv > 0.0, rmv, 1.0)) / np.count_nonzero(full))


_PAYLOAD_ARRAYS = {"regression": ("means", "variances", "targets"), "classification": ("probs", "labels")}


def _payload_value(payload: dict, key: str):
    """payload[key], or UsageError if the payload has no ``key``."""
    if key not in payload:
        raise UsageError(f"predictions payload has no {key!r}")
    return payload[key]


def _parse_payload(payload: dict):
    """(task, num_bins, validated arrays) of a predictions payload; the one
    input check behind every metric and ``payload_bins``."""
    if not isinstance(payload, dict):
        raise UsageError(f"predictions payload must be an object, got {type(payload).__name__}")
    task = _payload_value(payload, "task")
    if task not in ("regression", "classification"):
        raise UsageError(f"predictions payload has unknown task {task!r}")
    num_bins = check_int(_payload_value(payload, "num_bins"), "predictions payload 'num_bins'", 1)
    keys = _PAYLOAD_ARRAYS[task]
    values = [_payload_value(payload, key) for key in keys]
    try:
        arrays = [np.asarray(value, dtype=np.float64) for value in values]
    except (TypeError, ValueError):
        raise UsageError(f"predictions payload {', '.join(keys)} must be numeric arrays") from None
    if task == "regression":
        means, variances, targets = arrays
        if means.ndim != 1 or means.shape[0] < 1 or not means.shape == variances.shape == targets.shape:
            raise UsageError("means, variances and targets must be aligned non-empty vectors")
        if not np.all(np.isfinite(means) & np.isfinite(targets) & np.isfinite(variances) & (variances >= 0)):
            raise UsageError("means, variances and targets must be finite, and variances >= 0")
        return task, num_bins, (means, variances, targets)
    probs, labels = arrays
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
        raise UsageError(f"probs must be rows over >= 2 classes, got shape {probs.shape}")
    if labels.shape != probs.shape[:1]:
        raise UsageError(f"{labels.size} labels for {probs.shape[0]} probability rows")
    if not (np.all((probs >= 0.0) & (probs <= 1.0)) and np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)):
        raise UsageError("probs must be non-negative and sum to 1 within 1e-9")
    return task, num_bins, (probs, _class_labels(labels, probs.shape[1]))


def _class_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Float ``labels`` as int64, or UsageError unless each is an integer in [0, num_classes)."""
    if not np.all((labels == np.floor(labels)) & (labels >= 0) & (labels < num_classes)):
        raise UsageError(f"labels must be integers in [0, {num_classes})")
    return labels.astype(np.int64)


def payload_bins(payload: dict):
    """(lo, hi, counts, sums) behind a payload's ECE, or its UCE and ENCE:
    sums of (correct, confidence) over confidence bins of [0, 1] for
    classification, or of (squared error, variance) over variance bins of
    [min, max] of the variances for regression."""
    return _calibration_bins(*_parse_payload(payload))


def metrics_from_payload(payload: dict) -> dict:
    """Validate a predictions payload and compute its metrics.

    A payload holds ``task`` and ``num_bins`` (an int >= 1). Regression adds
    aligned finite ``means``, ``variances`` (>= 0) and ``targets``; the
    metrics are rmse, mape (None when a target is exactly 0), uce and ence.
    Classification adds ``probs`` (rows summing to 1), integer ``labels``
    and the fitted ``temperature`` (> 0), which is echoed; the metrics are
    accuracy, ece, brier and nll (probabilities floored at 1e-12). Anything
    else raises UsageError.
    """
    task, num_bins, arrays = _parse_payload(payload)
    _, _, counts, sums = _calibration_bins(task, num_bins, arrays)
    if task == "regression":
        means, _, targets = arrays
        err = means - targets
        mape = None if np.any(targets == 0.0) else 100.0 * float(np.mean(np.abs(err) / np.abs(targets)))
        return {
            "rmse": math.sqrt(float(np.mean(err**2))),
            "mape": mape,
            "uce": _weighted_gap(counts, sums),
            "ence": _ence(counts, sums),
        }
    temperature = check_real(_payload_value(payload, "temperature"), "predictions payload 'temperature'",
                             "> 0", lambda v: v > 0.0)
    probs, labels = arrays
    rows = np.arange(labels.shape[0])
    onehot = np.eye(probs.shape[1])[labels]
    return {
        "accuracy": float(np.mean(probs.argmax(axis=1) == labels)),
        "ece": _weighted_gap(counts, sums),
        "brier": float(np.mean(np.sum((probs - onehot) ** 2, axis=1))),
        "nll": float(-np.mean(np.log(np.clip(probs[rows, labels], _PROB_FLOOR, None)))),
        "temperature": temperature,
    }


_T_LO, _T_HI = 0.05, 20.0
_T_GRID = 200
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# float64 values per (temperatures, rows, classes) chunk: 100 KB, so each
# temporary stays under glibc's 128 KiB mmap threshold (16 temperatures of a
# (400, 2) split)
_CHUNK_VALUES = 16 * 400 * 2


def _nll_at_temperatures(logits: np.ndarray, labels: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Mean NLL of softmax(logits / t) for each t in ``temps``, checked inputs.

    Each entry is bit-equal to ``np.mean(-log_softmax(logits / t)[rows, labels])``:
    ``_picked_nll`` takes the same floating-point operations on the same values,
    and each mean is the sum of a C-contiguous row of losses divided by n, as
    ``np.mean`` computes it. At ``temps`` of one 1.0 it is the unscaled loss,
    since x / 1.0 == x.
    """
    n, c = logits.shape
    step = max(1, _CHUNK_VALUES // (n * c))
    picks = np.arange(n) * c + labels  # each row's label as a flat index into its (n, c) block
    out = np.empty(temps.shape[0])
    for start in range(0, temps.shape[0], step):
        losses = _picked_nll(logits / temps[start : start + step, None, None], picks)[0]
        out[start : start + step] = np.add.reduce(losses, axis=-1) / n
    return out


def temperature_scale(logits, labels) -> float:
    """Temperature minimizing validation NLL of softmax(logits / T).

    Coarse geometric grid over [0.05, 20], then golden-section refinement of
    the best bracket to relative width 1e-4. Dividing by a positive scalar
    never reorders a row, so predicted classes are unchanged for any T.
    Raises UsageError when a logit is not finite, or when the loss at some
    grid temperature is not (``logits / T`` overflowed).
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[0] < 1 or logits.shape[1] < 2:
        raise UsageError(f"logits must be a non-empty (n, c) array with c >= 2, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise UsageError("logits must be finite")
    if labels.shape != (logits.shape[0],):
        raise UsageError("labels must align with logits rows")
    labels = _class_labels(labels, logits.shape[1])

    grid = np.geomspace(_T_LO, _T_HI, _T_GRID)
    losses = _nll_at_temperatures(logits, labels, grid)
    finite = np.isfinite(losses)
    if not finite.all():
        raise UsageError(f"validation NLL is not finite at temperature {grid[~finite][0]:.6g}: "
                         "the logits overflow when scaled")
    best = int(np.argmin(losses))
    lo = grid[max(0, best - 1)]
    hi = grid[min(_T_GRID - 1, best + 1)]

    def nll(t: float) -> float:
        return float(_nll_at_temperatures(logits, labels, np.array([t]))[0])

    # golden-section shrink of [lo, hi]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = nll(x1)
    f2 = nll(x2)
    while (hi - lo) > 1e-4 * (0.5 * (lo + hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = nll(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = nll(x2)
    return float(0.5 * (lo + hi))
