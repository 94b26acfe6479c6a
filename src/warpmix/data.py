"""Tabular dataset ingestion, splitting, and normalization, and the file
formats every input file and output CSV of the package goes through."""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DatasetError, UsageError, _shown, check_array, check_int, check_real
from .rng import RngStream

__all__ = ["Dataset", "Normalization", "DataSplits", "load_csv", "split"]

_STD_FLOOR = 1e-8


@dataclass
class Dataset:
    """Feature matrix (N, d) plus targets (N,); ``num_classes`` is None for regression,
    otherwise the targets must be integer labels in ``[0, num_classes)``.
    Both are arrays of ints and floats by the dtype part of the package's
    array rule (``errors.check_array``), so a bool or a string raises
    UsageError naming the argument. Every feature and target must be finite,
    and errors name the 1-based row and column (DatasetError)."""

    features: np.ndarray
    targets: np.ndarray
    name: str = ""
    num_classes: Optional[int] = None

    def __post_init__(self):
        self.features = check_array(self.features, "features", finite=False)
        if self.features.ndim != 2:
            raise UsageError(f"features must be (N, d), got shape {self.features.shape}")
        targets = check_array(self.targets, "targets", finite=False)
        if targets.ndim != 1:
            raise UsageError(f"targets must be a vector (N,), got shape {targets.shape}")
        if self.num_classes is None:
            self.targets = targets
        else:
            self.num_classes = check_int(self.num_classes, "num_classes", 2)
            bad = np.flatnonzero((targets != np.floor(targets)) | (targets < 0) | (targets >= self.num_classes))
            if bad.size:
                raise DatasetError(
                    f"label {float(targets[bad[0]])!r} at row {bad[0] + 1} "
                    f"is not a class in [0, {self.num_classes})",
                    code="bad_label",
                )
            self.targets = targets.astype(np.int64)
        for kind, values in (("feature", self.features), ("target", self.targets)):
            bad = np.argwhere(~np.isfinite(values))
            if bad.size:
                at = f"{float(values[tuple(bad[0])])!r} at row " + ", column ".join(str(i + 1) for i in bad[0])
                raise DatasetError(f"non-finite {kind} {at}", code="non_numeric_cell")
        if self.targets.shape[0] != self.features.shape[0]:
            raise UsageError("features and targets row counts differ")

    def __len__(self):
        return self.features.shape[0]


@dataclass
class Normalization:
    """Train-split statistics: feature z-scoring plus target z-scoring.

    Target statistics are identity (0, 1) for classification.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float = 0.0
    target_std: float = 1.0

    def apply_features(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feature_mean) / self.feature_std

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def denormalize_mean(self, mean: np.ndarray) -> np.ndarray:
        return mean * self.target_std + self.target_mean

    def denormalize_variance(self, variance: np.ndarray) -> np.ndarray:
        return variance * self.target_std**2


@dataclass
class DataSplits:
    train: Dataset
    valid: Dataset
    test: Dataset
    normalization: Normalization


@contextmanager
def _reading(path, what: str):
    """The UTF-8 text file at ``path``, open for the body to read, with every
    failure to read it mapped, those raised while the body reads included: a
    missing file raises DatasetError (code ``missing_file``), and an
    unreadable path, a directory, bytes that are not UTF-8 or a CSV line the
    csv module cannot split raise UsageError naming it as a ``what`` file."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DatasetError(f"{what} file not found: {path}", code="missing_file") from None
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from None
    with fh:
        try:
            yield fh
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise UsageError(f"cannot read {what} file {path!r}: {exc}") from None


def _read_json(path, what: str):
    """The JSON value in the file at ``path``, read by ``_reading``'s rule;
    text that does not parse raises UsageError naming it as a ``what`` file."""
    with _reading(path, what) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer too long to convert, or nesting too deep
        raise UsageError(f"{what} file {path!r} is not valid JSON: {exc}") from None


def _csv_text(header, rows) -> str:
    """CSV text of the ``header`` row, then ``rows``: a string cell as it is, a number by its repr."""
    return "".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n" for row in (header, *rows))


def _plain_table(body, width: int):
    """The data lines ``body`` as an (N, ``width``) float64 array read by
    numpy's C reader, or None where that reader's result could differ from
    ``load_csv``'s cell loop. It parses each number with the routine that
    ``float()`` calls, but refuses some cells that ``float()`` takes (quoted
    numbers, ``1_000``, non-ASCII digits), which the loop then reads. None
    also where it would accept what the loop refuses: a line at or past the
    csv module's field size limit, no data row, a width other than the
    header's, or a value that is not finite."""
    if max(map(len, body), default=0) >= csv.field_size_limit():
        return None
    # the loop skips blank and whitespace-only rows. Without them every line is
    # a row, so the reader sizes the table once (it warns on an empty line then)
    body = list(filter(str.strip, body))
    if not body:
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=np.float64, max_rows=len(body))
    except ValueError:
        return None
    return table if table.shape[1] == width and np.isfinite(table).all() else None


def load_csv(path, target_column: Union[int, str] = -1, name: str = "") -> Dataset:
    """Parse a headered numeric CSV into a regression Dataset.

    The csv module and ``float()`` define the format: the header is the
    first row with a non-blank cell, blank and whitespace-only rows are
    skipped, and every other row holds one number per header column, as
    ``float()`` reads it. The target column is named or indexed (negative
    indices allowed); all other columns become features in file order. A
    ragged row, or any non-numeric, NaN or infinite cell, is an error
    naming the offending data row (1-based, header excluded) and the
    cell's column. The file is read by ``_reading``'s rule, so a cell past
    the csv module's field size limit cannot be read.

    A well-formed table, with its header on the first line, is read by
    numpy's C reader, with results identical to the rule above; any other
    text is read cell by cell by that rule.
    """
    with _reading(path, "dataset") as fh:
        lines = fh.readlines()
        reader = csv.reader(lines)
        header = next(reader, [])
        parsed = _plain_table(lines[reader.line_num :], len(header)) if any(map(str.strip, header)) else None
        if parsed is None:
            rows = [row for row in csv.reader(lines) if row and any(cell.strip() for cell in row)]
    if parsed is None:
        if not rows:
            raise DatasetError(f"dataset file is empty: {path}", code="empty_dataset")
        header, data_rows = rows[0], rows[1:]
        if not data_rows:
            raise DatasetError(f"no data rows after the header: {path}", code="empty_dataset")

    if isinstance(target_column, str):
        stripped = [h.strip() for h in header]
        if target_column not in stripped:
            raise DatasetError(
                f"target column {_shown(target_column)} not in header {_shown(stripped)}", code="bad_header"
            )
        target_idx = stripped.index(target_column)
    else:
        target_idx = check_int(target_column, "target_column", -len(header), len(header) - 1) % len(header)

    if parsed is None:
        parsed = np.empty((len(data_rows), len(header)), dtype=np.float64)
        for r, row in enumerate(data_rows, start=1):
            if len(row) != len(header):
                raise DatasetError(
                    f"row {r} has {len(row)} cells, header has {len(header)}",
                    code="non_numeric_cell",
                )
            for c, cell in enumerate(row):
                try:
                    parsed[r - 1, c] = float(cell)
                except ValueError:
                    parsed[r - 1, c] = math.nan
        bad = np.argwhere(~np.isfinite(parsed))
        if bad.size:
            r, c = bad[0]
            raise DatasetError(
                f"non-numeric cell {_shown(data_rows[r][c])} at row {r + 1}, column {_shown(header[c].strip())}",
                code="non_numeric_cell",
            )

    feature_cols = [c for c in range(len(header)) if c != target_idx]
    return Dataset(
        features=parsed[:, feature_cols],
        targets=parsed[:, target_idx],
        name=name or os.path.splitext(os.path.basename(path))[0],
    )


def check_fractions(fractions) -> tuple:
    """The (train, valid, test) fractions as floats, or UsageError unless
    they are a list or tuple of 3 numbers > 0, each by the package's
    real-number rule (``errors.check_real``), summing to 1."""
    if not isinstance(fractions, (list, tuple)) or len(fractions) != 3:
        raise UsageError(f"split_fractions must be a list of 3 numbers > 0, got {_shown(fractions)}")
    fractions = tuple(check_real(f, "split_fractions", "> 0", lambda v: v > 0.0) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise UsageError(f"split_fractions must sum to 1, got {fractions} (sum {sum(fractions)})")
    return fractions


def split(dataset: Dataset, fractions, seed: int) -> DataSplits:
    """Seeded disjoint train/valid/test partition with fitted normalization.

    Sizes follow a fixed rounding rule: valid and test get the floor of
    their fractions, train gets the remainder. Feature statistics (and
    target statistics, for regression) come from the train rows only and are
    applied to every split's features; targets are left raw, with the
    statistics carried in the returned Normalization.
    """
    fractions = check_fractions(fractions)
    n = len(dataset)
    n_valid = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise UsageError(
            f"split of {n} rows into {fractions} leaves an empty part "
            f"(sizes {n_train}, {n_valid}, {n_test})"
        )

    order = RngStream(seed).permutation(n)
    train_idx = order[:n_train]
    valid_idx = order[n_train : n_train + n_valid]
    test_idx = order[n_train + n_valid :]

    train_x = dataset.features[train_idx]
    mean = train_x.mean(axis=0)
    std = np.maximum(train_x.std(axis=0), _STD_FLOOR)
    if dataset.num_classes is None:
        t = dataset.targets[train_idx]
        norm = Normalization(mean, std, float(t.mean()), max(float(t.std()), _STD_FLOOR))
    else:
        norm = Normalization(mean, std)

    scaled = norm.apply_features(dataset.features)
    bad = np.argwhere(~np.isfinite(scaled))
    if bad.size:
        r, c = bad[0]
        at = f"feature {float(dataset.features[r, c])!r} at row {r + 1}, column {c + 1}"
        raise DatasetError(f"{at} is not finite after normalization", code="non_numeric_cell")

    def _part(idx):
        return Dataset(
            features=scaled[idx],
            targets=dataset.targets[idx],
            name=dataset.name,
            num_classes=dataset.num_classes,
        )

    return DataSplits(train=_part(train_idx), valid=_part(valid_idx), test=_part(test_idx), normalization=norm)
