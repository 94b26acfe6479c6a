"""The cell-by-cell reference for ``load_csv``: the csv module splits every
row, and ``float()`` reads every cell, one at a time.

This is the rule that defines a dataset file. ``load_csv`` reads a
well-formed table another way, and must give the same bits, or the same
error, on every text.
"""

import csv
import math
import os

import numpy as np

from warpmix import Dataset, DatasetError
from warpmix.data import _reading
from warpmix.errors import _shown, check_int


def ref_load_csv(path, target_column=-1, name=""):
    with _reading(path, "dataset") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
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

    parsed = np.empty((len(data_rows), len(header)), dtype=np.float64)
    for r, row in enumerate(data_rows, start=1):
        if len(row) != len(header):
            raise DatasetError(f"row {r} has {len(row)} cells, header has {len(header)}", code="non_numeric_cell")
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
