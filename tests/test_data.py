"""Tests for CSV ingestion, seeded splitting, and normalization, and for
the rule every input file is read by."""

import numpy as np
import pytest

from warpmix import Batch, Dataset, DatasetError, ExperimentConfig, UsageError, load_csv, load_model, split
from warpmix.data import _read_json
from warpmix.rng import RngStream

from _support import write_csv


def test_small_csv_parsed_exactly(tmp_path):
    path = write_csv(
        tmp_path / "tiny.csv",
        ["f1", "f2", "y"],
        [[1.0, 2.0, 3.0], [4.5, -1.25, 0.0], [0.0625, 10.0, -7.5]],
    )
    ds = load_csv(path)
    assert np.array_equal(ds.features, [[1.0, 2.0], [4.5, -1.25], [0.0625, 10.0]])
    assert np.array_equal(ds.targets, [3.0, 0.0, -7.5])
    assert ds.name == "tiny"
    assert ds.num_classes is None


def test_target_column_by_name_and_index(tmp_path):
    path = write_csv(tmp_path / "cols.csv", ["a", "b", "c"], [[1, 2, 3], [4, 5, 6]])
    by_name = load_csv(path, target_column="b")
    assert np.array_equal(by_name.targets, [2.0, 5.0])
    assert np.array_equal(by_name.features, [[1.0, 3.0], [4.0, 6.0]])
    by_index = load_csv(path, target_column=1)
    assert np.array_equal(by_index.targets, by_name.targets)
    last = load_csv(path, target_column=-1)
    assert np.array_equal(last.targets, [3.0, 6.0])


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n1,2\n\n   \n3,4\n")
    ds = load_csv(path)
    assert len(ds) == 2


def test_missing_file_error():
    with pytest.raises(DatasetError) as info:
        load_csv("/nonexistent/nowhere.csv")
    assert info.value.code == "missing_file"


# each kind of input file, by the function that reads it
READERS = {
    "config": ExperimentConfig.from_file,
    "cells": lambda path: _read_json(path, "cells"),
    "dataset": load_csv,
    "checkpoint": load_model,
    "predictions": lambda path: _read_json(path, "predictions"),
}
# the file's bytes for each damage: non-UTF-8 bytes first, or past the first chunk the
# reader decodes, so that the body's read fails
FILE_DAMAGES = {
    "not_utf8_first": b"\xff\n",
    "not_utf8_late": b"\n" * 20000 + b"\xc3(\n",
    "not_json": b"[[]\n",
}


@pytest.mark.parametrize("kind, damage", [(kind, damage) for kind in sorted(READERS)
                                          for damage in ("missing", "directory", *sorted(FILE_DAMAGES))
                                          if (kind, damage) != ("dataset", "not_json")])  # a dataset is CSV
def test_every_input_file_follows_the_file_rule(tmp_path, kind, damage):
    path = tmp_path / "input"
    if damage == "directory":
        path.mkdir()
    elif damage != "missing":
        path.write_bytes(FILE_DAMAGES[damage])
    error = DatasetError if damage == "missing" else UsageError
    message = {"missing": f"{kind} file not found: {path}",
               "not_json": f"{kind} file {path!r} is not valid JSON"}.get(damage, f"cannot read {kind} file {path!r}")
    with pytest.raises(error) as info:
        READERS[kind](path)
    assert str(info.value).startswith(message)
    if damage == "missing":
        assert info.value.code == "missing_file"


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["nested_too_deep", "integer_too_long"])
def test_json_that_python_cannot_parse_is_not_valid_json(tmp_path, text):
    # the parser raises RecursionError, or ValueError for an integer past Python's digit limit
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(UsageError, match="config file .* is not valid JSON"):
        ExperimentConfig.from_file(path)


def test_csv_line_the_csv_module_cannot_split_is_unreadable(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x,y\n" + "1" * 200_000 + ",2\n")  # past the csv module's field size limit
    with pytest.raises(UsageError, match="cannot read dataset file .*field larger than field limit"):
        load_csv(path)


def test_empty_file_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError) as info:
        load_csv(empty)
    assert info.value.code == "empty_dataset"

    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(DatasetError) as info:
        load_csv(header_only)
    assert info.value.code == "empty_dataset"


def test_non_numeric_cell_names_the_row(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3, "oops"], [5, 6]])
    with pytest.raises(DatasetError) as info:
        load_csv(path)
    assert info.value.code == "non_numeric_cell"
    assert "row 2" in str(info.value)
    assert "'b'" in str(info.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_cell_rejected(tmp_path, cell):
    path = write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3, cell], [5, 6]])
    with pytest.raises(DatasetError) as info:
        load_csv(path)
    assert info.value.code == "non_numeric_cell"
    assert "row 2" in str(info.value)
    assert "'b'" in str(info.value)


def test_nan_feature_rejected_by_dataset():
    features = np.ones((4, 3))
    features[2, 1] = np.nan
    with pytest.raises(DatasetError) as info:
        Dataset(features=features, targets=np.zeros(4))
    assert info.value.code == "non_numeric_cell"
    assert "row 3, column 2" in str(info.value)


def test_inf_target_rejected_by_dataset():
    with pytest.raises(DatasetError) as info:
        Dataset(features=np.ones((4, 3)), targets=[0.0, 1.0, np.inf, 2.0])
    assert info.value.code == "non_numeric_cell"
    assert "target inf at row 3" in str(info.value)


@pytest.mark.parametrize("num_classes", [None, 2], ids=["regression", "classification"])
@pytest.mark.parametrize("shape", [(4, 2), (4, 1), ()])
def test_targets_that_are_not_a_vector_rejected_by_dataset(num_classes, shape):
    # 2-D targets used to pass here and then crash training with a numpy broadcast error
    with pytest.raises(UsageError, match="targets must be a vector"):
        Dataset(features=np.ones((4, 3)), targets=np.zeros(shape), num_classes=num_classes)


@pytest.mark.parametrize("kind", [Dataset, Batch])
@pytest.mark.parametrize("num_classes", [2.5, True, 1, "3", np.nan, np.int64(1)],
                         ids=["half", "bool", "one", "string", "nan", "int64_one"])
def test_num_classes_that_is_not_an_integer_of_at_least_two_rejected(kind, num_classes):
    with pytest.raises(UsageError, match="num_classes must be an integer >= 2"):
        kind(np.ones((4, 3)), np.array([0, 1, 1, 0]), num_classes=num_classes)


@pytest.mark.parametrize("kind", [Dataset, Batch])
@pytest.mark.parametrize("num_classes", [3, 3.0, np.int64(3), np.float64(3.0)],
                         ids=["int", "float", "int64", "float64"])
def test_integral_num_classes_stored_as_int(kind, num_classes):
    # as a config key does: an integral float counts as its integer
    stored = kind(np.ones((4, 3)), np.array([0, 1, 2, 0]), num_classes=num_classes).num_classes
    assert type(stored) is int and stored == 3


def test_feature_overflowing_normalization_names_its_row():
    # column 0 is constant on the train rows, so its std is floored and a
    # far-off held-out value overflows to inf once normalized
    n, seed = 20, 0
    row = int(RngStream(seed).permutation(n)[-1])
    features = np.zeros((n, 2))
    features[:, 1] = np.arange(n)
    features[row, 0] = 1e305
    with pytest.raises(DatasetError) as info, np.errstate(over="ignore"):
        split(Dataset(features=features, targets=np.arange(n, dtype=float)), (0.6, 0.2, 0.2), seed)
    assert info.value.code == "non_numeric_cell"
    assert f"row {row + 1}, column 1 is not finite after normalization" in str(info.value)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DatasetError) as info:
        load_csv(path)
    assert "row 2" in str(info.value)


def test_unknown_target_name(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
    with pytest.raises(DatasetError) as info:
        load_csv(path, target_column="z")
    assert info.value.code == "bad_header"


# ------------------------------------------------------------------- split


def ramp_dataset(n=10, d=2, classes=None):
    features = np.arange(n * d, dtype=np.float64).reshape(n, d)
    if classes is None:
        targets = np.arange(n, dtype=np.float64) * 10.0
    else:
        targets = np.arange(n) % classes
    return Dataset(features=features, targets=targets, num_classes=classes)


def test_split_sizes_follow_floor_rule():
    splits = split(ramp_dataset(10), (0.6, 0.2, 0.2), seed=0)
    assert (len(splits.train), len(splits.valid), len(splits.test)) == (6, 2, 2)
    # remainder goes to train, not to valid/test
    splits = split(ramp_dataset(11), (0.6, 0.2, 0.2), seed=0)
    assert (len(splits.train), len(splits.valid), len(splits.test)) == (7, 2, 2)


def test_split_is_a_disjoint_cover():
    ds = ramp_dataset(23, d=1)
    splits = split(ds, (0.5, 0.25, 0.25), seed=3)
    seen = np.concatenate(
        [splits.train.targets, splits.valid.targets, splits.test.targets]
    )
    assert sorted(seen) == sorted(ds.targets)


def test_split_deterministic_and_seed_sensitive():
    ds = ramp_dataset(40)
    a = split(ds, (0.6, 0.2, 0.2), seed=9)
    b = split(ds, (0.6, 0.2, 0.2), seed=9)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.targets, b.test.targets)
    c = split(ds, (0.6, 0.2, 0.2), seed=10)
    assert not np.array_equal(a.train.targets, c.train.targets)


def test_degenerate_fractions_rejected():
    ds = ramp_dataset(10)
    with pytest.raises(UsageError):
        split(ds, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(UsageError):
        split(ds, (0.5, 0.3, 0.3), seed=0)  # sums to 1.1
    with pytest.raises(UsageError):
        split(ds, (0.7, -0.2, 0.5), seed=0)
    with pytest.raises(UsageError):
        split(ds, (0.6, 0.4), seed=0)
    with pytest.raises(UsageError):
        # 5 rows at 2% valid floor to zero
        split(ramp_dataset(5), (0.96, 0.02, 0.02), seed=0)


def test_normalization_fitted_on_train_rows_only():
    ds = ramp_dataset(20, d=3)
    splits = split(ds, (0.5, 0.25, 0.25), seed=7)
    norm = splits.normalization
    # recover the raw train rows and recompute the statistics directly
    raw_train = splits.train.features * norm.feature_std + norm.feature_mean
    assert np.allclose(raw_train.mean(axis=0), norm.feature_mean, atol=1e-9)
    assert np.allclose(raw_train.std(axis=0), norm.feature_std, atol=1e-9)
    # train features are z-scored, other splits use the same statistics
    assert np.allclose(splits.train.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(splits.train.features.std(axis=0), 1.0, atol=1e-12)
    raw_test = splits.test.features * norm.feature_std + norm.feature_mean
    matches = [np.any(np.all(np.isclose(ds.features, row), axis=1)) for row in raw_test]
    assert all(matches)


def test_target_statistics_regression_only():
    reg = split(ramp_dataset(12), (0.5, 0.25, 0.25), seed=1)
    assert reg.normalization.target_std > 1.0  # fitted
    clf = split(ramp_dataset(12, classes=3), (0.5, 0.25, 0.25), seed=1)
    assert clf.normalization.target_mean == 0.0
    assert clf.normalization.target_std == 1.0
    assert clf.train.targets.dtype == np.int64


def test_targets_left_raw_in_splits():
    ds = ramp_dataset(12)
    splits = split(ds, (0.5, 0.25, 0.25), seed=4)
    all_targets = np.concatenate(
        [splits.train.targets, splits.valid.targets, splits.test.targets]
    )
    assert sorted(all_targets) == sorted(ds.targets)


def test_constant_feature_hits_std_floor():
    features = np.ones((12, 2))
    features[:, 1] = np.arange(12)
    ds = Dataset(features=features, targets=np.arange(12, dtype=np.float64))
    splits = split(ds, (0.5, 0.25, 0.25), seed=2)
    assert splits.normalization.feature_std[0] == 1e-8
    assert np.all(np.isfinite(splits.train.features))
    assert np.allclose(splits.train.features[:, 0], 0.0)


def test_normalization_round_trip():
    ds = ramp_dataset(15)
    splits = split(ds, (0.6, 0.2, 0.2), seed=5)
    norm = splits.normalization
    y = np.array([3.0, -2.0, 11.0])
    assert np.allclose(norm.denormalize_mean(norm.normalize_targets(y)), y, atol=1e-9)
    var = np.array([0.5, 2.0])
    assert np.allclose(
        norm.denormalize_variance(var), var * norm.target_std**2, atol=0.0
    )
