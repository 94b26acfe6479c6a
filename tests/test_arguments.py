"""The argument rules at the API edge, one table per rule.

Every count, seed and index follows one integer rule: a Python or numpy
integer, or an integral float, counts as its integer (3.0 is 3), and a bool,
a string, a fraction, NaN, an infinity or a value out of range raises
UsageError naming the argument. Every rate and coefficient follows one
real-number rule: a finite Python or numpy int or float, never a bool or a
string, stored as a float.
"""

import json
import math
import re

import numpy as np
import pytest

import warpmix.harness as harness
from warpmix import (
    Batch,
    Dataset,
    ExperimentConfig,
    Layer,
    ModelState,
    OptimizerState,
    RngStream,
    UsageError,
    beta_sample,
    bin_stats,
    grid_search,
    init_mlp,
    load_model,
    mc_dropout_predict,
    metrics_from_payload,
    save_model,
    split,
)

from _support import synth_regression

X = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
LABELS = np.array([0, 1, 2, 0])
DATA = synth_regression(n=40, d=3, seed=0)
MODEL = init_mlp([3, 8, 1], 0.2, RngStream(0))
PAYLOAD = {"task": "regression", "num_bins": 2, "means": [1.0, 2.0, 0.5],
           "variances": [0.5, 1.0, 0.25], "targets": [1.5, 2.5, 0.0]}


def _grid_workers(jobs, monkeypatch):
    """The worker count a three-cell grid sizes its pool by, with the pool
    and the cells replaced so that nothing trains."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_run_cell", lambda task: (task[1], task[2], None, "skipped"))
    grid = grid_search(ExperimentConfig(), [0.5, 1.0, 2.0], [1.0], jobs=jobs, dataset=DATA)
    return sizes, grid.cells


def _checkpoint_step_count(step_count, tmp_path):
    path = tmp_path / "checkpoint.json"
    save_model(MODEL, path)
    payload = json.loads(path.read_text())
    payload["step_count"] = step_count
    path.write_text(json.dumps(payload, default=lambda number: number.item()))  # a numpy value as JSON holds it
    return load_model(path).step_count


# entry point -> (the name its error gives, its minimum, a call with one value);
# each call takes the value, tmp_path and monkeypatch
INTEGER_ARGUMENTS = {
    "Dataset.num_classes": ("num_classes", 2, lambda v, *_: Dataset(X, LABELS, num_classes=v).num_classes),
    "Batch.num_classes": ("num_classes", 2, lambda v, *_: Batch(X, LABELS, num_classes=v).num_classes),
    "RngStream.seed": ("seed", 0, lambda v, *_: RngStream(v).uniform(4)),
    "RngStream.child": ("child index", 0, lambda v, *_: RngStream(0).child(v).uniform(4)),
    "split.seed": ("seed", 0, lambda v, *_: split(DATA, (0.6, 0.2, 0.2), v).train.features),
    "ExperimentConfig.seeds": ("seeds", 0, lambda v, *_: ExperimentConfig({"seeds": [v]}).seeds),
    "init_mlp.dims": ("dims", 1, lambda v, *_: init_mlp([3, v, 1], 0.2, RngStream(0)).params),
    "mc_dropout_predict.samples": ("samples", 2, lambda v, *_: mc_dropout_predict(MODEL, X, v, RngStream(1))),
    "beta_sample.size": ("size", 0, lambda v, *_: beta_sample(0.5, RngStream(0), size=v)),
    "bin_stats.num_bins": ("num_bins", 1,
                           lambda v, *_: bin_stats([0.1, 0.5, 0.9, 1.0], 0.0, 1.0, v, [1.0, 2.0, 3.0, 4.0])),
    "payload.num_bins": ("num_bins", 1, lambda v, *_: metrics_from_payload(dict(PAYLOAD, num_bins=v))),
    "grid_search.jobs": ("jobs", 1, lambda v, tmp_path, monkeypatch: _grid_workers(v, monkeypatch)),
    "checkpoint.step_count": ("step_count", 0, lambda v, tmp_path, *_: _checkpoint_step_count(v, tmp_path)),
    "OptimizerState.step": ("optimizer.step", 0, lambda v, *_: OptimizerState(step=v).step),
}

NOT_INTEGERS = {"half": 2.5, "string": "3", "bool": True, "minus_one": -1, "nan": math.nan, "inf": math.inf}


def same(a, b) -> bool:
    """Equal values of equal types, arrays bit for bit."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("case", [*NOT_INTEGERS, "below_minimum"])
def test_integer_argument_rejected_naming_it(entry, case, tmp_path, monkeypatch):
    name, minimum, call = INTEGER_ARGUMENTS[entry]
    value = minimum - 1 if case == "below_minimum" else NOT_INTEGERS[case]
    with pytest.raises(UsageError, match=re.escape(name) + ".* must be an integer"):
        call(value, tmp_path, monkeypatch)


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
@pytest.mark.parametrize("value", [3.0, np.int64(3), np.float64(3.0)], ids=["float", "int64", "float64"])
def test_integral_value_gives_the_integer_result(entry, value, tmp_path, monkeypatch):
    call = INTEGER_ARGUMENTS[entry][2]
    assert same(call(value, tmp_path, monkeypatch), call(3, tmp_path, monkeypatch))


def test_seed_range_is_checked_without_overflow():
    from warpmix.errors import check_int

    assert RngStream(2**64 - 1).seed == 2**64 - 1
    for seed in (2**64, 10**400, 1e300):
        with pytest.raises(UsageError, match=r"seed must be an integer in \[0, 18446744073709551615\]"):
            RngStream(seed)
    assert check_int(10**400, "n", 0) == 10**400
    assert type(check_int(np.uint64(2**64 - 1), "n", 0)) is int
    with pytest.raises(UsageError, match=r"n must be an integer >= 0, got np\.True_"):
        check_int(np.bool_(True), "n", 0)


# ----------------------------------------------------------- real numbers


def _layers():
    return [Layer(np.ones((2, 3)), np.zeros(3), "relu"), Layer(np.ones((3, 1)), np.zeros(1))]


# entry point -> (the name its error gives, a call with one value returning the stored value)
REAL_ARGUMENTS = {
    "ModelState.dropout_rate": ("dropout_rate", lambda v: ModelState(_layers(), dropout_rate=v).dropout_rate),
    "init_mlp.dropout_rate": ("dropout_rate", lambda v: init_mlp([2, 3, 1], v, RngStream(0)).dropout_rate),
    **{f"OptimizerState.{field}": (f"optimizer.{field}",
                                   lambda v, field=field: getattr(OptimizerState(**{field: v}), field))
       for field in ("learning_rate", "momentum", "beta1", "beta2", "eps", "weight_decay")},
}

NOT_REALS = {"string": "0.5", "bool_true": True, "bool_false": False, "none": None, "nan": math.nan,
             "inf": math.inf, "huge_int": 10**400, "numpy_bool": np.bool_(False), "list": [0.5]}


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
@pytest.mark.parametrize("case", sorted(NOT_REALS))
def test_real_argument_rejected_naming_it(entry, case):
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(UsageError, match=re.escape(name) + " must be a finite number"):
        call(NOT_REALS[case])


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)], ids=["float", "float64", "float32"])
def test_real_argument_stored_as_a_float(entry, value):
    stored = REAL_ARGUMENTS[entry][1](value)
    assert type(stored) is float and stored == 0.5


def test_integer_rates_stored_as_floats():
    assert type(OptimizerState(learning_rate=1).learning_rate) is float
    assert type(ModelState(_layers(), dropout_rate=np.int64(0)).dropout_rate) is float


def test_string_dropout_rate_fails_at_construction_not_in_forward():
    # a kept string used to fail only at the first train-mode forward, with a bare TypeError
    with pytest.raises(UsageError, match=r"dropout_rate must be a finite number in \[0, 1\), got '0.2'"):
        ModelState(_layers(), dropout_rate="0.2")


@pytest.mark.parametrize("key, value", [("dropout_rate", "0.2"), ("dropout_rate", True), ("step_count", 2.5)])
def test_checkpoint_with_a_bad_number_is_malformed(tmp_path, key, value):
    path = tmp_path / "checkpoint.json"
    save_model(MODEL, path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(UsageError, match=f"is malformed: .*{key} must be"):
        load_model(path)
