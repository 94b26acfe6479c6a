"""The argument rules at the API edge, one table per rule.

Every count, seed and index follows one integer rule: a Python or numpy
integer, or an integral float, counts as its integer (3.0 is 3), and a bool,
a string, a fraction, NaN, an infinity or a value out of range raises
UsageError naming the argument. Every rate, coefficient and kernel setting
follows one real-number rule: a finite Python or numpy int or float, never a
bool or a string, stored as a float, and a value out of range raises
UsageError naming the argument too. Every array follows one array rule: ints
and floats, stored as float64, never bools, strings, None, objects, complex
numbers or ragged nesting, and at the entries that require it, finite, with
the first bad row named; class labels follow one label rule on top of it.
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
    KernelConfig,
    Layer,
    MixupConfig,
    ModelState,
    OptimizerState,
    RngStream,
    UsageError,
    backward,
    batch_taus,
    beta_sample,
    bin_stats,
    embed,
    forward,
    grid_search,
    init_mlp,
    load_model,
    log_softmax,
    mc_dropout_predict,
    metrics_from_payload,
    mix_batch,
    mixed_loss,
    normalized_distances,
    optimizer_step,
    save_model,
    softmax,
    split,
    temperature_scale,
    warp_pairwise,
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
    monkeypatch.setattr(harness, "_run_cell", lambda task: (None, "skipped"))
    grid = grid_search(ExperimentConfig(), [[], ["mixup.alpha=1"], ["mixup.alpha=2"]], jobs=jobs, dataset=DATA)
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
    **{f"ExperimentConfig.{table}.{key}": (
        f"{table}.{key}", 1,
        lambda v, *_, table=table, key=key: ExperimentConfig({table: {key: v}}).to_dict()[table][key])
       for table, key in (("optimizer", "epochs"), ("optimizer", "batch_size"), ("metrics", "num_bins"))},
    "ExperimentConfig.model.hidden": ("model.hidden", 1,
                                      lambda v, *_: ExperimentConfig({"model": {"hidden": [8, v]}}).to_dict()),
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


# entry point -> (the name its error gives, a value out of its range, a call with one value
# returning the stored value); each call takes the value and monkeypatch
REAL_ARGUMENTS = {
    "ModelState.dropout_rate": ("dropout_rate", 1.0,
                                lambda v, _: ModelState(_layers(), dropout_rate=v).dropout_rate),
    "init_mlp.dropout_rate": ("dropout_rate", 1.0, lambda v, _: init_mlp([2, 3, 1], v, RngStream(0)).dropout_rate),
    "OptimizerState.learning_rate": ("optimizer.learning_rate", -1.0,
                                     lambda v, _: OptimizerState(learning_rate=v).learning_rate),
    "KernelConfig.tau_max": ("tau_max", 0.0, lambda v, _: KernelConfig(tau_max=v, tau_std=1.0).tau_max),
    "KernelConfig.tau_std": ("tau_std", -1.0, lambda v, _: KernelConfig(tau_max=1.0, tau_std=v).tau_std),
    "MixupConfig.alpha": ("alpha", 0.0, lambda v, _: MixupConfig(alpha=v, mode="vanilla").alpha),
}
# entry points that use the value without keeping it: each call returns its result
USED_REALS = {
    "beta_sample.alpha": ("alpha", -0.5, lambda v, _: beta_sample(v, RngStream(0), size=4)),
    "split.fractions": ("split_fractions", 0.0,
                        lambda v, _: split(DATA, (0.25, v, 0.25), 0).train.features),
    "bin_stats.lo": ("lo", -math.inf, lambda v, _: bin_stats([0.6, 0.7, 0.9, 1.0], v, 1.0, 2, [1.0, 2.0, 3.0, 4.0])),
    "bin_stats.hi": ("hi", -math.inf, lambda v, _: bin_stats([0.0, 0.1, 0.3, 0.4], 0.0, v, 2, [1.0, 2.0, 3.0, 4.0])),
}

NOT_REALS = {"string": "0.5", "bool_true": True, "bool_false": False, "none": None, "nan": math.nan,
             "inf": math.inf, "huge_int": 10**400, "numpy_bool": np.bool_(False), "list": [0.5]}


ALL_REALS = {**REAL_ARGUMENTS, **USED_REALS}
FLOATS = pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)], ids=["float", "float64", "float32"])


@pytest.mark.parametrize("entry", sorted(ALL_REALS))
@pytest.mark.parametrize("case", [*sorted(NOT_REALS), "out_of_range"])
def test_real_argument_rejected_naming_it(entry, case, monkeypatch):
    name, out_of_range, call = ALL_REALS[entry]
    with pytest.raises(UsageError, match=re.escape(name) + " must be a finite number"):
        call(out_of_range if case == "out_of_range" else NOT_REALS[case], monkeypatch)


@pytest.mark.parametrize("entry", sorted(REAL_ARGUMENTS))
@FLOATS
def test_real_argument_stored_as_a_float(entry, value, monkeypatch):
    stored = REAL_ARGUMENTS[entry][2](value, monkeypatch)
    assert type(stored) is float and stored == 0.5


@pytest.mark.parametrize("entry", sorted(USED_REALS))
@FLOATS
def test_real_argument_gives_the_float_result(entry, value, monkeypatch):
    call = USED_REALS[entry][2]
    assert same(call(value, monkeypatch), call(0.5, monkeypatch))


@pytest.mark.parametrize("call", [
    lambda: split(DATA, 0.6, 0),
    lambda: split(DATA, None, 0),
    lambda: split(DATA, np.array([0.6, 0.2, 0.2]), 0),
    lambda: grid_search(ExperimentConfig(), 0.5, dataset=DATA),
    lambda: grid_search(ExperimentConfig(), "mixup.alpha=1", dataset=DATA),
], ids=["split_float", "split_none", "split_array", "grid_cells_float", "grid_cells_string"])
def test_fractions_and_cells_must_be_lists(call):
    # a bare number or None used to raise a bare TypeError, a string to split into characters
    with pytest.raises(UsageError, match=r"(split_fractions|cells) must be a (non-empty )?list"):
        call()


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


# ------------------------------------------------------------------ arrays
# Each entry's valid value is a float64 array of integers, so that an int list
# and a float32 copy hold the same numbers.

EVAL_MODEL = ModelState([Layer(np.array([[1.0, -1.0], [2.0, 0.0]]), np.zeros(2), "relu"),
                         Layer(np.array([[1.0], [-1.0]]), np.zeros(1))], dropout_rate=0.5, mode="eval")
INPUTS = np.array([[1.0, 2.0], [0.0, -1.0]])
MIXED = mix_batch(Batch(INPUTS, [0.0, 1.0]), MixupConfig(mode="off"), RngStream(0))
CLF_PAYLOAD = {"task": "classification", "num_bins": 2, "probs": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
               "labels": [0, 1, 1], "temperature": 1.0}
LOGITS = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 3.0]])
POINTS = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 6.0]])


def _payload_metrics(key, value):
    payload = {"task": "regression", "num_bins": 2, "means": [1.0, 2.0, 3.0], "variances": [1.0, 2.0, 4.0],
               "targets": [2.0, 2.0, 1.0]}
    return metrics_from_payload({**payload, key: value})


def _stepped_params(weight_grad):
    """The parameters of a fresh copy of EVAL_MODEL after one Adam step whose
    first weight gradient is ``weight_grad``, or the error it raises."""
    model = ModelState([Layer(layer.weights, layer.biases, layer.activation) for layer in EVAL_MODEL.layers])
    zeros = [(np.zeros_like(layer.weights), np.zeros_like(layer.biases)) for layer in model.layers]
    optimizer_step(OptimizerState(learning_rate=1.0), model, [(weight_grad, zeros[0][1]), zeros[1]])
    return model.params


def _backward(loss_grad):
    _, cache = forward(EVAL_MODEL, INPUTS)
    return backward(EVAL_MODEL, cache, loss_grad)


# entry point -> (the name its error gives, a valid value, whether the entry
# requires finite values, a call with one value returning its result)
ARRAY_ARGUMENTS = {
    "Batch.inputs": ("inputs", INPUTS, True, lambda v: Batch(v, [0.0, 1.0]).inputs),
    "Batch.targets": ("targets", np.array([3.0, -1.0]), True, lambda v: Batch(INPUTS, v).targets),
    "normalized_distances.points": ("points", POINTS, True, lambda v: normalized_distances(v, [1, 2, 0])),
    "batch_taus.features": ("features", POINTS, True,
                            lambda v: batch_taus(v, [1, 2, 0], KernelConfig(tau_max=2.0, tau_std=1.0))),
    "normalized_distances.permutation": ("permutation", np.array([1.0, 2.0, 0.0]), False,
                                         lambda v: normalized_distances(POINTS, v)),
    "batch_taus.permutation": ("permutation", np.array([1.0, 2.0, 0.0]), False,
                               lambda v: batch_taus(POINTS, v, KernelConfig(tau_max=2.0, tau_std=1.0))),
    **{f"payload.{key}": (f"predictions payload {key!r}", np.array([1.0, 2.0, 4.0]), True,
                          lambda v, key=key: _payload_metrics(key, v))
       for key in ("means", "variances", "targets")},
    "payload.probs": ("predictions payload 'probs'", np.array(CLF_PAYLOAD["probs"]), True,
                      lambda v: metrics_from_payload(dict(CLF_PAYLOAD, probs=v))),
    "temperature_scale.logits": ("logits", LOGITS, True, lambda v: temperature_scale(v, [0, 1, 1])),
    "bin_stats.values": ("values", np.array([0.0, 1.0, 1.0]), True,
                         lambda v: bin_stats(v, 0.0, 1.0, 2, [1.0, 2.0, 3.0])),
    "bin_stats.columns": ("columns[1]", np.array([1.0, 2.0, 3.0]), True,
                          lambda v: bin_stats([0.0, 1.0, 1.0], 0.0, 1.0, 2, [4.0, 5.0, 6.0], v)),
    "Layer.weights": ("weights", np.array([[1.0, -1.0], [2.0, 0.0]]), True, lambda v: Layer(v, np.zeros(2)).weights),
    "Layer.biases": ("biases", np.array([1.0, -2.0]), True, lambda v: Layer(np.ones((2, 2)), v).biases),
    "optimizer_step.grads": ("grads[0][0]", np.array([[1.0, -1.0], [2.0, 0.0]]), True, _stepped_params),
    "warp_pairwise.coeffs": ("coeffs", np.array([0.0, 1.0, 1.0]), False,
                             lambda v: warp_pairwise(v, [2.0, 2.0, math.inf])),
    "warp_pairwise.taus": ("taus", np.array([1.0, 2.0, 3.0]), False, lambda v: warp_pairwise([0.25, 0.5, 0.75], v)),
    "forward.inputs": ("inputs", INPUTS, False, lambda v: forward(EVAL_MODEL, v)[0]),
    "embed.inputs": ("inputs", INPUTS, False, lambda v: embed(EVAL_MODEL, v)),
    "mc_dropout_predict.inputs": ("inputs", INPUTS, False,
                                  lambda v: mc_dropout_predict(EVAL_MODEL, v, 3, RngStream(0))),
    "backward.loss_grad": ("loss_grad", np.array([[1.0], [-1.0]]), False, _backward),
    "mixed_loss.outputs": ("outputs", np.array([[1.0], [2.0]]), False, lambda v: mixed_loss(v, MIXED)),
    "softmax.logits": ("logits", LOGITS, False, softmax),
    "log_softmax.logits": ("logits", LOGITS, False, log_softmax),
    "Dataset.features": ("features", np.array([[1.0, 2.0], [3.0, 4.0]]), False,
                         lambda v: Dataset(v, [1.0, 2.0]).features),
    "Dataset.targets": ("targets", np.array([1.0, 2.0]), False, lambda v: Dataset(INPUTS, v).targets),
}
# entry point -> (the name its error gives, a call with one value returning its
# result); each takes labels of 3 rows in [0, 3)
LABEL_ARGUMENTS = {
    "Batch.targets": ("targets", lambda v: Batch(POINTS, v, num_classes=3).targets),
    "temperature_scale.labels": ("labels", lambda v: temperature_scale(LOGITS, v)),
    "payload.labels": ("predictions payload 'labels'", lambda v: metrics_from_payload(dict(CLF_PAYLOAD, labels=v))),
}
LABELS3 = np.array([0.0, 2.0, 1.0])


def _first_leaf_true(value):
    """``value`` as nested lists, with its first number replaced by True."""
    nested = value.tolist()
    if not isinstance(nested, list):
        return True
    inner = nested
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = True
    return nested


# each takes an entry's valid value; each gives a value that is no array of numbers
NOT_ARRAYS = {
    "string": lambda good: good.astype(str),
    "bool": lambda good: good.astype(bool),
    "bool_among_numbers": _first_leaf_true,
    "none": lambda good: None,
    "ragged": lambda good: [[1.0], [1.0, 2.0]],
    "complex": lambda good: good.astype(complex),
    "object": lambda good: good.astype(object),
}


def _with_last(good, bad):
    """``good`` with its last entry replaced by ``bad``, and that entry's row."""
    value = good.copy()
    value.flat[-1] = bad
    return value, np.unravel_index(good.size - 1, good.shape)[0] if good.ndim else None


@pytest.mark.parametrize("entry", sorted(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("case", sorted(NOT_ARRAYS))
def test_array_argument_rejected_naming_it(entry, case):
    name, good, _, call = ARRAY_ARGUMENTS[entry]
    with pytest.raises(UsageError, match=f"^{re.escape(name)} must be an array of ints and floats, got "):
        call(NOT_ARRAYS[case](good))


@pytest.mark.parametrize("entry", sorted(e for e, (*_, finite, _) in ARRAY_ARGUMENTS.items() if finite))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
def test_finite_array_argument_rejected_naming_its_row(entry, bad):
    name, good, _, call = ARRAY_ARGUMENTS[entry]
    value, row = _with_last(good, bad)
    with pytest.raises(UsageError, match=f"^{re.escape(name)} must be finite, got {bad!r} at row {row}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("kind", ["int_list", "float32"])
def test_int_lists_and_float32_give_the_float64_result(entry, kind):
    good, call = ARRAY_ARGUMENTS[entry][1], ARRAY_ARGUMENTS[entry][3]
    value = good.astype(np.int64).tolist() if kind == "int_list" else good.astype(np.float32)
    assert same(call(value), call(good.copy()))


@pytest.mark.parametrize("entry", sorted(LABEL_ARGUMENTS))
@pytest.mark.parametrize("case", [*sorted(NOT_ARRAYS), "nan", "inf", "half", "minus_one", "num_classes"])
def test_label_argument_rejected_naming_it(entry, case):
    name, call = LABEL_ARGUMENTS[entry]
    if case in NOT_ARRAYS:
        value, rule = NOT_ARRAYS[case](LABELS3), "must be an array of ints and floats, got "
    else:
        bad = {"nan": math.nan, "inf": math.inf, "half": 0.5, "minus_one": -1.0, "num_classes": 3.0}[case]
        value, rule = _with_last(LABELS3, bad)[0], f"must be integers in [0, 3), got {bad!r} at row 2"
    with pytest.raises(UsageError, match=f"^{re.escape(name + ' ' + rule)}"):
        call(value)


@pytest.mark.parametrize("entry", sorted(LABEL_ARGUMENTS))
@pytest.mark.parametrize("kind", ["int_list", "int64", "float32"])
def test_integral_labels_give_the_same_result(entry, kind):
    call = LABEL_ARGUMENTS[entry][1]
    value = {"int_list": [0, 2, 1], "int64": LABELS3.astype(np.int64), "float32": LABELS3.astype(np.float32)}[kind]
    assert same(call(value), call(LABELS3))


def test_bin_stats_column_must_be_as_long_as_the_values():
    # a short column used to raise a bare numpy ValueError from bincount
    with pytest.raises(UsageError, match=r"^columns\[0\] must be as long as values \(2\), got 1$"):
        bin_stats([0.1, 0.5], 0.0, 1.0, 2, [1.0])
    with pytest.raises(UsageError, match=r"^columns\[0\] must be 1-dimensional, got shape \(2, 1\)$"):
        bin_stats([0.1, 0.5], 0.0, 1.0, 2, [[1.0], [2.0]])


def test_non_finite_gradient_leaves_the_parameters_as_they_were():
    # a NaN gradient used to reach the update and leave NaN parameters behind
    model = init_mlp([2, 3, 1], 0.2, RngStream(0))
    params, opt = model.params.copy(), OptimizerState()
    grads = [(np.zeros_like(layer.weights), np.zeros_like(layer.biases)) for layer in model.layers]
    grads[1][1][0] = math.nan
    with pytest.raises(UsageError, match=r"^grads\[1\]\[1\] must be finite, got nan at row 0$"):
        optimizer_step(opt, model, grads)
    assert model.params.tobytes() == params.tobytes() and (opt.step, model.step_count) == (0, 0)
