"""Experiment harness: config, training loop, evaluation, grid search.

One integer seed determines everything about a run through documented
stream splitting: the split shuffle uses the root stream for that seed,
weight init uses child 1, the training loop's shuffles and mix draws use
child 2, MC-Dropout evaluation uses child 3, and training's dropout masks
use child 4. Two runs with the same config and seed are therefore
bit-identical, regardless of which process runs them.

Each training epoch draws its shuffle, then each step's mix draws, in step
order, from child 2; each step draws its dropout masks at the step (one per
hidden layer, into buffers kept for the run) from child 4. When no warp
strength reads the model, strengths, warps and mixed inputs are computed
once over all of an epoch's full batches, at its first step, which then
makes their mix draws; strengths from the model are computed at the step
that uses them.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import DataSplits, Dataset, _csv_text, _read_json, check_fractions, load_csv, split
from .errors import DivergenceError, UsageError, WarpmixError, check_int, check_real
from .metrics import _MAX_BINS, _T_LO, _nll_at_temperatures, metrics_from_payload, softmax, temperature_scale
from .mixer import Batch as CheckedBatch, MixupConfig, _Epoch, _mse
from .model import ModelState, OptimizerState, _draw_masks, _dropout_stream, _gradient_views, _layer_buffers
from .model import _propagate, check_dropout_rate, init_mlp, mc_dropout_predict
# The training step runs on arrays checked once per run, before its loop, so it
# calls the unchecked kernels, each under the name of the public function that
# checks and then calls it: per-layer traces time the step's stages by these names.
# Its mix_batch is its batch's share of the epoch's block mix.
from .mixer import _batch as Batch, _mix_step as mix_batch, _mixed_loss as _loss_and_grad
from .model import _backward as backward, _forward as forward, _optimizer_step as optimizer_step
from .rng import _SEED_MAX, RngStream
from .similarity import KernelConfig

__all__ = [
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "MetricReport",
    "TrainResult",
    "ExperimentResult",
    "GridResult",
    "train",
    "evaluate",
    "run_experiment",
    "grid_search",
]

# Stream indices under the per-run seed (child 0 is deliberately unused so
# the root stream, consumed by the split shuffle, has no sibling collision).
STREAM_INIT = 1
STREAM_TRAIN = 2
STREAM_EVAL = 3
STREAM_DROPOUT = 4

# Every config field with its documented default. Unknown keys are rejected;
# omitted keys take these values.
DEFAULT_CONFIG = {
    "dataset": {
        "path": "",
        "target_column": -1,
        "name": "",
    },
    "task": "regression",
    "num_classes": None,
    "split_fractions": [0.6, 0.2, 0.2],
    "seeds": [0],
    "model": {
        "hidden": [128, 128],
        "dropout_rate": 0.2,
    },
    "optimizer": {
        "kind": "adam",
        "learning_rate": 0.01,
        "epochs": 100,
        "batch_size": 16,
    },
    "mixup": {
        "mode": "kernel_warped",
        "alpha": 0.5,
        "per_batch_coeff": False,
        "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "raw_input"},
        "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "label"},
    },
    "metrics": {
        "num_bins": 15,
        "mc_samples": 50,
    },
    "output_dir": "warpmix-out",
}


def _merge_with_defaults(defaults: dict, given: dict, path: str = "") -> dict:
    for key in given:
        if key not in defaults:
            raise UsageError(f"unknown config key {path + key!r}")
    merged = {}
    for key, default_value in defaults.items():
        if key in given and isinstance(default_value, dict) and given[key] is not None:
            if not isinstance(given[key], dict):
                raise UsageError(f"config key {path + key!r} must be a table")
            merged[key] = _merge_with_defaults(default_value, given[key], path + key + ".")
        elif key in given:
            merged[key] = _typed(path + key, default_value, given[key])
        else:
            merged[key] = copy.deepcopy(default_value)
    return merged


_NULLABLE = ("num_classes", "mixup.input_kernel", "mixup.output_kernel")
# the integer keys' bounds (lo, hi), for a list key each item's
_INT_BOUNDS = {"seeds": (0, _SEED_MAX), "num_classes": (2, None), "metrics.num_bins": (1, _MAX_BINS),
               "optimizer.epochs": (1, None), "optimizer.batch_size": (1, None), "model.hidden": (1, None)}
_KINDS = {bool: "true or false", str: "a string", dict: "a table"}
# the kernel backends that read one task's targets: regression values, or the classes' output weights
_BACKEND_TASKS = {"label": "regression", "class_weight": "classification"}


def _typed(name: str, default, value):
    """``value`` as the type of the default it replaces, or UsageError naming the key.

    Integers and floats follow the package's two argument rules
    (``errors.check_int`` and ``check_real``): integers take integral floats
    (3.0 is stored as 3) and keep their ``_INT_BOUNDS``, floats take finite
    integers and floats, and bools are never numbers. A list is typed item
    by item. ``num_classes`` and the kernel tables may be null, and
    ``dataset.target_column`` may name its column."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise UsageError(f"config key {name!r} must be a list, got {value!r}")
        return [_typed(name, default[0], item) for item in value]
    if (value is None and name in _NULLABLE) or (name == "dataset.target_column" and isinstance(value, str)):
        return value
    kind = int if name == "num_classes" else type(default)
    if kind is int:
        return check_int(value, f"config key {name!r}", *_INT_BOUNDS.get(name, ()))
    if kind is float:
        return check_real(value, f"config key {name!r}")
    if isinstance(value, kind):
        return value
    raise UsageError(f"config key {name!r} must be {_KINDS[kind]}, got {value!r}")


def _keyed(prefix: str, make, fields: dict):
    """``make(**fields)``, with its UsageError named by the dotted key: each
    message of MixupConfig and KernelConfig starts with its field's name."""
    try:
        return make(**fields)
    except UsageError as exc:
        raise UsageError(f"{prefix}{exc}") from None


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # also an integer too long to convert, or nesting too deep
        return text


class ExperimentConfig:
    """A validated experiment description.

    Constructed from a nested dict (see DEFAULT_CONFIG for the schema and
    defaults). Each value is typed once, here, so callers read it as it is;
    ``to_dict()`` returns the effective values, which reproduce the run
    exactly when fed back in.
    """

    def __init__(self, values: Optional[dict] = None):
        if not isinstance(values, (dict, type(None))):
            raise UsageError(f"a config must be a table, got {values!r}")
        self._values = _merge_with_defaults(DEFAULT_CONFIG, values or {})
        v = self._values
        if v["task"] not in ("regression", "classification"):
            raise UsageError(f"task must be regression or classification, got {v['task']!r}")
        if (v["task"] == "classification") != (v["num_classes"] is not None):
            raise UsageError(f"num_classes must be an integer >= 2 for classification and null for "
                             f"regression, got {v['num_classes']!r} for {v['task']}")
        if not v["seeds"]:
            raise UsageError("at least one seed is required")
        for i, seed in enumerate(v["seeds"]):
            if seed in v["seeds"][:i]:  # it would train the same run twice and report it as two
                raise UsageError(f"seeds lists {seed!r} more than once")
        check_fractions(v["split_fractions"])
        check_dropout_rate(v["model"]["dropout_rate"], "model.dropout_rate")
        if not v["output_dir"]:
            raise UsageError("output_dir must be a non-empty path")
        if v["optimizer"]["kind"] != "adam":  # the one optimizer: the key stays so configs naming it still load
            raise UsageError(f"optimizer.kind must be adam, got {v['optimizer']['kind']!r}")
        # Fail fast on bad mixup, optimizer and evaluation settings rather than
        # mid-training or after it.
        mix = self.mixup_config()
        for side in ("input_kernel", "output_kernel") if mix.mode == "kernel_warped" else ():
            backend = getattr(mix, side).backend
            if _BACKEND_TASKS.get(backend, v["task"]) != v["task"]:
                raise UsageError(f"mixup.{side}.backend must fit the task: {backend!r} is for "
                                 f"{_BACKEND_TASKS[backend]}, got {v['task']}")
        self.optimizer_state()
        if v["task"] == "regression" and self.mc_samples < 2:  # regression evaluates by MC dropout
            raise UsageError(f"metrics.mc_samples must be >= 2 for regression, got {self.mc_samples}")
        if v["task"] == "regression" and not v["model"]["dropout_rate"] > 0.0:
            raise UsageError(f"model.dropout_rate must be > 0 for regression, got {v['model']['dropout_rate']}")
        # MC dropout drops hidden units, and the embedding backend reads a hidden layer
        if not v["model"]["hidden"] and (v["task"] == "regression" or "embedding" in mix._backends):
            raise UsageError("model.hidden needs a hidden layer for MC dropout and embedding kernels, got []")

    @classmethod
    def from_file(cls, path, overrides=()) -> "ExperimentConfig":
        values = _read_json(path, "config")
        if values is None:  # JSON null reads as None, which ExperimentConfig() takes as all defaults
            raise UsageError("a config must be a table, got None")
        return cls(values).with_overrides(overrides)

    def with_overrides(self, overrides) -> "ExperimentConfig":
        """Apply dotted-path key=value overrides (e.g. mixup.alpha=0.5), given
        as a list or tuple of strings."""
        if not isinstance(overrides, (list, tuple)):
            raise UsageError(f"overrides must be a list of key=value strings, got {overrides!r}")
        if not overrides:
            return self
        values = copy.deepcopy(self._values)
        for item in overrides:
            if not isinstance(item, str) or "=" not in item:
                raise UsageError(f"override {item!r} is not of the form key=value")
            dotted, _, raw = item.partition("=")
            node = values
            parts = dotted.strip().split(".")
            for part in parts[:-1]:
                if not isinstance(node, dict) or part not in node:
                    raise UsageError(f"unknown config key {dotted!r}")
                if node[part] is None:
                    node[part] = {}
                node = node[part]
            if not isinstance(node, dict):
                raise UsageError(f"unknown config key {dotted!r}")
            # an unknown leaf fails in ExperimentConfig below, named by its dotted key
            node[parts[-1]] = _parse_override_value(raw)
        return ExperimentConfig(values)

    def to_dict(self) -> dict:
        return copy.deepcopy(self._values)

    # convenience accessors
    @property
    def task(self) -> str:
        return self._values["task"]

    @property
    def num_classes(self):
        return self._values["num_classes"]

    @property
    def seeds(self) -> list:
        return list(self._values["seeds"])

    @property
    def split_fractions(self) -> tuple:
        return tuple(self._values["split_fractions"])

    @property
    def output_dir(self) -> str:
        return self._values["output_dir"]

    @property
    def num_bins(self) -> int:
        return self._values["metrics"]["num_bins"]

    @property
    def mc_samples(self) -> int:
        return self._values["metrics"]["mc_samples"]

    def mixup_config(self) -> MixupConfig:
        m = self._values["mixup"]
        kernels = {side: None if m[side] is None else _keyed(f"mixup.{side}.", KernelConfig, m[side])
                   for side in ("input_kernel", "output_kernel")}
        return _keyed("mixup.", MixupConfig, {**m, **kernels})

    def optimizer_state(self) -> OptimizerState:
        return OptimizerState(learning_rate=self._values["optimizer"]["learning_rate"])

    def load_dataset(self) -> Dataset:
        d = self._values["dataset"]
        if not d["path"]:
            raise UsageError("config has no dataset.path")
        ds = load_csv(d["path"], target_column=d["target_column"], name=d["name"])
        return ds if self.num_classes is None else replace(ds, num_classes=self.num_classes)


@dataclass
class TrainResult:
    model: ModelState
    trace: list  # per-epoch {"epoch", "train_loss", "valid_loss"}
    splits: DataSplits


@dataclass
class MetricReport:
    """Per-seed metric values with their aggregates and the config echo."""

    per_seed: dict  # seed -> {metric: value}
    mean: dict
    std: dict
    config: dict
    duration_s: float

    @staticmethod
    def aggregate(per_seed: dict) -> tuple:
        """Mean and sample std over seeds; a metric missing anywhere is skipped."""
        seeds = sorted(per_seed)
        names = [k for k in per_seed[seeds[0]] if all(per_seed[s].get(k) is not None for s in seeds)]
        mean = {}
        std = {}
        for name in names:
            vals = np.array([float(per_seed[s][name]) for s in seeds])
            mean[name] = float(vals.mean())
            std[name] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        return mean, std

    @classmethod
    def build(cls, per_seed: dict, config: dict, duration_s: float) -> "MetricReport":
        mean, std = cls.aggregate(per_seed)
        return cls(per_seed=per_seed, mean=mean, std=std, config=config, duration_s=duration_s)

    def to_json(self) -> str:
        payload = {
            "per_seed": {str(s): m for s, m in sorted(self.per_seed.items())},
            "mean": self.mean,
            "std": self.std,
            "config": self.config,
            "duration_s": self.duration_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _plain_valid_loss(model: ModelState, part: Dataset, norm, buffers=None) -> float:
    """The loss of an eval-mode forward over ``part``; ``buffers`` as for ``_propagate``."""
    outputs = _propagate(model, part.features, len(model.layers), None, buffers)[0]
    if part.num_classes is None:
        return _mse(outputs[:, 0], norm.normalize_targets(part.targets))
    return float(_nll_at_temperatures(outputs, part.targets, np.ones(1))[0])  # the fit's loss at T = 1


def train(config: ExperimentConfig, seed: int, dataset: Optional[Dataset] = None) -> TrainResult:
    """Train one model for one seed; deterministic given (config, seed)."""
    if dataset is None:
        dataset = config.load_dataset()
    task = config.task
    num_classes = None if task == "regression" else config.num_classes
    if dataset.num_classes != num_classes:
        raise UsageError(f"a {task} config with num_classes={num_classes} cannot train on a dataset "
                         f"with num_classes={dataset.num_classes}")
    splits = split(dataset, config.split_fractions, seed)
    norm = splits.normalization

    targets = splits.train.targets if num_classes else norm.normalize_targets(splits.train.targets)
    # Every check of a minibatch, made once over the whole train split; the
    # step slices its minibatches from the checked arrays.
    checked = CheckedBatch(splits.train.features, targets, num_classes=num_classes)
    features, targets = checked.inputs, checked.targets

    model_cfg, opt_cfg = config._values["model"], config._values["optimizer"]
    dims = [features.shape[1], *model_cfg["hidden"], num_classes or 1]
    root = RngStream(seed)
    model = init_mlp(dims, model_cfg["dropout_rate"], root.child(STREAM_INIT))
    opt = config.optimizer_state()
    mix_cfg = config.mixup_config()
    train_rng = root.child(STREAM_TRAIN)
    dropout_rng = _dropout_stream(model, root.child(STREAM_DROPOUT))
    onehot = None if num_classes is None else np.eye(num_classes)
    grads = _gradient_views(opt, model)  # backward writes, the optimizer reads
    valid_buffers = _layer_buffers(model, len(splits.valid))
    epochs, batch_size = opt_cfg["epochs"], opt_cfg["batch_size"]

    n = features.shape[0]
    # each step draws its dropout masks into these, a short last step into their first rows
    uniforms = _layer_buffers(model, min(batch_size, n))[:-1]
    kept = [np.empty(u.shape, dtype=bool) for u in uniforms]
    trace = []
    for epoch in range(epochs):
        order = train_rng.permutation(n)
        mixing = _Epoch(Batch(features[order], targets[order], num_classes), batch_size, train_rng, mix_cfg)
        batch_losses = []
        try:
            for step in range(math.ceil(n / batch_size)):
                mixed = mix_batch(mixing, step, model)  # checks model features
                masks = _draw_masks(model, mixed.size, dropout_rng, kept, uniforms)
                outputs, cache = forward(model, mixed.inputs, masks)
                loss, out_grad = _loss_and_grad(outputs, mixed, onehot)
                if not math.isfinite(loss):
                    raise DivergenceError("non-finite training loss")
                backward(model, cache, out_grad, grads)
                optimizer_step(opt, model)
                if not np.isfinite(model.params).all():
                    raise DivergenceError("non-finite parameters")
                batch_losses.append(loss)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at epoch {epoch}, seed {seed}", trace=trace) from None
        trace.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "valid_loss": _plain_valid_loss(model, splits.valid, norm, valid_buffers),
            }
        )
    model.eval()
    return TrainResult(model=model, trace=trace, splits=splits)


def evaluate(model: ModelState, splits: DataSplits, config: ExperimentConfig, seed: int):
    """Test-split metrics plus an exportable predictions payload.

    Regression: MC-Dropout predictive distributions, de-normalized back to
    target units, feeding RMSE/MAPE/UCE/ENCE. Classification: temperature is
    fitted on the validation split only, then ECE/Brier/NLL/accuracy on the
    scaled test probabilities. The metrics are ``metrics_from_payload`` of the
    payload's arrays, which the payload then holds as lists.
    A model whose predictions or logits are not finite (it overflows on
    these inputs), or whose validation loss overflows at the temperature
    grid's low end, raises DivergenceError naming the seed.
    """
    norm = splits.normalization
    outputs = 1 if config.task == "regression" else config.num_classes
    if model.layers[-1].weights.shape[1] != outputs:
        raise UsageError(f"{config.task} evaluation needs a model with {outputs} outputs")
    payload = {"task": config.task, "num_bins": config.num_bins}
    if config.task == "regression":
        rng = RngStream(seed).child(STREAM_EVAL)
        means_n, vars_n = mc_dropout_predict(model, splits.test.features, config.mc_samples, rng)
        means, variances = norm.denormalize_mean(means_n[:, 0]), norm.denormalize_variance(vars_n[:, 0])
        _check_finite_outputs(seed, {"predicted means": means, "predicted variances": variances})
        arrays = {"means": means, "variances": variances, "targets": splits.test.targets}
    else:
        valid_logits = _propagate(model, splits.valid.features, len(model.layers))[0]
        test_logits = _propagate(model, splits.test.features, len(model.layers))[0]
        _check_finite_outputs(seed, {"validation logits": valid_logits, "test logits": test_logits})
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow is what the check looks for
            low_end = _nll_at_temperatures(valid_logits, splits.valid.targets, np.array([_T_LO]))
        # a higher temperature only shrinks the scaled logits and their spread: the grid's other losses are finite
        _check_finite_outputs(seed, {f"validation losses at temperature {_T_LO}": low_end})
        payload["temperature"] = temperature_scale(valid_logits, splits.valid.targets)
        arrays = {"probs": softmax(test_logits / payload["temperature"]), "labels": splits.test.targets}
    # float64 survives the JSON lists exactly, so these are the payload's metrics
    metrics = metrics_from_payload({**payload, **arrays})
    payload.update({key: values.tolist() for key, values in arrays.items()})
    payload["metrics"] = metrics
    return metrics, payload


def _check_finite_outputs(seed: int, outputs: dict) -> None:
    """DivergenceError naming ``seed`` at the first of ``outputs`` (name ->
    array) that is not finite."""
    for name, values in outputs.items():
        if not np.isfinite(values).all():
            raise DivergenceError(f"the model's {name} are not finite in evaluation, seed {seed}")


@dataclass
class ExperimentResult:
    report: MetricReport
    train_results: dict  # seed -> TrainResult
    predictions: dict  # seed -> payload dict


def run_experiment(config: ExperimentConfig, dataset: Optional[Dataset] = None) -> ExperimentResult:
    """Train and evaluate every seed in the config; aggregate a MetricReport."""
    if dataset is None:
        dataset = config.load_dataset()
    started = time.perf_counter()
    per_seed = {}
    train_results = {}
    predictions = {}
    for seed in config.seeds:
        result = train(config, seed, dataset)
        metrics, payload = evaluate(result.model, result.splits, config, seed)
        per_seed[seed] = metrics
        train_results[seed] = result
        predictions[seed] = payload
    report = MetricReport.build(per_seed, config.to_dict(), time.perf_counter() - started)
    return ExperimentResult(report=report, train_results=train_results, predictions=predictions)


@dataclass
class GridResult:
    cells: list  # {"cell", "overrides", "status", "error", "mean", "std"}
    rows: list  # long format: {"cell", "seed", "metric", "value"}

    def to_csv(self) -> str:
        columns = ("cell", "seed", "metric", "value")
        return _csv_text(columns, ([row[c] for c in columns] for row in self.rows))


# every cell trains on the one dataset loaded from the grid's config and writes to its one directory
_GRID_SHARED = ("dataset", "task", "num_classes", "output_dir")


def _run_cell(args):
    values, dataset = args
    try:
        return run_experiment(ExperimentConfig(values), dataset).report, None
    except (WarpmixError, FloatingPointError, MemoryError) as exc:  # MemoryError: e.g. a huge metrics.mc_samples
        return None, f"{type(exc).__name__}: {exc}"


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported only when a grid runs in
    parallel: the import pulls multiprocessing, socket and subprocess into
    the process, which every ``import warpmix`` would otherwise pay for.
    It keeps the class's name, under which a test substitutes a fake pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def grid_search(config: ExperimentConfig, cells, jobs: int = 1, dataset: Optional[Dataset] = None) -> GridResult:
    """Train/evaluate each cell; failures don't stop the sweep.

    ``cells`` is a non-empty list or tuple of cells, each a list or tuple of
    ``key=value`` overrides, and cell i runs
    ``config.with_overrides(cells[i])`` for every seed it holds. Every cell
    is checked before any runs: an override the config rejects, a cell whose
    effective config repeats an earlier one's, or a cell that changes
    ``dataset``, ``task``, ``num_classes`` or ``output_dir`` raises
    UsageError naming the cell's index. Cells are independent deterministic
    jobs: results depend only on the cell config, never on execution order
    or worker count.
    """
    jobs = check_int(jobs, "jobs", 1)
    if not isinstance(cells, (list, tuple)) or not cells:
        raise UsageError(f"cells must be a non-empty list of override lists, got {cells!r}")
    base = config.to_dict()
    effective = []
    for i, cell in enumerate(cells):
        try:
            values = config.with_overrides(cell).to_dict()
        except UsageError as exc:
            raise UsageError(f"cell {i}: {exc}") from None
        changed = [key for key in _GRID_SHARED if values[key] != base[key]]
        if changed:
            raise UsageError(f"cell {i}: changes {changed[0]}, which every cell of a grid shares")
        if values in effective:
            raise UsageError(f"cell {i}: repeats the effective config of cell {effective.index(values)}")
        effective.append(values)
    if dataset is None:
        dataset = config.load_dataset()

    tasks = [(values, dataset) for values in effective]
    if jobs > 1:
        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]

    results, rows = [], []
    for i, (cell, (report, error)) in enumerate(zip(cells, outcomes)):
        results.append({"cell": i, "overrides": list(cell), "status": "failed", "error": error,
                        "mean": None, "std": None})
        if report is None:
            continue
        results[-1].update(status="ok", mean=report.mean, std=report.std)
        rows.extend({"cell": i, "seed": seed, "metric": name, "value": float(value)}
                    for seed, metrics in sorted(report.per_seed.items())
                    for name, value in metrics.items() if value is not None)
    return GridResult(cells=results, rows=rows)
