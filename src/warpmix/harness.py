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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DataSplits, Dataset, check_fractions, load_csv, split
from .errors import DivergenceError, UsageError, WarpmixError, check_int, check_real
from .metrics import _nll_at_temperatures, metrics_from_payload, softmax, temperature_scale
from .mixer import Batch as CheckedBatch, MixupConfig, _Epoch, _mse
from .model import ModelState, OptimizerState, _draw_masks, _dropout_stream, _gradient_views, _layer_buffers
from .model import ACTIVATIONS, _propagate, check_dropout_rate, init_mlp, mc_dropout_predict
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
        "activation": "relu",
    },
    "optimizer": {
        "kind": "adam",
        "learning_rate": 0.01,
        "epochs": 100,
        "batch_size": 16,
        "momentum": 0.9,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "weight_decay": 0.0,
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
_KINDS = {bool: "true or false", str: "a string", dict: "a table"}


def _typed(name: str, default, value):
    """``value`` as the type of the default it replaces, or UsageError naming the key.

    Integers and floats follow the package's two argument rules
    (``errors.check_int`` and ``check_real``): integers take integral floats
    (3.0 is stored as 3), floats take finite integers and floats, and bools
    are never numbers. A list is typed item by item. ``num_classes`` and the
    kernel tables may be null, and ``dataset.target_column`` may name its
    column."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise UsageError(f"config key {name!r} must be a list, got {value!r}")
        return [_typed(name, default[0], item) for item in value]
    if (value is None and name in _NULLABLE) or (name == "dataset.target_column" and isinstance(value, str)):
        return value
    kind = int if name == "num_classes" else type(default)
    if kind is int:
        return check_int(value, f"config key {name!r}")
    if kind is float:
        return check_real(value, f"config key {name!r}")
    if isinstance(value, kind):
        return value
    raise UsageError(f"config key {name!r} must be {_KINDS[kind]}, got {value!r}")


def _check_distinct(values: list, name: str) -> None:
    """UsageError naming the first value that ``values`` repeats: a repeated
    seed or grid value would run the same work twice and report it as two."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise UsageError(f"{name} lists {value!r} more than once")


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


class ExperimentConfig:
    """A validated experiment description.

    Constructed from a nested dict (see DEFAULT_CONFIG for the schema and
    defaults). Each value is typed once, here, so callers read it as it is;
    ``to_dict()`` returns the effective values, which reproduce the run
    exactly when fed back in.
    """

    def __init__(self, values: Optional[dict] = None):
        self._values = _merge_with_defaults(DEFAULT_CONFIG, values or {})
        v = self._values
        if v["task"] not in ("regression", "classification"):
            raise UsageError(f"task must be regression or classification, got {v['task']!r}")
        if v["task"] == "classification" and (v["num_classes"] is None or v["num_classes"] < 2):
            raise UsageError(f"classification experiments need num_classes >= 2, got {v['num_classes']}")
        if not v["seeds"]:
            raise UsageError("at least one seed is required")
        for seed in v["seeds"]:
            check_int(seed, "seeds", 0, _SEED_MAX)
        _check_distinct(v["seeds"], "seeds")
        check_fractions(v["split_fractions"])
        if v["optimizer"]["epochs"] < 1 or v["optimizer"]["batch_size"] < 1:
            raise UsageError("optimizer.epochs and optimizer.batch_size must be >= 1")
        if any(size < 1 for size in v["model"]["hidden"]):
            raise UsageError(f"model.hidden sizes must be >= 1, got {v['model']['hidden']}")
        if v["model"]["activation"] not in ACTIVATIONS:
            raise UsageError(f"model.activation must be one of {ACTIVATIONS}, got {v['model']['activation']!r}")
        check_dropout_rate(v["model"]["dropout_rate"], "model.dropout_rate")
        if not v["output_dir"]:
            raise UsageError("output_dir must be a non-empty path")
        # Fail fast on bad mixup, optimizer and evaluation settings rather than
        # mid-training or after it.
        mix = self.mixup_config()
        self.optimizer_state()
        if self.num_bins < 1:
            raise UsageError(f"metrics.num_bins must be >= 1, got {self.num_bins}")
        if v["task"] == "regression" and self.mc_samples < 2:  # regression evaluates by MC dropout
            raise UsageError(f"metrics.mc_samples must be >= 2 for regression, got {self.mc_samples}")
        if v["task"] == "regression" and not v["model"]["dropout_rate"] > 0.0:
            raise UsageError(f"model.dropout_rate must be > 0 for regression, got {v['model']['dropout_rate']}")
        # MC dropout drops hidden units, and the embedding backend reads a hidden layer
        if not v["model"]["hidden"] and (v["task"] == "regression" or "embedding" in mix._backends):
            raise UsageError("model.hidden needs a hidden layer for MC dropout and embedding kernels, got []")

    @classmethod
    def from_file(cls, path, overrides=()) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path!r} is not valid JSON: {exc}") from exc
        return cls(values).with_overrides(overrides)

    def with_overrides(self, overrides) -> "ExperimentConfig":
        """Apply dotted-path key=value overrides (e.g. mixup.alpha=0.5)."""
        if not overrides:
            return self
        values = copy.deepcopy(self._values)
        for item in overrides:
            if "=" not in item:
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
        kernels = {side: None if m[side] is None else KernelConfig(**m[side])
                   for side in ("input_kernel", "output_kernel")}
        return MixupConfig(**{**m, **kernels})

    def optimizer_state(self) -> OptimizerState:
        o = self._values["optimizer"]
        return OptimizerState(**{k: v for k, v in o.items() if k not in ("epochs", "batch_size")})

    def load_dataset(self) -> Dataset:
        d = self._values["dataset"]
        if not d["path"]:
            raise UsageError("config has no dataset.path")
        ds = load_csv(d["path"], target_column=d["target_column"], name=d["name"])
        if self.task == "classification":
            ds = Dataset(
                features=ds.features,
                targets=ds.targets,
                name=ds.name,
                num_classes=self.num_classes,
            )
        return ds


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
    model = init_mlp(dims, model_cfg["dropout_rate"], root.child(STREAM_INIT),
                     hidden_activation=model_cfg["activation"])
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
    scaled test probabilities. The metrics are ``metrics_from_payload(payload)``.
    """
    norm = splits.normalization
    outputs = 1 if config.task == "regression" else config.num_classes
    if model.layers[-1].weights.shape[1] != outputs:
        raise UsageError(f"{config.task} evaluation needs a model with {outputs} outputs")
    payload = {"task": config.task, "num_bins": config.num_bins}
    if config.task == "regression":
        rng = RngStream(seed).child(STREAM_EVAL)
        means_n, vars_n = mc_dropout_predict(model, splits.test.features, config.mc_samples, rng)
        payload["means"] = norm.denormalize_mean(means_n[:, 0]).tolist()
        payload["variances"] = norm.denormalize_variance(vars_n[:, 0]).tolist()
        payload["targets"] = splits.test.targets.tolist()
    else:
        valid_logits = _propagate(model, splits.valid.features, len(model.layers))[0]
        test_logits = _propagate(model, splits.test.features, len(model.layers))[0]
        payload["temperature"] = temperature_scale(valid_logits, splits.valid.targets)
        payload["probs"] = softmax(test_logits / payload["temperature"]).tolist()
        payload["labels"] = splits.test.targets.tolist()
    payload["metrics"] = metrics_from_payload(payload)
    return payload["metrics"], payload


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
    cells: list  # {"tau_max", "tau_std", "status", "error", "mean", "std"}
    rows: list  # long format: {"tau_max", "tau_std", "seed", "metric", "value"}

    def to_csv(self) -> str:
        lines = ["tau_max,tau_std,seed,metric,value"]
        for row in self.rows:
            lines.append(
                f"{row['tau_max']!r},{row['tau_std']!r},{row['seed']},{row['metric']},{row['value']!r}"
            )
        return "\n".join(lines) + "\n"


def _cell_config(config: ExperimentConfig, tau_max: float, tau_std: float) -> ExperimentConfig:
    values = config.to_dict()
    for side in ("input_kernel", "output_kernel"):
        kernel = values["mixup"][side] or {}
        kernel["tau_max"] = tau_max
        kernel["tau_std"] = tau_std
        values["mixup"][side] = kernel
    return ExperimentConfig(values)


def _run_cell(args):
    values, tau_max, tau_std, dataset = args
    config = ExperimentConfig(values)
    try:
        result = run_experiment(config, dataset)
    except (WarpmixError, FloatingPointError) as exc:
        return tau_max, tau_std, None, f"{type(exc).__name__}: {exc}"
    return tau_max, tau_std, result.report, None


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported only when a grid runs in
    parallel: the import pulls multiprocessing, socket and subprocess into
    the process, which every ``import warpmix`` would otherwise pay for.
    It keeps the class's name, under which a test substitutes a fake pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def grid_search(
    config: ExperimentConfig,
    tau_max_list,
    tau_std_list,
    jobs: int = 1,
    dataset: Optional[Dataset] = None,
) -> GridResult:
    """Train/evaluate each (tau_max, tau_std) cell; failures don't stop the sweep.

    Each cell runs every seed of ``config``. Cells are independent
    deterministic jobs: results depend only on the cell config, never on
    execution order or worker count. A value repeated in either list raises
    UsageError.
    """
    jobs = check_int(jobs, "jobs", 1)
    tau_max_list = [float(t) for t in tau_max_list]
    tau_std_list = [float(t) for t in tau_std_list]
    if not tau_max_list or not tau_std_list:
        raise UsageError("grid lists must be non-empty")
    _check_distinct(tau_max_list, "tau_max_list")
    _check_distinct(tau_std_list, "tau_std_list")
    if dataset is None:
        dataset = config.load_dataset()

    tasks = [
        (_cell_config(config, tm, ts).to_dict(), tm, ts, dataset)
        for tm in tau_max_list
        for ts in tau_std_list
    ]
    if jobs > 1:
        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outcomes = list(pool.map(_run_cell, tasks))
    else:
        outcomes = [_run_cell(t) for t in tasks]

    cells = []
    rows = []
    for tau_max, tau_std, report, error in outcomes:
        if report is None:
            cells.append(
                {"tau_max": tau_max, "tau_std": tau_std, "status": "failed", "error": error,
                 "mean": None, "std": None}
            )
            continue
        cells.append(
            {"tau_max": tau_max, "tau_std": tau_std, "status": "ok", "error": None,
             "mean": report.mean, "std": report.std}
        )
        for seed, metrics in sorted(report.per_seed.items()):
            for name, value in metrics.items():
                if value is None:
                    continue
                rows.append(
                    {"tau_max": tau_max, "tau_std": tau_std, "seed": seed,
                     "metric": name, "value": float(value)}
                )
    return GridResult(cells=cells, rows=rows)
