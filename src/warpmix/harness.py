"""Experiment harness: config, training loop, evaluation, grid search.

One integer seed determines everything about a run through documented
stream splitting: the split shuffle uses the root stream for that seed,
weight init uses child 1, the training loop (epoch shuffles, mix draws,
dropout masks, consumed in that order within each step) uses child 2, and
MC-Dropout evaluation uses child 3. Two runs with the same config and seed
are therefore bit-identical, regardless of which process runs them.
"""

from __future__ import annotations

import copy
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import DataSplits, Dataset, load_csv, split
from .errors import DivergenceError, UsageError, WarpmixError
from .metrics import log_softmax, metrics_from_payload, softmax, temperature_scale
from .mixer import Batch, MixupConfig, _mixed_nll, _nll, mix_batch, mixed_loss
from .model import (
    ModelState,
    OptimizerState,
    _propagate,
    backward,
    forward,
    init_mlp,
    mc_dropout_predict,
    optimizer_step,
)
from .rng import RngStream
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
            _check_number(path + key, default_value, given[key])
            merged[key] = copy.deepcopy(given[key])
        else:
            merged[key] = copy.deepcopy(default_value)
    return merged


def _check_number(name: str, default, value) -> None:
    """Raise UsageError, naming the key, unless ``value`` converts like the
    number (or list of numbers) that it replaces in the defaults."""
    if name == "num_classes" and value is not None:
        default = 0
    kind = type(default[0] if isinstance(default, list) else default)
    if kind not in (int, float) or name == "dataset.target_column":
        return
    if isinstance(default, list) and not isinstance(value, list):
        raise UsageError(f"config key {name!r} must be a list, got {value!r}")
    for item in value if isinstance(default, list) else [value]:
        try:
            kind(item)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"config key {name!r} must be {kind.__name__}-valued, got {value!r}") from None


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


class ExperimentConfig:
    """A validated experiment description.

    Constructed from a nested dict (see DEFAULT_CONFIG for the schema and
    defaults); ``to_dict()`` returns the effective values, which reproduce
    the run exactly when fed back in.
    """

    def __init__(self, values: Optional[dict] = None):
        self._values = _merge_with_defaults(DEFAULT_CONFIG, values or {})
        v = self._values
        if v["task"] not in ("regression", "classification"):
            raise UsageError(f"task must be regression or classification, got {v['task']!r}")
        if v["task"] == "classification" and not v["num_classes"]:
            raise UsageError("classification experiments need num_classes")
        if not v["seeds"]:
            raise UsageError("at least one seed is required")
        if int(v["optimizer"]["epochs"]) < 1 or int(v["optimizer"]["batch_size"]) < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        # Fail fast on bad mixup and optimizer settings rather than mid-training.
        self.mixup_config()
        self.optimizer_state()

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
        return [int(s) for s in self._values["seeds"]]

    @property
    def split_fractions(self) -> tuple:
        return tuple(self._values["split_fractions"])

    @property
    def output_dir(self) -> str:
        return self._values["output_dir"]

    @property
    def num_bins(self) -> int:
        return int(self._values["metrics"]["num_bins"])

    @property
    def mc_samples(self) -> int:
        return int(self._values["metrics"]["mc_samples"])

    def mixup_config(self) -> MixupConfig:
        m = self._values["mixup"]
        kernels = {}
        for side in ("input_kernel", "output_kernel"):
            spec = m[side]
            kernels[side] = (
                None
                if spec is None
                else KernelConfig(
                    tau_max=float(spec["tau_max"]),
                    tau_std=float(spec["tau_std"]),
                    backend=spec["backend"],
                )
            )
        return MixupConfig(
            alpha=float(m["alpha"]),
            mode=m["mode"],
            input_kernel=kernels["input_kernel"],
            output_kernel=kernels["output_kernel"],
            per_batch_coeff=bool(m["per_batch_coeff"]),
        )

    def optimizer_state(self) -> OptimizerState:
        o = self._values["optimizer"]
        return OptimizerState(
            kind=o["kind"],
            learning_rate=float(o["learning_rate"]),
            momentum=float(o["momentum"]),
            beta1=float(o["beta1"]),
            beta2=float(o["beta2"]),
            eps=float(o["eps"]),
            weight_decay=float(o["weight_decay"]),
        )

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
                num_classes=int(self.num_classes),
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

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        payload = json.loads(text)
        return cls(
            per_seed={int(s): m for s, m in payload["per_seed"].items()},
            mean=payload["mean"],
            std=payload["std"],
            config=payload["config"],
            duration_s=payload["duration_s"],
        )


def _loss_and_grad(outputs: np.ndarray, mixed, task: str):
    """Mixed-batch loss and its gradient in the outputs.

    The classification loss is taken from ``log_softmax`` of the logits, so
    it grows without bound as the model diverges; probabilities clipped at
    1e-12 would cap it near 27.6."""
    n = mixed.size
    if task == "regression":
        return mixed_loss(outputs, mixed, task), 2.0 * (outputs - mixed.mixed_targets[:, None]) / n
    # softmax and log_softmax from one shifted exp pass, by their own operations
    z = outputs - outputs.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    probs = e / total
    onehot = np.eye(probs.shape[1])
    c = mixed.target_coeffs[:, None]
    convex = c * onehot[mixed.targets_a] + (1.0 - c) * onehot[mixed.targets_b]
    return _mixed_nll(z - np.log(total), mixed), (probs - convex) / n


def _plain_valid_loss(model: ModelState, part: Dataset, task: str, norm) -> float:
    outputs = _propagate(model, part.features, len(model.layers))[0]  # an eval-mode forward
    if task == "regression":
        targets = norm.normalize_targets(part.targets)
        return float(np.mean((outputs[:, 0] - targets) ** 2))
    return float(np.mean(_nll(log_softmax(outputs), part.targets)))


def train(config: ExperimentConfig, seed: int, dataset: Optional[Dataset] = None) -> TrainResult:
    """Train one model for one seed; deterministic given (config, seed)."""
    if dataset is None:
        dataset = config.load_dataset()
    splits = split(dataset, config.split_fractions, seed)
    task = config.task
    norm = splits.normalization

    features = splits.train.features
    if task == "regression":
        targets = norm.normalize_targets(splits.train.targets)
        n_out = 1
        num_classes = None
    else:
        targets = splits.train.targets
        num_classes = int(config.num_classes)
        n_out = num_classes

    model_cfg = config.to_dict()["model"]
    dims = [features.shape[1], *[int(h) for h in model_cfg["hidden"]], n_out]
    root = RngStream(seed)
    model = init_mlp(dims, float(model_cfg["dropout_rate"]), root.child(STREAM_INIT),
                     hidden_activation=model_cfg["activation"])
    opt = config.optimizer_state()
    mix_cfg = config.mixup_config()
    train_rng = root.child(STREAM_TRAIN)
    epochs = int(config.to_dict()["optimizer"]["epochs"])
    batch_size = int(config.to_dict()["optimizer"]["batch_size"])

    n = features.shape[0]
    trace = []
    for epoch in range(epochs):
        order = train_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(features[idx], targets[idx], num_classes=num_classes)
            try:
                mixed = mix_batch(batch, mix_cfg, train_rng, model)  # checks model features
                outputs, cache = forward(model, mixed.inputs, train_rng)
                loss, out_grad = _loss_and_grad(outputs, mixed, task)
                if not math.isfinite(loss):
                    raise DivergenceError("non-finite training loss")
                grads = backward(model, cache, out_grad)
                optimizer_step(opt, model, grads)
                if not np.isfinite(model.params).all():
                    raise DivergenceError("non-finite parameters")
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}, seed {seed}", trace=trace) from None
            batch_losses.append(loss)
        trace.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "valid_loss": _plain_valid_loss(model, splits.valid, task, norm),
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
    outputs = 1 if config.task == "regression" else int(config.num_classes)
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


def _cell_config(config: ExperimentConfig, tau_max: float, tau_std: float, seeds) -> ExperimentConfig:
    values = config.to_dict()
    for side in ("input_kernel", "output_kernel"):
        kernel = values["mixup"][side] or {}
        kernel["tau_max"] = tau_max
        kernel["tau_std"] = tau_std
        values["mixup"][side] = kernel
    if seeds is not None:
        values["seeds"] = list(seeds)
    return ExperimentConfig(values)


def _run_cell(args):
    values, tau_max, tau_std, dataset = args
    config = ExperimentConfig(values)
    try:
        result = run_experiment(config, dataset)
    except (WarpmixError, FloatingPointError) as exc:
        return tau_max, tau_std, None, f"{type(exc).__name__}: {exc}"
    return tau_max, tau_std, result.report, None


def grid_search(
    config: ExperimentConfig,
    tau_max_list,
    tau_std_list,
    seeds=None,
    jobs: int = 1,
    dataset: Optional[Dataset] = None,
) -> GridResult:
    """Train/evaluate each (tau_max, tau_std) cell; failures don't stop the sweep.

    Cells are independent deterministic jobs: results depend only on the cell
    config and seeds, never on execution order or worker count.
    """
    tau_max_list = [float(t) for t in tau_max_list]
    tau_std_list = [float(t) for t in tau_std_list]
    if not tau_max_list or not tau_std_list:
        raise UsageError("grid lists must be non-empty")
    if dataset is None:
        dataset = config.load_dataset()

    tasks = [
        (_cell_config(config, tm, ts, seeds).to_dict(), tm, ts, dataset)
        for tm in tau_max_list
        for ts in tau_std_list
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
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
