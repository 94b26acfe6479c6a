"""Tests for experiment configuration, the training loop, evaluation,
reports, and the (tau_max, tau_std) grid runner.
"""

import copy
import json
import math

import numpy as np
import pytest

from warpmix import (
    BinningConfig,
    ClassifPrediction,
    DivergenceError,
    PredictiveDistribution,
    Dataset,
    DatasetError,
    DEFAULT_CONFIG,
    ExperimentConfig,
    Layer,
    MetricReport,
    ModelState,
    RngStream,
    UsageError,
    accuracy,
    brier,
    ece,
    ence,
    evaluate,
    grid_search,
    init_mlp,
    nll,
    regression_point_metrics,
    run_experiment,
    split,
    train,
    uce,
)
import warpmix.harness as harness
from warpmix.harness import STREAM_INIT

from _support import synth_blobs, synth_regression, write_csv


def tiny_values(task="regression"):
    values = {
        "task": task,
        "seeds": [0],
        "model": {"hidden": [8], "dropout_rate": 0.2},
        "optimizer": {"learning_rate": 0.01, "epochs": 2, "batch_size": 16},
        "mixup": {
            "mode": "kernel_warped",
            "alpha": 0.5,
            "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "raw_input"},
            "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "label"},
        },
        "metrics": {"num_bins": 5, "mc_samples": 10},
    }
    if task == "classification":
        values["num_classes"] = 3
        values["mixup"]["output_kernel"]["backend"] = "class_weight"
    return values


def tiny_config(task="regression", **tweaks):
    values = tiny_values(task)
    for dotted, value in tweaks.items():
        node = values
        parts = dotted.split("__")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return ExperimentConfig(values)


REG_DATA = synth_regression(n=90, d=3, seed=0)
CLF_DATA = synth_blobs(n=120, d=4, classes=3, seed=1, sep=4.0)


# ------------------------------------------------------------------ config


def test_empty_config_takes_all_defaults():
    cfg = ExperimentConfig()
    assert cfg.to_dict() == DEFAULT_CONFIG
    assert cfg.task == "regression"
    assert cfg.seeds == [0]
    assert cfg.num_bins == 15 and cfg.mc_samples == 50


def test_defaults_are_copied_not_shared():
    cfg = ExperimentConfig()
    d = cfg.to_dict()
    d["model"]["hidden"].append(999)
    assert ExperimentConfig().to_dict()["model"]["hidden"] == [128, 128]
    assert DEFAULT_CONFIG["model"]["hidden"] == [128, 128]


def test_unknown_keys_rejected():
    with pytest.raises(UsageError):
        ExperimentConfig({"learning_rate": 0.1})
    with pytest.raises(UsageError):
        ExperimentConfig({"optimizer": {"lr": 0.1}})
    with pytest.raises(UsageError):
        ExperimentConfig({"mixup": {"input_kernel": {"sigma": 2.0}}})


def test_config_validation_rules():
    with pytest.raises(UsageError):
        ExperimentConfig({"task": "ranking"})
    with pytest.raises(UsageError):
        ExperimentConfig({"task": "classification"})  # num_classes missing
    with pytest.raises(UsageError):
        ExperimentConfig({"seeds": []})
    with pytest.raises(UsageError):
        ExperimentConfig({"optimizer": {"epochs": 0}})
    with pytest.raises(UsageError):
        ExperimentConfig({"mixup": {"mode": "kernel_warped", "input_kernel": None}})


def test_overrides_dotted_paths():
    cfg = ExperimentConfig().with_overrides(
        ["mixup.alpha=0.7", "optimizer.epochs=5", "model.hidden=[32, 16]", "dataset.path=a.csv"]
    )
    d = cfg.to_dict()
    assert d["mixup"]["alpha"] == 0.7
    assert d["optimizer"]["epochs"] == 5
    assert d["model"]["hidden"] == [32, 16]
    assert d["dataset"]["path"] == "a.csv"  # non-JSON text stays a string


def test_overrides_reject_unknown_and_malformed():
    cfg = ExperimentConfig()
    with pytest.raises(UsageError):
        cfg.with_overrides(["optimizer.gamma=1"])
    with pytest.raises(UsageError):
        cfg.with_overrides(["nonsense=1"])
    with pytest.raises(UsageError):
        cfg.with_overrides(["optimizer.epochs"])


def test_config_round_trips_through_dict_and_file(tmp_path):
    cfg = tiny_config()
    again = ExperimentConfig(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()

    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = ExperimentConfig.from_file(path, overrides=["optimizer.epochs=3"])
    assert loaded.to_dict()["optimizer"]["epochs"] == 3
    others = {k: v for k, v in loaded.to_dict().items() if k != "optimizer"}
    assert others == {k: v for k, v in cfg.to_dict().items() if k != "optimizer"}


@pytest.mark.parametrize("dotted, value", [
    ("optimizer.epochs", "abc"),
    ("optimizer.batch_size", None),
    ("optimizer.epochs", 1e999),
    ("optimizer.learning_rate", "fast"),
    ("model.dropout_rate", {}),
    ("model.hidden", ["wide"]),
    ("mixup.alpha", [1]),
    ("mixup.input_kernel.tau_max", "big"),
    ("metrics.num_bins", "x"),
    ("seeds", ["a"]),
    ("seeds", 3),
    ("split_fractions", ["a", 0.2, 0.2]),
    ("num_classes", "two"),
])
def test_ill_typed_numbers_name_their_key(dotted, value):
    with pytest.raises(UsageError) as info:
        ExperimentConfig().with_overrides([f"{dotted}={json.dumps(value)}"])
    assert repr(dotted) in str(info.value)


@pytest.mark.parametrize("label", [1.7, 5, -1])
def test_bad_class_labels_rejected_at_load(tmp_path, label):
    rows = [[0.1, 0], [0.2, 1], [0.3, label], [0.4, 0]]
    path = write_csv(tmp_path / "clf.csv", ["x", "y"], rows)
    cfg = ExperimentConfig(
        {"dataset": {"path": str(path)}, "task": "classification", "num_classes": 2}
    )
    with pytest.raises(DatasetError) as info:
        cfg.load_dataset()
    assert info.value.code == "bad_label"
    assert "row 3" in str(info.value)


# ------------------------------------------------------------------- train


def test_off_mode_zero_lr_keeps_initial_parameters():
    cfg = tiny_config(
        mixup__mode="off", optimizer__learning_rate=0.0, optimizer__epochs=2
    )
    result = train(cfg, seed=3, dataset=REG_DATA)
    dims = [REG_DATA.features.shape[1], 8, 1]
    fresh = init_mlp(dims, 0.2, RngStream(3).child(STREAM_INIT))
    for trained, initial in zip(result.model.layers, fresh.layers):
        assert np.array_equal(trained.weights, initial.weights)
        assert np.array_equal(trained.biases, initial.biases)


def test_training_is_bit_reproducible():
    cfg = tiny_config(optimizer__epochs=1)
    a = train(cfg, seed=5, dataset=REG_DATA)
    b = train(cfg, seed=5, dataset=REG_DATA)
    for la, lb in zip(a.model.layers, b.model.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    assert a.trace == b.trace


def test_trace_shape_and_progress():
    cfg = tiny_config(optimizer__epochs=4)
    result = train(cfg, seed=0, dataset=REG_DATA)
    assert [t["epoch"] for t in result.trace] == [0, 1, 2, 3]
    for t in result.trace:
        assert math.isfinite(t["train_loss"]) and math.isfinite(t["valid_loss"])
    assert result.model.mode == "eval"


def test_split_inside_train_matches_module_split():
    cfg = tiny_config()
    result = train(cfg, seed=11, dataset=REG_DATA)
    direct = split(REG_DATA, cfg.split_fractions, 11)
    assert np.array_equal(result.splits.train.features, direct.train.features)
    assert np.array_equal(result.splits.test.targets, direct.test.targets)


@pytest.mark.parametrize(
    "task, tweaks",
    [
        ("regression", {}),
        # model-based kernels: the features of a diverging model overflow
        ("classification", {"mixup__input_kernel__backend": "embedding",
                            "model__hidden": [16, 16, 16], "optimizer__learning_rate": 1e8}),
        ("classification", {"optimizer__learning_rate": 1e6, "optimizer__epochs": 10}),
    ],
    ids=["raw_input", "embedding", "class_weight"],
)
def test_divergence_aborts_with_diagnostic(task, tweaks):
    cfg = tiny_config(
        task,
        **{
            "optimizer__kind": "sgd_momentum",
            "optimizer__learning_rate": 1e12,
            "optimizer__epochs": 3,
            **tweaks,
        },
    )
    data = REG_DATA if task == "regression" else CLF_DATA
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
        train(cfg, seed=0, dataset=data)
    assert isinstance(info.value.trace, list)


def test_diverged_classifier_loss_is_not_capped():
    # params reach ~1e81 with no error; a loss from probabilities clipped at
    # 1e-12 stays under -ln(1e-12) ~ 27.6 and hides that
    cfg = tiny_config(
        "classification",
        optimizer__kind="sgd_momentum", optimizer__learning_rate=1e6, optimizer__epochs=3,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(cfg, seed=0, dataset=CLF_DATA)
    ceiling = -math.log(1e-12)
    assert max(row["train_loss"] for row in result.trace) > ceiling
    assert max(row["valid_loss"] for row in result.trace) > ceiling


def test_classification_training_runs():
    cfg = tiny_config("classification", optimizer__epochs=3)
    result = train(cfg, seed=1, dataset=CLF_DATA)
    assert result.model.dims[-1] == 3
    metrics, payload = evaluate(result.model, result.splits, cfg, seed=1)
    assert set(metrics) == {"accuracy", "ece", "brier", "nll", "temperature"}
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert payload["task"] == "classification"


# ---------------------------------------------------------------- evaluate


def constant_model(d, hidden, value):
    """A network that always outputs `value` regardless of input/dropout."""
    layers = [
        Layer(weights=np.zeros((d, hidden)), biases=np.zeros(hidden), activation="relu"),
        Layer(weights=np.zeros((hidden, 1)), biases=np.array([float(value)])),
    ]
    return ModelState(layers=layers, dropout_rate=0.2, mode="eval")


def test_perfect_stub_model_scores_zero():
    # constant target 7; a model that always emits the normalized value 0
    # de-normalizes to exactly 7 -> rmse 0, mape 0
    features = RngStream(0).standard_normal((60, 3))
    data = Dataset(features=features, targets=np.full(60, 7.0))
    cfg = tiny_config()
    splits = split(data, cfg.split_fractions, seed=0)
    model = constant_model(3, 4, 0.0)
    metrics, payload = evaluate(model, splits, cfg, seed=0)
    assert metrics["rmse"] == 0.0
    assert metrics["mape"] == 0.0
    assert metrics["uce"] == 0.0


def test_evaluate_metrics_match_exported_predictions_regression():
    cfg = tiny_config()
    result = train(cfg, seed=2, dataset=REG_DATA)
    metrics, payload = evaluate(result.model, result.splits, cfg, seed=2)
    preds = [
        PredictiveDistribution(m, v, t)
        for m, v, t in zip(payload["means"], payload["variances"], payload["targets"])
    ]
    rmse, mape = regression_point_metrics(preds)
    assert rmse == metrics["rmse"] and mape == metrics["mape"]
    bins = BinningConfig(payload["num_bins"], "equal_width_variance")
    assert uce(preds, bins) == metrics["uce"]
    assert ence(preds, bins) == metrics["ence"]


def test_evaluate_metrics_match_exported_predictions_classification():
    cfg = tiny_config("classification", optimizer__epochs=3)
    result = train(cfg, seed=4, dataset=CLF_DATA)
    metrics, payload = evaluate(result.model, result.splits, cfg, seed=4)
    preds = [
        ClassifPrediction(np.array(p), int(y))
        for p, y in zip(payload["probs"], payload["labels"])
    ]
    assert accuracy(preds) == metrics["accuracy"]
    assert brier(preds) == metrics["brier"]
    assert nll(preds) == metrics["nll"]
    assert ece(preds, BinningConfig(payload["num_bins"], "equal_width_confidence")) == metrics["ece"]


def test_evaluate_deterministic_given_seed():
    cfg = tiny_config()
    result = train(cfg, seed=6, dataset=REG_DATA)
    m1, p1 = evaluate(result.model, result.splits, cfg, seed=6)
    m2, p2 = evaluate(result.model, result.splits, cfg, seed=6)
    assert m1 == m2 and p1 == p2


def test_duplicated_rows_get_identical_logits():
    cfg = tiny_config("classification", optimizer__epochs=2)
    result = train(cfg, seed=0, dataset=CLF_DATA)
    splits = result.splits
    doubled = Dataset(
        features=np.vstack([splits.test.features, splits.test.features]),
        targets=np.concatenate([splits.test.targets, splits.test.targets]),
        num_classes=3,
    )
    from warpmix import forward

    logits, _ = forward(result.model.eval(), doubled.features)
    n = len(splits.test)
    assert np.array_equal(logits[:n], logits[n:])


def test_evaluate_task_model_mismatch():
    cfg = tiny_config()
    result = train(cfg, seed=0, dataset=REG_DATA)
    clf_cfg = tiny_config("classification")
    with pytest.raises(UsageError):
        evaluate(result.model, result.splits, clf_cfg, seed=0)


def test_temperature_fit_ignores_test_rows():
    cfg = tiny_config("classification", optimizer__epochs=2)
    result = train(cfg, seed=3, dataset=CLF_DATA)
    metrics, _ = evaluate(result.model, result.splits, cfg, seed=3)
    poisoned = copy.deepcopy(result.splits)
    poisoned.test.targets = (poisoned.test.targets + 1) % 3
    poisoned_metrics, _ = evaluate(result.model, poisoned, cfg, seed=3)
    assert poisoned_metrics["temperature"] == metrics["temperature"]
    assert poisoned_metrics["nll"] != metrics["nll"]


def test_training_never_reads_test_rows():
    # poison the rows destined for valid/test; the trained model must not move
    cfg = tiny_config(optimizer__epochs=2)
    seed = 8
    n = len(REG_DATA)
    order = RngStream(seed).permutation(n)
    n_train = n - int(n * 0.2) - int(n * 0.2)
    clean = train(cfg, seed=seed, dataset=REG_DATA)

    poisoned_features = REG_DATA.features.copy()
    poisoned_targets = REG_DATA.targets.copy()
    test_rows = order[n_train + int(n * 0.2):]
    poisoned_features[test_rows] *= 1e6
    poisoned_targets[test_rows] += 1e9
    poisoned = Dataset(features=poisoned_features, targets=poisoned_targets)
    dirty = train(cfg, seed=seed, dataset=poisoned)

    for lc, ld in zip(clean.model.layers, dirty.model.layers):
        assert np.array_equal(lc.weights, ld.weights)
    # per-epoch losses (train and valid) are also untouched
    assert clean.trace == dirty.trace


# ----------------------------------------------------------------- reports


def test_report_aggregates_are_recomputable():
    cfg = tiny_config()
    cfg = ExperimentConfig({**cfg.to_dict(), "seeds": [0, 1, 2]})
    result = run_experiment(cfg, dataset=REG_DATA)
    report = result.report
    mean, std = MetricReport.aggregate(report.per_seed)
    for name in report.mean:
        assert abs(report.mean[name] - mean[name]) <= 1e-12
        assert abs(report.std[name] - std[name]) <= 1e-12
    values = [report.per_seed[s]["rmse"] for s in (0, 1, 2)]
    assert report.mean["rmse"] == pytest.approx(np.mean(values), abs=1e-12)
    assert report.std["rmse"] == pytest.approx(np.std(values, ddof=1), abs=1e-12)
    assert report.duration_s > 0.0


def test_report_single_seed_std_is_zero():
    cfg = tiny_config()
    result = run_experiment(cfg, dataset=REG_DATA)
    assert set(result.report.std.values()) == {0.0}


def test_report_skips_metrics_missing_for_any_seed():
    per_seed = {
        0: {"rmse": 1.0, "mape": 5.0},
        1: {"rmse": 2.0, "mape": None},  # e.g. a zero target in this split
    }
    mean, std = MetricReport.aggregate(per_seed)
    assert "mape" not in mean and "mape" not in std
    assert mean["rmse"] == 1.5


def test_report_json_round_trip():
    cfg = tiny_config()
    report = run_experiment(cfg, dataset=REG_DATA).report
    back = MetricReport.from_json(report.to_json())
    assert back.per_seed == report.per_seed  # keys back to ints
    assert back.mean == report.mean and back.std == report.std
    assert back.config == report.config
    assert back.duration_s == report.duration_s


def test_seed_isolation():
    cfg_single = tiny_config()
    single = run_experiment(cfg_single, dataset=REG_DATA).report.per_seed[0]
    cfg_pair = ExperimentConfig({**tiny_values(), "seeds": [1, 0]})
    paired = run_experiment(cfg_pair, dataset=REG_DATA).report.per_seed[0]
    assert single == paired


# -------------------------------------------------------------------- grid


def test_grid_single_cell_equals_single_run():
    cfg = tiny_config()
    grid = grid_search(cfg, [0.5], [1.5], dataset=REG_DATA)
    assert len(grid.cells) == 1 and grid.cells[0]["status"] == "ok"

    cell_cfg = harness._cell_config(cfg, 0.5, 1.5, None)
    direct = run_experiment(cell_cfg, dataset=REG_DATA).report
    assert grid.cells[0]["mean"] == direct.mean
    by_metric = {r["metric"]: r["value"] for r in grid.rows}
    for name, value in direct.per_seed[0].items():
        if value is not None:
            assert by_metric[name] == value


def test_identical_cells_identical_results():
    cfg = tiny_config()
    grid = grid_search(cfg, [0.5, 0.5], [1.0], dataset=REG_DATA)
    assert grid.cells[0]["mean"] == grid.cells[1]["mean"]
    assert grid.cells[0]["std"] == grid.cells[1]["std"]


def test_grid_seed_override_and_empty_lists():
    cfg = tiny_config()
    grid = grid_search(cfg, [1.0], [1.0], seeds=[4, 5], dataset=REG_DATA)
    assert sorted({r["seed"] for r in grid.rows}) == [4, 5]
    with pytest.raises(UsageError):
        grid_search(cfg, [], [1.0], dataset=REG_DATA)
    with pytest.raises(UsageError):
        grid_search(cfg, [1.0], [], dataset=REG_DATA)


def test_grid_contains_cell_failures(monkeypatch):
    real = harness.run_experiment

    def flaky(config, dataset=None):
        if config.to_dict()["mixup"]["input_kernel"]["tau_max"] == 2.0:
            raise DivergenceError("boom", trace=[])
        return real(config, dataset)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    cfg = tiny_config()
    grid = grid_search(cfg, [1.0, 2.0], [1.0], dataset=REG_DATA)
    by_tau = {c["tau_max"]: c for c in grid.cells}
    assert by_tau[1.0]["status"] == "ok"
    assert by_tau[2.0]["status"] == "failed"
    assert "DivergenceError" in by_tau[2.0]["error"]
    assert {r["tau_max"] for r in grid.rows} == {1.0}


def test_grid_all_cells_diverging_still_returns():
    cfg = tiny_config(
        optimizer__kind="sgd_momentum", optimizer__learning_rate=1e12, optimizer__epochs=2
    )
    with np.errstate(over="ignore"):
        grid = grid_search(cfg, [1.0, 0.5], [1.0], dataset=REG_DATA)
    assert all(c["status"] == "failed" for c in grid.cells)
    assert grid.rows == []


def test_grid_parallel_matches_serial():
    cfg = tiny_config(optimizer__epochs=1)
    serial = grid_search(cfg, [0.5, 2.0], [1.0], dataset=REG_DATA, jobs=1)
    parallel = grid_search(cfg, [0.5, 2.0], [1.0], dataset=REG_DATA, jobs=2)
    assert serial.rows == parallel.rows
    assert [c["mean"] for c in serial.cells] == [c["mean"] for c in parallel.cells]


def test_grid_csv_round_trips_floats():
    cfg = tiny_config()
    grid = grid_search(cfg, [1e-4], [1.5], dataset=REG_DATA)
    text = grid.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "tau_max,tau_std,seed,metric,value"
    for line in lines[1:]:
        tau_max, tau_std, seed, metric, value = line.split(",")
        assert float(tau_max) == 1e-4 and float(tau_std) == 1.5
        row = next(r for r in grid.rows if r["metric"] == metric and r["seed"] == int(seed))
        assert float(value) == row["value"]  # repr round-trip is exact
