"""Tests for experiment configuration, the training loop, evaluation,
reports, and the (tau_max, tau_std) grid runner.
"""

import copy
import json
import math

import numpy as np
import pytest

from warpmix import (
    DivergenceError,
    Dataset,
    DatasetError,
    DEFAULT_CONFIG,
    ExperimentConfig,
    Layer,
    MetricReport,
    ModelState,
    RngStream,
    UsageError,
    evaluate,
    grid_search,
    init_mlp,
    metrics_from_payload,
    run_experiment,
    split,
    train,
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
    # settings that only evaluation reads fail here, not after the first seed has trained
    for dotted, value in (("model__dropout_rate", 0.0), ("metrics__mc_samples", 1), ("metrics__num_bins", 0)):
        with pytest.raises(UsageError, match=dotted.replace("__", r"\.")):
            tiny_config(**{dotted: value})
    with pytest.raises(UsageError, match=r"metrics\.num_bins"):
        tiny_config("classification", metrics__num_bins=0)
    # classification evaluates without MC dropout, so it accepts both
    tiny_config("classification", model__dropout_rate=0.0, metrics__mc_samples=1)
    # rules that split, RngStream and the model apply hold when the config is built, not
    # after the first seed has trained
    for tweaks, key in (
        ({"seeds": [0, -1]}, "seeds"),
        ({"seeds": [2**64]}, "seeds"),
        ({"split_fractions": [0.5, 0.5, 0.5]}, "split_fractions"),
        ({"split_fractions": [0.5, 0.5]}, "split_fractions"),
        ({"split_fractions": [0.8, 0.2, 0.0]}, "split_fractions"),
        ({"model__hidden": [8, 0]}, r"model\.hidden"),
        ({"model__activation": "tanh"}, r"model\.activation"),
    ):
        with pytest.raises(UsageError, match=key):
            tiny_config(**tweaks)
    for num_classes in (1, 0):
        with pytest.raises(UsageError, match="num_classes >= 2"):
            tiny_config("classification", num_classes=num_classes)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1])
def test_config_checks_dropout_rate_for_every_task(task, rate):
    # the model's own rule, when the config is built rather than inside train
    with pytest.raises(UsageError, match=r"model\.dropout_rate must be a finite number in \[0, 1\)"):
        tiny_config(task, model__dropout_rate=rate)


def test_config_needs_a_hidden_layer_for_mc_dropout_and_embeddings():
    # regression evaluates by MC dropout and the embedding backend reads a hidden
    # layer; without one, regression would report a meaningless ENCE and an
    # embedding kernel would fail inside train at its first step
    embedding = {"tau_max": 1.0, "tau_std": 1.0, "backend": "embedding"}
    for task, tweaks in (
        ("regression", {}),
        ("regression", {"mixup__mode": "off"}),
        ("classification", {"mixup__input_kernel": embedding}),
        ("classification", {"mixup__input_kernel": embedding, "mixup__output_kernel": embedding}),
    ):
        with pytest.raises(UsageError, match=r"model\.hidden needs a hidden layer"):
            tiny_config(task, model__hidden=[], **tweaks)
    # class weights live in the output layer, and a mode other than kernel_warped
    # never reads its kernels
    tiny_config("classification", model__hidden=[])
    tiny_config("classification", model__hidden=[], mixup__mode="vanilla", mixup__input_kernel=embedding)
    cfg = tiny_config("classification", model__hidden=[], optimizer__epochs=1)
    assert train(cfg, seed=0, dataset=CLF_DATA).model.dims == (4, 3)


def test_config_rejects_empty_output_dir():
    with pytest.raises(UsageError, match="output_dir"):
        tiny_config(output_dir="")


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
    # each message names the dotted key it is about
    for override, message in [
        ("optimizer.gamma=1", "unknown config key 'optimizer.gamma'"),
        ("nonsense=1", "unknown config key 'nonsense'"),
        ("foo.bar=1", "unknown config key 'foo.bar'"),
        ("optimizer.epochs.x=1", "unknown config key 'optimizer.epochs.x'"),
        ("seeds.x=1", "unknown config key 'seeds.x'"),
        ("mixup.input_kernel.zzz=2", "unknown config key 'mixup.input_kernel.zzz'"),
        ("dataset=3", "config key 'dataset' must be a table"),
    ]:
        with pytest.raises(UsageError, match=f"^{message}$"):
            cfg.with_overrides([override])
    # a null kernel takes sub-key overrides as a fresh table, and still rejects unknown ones
    no_kernel = ExperimentConfig({"mixup": {"mode": "vanilla", "input_kernel": None}})
    with pytest.raises(UsageError, match="^unknown config key 'mixup.input_kernel.zzz'$"):
        no_kernel.with_overrides(["mixup.input_kernel.zzz=2"])
    kernel = no_kernel.with_overrides(["mixup.input_kernel.tau_max=2"]).to_dict()["mixup"]["input_kernel"]
    assert kernel == {**DEFAULT_CONFIG["mixup"]["input_kernel"], "tau_max": 2}


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
    # values that a per-use int(), float() or bool() would truncate or misread
    ("optimizer.epochs", 2.5),
    ("optimizer.batch_size", 16.9),
    ("optimizer.batch_size", True),
    ("model.hidden", [8.5]),
    ("seeds", [0.5]),
    ("num_classes", 2.7),
    ("metrics.mc_samples", 2.5),
    ("optimizer.epochs", "3"),
    ("mixup.alpha", "0.5"),
    ("mixup.per_batch_coeff", "false"),
    ("output_dir", 3),
    ("mixup.alpha", 10**400),
    ("model.dropout_rate", float("nan")),
    ("model", None),
])
def test_ill_typed_numbers_name_their_key(dotted, value):
    with pytest.raises(UsageError) as info:
        ExperimentConfig().with_overrides([f"{dotted}={json.dumps(value)}"])
    assert repr(dotted) in str(info.value)


def test_config_stores_typed_values():
    cfg = ExperimentConfig({
        "optimizer": {"epochs": 3.0, "learning_rate": 1},
        "mixup": {"alpha": 1, "per_batch_coeff": True, "input_kernel": {"tau_max": 2}},
        "model": {"hidden": [8.0, 4]},
        "seeds": [1.0, 2**63],
        "dataset": {"target_column": "y"},
    })
    d = cfg.to_dict()
    for value, expected in (
        (d["optimizer"]["epochs"], 3),
        (d["optimizer"]["learning_rate"], 1.0),
        (d["mixup"]["alpha"], 1.0),
        (d["mixup"]["per_batch_coeff"], True),
        (d["mixup"]["input_kernel"]["tau_max"], 2.0),
        (d["model"]["hidden"], [8, 4]),
        (cfg.seeds, [1, 2**63]),
        (d["dataset"]["target_column"], "y"),
    ):
        assert value == expected and type(value) is type(expected)
        if isinstance(value, list):
            assert [type(v) for v in value] == [type(v) for v in expected]
    assert ExperimentConfig({"optimizer": {"epochs": 10**30}}).to_dict()["optimizer"]["epochs"] == 10**30


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


@pytest.mark.parametrize("task, dataset", [
    ("regression", CLF_DATA),
    ("classification", Dataset(features=CLF_DATA.features, targets=CLF_DATA.targets.astype(float))),
], ids=["regression_config", "classification_config"])
def test_train_rejects_a_dataset_of_the_other_task(task, dataset):
    # the dataset's num_classes decides the validation loss, so it must agree with the config
    with pytest.raises(UsageError, match="cannot train on a dataset"):
        train(tiny_config(task), seed=0, dataset=dataset)


def test_train_rejects_a_dataset_of_another_class_count():
    # a 7-class dataset used to train under a 3-class config, then fail mid-run on a label >= 3
    dataset = Dataset(features=CLF_DATA.features, targets=CLF_DATA.targets, num_classes=7)
    with pytest.raises(UsageError, match="num_classes=3 cannot train on a dataset with num_classes=7"):
        train(tiny_config("classification"), seed=0, dataset=dataset)


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


def _public_step_training(config, seed, dataset):
    """``train``'s loop written with the public, checked functions: the model,
    the training stream and the dropout stream after the last step, plus the
    per-epoch mean of the batch losses."""
    from warpmix import Batch, backward, forward, mix_batch, mixed_loss, optimizer_step

    splits = split(dataset, config.split_fractions, seed)
    values = config.to_dict()
    num_classes = None if config.task == "regression" else config.num_classes
    norm = splits.normalization
    targets = splits.train.targets if num_classes else norm.normalize_targets(splits.train.targets)
    root = RngStream(seed)
    dims = [dataset.features.shape[1], *values["model"]["hidden"], num_classes or 1]
    model = init_mlp(dims, values["model"]["dropout_rate"], root.child(STREAM_INIT))
    opt, mix_cfg, rng = config.optimizer_state(), config.mixup_config(), root.child(harness.STREAM_TRAIN)
    dropout_rng = root.child(harness.STREAM_DROPOUT)
    n, batch_size = len(splits.train), values["optimizer"]["batch_size"]
    losses = []
    for _ in range(values["optimizer"]["epochs"]):
        order = rng.permutation(n)
        losses.append([])
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(splits.train.features[idx], targets[idx], num_classes=num_classes)
            mixed = mix_batch(batch, mix_cfg, rng, model)
            outputs, cache = forward(model, mixed.inputs, dropout_rng)
            loss, grad = mixed_loss(outputs, mixed)
            losses[-1].append(loss)
            optimizer_step(opt, model, backward(model, cache, grad))
    return model, rng, dropout_rng, [float(np.mean(epoch)) for epoch in losses]


@pytest.mark.parametrize("task, in_backend, out_backend", [
    ("regression", "raw_input", "label"),
    ("classification", "embedding", "embedding"),
    ("classification", "raw_input", "class_weight"),
])
@pytest.mark.parametrize("per_batch", [False, True])
def test_training_step_equals_public_composition(monkeypatch, task, in_backend, out_backend, per_batch):
    # train's unchecked step and the checked public functions make the same model
    # and leave the training and dropout streams at the same draw, bit for bit
    streams = {}

    class RecordingStream(RngStream):
        def child(self, index):
            streams[index] = super().child(index)
            return streams[index]

    monkeypatch.setattr(harness, "RngStream", RecordingStream)
    dataset = REG_DATA if task == "regression" else CLF_DATA
    tweaks = {"mixup__per_batch_coeff": per_batch, "mixup__input_kernel__backend": in_backend,
              "mixup__output_kernel__backend": out_backend, "optimizer__epochs": 2}
    if task == "classification":  # no dropout, and the other optimizer with weight decay
        tweaks.update(model__dropout_rate=0.0, optimizer__kind="sgd_momentum", optimizer__weight_decay=0.01)
    for mode in ("off", "vanilla", "kernel_warped", "input_only", "target_only"):
        cfg = tiny_config(task, mixup__mode=mode, **tweaks)
        result = train(cfg, seed=4, dataset=dataset)
        model, rng, dropout_rng, losses = _public_step_training(cfg, 4, dataset)
        assert np.array_equal(result.model.params, model.params), mode
        assert result.model.step_count == model.step_count
        for index, stream in ((harness.STREAM_TRAIN, rng), (harness.STREAM_DROPOUT, dropout_rng)):
            assert streams[index].uniform(size=3).tolist() == stream.uniform(size=3).tolist(), (mode, index)
        assert [row["train_loss"] for row in result.trace] == losses, mode


def test_valid_loss_through_buffers_equals_unbuffered_pass():
    for task, dataset in (("regression", REG_DATA), ("classification", CLF_DATA)):
        result = train(tiny_config(task), seed=2, dataset=dataset)
        valid, norm = result.splits.valid, result.splits.normalization
        plain = harness._plain_valid_loss(result.model, valid, norm)
        assert result.trace[-1]["valid_loss"] == plain  # train passes its buffers
        buffers = harness._layer_buffers(result.model, len(valid))
        for _ in range(2):  # and reusing them changes nothing
            assert harness._plain_valid_loss(result.model, valid, norm, buffers) == plain


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


def test_divergence_after_the_first_epoch_reports_as_before():
    # an epoch mixes its full batches as one block at its first step: a run that
    # diverges in epoch 1 still names that epoch and carries the row of epoch 0
    cfg = tiny_config(optimizer__kind="sgd_momentum", optimizer__learning_rate=2.0, optimizer__epochs=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
        train(cfg, seed=0, dataset=REG_DATA)
    assert str(info.value) == "non-finite training loss at epoch 1, seed 0"
    assert info.value.trace == [
        {"epoch": 0, "train_loss": 1521264.4419187712, "valid_loss": 2.56941282898763e+20},
    ]


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


def test_classification_loss_and_grad_equal_softmax_reference():
    # one exp pass yields both label sets' losses and the probabilities, bit for bit,
    # on both sides of the class total's 8-class branch and on a one-row batch
    from warpmix.metrics import log_softmax, softmax
    from warpmix.mixer import Batch, MixupConfig, mix_batch, mixed_loss

    rng = RngStream(5)
    for classes in (2, 3, 7, 8, 13):
        for n in (1, 24):
            batch = Batch(inputs=rng.standard_normal((n, 3)), targets=rng.integers(0, classes, size=n),
                          num_classes=classes)
            mixed = mix_batch(batch, MixupConfig(alpha=0.6, mode="vanilla"), RngStream(6))
            rows, c = np.arange(n), mixed.target_coeffs
            onehot = np.eye(classes)
            convex = c[:, None] * onehot[mixed.targets_a] + (1.0 - c[:, None]) * onehot[mixed.targets_b]
            for scale in (1.0, 40.0, 1e3):
                logits = scale * rng.standard_normal((n, classes))
                loss, grad = mixed_loss(logits, mixed)
                logp = log_softmax(logits)
                want = np.mean(c * -logp[rows, mixed.targets_a] + (1.0 - c) * -logp[rows, mixed.targets_b])
                assert loss == float(want), (classes, n, scale)
                assert np.array_equal(grad, (softmax(logits) - convex) / n), (classes, n, scale)


def test_classification_valid_loss_equals_log_softmax_reference():
    # the validation loss is the temperature fit's loss at T = 1, bit-equal to the
    # mean of -log_softmax at the labels; at argmax labels each loss is log(total)
    # alone, so a class total summed in another order shows in the mean
    from warpmix.metrics import log_softmax
    from warpmix.model import forward

    rng = RngStream(8)
    for classes in (2, 3, 7, 8, 13):
        model = init_mlp([4, 6, classes], 0.0, rng)
        for n in (1, 37):
            features = rng.standard_normal((n, 4))
            for scale in (1.0, 40.0, 1e3):
                scaled = copy.deepcopy(model)
                scaled.layers[-1].weights *= scale
                outputs = forward(scaled, features)[0]
                for labels in (rng.integers(0, classes, size=n), outputs.argmax(axis=1)):
                    part = Dataset(features=features, targets=labels, num_classes=classes)
                    want = np.mean(-log_softmax(outputs)[np.arange(n), labels])
                    assert harness._plain_valid_loss(scaled, part, None) == float(want), (classes, n, scale)


def test_saturated_warp_strengths_train_without_error():
    # tau_max = 1e-6 clamps most strengths at SHAPE_MAX = 1e6, where the continued
    # fraction did not converge within about 2e-5 of 0.5: both seeds used to raise
    # NonConvergenceError within their first second
    kernel = {"tau_max": 1e-6, "tau_std": 1.5}
    config = ExperimentConfig({
        "task": "regression",
        "seeds": [0, 2],
        "model": {"hidden": [128, 128], "dropout_rate": 0.2},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": 20, "batch_size": 16},
        "mixup": {"mode": "kernel_warped", "alpha": 0.5,
                  "input_kernel": {**kernel, "backend": "raw_input"},
                  "output_kernel": {**kernel, "backend": "label"}},
        "metrics": {"num_bins": 15, "mc_samples": 5},
    })
    report = run_experiment(config, dataset=synth_regression(n=1503, d=5, seed=0)).report
    assert sorted(report.per_seed) == [0, 2]
    values = [v for metrics in report.per_seed.values() for v in metrics.values() if v is not None]
    assert values and all(math.isfinite(v) for v in values)


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
    exported = json.loads(json.dumps(payload))  # what `warpmix metrics` reads back
    assert metrics_from_payload(exported) == metrics
    assert set(metrics) == {"rmse", "mape", "uce", "ence"}


def test_evaluate_metrics_match_exported_predictions_classification():
    cfg = tiny_config("classification", optimizer__epochs=3)
    result = train(cfg, seed=4, dataset=CLF_DATA)
    metrics, payload = evaluate(result.model, result.splits, cfg, seed=4)
    exported = json.loads(json.dumps(payload))  # what `warpmix metrics` reads back
    assert metrics_from_payload(exported) == metrics
    assert set(metrics) == {"accuracy", "ece", "brier", "nll", "temperature"}


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

    cell_cfg = harness._cell_config(cfg, 0.5, 1.5)
    direct = run_experiment(cell_cfg, dataset=REG_DATA).report
    assert grid.cells[0]["mean"] == direct.mean
    by_metric = {r["metric"]: r["value"] for r in grid.rows}
    for name, value in direct.per_seed[0].items():
        if value is not None:
            assert by_metric[name] == value


def test_identical_cells_identical_results():
    # one grid may not repeat a cell, so the same cell runs in two grids, in either order
    cfg = tiny_config()
    first = grid_search(cfg, [0.5, 2.0], [1.0], dataset=REG_DATA)
    second = grid_search(cfg, [2.0, 0.5], [1.0], dataset=REG_DATA)
    assert first.cells[0]["mean"] == second.cells[1]["mean"]
    assert first.cells[0]["std"] == second.cells[1]["std"]


def test_repeated_seed_rejected():
    # seeds=[0, 0] trained seed 0 twice, kept one entry per seed and reported std 0.0
    for seeds, value in (([0, 0], "0"), ([3, 1, 3.0], "3"), ([5, 2**63, 5, 2**63], "5")):
        with pytest.raises(UsageError, match=f"seeds lists {value} more than once"):
            ExperimentConfig({"seeds": seeds})
    with pytest.raises(UsageError, match="seeds lists 2 more than once"):
        tiny_config().with_overrides(["seeds=[2,2]"])
    assert ExperimentConfig({"seeds": [2, 0, 1]}).seeds == [2, 0, 1]


def test_grid_rejects_repeated_values(monkeypatch):
    # a repeated value ran its cells twice and wrote their rows twice; no cell runs now
    monkeypatch.setattr(harness, "run_experiment", lambda *args, **kwargs: pytest.fail("a cell ran"))
    cfg = tiny_config()
    for tau_max_list, tau_std_list, message in (
        ([0.5, 0.5], [1.0], "tau_max_list lists 0.5 more than once"),
        ([1, 2.0, 1.0], [1.0], "tau_max_list lists 1.0 more than once"),
        ([0.5], [1.5, 2.0, 1.5], "tau_std_list lists 1.5 more than once"),
    ):
        with pytest.raises(UsageError, match=message):
            grid_search(cfg, tau_max_list, tau_std_list, dataset=REG_DATA)


def test_grid_seed_override_and_empty_lists():
    cfg = tiny_config(seeds=[4, 5])
    grid = grid_search(cfg, [1.0], [1.0], dataset=REG_DATA)
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


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_grid_rejects_bad_jobs(jobs):
    with pytest.raises(UsageError, match="jobs"):
        grid_search(tiny_config(), [1.0], [1.0], dataset=REG_DATA, jobs=jobs)


@pytest.mark.parametrize("jobs, cells, workers", [(64, 2, 2), (2, 3, 2), (3, 3, 3)])
def test_grid_pool_is_sized_by_the_work(monkeypatch, jobs, cells, workers):
    # a fork pool starts all max_workers processes at its first submit
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
    grid = grid_search(tiny_config(), [0.5 * (k + 1) for k in range(cells)], [1.0],
                       dataset=REG_DATA, jobs=jobs)
    assert sizes == [workers]
    assert len(grid.cells) == cells


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
