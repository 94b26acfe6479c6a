"""End-to-end tests for the command-line interface.

Everything runs in-process through ``warpmix.cli.main`` so exit codes and
file outputs can be checked directly; one smoke test exercises the module
as a subprocess.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from warpmix import (
    Layer, ModelState, RngStream, beta_sample, bin_stats, init_mlp, save_model, warp_pairwise,
)
from warpmix import cli, harness
from warpmix.cli import RUNTIME_EXIT, USAGE_EXIT, main

from _support import synth_blobs, synth_regression, write_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A directory holding small regression/classification CSVs + configs."""
    root = tmp_path_factory.mktemp("cli")

    reg = synth_regression(n=90, d=3, seed=0)
    reg_csv = write_csv(
        root / "reg.csv",
        ["x0", "x1", "x2", "y"],
        np.column_stack([reg.features, reg.targets]),
    )
    reg_config = root / "reg_config.json"
    reg_config.write_text(json.dumps({
        "dataset": {"path": str(reg_csv), "target_column": "y"},
        "task": "regression",
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
    }))

    clf = synth_blobs(n=120, d=4, classes=3, seed=1, sep=4.0)
    clf_csv = write_csv(
        root / "clf.csv",
        ["x0", "x1", "x2", "x3", "label"],
        np.column_stack([clf.features, clf.targets.astype(np.float64)]),
    )
    clf_config = root / "clf_config.json"
    clf_config.write_text(json.dumps({
        "dataset": {"path": str(clf_csv), "target_column": "label"},
        "task": "classification",
        "num_classes": 3,
        "seeds": [0],
        "model": {"hidden": [16], "dropout_rate": 0.2},
        "optimizer": {"learning_rate": 0.01, "epochs": 3, "batch_size": 16},
        "mixup": {
            "mode": "kernel_warped",
            "alpha": 0.5,
            "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "raw_input"},
            "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "class_weight"},
        },
        "metrics": {"num_bins": 5, "mc_samples": 10},
    }))
    cells = root / "cells.json"
    cells.write_text("[[]]")  # one cell: the config as it is
    return {"root": root, "reg_config": reg_config, "clf_config": clf_config, "cells": cells}


# -------------------------------------------------------------- exit codes


def test_no_verb_is_usage_error(capsys):
    assert main([]) == USAGE_EXIT
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--no-such-flag"]) == USAGE_EXIT
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "warp-demo" in capsys.readouterr().out


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert code == USAGE_EXIT
    capsys.readouterr()


# each verb's command line reading the input file at path, for each kind of input file
def _command_reading(kind, workspace, path):
    config = ["--config", str(workspace["reg_config"])]
    return {"config": ["train", "--config", str(path)],
            "cells": ["grid", *config, "--cells", str(path)],
            "dataset": ["train", *config, f"dataset.path={path}"],
            "checkpoint": ["eval", *config, "--checkpoint", str(path)],
            "predictions": ["metrics", "--predictions", str(path)]}[kind]


@pytest.mark.parametrize("kind, damage", [
    (kind, damage) for kind in ("cells", "checkpoint", "config", "dataset", "predictions")
    for damage in ("missing", "directory", "not_utf8", "not_json") if (kind, damage) != ("dataset", "not_json")])
def test_every_input_file_follows_the_file_rule(workspace, tmp_path, capsys, kind, damage):
    # a missing file is a DatasetError, any other unreadable file a UsageError: each exits 2
    path = tmp_path / "input"
    if damage == "directory":
        path.mkdir()
    elif damage != "missing":
        path.write_bytes({"not_utf8": b"[\xff]\n", "not_json": b"[[]\n"}[damage])
    assert main([*_command_reading(kind, workspace, path), "--out", str(tmp_path / "o")]) == USAGE_EXIT
    message = {"missing": f"{kind} file not found: {path}",
               "not_json": f"{kind} file {str(path)!r} is not valid JSON"}.get(damage, f"cannot read {kind} file")
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", ["[]", "null", "0", "false", "5", "[1]", '"x"', '[{"seeds": [1]}]'])
@pytest.mark.parametrize("verb", ["train", "grid"])
def test_config_that_is_not_an_object_fails_before_the_output_dir_exists(workspace, tmp_path, capsys, verb,
                                                                         content):
    # [], null, 0 and false used to run the default config, 5 and [1] to escape as a TypeError
    config = tmp_path / "config.json"
    config.write_text(content)
    extra = ["--cells", str(workspace["cells"])] if verb == "grid" else []
    assert main([verb, "--config", str(config), "--out", str(tmp_path / "o"), *extra]) == USAGE_EXIT
    assert capsys.readouterr().err == f"error: a config must be a table, got {json.loads(content)!r}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_override_is_usage_error(workspace, tmp_path, capsys):
    code = main([
        "train", "--config", str(workspace["reg_config"]),
        "--out", str(tmp_path / "o"), "optimizer.gamma=3",
    ])
    assert code == USAGE_EXIT
    assert "error:" in capsys.readouterr().err


def test_divergence_is_runtime_error(workspace, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "train", "--config", str(workspace["reg_config"]),
            "--out", str(tmp_path / "o"),
            "optimizer.learning_rate=1e200",
        ])
    assert code == RUNTIME_EXIT
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_out_of_memory_is_runtime_error(workspace, tmp_path, monkeypatch, capsys, verb):
    # as metrics.mc_samples=1e9 fails in evaluation, without allocating anything large
    def evaluate(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")

    monkeypatch.setattr(harness, "evaluate", evaluate)
    monkeypatch.setattr(cli, "evaluate", evaluate)
    checkpoint = tmp_path / "checkpoint.json"
    save_model(init_mlp([3, 8, 1], dropout_rate=0.2, rng=RngStream(0)), str(checkpoint))
    argv = ["--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o")]
    extra = ["--checkpoint", str(checkpoint)] if verb == "eval" else []
    assert main([verb, *argv, *extra]) == RUNTIME_EXIT
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not (tmp_path / "o").exists()


def test_mc_samples_too_large_to_hold_is_runtime_error(workspace, tmp_path, capsys):
    # 1e300 is an integer by the integer rule; numpy refuses the shape with a ValueError
    code = main(["train", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"),
                 "optimizer.epochs=1", "metrics.mc_samples=1e300"])
    assert code == RUNTIME_EXIT
    assert capsys.readouterr().err.startswith("error: cannot hold 1e+300 MC-dropout samples")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("hidden, shown", [("1e300", "1e+300"), ("1e18", "1e+18")])
def test_hidden_layer_too_large_to_hold_is_runtime_error(workspace, tmp_path, capsys, hidden, shown):
    # integers by the integer rule; numpy refuses the layer's shape with a ValueError
    code = main(["train", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"),
                 f"model.hidden=[{hidden}]"])
    assert code == RUNTIME_EXIT
    assert capsys.readouterr().err == f"error: cannot hold layer 0's 3 x {shown} weights\n"
    assert not (tmp_path / "o").exists()


def test_warp_demo_sample_count_too_large_to_hold_is_runtime_error(tmp_path, capsys):
    # an integer by the integer rule; numpy refuses the draws' shape with a ValueError
    code = main(["warp-demo", "--taus", "1", "--samples", "100000000000000000000", "--out", str(tmp_path / "o")])
    assert code == RUNTIME_EXIT
    assert capsys.readouterr().err == "error: cannot hold 1e+20 Beta draws\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task, sizes, unit, weight, what", [
    ("reg", (3, 8, 1), 1e10, 1e300, "predicted means"),
    ("clf", (4, 8, 3), 1e10, 1e300, "validation logits"),
    # logits of 1.6e307 are finite, but overflow once divided by the temperature grid's low end
    ("clf", (4, 8, 3), 1e6, 2e300, "validation losses at temperature 0.05"),
], ids=["regression", "classification", "classification_scaled"])
def test_checkpoint_whose_outputs_overflow_is_divergence(workspace, tmp_path, capsys, task, sizes, unit, weight,
                                                         what):
    # finite weights whose outputs overflow: every hidden unit is ``unit``, every output weight ``weight``
    fan_in, hidden, outputs = sizes
    layers = [Layer(np.zeros((fan_in, hidden)), np.full(hidden, unit), "relu"),
              Layer(np.full((hidden, outputs), weight), np.zeros(outputs))]
    checkpoint = tmp_path / "checkpoint.json"
    save_model(ModelState(layers, dropout_rate=0.2), str(checkpoint))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["eval", "--config", str(workspace[f"{task}_config"]), "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "o")])
    assert code == RUNTIME_EXIT
    assert capsys.readouterr().err == f"error: the model's {what} are not finite in evaluation, seed 0\n"
    assert not (tmp_path / "o").exists()


def test_metrics_missing_predictions_file(tmp_path, capsys):
    code = main(["metrics", "--predictions", str(tmp_path / "gone.json"), "--out", str(tmp_path)])
    assert code == USAGE_EXIT
    capsys.readouterr()


# ------------------------------------------------------------------- train


def test_train_writes_all_artifacts(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", str(workspace["reg_config"]), "--out", str(out)])
    assert code == 0
    for name in (
        "report.json",
        "effective_config.json",
        "checkpoint_seed0.json",
        "trace_seed0.csv",
        "predictions_seed0.json",
    ):
        assert (out / name).is_file(), name

    report = json.loads((out / "report.json").read_text())
    assert set(report["per_seed"]) == {"0"}
    assert report["mean"]["rmse"] == report["per_seed"]["0"]["rmse"]

    trace_lines = (out / "trace_seed0.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "epoch,train_loss,valid_loss"
    assert len(trace_lines) == 1 + 2  # header + one row per epoch
    for line in trace_lines[1:]:
        epoch, train_loss, valid_loss = line.split(",")
        assert float(train_loss) > 0 and float(valid_loss) > 0

    stdout = capsys.readouterr().out
    assert "rmse" in stdout and "report.json" in stdout


def test_train_seed_flag_replaces_seed_list(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace["reg_config"]),
                 "--out", str(out), "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["per_seed"]) == {"7"}
    assert (out / "checkpoint_seed7.json").is_file()
    capsys.readouterr()


def test_effective_config_reproduces_run(workspace, tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["train", "--config", str(workspace["reg_config"]), "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert main(["train", "--config", str(first / "effective_config.json"),
                 "--out", str(second)]) == 0
    a = json.loads((first / "report.json").read_text())
    b = json.loads((second / "report.json").read_text())
    a.pop("duration_s"), b.pop("duration_s")
    a["config"].pop("output_dir"), b["config"].pop("output_dir")
    assert a == b
    assert (first / "checkpoint_seed0.json").read_text() == (second / "checkpoint_seed0.json").read_text()
    capsys.readouterr()


def test_cli_writes_only_inside_output_dir(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    assert main(["train", "--config", str(workspace["reg_config"]), "--out", "run"]) == 0
    created = set(os.listdir(tmp_path)) - before
    assert created == {"run"}
    assert set(os.listdir(workspace["root"])) == {
        "reg.csv", "reg_config.json", "clf.csv", "clf_config.json", "cells.json"
    }
    capsys.readouterr()


# -------------------------------------------------------------------- eval


def test_eval_matches_train_exports(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace["reg_config"]), "--out", str(out)]) == 0
    evl = tmp_path / "eval"
    code = main([
        "eval", "--config", str(workspace["reg_config"]),
        "--checkpoint", str(out / "checkpoint_seed0.json"),
        "--seed", "0", "--out", str(evl),
    ])
    assert code == 0
    for name in ("metrics.json", "predictions.json", "bins.csv"):
        assert (evl / name).is_file(), name

    # same checkpoint + same seed => byte-identical predictions versus train
    from_train = json.loads((out / "predictions_seed0.json").read_text())
    from_eval = json.loads((evl / "predictions.json").read_text())
    assert from_eval == from_train

    metrics = json.loads((evl / "metrics.json").read_text())
    assert metrics == from_eval["metrics"]

    bins = (evl / "bins.csv").read_text().strip().splitlines()
    assert bins[0] == "bin_lo,bin_hi,count,mse,mean_variance"
    assert len(bins) == 1 + 5
    counts = [int(line.split(",")[2]) for line in bins[1:]]
    assert sum(counts) == len(from_eval["targets"])
    # the table is the one behind the metric: UCE = sum count/n * |mse - mean_variance|
    rows = [[float(cell) for cell in line.split(",")] for line in bins[1:]]
    uce = sum(r[2] / sum(counts) * abs(r[3] - r[4]) for r in rows if r[2])
    assert abs(uce - metrics["uce"]) <= 1e-12
    capsys.readouterr()


def test_eval_classification_bins(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace["clf_config"]), "--out", str(out)]) == 0
    evl = tmp_path / "eval"
    assert main([
        "eval", "--config", str(workspace["clf_config"]),
        "--checkpoint", str(out / "checkpoint_seed0.json"),
        "--seed", "0", "--out", str(evl),
    ]) == 0
    bins = (evl / "bins.csv").read_text().strip().splitlines()
    assert bins[0] == "bin_lo,bin_hi,count,accuracy,confidence"
    payload = json.loads((evl / "predictions.json").read_text())
    counts = [int(line.split(",")[2]) for line in bins[1:]]
    assert sum(counts) == len(payload["labels"])
    # ECE = sum count/n * |accuracy - confidence| over the same rows
    metrics = json.loads((evl / "metrics.json").read_text())
    rows = [[float(cell) for cell in line.split(",")] for line in bins[1:]]
    ece = sum(r[2] / sum(counts) * abs(r[3] - r[4]) for r in rows if r[2])
    assert abs(ece - metrics["ece"]) <= 1e-12
    capsys.readouterr()


# ----------------------------------------------------------------- metrics


@pytest.mark.parametrize("config_key", ["reg_config", "clf_config"])
def test_metrics_round_trip(workspace, tmp_path, config_key, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(workspace[config_key]), "--out", str(out)]) == 0
    mdir = tmp_path / "metrics"
    code = main(["metrics", "--predictions", str(out / "predictions_seed0.json"),
                 "--out", str(mdir)])
    assert code == 0
    recomputed = json.loads((mdir / "metrics.json").read_text())
    original = json.loads((out / "predictions_seed0.json").read_text())["metrics"]
    assert recomputed == original
    capsys.readouterr()


REG_PAYLOAD = {"task": "regression", "num_bins": 2, "means": [1.0, 2.0],
               "variances": [0.5, 1.0], "targets": [1.5, 2.5]}
CLF_PAYLOAD = {"task": "classification", "num_bins": 2, "temperature": 1.0,
               "probs": [[0.6, 0.4], [0.3, 0.7]], "labels": [0, 1]}


def without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


MALFORMED_PAYLOADS = {
    "no_task": json.dumps(without(REG_PAYLOAD, "task")),
    "no_targets": json.dumps(without(REG_PAYLOAD, "targets")),
    "no_num_bins": json.dumps(without(REG_PAYLOAD, "num_bins")),
    "no_temperature": json.dumps(without(CLF_PAYLOAD, "temperature")),
    "unknown_task": json.dumps(dict(REG_PAYLOAD, task="regres")),
    "top_level_list": json.dumps([REG_PAYLOAD]),
    "invalid_json": "{not json",
    "nan_mean": json.dumps(dict(REG_PAYLOAD, means=[float("nan"), 2.0])),
    "negative_variance": json.dumps(dict(REG_PAYLOAD, variances=[-0.5, 1.0])),
    "misaligned": json.dumps(dict(REG_PAYLOAD, means=[1.0])),
    "zero_bins": json.dumps(dict(REG_PAYLOAD, num_bins=0)),
    "fractional_label": json.dumps(dict(CLF_PAYLOAD, labels=[0.7, 1])),
    "label_out_of_range": json.dumps(dict(CLF_PAYLOAD, labels=[0, 2])),
    "probs_not_summing_to_1": json.dumps(dict(CLF_PAYLOAD, probs=[[0.6, 0.6], [0.3, 0.7]])),
    "ragged_probs": json.dumps(dict(CLF_PAYLOAD, probs=[[0.6, 0.4], [1.0]])),
    "string_temperature": json.dumps(dict(CLF_PAYLOAD, temperature="hot")),
    "zero_temperature": json.dumps(dict(CLF_PAYLOAD, temperature=0.0)),
    "bool_num_bins": json.dumps(dict(CLF_PAYLOAD, num_bins=True)),
    "list_task": json.dumps(dict(CLF_PAYLOAD, task=["classification"])),
    "nan_probs": json.dumps(dict(CLF_PAYLOAD, probs=[[float("nan"), 1.0], [0.3, 0.7]])),
    "string_probs": json.dumps(dict(CLF_PAYLOAD, probs="abc")),
    "empty_regression": json.dumps(dict(REG_PAYLOAD, means=[], variances=[], targets=[])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_metrics_malformed_payload_is_usage_error(tmp_path, capsys, case):
    path = tmp_path / "predictions.json"
    path.write_text(MALFORMED_PAYLOADS[case])
    code = main(["metrics", "--predictions", str(path), "--out", str(tmp_path / "m")])
    assert code == USAGE_EXIT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "m" / "metrics.json").exists()


@pytest.mark.parametrize("verb, name, value", [
    ("eval", "step_count", 2.5),
    ("metrics", "num_bins", 2.5),
    ("metrics", "num_bins", "3"),
    ("warp-demo", "seed", -1),
    ("train", "seeds", 2.5),
])
def test_integer_argument_exits_2_before_any_output(workspace, tmp_path, capsys, verb, name, value):
    # every count, seed and index follows one integer rule; a checkpoint's 2.5 steps used to load as 2
    out = tmp_path / "o"
    if verb == "eval":
        checkpoint = tmp_path / "checkpoint.json"
        save_model(init_mlp([3, 8, 1], dropout_rate=0.2, rng=RngStream(0)), str(checkpoint))
        checkpoint.write_text(json.dumps(dict(json.loads(checkpoint.read_text()), step_count=value)))
        rest = ["--config", str(workspace["reg_config"]), "--checkpoint", str(checkpoint)]
    elif verb == "metrics":
        predictions = tmp_path / "predictions.json"
        predictions.write_text(json.dumps(dict(REG_PAYLOAD, num_bins=value)))
        rest = ["--predictions", str(predictions)]
    elif verb == "warp-demo":
        rest = ["--taus", "1", "--samples", "10", "--seed", str(value)]
    else:
        rest = ["--config", str(workspace["reg_config"]), f"seeds=[{value}]"]
    assert main([verb, "--out", str(out), *rest]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not out.exists()


def test_integral_float_num_bins_gives_the_integer_metrics(tmp_path, capsys):
    # the payload's num_bins follows the integer rule, as the config key does: 2.0 is 2
    written = []
    for num_bins in (2, 2.0):
        predictions = tmp_path / f"predictions_{num_bins}.json"
        predictions.write_text(json.dumps(dict(REG_PAYLOAD, num_bins=num_bins)))
        assert main(["metrics", "--predictions", str(predictions), "--out", str(tmp_path / str(num_bins))]) == 0
        written.append((tmp_path / str(num_bins) / "metrics.json").read_bytes())
    assert written[0] == written[1]
    capsys.readouterr()


def test_metrics_writes_into_the_default_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "predictions.json").write_text(json.dumps(REG_PAYLOAD))
    assert main(["metrics", "--predictions", "predictions.json"]) == 0
    assert (tmp_path / "warpmix-out" / "metrics.json").is_file()
    assert not (tmp_path / "metrics.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("payload", [REG_PAYLOAD, CLF_PAYLOAD], ids=["regression", "classification"])
def test_metrics_accepts_minimal_payload(tmp_path, capsys, payload):
    path = tmp_path / "predictions.json"
    path.write_text(json.dumps(payload))
    assert main(["metrics", "--predictions", str(path), "--out", str(tmp_path / "m")]) == 0
    assert (tmp_path / "m" / "metrics.json").is_file()
    capsys.readouterr()


def test_ill_typed_override_is_usage_error(workspace, tmp_path, capsys):
    code = main([
        "train", "--config", str(workspace["reg_config"]),
        "--out", str(tmp_path / "o"), 'optimizer.epochs="abc"',
    ])
    assert code == USAGE_EXIT
    assert "optimizer.epochs" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000], ids=["long_int", "deep_nesting"])
def test_override_that_python_cannot_parse_fails_before_the_output_dir_exists(tmp_path, capsys, value):
    # an integer past Python's 4300-digit limit and nesting too deep to parse are
    # taken as text, which the typed rule rejects, not a traceback with exit 1
    assert main(["train", "--out", str(tmp_path / "o"), f"seeds={value}"]) == USAGE_EXIT
    assert capsys.readouterr().err.startswith("error: config key 'seeds' must be a list, got '")
    assert not (tmp_path / "o").exists()


def test_usage_error_line_quotes_a_huge_value_in_a_few_hundred_characters(tmp_path, capsys):
    # the error line used to carry all 100,000 characters of the value
    assert main(["train", "--out", str(tmp_path / "o"), "seeds=" + "[" * 100_000]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err == f"error: config key 'seeds' must be a list, got '{'[' * 199}... (100002 characters in all)\n"


@pytest.mark.parametrize(
    "override",
    ["optimizer.beta1=1", "optimizer.beta2=1", "optimizer.beta1=NaN", "optimizer.momentum=1",
     "optimizer.eps=-1", "optimizer.eps=0", "optimizer.weight_decay=-5",
     "optimizer.learning_rate=Infinity"],
)
def test_bad_optimizer_hyperparameter_is_usage_error(workspace, tmp_path, capsys, override):
    code = main([
        "train", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"), override,
    ])
    assert code == USAGE_EXIT
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# each deleted setting at its last default, which a config written before its deletion may hold
DELETED_SETTINGS = {"optimizer.momentum": 0.9, "optimizer.weight_decay": 0.0, "optimizer.beta1": 0.9,
                    "optimizer.beta2": 0.999, "optimizer.eps": 1e-8, "model.activation": "relu"}


@pytest.mark.parametrize("key", sorted(DELETED_SETTINGS))
@pytest.mark.parametrize("where", ["file", "override"])
def test_deleted_setting_is_an_unknown_key(workspace, tmp_path, capsys, key, where):
    config = json.loads(workspace["reg_config"].read_text())
    table, leaf = key.split(".")
    if where == "file":
        config[table][leaf] = DELETED_SETTINGS[key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    overrides = [f"{key}={json.dumps(DELETED_SETTINGS[key])}"] if where == "override" else []
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "o"), *overrides])
    assert code == USAGE_EXIT
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not (tmp_path / "o").exists()


def test_optimizer_kind_takes_only_adam(workspace, tmp_path, capsys):
    code = main(["train", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"),
                 "optimizer.kind=sgd_momentum"])
    assert code == USAGE_EXIT
    assert capsys.readouterr().err == "error: optimizer.kind must be adam, got 'sgd_momentum'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("option", ["--bins=3", "--distances=1", "--tau-max=1", "--tau-std=1"])
def test_warp_demo_deleted_option_is_usage_error(tmp_path, capsys, option):
    code = main(["warp-demo", "--taus=1", "--samples=10", "--out", str(tmp_path / "d"), option])
    assert code == USAGE_EXIT
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "override", ["model.dropout_rate=0", "metrics.mc_samples=1", "metrics.num_bins=0"],
)
def test_bad_evaluation_setting_fails_before_training(workspace, tmp_path, capsys, override):
    # regression evaluation reads these only after a seed has trained
    code = main([
        "train", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"), override,
    ])
    assert code == USAGE_EXIT
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, extra, override, key", [
    ("train", [], "seeds=[0,-1]", "seeds"),
    ("train", [], "model.hidden=[8.5]", "model.hidden"),
    ("train", [], "output_dir=3", "output_dir"),
    ("grid", ["--cells", "{cells}"], "split_fractions=[0.5,0.5,0.5]", "split_fractions"),
    ("train", [], "model.hidden=[]", "model.hidden"),  # regression's MC dropout needs a hidden layer
    ("train", [], "seeds=[1,0,1]", "seeds lists 1 more than once"),  # seed 1 would train twice
    ("grid", ["--cells", "{cells}"], "seeds=[0,0]", "seeds lists 0 more than once"),
])
def test_bad_config_fails_before_the_output_dir_exists(workspace, tmp_path, capsys, verb, extra,
                                                       override, key):
    # seed 0 of seeds=[0,-1] would train; a grid would record every cell as failed and exit 0
    code = main([verb, "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"),
                 *[arg.format(**workspace) for arg in extra], override])
    assert code == USAGE_EXIT
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, extra", [
    ("train", []),
    ("grid", ["--cells", "{cells}"]),
])
def test_missing_dataset_fails_before_the_output_dir_exists(workspace, tmp_path, capsys, verb, extra):
    missing = tmp_path / "missing.csv"
    code = main([verb, "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "o"),
                 *[arg.format(**workspace) for arg in extra], f"dataset.path={missing}"])
    assert code == USAGE_EXIT
    assert "dataset file not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_classifier_dropout_rate_fails_before_the_output_dir_exists(workspace, tmp_path, capsys):
    code = main(["train", "--config", str(workspace["clf_config"]), "--out", str(tmp_path / "o"),
                 "model.dropout_rate=1.5"])
    assert code == USAGE_EXIT
    assert "model.dropout_rate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_output_dir_is_usage_error(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["train", "--config", str(workspace["reg_config"]), 'output_dir=""'])
    assert code == USAGE_EXIT
    assert "output_dir" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["train", "eval", "grid", "warp-demo", "metrics"])
def test_empty_out_flag_is_usage_error(workspace, tmp_path, monkeypatch, capsys, verb):
    # each input is valid, so only the empty --out stops the command, which
    # would otherwise write into the config's output_dir or the working directory
    checkpoint, predictions = tmp_path / "checkpoint.json", tmp_path / "predictions.json"
    save_model(init_mlp([3, 8, 1], dropout_rate=0.2, rng=RngStream(0)), str(checkpoint))
    predictions.write_text(json.dumps(REG_PAYLOAD))
    config = ["--config", str(workspace["reg_config"])]
    argv = {
        "train": ["train", *config],
        "eval": ["eval", *config, "--checkpoint", str(checkpoint)],
        "grid": ["grid", *config, "--cells", str(workspace["cells"])],
        "warp-demo": ["warp-demo", "--taus", "1", "--samples", "10"],
        "metrics": ["metrics", "--predictions", str(predictions)],
    }[verb]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([*argv, "--out", ""]) == USAGE_EXIT
    assert capsys.readouterr().err == "error: --out must be a non-empty path\n"
    assert list(cwd.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json", "cwd", "predictions.json"]


@pytest.mark.parametrize("content", [
    None,  # no file at all
    "{not json",
    "[1, 2]",
    json.dumps({"format": "warpmix-mlp-v1", "dropout_rate": 0.2}),
    json.dumps({"format": "warpmix-mlp-v1", "layers": [], "dropout_rate": 0.2}),
    json.dumps({"format": "warpmix-mlp-v1", "layers": [{"weights": [[1.0]], "biases": [0.0]}],
                "dropout_rate": 0.2}),
    json.dumps({"format": "warpmix-mlp-v1", "dropout_rate": 0.2,
                "layers": [{"weights": [[1.0]], "activation": "identity"}]}),
    json.dumps({"format": "warpmix-mlp-v1",
                "layers": [{"weights": [[1.0]], "biases": [0.0], "activation": "identity"}]}),
    json.dumps({"format": "warpmix-mlp-v1", "dropout_rate": 0.2, "layers": [3]}),
])
def test_eval_bad_checkpoint_is_usage_error(workspace, tmp_path, capsys, content):
    checkpoint = tmp_path / "checkpoint.json"
    if content is not None:
        checkpoint.write_text(content)
    code = main(["eval", "--config", str(workspace["reg_config"]), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "o")])
    assert code == USAGE_EXIT
    assert str(checkpoint) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -------------------------------------------------------------------- grid


def test_grid_command_outputs(workspace, tmp_path, capsys):
    out = tmp_path / "grid"
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([["mixup.input_kernel.tau_max=0.5"], ["mixup.mode=vanilla", "mixup.alpha=0.2"]]))
    code = main([
        "grid", "--config", str(workspace["reg_config"]), "--out", str(out), "--cells", str(cells),
        "optimizer.epochs=1",
    ])
    assert code == 0
    assert (out / "effective_config.json").is_file()
    grid = json.loads((out / "grid.json").read_text())["cells"]
    assert [(c["cell"], c["overrides"], c["status"]) for c in grid] == [
        (0, ["mixup.input_kernel.tau_max=0.5"], "ok"), (1, ["mixup.mode=vanilla", "mixup.alpha=0.2"], "ok")]
    lines = (out / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "cell,seed,metric,value"
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "1"}
    assert "2/2" in capsys.readouterr().out


@pytest.mark.parametrize("tau_std", ["1e-300", "1e200"])
@pytest.mark.parametrize("verb", ["train", "grid"])
def test_tau_std_whose_kernel_scale_overflows_is_usage_error(workspace, tmp_path, capsys, verb, tau_std):
    # 2 tau_std^2 underflows to 0 or overflows: the kernel would divide by it at the first mixed step
    config = ["--config", str(workspace["reg_config"])]
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([[], [f"mixup.input_kernel.tau_std={tau_std}"]]))
    argv = {
        "train": ["train", *config, f"mixup.input_kernel.tau_std={tau_std}"],
        "grid": ["grid", *config, "--cells", str(cells)],
    }[verb]
    assert main([*argv, "--out", str(tmp_path / "o")]) == USAGE_EXIT
    assert "tau_std" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["train", "grid"])
def test_kernel_backend_of_the_other_task_fails_before_the_output_dir_exists(workspace, tmp_path, capsys,
                                                                           monkeypatch, verb):
    # a classification run with the default output kernel, label, used to fail at its first step,
    # and a grid recorded every such cell as failed and exited 0
    monkeypatch.setattr(harness, "_run_cell", lambda task: pytest.fail("a cell ran"))
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps([[], ["mixup.output_kernel.backend=label"]]))
    argv = {"train": ["train", "--config", str(workspace["clf_config"]), "mixup.output_kernel.backend=label"],
            "grid": ["grid", "--config", str(workspace["clf_config"]), "--cells", str(cells)]}[verb]
    assert main([*argv, "--out", str(tmp_path / "o")]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: " + "cell 1: " * (verb == "grid") + "mixup.output_kernel.backend must fit the task")
    assert not (tmp_path / "o").exists()


# the cells file's text (None: no file), the config it runs under and the error it gives
BAD_CELLS = {
    "missing_file": (None, "reg_config", "cells file not found"),
    "not_json": ("[[]", "reg_config", "is not valid JSON"),
    "empty": ("[]", "reg_config", "cells must be a non-empty list of override lists, got []"),
    "table": ('{"cells": [[]]}', "reg_config", "cells must be a non-empty list of override lists"),
    "number": ("0.5", "reg_config", "cells must be a non-empty list of override lists, got 0.5"),
    "cell_not_a_list": ('[[], "mixup.alpha=1"]', "reg_config", "cell 1: overrides must be a list"),
    "item_not_a_string": ("[[1]]", "reg_config", "cell 0: override 1 is not of the form key=value"),
    "bad_override": ('[["mixup.alpha=2"], ["mixup.alpha=abc"]]', "reg_config", "cell 1: config key 'mixup.alpha'"),
    "unknown_key": ('[["mixup.gamma=1"]]', "reg_config", "cell 0: unknown config key 'mixup.gamma'"),
    "repeated": ('[["mixup.alpha=1"], ["mixup.alpha=1.0"]]', "reg_config",
                 "cell 1: repeats the effective config of cell 0"),
    "dataset": ('[["dataset.path=other.csv"]]', "reg_config", "cell 0: changes dataset"),
    "task": ('[["task=classification", "num_classes=2", "mixup.output_kernel.backend=class_weight"]]',
             "reg_config", "cell 0: changes task"),
    "num_classes": ('[["num_classes=4"]]', "clf_config", "cell 0: changes num_classes"),
    "output_dir": ('[[], ["output_dir=elsewhere"]]', "reg_config", "cell 1: changes output_dir"),
}


@pytest.mark.parametrize("case", sorted(BAD_CELLS))
def test_grid_bad_cells_fail_before_the_output_dir_exists(workspace, tmp_path, monkeypatch, capsys, case):
    text, config, message = BAD_CELLS[case]
    monkeypatch.setattr(harness, "_run_cell", lambda task: pytest.fail("a cell ran"))
    cells = tmp_path / "cells.json"
    if text is not None:
        cells.write_text(text)
    code = main(["grid", "--config", str(workspace[config]), "--out", str(tmp_path / "g"), "--cells", str(cells)])
    assert code == USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_bad_jobs_fails_before_the_output_dir_exists(workspace, tmp_path, capsys, jobs):
    code = main([
        "grid", "--config", str(workspace["reg_config"]), "--out", str(tmp_path / "g"),
        "--cells", str(workspace["cells"]), "--jobs", jobs,
    ])
    assert code == USAGE_EXIT
    assert "jobs must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# --------------------------------------------------------------- warp-demo


def demo_counts(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,bin_lo,bin_hi,count,density"
    rows = [line.split(",") for line in lines[1:]]
    edges = [float(r[1]) for r in rows] + [float(rows[-1][2])]
    counts = np.array([int(r[3]) for r in rows])
    return rows, np.array(edges), counts


def test_warp_demo_identity_tau_keeps_beta_shape(tmp_path, capsys):
    out = tmp_path / "demo"
    code = main([
        "warp-demo", "--taus", "1.0", "--alpha", "0.7",
        "--samples", "20000", "--seed", "0", "--out", str(out),
    ])
    assert code == 0
    rows, edges, counts = demo_counts(out / "warp_demo.csv")
    assert len(rows) == 50
    assert {r[0] for r in rows} == {"1.0"}
    assert counts.sum() == 20000
    # chi-square against the exact Beta(0.7, 0.7) bin probabilities
    cdf = scipy.stats.beta.cdf(edges, 0.7, 0.7)
    expected = np.diff(cdf) * 20000
    _, p = scipy.stats.chisquare(counts, expected)
    assert p > 0.01
    capsys.readouterr()


def test_warp_demo_half_tau_bends_uniform_draws(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main([
        "warp-demo", "--taus", "0.5", "--alpha", "1.0",
        "--samples", "100000", "--seed", "1", "--out", str(out),
    ]) == 0
    _, edges, counts = demo_counts(out / "warp_demo.csv")
    empirical = np.concatenate([[0.0], np.cumsum(counts) / counts.sum()])
    model = scipy.stats.beta.cdf(edges, 2.1, 2.1)
    assert np.max(np.abs(empirical - model)) < 0.03
    capsys.readouterr()


def test_warp_demo_counts_with_bin_stats(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["warp-demo", "--taus", "0.5,inf", "--alpha", "0.5", "--samples", "2000",
                 "--seed", "3", "--out", str(out)]) == 0
    rows, _, counts = demo_counts(out / "warp_demo.csv")
    edges = (0.0 + 1.0 * np.arange(51) / 50).tolist()  # the edges of bins.csv: lo + (hi - lo) * k / m
    assert len(rows) == 100
    for r, lo, hi in zip(rows, edges[:-1] * 2, edges[1:] * 2):
        assert (float(r[1]), float(r[2])) == (lo, hi)
    for case, tau in enumerate([0.5, math.inf]):
        raw = beta_sample(0.5, RngStream(3).child(case), size=2000)
        warped = warp_pairwise(raw, np.full(2000, tau))
        assert np.array_equal(counts[50 * case : 50 * case + 50], bin_stats(warped, 0.0, 1.0, 50)[0])
    assert {r[0] for r in rows[50:]} == {"inf"}
    step = counts[50:]  # the inf warp is the exact 0/1 step, and the top bin is closed
    assert (step[0], step[-1]) == (np.sum(raw < 0.5), np.sum(raw >= 0.5)) and step[1:-1].sum() == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["config", "override"])
def test_warp_demo_takes_no_experiment_config(workspace, tmp_path, capsys, kind):
    extra = ["--config", str(workspace["reg_config"])] if kind == "config" else ["mixup.alpha=0.3"]
    code = main(["warp-demo", "--taus", "1", "--samples", "10", "--out", str(tmp_path / "d"), *extra])
    assert code == USAGE_EXIT
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_warp_demo_needs_taus(tmp_path, capsys):
    assert main(["warp-demo", "--out", str(tmp_path / "d")]) == USAGE_EXIT
    assert main([
        "warp-demo", "--taus", "1.0", "--samples", "0", "--out", str(tmp_path / "d")
    ]) == USAGE_EXIT
    assert main(["warp-demo", "--taus", "", "--out", str(tmp_path / "d")]) == USAGE_EXIT
    capsys.readouterr()


@pytest.mark.parametrize("tau", ["0", "nan"])
def test_warp_demo_bad_tau_is_usage_error(tmp_path, capsys, tau):
    assert main([
        "warp-demo", "--taus", f"1.0,{tau}", "--samples", "100", "--out", str(tmp_path / "d")
    ]) == USAGE_EXIT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "d" / "warp_demo.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--taus", "1.0", "--samples", "0"],
    ["--taus", "abc"],
    ["--taus", "1.0", "--alpha", "-1"],
    [],
], ids=["zero_samples", "bad_taus", "negative_alpha", "no_taus"])
def test_warp_demo_bad_flags_fail_before_the_output_dir_exists(tmp_path, capsys, flags):
    code = main(["warp-demo", "--samples", "100", "--out", str(tmp_path / "d"), *flags])
    assert code == USAGE_EXIT
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "d").exists()


# ------------------------------------------------------------- subprocess


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "warpmix.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "grid" in proc.stdout
