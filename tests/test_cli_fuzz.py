"""A seeded fuzz test of the CLI's inputs: a predictions payload, read by
``warpmix metrics``; a checkpoint, read by ``warpmix eval``; an experiment
config and its ``key=value`` overrides, read by ``warpmix train``; and the
CLI's own options.

Each payload or checkpoint case damages one numeric leaf of a valid file:
it becomes the number as a string, true or false, null, NaN or an
infinity, an empty or a ragged list, or +-1e300. Each config case damages
one key of a valid config, in the file or by an override: its value takes
a wrong type, NaN, an infinity, an empty string, +-1e300 or an integer
past the largest float, or the key goes missing or is misspelt.
``cli.main`` then runs in-process. Whatever the damage, it exits 0, 1 or 2
and no exception escapes it; a non-zero exit prints an ``error:`` line and
leaves no output directory. A payload or checkpoint leaf that is no longer
a finite number (every damage but +-1e300) breaks a rule at the edge, and
so does a config value of NaN or an infinity, a misspelt key or an
override without ``=``: each exits 2. Each option case gives one option
of ``train``, ``eval``, ``grid`` or ``warp-demo`` a damaged value: text, an
empty value, a lone comma, NaN, an infinity, +-1e300, an integer past the
largest float or past int64, a negative integer or a fraction. The first
six are never numbers an option takes and exit 2, except an infinite
``--taus``, the step-function limit. The same damages go to a kernel's
``tau_max`` or ``tau_std`` inside a ``grid`` cells file, and the cells
file is damaged whole too: not JSON, not a list, an empty list, a cell
that is not a list, an override that is not a string, a repeated cell or
a cell that sets ``dataset.path``, each of which exits 2. Every input
file (config, cells, dataset CSV, checkpoint and predictions) also gets
bytes that are not UTF-8 at a drawn place in a valid file, which exits 2.
SEED and CASES fix the cases; the whole test takes a few seconds.
"""

import json
import math
import re

import numpy as np
import pytest

from warpmix import RngStream, harness, init_mlp, save_model, softmax
from warpmix.cli import USAGE_EXIT, main

from _support import synth_blobs, synth_regression, write_csv

SEED = 20261020
CASES = 400  # per verb
CONFIG_CASES = 200  # per input: the config file and its overrides

# each takes the leaf's number and gives the damaged leaf
DAMAGES = {
    "string": str,
    "true": lambda x: True,
    "false": lambda x: False,
    "null": lambda x: None,
    "nan": lambda x: math.nan,
    "infinity": lambda x: math.inf,
    "minus_infinity": lambda x: -math.inf,
    "empty_list": lambda x: [],
    "ragged_list": lambda x: [x, [x]],
    "huge": lambda x: 1e300,
    "minus_huge": lambda x: -1e300,
}
STILL_NUMBERS = ("huge", "minus_huge", "past_float")


def _leaves(node, path=()):
    """The path of every number in a JSON tree, grouped by the key that holds it."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, path + (key,))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node) for leaf in _leaves(value, path + (i,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _damaged(tree, rng):
    """A copy of ``tree`` with one number damaged, and a description of the damage.

    The leaf is drawn from a uniformly drawn key, so that scalar keys come up
    as often as the entries of one array."""
    leaves = _leaves(tree)
    keys = sorted({tuple(k for k in path if isinstance(k, str)) for path in leaves})
    key = keys[rng.integers(len(keys))]
    paths = [path for path in leaves if tuple(k for k in path if isinstance(k, str)) == key]
    path = paths[rng.integers(len(paths))]
    damage = sorted(DAMAGES)[rng.integers(len(DAMAGES))]
    copy = json.loads(json.dumps(tree))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = DAMAGES[damage](node[path[-1]])
    return copy, damage, f"{damage} at {'.'.join(map(str, path))}"


def _payloads():
    rng = np.random.default_rng(0)
    regression = {"task": "regression", "num_bins": 3, "means": rng.standard_normal(6).tolist(),
                  "variances": rng.uniform(0.1, 1.0, 6).tolist(), "targets": rng.standard_normal(6).tolist()}
    classification = {"task": "classification", "num_bins": 3,
                      "probs": softmax(rng.standard_normal((6, 3))).tolist(),
                      "labels": [0, 1, 2, 2, 1, 0], "temperature": 1.5}
    return [regression, classification]


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A regression config and the checkpoint of a model that fits it."""
    root = tmp_path_factory.mktemp("fuzz")
    data = synth_regression(n=40, d=3, seed=0)
    csv = write_csv(root / "reg.csv", ["x0", "x1", "x2", "y"], np.column_stack([data.features, data.targets]))
    config = root / "config.json"
    config.write_text(json.dumps({"dataset": {"path": str(csv)}, "model": {"hidden": [4]},
                                  "metrics": {"num_bins": 3, "mc_samples": 3}}))
    save_model(init_mlp([3, 4, 1], 0.2, RngStream(0)), root / "checkpoint.json")
    return config, json.loads((root / "checkpoint.json").read_text())


def _run(argv, out, damage, where, capsys, usage=None):
    """Run ``cli.main`` on ``argv`` and check the exit rules; ``usage`` says
    whether the damage must exit 2 (by default, unless it left a number)."""
    # a number past the edge's rules may overflow in numpy arithmetic, which the CLI
    # reports as a warning; every other damage is rejected before any arithmetic, or is
    # a valid config
    overflow = "ignore" if damage in STILL_NUMBERS else "warn"
    try:
        with np.errstate(over=overflow, invalid=overflow):
            code = main(argv)
    except Exception as exc:  # any escape is the failure this test looks for
        pytest.fail(f"{where}: {type(exc).__name__} escaped main: {exc}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), where
    if code:
        # the program's "error: ..." line, or argparse's usage and "warpmix <verb>: error: ..." line
        assert re.fullmatch(r"error: .+\n|usage: warpmix [^\n]*\n(?:[^\n]*\n)*warpmix [a-z-]+: error: .+\n", err,
                            re.DOTALL), f"{where}: {err!r}"
        assert "Traceback" not in err, where
        assert not out.exists(), where
    if usage is None:
        usage = damage not in STILL_NUMBERS
    if usage:
        assert code == USAGE_EXIT, f"{where}: exit {code}, {err}"


def test_damaged_predictions_file(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    payloads = _payloads()
    for case in range(CASES):
        payload, damage, where = _damaged(payloads[case % 2], rng)
        path, out = tmp_path / f"predictions{case}.json", tmp_path / f"out{case}"
        path.write_text(json.dumps(payload))
        _run(["metrics", "--predictions", str(path), "--out", str(out)], out, damage,
             f"{payload['task']} payload, {where}", capsys)


def test_damaged_checkpoint(eval_inputs, tmp_path, capsys):
    config, checkpoint = eval_inputs
    rng = np.random.default_rng(SEED + 1)
    for case in range(CASES):
        damaged, damage, where = _damaged(checkpoint, rng)
        path, out = tmp_path / f"checkpoint{case}.json", tmp_path / f"out{case}"
        path.write_text(json.dumps(damaged))
        _run(["eval", "--config", str(config), "--checkpoint", str(path), "--out", str(out)], out, damage,
             f"checkpoint, {where}", capsys)


# each takes the key's valid value and gives the damaged one; "missing" and
# "misspelt" damage the key instead of its value
CONFIG_DAMAGES = {
    "string": lambda x: x if isinstance(x, str) else json.dumps(x),
    "number": lambda x: 3,
    "true": lambda x: True,
    "false": lambda x: False,
    "null": lambda x: None,
    "list": lambda x: [x],
    "table": lambda x: {"value": x},
    "nan": lambda x: math.nan,
    "infinity": lambda x: math.inf,
    "minus_infinity": lambda x: -math.inf,
    "empty_string": lambda x: "",
    "huge": lambda x: 1e300,
    "minus_huge": lambda x: -1e300,
    "past_float": lambda x: 10**400,
    "missing": None,
    "misspelt": None,
}
# damages that break a rule at the edge wherever they land
CONFIG_USAGE = ("nan", "infinity", "minus_infinity", "misspelt")
# an epoch count of 1e300 or 10**400 is valid, and would only run that long
LONG_RUNS = {("optimizer", "epochs"): ("huge", "past_float")}


@pytest.fixture(scope="module")
def train_configs(tmp_path_factory):
    """A small regression and a small classification config, as dicts."""
    root = tmp_path_factory.mktemp("fuzz_train")
    reg = synth_regression(n=40, d=3, seed=0)
    reg_csv = write_csv(root / "reg.csv", ["x0", "x1", "x2", "y"], np.column_stack([reg.features, reg.targets]))
    clf = synth_blobs(n=40, d=3, classes=3, seed=1)
    clf_csv = write_csv(root / "clf.csv", ["x0", "x1", "x2", "label"],
                        np.column_stack([clf.features, clf.targets.astype(np.float64)]))
    shared = {"seeds": [0], "split_fractions": [0.5, 0.25, 0.25],
              "model": {"hidden": [4], "dropout_rate": 0.2},
              "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": 1, "batch_size": 8},
              "metrics": {"num_bins": 3, "mc_samples": 3}}
    regression = {"dataset": {"path": str(reg_csv), "target_column": "y"}, "task": "regression", **shared,
                  "mixup": {"mode": "kernel_warped", "alpha": 0.5, "per_batch_coeff": False,
                            "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "raw_input"},
                            "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "label"}}}
    classification = {"dataset": {"path": str(clf_csv), "target_column": -1, "name": "blobs"},
                      "task": "classification", "num_classes": 3, **shared,
                      "mixup": {"mode": "kernel_warped", "alpha": 0.5,
                                "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "embedding"},
                                "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "class_weight"}}}
    return [regression, classification]


def _keys(node, path=()):
    """The path of every value in a config tree, tables and list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [sub for key, value in items for sub in [path + (key,), *_keys(value, path + (key,))]]


def _damaged_config(config, rng, override):
    """``(config, overrides, damage, where)``: ``config`` with one key
    damaged in the file, or left whole with the damage as one override.
    An override names a table key, since list items have no dotted name."""
    paths = [path for path in _keys(config) if not override or isinstance(path[-1], str)]
    path = paths[rng.integers(len(paths))]
    damages = [d for d in sorted(CONFIG_DAMAGES) if d not in LONG_RUNS.get(path, ())]
    damage = damages[rng.integers(len(damages))]
    where = f"{damage} at {'.'.join(map(str, path))}" + (" by override" if override else "")
    copy = json.loads(json.dumps(config))
    node = copy
    for step in path[:-1]:
        node = node[step]
    if override:
        dotted = ".".join(path)
        if damage == "missing":
            return copy, [dotted], damage, where
        if damage == "misspelt":
            return copy, [f"{dotted}_typo=1"], damage, where
        return copy, [f"{dotted}={json.dumps(CONFIG_DAMAGES[damage](node[path[-1]]))}"], damage, where
    if damage == "misspelt" and isinstance(path[-1], str):
        node[f"{path[-1]}_typo"] = node.pop(path[-1])
    elif damage in ("missing", "misspelt"):  # a list item has no key to misspell: it goes missing
        del node[path[-1]]
        damage = "missing"
    else:
        node[path[-1]] = CONFIG_DAMAGES[damage](node[path[-1]])
    return copy, [], damage, where


@pytest.mark.parametrize("override", [False, True], ids=["file", "override"])
def test_damaged_config(train_configs, tmp_path, capsys, override):
    rng = np.random.default_rng(SEED + 2 + override)
    for case in range(CONFIG_CASES):
        config, overrides, damage, where = _damaged_config(train_configs[case % 2], rng, override)
        path, out = tmp_path / f"config{case}.json", tmp_path / f"out{case}"
        path.write_text(json.dumps(config))
        usage = damage in CONFIG_USAGE or (override and damage == "missing")  # "key" without "="
        _run(["train", "--config", str(path), "--out", str(out), *overrides], out, damage,
             f"{config['task']} config, {where}", capsys, usage)


# each takes the case's generator and gives the option's damaged text
OPTION_DAMAGES = {
    "text": lambda rng: "abc",
    "empty": lambda rng: "",
    "comma": lambda rng: ",",
    "nan": lambda rng: "nan",
    "infinity": lambda rng: "inf",
    "minus_infinity": lambda rng: "-inf",
    "huge": lambda rng: "1e300",
    "minus_huge": lambda rng: "-1e300",
    "past_float": lambda rng: str(10**400),
    "past_int64": lambda rng: str(2**63),
    "negative": lambda rng: str(-int(rng.integers(1, 1000))),
    "fraction": lambda rng: repr(round(float(rng.uniform(0.0, 4.0)), 3)),
}
OPTION_USAGE = ("text", "empty", "comma", "nan", "infinity", "minus_infinity")
# an infinite warp strength is the step-function limit, which warp-demo draws
ACCEPTED = {("--taus", "infinity")}
# (verb, option, the other options of its valid command). No damage is a count that
# can be held: --samples takes only integers, and a --samples of 2**63 or 10**400 is
# one no memory can hold. --jobs sizes its pool by the grid's one cell.
OPTIONS = [
    *[(verb, "--seed", ()) for verb in ("train", "eval", "grid")],
    *[("grid", option, ()) for option in ("--jobs", "--cells")],
    *[("warp-demo", option, ("--taus=1",)) for option in ("--seed", "--alpha", "--samples", "--taus")],
]


class InProcessPool:
    """The grid's process pool, run in the test's process: the cells' results
    and the CLI's exit rule do not depend on where the cells run."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_damaged_option(train_configs, eval_inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_configs[0]))  # a 1-epoch regression run that the checkpoint fits
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(eval_inputs[1]))
    cells = tmp_path / "cells.json"
    cells.write_text("[[]]")
    valid = {"train": ["--config", str(config)],
             "eval": ["--config", str(config), "--checkpoint", str(checkpoint)],
             "grid": ["--config", str(config), f"--cells={cells}", "--jobs=1"],
             "warp-demo": ["--samples=10"]}
    rng = np.random.default_rng(SEED + 4)
    for case, ((verb, option, others), damage) in enumerate(
            (entry, damage) for entry in OPTIONS for damage in sorted(OPTION_DAMAGES)):
        value = OPTION_DAMAGES[damage](rng)
        out = tmp_path / f"out{case}"
        # the damaged option comes last, so it replaces a valid one; "--opt=value" keeps a
        # leading "-" from reading as an option
        argv = [verb, *valid[verb], *others, "--out", str(out), f"{option}={value}"]
        usage = damage in OPTION_USAGE and (option, damage) not in ACCEPTED
        _run(argv, out, damage, f"{verb} {option}={value[:40]}", capsys, usage)


# each gives the text of a damaged cells file; every one exits 2
CELLS_DAMAGES = {
    "not_json": '[["mixup.alpha=1"]',
    "not_a_list": '{"mixup.alpha": 1}',
    "empty": "[]",
    "cell_not_a_list": '[[], "mixup.alpha=1"]',
    "item_not_a_string": '[["mixup.alpha=1", 1]]',
    "repeated_cell": '[["mixup.alpha=1"], [], ["mixup.alpha=1.0"]]',
    "dataset_path": '[[], ["dataset.path=other.csv"]]',
}


def test_damaged_cells(train_configs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_configs[0]))
    rng = np.random.default_rng(SEED + 5)
    # (the file's text, the damage, whether it must exit 2); the first cell is the config as it is
    cases = [(json.dumps([[], [f"mixup.input_kernel.{key}={OPTION_DAMAGES[damage](rng)}"]]), damage,
              damage in OPTION_USAGE) for key in ("tau_max", "tau_std") for damage in sorted(OPTION_DAMAGES)]
    cases += [(text, damage, True) for damage, text in sorted(CELLS_DAMAGES.items())]
    for case, (text, damage, usage) in enumerate(cases):
        cells, out = tmp_path / f"cells{case}.json", tmp_path / f"out{case}"
        cells.write_text(text)
        argv = ["grid", "--config", str(config), f"--cells={cells}", "--jobs=2", "--out", str(out)]
        _run(argv, out, damage, f"grid cells {text[:60]}", capsys, usage)


# byte sequences that are not UTF-8: a byte no character starts with, a lone continuation
# byte, a lead byte without its continuation, an encoded surrogate, a code point past
# U+10FFFF and a character cut short
NOT_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80", b"\xe2\x82")
NOT_UTF8_CASES = 20  # per input file


@pytest.mark.parametrize("kind", ["config", "cells", "dataset", "checkpoint", "predictions"])
def test_input_file_that_is_not_utf8(train_configs, eval_inputs, tmp_path, capsys, monkeypatch, kind):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_configs[0]))
    eval_config, checkpoint = eval_inputs
    with open(train_configs[0]["dataset"]["path"], "rb") as fh:
        dataset = fh.read()
    # (the valid file's bytes, the command line that reads the file at a path)
    valid, argv = {
        "config": (config.read_bytes(), lambda path: ["train", "--config", path]),
        "cells": (b'[[], ["mixup.alpha=0.2"]]', lambda path: ["grid", "--config", str(config), "--cells", path]),
        "dataset": (dataset, lambda path: ["train", "--config", str(config), f"dataset.path={path}"]),
        "checkpoint": (json.dumps(checkpoint).encode(),
                       lambda path: ["eval", "--config", str(eval_config), "--checkpoint", path]),
        "predictions": (json.dumps(_payloads()[0]).encode(), lambda path: ["metrics", "--predictions", path]),
    }[kind]
    rng = np.random.default_rng(SEED + 6)
    for case in range(NOT_UTF8_CASES):
        at, bad = int(rng.integers(len(valid) + 1)), NOT_UTF8[rng.integers(len(NOT_UTF8))]
        path, out = tmp_path / f"{kind}{case}", tmp_path / f"out{case}"
        path.write_bytes(valid[:at] + bad + valid[at:])
        _run([*argv(str(path)), "--out", str(out)], out, "not_utf8", f"{kind} with {bad!r} at byte {at}", capsys,
             usage=True)
