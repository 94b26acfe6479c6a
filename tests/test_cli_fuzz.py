"""A seeded fuzz test of the CLI's two file inputs: a predictions payload,
read by ``warpmix metrics``, and a checkpoint, read by ``warpmix eval``.

Each case damages one numeric leaf of a valid file: it becomes the number
as a string, true or false, null, NaN or an infinity, an empty or a ragged
list, or +-1e300. ``cli.main`` then runs in-process. Whatever the damage,
it exits 0, 1 or 2 and no exception escapes it; a non-zero exit prints an
``error:`` line and leaves no output directory. A leaf that is no longer a
finite number (every damage but +-1e300) breaks a rule at the edge, so it
exits 2. SEED and CASES fix the cases; the whole test takes a few seconds.
"""

import json
import math

import numpy as np
import pytest

from warpmix import RngStream, init_mlp, save_model, softmax
from warpmix.cli import USAGE_EXIT, main

from _support import synth_regression, write_csv

SEED = 20261020
CASES = 400  # per verb

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
STILL_NUMBERS = ("huge", "minus_huge")


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


def _run(argv, out, damage, where, capsys):
    # a number past the edge's rules may overflow in numpy arithmetic, which the CLI
    # reports as a warning; every other damage is rejected before any arithmetic
    overflow = "ignore" if damage in STILL_NUMBERS else "warn"
    try:
        with np.errstate(over=overflow, invalid=overflow):
            code = main(argv)
    except Exception as exc:  # any escape is the failure this test looks for
        pytest.fail(f"{where}: {type(exc).__name__} escaped main: {exc}")
    err = capsys.readouterr().err
    assert code in (0, 1, 2), where
    if code:
        assert err.startswith("error: ") and "Traceback" not in err, where
        assert not out.exists(), where
    if damage not in STILL_NUMBERS:
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
