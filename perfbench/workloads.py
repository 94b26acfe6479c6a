"""The benchmark's workloads: generated inputs, experiment configs and the
quality brackets that every run must land in.

Inputs are made from the workload seed alone and written to a CSV, so the
program sees only a file, as a user's data would reach it.
"""

from __future__ import annotations

import numpy as np

# Every seed trains for this many epochs: short enough that a run of a few
# seconds holds tens of seeds, so per-seed times have a stable median.
EPOCHS = 10

_REG_KERNELS = {
    # The settings of the airfoil acceptance criteria: tau ~ 1e4 on every
    # pair, so warps sit in the saturated near-step regime.
    "input_kernel": {"tau_max": 1e-4, "tau_std": 1.5, "backend": "raw_input"},
    "output_kernel": {"tau_max": 1e-4, "tau_std": 1.5, "backend": "label"},
}


def _regression_config(mode: str) -> dict:
    return {
        "task": "regression",
        "model": {"hidden": [128, 128], "dropout_rate": 0.2},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": EPOCHS, "batch_size": 16},
        "mixup": {"mode": mode, "alpha": 0.5, **_REG_KERNELS},
        "metrics": {"num_bins": 15, "mc_samples": 50},
    }


def _blobs_config() -> dict:
    # The settings of the synthetic-blobs acceptance criterion: tau near 1,
    # so almost every coefficient really interpolates.
    embedding = {"tau_max": 2.0, "tau_std": 1.0, "backend": "embedding"}
    return {
        "task": "classification",
        "num_classes": 2,
        "model": {"hidden": [64], "dropout_rate": 0.2},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": EPOCHS, "batch_size": 16},
        "mixup": {"mode": "kernel_warped", "alpha": 1.0,
                  "input_kernel": embedding, "output_kernel": dict(embedding)},
        "metrics": {"num_bins": 15, "mc_samples": 50},
    }


def synth_regression(seed: int, n: int = 1503, d: int = 5, noise: float = 0.05):
    """Airfoil-shaped regression table: a smooth function of gaussian features."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (
        np.sin(x[:, 0])
        + 0.5 * x[:, 1] * x[:, min(2, d - 1)]
        + 0.2 * x[:, 0] ** 2
        + noise * rng.standard_normal(n)
    )
    return x, y


def synth_blobs(seed: int, n: int = 2000, d: int = 10, classes: int = 2, sep: float = 2.0):
    """Gaussian blobs with evenly split labels, centres at distance ``sep``."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, d))
    centers *= sep / np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    x = centers[labels] + rng.standard_normal((n, d))
    return x, labels


def write_csv(path, features, targets) -> None:
    """Headered CSV, target last; repr() keeps every float bit-exact."""
    header = [f"x{j}" for j in range(features.shape[1])] + ["target"]
    lines = [",".join(header)]
    for row, target in zip(features.tolist(), targets.tolist()):
        lines.append(",".join(map(repr, row)) + "," + repr(target))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# name -> (data generator, config function, quality brackets on the seed means).
# The brackets reject a model that did not learn: predicting the target mean
# gives an RMSE near 0.9 here, and guessing a class gives accuracy 0.5. Blob
# centres are random, so the best possible accuracy depends on the seed; it
# stays above 0.67 on each of the workload seeds 0-19999.
WORKLOADS = {
    "reg_warped": (
        synth_regression,
        lambda: _regression_config("kernel_warped"),
        {"test_rmse": (0.05, 0.5), "test_uce": (0.0, 0.2)},
    ),
    "reg_off": (
        synth_regression,
        lambda: _regression_config("off"),
        {"test_rmse": (0.05, 0.5), "test_uce": (0.0, 0.2)},
    ),
    "blobs_embed": (
        synth_blobs,
        _blobs_config,
        {"test_accuracy": (0.6, 1.0), "test_ece": (0.0, 0.12)},
    ),
}


def quality(task: str, metrics: dict) -> dict:
    """The reported quality metrics of one seed, by benchmark name."""
    if task == "regression":
        return {"test_rmse": metrics["rmse"], "test_uce": metrics["uce"]}
    return {"test_accuracy": metrics["accuracy"], "test_ece": metrics["ece"]}
