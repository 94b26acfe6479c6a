"""Batch mixing with per-sample warped coefficients.

One permutation pairs each sample with a partner; each pair draws a raw
coefficient from Beta(alpha, alpha); the coefficient is then warped twice,
once with the input-side strength and once with the target-side strength,
before the convex combinations are formed. Classic unwarped mixup, the
input-only and target-only variants, and no mixing at all are recovered by
fixing those strengths to 1 or to the step limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, UsageError
from .rng import RngStream
from .similarity import KernelConfig, extract_features
# The step draws its own permutation and extract_features returns float64 (n, d)
# arrays, so the step skips batch_taus's input checks. The unchecked kernel keeps
# the name batch_taus, under which per-layer traces time the step's tau stage.
from .similarity import _batch_taus as batch_taus
from .special import beta_sample
from .warping import warp_pairwise

__all__ = [
    "MIX_MODES",
    "Batch",
    "MixupConfig",
    "MixPlan",
    "MixedBatch",
    "sample_permutation",
    "mix_batch",
    "mixed_loss",
]

MIX_MODES = ("off", "vanilla", "kernel_warped", "input_only", "target_only")

# (input, target) warp strengths of the modes that ignore similarity: 1 keeps
# the raw coefficient, inf snaps it to the nearer endpoint.
_CONSTANT_TAUS = {
    "vanilla": (1.0, 1.0),
    "input_only": (1.0, math.inf),
    "target_only": (math.inf, 1.0),
}


@dataclass
class Batch:
    """A minibatch: inputs (n, d) plus targets.

    Classification batches carry integer class labels and ``num_classes``;
    regression batches carry real targets and ``num_classes=None``. Every
    input and target must be finite; errors name the 0-based row.
    """

    inputs: np.ndarray
    targets: np.ndarray
    num_classes: Optional[int] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise UsageError(f"inputs must be a non-empty (n, d) array, got shape {self.inputs.shape}")
        n = self.inputs.shape[0]
        if self.num_classes is None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
        else:
            if int(self.num_classes) < 2:
                raise UsageError(f"num_classes must be >= 2, got {self.num_classes}")
            self.num_classes = int(self.num_classes)
            self.targets = np.asarray(self.targets)
            if self.targets.dtype.kind not in "iu":
                as_int = self.targets.astype(np.int64)
                if not np.array_equal(as_int, self.targets):
                    raise UsageError("classification targets must be integer class indices")
                self.targets = as_int
            # one reduction: as uint64 a negative index wraps past any class count
            if self.targets.size and self.targets.astype(np.uint64).max() >= self.num_classes:
                raise UsageError("class indices must lie in [0, num_classes)")
        if self.targets.shape[0] != n:
            raise UsageError(
                f"targets length {self.targets.shape[0]} does not match batch size {n}"
            )
        checked = [("input", self.inputs)]
        if self.num_classes is None:  # integer class indices cannot be non-finite
            checked.append(("target", self.targets))
        for kind, values in checked:
            finite = np.isfinite(values)
            if not finite.all():
                row = np.flatnonzero(~finite.reshape(n, -1).all(axis=1))[0]
                raise UsageError(f"non-finite {kind} at row {row} of the batch")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class MixupConfig:
    """How batches are mixed.

    ``alpha`` shapes the Beta(alpha, alpha) the raw coefficients come from,
    ``mode`` picks the variant, and the two kernels (required only for
    kernel_warped) control how strengths depend on pair similarity. With
    ``per_batch_coeff`` a single raw coefficient is shared by the whole
    batch instead of one per sample.
    """

    alpha: float = 1.0
    mode: str = "kernel_warped"
    input_kernel: Optional[KernelConfig] = None
    output_kernel: Optional[KernelConfig] = None
    per_batch_coeff: bool = False

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise DomainError(f"alpha must be a positive finite number, got {self.alpha}")
        object.__setattr__(self, "alpha", a)
        if self.mode not in MIX_MODES:
            raise UsageError(f"unknown mix mode {self.mode!r}; expected one of {MIX_MODES}")
        if self.mode == "kernel_warped" and (self.input_kernel is None or self.output_kernel is None):
            raise UsageError("kernel_warped mode requires both input_kernel and output_kernel")


@dataclass
class MixPlan:
    """Everything that determined a mixed batch, for audit and replay.

    The warp strengths are float64 arrays, with inf standing for the step.
    """

    permutation: np.ndarray
    raw_coeffs: np.ndarray
    input_taus: np.ndarray
    target_taus: np.ndarray
    input_coeffs: np.ndarray
    target_coeffs: np.ndarray


@dataclass
class MixedBatch:
    """A batch after mixing.

    ``inputs`` are the convex input combinations. Targets are kept as the
    pair (targets_a[i], targets_b[i]) with weight target_coeffs[i] on the
    first element; regression code can materialize them via
    ``mixed_targets``, classification losses consume the pair directly.
    """

    inputs: np.ndarray
    targets_a: np.ndarray
    targets_b: np.ndarray
    target_coeffs: np.ndarray
    num_classes: Optional[int]
    plan: MixPlan

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def mixed_targets(self) -> np.ndarray:
        """Convex target combinations; regression only."""
        if self.num_classes is not None:
            raise UsageError("mixed_targets is regression-only; use the target pair for classification")
        c = self.target_coeffs
        if self.targets_a.ndim > 1:
            c = c[:, None]
        return c * self.targets_a + (1.0 - c) * self.targets_b


def sample_permutation(n: int, rng: RngStream) -> np.ndarray:
    """A uniformly random permutation of range(n)."""
    n = int(n)
    if n < 1:
        raise UsageError(f"permutation size must be >= 1, got {n}")
    return rng.permutation(n)


def mix_batch(batch: Batch, config: MixupConfig, rng: RngStream, model=None) -> MixedBatch:
    """Mix one batch according to ``config``.

    Randomness is consumed in a fixed documented order: first the
    permutation, then the raw coefficients as one sized Beta(alpha, alpha)
    draw of n values (a single shared draw with per_batch_coeff). Mode
    ``off`` consumes none and returns the batch unchanged under an identity
    plan.
    """
    n = batch.size
    if config.mode == "off":
        ones = np.ones(n, dtype=np.float64)
        plan = MixPlan(
            permutation=np.arange(n),
            raw_coeffs=ones,
            input_taus=ones.copy(),
            target_taus=ones.copy(),
            input_coeffs=ones,
            target_coeffs=ones.copy(),
        )
        return MixedBatch(
            inputs=batch.inputs,
            targets_a=batch.targets,
            targets_b=batch.targets,
            target_coeffs=plan.target_coeffs,
            num_classes=batch.num_classes,
            plan=plan,
        )

    perm = sample_permutation(n, rng)
    if config.per_batch_coeff:
        raw = np.full(n, beta_sample(config.alpha, rng))
    else:
        raw = beta_sample(config.alpha, rng, size=n)

    # Each side's strength source is its kernel or its constant tau. Equal sources give
    # bitwise-equal strengths and coefficients, so each distinct source is computed once
    # and one warp call covers them all, n lanes each, the input side's first.
    sources = _CONSTANT_TAUS.get(config.mode, (config.input_kernel, config.output_kernel))
    distinct = list(dict.fromkeys(sources))
    if config.mode in _CONSTANT_TAUS:
        taus = np.repeat(distinct, n)
    else:  # kernel_warped: features once per distinct backend
        feats = {b: extract_features(batch, b, model) for b in dict.fromkeys(k.backend for k in distinct)}
        taus = np.concatenate([batch_taus(feats[k.backend], perm, k) for k in distinct])
    coeffs = warp_pairwise(np.concatenate([raw] * len(distinct)), taus)
    # one row per side, copied out of the lanes, so the two sides never share memory
    rows = [distinct.index(s) for s in sources]
    side_taus = taus.reshape(-1, n).take(rows, axis=0)
    side_coeffs = coeffs.reshape(-1, n).take(rows, axis=0)

    plan = MixPlan(
        permutation=perm,
        raw_coeffs=raw,
        input_taus=side_taus[0],
        target_taus=side_taus[1],
        input_coeffs=side_coeffs[0],
        target_coeffs=side_coeffs[1],
    )
    ci = plan.input_coeffs[:, None]
    mixed_inputs = ci * batch.inputs + (1.0 - ci) * batch.inputs[perm]
    return MixedBatch(
        inputs=mixed_inputs,
        targets_a=batch.targets,
        targets_b=batch.targets[perm],
        target_coeffs=plan.target_coeffs,
        num_classes=batch.num_classes,
        plan=plan,
    )


def mixed_loss(predictions, mixed: MixedBatch, task: str) -> float:
    """Training loss on a mixed batch.

    Classification: per-sample weighted cross-entropy c*CE(p, y_a) +
    (1-c)*CE(p, y_b), averaged; equal in value to cross-entropy against the
    convex label vector. Regression: mean squared error against the
    materialized convex targets.
    """
    if task not in ("classification", "regression"):
        raise UsageError(f"unknown task {task!r}")
    preds = np.asarray(predictions, dtype=np.float64)
    n = mixed.size

    if task == "classification":
        if mixed.num_classes is None:
            raise UsageError("classification loss on a regression batch")
        if preds.shape != (n, mixed.num_classes):
            raise UsageError(
                f"predictions shape {preds.shape} does not match (n, c)=({n}, {mixed.num_classes})"
            )
        return _mixed_nll(np.log(np.clip(preds, 1e-12, None)), mixed)

    if mixed.num_classes is not None:
        raise UsageError("regression loss on a classification batch")
    targets = mixed.mixed_targets
    if preds.ndim == 2 and preds.shape[1] == 1 and targets.ndim == 1:
        preds = preds[:, 0]
    if preds.shape != targets.shape:
        raise UsageError(f"predictions shape {preds.shape} does not match targets {targets.shape}")
    return float(np.mean((preds - targets) ** 2))


def _nll(log_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood of integer ``labels``."""
    return -log_probs[np.arange(len(labels)), labels]


def _mixed_nll(log_probs: np.ndarray, mixed: MixedBatch) -> float:
    """The mixed-batch cross-entropy from (n, c) log-probabilities, unchecked."""
    c = mixed.target_coeffs
    loss_a, loss_b = _nll(log_probs, mixed.targets_a), _nll(log_probs, mixed.targets_b)
    return float(np.mean(c * loss_a + (1.0 - c) * loss_b))
