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

from .errors import UsageError, check_array, check_int, check_labels, check_real
from .metrics import _picked_nll
from .rng import RngStream
from .similarity import _MODEL_FREE_BACKENDS, KernelConfig, extract_features
# Mixing draws its own permutations and extract_features returns float64 (n, d)
# arrays, so it skips batch_taus's input checks. The unchecked block kernel keeps
# the name batch_taus, under which per-layer traces time the tau stage.
from .similarity import _batch_taus as batch_taus
from .special import beta_sample
# Likewise the step's coefficients and strengths are in range by construction,
# so it warps them unchecked, under the name warp_pairwise.
from .warping import _warp as warp_pairwise

__all__ = [
    "MIX_MODES",
    "Batch",
    "MixupConfig",
    "MixPlan",
    "MixedBatch",
    "mix_batch",
    "mixed_loss",
]

MIX_MODES = ("off", "vanilla", "kernel_warped", "input_only", "target_only")

# (input, target) warp strengths of the modes that ignore similarity: 1 keeps
# the raw coefficient, inf snaps it to the nearer endpoint. Mode off's plan
# reports strength 1 and never warps.
_CONSTANT_TAUS = {
    "off": (1.0, 1.0),
    "vanilla": (1.0, 1.0),
    "input_only": (1.0, math.inf),
    "target_only": (math.inf, 1.0),
}


@dataclass
class Batch:
    """A minibatch: inputs (n, d) plus targets (n,).

    Classification batches carry integer class labels and ``num_classes``;
    regression batches carry real targets and ``num_classes=None``. Inputs
    and regression targets follow the package's array rule
    (``errors.check_array``): arrays of ints and floats, every entry finite,
    the first bad row named (0-based). Class labels follow its label rule
    (``errors.check_labels``): integers in [0, num_classes). Anything else
    raises UsageError naming the argument.
    """

    inputs: np.ndarray
    targets: np.ndarray
    num_classes: Optional[int] = None

    def __post_init__(self):
        self.inputs = check_array(self.inputs, "inputs")
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise UsageError(f"inputs must be a non-empty (n, d) array, got shape {self.inputs.shape}")
        n = self.inputs.shape[0]
        if self.num_classes is None:
            self.targets = check_array(self.targets, "targets")
        else:
            self.num_classes = check_int(self.num_classes, "num_classes", 2)
            self.targets = check_labels(self.targets, "targets", self.num_classes)
        if self.targets.shape != (n,):
            raise UsageError(f"targets must be a vector of one per row, shape ({n},), got {self.targets.shape}")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def _batch(inputs: np.ndarray, targets: np.ndarray, num_classes: Optional[int] = None) -> Batch:
    """A Batch of rows cut from arrays that a Batch has already checked."""
    batch = object.__new__(Batch)
    batch.inputs, batch.targets, batch.num_classes = inputs, targets, num_classes
    return batch


@dataclass(frozen=True)
class MixupConfig:
    """How batches are mixed.

    ``alpha`` shapes the Beta(alpha, alpha) the raw coefficients come from,
    ``mode`` picks the variant, and the two kernels (required only for
    kernel_warped) control how strengths depend on pair similarity. With
    ``per_batch_coeff`` a single raw coefficient is shared by the whole
    batch instead of one per sample. ``alpha`` is a number > 0 by the
    package's real-number rule (``errors.check_real``), stored as a float;
    anything else raises UsageError naming it.
    """

    alpha: float = 1.0
    mode: str = "kernel_warped"
    input_kernel: Optional[KernelConfig] = None
    output_kernel: Optional[KernelConfig] = None
    per_batch_coeff: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_real(self.alpha, "alpha", "> 0", lambda v: v > 0.0))
        if self.mode not in MIX_MODES:
            raise UsageError(f"mode must be one of {MIX_MODES}, got {self.mode!r}")
        for side in ("input_kernel", "output_kernel"):
            if self.mode == "kernel_warped" and getattr(self, side) is None:
                raise UsageError(f"{side} is required in kernel_warped mode, got None")
        # Derived once here, not per step, and not fields, so equality and repr ignore
        # them: the distinct strength sources (kernels, or constant taus) in first-seen
        # order, the row of them that each side takes, the kernels' distinct backends,
        # and whether any strength reads the model.
        sources = _CONSTANT_TAUS.get(self.mode, (self.input_kernel, self.output_kernel))
        distinct = tuple(dict.fromkeys(sources))
        object.__setattr__(self, "_distinct", distinct)
        object.__setattr__(self, "_rows", [distinct.index(s) for s in sources])
        backends = (k.backend for k in distinct if isinstance(k, KernelConfig))
        object.__setattr__(self, "_backends", tuple(dict.fromkeys(backends)))
        object.__setattr__(self, "_reads_model", not set(self._backends) <= set(_MODEL_FREE_BACKENDS))


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
        return c * self.targets_a + (1.0 - c) * self.targets_b


def mix_batch(batch: Batch, config: MixupConfig, rng: RngStream, model=None) -> MixedBatch:
    """Mix one batch according to ``config``.

    Randomness is consumed in a fixed documented order: first the
    permutation, then the raw coefficients as one sized Beta(alpha, alpha)
    draw of n values (a single shared draw with per_batch_coeff). Mode
    ``off`` consumes none and returns the batch unchanged under an identity
    plan. This is the one-batch case of the block kernel that training runs
    over the batches of an epoch.
    """
    perm, raw = np.empty(batch.size, dtype=np.int64), np.empty(batch.size)
    _draw(config, rng, perm, raw)
    return _mix_block(batch, perm, raw, config, model)


def _draw(config: MixupConfig, rng: RngStream, perm: np.ndarray, raw: np.ndarray) -> None:
    """Write the draws of mixing one batch of len(perm) rows into ``perm``
    and ``raw``, as ``mix_batch`` makes them: the permutation, then the raw
    coefficients. Mode ``off`` draws nothing and writes the identity
    permutation and coefficients of 1."""
    off = config.mode == "off"
    perm[:] = np.arange(perm.size) if off else rng.permutation(perm.size)
    raw[:] = 1.0 if off else beta_sample(config.alpha, rng, size=None if config.per_batch_coeff else raw.size)


def _mix_block(rows: Batch, perm: np.ndarray, raw: np.ndarray, config: MixupConfig, model=None,
               count: int = 1) -> MixedBatch:
    """``mix_batch`` of each of the ``count`` equal batches that ``rows``
    stacks, given their draws as ``_draw`` writes them, batch after batch,
    into ``perm`` and ``raw``. Returns one MixedBatch whose rows and plan
    lanes stack the batches' own, bit for bit (each batch's permutation
    indexes its own rows). Strengths, warps and mixed inputs are each
    computed once over the whole block."""
    n = rows.size // count
    if config.mode == "off":  # every coefficient and strength is 1
        plan = MixPlan(perm, raw, *np.ones((4, rows.size)))
        return MixedBatch(rows.inputs, rows.targets, rows.targets, plan.target_coeffs, rows.num_classes, plan)

    # each row's partner, as a row of the block
    pairs = perm.reshape(count, n) + np.arange(0, rows.size, n)[:, None]
    # Equal strength sources give bitwise-equal strengths and coefficients, so each
    # distinct source is computed once and one warp call covers them all, one lane
    # per row each, the input side's first.
    distinct = config._distinct
    if config.mode in _CONSTANT_TAUS:
        taus = np.repeat(distinct, rows.size)
    else:  # kernel_warped: features once per distinct backend
        feats = {b: extract_features(rows, b, model) for b in config._backends}
        taus = np.concatenate([batch_taus(feats[k.backend], pairs, k) for k in distinct])
    coeffs = warp_pairwise(np.concatenate([raw] * len(distinct)), taus)
    # one row per side, copied out of the lanes, so the two sides never share memory
    side_taus = taus.reshape(-1, rows.size).take(config._rows, axis=0)
    side_coeffs = coeffs.reshape(-1, rows.size).take(config._rows, axis=0)

    plan = MixPlan(perm, raw, *side_taus, *side_coeffs)  # each side's row: input, then target
    ci = plan.input_coeffs[:, None]
    pairs = pairs.ravel()
    mixed = ci * rows.inputs  # + (1 - ci) * partners, in place: fewer temporaries
    partners = rows.inputs[pairs]
    partners *= 1.0 - ci
    mixed += partners
    return MixedBatch(mixed, rows.targets, rows.targets[pairs], plan.target_coeffs, rows.num_classes, plan)


@dataclass
class _Epoch:
    """The mixing of one training epoch: its rows in epoch order, the stream
    that its steps draw from, and the block of steps mixed last, as (first
    step, stop step, its MixedBatch)."""

    rows: Batch
    batch_size: int
    rng: RngStream
    config: MixupConfig
    block: tuple = (0, 0, None)


def _mix_step(epoch: _Epoch, step: int, model=None) -> MixedBatch:
    """Step ``step``'s MixedBatch: ``mix_batch`` of its batch from the epoch's stream.

    Steps are mixed in order. A step outside the block mixed last mixes its
    own block first, making the block's draws as ``_draw`` makes them, batch
    after batch, so the stream gives each batch what ``mix_batch`` would take.
    When no strength source reads the model, the epoch's full batches are one
    block and a short last batch another, so the first step mixes every full
    batch; otherwise each step is its own block, mixed against the model as
    it is at that step."""
    first, stop, block = epoch.block
    size = epoch.batch_size
    if not first <= step < stop:
        full = epoch.rows.size // size
        first, stop = (step, step + 1) if epoch.config._reads_model or step >= full else (0, full)
        lo, hi = first * size, min(stop * size, epoch.rows.size)
        rows = _batch(epoch.rows.inputs[lo:hi], epoch.rows.targets[lo:hi], epoch.rows.num_classes)
        perm, raw = np.empty(rows.size, dtype=np.int64), np.empty(rows.size)
        for start in range(0, rows.size, size):
            _draw(epoch.config, epoch.rng, perm[start : start + size], raw[start : start + size])
        block = _mix_block(rows, perm, raw, epoch.config, model, stop - first)
        epoch.block = first, stop, block
    if stop - first == 1:
        return block
    own = slice((step - first) * size, (step - first + 1) * size)
    plan = MixPlan(*(lanes[own] for lanes in vars(block.plan).values()))
    return MixedBatch(block.inputs[own], block.targets_a[own], block.targets_b[own], plan.target_coeffs,
                      block.num_classes, plan)


def mixed_loss(outputs, mixed: MixedBatch):
    """Training loss on a mixed batch and its gradient in ``outputs``.

    ``outputs`` has the shape ``forward`` returns: (n, num_classes) logits
    for classification, (n, 1) for regression; any other shape raises
    UsageError, and so does anything that the package's array rule
    (``errors.check_array``) does not take as an array of ints and floats;
    non-finite outputs propagate as numpy propagates them. Classification:
    per-sample weighted cross-entropy c*CE(y_a) + (1-c)*CE(y_b) of
    softmax(outputs), averaged; equal in value to cross-entropy against the
    convex label vector. Regression: mean squared error against the
    materialized convex targets. Returns ``(loss, grad)``, with ``grad`` of
    the outputs' shape. Probabilities p may be passed as the logits
    ``np.log(p)``.
    """
    outputs = check_array(outputs, "outputs", finite=False)
    expected = (mixed.size, mixed.num_classes or 1)
    if outputs.shape != expected:
        raise UsageError(f"outputs shape {outputs.shape} does not match the batch's {expected}")
    onehot = None if mixed.num_classes is None else np.eye(mixed.num_classes)
    return _mixed_loss(outputs, mixed, onehot)


def _mixed_loss(outputs: np.ndarray, mixed: MixedBatch, onehot: Optional[np.ndarray]):
    """``mixed_loss`` of float64 outputs of the batch's shape, unchecked.

    The classification loss is taken from the log-softmax of the logits, so
    it grows without bound as the model diverges; probabilities clipped at
    1e-12 would cap it near 27.6. ``onehot`` is ``np.eye`` of the class count
    (None for regression)."""
    n = mixed.size
    if mixed.num_classes is None:
        targets = mixed.mixed_targets
        return _mse(outputs[:, 0], targets), 2.0 * (outputs - targets[:, None]) / n
    # both label sets' losses from one shifted exp pass and one log of the class total
    a, b, c = mixed.targets_a, mixed.targets_b, mixed.target_coeffs
    (loss_a, loss_b), e, total = _picked_nll(outputs, np.arange(n) * mixed.num_classes + np.stack((a, b)))
    loss = float(np.add.reduce(c * loss_a + (1.0 - c) * loss_b) / n)
    convex = c[:, None] * onehot[a] + (1.0 - c[:, None]) * onehot[b]
    return loss, (e / total[:, None] - convex) / n


def _mse(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error of two float64 arrays of one shape, unchecked."""
    return float(np.mean((preds - targets) ** 2))
