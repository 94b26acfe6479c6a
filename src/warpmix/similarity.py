"""Similarity-dependent warp strengths.

Each sample in a batch is paired with its image under a permutation. The
squared distance between the two, normalized by the batch mean of such
distances, measures how dissimilar the pair is; an exponential kernel then
turns that into a warp strength. Close pairs get small strengths, so their
coefficients are pulled toward 0.5 and the pair blends thoroughly; distant
pairs get large strengths, so their coefficients are pushed toward the
endpoints and each sample stays close to itself. The strength grows
monotonically with normalized distance and an exactly average pair maps to
1 / tau_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as model_module  # by attribute, so a patched model.embed applies
from .errors import DivergenceError, UsageError, check_array, check_real
from .special import SHAPE_MAX, SHAPE_MIN

__all__ = [
    "FEATURE_BACKENDS",
    "KernelConfig",
    "normalized_distances",
    "batch_taus",
    "extract_features",
]

FEATURE_BACKENDS = ("raw_input", "embedding", "class_weight", "label")
# the backends whose features depend on the data alone, never on the model
_MODEL_FREE_BACKENDS = ("raw_input", "label")

# Below this batch-mean squared distance the batch is treated as degenerate
# (all points coincide) and every pair is assigned the average distance 1.
_DEGENERATE_MEAN = 1e-12


@dataclass(frozen=True)
class KernelConfig:
    """Distance-to-strength kernel settings.

    ``tau_max`` scales the overall strength (an average-distance pair gets
    1 / tau_max), ``tau_std`` controls how fast strength varies with
    distance, and ``backend`` names the feature space distances are taken in.
    Both are numbers > 0 by the package's real-number rule
    (``errors.check_real``), stored as floats; anything else, or a ``tau_std``
    whose kernel scale 2 tau_std^2 overflows or rounds to 0, raises
    UsageError naming it.
    """

    tau_max: float
    tau_std: float
    backend: str = "raw_input"

    def __post_init__(self):
        for name in ("tau_max", "tau_std"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, "> 0", lambda v: v > 0.0))
        try:  # the kernel divides by its scale 2 std^2, as _distances_to_taus computes it
            scale = 2.0 * self.tau_std**2
        except OverflowError:
            scale = math.inf
        if not 0.0 < scale < math.inf:
            raise UsageError(f"tau_std must keep the kernel scale 2 tau_std^2 in (0, inf), got {self.tau_std}")
        if self.backend not in FEATURE_BACKENDS:
            raise UsageError(f"backend must be one of {FEATURE_BACKENDS}, got {self.backend!r}")


def normalized_distances(points, permutation) -> np.ndarray:
    """Squared pair distances divided by their batch mean.

    ``points`` is (n, d) (a 1-d array is treated as n scalars) by the
    package's array rule (``errors.check_array``): ints and floats, every
    one finite, or UsageError naming the first bad row (0-based).
    ``permutation`` pairs row i with row permutation[i]; it takes the
    array rule's dtype part, and integral floats count as their integers.
    The result always has mean exactly 1 by construction, except for a
    degenerate batch where all pairs coincide, which maps to all ones.
    """
    return _pair_distances(*_checked_pairs(points, permutation, "points"))


def _checked_pairs(points, permutation, name: str):
    """(points, pairs) as ``_pair_distances`` takes them, for one batch of
    ``points`` (called ``name`` in errors) and its permutation, checked."""
    points = check_array(points, name)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise UsageError(f"{name} must be a non-empty (n, d) array, got shape {points.shape}")
    n = points.shape[0]
    perm = check_array(permutation, "permutation", finite=False)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise UsageError("permutation must be a permutation of range(n)")
    return points, perm[None].astype(np.int64)


def _pair_distances(points: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """normalized_distances of each batch of a block, flattened: float64
    points (B * n, d) stacking B batches of n rows, and ``pairs`` (B, n),
    each row's partner as a row of the block. Bit-equal batch by batch."""
    count, n = pairs.shape
    diffs = points[pairs.ravel()]
    np.subtract(points, diffs, out=diffs)  # points - partners, without another array
    raw = np.einsum("ij,ij->i", diffs, diffs).reshape(count, n)
    means = np.add.reduce(raw, axis=1, keepdims=True) / n  # each batch's raw.mean(), bit for bit
    # every batch regular; the points are finite, so a mean is finite or +inf, never NaN
    if _DEGENERATE_MEAN <= min(listed := means.ravel().tolist()) and max(listed) < math.inf:
        return (raw / means).ravel()
    dists = np.ones_like(raw)  # a degenerate batch, where all pairs coincide, keeps its ones
    for b, mean in enumerate(listed):
        if math.isinf(mean):
            # squares of the points overflowed; the result is scale-free, so rescale exactly
            rows = points[b * n : (b + 1) * n]
            _, exponent = np.frexp(np.abs(rows).max())
            dists[b] = _pair_distances(np.ldexp(rows, -int(exponent)), pairs[b : b + 1] - b * n)
        elif mean >= _DEGENERATE_MEAN:
            dists[b] = raw[b] / mean
    return dists.ravel()


def _distances_to_taus(dists: np.ndarray, config: KernelConfig) -> np.ndarray:
    """exp((d - 1) / (2 std^2)) / tau_max per distance, clamped to the shape range.

    The distances are unchecked: those of finite features are finite and >= 0.
    One math.exp per element: np.exp differs from it in the last bit on a few
    percent of arguments, which would change every trained checkpoint.
    """
    scale = 2.0 * config.tau_std**2
    # past arg = 700 exp would overflow; the clamp saturates there anyway
    taus = [
        SHAPE_MAX if (arg := (d - 1.0) / scale) > 700.0 else math.exp(arg) / config.tau_max
        for d in dists.tolist()
    ]
    return np.clip(np.array(taus, dtype=np.float64), SHAPE_MIN, SHAPE_MAX)


def batch_taus(features, permutation, config: KernelConfig) -> np.ndarray:
    """Per-sample warp strengths (float64) for a batch of feature vectors,
    checked as ``normalized_distances`` checks its points and permutation."""
    return _distances_to_taus(_pair_distances(*_checked_pairs(features, permutation, "features")), config)


def _batch_taus(features: np.ndarray, pairs: np.ndarray, config: KernelConfig) -> np.ndarray:
    """batch_taus of each batch of a block, flattened, for float64 features
    and partner rows as ``_pair_distances`` takes them, unchecked."""
    return _distances_to_taus(_pair_distances(features, pairs), config)


def extract_features(batch, backend: str, model=None) -> np.ndarray:
    """Feature vectors used for pair distances, per backend.

    raw_input: the batch inputs as-is.
    embedding: penultimate-layer activations of ``model`` at its current
        parameters (no dropout, no gradients).
    class_weight: the final-layer weight column of each sample's label class,
        so two samples are close when their classes look alike to the model.
    label: the regression targets themselves.

    Non-finite features from the model mean it has diverged: DivergenceError.
    """
    if backend not in FEATURE_BACKENDS:
        raise UsageError(f"backend must be one of {FEATURE_BACKENDS}, got {backend!r}")
    if backend == "raw_input":
        return np.asarray(batch.inputs, dtype=np.float64)
    if backend == "label":
        if batch.num_classes is not None:
            raise UsageError("the label backend measures target distances and is regression-only")
        return np.asarray(batch.targets, dtype=np.float64)[:, None]
    # Both remaining backends need a live model.
    if model is None:
        raise UsageError(f"the {backend!r} backend requires a model")
    if backend == "embedding":
        features = model_module.embed(model, batch.inputs)
    else:  # class_weight
        if batch.num_classes is None:
            raise UsageError("the class_weight backend requires classification targets")
        features = model.layers[-1].weights[:, np.asarray(batch.targets)].T
    if not np.isfinite(features).all():
        raise DivergenceError(f"the model's {backend!r} features are not finite")
    return features
