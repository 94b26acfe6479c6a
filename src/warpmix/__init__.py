"""Similarity-warped mixup: warped interpolation coefficients, calibration
metrics, and a small reproducible training harness."""

from .errors import (
    DatasetError,
    DivergenceError,
    DomainError,
    NonConvergenceError,
    UsageError,
    WarpmixError,
)
from .rng import RngStream
from .special import SHAPE_MAX, SHAPE_MIN, beta_sample
from .warping import warp_pairwise
from .similarity import (
    FEATURE_BACKENDS,
    KernelConfig,
    batch_taus,
    extract_features,
    normalized_distances,
)
from .mixer import (
    MIX_MODES,
    Batch,
    MixedBatch,
    MixPlan,
    MixupConfig,
    mix_batch,
    mixed_loss,
)
from .metrics import (
    bin_stats,
    log_softmax,
    metrics_from_payload,
    softmax,
    temperature_scale,
)
from .model import (
    Layer,
    ModelState,
    OptimizerState,
    backward,
    embed,
    forward,
    init_mlp,
    load_model,
    mc_dropout_predict,
    optimizer_step,
    save_model,
)
from .data import Dataset, DataSplits, Normalization, load_csv, split
from .harness import (
    DEFAULT_CONFIG,
    ExperimentConfig,
    ExperimentResult,
    GridResult,
    MetricReport,
    TrainResult,
    evaluate,
    grid_search,
    run_experiment,
    train,
)

__version__ = "0.1.0"
