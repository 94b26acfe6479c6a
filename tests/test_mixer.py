"""Tests for batch mixing: permutations, coefficient plans, variant
identities, and the mixed training loss.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

import warpmix.mixer as mixer_module
import warpmix.model as model_module
import warpmix.warping as warping_module
from warpmix import (
    MIX_MODES,
    Batch,
    KernelConfig,
    MixupConfig,
    RngStream,
    UsageError,
    batch_taus,
    embed,
    init_mlp,
    mix_batch,
    mixed_loss,
    warp_pairwise,
)

from _support import ks_statistic
from reference_metrics import ref_weighted_ce


def kernel_pair(tau_max=2.0, tau_std=1.0, in_backend="raw_input", out_backend="label"):
    return (
        KernelConfig(tau_max=tau_max, tau_std=tau_std, backend=in_backend),
        KernelConfig(tau_max=tau_max, tau_std=tau_std, backend=out_backend),
    )


def regression_batch(n=16, d=3, seed=0):
    rng = RngStream(seed)
    return Batch(inputs=rng.standard_normal((n, d)), targets=rng.standard_normal(n))


# ------------------------------------------------------------- validation


def test_batch_validation():
    with pytest.raises(UsageError):
        Batch(inputs=np.zeros((0, 2)), targets=np.zeros(0))
    with pytest.raises(UsageError):
        Batch(inputs=np.zeros((3, 2)), targets=np.zeros(2))
    with pytest.raises(UsageError):
        Batch(inputs=np.zeros((2, 2)), targets=np.array([0, 2]), num_classes=2)
    with pytest.raises(UsageError):
        Batch(inputs=np.zeros((2, 2)), targets=np.array([0, 1]), num_classes=1)
    b = Batch(inputs=np.array([1.0, 2.0]), targets=np.array([0.0, 1.0]))
    assert b.inputs.shape == (2, 1)  # 1-d inputs become a column
    # non-finite values fail at the edge, naming the first bad row, before any mode sees them
    inputs = np.zeros((4, 2))
    inputs[2, 1] = np.nan
    with pytest.raises(UsageError, match="^inputs must be finite, got nan at row 2$"):
        Batch(inputs=inputs, targets=np.array([0.0, math.inf, 0.0, 0.0]))
    with pytest.raises(UsageError, match="^targets must be finite, got inf at row 1$"):
        Batch(inputs=np.zeros((4, 2)), targets=np.array([0.0, math.inf, 0.0, -math.inf]))
    with pytest.raises(UsageError, match="^inputs must be finite, got -inf at row 0$"):
        Batch(inputs=np.array([[-math.inf], [1.0]]), targets=np.array([0, 1]), num_classes=2)


@pytest.mark.parametrize("num_classes", [None, 2], ids=["regression", "classification"])
@pytest.mark.parametrize("shape", [(4, 2), (4, 1), ()])
def test_batch_rejects_targets_that_are_not_a_vector(num_classes, shape):
    with pytest.raises(UsageError, match="targets must be a vector"):
        Batch(inputs=np.zeros((4, 3)), targets=np.zeros(shape, dtype=np.int64), num_classes=num_classes)


def test_mixup_config_validation():
    with pytest.raises(UsageError, match="alpha must be a finite number > 0"):
        MixupConfig(alpha=0.0, mode="vanilla")
    with pytest.raises(UsageError, match="alpha must be a finite number > 0"):
        MixupConfig(alpha=-1.0, mode="vanilla")
    with pytest.raises(UsageError):
        MixupConfig(alpha=1.0, mode="sideways")
    with pytest.raises(UsageError):
        MixupConfig(alpha=1.0, mode="kernel_warped")  # kernels missing
    ik, ok = kernel_pair()
    MixupConfig(alpha=1.0, mode="kernel_warped", input_kernel=ik, output_kernel=ok)


# ------------------------------------------------------- the permutation


def test_permutation_basics():
    cfg = MixupConfig(alpha=0.5, mode="vanilla")
    assert list(mix_batch(regression_batch(n=1), cfg, RngStream(0)).plan.permutation) == [0]
    batch = regression_batch(n=10)
    a = mix_batch(batch, cfg, RngStream(42)).plan.permutation
    b = mix_batch(batch, cfg, RngStream(42)).plan.permutation
    assert np.array_equal(a, b)
    assert sorted(a) == list(range(10))


def test_permutation_uniform_over_s3():
    counts = {p: 0 for p in itertools.permutations(range(3))}
    cfg = MixupConfig(alpha=0.5, mode="vanilla")
    batch = regression_batch(n=3)
    stream = RngStream(777)
    draws = 60_000
    for _ in range(draws):
        counts[tuple(mix_batch(batch, cfg, stream).plan.permutation)] += 1
    for p, c in counts.items():
        assert abs(c / draws - 1.0 / 6.0) < 0.01, (p, c)


# --------------------------------------------------------------- mix_batch


def assert_constant_taus(plan, n, input_tau, target_tau):
    for taus, tau in ((plan.input_taus, input_tau), (plan.target_taus, target_tau)):
        assert isinstance(taus, np.ndarray) and taus.dtype == np.float64
        assert np.array_equal(taus, np.full(n, tau))


def test_off_mode_returns_batch_unchanged():
    batch = regression_batch(seed=1)
    stream = RngStream(9)
    mixed = mix_batch(batch, MixupConfig(alpha=1.0, mode="off"), stream)
    assert mixed.inputs is batch.inputs  # no copy, bit-exact
    assert np.array_equal(mixed.plan.permutation, np.arange(batch.size))
    assert np.array_equal(mixed.plan.input_coeffs, np.ones(batch.size))
    assert np.array_equal(mixed.mixed_targets, batch.targets)
    assert_constant_taus(mixed.plan, batch.size, 1.0, 1.0)
    # and no randomness was consumed
    assert stream.uniform() == RngStream(9).uniform()


def test_equal_pair_is_fixed_point():
    # c*v + (1-c)*v can land one ulp off v, so compare at rounding level
    x = np.tile([[2.0, -1.0, 0.5]], (8, 1))
    batch = Batch(inputs=x, targets=np.full(8, 3.0))
    mixed = mix_batch(batch, MixupConfig(alpha=0.5, mode="vanilla"), RngStream(4))
    assert_constant_taus(mixed.plan, 8, 1.0, 1.0)
    assert np.allclose(mixed.inputs, x, rtol=1e-15, atol=0.0)
    assert np.allclose(mixed.mixed_targets, batch.targets, rtol=1e-15, atol=0.0)


def test_convex_combination_arithmetic():
    # coefficient 0.25 between (0,0) and (2,4) lands at (1.5, 3.0)
    c = 0.25
    lo = np.array([0.0, 0.0])
    hi = np.array([2.0, 4.0])
    assert np.array_equal(c * lo + (1.0 - c) * hi, [1.5, 3.0])
    # and the emitted inputs follow exactly that formula, per the plan
    batch = regression_batch(n=32, seed=7)
    ik, ok = kernel_pair()
    cfg = MixupConfig(alpha=0.3, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    mixed = mix_batch(batch, cfg, RngStream(21))
    plan = mixed.plan
    for i in range(batch.size):
        ci = plan.input_coeffs[i]
        want = ci * batch.inputs[i] + (1.0 - ci) * batch.inputs[plan.permutation[i]]
        assert np.array_equal(mixed.inputs[i], want)


def test_plan_internal_consistency():
    # each distinct side is warped once, all in one call; each side is what the public warp
    # gives for it alone, and each lane what it gives for that lane alone
    batch = regression_batch(n=24, seed=3)
    model = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(4))
    embedding = KernelConfig(tau_max=3.0, tau_std=0.8, backend="embedding")
    raw_input = KernelConfig(tau_max=3.0, tau_std=0.8, backend="raw_input")
    kernel_pairs = [kernel_pair(tau_max=3.0, tau_std=0.8), (embedding, embedding), (raw_input, raw_input)]
    for (ik, ok), mode, per_batch in itertools.product(kernel_pairs, MIX_MODES, (False, True)):
        cfg = MixupConfig(alpha=0.7, mode=mode, input_kernel=ik, output_kernel=ok, per_batch_coeff=per_batch)
        plan = mix_batch(batch, cfg, RngStream(15), model=model).plan
        assert np.array_equal(plan.input_coeffs, warp_pairwise(plan.raw_coeffs, plan.input_taus)), mode
        assert np.array_equal(plan.target_coeffs, warp_pairwise(plan.raw_coeffs, plan.target_taus)), mode
        if mode == "kernel_warped" and ik == ok:
            assert np.array_equal(plan.input_taus, plan.target_taus)
            assert np.array_equal(plan.input_coeffs, plan.target_coeffs)
        for i in range(batch.size):
            lane = plan.raw_coeffs[i : i + 1]
            assert plan.input_coeffs[i] == warp_pairwise(lane, plan.input_taus[i : i + 1])[0]
            assert plan.target_coeffs[i] == warp_pairwise(lane, plan.target_taus[i : i + 1])[0]
            assert 0.0 <= plan.input_coeffs[i] <= 1.0
            assert 0.0 <= plan.target_coeffs[i] <= 1.0


def test_incomplete_beta_lanes_per_distinct_side(monkeypatch):
    # equal sides share their lanes: n lanes when both sides are equal, 2n otherwise
    lanes = []

    def recorded(x, a):
        lanes.append(np.asarray(x).size)
        return incomplete_beta_reg(x, a)

    incomplete_beta_reg = warping_module.incomplete_beta_reg
    monkeypatch.setattr(warping_module, "incomplete_beta_reg", recorded)
    n = 16
    model = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(2))

    def embedding():  # a new object each time: sides are equal by value, not by identity
        return KernelConfig(tau_max=2.0, tau_std=1.0, backend="embedding")

    raw_input = KernelConfig(tau_max=2.0, tau_std=1.0, backend="raw_input")
    label = KernelConfig(tau_max=0.5, tau_std=2.0, backend="label")
    ik, ok = kernel_pair()
    cases = [
        (MixupConfig(mode="kernel_warped", input_kernel=embedding(), output_kernel=embedding()), n),
        (MixupConfig(mode="kernel_warped", input_kernel=raw_input, output_kernel=raw_input), n),
        (MixupConfig(mode="vanilla"), n),
        (MixupConfig(mode="kernel_warped", input_kernel=raw_input, output_kernel=label), 2 * n),
        (MixupConfig(mode="kernel_warped", input_kernel=ik, output_kernel=ok), 2 * n),
    ]
    for cfg, expected in cases:
        lanes.clear()
        mix_batch(regression_batch(n=n, seed=9), cfg, RngStream(3), model=model)
        assert lanes == [expected], cfg


def assert_mixed_equal(got, want):
    """Two MixedBatches hold the same bytes, plan included."""
    for name in ("inputs", "targets_a", "targets_b", "target_coeffs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("permutation", "raw_coeffs", "input_taus", "target_taus", "input_coeffs", "target_coeffs"):
        assert getattr(got.plan, name).tobytes() == getattr(want.plan, name).tobytes(), name
    assert got.num_classes == want.num_classes


def epoch_of(rows, batch_size, cfg, rng):
    """An epoch's mixing of ``rows``, its steps drawing from ``rng`` as training's do."""
    return mixer_module._Epoch(rows, batch_size, rng, cfg)


@pytest.mark.parametrize("per_batch", [False, True])
@pytest.mark.parametrize("mode", MIX_MODES)
def test_block_mix_equals_one_mix_batch_per_batch(mode, per_batch):
    # training mixes an epoch's full batches as one block, then a short last batch:
    # each step's share is the same bytes as mix_batch on its batch, from the same stream
    ik, ok = kernel_pair(tau_max=1e-4, tau_std=1.5)
    cfg = MixupConfig(alpha=0.5, mode=mode, input_kernel=ik, output_kernel=ok, per_batch_coeff=per_batch)
    rows = regression_batch(n=7 * 16 + 5, d=5, seed=11)
    sizes = [16] * 7 + [5]
    drawn, replayed, blocked = RngStream(12), RngStream(12), RngStream(12)
    epoch = epoch_of(rows, 16, cfg, drawn)
    perm, raw = map(np.concatenate, zip(*(mixer_module._draw(cfg, blocked, 16) for _ in range(7))))
    block = mixer_module._mix_block(mixer_module._batch(rows.inputs[:112], rows.targets[:112]),
                                    perm, raw, cfg, count=7)
    for step, size in enumerate(sizes):
        lanes = slice(16 * step, 16 * step + size)
        want = mix_batch(Batch(rows.inputs[lanes], rows.targets[lanes]), cfg, replayed)
        assert_mixed_equal(mixer_module._mix_step(epoch, step), want)
        if step < 7:  # the block's rows and lanes, one batch at a time
            assert block.inputs[lanes].tobytes() == want.inputs.tobytes()
            for name, values in vars(block.plan).items():
                assert values[lanes].tobytes() == getattr(want.plan, name).tobytes(), name
    assert drawn.uniform() == replayed.uniform()


@pytest.mark.parametrize("backend", ["raw_input", "embedding"])
def test_epoch_steps_equal_one_mix_batch_per_batch(backend):
    # an epoch with a short last batch; embedding strengths are mixed per step,
    # against the model as it is at that step
    ik, ok = kernel_pair(tau_max=0.5, tau_std=1.0, in_backend=backend,
                         out_backend="label" if backend == "raw_input" else backend)
    cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    rows = regression_batch(n=5 * 16 + 3, d=3, seed=13)
    model = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(14))
    drawn, replayed = RngStream(15), RngStream(15)
    sizes = [16] * 5 + [3]
    epoch = epoch_of(rows, 16, cfg, drawn)
    for step, size in enumerate(sizes):
        start = 16 * step
        batch = Batch(rows.inputs[start : start + size], rows.targets[start : start + size])
        got = mixer_module._mix_step(epoch, step, model)
        assert_mixed_equal(got, mix_batch(batch, cfg, replayed, model))
        features = {"raw_input": batch.inputs, "label": batch.targets, "embedding": embed(model, batch.inputs)}
        for taus, kernel in ((got.plan.input_taus, ik), (got.plan.target_taus, ok)):
            assert taus.tobytes() == batch_taus(features[kernel.backend], got.plan.permutation, kernel).tobytes()
        model.params += 0.25  # the next step sees another model


def test_plan_sides_never_share_memory():
    batch = regression_batch(n=12, seed=2)
    raw_input = KernelConfig(tau_max=2.0, tau_std=1.0, backend="raw_input")
    for (ik, ok), mode in itertools.product([kernel_pair(), (raw_input, raw_input)], MIX_MODES):
        cfg = MixupConfig(alpha=0.5, mode=mode, input_kernel=ik, output_kernel=ok)
        plan = mix_batch(batch, cfg, RngStream(8)).plan
        for first, second in ((plan.input_coeffs, plan.target_coeffs), (plan.input_taus, plan.target_taus)):
            assert first.shape == second.shape == (batch.size,) and first.dtype == np.float64
            assert not np.shares_memory(first, second), mode
            kept = second.copy()
            first[:] = -1.0
            assert np.array_equal(second, kept), mode


def test_kernel_warped_taus_equal_public_batch_taus():
    # the step skips batch_taus's input checks, not any of its arithmetic
    pairs = [("raw_input", "label"), ("label", "raw_input"),
             ("embedding", "embedding"), ("embedding", "class_weight")]
    for seed, (in_backend, out_backend) in enumerate(pairs):
        if out_backend == "class_weight":
            labels = RngStream(seed).integers(0, 3, size=24)
            batch = Batch(inputs=regression_batch(n=24, d=4, seed=seed).inputs, targets=labels, num_classes=3)
        else:
            batch = regression_batch(n=24, d=4, seed=seed)
        model = init_mlp([4, 8, 3], dropout_rate=0.2, rng=RngStream(60 + seed))
        ik, ok = kernel_pair(tau_max=0.3, tau_std=0.7, in_backend=in_backend, out_backend=out_backend)
        cfg = MixupConfig(alpha=0.7, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
        plan = mix_batch(batch, cfg, RngStream(40 + seed), model=model).plan
        features = {"raw_input": batch.inputs, "label": batch.targets, "embedding": embed(model, batch.inputs)}
        if batch.num_classes is not None:
            features["class_weight"] = model.layers[-1].weights[:, batch.targets].T
        assert np.array_equal(plan.input_taus, batch_taus(features[in_backend], plan.permutation, ik))
        assert np.array_equal(plan.target_taus, batch_taus(features[out_backend], plan.permutation, ok))


def test_one_warp_call_and_one_embedding_per_mix(monkeypatch):
    calls = {"warp": 0, "incbeta": 0, "embed": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mixer_module, "warp_pairwise", counted("warp", mixer_module.warp_pairwise))
    monkeypatch.setattr(warping_module, "incomplete_beta_reg",
                        counted("incbeta", warping_module.incomplete_beta_reg))
    monkeypatch.setattr(model_module, "embed", counted("embed", model_module.embed))
    embedding = KernelConfig(tau_max=2.0, tau_std=1.0, backend="embedding")
    cfg = MixupConfig(alpha=1.0, mode="kernel_warped", input_kernel=embedding, output_kernel=embedding)
    model = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(2))
    mix_batch(regression_batch(n=16, seed=9), cfg, RngStream(3), model=model)
    assert calls == {"warp": 1, "incbeta": 1, "embed": 1}
    # a mode with both a finite and an infinite side still makes one call of each
    mix_batch(regression_batch(n=16, seed=9), MixupConfig(alpha=1.0, mode="input_only"), RngStream(3))
    assert calls == {"warp": 2, "incbeta": 2, "embed": 1}


def test_mixed_inputs_stay_in_segment():
    for seed in range(5):
        batch = regression_batch(n=20, d=4, seed=seed)
        ik, ok = kernel_pair(tau_max=1.5, tau_std=0.5)
        cfg = MixupConfig(alpha=0.4, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
        mixed = mix_batch(batch, cfg, RngStream(100 + seed))
        perm = mixed.plan.permutation
        lo = np.minimum(batch.inputs, batch.inputs[perm])
        hi = np.maximum(batch.inputs, batch.inputs[perm])
        assert np.all(mixed.inputs >= lo - 1e-12)
        assert np.all(mixed.inputs <= hi + 1e-12)


def test_determinism_per_seed():
    batch = regression_batch(n=10, seed=5)
    ik, ok = kernel_pair()
    cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    m1 = mix_batch(batch, cfg, RngStream(64))
    m2 = mix_batch(batch, cfg, RngStream(64))
    assert np.array_equal(m1.inputs, m2.inputs)
    assert np.array_equal(m1.plan.raw_coeffs, m2.plan.raw_coeffs)
    assert np.array_equal(m1.plan.permutation, m2.plan.permutation)


def test_vanilla_equals_kernel_mode_at_identity_strength():
    """With n=2 every pair distance normalizes to exactly 1, so a kernel
    with tau_max=1 returns strength exactly 1 and must reproduce vanilla
    bit for bit (same rng consumption, same arithmetic)."""
    batch = Batch(inputs=np.array([[0.0, 1.0], [2.0, -3.0]]), targets=np.array([1.0, 4.0]))
    ik, ok = kernel_pair(tau_max=1.0, tau_std=1.0)
    warped_cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    vanilla_cfg = MixupConfig(alpha=0.5, mode="vanilla")
    for seed in range(20):
        a = mix_batch(batch, warped_cfg, RngStream(seed))
        b = mix_batch(batch, vanilla_cfg, RngStream(seed))
        assert_constant_taus(a.plan, 2, 1.0, 1.0)
        assert_constant_taus(b.plan, 2, 1.0, 1.0)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.plan.input_coeffs, b.plan.input_coeffs)
        assert np.array_equal(a.target_coeffs, b.target_coeffs)


def endpoint_share(tau_max, tau_std):
    """Share of pairs mixed with kernel_warped (alpha 1/2, raw_input and label
    kernels) whose input and target coefficients both lie within 1e-3 of the
    same endpoint: to that tolerance, one original example with its own target.
    The rows come from airfoil-shaped regression data (a smooth function of 5
    gaussian features), 16 at a time, in 400 seeded batches."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1503, 5))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] + 0.2 * x[:, 0] ** 2 + 0.05 * rng.standard_normal(1503)
    ik, ok = kernel_pair(tau_max=tau_max, tau_std=tau_std)
    cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    stream = RngStream(0)
    hits = 0
    for _ in range(400):
        rows = rng.choice(x.shape[0], 16, replace=False)
        plan = mix_batch(Batch(inputs=x[rows], targets=y[rows]), cfg, stream).plan
        low = (plan.input_coeffs < 1e-3) & (plan.target_coeffs < 1e-3)
        high = (plan.input_coeffs > 1.0 - 1e-3) & (plan.target_coeffs > 1.0 - 1e-3)
        hits += np.count_nonzero(low | high)
    return hits / (16 * 400)


def test_kernel_setting_pins_the_mixing_regime():
    # at the acceptance criteria's kernels (tau_max 1e-4, tau_std 1.5) almost
    # every pair is an original example with its own target, so training is
    # close to ERM on re-drawn pairs; at the config default (1, 1) almost none is
    # (measured: 0.987 and 0.031)
    assert endpoint_share(1e-4, 1.5) > 0.9
    assert endpoint_share(1.0, 1.0) < 0.1


def test_input_only_variant_snaps_targets():
    batch = regression_batch(n=64, seed=2)
    cfg = MixupConfig(alpha=0.5, mode="input_only")
    mixed = mix_batch(batch, cfg, RngStream(31))
    assert_constant_taus(mixed.plan, 64, 1.0, math.inf)
    # inputs use the raw coefficients unchanged
    assert np.array_equal(mixed.plan.input_coeffs, mixed.plan.raw_coeffs)
    # target weights collapse to one endpoint of each pair
    assert set(np.unique(mixed.target_coeffs)) <= {0.0, 1.0}
    materialized = mixed.mixed_targets
    perm = mixed.plan.permutation
    for i in range(batch.size):
        assert materialized[i] in (batch.targets[i], batch.targets[perm[i]])


def test_target_only_variant_leaves_inputs_unmixed():
    batch = regression_batch(n=64, seed=12)
    cfg = MixupConfig(alpha=0.5, mode="target_only")
    mixed = mix_batch(batch, cfg, RngStream(77))
    assert_constant_taus(mixed.plan, 64, math.inf, 1.0)
    assert set(np.unique(mixed.plan.input_coeffs)) <= {0.0, 1.0}
    perm = mixed.plan.permutation
    for i in range(batch.size):
        row = mixed.inputs[i]
        assert np.array_equal(row, batch.inputs[i]) or np.array_equal(row, batch.inputs[perm[i]])
    assert np.array_equal(mixed.target_coeffs, mixed.plan.raw_coeffs)


def test_coefficient_symmetry_of_the_combination():
    # swapping the pair and flipping the coefficient gives the same point
    rng = RngStream(50)
    x = rng.standard_normal((2, 6))
    for lam in (0.1, 0.37, 0.5, 0.93):
        direct = lam * x[0] + (1.0 - lam) * x[1]
        flipped = (1.0 - lam) * x[1] + lam * x[0]
        assert np.allclose(direct, flipped, atol=0.0)


def test_vanilla_coefficients_follow_beta():
    alpha = 0.5
    cfg = MixupConfig(alpha=alpha, mode="vanilla")
    stream = RngStream(8_888)
    batch = regression_batch(n=500, seed=0)
    coeffs = np.concatenate(
        [mix_batch(batch, cfg, stream).plan.input_coeffs for _ in range(200)]
    )
    stat = ks_statistic(coeffs, lambda x: scipy.stats.beta.cdf(x, alpha, alpha))
    assert stat < 0.01, stat


def test_kernel_warped_coefficients_follow_the_warped_beta_law():
    # The warp I_lam(tau, tau) increases in lam, so for lam ~ Beta(alpha, alpha) a pool of
    # one strength tau has P(I_lam(tau, tau) <= I_x(tau, tau)) = P(lam <= x) = I_x(alpha, alpha).
    # Three clusters of points give pairs four squared distances, so each side's strengths
    # fall into four pools; the thresholds x sit inside each pool's warp transition, within
    # +-1.2 sd of 1/2 under Beta(tau, tau). The bound is a two-sided binomial test at 1%,
    # Bonferroni-corrected for the pools and their thresholds together.
    alpha, n, z = 0.7, 24_000, np.array([-1.2, -0.4, 0.4, 1.2])
    points = np.repeat([0.0, 1.0, 3.0], n // 3)
    batch = Batch(inputs=points[:, None], targets=2.0 * points)
    kernels = (KernelConfig(tau_max=1.0, tau_std=0.6), KernelConfig(tau_max=0.5, tau_std=0.8, backend="label"))
    cfg = MixupConfig(alpha=alpha, mode="kernel_warped", input_kernel=kernels[0], output_kernel=kernels[1])
    plan = mix_batch(batch, cfg, RngStream(2026)).plan
    tests = []
    for features, kernel, coeffs in ((batch.inputs, kernels[0], plan.input_coeffs),
                                     (batch.targets, kernels[1], plan.target_coeffs)):
        taus = batch_taus(features, plan.permutation, kernel)
        pools = np.unique(taus)
        assert len(pools) == 4 and pools.min() < 1.0 < pools.max(), pools
        for tau in pools:
            pool = coeffs[taus == tau]
            xs = 0.5 + z / (2.0 * math.sqrt(2.0 * tau + 1.0))  # Beta(tau, tau)'s sd
            for x in xs:
                hits = int(np.count_nonzero(pool <= scipy.special.betainc(tau, tau, x)))
                p = scipy.special.betainc(alpha, alpha, x)
                tests.append((tau, x, hits, pool.size, scipy.stats.binomtest(hits, pool.size, p).pvalue))
    worst = min(tests, key=lambda t: t[-1])
    assert worst[-1] > 0.01 / len(tests), worst


def test_per_batch_coefficient_shares_one_draw():
    ik, ok = kernel_pair()
    cfg = MixupConfig(
        alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok, per_batch_coeff=True
    )
    used = RngStream(14)
    mixed = mix_batch(regression_batch(n=32, seed=6), cfg, used)
    assert np.unique(mixed.plan.raw_coeffs).size == 1
    # warped values may still differ per sample through per-pair strengths
    assert mixed.plan.raw_coeffs[0] == mixed.plan.raw_coeffs[-1]
    # one scalar draw after the permutation, and nothing more
    stream = RngStream(14)
    stream.permutation(32)
    assert mixed.plan.raw_coeffs[0] == stream.beta(0.5, 0.5)
    assert used.uniform() == stream.uniform()


def test_raw_coefficients_are_one_draw_after_the_permutation():
    # the documented order: the permutation, then all n raw coefficients in one draw
    ik, ok = kernel_pair()
    for mode in ("vanilla", "kernel_warped", "input_only"):
        cfg = MixupConfig(alpha=0.5, mode=mode, input_kernel=ik, output_kernel=ok)
        plan = mix_batch(regression_batch(n=16, seed=4), cfg, RngStream(21)).plan
        stream = RngStream(21)
        assert np.array_equal(plan.permutation, stream.permutation(16))
        assert np.array_equal(plan.raw_coeffs, stream.beta(0.5, 0.5, 16))


def test_size_one_batch_mixes_with_itself():
    batch = Batch(inputs=np.array([[1.0, 2.0]]), targets=np.array([5.0]))
    ik, ok = kernel_pair()
    cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    mixed = mix_batch(batch, cfg, RngStream(1))
    assert np.array_equal(mixed.inputs, batch.inputs)
    assert mixed.mixed_targets[0] == 5.0


def test_embedding_backend_requires_model_through_mix():
    batch = Batch(inputs=np.zeros((4, 3)), targets=np.array([0, 1, 0, 1]), num_classes=2)
    ik = KernelConfig(tau_max=1.0, tau_std=1.0, backend="embedding")
    ok = KernelConfig(tau_max=1.0, tau_std=1.0, backend="class_weight")
    cfg = MixupConfig(alpha=0.5, mode="kernel_warped", input_kernel=ik, output_kernel=ok)
    with pytest.raises(UsageError):
        mix_batch(batch, cfg, RngStream(0))
    model = init_mlp([3, 6, 2], dropout_rate=0.0, rng=RngStream(3))
    mixed = mix_batch(batch, cfg, RngStream(0), model=model)
    assert mixed.inputs.shape == (4, 3)


# -------------------------------------------------------------- mixed_loss


def test_loss_with_unit_coefficients_is_plain_loss():
    batch = regression_batch(n=8, seed=20)
    mixed = mix_batch(batch, MixupConfig(alpha=1.0, mode="off"), RngStream(0))
    preds = RngStream(33).standard_normal(8)
    plain_mse = float(np.mean((preds - batch.targets) ** 2))
    loss, _ = mixed_loss(preds[:, None], mixed)
    assert loss == pytest.approx(plain_mse, rel=1e-15)


def test_half_half_loss_is_log_two():
    batch = Batch(
        inputs=np.zeros((2, 2)), targets=np.array([0, 1]), num_classes=2
    )
    cfg = MixupConfig(alpha=1.0, mode="vanilla")
    # redraw until the random plan gives a cross pair, then force c=0.5
    mixed = None
    for seed in range(100):
        cand = mix_batch(batch, cfg, RngStream(seed))
        if np.array_equal(cand.plan.permutation, [1, 0]):
            mixed = cand
            break
    assert mixed is not None
    mixed.target_coeffs = np.array([0.5, 0.5])
    loss, _ = mixed_loss(np.zeros((2, 2)), mixed)  # zero logits: p = (0.5, 0.5)
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_perfect_regression_prediction_gives_zero_loss():
    batch = regression_batch(n=16, seed=40)
    cfg = MixupConfig(alpha=0.5, mode="vanilla")
    mixed = mix_batch(batch, cfg, RngStream(3))
    loss, grad = mixed_loss(mixed.mixed_targets[:, None], mixed)
    assert loss == 0.0
    assert grad.shape == (16, 1) and not grad.any()


def test_classification_loss_matches_bruteforce():
    rng = np.random.default_rng(60)
    for trial in range(20):
        n, c = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=n)
        batch = Batch(inputs=rng.standard_normal((n, 3)), targets=labels, num_classes=c)
        cfg = MixupConfig(alpha=0.7, mode="vanilla")
        mixed = mix_batch(batch, cfg, RngStream(trial))
        raw = rng.random((n, c)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        got, _ = mixed_loss(np.log(probs), mixed)
        want = ref_weighted_ce(
            probs.tolist(),
            list(mixed.targets_a),
            list(mixed.targets_b),
            list(mixed.target_coeffs),
        )
        assert abs(got - want) <= 1e-12, trial


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_mixed_loss_gradient_matches_central_differences(task):
    # the analytic gradient against (L(o + h e_ij) - L(o - h e_ij)) / 2h for every
    # output; the bound covers the O(h^2) truncation and the O(eps / h) rounding
    h, bound = 1e-5, 1e-8
    rng = np.random.default_rng(70)
    for trial in range(6):
        n, d = int(rng.integers(2, 10)), 3
        classes = int(rng.integers(2, 5)) if task == "classification" else None
        targets = rng.integers(0, classes, size=n) if classes else rng.standard_normal(n)
        batch = Batch(inputs=rng.standard_normal((n, d)), targets=targets, num_classes=classes)
        cfg = MixupConfig(alpha=0.4, mode="vanilla", per_batch_coeff=trial % 2 == 1)
        mixed = mix_batch(batch, cfg, RngStream(trial))
        outputs = 3.0 * rng.standard_normal((n, classes or 1))
        _, grad = mixed_loss(outputs, mixed)
        numeric = np.zeros_like(outputs)
        for idx in np.ndindex(outputs.shape):
            step = np.zeros_like(outputs)
            step[idx] = h
            numeric[idx] = (mixed_loss(outputs + step, mixed)[0] - mixed_loss(outputs - step, mixed)[0]) / (2 * h)
        assert np.max(np.abs(grad - numeric)) <= bound, trial


def test_loss_shape_and_task_errors():
    batch = regression_batch(n=4, seed=0)
    mixed = mix_batch(batch, MixupConfig(alpha=1.0, mode="vanilla"), RngStream(0))
    with pytest.raises(UsageError):
        mixed_loss(np.zeros(3), mixed)
    with pytest.raises(UsageError):
        mixed_loss(np.zeros(4), mixed)  # regression outputs are (n, 1), as forward returns them
    with pytest.raises(UsageError):
        mixed_loss(np.zeros((4, 2)), mixed)  # classification logits on a regression batch
    labels = Batch(inputs=np.zeros((4, 2)), targets=np.array([0, 1, 2, 0]), num_classes=3)
    mixed = mix_batch(labels, MixupConfig(alpha=1.0, mode="vanilla"), RngStream(0))
    for shape in ((4, 1), (4, 2), (4, 4), (3, 3), (4,)):
        with pytest.raises(UsageError):
            mixed_loss(np.zeros(shape), mixed)
