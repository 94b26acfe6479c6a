"""Tests for batch-normalized pair distances and the distance->strength kernel."""

import math
import warnings

import numpy as np
import pytest

import warpmix.similarity as similarity
from warpmix import (
    Batch,
    DivergenceError,
    KernelConfig,
    RngStream,
    UsageError,
    batch_taus,
    embed,
    extract_features,
    init_mlp,
    normalized_distances,
    warp_pairwise,
)

SHAPE_MIN, SHAPE_MAX = 1e-4, 1e6


# ---------------------------------------------------- normalized_distances


def test_two_point_swap_normalizes_to_one():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    out = normalized_distances(pts, np.array([1, 0]))
    assert np.array_equal(out, [1.0, 1.0])


def test_hand_computed_rotation():
    # scalars 0, 1, 3 rotated one step: squared gaps 1, 4, 9, mean 14/3
    pts = np.array([0.0, 1.0, 3.0])
    out = normalized_distances(pts, np.array([1, 2, 0]))
    assert np.allclose(out, [3.0 / 14.0, 12.0 / 14.0, 27.0 / 14.0], atol=1e-15)


def test_zero_distance_entry():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [0.0, 0.0]])
    perm = np.array([1, 0, 3, 2])  # first two identical, last two distinct
    out = normalized_distances(pts, perm)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] > 0.0 and out[3] > 0.0


def test_degenerate_batch_maps_to_ones():
    pts = np.ones((5, 3)) * 2.5
    out = normalized_distances(pts, np.array([1, 2, 3, 4, 0]))
    assert np.array_equal(out, np.ones(5))


def test_mean_one_property():
    rng = RngStream(88)
    for trial in range(200):
        n = int(rng.integers(2, 257))
        d = int(rng.integers(1, 65))
        pts = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        out = normalized_distances(pts, perm)
        assert np.all(out >= 0.0) and np.all(np.isfinite(out))
        assert abs(out.mean() - 1.0) <= 1e-9, (trial, n, d)


def test_overflowing_squares_rescale_exactly():
    # distances are scale-free and a power-of-two scale is exact in binary
    rng = RngStream(4)
    pts = rng.standard_normal((9, 3))
    perm = rng.permutation(9)
    huge = normalized_distances(pts * 2.0**600, perm)
    assert np.array_equal(huge, normalized_distances(pts, perm))


def test_permutation_equivariance():
    rng = RngStream(3)
    pts = rng.standard_normal((8, 4))
    perm = rng.permutation(8)
    base = normalized_distances(pts, perm)
    relabel = rng.permutation(8)
    inv = np.empty(8, dtype=np.int64)
    inv[relabel] = np.arange(8)
    # pair structure carried through the relabeling
    relabeled = normalized_distances(pts[relabel], inv[perm[relabel]])
    assert np.allclose(relabeled, base[relabel], atol=1e-12)


def test_invalid_permutation_rejected():
    pts = np.zeros((3, 2))
    with pytest.raises(UsageError):
        normalized_distances(pts, np.array([0, 1, 1]))
    with pytest.raises(UsageError):
        normalized_distances(pts, np.array([0, 1]))
    # integral floats count as their integers; any other value is no permutation
    pts = np.array([[0.0], [2.0], [1.0]])
    config = make_config()
    want, want_taus = normalized_distances(pts, [1, 2, 0]), batch_taus(pts, [1, 2, 0], config)
    for perm in ([1.0, 2.0, 0.0], np.array([1.0, 2.0, -0.0]), np.array([1, 2, 0], dtype=np.uint8)):
        assert normalized_distances(pts, perm).tobytes() == want.tobytes()
        assert batch_taus(pts, perm, config).tobytes() == want_taus.tobytes()
    for perm in ([1.0, 2.0, 0.5], [1.5, 2.0, 0.0], [1.0, 2.0, math.nan]):
        for call in (lambda: normalized_distances(pts, perm), lambda: batch_taus(pts, perm, config)):
            with pytest.raises(UsageError, match=r"permutation must be a permutation of range\(n\)"):
                call()
    # strings break the array rule's dtype part before the permutation is looked at
    perm = ["1", "2", "0"]
    for call in (lambda: normalized_distances(pts, perm), lambda: batch_taus(pts, perm, config)):
        with pytest.raises(UsageError, match=r"^permutation must be an array of ints and floats, got dtype <U1$"):
            call()
    with pytest.raises(UsageError, match="permutation must be"):
        normalized_distances(pts[:2], [True, False])


def test_non_finite_point_rejected_naming_its_row():
    # checked before any arithmetic, so numpy warns of nothing; the first bad row is named
    rows = np.arange(10.0).reshape(5, 2)
    rows[1, 1], rows[3, 0], rows[4, 1] = math.inf, -math.inf, math.nan
    cases = [(rows, 1, math.inf)]
    for row, bad in ((1, math.inf), (3, -math.inf), (4, math.nan)):
        alone = np.arange(10.0).reshape(5, 2)
        alone[row, 1] = bad
        cases.append((alone, row, bad))
    for points, row, bad in cases:
        for name, call in (("points", lambda: normalized_distances(points, [1, 2, 3, 4, 0])),
                           ("features", lambda: batch_taus(points, [1, 2, 3, 4, 0], make_config()))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UsageError, match=f"^{name} must be finite, got {bad!r} at row {row}$"):
                    call()


# ------------------------------------------------------ the strength kernel


def make_config(tau_max=2.0, tau_std=1.0, backend="raw_input"):
    return KernelConfig(tau_max=tau_max, tau_std=tau_std, backend=backend)


def taus_at(squared, config):
    """batch_taus of pairs k with integer squared distances ``squared[k]`` (a row of
    that many ones against a zero row), and the pairs' normalized distances,
    which are squared[k] / mean(squared) exactly where that quotient is."""
    squared = np.asarray(squared)
    ones = (np.arange(squared.max()) < squared[:, None]).astype(np.float64)
    points = np.vstack([ones, np.zeros_like(ones)])
    k = squared.size
    perm = np.concatenate([np.arange(k, 2 * k), np.arange(k)])
    return batch_taus(points, perm, config)[:k], normalized_distances(points, perm)[:k]


def test_mean_distance_gives_inverse_amplitude():
    for tau_max, tau_std, want in ((2.0, 1.0, 0.5), (1.0, 1.0, 1.0), (0.25, 17.0, 4.0)):
        taus, dists = taus_at([1, 1], make_config(tau_max=tau_max, tau_std=tau_std))
        assert dists.tolist() == [1.0, 1.0] and taus.tolist() == [want, want]


def test_zero_distance_value():
    taus, dists = taus_at([0, 2], make_config(tau_max=2.0, tau_std=1.0))
    assert dists.tolist() == [0.0, 2.0]
    assert taus[0] == pytest.approx(0.5 * math.exp(-0.5), abs=1e-15)
    assert taus[0] == pytest.approx(0.30327, abs=1e-5)


def test_kernel_monotone_in_distance():
    # 200 coinciding pairs put the batch mean at 4.9, so the rest span 0 to 10
    taus, dists = taus_at([0] * 200 + list(range(50)), make_config(tau_max=2.0, tau_std=1.0))
    assert dists[-1] == 10.0
    assert np.all(np.diff(taus[200:]) > 0.0)


def test_kernel_clamps_to_shape_range():
    # tiny std makes the exponential explode/vanish; output must stay
    # inside the supported shape range
    taus, dists = taus_at([0] * 49 + [50], make_config(tau_max=1.0, tau_std=1e-3))
    assert (dists[0], dists[-1]) == (0.0, 50.0)
    assert (taus[0], taus[-1]) == (SHAPE_MIN, SHAPE_MAX)


def test_kernel_rejects_bad_distances():
    # non-finite features are rejected before any distance is taken
    for bad in (math.nan, math.inf):
        with pytest.raises(UsageError, match=f"^features must be finite, got {bad!r} at row 1$"):
            batch_taus(np.array([[0.0], [bad], [1.0]]), np.array([1, 2, 0]), make_config())


def test_kernel_config_validation():
    with pytest.raises(UsageError, match="tau_max must be a finite number > 0"):
        KernelConfig(tau_max=0.0, tau_std=1.0, backend="raw_input")
    with pytest.raises(UsageError, match="tau_std must be a finite number > 0"):
        KernelConfig(tau_max=1.0, tau_std=-1.0, backend="raw_input")
    with pytest.raises(UsageError):
        KernelConfig(tau_max=1.0, tau_std=1.0, backend="cosine")


@pytest.mark.parametrize("tau_std", [1e200, 1e154, 1e-300, 1e-162])
def test_kernel_config_rejects_a_scale_that_overflows_or_underflows(tau_std):
    # 2 tau_std^2 raises OverflowError, is inf, or is 0: the kernel cannot divide by it
    with pytest.raises(UsageError, match="tau_std must keep the kernel scale"):
        KernelConfig(tau_max=1.0, tau_std=tau_std)


@pytest.mark.parametrize("tau_std, near, far", [(1e-160, 1e-4, 1e6), (1e10, 1.0, 1.0), (1e150, 1.0, 1.0)])
def test_kernel_tau_at_extreme_but_representable_scales(tau_std, near, far):
    # a subnormal scale saturates the clamp; a huge one gives every pair 1 / tau_max
    taus, dists = taus_at([0, 3, 3], KernelConfig(tau_max=1.0, tau_std=tau_std))
    assert dists.tolist() == [0.0, 1.5, 1.5] and taus.tolist() == [near, far, far]


def test_closer_pairs_mix_more():
    # composed property: larger distance -> larger tau -> coefficients
    # pushed harder toward the endpoints
    taus, dists = taus_at([0, 1, 2, 4, 8, 1, 0, 0], make_config(tau_max=1.0, tau_std=0.7))
    assert dists[:5].tolist() == [0.0, 0.5, 1.0, 2.0, 4.0]
    for lam in (0.6, 0.75, 0.9):
        w = warp_pairwise(np.full(5, lam), taus[:5])
        assert np.all(np.diff(w) >= -1e-12), lam


def test_warped_mixing_strength_rises_with_distance():
    # the paper's direction: similar pairs mix more strongly. Squared pair
    # distances 0..4 have batch mean 2, so the normalized distances are exactly
    # 0, 0.5, 1, 1.5 and 2, and E|w_tau(lam) - 1/2| must rise along them.
    points = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 0, 0]], dtype=float)
    points = np.vstack([points, np.zeros_like(points)])
    perm = np.array([5, 6, 7, 8, 9, 0, 1, 2, 3, 4])
    assert list(normalized_distances(points, perm)[:5]) == [0.0, 0.5, 1.0, 1.5, 2.0]
    lam = np.random.default_rng(11).beta(0.5, 0.5, size=4000)  # vanilla's raw coefficients
    for tau_std in (0.5, 1.0, 1.5):
        taus = batch_taus(points, perm, make_config(tau_max=1.0, tau_std=tau_std))[:5]
        strength = [np.mean(np.abs(warp_pairwise(lam, np.full(lam.shape, t)) - 0.5)) for t in taus]
        assert np.all(np.diff(strength) > 0.0), (tau_std, strength)
        # an average pair under tau_max = 1 gets tau = 1: exactly vanilla mixup
        assert taus[2] == 1.0
        assert np.array_equal(warp_pairwise(lam, np.full(lam.shape, taus[2])), lam)


# ------------------------------------------------------------- batch_taus


def test_batch_taus_two_point_swap():
    pts = np.array([[0.0], [5.0]])
    taus = batch_taus(pts, np.array([1, 0]), make_config(tau_max=2.0, tau_std=1.0))
    assert taus.dtype == np.float64 and np.isfinite(taus).all()
    assert list(taus) == [0.5, 0.5]


def test_batch_taus_identical_pair_entries():
    pts = np.array([[1.0], [1.0], [0.0], [4.0]])
    perm = np.array([1, 0, 3, 2])
    taus = batch_taus(pts, perm, make_config(tau_max=2.0, tau_std=1.0))
    assert taus[0] == pytest.approx(0.30327, abs=1e-5)
    assert taus[1] == taus[0]


def test_batch_taus_huge_std_flattens_kernel():
    rng = RngStream(5)
    pts = rng.standard_normal((16, 3))
    taus = batch_taus(pts, rng.permutation(16), make_config(tau_max=2.0, tau_std=1e6))
    for t in taus:
        assert t == pytest.approx(0.5, rel=1e-9)


def test_batch_taus_bit_identical_to_scalar_kernel():
    # Rows 2k and 2k+1 are swapped, so pair k's squared distance is gaps[k]^2;
    # the last gap is an outlier far above the batch mean.
    gaps = np.append(RngStream(23).uniform(size=1500) * 2.5, 12.0)
    points = np.zeros(2 * gaps.size)
    points[1::2] = gaps
    perm = np.arange(points.size) ^ 1
    dists = normalized_distances(points, perm)
    clamped_low = clamped_high = saturated = inside = 0
    for tau_std in (0.05, 0.1, 1.5, 20.0):
        for tau_max in (1e-4, 2.0):
            cfg = make_config(tau_max=tau_max, tau_std=tau_std)
            taus = batch_taus(points, perm, cfg)
            for d, t in zip(dists.tolist(), taus.tolist()):
                # the documented formula, one math.exp per pair
                arg = (d - 1.0) / (2.0 * tau_std**2)
                assert t == (SHAPE_MAX if arg > 700.0 else
                             min(SHAPE_MAX, max(SHAPE_MIN, math.exp(arg) / tau_max)))
                saturated += arg > 700.0
                clamped_low += t == SHAPE_MIN
                clamped_high += t == SHAPE_MAX and arg <= 700.0
                inside += SHAPE_MIN < t < SHAPE_MAX
    # the grid reaches both clamps, the overflow guard and many unclamped values
    assert min(clamped_low, clamped_high, saturated) > 0 and inside >= 1000


def assert_block_taus_equal_per_batch(batches, config, seed=0):
    """Training's block kernel over the stacked batches equals the public
    ``batch_taus`` of each batch alone, bit for bit; returns its strengths."""
    rng = RngStream(seed)
    perms = [rng.permutation(len(batch)) for batch in batches]
    n = len(batches[0])
    pairs = np.stack(perms) + np.arange(0, n * len(batches), n)[:, None]
    got = similarity._batch_taus(np.concatenate(batches), pairs, config)
    want = np.concatenate([batch_taus(batch, perm, config) for batch, perm in zip(batches, perms)])
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.parametrize("width", [1, 5, 10, 64, 128])
def test_block_taus_equal_per_batch_taus(width):
    rng = RngStream(width)
    batches = [rng.standard_normal((16, width)) * rng.uniform() * 10.0 for _ in range(56)]
    assert_block_taus_equal_per_batch(batches, make_config(tau_max=1e-4, tau_std=1.5))
    assert_block_taus_equal_per_batch(batches[:1], make_config(tau_max=2.0, tau_std=0.5))


def test_block_taus_of_one_row_batches_are_all_degenerate():
    # batch_size=1: every row is paired with itself, so every distance is 1
    cfg = make_config(tau_max=2.0, tau_std=1.0)
    batches = list(RngStream(2).standard_normal((40, 1, 5)))
    assert np.array_equal(assert_block_taus_equal_per_batch(batches, cfg), np.full(40, 0.5))


def test_block_taus_mix_degenerate_and_normal_batches():
    rng = RngStream(3)
    normal = [rng.standard_normal((8, 3)) for _ in range(4)]
    same = np.tile(rng.standard_normal(3), (8, 1))  # all pairs coincide
    tiny = rng.standard_normal((8, 3)) * 1e-9  # mean squared distance below 1e-12
    batches = [normal[0], same, normal[1], tiny, normal[2], normal[3]]
    cfg = make_config(tau_max=0.7, tau_std=0.9)
    taus = assert_block_taus_equal_per_batch(batches, cfg).reshape(6, 8)
    assert np.array_equal(taus[[1, 3]], np.full((2, 8), 1.0 / 0.7))


def test_block_taus_rescale_an_overflowing_batch_on_its_own_rows():
    rng = RngStream(4)
    batches = [rng.standard_normal((9, 3)) for _ in range(5)]
    cfg = make_config(tau_max=1.0, tau_std=1.0)
    plain = assert_block_taus_equal_per_batch(batches, cfg, seed=7)
    batches[2] = batches[2] * 2.0**600  # its squares overflow; distances are scale-free
    assert np.array_equal(assert_block_taus_equal_per_batch(batches, cfg, seed=7), plain)


# ------------------------------------------------------- extract_features


def test_raw_input_backend_is_identity():
    rng = RngStream(1)
    x = rng.standard_normal((6, 4))
    batch = Batch(inputs=x, targets=np.zeros(6))
    out = extract_features(batch, "raw_input")
    assert np.array_equal(out, batch.inputs)


def test_label_backend_returns_target_columns():
    y = np.array([1.0, -2.0, 0.5])
    batch = Batch(inputs=np.zeros((3, 2)), targets=y)
    out = extract_features(batch, "label")
    assert out.shape == (3, 1)
    assert np.array_equal(out[:, 0], y)


def test_label_backend_rejects_classification():
    batch = Batch(inputs=np.zeros((3, 2)), targets=np.array([0, 1, 0]), num_classes=2)
    with pytest.raises(UsageError):
        extract_features(batch, "label")


def test_embedding_backend_matches_embed():
    rng = RngStream(9)
    model = init_mlp([4, 8, 3], dropout_rate=0.1, rng=RngStream(11))
    x = rng.standard_normal((5, 4))
    batch = Batch(inputs=x, targets=np.array([0, 1, 2, 0, 1]), num_classes=3)
    out = extract_features(batch, "embedding", model=model)
    assert np.array_equal(out, embed(model, x))
    assert out.shape == (5, 8)


def test_class_weight_backend_shares_rows_within_class():
    model = init_mlp([4, 8, 3], dropout_rate=0.0, rng=RngStream(2))
    batch = Batch(
        inputs=np.zeros((4, 4)),
        targets=np.array([2, 0, 2, 1]),
        num_classes=3,
    )
    out = extract_features(batch, "class_weight", model=model)
    assert out.shape == (4, 8)  # one final-layer weight column per sample
    assert np.array_equal(out[0], out[2])
    assert not np.array_equal(out[0], out[1])
    assert np.array_equal(out[1], model.layers[-1].weights[:, 0])


@pytest.mark.parametrize("backend, layer", [("embedding", 0), ("class_weight", -1)])
def test_non_finite_model_features_are_divergence(backend, layer):
    model = init_mlp([4, 8, 3], dropout_rate=0.0, rng=RngStream(2))
    model.layers[layer].weights[:] = np.inf
    batch = Batch(inputs=np.ones((3, 4)), targets=np.array([0, 1, 2]), num_classes=3)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        extract_features(batch, backend, model=model)


def test_model_backends_require_model():
    batch = Batch(inputs=np.zeros((2, 3)), targets=np.array([0, 1]), num_classes=2)
    for backend in ("embedding", "class_weight"):
        with pytest.raises(UsageError):
            extract_features(batch, backend)


def test_class_weight_backend_rejects_regression():
    model = init_mlp([3, 4, 1], dropout_rate=0.0, rng=RngStream(2))
    batch = Batch(inputs=np.zeros((2, 3)), targets=np.array([0.5, 1.5]))
    with pytest.raises(UsageError):
        extract_features(batch, "class_weight", model=model)


def test_unknown_backend_rejected():
    batch = Batch(inputs=np.zeros((2, 3)), targets=np.array([0.5, 1.5]))
    with pytest.raises(UsageError):
        extract_features(batch, "pixel")
