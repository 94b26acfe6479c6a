"""Tests for calibration metrics, temperature scaling, and point metrics.

Every metric comes from ``metrics_from_payload`` on arrays and is
cross-checked against the naive loop references in reference_metrics.py on
randomized instances.
"""

import math

import numpy as np
import pytest

from warpmix import (
    UsageError,
    bin_stats,
    log_softmax,
    metrics_from_payload,
    softmax,
    temperature_scale,
)

import warpmix.metrics as metrics_module

import reference_metrics as ref


def clf_payload(probs, labels, num_bins=15):
    """Predictions payload of probability rows and their labels, at temperature 1."""
    return {"task": "classification", "num_bins": num_bins, "temperature": 1.0,
            "probs": probs, "labels": labels}


def reg_payload(means, variances, targets, num_bins=15):
    """Predictions payload of predictive means and variances against targets."""
    return {"task": "regression", "num_bins": num_bins, "means": means, "variances": variances,
            "targets": targets}


def clf_metrics(probs, labels, num_bins=15):
    return metrics_from_payload(clf_payload(probs, labels, num_bins))


def reg_metrics(means, variances, targets, num_bins=15):
    return metrics_from_payload(reg_payload(means, variances, targets, num_bins))


def random_classif(rng, n=None, c=None):
    n = n or int(rng.integers(2, 65))
    c = c or int(rng.integers(2, 11))
    raw = rng.random((n, c)) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, c, size=n)
    return probs, labels


def random_regression(rng, n=None):
    n = n or int(rng.integers(2, 65))
    means = rng.standard_normal(n) * 3.0
    variances = rng.random(n) * 2.0
    targets = rng.standard_normal(n) * 3.0
    return means, variances, targets


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("payload", [
    pytest.param(clf_payload([[0.7, 0.2]], [0]), id="probs_not_summing_to_1"),
    pytest.param(clf_payload([[1.2, -0.2]], [0]), id="probs_outside_0_1"),
    pytest.param(clf_payload([[1.0]], [0]), id="single_class"),
    pytest.param(clf_payload([[0.5, 0.5]], [2]), id="label_out_of_range"),
    pytest.param(clf_payload([[0.5, 0.5]], [[0]]), id="2d_label"),
    pytest.param(clf_payload([[[0.5, 0.5]]], [0]), id="3d_probs"),
    pytest.param(reg_payload([0.0], [-1e-9], [0.0]), id="negative_variance"),
    pytest.param(reg_payload([0.0], [math.nan], [0.0]), id="nan_variance"),
    pytest.param(reg_payload([1.0, 2.0], [0.5, 0.25], [1.0]), id="misaligned_targets"),
    pytest.param(reg_payload([1.0], [0.5], [1.0], num_bins=0), id="zero_bins"),
])
def test_metrics_from_payload_rejects_bad_rows(payload):
    with pytest.raises(UsageError):
        metrics_from_payload(payload)


def test_metrics_from_payload_accepts_zero_variance():
    assert reg_metrics([1.0], [0.0], [2.0])["rmse"] == 1.0


# ---------------------------------------------------------------- binning


def test_bin_stats_documented_rule():
    # 0.5 sits on the interior edge and goes up; 1.0 stays in the closed top bin
    counts, sums = bin_stats([0.0, 0.5, 1.0, 0.25, 0.74], 0.0, 1.0, 2, [1, 2, 3, 4, 5])
    assert counts.tolist() == [2, 3]
    assert sums.tolist() == [[5.0, 10.0]]
    counts, sums = bin_stats([3.0, 3.0], 3.0, 3.0, 4, [1.0, 2.0], [0.5, 0.5])
    assert counts.tolist() == [2, 0, 0, 0]  # hi <= lo: everything in bin 0
    assert sums.tolist() == [[3.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]


def test_bin_stats_matches_reference_bins():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.random(int(rng.integers(1, 60))) * 4.0 - 1.0
        m = int(rng.integers(1, 16))
        lo, hi = float(values.min()), float(values.max())
        counts, sums = bin_stats(values, lo, hi, m, values)
        want = [ref._bin_of(v, lo, hi, m) for v in values.tolist()]
        assert counts.tolist() == np.bincount(want, minlength=m).tolist()
        assert np.allclose(sums[0], np.bincount(want, weights=values, minlength=m), atol=1e-12)


# ---------------------------------------------------------------- payloads


def test_metrics_from_payload_takes_lists_or_arrays():
    # a payload read back from JSON holds lists; one built in memory, arrays
    rng = np.random.default_rng(6)
    probs, labels = random_classif(rng, n=40)
    got = metrics_from_payload({"task": "classification", "num_bins": 7, "temperature": 1.5,
                                "probs": probs.tolist(), "labels": labels.tolist()})
    assert got == {**clf_metrics(probs, labels, 7), "temperature": 1.5}
    assert set(got) == {"accuracy", "ece", "brier", "nll", "temperature"}
    means, variances, targets = random_regression(rng, n=40)
    got = reg_metrics(means.tolist(), variances.tolist(), targets.tolist(), 7)
    assert got == reg_metrics(means, variances, targets, 7)
    assert set(got) == {"rmse", "mape", "uce", "ence"}


# ------------------------------------------------------- softmax utilities


def test_softmax_rows_normalized_and_stable():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((20, 5)) * 5
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p > 0)
    huge = softmax(np.array([[1e4, 0.0, -1e4]]))
    assert np.isfinite(huge).all() and huge[0, 0] == pytest.approx(1.0)


def test_log_softmax_consistent_with_softmax():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((10, 4)) * 3
    assert np.allclose(log_softmax(z), np.log(softmax(z)), atol=1e-12)


def test_softmax_rejects_an_empty_class_axis():
    for fn in (softmax, log_softmax):
        for shape in ((3, 0), (0,), (2, 4, 0)):
            with pytest.raises(UsageError, match="at least one class"):
                fn(np.zeros(shape))
    # a 0-d input is one row of one class, and a vector is one row
    assert softmax(3.0) == 1.0 and log_softmax(-2.0) == 0.0
    assert np.array_equal(softmax([0.0, 0.0]), [0.5, 0.5])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def logit_tables():
    """(c, logits) of 52 rows over c in {1, 2, 3, 7, 8, 13} classes: gaussian
    rows of every scale, ties, signed zeros, and rows holding infinities and NaN."""
    rng = np.random.default_rng(3)
    inf, nan = math.inf, math.nan
    special_rows = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [inf, 1.0], [1.0, inf],
                    [-inf, -inf], [-inf, 2.0], [nan, 1.0], [1.0, nan], [inf, nan], [1e308, -1e308]]
    for c in (1, 2, 3, 7, 8, 13):
        logits = rng.standard_normal((40, c)) * 10.0 ** rng.uniform(-2, 2.5, (40, 1))
        logits[::3] = np.round(logits[::3])  # ties
        for row in special_rows:
            logits = np.vstack([logits, (row * c)[:c]])
        yield c, logits


def test_shifted_exp_shift_is_the_row_max_bit_for_bit():
    for c, logits in logit_tables():
        for shaped in (logits, logits.reshape(2, -1, c)):
            with np.errstate(over="ignore", invalid="ignore"):  # the inf rows
                z, e = metrics_module._shifted_exp(shaped)
                want = shaped - shaped.max(axis=-1, keepdims=True)
            assert np.array_equal(bits(z), bits(want))
            assert np.array_equal(bits(e), bits(np.exp(want)))


def test_softmax_and_log_softmax_bit_equal_to_numpy_reductions():
    # softmax takes its class total and its division one class column at a time;
    # from 8 classes numpy's sum order follows the memory layout, so column-major
    # and strided tables are checked too
    for c, logits in logit_tables():
        for shaped in (logits, logits.reshape(2, -1, c), logits[0], np.asfortranarray(logits), logits[:, ::-1]):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the inf and NaN rows
                z = shaped - shaped.max(axis=-1, keepdims=True)
                e = np.exp(z)
                want_p, want_log_p = e / e.sum(axis=-1, keepdims=True), z - np.log(e.sum(axis=-1, keepdims=True))
                got_p, got_log_p = softmax(shaped), log_softmax(shaped)
            assert np.array_equal(bits(got_p), bits(want_p)), (c, shaped.shape)
            assert np.array_equal(bits(got_log_p), bits(want_log_p)), (c, shaped.shape)


def test_payload_bins_confidence_is_the_row_max_bit_for_bit():
    # one row per payload and one bin, so the bin's confidence sum is the row's confidence
    for c, logits in logit_tables():
        if c == 1:
            continue
        with np.errstate(over="ignore"):  # the 1e308 row
            probs = softmax(logits[np.isfinite(logits).all(axis=1)])
        probs = np.vstack([probs, np.eye(c)[0], np.where(np.arange(c) == c - 1, 1.0, -0.0)])  # one-hot rows
        for row, conf in zip(probs, probs.max(axis=1)):
            payload = {"task": "classification", "num_bins": 1, "probs": [row.tolist()], "labels": [0],
                       "temperature": 1.0}
            assert bits(metrics_module.payload_bins(payload)[3][1][0]) == bits(conf), (c, row)


# the per-temperature loss that _nll_at_temperatures must reproduce bit for bit,
# with the row max and class total written out as numpy reductions
def reference_nll_at_temperature(logits, labels, t):
    scaled = logits / t
    z = scaled - scaled.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return float(np.mean(-log_probs[np.arange(len(labels)), labels]))


def reference_temperature_scale(logits, labels):
    """temperature_scale's grid and golden-section search over the reference loss."""
    logits, labels = np.asarray(logits, dtype=np.float64), np.asarray(labels)
    grid = np.geomspace(0.05, 20.0, 200)
    best = int(np.argmin([reference_nll_at_temperature(logits, labels, t) for t in grid]))
    lo, hi = grid[max(0, best - 1)], grid[min(199, best + 1)]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1 = reference_nll_at_temperature(logits, labels, x1)
    f2 = reference_nll_at_temperature(logits, labels, x2)
    while (hi - lo) > 1e-4 * (0.5 * (lo + hi)):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = reference_nll_at_temperature(logits, labels, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = reference_nll_at_temperature(logits, labels, x2)
    return float(0.5 * (lo + hi))


def grid_cases():
    """(logits, labels) over 2 to 13 classes: random scales, n = 1, ties, signed zeros
    and huge logits."""
    rng = np.random.default_rng(17)
    for c in (2, 3, 7, 8, 13):
        for n in (1, 5, 400, 1199):
            logits = rng.standard_normal((n, c)) * 10.0 ** rng.uniform(-2, 2.5)
            yield logits, rng.integers(0, c, n)
        ties = np.round(rng.standard_normal((60, c)))
        ties[::2, : c // 2 + 1] = 1.0
        yield ties, rng.integers(0, c, 60)
        zeros = rng.choice([0.0, -0.0, 1e-300, -1e-320], size=(30, c))
        yield zeros, rng.integers(0, c, 30)
        huge = rng.standard_normal((50, c)) * 1e300
        labels = rng.integers(0, c, 50)
        yield huge, labels
        overflow = huge.copy()
        overflow[0] = 1.7e308  # overflows at T < 1, so those losses are NaN
        yield overflow, labels


def test_nll_at_temperatures_bit_equal_to_single_temperatures():
    grid = np.geomspace(0.05, 20.0, 200)
    for logits, labels in grid_cases():
        with np.errstate(over="ignore", invalid="ignore"):  # the huge logits
            got = metrics_module._nll_at_temperatures(logits, labels, grid)
            want = [reference_nll_at_temperature(logits, labels, t) for t in grid]
        assert np.array_equal(bits(got), bits(want)), logits.shape


def test_temperature_scale_fits_the_reference_temperature_exactly():
    grid = np.geomspace(0.05, 20.0, 200)
    fitted = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing logits
        for logits, labels in grid_cases():
            if np.isfinite([reference_nll_at_temperature(logits, labels, t) for t in grid]).all():
                assert temperature_scale(logits, labels) == reference_temperature_scale(logits, labels)
                fitted += 1
            else:
                with pytest.raises(UsageError, match="not finite at temperature 0.05"):
                    temperature_scale(logits, labels)
    assert fitted == 5 * 7  # every case but the 1.7e308 rows, the 1e300-scale ones included


def test_temperature_scale_rejects_non_finite_logits_and_losses():
    # every grid loss is NaN, so the first grid temperature (0.05) used to win
    with pytest.raises(UsageError, match="logits must be finite"):
        temperature_scale([[1, 0], [np.nan, 0], [0, 2]], [0, 0, 1])
    with pytest.raises(UsageError, match="logits must be finite"):
        temperature_scale([[1, 0], [np.inf, 0]], [0, 1])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(UsageError, match="overflow"):
        temperature_scale([[1.7e308, -1.7e308], [0, 1]], [0, 1])


# -------------------------------------------------------------------- ece


def test_ece_perfect_and_worst_case():
    assert clf_metrics([[1.0, 0.0]] * 5, [0] * 5)["ece"] == 0.0  # sure and right
    assert clf_metrics([[1.0, 0.0]] * 5, [1] * 5)["ece"] == 1.0  # sure and wrong


def test_ece_hand_binned_example():
    # two bins: confidences .9 (correct) and .8 (wrong) up top, .3 and .4
    # (both correct) below -> 0.5*|0.5-0.85| + 0.5*|1.0-0.35| = 0.5
    probs = [
        [0.9, 0.04, 0.03, 0.03],
        [0.8, 0.1, 0.05, 0.05],
        [0.3, 0.25, 0.25, 0.2],
        [0.4, 0.3, 0.2, 0.1],
    ]
    got = clf_metrics(probs, [0, 1, 0, 0], num_bins=2)["ece"]
    assert got == pytest.approx(0.5, abs=1e-12)


def test_ece_edge_confidence_goes_to_upper_bin():
    # conf exactly 0.5 joins the upper of two bins; if it fell to the lower
    # bin this instance would score 0.6 instead of 0.1
    got = clf_metrics([[0.5, 0.5], [0.7, 0.3]], [0, 1], num_bins=2)["ece"]
    assert got == pytest.approx(0.1, abs=1e-12)


def test_ece_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(50):
        probs, labels = random_classif(rng)
        m = int(rng.integers(1, 16))
        got = clf_metrics(probs, labels, num_bins=m)["ece"]
        want = ref.ref_ece(probs.tolist(), labels.tolist(), m)
        assert abs(got - want) <= 1e-12


def test_ece_permutation_invariant():
    rng = np.random.default_rng(12)
    probs, labels = random_classif(rng, n=40)
    base = clf_metrics(probs, labels)["ece"]
    perm = rng.permutation(40)
    assert abs(clf_metrics(probs[perm], labels[perm])["ece"] - base) <= 1e-12


def test_ece_empty_input():
    with pytest.raises(UsageError):
        clf_metrics(np.zeros((0, 2)), np.zeros(0))


# ------------------------------------------------------------------ brier


def test_brier_known_values():
    assert clf_metrics([[0.0, 1.0]], [1])["brier"] == 0.0
    assert clf_metrics([[0.5, 0.5]], [0])["brier"] == pytest.approx(0.5, abs=1e-15)
    assert clf_metrics([[1.0, 0.0, 0.0]], [1])["brier"] == pytest.approx(2.0, abs=1e-15)
    assert clf_metrics([[1.0, 0.0, 0.0, 0.0, 0.0]], [4])["brier"] == pytest.approx(2.0, abs=1e-15)


def test_brier_matches_bruteforce_and_range():
    rng = np.random.default_rng(21)
    for _ in range(50):
        probs, labels = random_classif(rng)
        got = clf_metrics(probs, labels)["brier"]
        want = ref.ref_brier(probs.tolist(), labels.tolist())
        assert abs(got - want) <= 1e-12
        assert 0.0 <= got <= 2.0


# -------------------------------------------------------------------- nll


def test_nll_known_values():
    assert clf_metrics([[1.0, 0.0]], [0])["nll"] == 0.0
    assert clf_metrics([[0.5, 0.5]] * 3, [1] * 3)["nll"] == pytest.approx(math.log(2.0), rel=1e-12)
    two = clf_metrics([[0.9, 0.1], [0.2, 0.8]], [0, 1])["nll"]
    assert two == pytest.approx(0.164252, abs=1e-6)
    assert two == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0, rel=1e-12)


def test_nll_zero_probability_clamped():
    # zero mass on the target class floors at 1e-12, not infinity
    got = clf_metrics([[1.0, 0.0]], [1])["nll"]
    assert got == pytest.approx(-math.log(1e-12), rel=1e-12)
    assert math.isfinite(got)


def test_nll_matches_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(50):
        probs, labels = random_classif(rng)
        assert abs(clf_metrics(probs, labels)["nll"] - ref.ref_nll(probs.tolist(), labels.tolist())) <= 1e-12


# -------------------------------------------------------------------- uce


def test_uce_known_values():
    calibrated = reg_metrics([1.0, 0.0], [4.0, 0.25], [3.0, 0.5], num_bins=1)  # (mu-y)^2 == var
    assert calibrated["uce"] == 0.0
    matched_bin = reg_metrics([1.0, math.sqrt(3.0)], [2.0, 2.0], [0.0, 0.0], num_bins=1)
    assert matched_bin["uce"] == pytest.approx(0.0, abs=1e-12)
    gap = reg_metrics([1.0, 1.0], [4.0, 2.0], [0.0, 0.0], num_bins=1)  # sq errs (1,1), vars (4,2)
    assert gap["uce"] == pytest.approx(2.0, abs=1e-12)


def test_uce_matches_bruteforce():
    rng = np.random.default_rng(41)
    for _ in range(50):
        means, variances, targets = random_regression(rng)
        m = int(rng.integers(1, 16))
        got = reg_metrics(means, variances, targets, num_bins=m)["uce"]
        want = ref.ref_uce(means.tolist(), variances.tolist(), targets.tolist(), m)
        assert abs(got - want) <= 1e-12


# ------------------------------------------------------------------- ence


def test_ence_known_values():
    gap = reg_metrics([2.0, -2.0], [1.0, 1.0], [0.0, 0.0], num_bins=1)  # sq errs (4,4), vars (1,1)
    assert gap["ence"] == pytest.approx(1.0, abs=1e-12)
    flat = reg_metrics([1.0, -1.0], [1.0, 1.0], [0.0, 0.0], num_bins=1)
    assert flat["ence"] == pytest.approx(0.0, abs=1e-12)


def test_ence_zero_variance_sentinel():
    assert reg_metrics([1.0], [0.0], [0.0], num_bins=1)["ence"] == math.inf  # rmse 1, rmv 0
    assert reg_metrics([0.0], [0.0], [0.0], num_bins=1)["ence"] == 0.0  # rmse 0, rmv 0


def test_ence_averages_nonempty_bins_only():
    # variances cluster at the range ends, leaving middle bins empty
    got = reg_metrics([1.0, 1.0], [0.0, 10.0], [0.0, 0.0], num_bins=10)["ence"]
    # bin of var=0: rmse 1, rmv 0 -> but rmse > 0 -> infinity sentinel
    assert got == math.inf
    got = reg_metrics([0.5, 2.0], [1.0, 10.0], [0.0, 0.0], num_bins=10)["ence"]
    want = 0.5 * (abs(0.5 - 1.0) / 1.0 + abs(2.0 - math.sqrt(10.0)) / math.sqrt(10.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_ence_matches_bruteforce():
    rng = np.random.default_rng(51)
    for _ in range(50):
        means, variances, targets = random_regression(rng)
        m = int(rng.integers(1, 16))
        got = reg_metrics(means, variances, targets, num_bins=m)["ence"]
        want = ref.ref_ence(means.tolist(), variances.tolist(), targets.tolist(), m)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-12


def test_regression_metrics_permutation_invariant():
    rng = np.random.default_rng(52)
    means, variances, targets = random_regression(rng, n=48)
    perm = rng.permutation(48)
    base = reg_metrics(means, variances, targets)
    shuffled = reg_metrics(means[perm], variances[perm], targets[perm])
    for metric in ("uce", "ence", "rmse"):
        assert abs(shuffled[metric] - base[metric]) <= 1e-12
    assert abs(shuffled["mape"] - base["mape"]) <= 1e-9


# ---------------------------------------------------- temperature scaling


def make_logits(rng, n=400, c=5, sharpness=3.0):
    labels = rng.integers(0, c, size=n)
    logits = rng.standard_normal((n, c))
    logits[np.arange(n), labels] += sharpness * rng.random(n)
    return logits, labels


def test_temperature_identity_after_rescaling():
    rng = np.random.default_rng(61)
    logits, labels = make_logits(rng)
    t_star = temperature_scale(logits, labels)
    assert 0.05 <= t_star <= 20.0
    t_again = temperature_scale(logits / t_star, labels)
    assert t_again == pytest.approx(1.0, abs=1e-3)


def test_temperature_scales_with_logits():
    rng = np.random.default_rng(62)
    logits, labels = make_logits(rng)
    t1 = temperature_scale(logits, labels)
    t2 = temperature_scale(2.0 * logits, labels)
    assert t2 == pytest.approx(2.0 * t1, rel=2e-3)


def test_temperature_never_changes_predictions():
    rng = np.random.default_rng(63)
    logits, labels = make_logits(rng, n=100)
    t = temperature_scale(logits, labels)
    before = logits.argmax(axis=1)
    after = softmax(logits / t).argmax(axis=1)
    assert np.array_equal(before, after)
    for t_any in (0.05, 0.7, 3.0, 20.0):
        assert np.array_equal(softmax(logits / t_any).argmax(axis=1), before)


def test_temperature_shape_errors():
    with pytest.raises(UsageError):
        temperature_scale(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(UsageError):
        temperature_scale(np.zeros((4, 3)), np.zeros(5, dtype=int))
    for one_class in (np.zeros((4, 1)), np.zeros((4, 0))):  # the payload rule asks for >= 2 classes
        with pytest.raises(UsageError, match="c >= 2"):
            temperature_scale(one_class, np.zeros(4, dtype=int))


@pytest.mark.parametrize("bad", [1.7, -1, 3, float("nan")])
def test_temperature_rejects_labels_outside_the_classes(bad):
    # a cast to int64 would make 1.7 class 1, -1 the last class, and 3 an IndexError
    logits = np.arange(12.0).reshape(4, 3)
    assert temperature_scale(logits, [0, 1, 2, 2.0]) > 0.0
    with pytest.raises(UsageError, match=r"labels must be integers in \[0, 3\)"):
        temperature_scale(logits, [0, 1, 2, bad])


# --------------------------------------------------------- point metrics


def test_point_metrics_known_values():
    exact = reg_metrics([2.0, -1.0], [0.1, 0.1], [2.0, -1.0])
    assert (exact["rmse"], exact["mape"]) == (0.0, 0.0)

    two = reg_metrics([2.0, 4.0], [0.0, 0.0], [1.0, 2.0])
    assert two["rmse"] == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert two["mape"] == pytest.approx(100.0, rel=1e-12)

    offset = reg_metrics([2.0] * 3, [0.0] * 3, [1.0] * 3)
    assert offset["rmse"] == pytest.approx(1.0, rel=1e-12)
    assert offset["mape"] == pytest.approx(100.0, rel=1e-12)


def test_point_metrics_zero_target_drops_mape():
    got = reg_metrics([1.0, 2.0], [0.0, 0.0], [0.0, 1.0])
    assert got["mape"] is None
    assert got["rmse"] == pytest.approx(math.sqrt((1.0 + 1.0) / 2.0), rel=1e-12)


def test_point_metrics_match_bruteforce():
    rng = np.random.default_rng(71)
    for _ in range(30):
        means, variances, targets = random_regression(rng)
        got = reg_metrics(means, variances, targets)
        assert abs(got["rmse"] - ref.ref_rmse(means.tolist(), targets.tolist())) <= 1e-12
        want_mape = ref.ref_mape(means.tolist(), targets.tolist())
        assert abs(got["mape"] - want_mape) <= 1e-9 * max(1.0, abs(want_mape))


def test_accuracy_matches_bruteforce():
    rng = np.random.default_rng(81)
    for _ in range(20):
        probs, labels = random_classif(rng)
        assert clf_metrics(probs, labels)["accuracy"] == ref.ref_accuracy(probs.tolist(), labels.tolist())


def test_empty_inputs_rejected_everywhere():
    for probs in ([], np.zeros((0, 2))):
        with pytest.raises(UsageError):
            clf_metrics(probs, [])
    for empty in ([], np.zeros(0)):
        with pytest.raises(UsageError):
            reg_metrics(empty, empty, empty)
