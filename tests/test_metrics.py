"""Tests for calibration metrics, temperature scaling, and point metrics.

Every metric is cross-checked against the naive loop references in
reference_metrics.py on randomized instances.
"""

import math

import numpy as np
import pytest

from warpmix import (
    BinningConfig,
    ClassifPrediction,
    PredictiveDistribution,
    UsageError,
    accuracy,
    bin_stats,
    brier,
    ece,
    ence,
    log_softmax,
    metrics_from_payload,
    nll,
    regression_point_metrics,
    softmax,
    temperature_scale,
    uce,
)

import reference_metrics as ref


def cpred(probs, label):
    return ClassifPrediction(probs=np.asarray(probs, dtype=np.float64), label=label)


def rpred(mean, variance, target):
    return PredictiveDistribution(mean=mean, variance=variance, target=target)


def random_classif(rng, n=None, c=None):
    n = n or int(rng.integers(2, 65))
    c = c or int(rng.integers(2, 11))
    raw = rng.random((n, c)) + 1e-6
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, c, size=n)
    return [cpred(probs[i], int(labels[i])) for i in range(n)], probs, labels


def random_regression(rng, n=None):
    n = n or int(rng.integers(2, 65))
    means = rng.standard_normal(n) * 3.0
    variances = rng.random(n) * 2.0
    targets = rng.standard_normal(n) * 3.0
    preds = [rpred(means[i], variances[i], targets[i]) for i in range(n)]
    return preds, means, variances, targets


# -------------------------------------------------------------- data types


def test_classif_prediction_validation():
    with pytest.raises(UsageError):
        cpred([0.7, 0.2], 0)  # does not sum to 1
    with pytest.raises(UsageError):
        cpred([1.2, -0.2], 0)
    with pytest.raises(UsageError):
        cpred([1.0], 0)  # single class is not a classification
    with pytest.raises(UsageError):
        cpred([0.5, 0.5], 2)
    with pytest.raises(UsageError):
        cpred([[0.5, 0.5]], 0)


def test_predictive_distribution_validation():
    with pytest.raises(UsageError):
        rpred(0.0, -1e-9, 0.0)
    with pytest.raises(UsageError):
        rpred(0.0, math.nan, 0.0)
    assert rpred(1.0, 0.0, 2.0).variance == 0.0


def test_binning_config_validation():
    with pytest.raises(UsageError):
        BinningConfig(num_bins=0)
    with pytest.raises(UsageError):
        BinningConfig(num_bins=5, scheme="quantile")
    cfg = BinningConfig(num_bins=10, scheme="equal_width_variance")
    with pytest.raises(UsageError):
        ece([cpred([0.6, 0.4], 0)], cfg)  # confidence metric, variance scheme


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


def test_metrics_from_payload_matches_per_row_api():
    rng = np.random.default_rng(6)
    preds, probs, labels = random_classif(rng, n=40)
    got = metrics_from_payload({"task": "classification", "num_bins": 7, "temperature": 1.5,
                                "probs": probs.tolist(), "labels": labels.tolist()})
    assert got == {"accuracy": accuracy(preds), "ece": ece(preds, BinningConfig(7)),
                   "brier": brier(preds), "nll": nll(preds), "temperature": 1.5}
    rpreds, means, variances, targets = random_regression(rng, n=40)
    got = metrics_from_payload({"task": "regression", "num_bins": 7, "means": means.tolist(),
                                "variances": variances.tolist(), "targets": targets.tolist()})
    rmse, mape = regression_point_metrics(rpreds)
    assert got == {"rmse": rmse, "mape": mape, "uce": uce(rpreds, BinningConfig(7)),
                   "ence": ence(rpreds, BinningConfig(7))}


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


# -------------------------------------------------------------------- ece


def test_ece_perfect_and_worst_case():
    sure_right = [cpred([1.0, 0.0], 0)] * 5
    assert ece(sure_right) == 0.0
    sure_wrong = [cpred([1.0, 0.0], 1)] * 5
    assert ece(sure_wrong) == 1.0


def test_ece_hand_binned_example():
    # two bins: confidences .9 (correct) and .8 (wrong) up top, .3 and .4
    # (both correct) below -> 0.5*|0.5-0.85| + 0.5*|1.0-0.35| = 0.5
    preds = [
        cpred([0.9, 0.04, 0.03, 0.03], 0),
        cpred([0.8, 0.1, 0.05, 0.05], 1),
        cpred([0.3, 0.25, 0.25, 0.2], 0),
        cpred([0.4, 0.3, 0.2, 0.1], 0),
    ]
    got = ece(preds, BinningConfig(num_bins=2))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_ece_edge_confidence_goes_to_upper_bin():
    # conf exactly 0.5 joins the upper of two bins; if it fell to the lower
    # bin this instance would score 0.6 instead of 0.1
    preds = [cpred([0.5, 0.5], 0), cpred([0.7, 0.3], 1)]
    assert ece(preds, BinningConfig(num_bins=2)) == pytest.approx(0.1, abs=1e-12)


def test_ece_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(50):
        preds, probs, labels = random_classif(rng)
        m = int(rng.integers(1, 16))
        got = ece(preds, BinningConfig(num_bins=m))
        want = ref.ref_ece(probs.tolist(), labels.tolist(), m)
        assert abs(got - want) <= 1e-12


def test_ece_permutation_invariant():
    rng = np.random.default_rng(12)
    preds, _, _ = random_classif(rng, n=40)
    base = ece(preds)
    shuffled = [preds[i] for i in rng.permutation(40)]
    assert abs(ece(shuffled) - base) <= 1e-12


def test_ece_empty_input():
    with pytest.raises(UsageError):
        ece([])


# ------------------------------------------------------------------ brier


def test_brier_known_values():
    assert brier([cpred([0.0, 1.0], 1)]) == 0.0
    assert brier([cpred([0.5, 0.5], 0)]) == pytest.approx(0.5, abs=1e-15)
    assert brier([cpred([1.0, 0.0, 0.0], 1)]) == pytest.approx(2.0, abs=1e-15)
    assert brier([cpred([1.0, 0.0, 0.0, 0.0, 0.0], 4)]) == pytest.approx(2.0, abs=1e-15)


def test_brier_matches_bruteforce_and_range():
    rng = np.random.default_rng(21)
    for _ in range(50):
        preds, probs, labels = random_classif(rng)
        got = brier(preds)
        want = ref.ref_brier(probs.tolist(), labels.tolist())
        assert abs(got - want) <= 1e-12
        assert 0.0 <= got <= 2.0


# -------------------------------------------------------------------- nll


def test_nll_known_values():
    assert nll([cpred([1.0, 0.0], 0)]) == 0.0
    assert nll([cpred([0.5, 0.5], 1)] * 3) == pytest.approx(math.log(2.0), rel=1e-12)
    two = [cpred([0.9, 0.1], 0), cpred([0.2, 0.8], 1)]
    assert nll(two) == pytest.approx(0.164252, abs=1e-6)
    assert nll(two) == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2.0, rel=1e-12)


def test_nll_zero_probability_clamped():
    # zero mass on the target class floors at 1e-12, not infinity
    got = nll([cpred([1.0, 0.0], 1)])
    assert got == pytest.approx(-math.log(1e-12), rel=1e-12)
    assert math.isfinite(got)


def test_nll_matches_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(50):
        preds, probs, labels = random_classif(rng)
        assert abs(nll(preds) - ref.ref_nll(probs.tolist(), labels.tolist())) <= 1e-12


# -------------------------------------------------------------------- uce


def test_uce_known_values():
    calibrated = [rpred(1.0, 4.0, 3.0), rpred(0.0, 0.25, 0.5)]  # (mu-y)^2 == var
    assert uce(calibrated, BinningConfig(num_bins=1)) == 0.0
    matched_bin = [rpred(1.0, 2.0, 0.0), rpred(math.sqrt(3.0), 2.0, 0.0)]
    assert uce(matched_bin, BinningConfig(num_bins=1)) == pytest.approx(0.0, abs=1e-12)
    gap = [rpred(1.0, 4.0, 0.0), rpred(1.0, 2.0, 0.0)]  # sq errs (1,1), vars (4,2)
    assert uce(gap, BinningConfig(num_bins=1)) == pytest.approx(2.0, abs=1e-12)


def test_uce_matches_bruteforce():
    rng = np.random.default_rng(41)
    for _ in range(50):
        preds, means, variances, targets = random_regression(rng)
        m = int(rng.integers(1, 16))
        got = uce(preds, BinningConfig(num_bins=m))
        want = ref.ref_uce(means.tolist(), variances.tolist(), targets.tolist(), m)
        assert abs(got - want) <= 1e-12


# ------------------------------------------------------------------- ence


def test_ence_known_values():
    gap = [rpred(2.0, 1.0, 0.0), rpred(-2.0, 1.0, 0.0)]  # sq errs (4,4), vars (1,1)
    assert ence(gap, BinningConfig(num_bins=1)) == pytest.approx(1.0, abs=1e-12)
    flat = [rpred(1.0, 1.0, 0.0), rpred(-1.0, 1.0, 0.0)]
    assert ence(flat, BinningConfig(num_bins=1)) == pytest.approx(0.0, abs=1e-12)


def test_ence_zero_variance_sentinel():
    degenerate = [rpred(1.0, 0.0, 0.0)]  # rmse 1, rmv 0
    assert ence(degenerate, BinningConfig(num_bins=1)) == math.inf
    harmless = [rpred(0.0, 0.0, 0.0)]  # rmse 0, rmv 0
    assert ence(harmless, BinningConfig(num_bins=1)) == 0.0


def test_ence_averages_nonempty_bins_only():
    # variances cluster at the range ends, leaving middle bins empty
    preds = [rpred(1.0, 0.0, 0.0), rpred(1.0, 10.0, 0.0)]
    got = ence(preds, BinningConfig(num_bins=10))
    # bin of var=0: rmse 1, rmv 0 -> but rmse > 0 -> infinity sentinel
    assert got == math.inf
    preds = [rpred(0.5, 1.0, 0.0), rpred(2.0, 10.0, 0.0)]
    got = ence(preds, BinningConfig(num_bins=10))
    want = 0.5 * (abs(0.5 - 1.0) / 1.0 + abs(2.0 - math.sqrt(10.0)) / math.sqrt(10.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_ence_matches_bruteforce():
    rng = np.random.default_rng(51)
    for _ in range(50):
        preds, means, variances, targets = random_regression(rng)
        m = int(rng.integers(1, 16))
        got = ence(preds, BinningConfig(num_bins=m))
        want = ref.ref_ence(means.tolist(), variances.tolist(), targets.tolist(), m)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-12


def test_regression_metrics_permutation_invariant():
    rng = np.random.default_rng(52)
    preds, _, _, _ = random_regression(rng, n=48)
    perm = rng.permutation(48)
    shuffled = [preds[i] for i in perm]
    for metric in (uce, ence):
        assert abs(metric(shuffled) - metric(preds)) <= 1e-12
    r1, m1 = regression_point_metrics(preds)
    r2, m2 = regression_point_metrics(shuffled)
    assert abs(r1 - r2) <= 1e-12 and abs(m1 - m2) <= 1e-9


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


@pytest.mark.parametrize("bad", [1.7, -1, 3, float("nan")])
def test_temperature_rejects_labels_outside_the_classes(bad):
    # a cast to int64 would make 1.7 class 1, -1 the last class, and 3 an IndexError
    logits = np.arange(12.0).reshape(4, 3)
    assert temperature_scale(logits, [0, 1, 2, 2.0]) > 0.0
    with pytest.raises(UsageError, match=r"labels must be integers in \[0, 3\)"):
        temperature_scale(logits, [0, 1, 2, bad])


# --------------------------------------------------------- point metrics


def test_point_metrics_known_values():
    exact = [rpred(2.0, 0.1, 2.0), rpred(-1.0, 0.1, -1.0)]
    assert regression_point_metrics(exact) == (0.0, 0.0)

    two = [rpred(2.0, 0.0, 1.0), rpred(4.0, 0.0, 2.0)]
    rmse, mape = regression_point_metrics(two)
    assert rmse == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert mape == pytest.approx(100.0, rel=1e-12)

    offset = [rpred(2.0, 0.0, 1.0), rpred(2.0, 0.0, 1.0), rpred(2.0, 0.0, 1.0)]
    rmse, mape = regression_point_metrics(offset)
    assert rmse == pytest.approx(1.0, rel=1e-12)
    assert mape == pytest.approx(100.0, rel=1e-12)


def test_point_metrics_zero_target_drops_mape():
    rmse, mape = regression_point_metrics([rpred(1.0, 0.0, 0.0), rpred(2.0, 0.0, 1.0)])
    assert mape is None
    assert rmse == pytest.approx(math.sqrt((1.0 + 1.0) / 2.0), rel=1e-12)


def test_point_metrics_match_bruteforce():
    rng = np.random.default_rng(71)
    for _ in range(30):
        preds, means, variances, targets = random_regression(rng)
        rmse, mape = regression_point_metrics(preds)
        assert abs(rmse - ref.ref_rmse(means.tolist(), targets.tolist())) <= 1e-12
        want_mape = ref.ref_mape(means.tolist(), targets.tolist())
        assert abs(mape - want_mape) <= 1e-9 * max(1.0, abs(want_mape))


def test_accuracy_matches_bruteforce():
    rng = np.random.default_rng(81)
    for _ in range(20):
        preds, probs, labels = random_classif(rng)
        assert accuracy(preds) == ref.ref_accuracy(probs.tolist(), labels.tolist())


def test_empty_inputs_rejected_everywhere():
    for metric in (accuracy, brier, nll, ece):
        with pytest.raises(UsageError):
            metric([])
    for metric in (uce, ence, regression_point_metrics):
        with pytest.raises(UsageError):
            metric([])
