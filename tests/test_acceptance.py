"""Acceptance gate.

Ten checks covering the reproduction targets, the numerical oracles, the
mixing-variant identities, and determinism. Each check prints a single
``[criterion NN] PASS/FAIL`` line (run ``pytest -s`` to see them on
success). The two checks bound to the airfoil benchmark CSV skip loudly
when the file is absent; see the README for how to provide it.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.special
import scipy.stats
from scipy.integrate import quad

from warpmix import (
    Batch,
    ExperimentConfig,
    KernelConfig,
    MixupConfig,
    RngStream,
    backward,
    beta_sample,
    forward,
    init_mlp,
    metrics_from_payload,
    mix_batch,
    normalized_distances,
    run_experiment,
    save_model,
    warp_pairwise,
)

from _support import central_diff_grads, ks_statistic, max_rel_grad_error, synth_blobs
import reference_metrics as ref


AIRFOIL_PATH = os.environ.get(
    "WARPMIX_AIRFOIL",
    os.path.join(os.path.dirname(__file__), "..", "data", "airfoil_self_noise.csv"),
)


def verdict(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} — {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def skip_missing_airfoil(num, label):
    if not os.path.isfile(AIRFOIL_PATH):
        why = (
            f"airfoil benchmark CSV not found at {AIRFOIL_PATH!r} "
            "(set WARPMIX_AIRFOIL or add data/airfoil_self_noise.csv; see README)"
        )
        print(f"[criterion {num:02d}] SKIP — {label}: {why}")
        pytest.skip(why)


def airfoil_config(mode):
    return ExperimentConfig({
        "dataset": {"path": AIRFOIL_PATH, "target_column": -1, "name": "airfoil"},
        "task": "regression",
        "seeds": list(range(10)),
        "model": {"hidden": [128, 128], "dropout_rate": 0.2},
        "optimizer": {"kind": "adam", "learning_rate": 0.01, "epochs": 100, "batch_size": 16},
        "mixup": {
            "mode": mode,
            "alpha": 0.5,
            "input_kernel": {"tau_max": 1e-4, "tau_std": 1.5, "backend": "raw_input"},
            "output_kernel": {"tau_max": 1e-4, "tau_std": 1.5, "backend": "label"},
        },
        "metrics": {"num_bins": 15, "mc_samples": 50},
    })


def test_criterion_01_airfoil_kernel_warped_beats_vanilla():
    label = "airfoil kernel-warped runs"
    skip_missing_airfoil(1, label)
    t0 = time.time()
    kernel = run_experiment(airfoil_config("kernel_warped")).report
    vanilla = run_experiment(airfoil_config("vanilla")).report
    minutes = (time.time() - t0) / 60.0
    rmse_k, mape_k = kernel.mean["rmse"], kernel.mean["mape"]
    rmse_v = vanilla.mean["rmse"]
    ok = rmse_k <= 3.1 and mape_k <= 2.0 and rmse_k <= rmse_v and minutes < 15.0
    verdict(1, label, ok,
            f"rmse={rmse_k:.3f} (<=3.1), mape={mape_k:.3f} (<=2.0), "
            f"vanilla rmse={rmse_v:.3f} (>= warped), {minutes:.1f} min (<15)")


def test_criterion_02_airfoil_erm_baseline_bracket():
    label = "airfoil unmixed baseline"
    skip_missing_airfoil(2, label)
    report = run_experiment(airfoil_config("off")).report
    rmse = report.mean["rmse"]
    verdict(2, label, 2.4 <= rmse <= 3.3, f"rmse={rmse:.3f} in [2.4, 3.3]")


def test_criterion_03_warped_uniform_draws_match_reference_shapes():
    label = "warped-coefficient distributions"
    n = 100_000
    stream = RngStream(2026)
    lam = np.array([beta_sample(1.0, stream) for _ in range(n)])
    d_half = ks_statistic(
        warp_pairwise(lam, np.full(n, 0.5)),
        lambda x: scipy.stats.beta.cdf(x, 2.1, 2.1),
    )
    lam2 = np.array([beta_sample(1.0, stream) for _ in range(n)])
    d_seven = ks_statistic(
        warp_pairwise(lam2, np.full(n, 7.0)),
        lambda x: scipy.stats.beta.cdf(x, 0.2, 0.2),
    )
    ok = d_half < 0.03 and d_seven < 0.03
    verdict(3, label, ok,
            f"KS(tau=0.5 vs Beta(2.1,2.1))={d_half:.4f}, "
            f"KS(tau=7 vs Beta(0.2,0.2))={d_seven:.4f} (< 0.03 at 1e5 samples)")


def quad_curve(tau, xs):
    """Cumulative Beta(tau, tau) integrals at the grid points by adaptive
    quadrature; tau < 1 integrates in u = t**tau to kill the edge
    singularity (right half by symmetry). ln B(tau, tau) comes from scipy,
    independent of the library."""
    lb = scipy.special.betaln(tau, tau)
    if tau >= 1.0:
        def f(t):
            return math.exp((tau - 1.0) * (math.log(t) + math.log1p(-t)) - lb)

        values, acc, prev = [0.0], 0.0, 0.0
        for x in xs[1:]:
            seg, _ = quad(f, prev, float(x), epsabs=1e-13, epsrel=1e-13, limit=200)
            acc, prev = acc + seg, float(x)
            values.append(acc)
        return np.array(values)

    def g(u):
        return math.exp(-lb) / tau * (1.0 - u ** (1.0 / tau)) ** (tau - 1.0)

    def left(x):
        total, prev = 0.0, 0.0
        for u in [xx ** tau for xx in np.linspace(0.0, x, 32)[1:]]:
            seg, _ = quad(g, prev, u, epsabs=1e-14, epsrel=1e-14, limit=200)
            total, prev = total + seg, u
        return total

    return np.array([left(x) if x <= 0.5 else 1.0 - left(1.0 - x) for x in xs])


def test_criterion_04_continued_fraction_matches_quadrature():
    label = "regularized-incomplete-beta accuracy"
    taus = (1e-3, 0.2, 1.0, 2.0, 7.0, 1e3)
    xs = np.linspace(0.0, 1.0, 168)  # 6 x 168 = 1008 grid points
    worst = 0.0
    for tau in taus:
        want = quad_curve(tau, xs)
        got = warp_pairwise(xs, np.full(xs.shape, tau))
        worst = max(worst, float(np.max(np.abs(got - want))))
    verdict(4, label, worst < 1e-9,
            f"max |cf - quadrature| = {worst:.3e} over {len(taus) * len(xs)} points (< 1e-9)")


def test_criterion_05_backward_matches_finite_differences():
    label = "analytic gradients vs central differences"
    worst = 0.0
    for trial in range(100):
        rng = RngStream(5000 + trial)
        d_in = int(rng.integers(2, 7))
        d_out = int(rng.integers(1, 4))
        hidden = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]
        model = init_mlp([d_in, *hidden, d_out], dropout_rate=0.0, rng=rng).eval()
        for layer in model.layers:
            # move pre-activations off the relu kink, where a finite
            # difference would straddle the non-differentiable point
            layer.biases += 0.1 * rng.standard_normal(layer.biases.shape)
        x = rng.standard_normal((5, d_in))
        y = rng.standard_normal((5, d_out))

        def loss():
            out, _ = forward(model, x)
            return float(np.mean((out - y) ** 2))

        out, cache = forward(model, x)
        analytic = backward(model, cache, 2.0 * (out - y) / out.size)
        numeric = central_diff_grads(loss, model)
        worst = max(worst, max_rel_grad_error(analytic, numeric))
    verdict(5, label, worst < 1e-4,
            f"max relative gradient error {worst:.3e} over 100 networks (< 1e-4)")


def random_classif_instance(rng):
    n = int(rng.integers(1, 201))
    c = int(rng.integers(2, 11))
    logits = 3.0 * rng.standard_normal((n, c))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, c, size=n)
    return probs, labels


def random_regression_instance(rng):
    n = int(rng.integers(1, 201))
    means = rng.standard_normal(n) * 3.0
    variances = np.exp(rng.standard_normal(n))
    targets = means + np.sqrt(variances) * rng.standard_normal(n)
    return means, variances, targets


def test_criterion_06_metrics_match_bruteforce_references():
    label = "calibration metrics vs brute-force references"
    worst = 0.0
    checked = 0
    rng = RngStream(6000)
    for _ in range(200):  # 200 instances x 5 metrics = 1000 checks
        bins = int(rng.integers(1, 21))
        probs, labels = random_classif_instance(rng)
        got = metrics_from_payload({"task": "classification", "num_bins": bins, "temperature": 1.0,
                                    "probs": probs, "labels": labels})
        probs, labels = probs.tolist(), labels.tolist()
        worst = max(worst, abs(got["ece"] - ref.ref_ece(probs, labels, bins)))
        worst = max(worst, abs(got["brier"] - ref.ref_brier(probs, labels)))
        worst = max(worst, abs(got["nll"] - ref.ref_nll(probs, labels)))
        checked += 3

        vbins = int(rng.integers(1, 21))
        means, variances, targets = random_regression_instance(rng)
        got = metrics_from_payload({"task": "regression", "num_bins": vbins, "means": means,
                                    "variances": variances, "targets": targets})
        means, variances, targets = means.tolist(), variances.tolist(), targets.tolist()
        worst = max(worst, abs(got["uce"] - ref.ref_uce(means, variances, targets, vbins)))
        got_e = got["ence"]
        want_e = ref.ref_ence(means, variances, targets, vbins)
        if math.isinf(want_e):
            assert math.isinf(got_e)
        else:
            worst = max(worst, abs(got_e - want_e))
        checked += 2
    verdict(6, label, worst <= 1e-12 and checked == 1000,
            f"max |impl - reference| = {worst:.3e} over {checked} instances (<= 1e-12)")


def test_criterion_07_pair_distance_normalization():
    label = "batch-normalized pair distances"
    rng = RngStream(7000)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        d = int(rng.integers(1, 65))
        points = rng.standard_normal((n, d))
        dbar = normalized_distances(points, rng.permutation(n))
        worst = max(worst, abs(float(dbar.mean()) - 1.0))
    verdict(7, label, worst <= 1e-9,
            f"max |mean(dbar) - 1| = {worst:.3e} over 1000 batches (<= 1e-9)")


def test_criterion_08_mode_limit_identities():
    label = "mixing-variant identities"
    rng = RngStream(8000)
    x = rng.standard_normal((64, 7))
    y = rng.standard_normal(64)
    batch = Batch(inputs=x, targets=y)
    # a flat kernel (huge std) yields tau exactly 1 for every pair
    flat_in = KernelConfig(tau_max=1.0, tau_std=1e10, backend="raw_input")
    flat_out = KernelConfig(tau_max=1.0, tau_std=1e10, backend="label")

    bit_equal = True
    for seed in range(5):
        v = mix_batch(batch, MixupConfig(alpha=0.7, mode="vanilla"), RngStream(seed))
        k = mix_batch(
            batch,
            MixupConfig(alpha=0.7, mode="kernel_warped",
                        input_kernel=flat_in, output_kernel=flat_out),
            RngStream(seed),
        )
        bit_equal &= np.array_equal(v.inputs, k.inputs)
        bit_equal &= np.array_equal(v.mixed_targets, k.mixed_targets)

    io = mix_batch(
        batch,
        MixupConfig(alpha=0.7, mode="input_only",
                    input_kernel=flat_in, output_kernel=flat_out),
        RngStream(0),
    )
    io_targets_pure = bool(np.isin(io.plan.target_coeffs, (0.0, 1.0)).all())

    to = mix_batch(
        batch,
        MixupConfig(alpha=0.7, mode="target_only",
                    input_kernel=flat_in, output_kernel=flat_out),
        RngStream(0),
    )
    to_inputs_pure = all(
        np.array_equal(to.inputs[i], x[i])
        or np.array_equal(to.inputs[i], x[to.plan.permutation[i]])
        for i in range(64)
    )
    ok = bit_equal and io_targets_pure and to_inputs_pure
    verdict(8, label, ok,
            f"vanilla==flat-kernel bitwise: {bit_equal}; input-only target coeffs in {{0,1}}: "
            f"{io_targets_pure}; target-only inputs unmixed: {to_inputs_pure}")


def test_criterion_09_blobs_classification_end_to_end():
    label = "synthetic-blobs classification (embedding kernel)"
    data = synth_blobs(n=2000, d=10, classes=2, seed=0, sep=2.0)

    def config(mode):
        return ExperimentConfig({
            "task": "classification", "num_classes": 2, "seeds": [0, 1, 2, 3, 4],
            "model": {"hidden": [64], "dropout_rate": 0.2},
            "optimizer": {"learning_rate": 0.01, "epochs": 50, "batch_size": 16},
            "mixup": {
                "mode": mode, "alpha": 1.0,
                "input_kernel": {"tau_max": 2.0, "tau_std": 1.0, "backend": "embedding"},
                "output_kernel": {"tau_max": 2.0, "tau_std": 1.0, "backend": "embedding"},
            },
            "metrics": {"num_bins": 15, "mc_samples": 50},
        })

    erm = run_experiment(config("off"), dataset=data).report
    warped = run_experiment(config("kernel_warped"), dataset=data).report
    acc_ok = warped.mean["accuracy"] >= erm.mean["accuracy"] - 0.01
    ece_ok = warped.mean["ece"] <= 2.0 * erm.mean["ece"]
    verdict(9, label, acc_ok and ece_ok,
            f"accuracy {warped.mean['accuracy']:.4f} vs baseline {erm.mean['accuracy']:.4f} "
            f"(>= -1pp), ece {warped.mean['ece']:.4f} vs {erm.mean['ece']:.4f} (<= 2x)")


def test_criterion_10_training_is_bit_deterministic(tmp_path):
    label = "repeat-run determinism"
    data = synth_blobs(n=300, d=5, classes=3, seed=3, sep=3.0)
    config = ExperimentConfig({
        "task": "classification", "num_classes": 3, "seeds": [0, 1],
        "model": {"hidden": [16], "dropout_rate": 0.2},
        "optimizer": {"learning_rate": 0.01, "epochs": 5, "batch_size": 16},
        "mixup": {
            "mode": "kernel_warped", "alpha": 0.5,
            "input_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "raw_input"},
            "output_kernel": {"tau_max": 1.0, "tau_std": 1.0, "backend": "class_weight"},
        },
        "metrics": {"num_bins": 10, "mc_samples": 20},
    })
    a = run_experiment(config, dataset=data)
    b = run_experiment(config, dataset=data)

    checkpoints_equal = True
    for seed in (0, 1):
        pa, pb = tmp_path / f"a{seed}.json", tmp_path / f"b{seed}.json"
        save_model(a.train_results[seed].model, str(pa))
        save_model(b.train_results[seed].model, str(pb))
        checkpoints_equal &= pa.read_bytes() == pb.read_bytes()

    ra, rb = a.report.to_json(), b.report.to_json()
    import json as _json

    da, db = _json.loads(ra), _json.loads(rb)
    da.pop("duration_s"), db.pop("duration_s")
    reports_equal = da == db
    verdict(10, label, checkpoints_equal and reports_equal,
            f"checkpoints byte-identical: {checkpoints_equal}; "
            f"reports identical (duration masked): {reports_equal}")
