"""Tests for the MLP: forward, manual backprop, optimizers, MC-dropout,
embeddings, and checkpoint round-trips.
"""

import copy
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from warpmix import (
    Layer,
    ModelState,
    OptimizerState,
    RngStream,
    UsageError,
    backward,
    embed,
    forward,
    init_mlp,
    load_model,
    mc_dropout_predict,
    optimizer_step,
    save_model,
)
from warpmix import model as model_module

from _support import central_diff_grads, max_rel_grad_error


def identity_layer(n):
    return Layer(weights=np.eye(n), biases=np.zeros(n), activation="identity")


def hand_221_model():
    """2-2-1 net with hand-set weights for pencil-and-paper checks."""
    l1 = Layer(
        weights=np.array([[1.0, -1.0], [2.0, 0.5]]),
        biases=np.array([0.5, -1.0]),
        activation="relu",
    )
    l2 = Layer(weights=np.array([[1.5], [-2.0]]), biases=np.array([0.25]))
    return ModelState(layers=[l1, l2], dropout_rate=0.0, mode="eval")


# ------------------------------------------------------------- model state


def test_model_state_validation():
    with pytest.raises(UsageError):
        ModelState(layers=[])
    with pytest.raises(UsageError):
        ModelState(layers=[identity_layer(2), identity_layer(3)])  # 2 -> 3 gap
    with pytest.raises(UsageError):
        Layer(weights=np.zeros((2, 3)), biases=np.zeros(2))
    with pytest.raises(UsageError):
        Layer(weights=np.zeros((2, 2)), biases=np.zeros(2), activation="tanh")
    with pytest.raises(UsageError):
        ModelState(layers=[identity_layer(2)], dropout_rate=1.0)
    with pytest.raises(UsageError):
        ModelState(layers=[identity_layer(2)], mode="predict")


def test_nonfinite_parameters_rejected():
    with pytest.raises(UsageError):
        ModelState(layers=[Layer(weights=np.array([[math.nan]]), biases=np.zeros(1))])


def test_init_mlp_shapes_and_bounds():
    model = init_mlp([7, 16, 16, 1], dropout_rate=0.2, rng=RngStream(0))
    assert model.dims == (7, 16, 16, 1)
    assert [l.activation for l in model.layers] == ["relu", "relu", "identity"]
    for layer in model.layers:
        fan_in = layer.weights.shape[0]
        assert np.all(np.abs(layer.weights) <= 1.0 / math.sqrt(fan_in))
        assert np.array_equal(layer.biases, np.zeros(layer.weights.shape[1]))


def test_init_mlp_deterministic():
    a = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(44))
    b = init_mlp([3, 8, 1], dropout_rate=0.0, rng=RngStream(44))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


# ----------------------------------------------------------------- forward


def test_zero_network_outputs_zero():
    layers = [
        Layer(weights=np.zeros((3, 4)), biases=np.zeros(4), activation="relu"),
        Layer(weights=np.zeros((4, 2)), biases=np.zeros(2)),
    ]
    model = ModelState(layers=layers, mode="eval")
    out, _ = forward(model, np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_single_identity_layer_passes_through():
    model = ModelState(layers=[identity_layer(4)], mode="eval")
    x = RngStream(1).standard_normal((6, 4))
    out, _ = forward(model, x)
    assert np.array_equal(out, x)


def test_hand_computed_221_forward():
    model = hand_221_model()
    out, _ = forward(model, np.array([[1.0, 2.0]]))
    # z1 = (5.5, -1) -> relu (5.5, 0) -> 5.5*1.5 + 0.25 = 8.5
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(8.5, abs=1e-15)
    out2, _ = forward(model, np.array([[-1.0, 0.0]]))
    # z1 = (-0.5, 0) -> relu (0, 0) -> bias only
    assert out2[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_one_dimensional_input_promoted():
    model = hand_221_model()
    out, _ = forward(model, np.array([1.0, 2.0]))
    assert out.shape == (1, 1) and out[0, 0] == pytest.approx(8.5)


def test_forward_dimension_mismatch():
    model = hand_221_model()
    with pytest.raises(UsageError):
        forward(model, np.zeros((3, 5)))


def test_train_mode_dropout_needs_rng():
    model = init_mlp([3, 6, 1], dropout_rate=0.5, rng=RngStream(0))
    with pytest.raises(UsageError):
        forward(model.train(), np.zeros((2, 3)))
    out, _ = forward(model.eval(), np.zeros((2, 3)))  # eval never needs one
    assert out.shape == (2, 1)


def test_dropout_masks_deterministic_per_seed():
    model = init_mlp([3, 8, 1], dropout_rate=0.4, rng=RngStream(7)).train()
    x = RngStream(8).standard_normal((10, 3))
    o1, c1 = forward(model, x, RngStream(5))
    o2, c2 = forward(model, x, RngStream(5))
    assert np.array_equal(o1, o2)
    assert np.array_equal(c1.records[0][2], c2.records[0][2])


def test_inverted_dropout_preserves_expectation():
    # linear network, so E[dropout forward] = eval forward exactly; the
    # empirical mean over many masks must land within Monte-Carlo error
    layers = [
        Layer(weights=np.array([[0.8], [-0.4]]), biases=np.array([0.3]), activation="identity"),
        Layer(weights=np.array([[1.7]]), biases=np.array([-0.2])),
    ]
    model = ModelState(layers=layers, dropout_rate=0.3, mode="eval")
    x = np.array([[1.0, 2.0]])
    target, _ = forward(model, x)
    reps = 40_000
    tiled = np.tile(x, (reps, 1))
    out, _ = forward(model.train(), tiled, RngStream(123))
    se = out.std(ddof=1) / math.sqrt(reps)
    assert abs(out.mean() - target[0, 0]) < 4.0 * se


# ---------------------------------------------------------------- backward


def test_zero_loss_grad_gives_zero_grads():
    model = init_mlp([4, 8, 2], dropout_rate=0.0, rng=RngStream(3)).eval()
    x = RngStream(4).standard_normal((6, 4))
    _, cache = forward(model, x)
    grads = backward(model, cache, np.zeros((6, 2)))
    for gw, gb in grads:
        assert not gw.any() and not gb.any()


def test_linear_single_layer_analytic_gradient():
    w, b, x, y = 1.7, -0.3, 2.0, 5.0
    model = ModelState(
        layers=[Layer(weights=np.array([[w]]), biases=np.array([b]))], mode="eval"
    )
    out, cache = forward(model, np.array([[x]]))
    resid = out[0, 0] - y
    grads = backward(model, cache, np.array([[2.0 * resid]]))
    assert grads[0][0][0, 0] == pytest.approx(2.0 * resid * x, rel=1e-15)
    assert grads[0][1][0] == pytest.approx(2.0 * resid, rel=1e-15)


def test_backward_matches_finite_differences():
    for seed in range(10):
        rng = RngStream(seed)
        depth = [
            [5, 8, 1],
            [3, 16, 7, 2],
            [4, 4, 1],
        ][seed % 3]
        model = init_mlp(depth, dropout_rate=0.0, rng=rng).eval()
        x = rng.standard_normal((7, depth[0]))
        y = rng.standard_normal((7, depth[-1]))

        def loss():
            out, _ = forward(model, x)
            return float(np.mean((out - y) ** 2))

        out, cache = forward(model, x)
        loss_grad = 2.0 * (out - y) / out.size
        analytic = backward(model, cache, loss_grad)
        numeric = central_diff_grads(loss, model)
        assert max_rel_grad_error(analytic, numeric) < 1e-4, seed


def test_backward_applies_cached_dropout_mask():
    # 1-1-1 identity chain: gradient of w1 must carry the recorded mask
    layers = [
        Layer(weights=np.array([[1.5]]), biases=np.zeros(1), activation="identity"),
        Layer(weights=np.array([[0.7]]), biases=np.zeros(1)),
    ]
    model = ModelState(layers=layers, dropout_rate=0.5, mode="train")
    x = np.array([[2.0]])
    out, cache = forward(model, x, RngStream(9))
    mask = cache.records[0][2][0, 0]
    grads = backward(model, cache, np.array([[1.0]]))
    assert grads[0][0][0, 0] == pytest.approx(0.7 * mask * 2.0, rel=1e-15)
    assert grads[1][0][0, 0] == pytest.approx(1.5 * 2.0 * mask, rel=1e-15)


def test_stale_cache_rejected():
    model = init_mlp([2, 4, 1], dropout_rate=0.0, rng=RngStream(0)).eval()
    x = np.ones((3, 2))
    out, cache = forward(model, x)
    opt = OptimizerState(kind="sgd_momentum", learning_rate=0.1)
    grads = backward(model, cache, np.ones((3, 1)))
    optimizer_step(opt, model, grads)
    with pytest.raises(UsageError):
        backward(model, cache, np.ones((3, 1)))


def test_backward_shape_check():
    model = init_mlp([2, 4, 1], dropout_rate=0.0, rng=RngStream(0)).eval()
    _, cache = forward(model, np.ones((3, 2)))
    with pytest.raises(UsageError):
        backward(model, cache, np.ones((3, 2)))


# ------------------------------------------------------------ packed params


def packed_models(tmp_path):
    built = init_mlp([3, 5, 4, 2], dropout_rate=0.1, rng=RngStream(6))
    path = str(tmp_path / "m.json")
    save_model(built, path)
    return {
        "init_mlp": built,
        "load_model": load_model(path),
        "hand_built": hand_221_model(),
        "copy": copy.copy(built),
        "deepcopy": copy.deepcopy(built),
        "pickle": pickle.loads(pickle.dumps(built)),
    }


@pytest.mark.parametrize(
    "source", ["init_mlp", "load_model", "hand_built", "copy", "deepcopy", "pickle"]
)
def test_layers_are_views_into_params(tmp_path, source):
    model = packed_models(tmp_path)[source]
    layers = model.layers
    assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
    weights_first = [layer.weights.ravel() for layer in layers] + [layer.biases for layer in layers]
    assert np.array_equal(model.params, np.concatenate(weights_first))
    assert model.num_weights == sum(layer.weights.size for layer in layers)
    for layer in layers:
        assert np.shares_memory(layer.weights, model.params)
        assert np.shares_memory(layer.biases, model.params)


def test_in_place_layer_edits_write_through():
    model = init_mlp([3, 5, 2], dropout_rate=0.0, rng=RngStream(6))
    model.layers[1].weights[2, 1] = 7.0
    model.layers[0].biases += 1.5
    assert model.params[15 + 2 * 2 + 1] == 7.0  # layer 1's weights follow layer 0's 15
    assert np.array_equal(model.params[model.num_weights : model.num_weights + 5], np.full(5, 1.5))
    model.params[-1] = -3.0
    assert model.layers[1].biases[-1] == -3.0


# --------------------------------------------------------------- optimizer


def one_param_model(value=1.0):
    return ModelState(
        layers=[Layer(weights=np.array([[value]]), biases=np.array([0.5]))], mode="eval"
    )


def grad_pair(gw, gb):
    return [(np.array([[gw]]), np.array([gb]))]


def test_sgd_zero_gradient_is_identity():
    model = one_param_model(2.0)
    opt = OptimizerState(kind="sgd_momentum", learning_rate=0.1, weight_decay=0.0)
    optimizer_step(opt, model, grad_pair(0.0, 0.0))
    assert model.layers[0].weights[0, 0] == 2.0
    assert model.layers[0].biases[0] == 0.5


def test_sgd_single_step():
    model = one_param_model(1.0)
    opt = OptimizerState(kind="sgd_momentum", learning_rate=0.1, momentum=0.0)
    optimizer_step(opt, model, grad_pair(1.0, 0.0))
    assert model.layers[0].weights[0, 0] == pytest.approx(0.9, rel=1e-15)


def test_sgd_momentum_accumulates():
    model = one_param_model(1.0)
    opt = OptimizerState(kind="sgd_momentum", learning_rate=0.1, momentum=0.9)
    optimizer_step(opt, model, grad_pair(1.0, 0.0))
    optimizer_step(opt, model, grad_pair(1.0, 0.0))
    # v1 = 1, v2 = 1.9 -> w = 1 - 0.1 - 0.19
    assert model.layers[0].weights[0, 0] == pytest.approx(0.71, rel=1e-12)


def test_adam_matches_scalar_recurrence():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    model = one_param_model(0.3)
    opt = OptimizerState(kind="adam", learning_rate=lr, beta1=b1, beta2=b2, eps=eps)

    w = 0.3
    m = v = 0.0
    for t, g in enumerate([0.4, -0.2], start=1):
        optimizer_step(opt, model, grad_pair(g, 0.0))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        assert model.layers[0].weights[0, 0] == pytest.approx(w, rel=1e-14), t


def test_weight_decay_decoupled_and_skips_biases():
    lr, wd = 0.1, 0.01
    model = one_param_model(2.0)
    opt = OptimizerState(kind="sgd_momentum", learning_rate=lr, momentum=0.0, weight_decay=wd)
    optimizer_step(opt, model, grad_pair(1.0, 1.0))
    stepped = 2.0 - lr * 1.0
    assert model.layers[0].weights[0, 0] == pytest.approx(stepped - lr * wd * stepped, rel=1e-15)
    assert model.layers[0].biases[0] == pytest.approx(0.5 - lr * 1.0, rel=1e-15)  # no decay


def test_zero_learning_rate_freezes_parameters():
    for kind in ("sgd_momentum", "adam"):
        model = one_param_model(1.5)
        opt = OptimizerState(kind=kind, learning_rate=0.0)
        optimizer_step(opt, model, grad_pair(3.0, -2.0))
        assert model.layers[0].weights[0, 0] == 1.5
        assert model.layers[0].biases[0] == 0.5


def test_optimizer_validation():
    with pytest.raises(UsageError):
        OptimizerState(kind="rmsprop")
    with pytest.raises(UsageError):
        OptimizerState(kind="adam", learning_rate=-0.1)
    model = one_param_model()
    opt = OptimizerState(kind="adam")
    with pytest.raises(UsageError):
        optimizer_step(opt, model, [(np.zeros((2, 2)), np.zeros(1))])


def test_optimizer_step_advances_model_counter():
    model = one_param_model()
    opt = OptimizerState(kind="adam", learning_rate=0.01)
    assert model.step_count == 0
    optimizer_step(opt, model, grad_pair(1.0, 1.0))
    assert model.step_count == 1 and opt.step == 1


@pytest.mark.parametrize("kind", ["sgd_momentum", "adam"])
def test_flat_update_matches_per_layer_reference(kind):
    # the regression workload's size puts each update array above 128 KiB
    for dims in ([4, 6, 3], [5, 128, 128, 1]):
        rng = RngStream(21)
        model = init_mlp(dims, dropout_rate=0.0, rng=rng)
        opt = OptimizerState(kind=kind, learning_rate=0.05, weight_decay=0.01)
        lr, wd, b1, b2 = opt.learning_rate, opt.weight_decay, opt.beta1, opt.beta2
        ref = [(layer.weights.copy(), layer.biases.copy()) for layer in model.layers]
        slots = [[np.zeros_like(a) for a in (w, b, w, b)] for w, b in ref]  # mw, mb, vw, vb
        for t in range(1, 8):
            if t == 4:  # a copy taken mid-run must continue like the original
                twin_opt, twin_model = copy.deepcopy(opt), copy.deepcopy(model)
            grads = [(rng.standard_normal(w.shape), rng.standard_normal(b.shape)) for w, b in ref]
            optimizer_step(opt, model, grads)
            if t >= 4:
                optimizer_step(twin_opt, twin_model, grads)
            # the per-layer update, written out
            for (w, b), (mw, mb, vw, vb), (gw, gb) in zip(ref, slots, grads):
                if kind == "sgd_momentum":
                    mw *= opt.momentum
                    mw += gw
                    mb *= opt.momentum
                    mb += gb
                    w -= lr * mw
                    b -= lr * mb
                else:
                    for m, v, g in ((mw, vw, gw), (mb, vb, gb)):
                        m *= b1
                        m += (1.0 - b1) * g
                        v *= b2
                        v += (1.0 - b2) * g**2
                    # PyTorch's order: one step size, the denominator scaled by 1/sqrt(correct2)
                    step, scale = lr / (1.0 - b1**t), 1.0 / math.sqrt(1.0 - b2**t)
                    w -= mw / (np.sqrt(vw) * scale + opt.eps) * step
                    b -= mb / (np.sqrt(vb) * scale + opt.eps) * step
                w -= lr * wd * w
        for layer, (w, b) in zip(model.layers, ref):
            assert np.array_equal(layer.weights, w) and np.array_equal(layer.biases, b)
        assert np.array_equal(twin_model.params, model.params)
        assert np.array_equal(twin_opt.slots, opt.slots) and twin_opt.step == opt.step


def test_optimizer_slots_follow_params_layout():
    grads = [(np.full((2, 2), 1.0), np.full(2, 2.0)), (np.full((2, 1), 3.0), np.full(1, 4.0))]
    model = hand_221_model()
    opt = OptimizerState(kind="adam", beta1=0.5)
    optimizer_step(opt, model, grads)
    assert opt.slots.shape == (2, model.params.size)
    # weights of both layers first, then biases of both layers
    assert np.array_equal(opt.slots[0], 0.5 * np.array([1, 1, 1, 1, 3, 3, 2, 2, 4.0]))
    sgd = OptimizerState(kind="sgd_momentum")
    optimizer_step(sgd, model, grads)
    assert sgd.slots.shape == (1, model.params.size)


# -------------------------------------------------------------- mc dropout


def test_mc_dropout_argument_checks():
    model = init_mlp([2, 4, 1], dropout_rate=0.2, rng=RngStream(0))
    with pytest.raises(UsageError):
        mc_dropout_predict(model, np.zeros((2, 2)), samples=1, rng=RngStream(1))
    no_dropout = init_mlp([2, 4, 1], dropout_rate=0.0, rng=RngStream(0))
    with pytest.raises(UsageError):
        mc_dropout_predict(no_dropout, np.zeros((2, 2)), samples=10, rng=RngStream(1))


def test_mc_dropout_zero_network():
    layers = [
        Layer(weights=np.zeros((2, 3)), biases=np.zeros(3), activation="relu"),
        Layer(weights=np.zeros((3, 1)), biases=np.zeros(1)),
    ]
    model = ModelState(layers=layers, dropout_rate=0.5)
    means, variances = mc_dropout_predict(model, np.ones((4, 2)), samples=20, rng=RngStream(2))
    assert np.array_equal(means, np.zeros((4, 1)))
    assert np.array_equal(variances, np.zeros((4, 1)))


def test_mc_dropout_bias_only_output_has_no_variance():
    layers = [
        Layer(weights=np.zeros((2, 3)), biases=np.zeros(3), activation="identity"),
        Layer(weights=np.ones((3, 1)), biases=np.array([0.7])),
    ]
    model = ModelState(layers=layers, dropout_rate=0.4)
    means, variances = mc_dropout_predict(model, np.ones((3, 2)), samples=25, rng=RngStream(3))
    assert np.allclose(means, 0.7, atol=0.0)
    # the mean of identical floats can sit one ulp off, leaving ~1e-32 dust
    assert np.all(variances < 1e-30)


def test_mc_dropout_single_unit_closed_form():
    # h = (w*x) * Bernoulli(keep)/keep, out = v*h:
    # mean = v*w*x, variance = (v*w*x)^2 (1-keep)/keep
    w, v, x, rate = 1.5, 0.8, 2.0, 0.2
    keep = 1.0 - rate
    layers = [
        Layer(weights=np.array([[w]]), biases=np.zeros(1), activation="identity"),
        Layer(weights=np.array([[v]]), biases=np.zeros(1)),
    ]
    model = ModelState(layers=layers, dropout_rate=rate)
    n = 10_000
    means, variances = mc_dropout_predict(model, np.array([[x]]), samples=n, rng=RngStream(17))
    true_mean = v * w * x
    true_var = true_mean**2 * (1.0 - keep) / keep
    # moments of the two-point output distribution give the standard errors
    a = true_mean / keep
    mu4 = keep * (a - true_mean) ** 4 + (1.0 - keep) * true_mean**4
    se_mean = math.sqrt(true_var / n)
    se_var = math.sqrt((mu4 - true_var**2) / n)
    assert abs(means[0, 0] - true_mean) < 3.0 * se_mean
    assert abs(variances[0, 0] - true_var) < 3.0 * se_var


def per_sample_forward_reference(model, inputs, samples, rng):
    """MC dropout as one train-mode ``forward`` per sample, stacked."""
    previous_mode = model.mode
    model.mode = "train"
    try:
        outs = np.stack([forward(model, inputs, rng)[0] for _ in range(samples)])
    finally:
        model.mode = previous_mode
    return outs.mean(axis=0), outs.var(axis=0, ddof=1)


def assert_mc_dropout_matches_reference(model, x, samples):
    """mc_dropout_predict against one train-mode forward per sample: the same
    bytes (signed zeros and NaN included) and the same next draw."""
    got_rng, want_rng = RngStream(6), RngStream(6)
    means, variances = mc_dropout_predict(model, x, samples=samples, rng=got_rng)
    want_means, want_variances = per_sample_forward_reference(model, x, samples, want_rng)
    assert means.shape == want_means.shape and means.dtype == np.float64
    assert means.tobytes() == want_means.tobytes() and variances.tobytes() == want_variances.tobytes()
    assert got_rng.uniform() == want_rng.uniform()  # both streams stopped at the same draw
    assert model.mode == "eval"
    return means, variances


MC_SHAPES = [
    ([5, 128, 128, 1], "relu", (301,)),  # the regression workload's test split
    ([3, 7, 2], "identity", (9,)),
    ([4, 6, 6, 1], "relu", ()),  # one 1-d input
    ([10, 64, 2], "relu", (100,)),  # the blobs_embed model
    ([4, 9, 5, 3, 1], "relu", (13,)),  # unequal widths, three hidden layers
    ([5, 8, 3], "identity", (1,)),
]
MC_SHAPE_IDS = ["regression_shape", "identity_hidden", "one_d_input", "blobs_embed_shape",
                "unequal_widths", "single_row"]


@pytest.mark.parametrize("dims, activation, rows", MC_SHAPES, ids=MC_SHAPE_IDS)
def test_mc_dropout_bit_equal_to_per_sample_forward(dims, activation, rows):
    model = init_mlp(dims, dropout_rate=0.2, rng=RngStream(4), hidden_activation=activation).eval()
    assert_mc_dropout_matches_reference(model, RngStream(5).standard_normal((*rows, dims[0])), 12)


@pytest.mark.parametrize("rate", [0.05, 1 / 3, 0.5, 0.9])
@pytest.mark.parametrize("dims, activation, rows", MC_SHAPES, ids=MC_SHAPE_IDS)
def test_mc_dropout_bit_equal_at_other_rates(dims, activation, rows, rate):
    model = init_mlp(dims, dropout_rate=rate, rng=RngStream(4), hidden_activation=activation).eval()
    assert_mc_dropout_matches_reference(model, RngStream(5).standard_normal((*rows, dims[0])), 12)


def test_mc_dropout_bit_equal_on_signed_zeros_and_non_finite_inputs():
    # identity hidden units keep their sign, so a dropped negative unit is -0.0;
    # an infinite unit times a dropped mask is NaN
    model = init_mlp([3, 6, 6, 2], dropout_rate=0.5, rng=RngStream(4), hidden_activation="identity").eval()
    x = np.array([[-0.0, -0.0, -0.0], [1.0, -2.0, 0.5], [np.inf, 1.0, 0.0], [np.nan, 0.0, 1.0],
                  [-np.inf, np.inf, 2.0], [-1e300, 1e300, -3.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        means, _ = assert_mc_dropout_matches_reference(model, x, 8)
    assert np.isnan(means[2:5]).all()


def test_mc_dropout_one_layer_model_is_deterministic():
    # dyadic weights and integer inputs: every output and every sum of
    # outputs is exact, so the mean is the output and the variance is 0
    layer = Layer(weights=np.array([[0.5, -1.25], [2.0, 0.25], [-0.75, 1.0]]), biases=np.array([0.125, -0.5]))
    model = ModelState(layers=[layer], dropout_rate=0.3, mode="eval")
    x = RngStream(5).integers(-3, 4, size=(7, 3)).astype(np.float64)
    rng, untouched = RngStream(6), RngStream(6)
    means, variances = mc_dropout_predict(model, x, samples=9, rng=rng)
    assert not variances.any()
    assert rng.uniform() == untouched.uniform()  # no draws consumed
    assert means.tobytes() == forward(model, x)[0].tobytes()
    assert_mc_dropout_matches_reference(model, x, 9)


# The passes run beside a drawer thread: an exception on either side reaches
# the caller, no thread outlives the call, and none leaves an unhandled-thread
# warning (pyproject.toml turns that warning into an error for every test).


class FailingStream:
    """An RngStream whose ``uniform`` raises ``exc`` on its ``fail_at``-th call."""

    def __init__(self, fail_at, exc):
        self.stream, self.calls, self.fail_at, self.exc = RngStream(6), 0, fail_at, exc

    def uniform(self, size=None, out=None):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.exc
        return self.stream.uniform(size, out)


@pytest.mark.parametrize("exc", [ValueError("draw failed"), MemoryError(), KeyboardInterrupt()],
                         ids=["value_error", "memory_error", "keyboard_interrupt"])
@pytest.mark.parametrize("fail_at", [1, 2, 7, 24])
def test_mc_dropout_raises_what_the_drawer_raised(exc, fail_at):
    model = init_mlp([4, 9, 5, 1], dropout_rate=0.2, rng=RngStream(4)).eval()
    threads = threading.active_count()
    rng = FailingStream(fail_at, exc)
    with pytest.raises(type(exc)) as raised:
        mc_dropout_predict(model, np.ones((3, 4)), samples=12, rng=rng)  # 24 draws: 2 per sample
    assert raised.value is exc
    assert threading.active_count() == threads


@pytest.mark.parametrize("exc", [RuntimeError("pass failed"), KeyboardInterrupt()],
                         ids=["runtime_error", "keyboard_interrupt"])
def test_mc_dropout_raises_what_a_pass_raised(monkeypatch, exc):
    model = init_mlp([4, 9, 5, 1], dropout_rate=0.2, rng=RngStream(4)).eval()
    propagate, calls = model_module._propagate, []

    def failing_propagate(*args, **kwargs):
        calls.append(kwargs.get("start", 0))
        if calls.count(1) == 4:  # the pass of sample 3
            raise exc
        return propagate(*args, **kwargs)

    monkeypatch.setattr(model_module, "_propagate", failing_propagate)
    threads = threading.active_count()
    with pytest.raises(type(exc)) as raised:
        mc_dropout_predict(model, np.ones((3, 4)), samples=12, rng=RngStream(6))
    assert raised.value is exc
    assert threading.active_count() == threads


def test_mc_dropout_leaves_no_thread_behind():
    model = init_mlp([4, 9, 5, 1], dropout_rate=0.2, rng=RngStream(4)).eval()
    threads = threading.active_count()
    for call in range(20):
        mc_dropout_predict(model, np.ones((3, 4)), samples=2 + call, rng=RngStream(call))
    assert threading.active_count() == threads


def test_mc_dropout_one_layer_model_without_a_stream_has_zero_variance():
    # nothing to draw, so no stream is needed; dyadic weights keep every sum exact
    layer = Layer(weights=np.array([[0.5, -1.25], [2.0, 0.25]]), biases=np.array([0.125, -0.5]))
    model = ModelState(layers=[layer], dropout_rate=0.3, mode="eval")
    x = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0]])
    means, variances = mc_dropout_predict(model, x, samples=6, rng=None)
    assert not variances.any() and not np.signbit(variances).any()
    assert means.tobytes() == forward(model, x)[0].tobytes()


def test_mc_dropout_concurrent_calls_under_fast_thread_switching():
    # more callers than cores, each with its own drawer, switching threads every
    # few bytecodes: a mask set handed over too early would change the bytes
    model = init_mlp([5, 32, 32, 1], dropout_rate=0.3, rng=RngStream(4)).eval()
    x = RngStream(5).standard_normal((20, 5))
    want = [per_sample_forward_reference(model, x, 30, RngStream(seed)) for seed in range(4)]
    got = [None] * 4

    def call(seed):
        for _ in range(5):
            got[seed] = mc_dropout_predict(model, x, samples=30, rng=RngStream(seed))
            if any(a.tobytes() != b.tobytes() for a, b in zip(got[seed], want[seed])):
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for (means, variances), (want_means, want_variances) in zip(got, want):
        assert means.tobytes() == want_means.tobytes() and variances.tobytes() == want_variances.tobytes()


@pytest.mark.parametrize("rate", [0.05, 0.2, 1 / 3, 0.5, 0.9])
def test_forward_mask_is_kept_over_keep(rate):
    model = init_mlp([4, 9, 5, 1], dropout_rate=rate, rng=RngStream(4)).train()
    _, cache = forward(model, RngStream(5).standard_normal((11, 4)), RngStream(6))
    draws = RngStream(6)
    keep = 1.0 - rate
    for k in range(2):
        want = (draws.uniform(size=(11, cache.records[k][2].shape[1])) < keep) / keep
        assert cache.records[k][2].tobytes() == want.tobytes()
    assert cache.records[2][2] is None


def test_mc_dropout_restores_mode():
    model = init_mlp([2, 4, 1], dropout_rate=0.3, rng=RngStream(0)).eval()
    mc_dropout_predict(model, np.zeros((2, 2)), samples=5, rng=RngStream(1))
    assert model.mode == "eval"


# ------------------------------------------------------------------- embed


def test_embed_identity_encoder():
    model = ModelState(layers=[identity_layer(3), identity_layer(3)], mode="eval")
    x = RngStream(5).standard_normal((4, 3))
    assert np.array_equal(embed(model, x), x)


def test_embed_zero_encoder():
    layers = [
        Layer(weights=np.zeros((3, 5)), biases=np.zeros(5), activation="relu"),
        Layer(weights=np.zeros((5, 1)), biases=np.zeros(1)),
    ]
    model = ModelState(layers=layers, mode="eval")
    assert np.array_equal(embed(model, np.ones((2, 3))), np.zeros((2, 5)))


def test_embed_hand_computed():
    model = hand_221_model()
    out = embed(model, np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[5.5, 0.0]], atol=0.0)


def test_embed_is_the_forward_prefix():
    model = init_mlp([3, 6, 5, 2], dropout_rate=0.3, rng=RngStream(8)).eval()
    x = RngStream(9).standard_normal((7, 3))
    _, cache = forward(model, x)
    assert np.array_equal(embed(model, x), cache.records[-1][0])  # input of the last layer


def test_embed_requires_two_layers():
    model = ModelState(layers=[identity_layer(2)], mode="eval")
    with pytest.raises(UsageError):
        embed(model, np.zeros((1, 2)))


def test_embed_deterministic_despite_dropout():
    model = init_mlp([3, 8, 1], dropout_rate=0.5, rng=RngStream(1)).train()
    x = RngStream(2).standard_normal((6, 3))
    assert np.array_equal(embed(model, x), embed(model, x))
    assert model.mode == "train"  # untouched


# ------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_exact(tmp_path):
    model = init_mlp([5, 16, 16, 1], dropout_rate=0.2, rng=RngStream(77))
    model.step_count = 42
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dims == model.dims
    assert loaded.dropout_rate == model.dropout_rate
    assert loaded.step_count == 42
    assert loaded.mode == "eval"
    for la, lb in zip(model.layers, loaded.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
        assert la.activation == lb.activation


def test_checkpoint_bytes_match_streamed_json_dump(tmp_path):
    model = init_mlp([2, 3, 1], dropout_rate=0.2, rng=RngStream(1))
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
    model.params[: len(extremes)] = extremes
    model.step_count = 9
    save_model(model, tmp_path / "m.json")
    payload = {
        "format": "warpmix-mlp-v1",
        "dropout_rate": 0.2,
        "step_count": 9,
        "layers": [
            {"activation": l.activation, "weights": l.weights.tolist(), "biases": l.biases.tolist()}
            for l in model.layers
        ],
    }
    with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    loaded = load_model(tmp_path / "m.json").params
    assert np.array_equal(loaded, model.params) and math.copysign(1.0, loaded[0]) == -1.0


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "some-other-format", "layers": []}')
    with pytest.raises(UsageError):
        load_model(path)


def test_checkpoint_outputs_identical(tmp_path):
    model = init_mlp([4, 8, 1], dropout_rate=0.1, rng=RngStream(3))
    x = RngStream(4).standard_normal((10, 4))
    want, _ = forward(model.eval(), x)
    save_model(model, tmp_path / "m.json")
    got, _ = forward(load_model(tmp_path / "m.json"), x)
    assert np.array_equal(want, got)
