"""A small fully connected network with manual backpropagation.

Plain numpy, nothing clever: affine layers, ReLU or identity activations,
inverted dropout after each hidden activation, SGD with momentum or Adam,
and MC-Dropout predictive mean/variance. Enough model to train the tabular
regression and synthetic classification experiments on a CPU.

All parameters live in one float64 vector, ``ModelState.params``: every
layer's weights (row-major), then every layer's biases, so decoupled weight
decay is one prefix slice. ``Layer.weights`` and ``Layer.biases`` are
reshape views into it, so in-place layer edits write through. Gradients
and optimizer slots use the same layout; each update is whole-vector.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DatasetError, UsageError, check_int, check_real
from .rng import RngStream

__all__ = [
    "Layer",
    "ModelState",
    "OptimizerState",
    "init_mlp",
    "forward",
    "backward",
    "optimizer_step",
    "mc_dropout_predict",
    "embed",
    "save_model",
    "load_model",
]

ACTIVATIONS = ("relu", "identity")
CHECKPOINT_FORMAT = "warpmix-mlp-v1"


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    biases: np.ndarray  # (fan_out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[1],):
            raise UsageError(
                f"layer shapes inconsistent: weights {self.weights.shape}, biases {self.biases.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")


def check_dropout_rate(rate, name: str = "dropout_rate") -> float:
    """The rule every model's dropout rate obeys: a real number in [0, 1),
    returned as a float."""
    return check_real(rate, name, "in [0, 1)", lambda v: 0.0 <= v < 1.0)


@dataclass
class ModelState:
    layers: list
    dropout_rate: float = 0.0
    mode: str = "train"
    step_count: int = 0
    # set by __post_init__: all weights, then all biases; the layers view into it
    params: np.ndarray = field(init=False, repr=False, compare=False)
    num_weights: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise UsageError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weights.shape[1] != nxt.weights.shape[0]:
                raise UsageError("consecutive layer dimensions do not chain")
        self.params = np.concatenate(
            [layer.weights.ravel() for layer in self.layers] + [layer.biases for layer in self.layers])
        if not np.isfinite(self.params).all():
            raise UsageError("layer parameters must be finite")
        for layer, (w, b) in zip(self.layers, _layer_views(self.params, self.layers)):
            layer.weights, layer.biases = w, b
        self.num_weights = sum(layer.weights.size for layer in self.layers)
        self.dropout_rate = check_dropout_rate(self.dropout_rate)
        self.step_count = check_int(self.step_count, "step_count", 0)
        if self.mode not in ("train", "eval"):
            raise UsageError(f"mode must be train or eval, got {self.mode!r}")

    def __setstate__(self, state):
        # deepcopy and pickle copy each array alone: re-pack the layers as
        # views; a shallow copy still shares them and must not rebind them
        self.__dict__.update(state)
        if not np.may_share_memory(self.layers[0].weights, self.params):
            self.__post_init__()

    @property
    def dims(self) -> tuple:
        return (self.layers[0].weights.shape[0],) + tuple(l.weights.shape[1] for l in self.layers)

    def train(self) -> "ModelState":
        self.mode = "train"
        return self

    def eval(self) -> "ModelState":
        self.mode = "eval"
        return self


def _layer_views(flat: np.ndarray, layers) -> list:
    """Per-layer (weights, biases) views into a vector in the params layout."""
    sizes = [layer.weights.size for layer in layers] + [layer.biases.size for layer in layers]
    chunks = np.split(flat, np.cumsum(sizes)[:-1])
    return [(w.reshape(layer.weights.shape), b) for layer, w, b in zip(layers, chunks, chunks[len(layers) :])]


@dataclass
class ForwardCache:
    # one (layer_input, pre_activation, dropout_mask) triple per layer
    records: list
    step_count: int


def init_mlp(dims, dropout_rate: float, rng: RngStream, hidden_activation: str = "relu") -> ModelState:
    """A network of layer sizes ``dims`` (inputs first, at least 2 sizes,
    each an integer >= 1 by the package's integer rule) and ``dropout_rate``
    (a real number in [0, 1)); anything else raises UsageError naming it.

    Weight init: U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero. Draw
    order is layer by layer, weights only, so a fixed stream gives fixed
    parameters."""
    dims = [check_int(d, "dims", 1) for d in dims]
    if len(dims) < 2:
        raise UsageError(f"dims must list >= 2 sizes, got {dims}")
    layers = []
    for k, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        bound = 1.0 / math.sqrt(fan_in)
        weights = (rng.uniform(size=(fan_in, fan_out)) * 2.0 - 1.0) * bound
        act = hidden_activation if k < len(dims) - 2 else "identity"
        layers.append(Layer(weights=weights, biases=np.zeros(fan_out), activation=act))
    return ModelState(layers=layers, dropout_rate=dropout_rate)


def _propagate(model: ModelState, inputs, depth: int, masks=None, buffers=None, start: int = 0):
    """The layer loop of ``forward``, ``embed`` and ``mc_dropout_predict``:
    the inputs through the first ``depth`` layers, with dropout after each
    hidden layer if the pass's kept ``masks`` are given, as ``_draw_masks``
    draws them before the pass. Returns the activations and the per-layer
    records. ``start`` resumes a pass after its first ``start`` layers:
    ``inputs`` are then layer ``start - 1``'s activations before dropout, as
    ``_propagate(model, x, start)`` returns them. ``buffers`` (from
    ``_layer_buffers``) makes the pass write each layer's activations into
    its buffer instead of allocating new ones, with relu and dropout applied
    in place; such a pass keeps no masks and its records are not for
    ``backward``."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    first = max(start - 1, 0)
    fan_in = model.layers[first].biases.size if start else model.layers[0].weights.shape[0]
    if x.ndim != 2 or x.shape[1] != fan_in:
        raise UsageError(f"inputs of shape {x.shape} do not match layer {start} fan-in {fan_in}")
    scale = 1.0 / (1.0 - model.dropout_rate)  # kept * scale is bit-equal to kept / keep
    acts = x
    records = []
    last = len(model.layers) - 1
    for k in range(first, depth):
        layer = model.layers[k]
        out = buffers[k] if buffers else None
        if k < start:  # ``inputs`` are this layer's activations
            z = h = acts
        else:
            z = np.matmul(acts, layer.weights, out=out)
            z += layer.biases
            h = np.maximum(z, 0.0, out=out) if layer.activation == "relu" else z
        mask = None
        if masks is not None and k < last:
            if buffers:  # (h * kept) * scale is bit-equal to h * (kept * scale)
                h = np.multiply(h, masks[k], out=out)
                h *= scale
            else:
                mask = np.multiply(masks[k], scale)
                h = h * mask
        records.append((acts, z, mask))
        acts = h
    return acts, records


def _draw_masks(model: ModelState, rows: int, rng: Optional[RngStream], out=None,
                uniforms=None) -> Optional[list]:
    """The kept masks of one dropout pass over ``rows`` inputs: one bool
    array per hidden layer, in layer order, each ``u < keep`` for uniforms
    ``u`` drawn from ``rng``. None without ``rng``. ``out`` lists one bool
    array per hidden layer to draw them into, and ``uniforms`` one float64
    array per hidden layer to draw the uniforms into; each of these arrays
    has at least ``rows`` rows, and its first ``rows`` are written."""
    keep = 1.0 - model.dropout_rate
    return rng and [np.less(rng.uniform(size=(rows, layer.biases.size),
                                        out=uniforms[k][:rows] if uniforms else None),
                            keep, out=out[k][:rows] if out else None)
                    for k, layer in enumerate(model.layers[:-1])]


def _layer_buffers(model: ModelState, rows: int) -> list:
    """One activations array per layer for ``rows`` inputs."""
    return [np.empty((rows, layer.biases.size)) for layer in model.layers]


def forward(model: ModelState, inputs, rng: Optional[RngStream] = None):
    """Run the network; returns (outputs, cache) with cache usable by backward.

    Dropout is active only in train mode with a positive rate, uses inverted
    scaling (kept units times 1 / keep probability), and draws one mask
    per hidden layer from ``rng`` in layer order, before the pass.
    """
    x = np.asarray(inputs, dtype=np.float64)
    return _forward(model, x, _draw_masks(model, len(x) if x.ndim == 2 else 1, _dropout_stream(model, rng)))


def _dropout_stream(model: ModelState, rng: Optional[RngStream]) -> Optional[RngStream]:
    """``rng`` if a forward pass of ``model`` applies dropout now, else None."""
    use_dropout = model.mode == "train" and model.dropout_rate > 0.0 and len(model.layers) > 1
    if use_dropout and rng is None:
        raise UsageError("train-mode forward with dropout needs an rng stream")
    return rng if use_dropout else None


def _forward(model: ModelState, inputs, masks: Optional[list]):
    """forward with the pass's kept masks, as ``_draw_masks`` returns them."""
    acts, records = _propagate(model, inputs, len(model.layers), masks)
    return acts, ForwardCache(records=records, step_count=model.step_count)


def backward(model: ModelState, cache: ForwardCache, loss_grad):
    """Gradients of the loss in all parameters, under the cached masks.

    Returns one (weight_grad, bias_grad) pair per layer. Refuses a cache
    recorded at a different optimizer step than the model is at now.
    """
    if cache.step_count != model.step_count:
        raise UsageError(
            f"stale cache: recorded at step {cache.step_count}, model is at {model.step_count}"
        )
    delta = np.asarray(loss_grad, dtype=np.float64)
    n_out = model.layers[-1].weights.shape[1]
    if delta.ndim != 2 or delta.shape[1] != n_out or delta.shape[0] != cache.records[0][0].shape[0]:
        raise UsageError(f"loss gradient shape {delta.shape} does not match outputs")
    grads = [(np.empty_like(layer.weights), np.empty_like(layer.biases)) for layer in model.layers]
    _backward(model, cache, delta, grads)
    return grads


def _backward(model: ModelState, cache: ForwardCache, delta: np.ndarray, grads: list) -> None:
    """backward for a float64 (n, outputs) loss gradient, unchecked, writing
    each layer's gradients into the arrays of its pair in ``grads``."""
    for k in range(len(model.layers) - 1, -1, -1):
        layer_in, z, mask = cache.records[k]
        layer = model.layers[k]
        if mask is not None:
            delta = delta * mask
        if layer.activation == "relu":
            delta = delta * (z > 0.0)
        np.matmul(layer_in.T, delta, out=grads[k][0])
        delta.sum(axis=0, out=grads[k][1])
        if k > 0:
            delta = delta @ layer.weights.T


@dataclass
class OptimizerState:
    """SGD with momentum, or Adam with bias correction.

    Weight decay is decoupled (applied directly to weights, scaled by the
    learning rate, never to biases). ``slots`` holds the moment vectors in
    the params layout: one row (velocity) for SGD, two (m, v) for Adam.
    Each rate and coefficient must be a finite Python or numpy int or float
    (never a bool or a string) and is stored as a float; ``step`` is an
    integer >= 0. Anything else raises UsageError naming the field.
    """

    kind: str = "adam"
    learning_rate: float = 0.01
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    slots: Optional[np.ndarray] = field(default=None, repr=False)
    # (3, P) scratch for the packed gradient and the update's temporaries,
    # reused on every step for the same reason as mc_dropout_predict's buffers
    _work: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("sgd_momentum", "adam"):
            raise UsageError(f"unknown optimizer kind {self.kind!r}")
        for name, rule, ok in (
            ("learning_rate", ">= 0", lambda v: v >= 0.0),
            ("momentum", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("beta1", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("beta2", "in [0, 1)", lambda v: 0.0 <= v < 1.0),
            ("eps", "> 0", lambda v: v > 0.0),
            ("weight_decay", ">= 0", lambda v: v >= 0.0),
        ):
            setattr(self, name, check_real(getattr(self, name), f"optimizer.{name}", rule, ok))
        self.step = check_int(self.step, "optimizer.step", 0)


def optimizer_step(opt: OptimizerState, model: ModelState, grads) -> None:
    """Apply one parameter update in place; bumps the model's step counter."""
    if len(grads) != len(model.layers):
        raise UsageError(f"got {len(grads)} gradient pairs for {len(model.layers)} layers")
    for layer, (gw, gb) in zip(model.layers, grads):
        if gw.shape != layer.weights.shape or gb.shape != layer.biases.shape:
            raise UsageError("gradient shapes do not match parameters")
    for (gw, gb), (packed_w, packed_b) in zip(grads, _gradient_views(opt, model)):
        packed_w[...], packed_b[...] = gw, gb
    _optimizer_step(opt, model)


def _gradient_views(opt: OptimizerState, model: ModelState) -> list:
    """Per-layer (weight_grad, bias_grad) views into the packed gradient row
    ``opt._work[0]``, made on first use: ``_backward`` writes into them, then
    ``_optimizer_step`` reads the row."""
    if opt._work is None or opt._work.shape[1] != model.params.size:
        opt._work = np.empty((3, model.params.size))
    return _layer_views(opt._work[0], model.layers)


def _optimizer_step(opt: OptimizerState, model: ModelState) -> None:
    """optimizer_step on the gradient already packed into ``opt._work[0]``."""
    g, tmp, tmp2 = opt._work
    if opt.slots is None:
        opt.slots = np.zeros((1 if opt.kind == "sgd_momentum" else 2, g.size))

    lr = opt.learning_rate
    params = model.params
    opt.step += 1
    if opt.kind == "sgd_momentum":
        velocity = opt.slots[0]
        velocity *= opt.momentum
        velocity += g
        params -= np.multiply(lr, velocity, out=tmp)
    else:  # adam in PyTorch's order, with c1 = 1 - beta1^t and c2 = 1 - beta2^t:
        # params -= m / (sqrt(v) * (1 / sqrt(c2)) + eps) * (lr / c1)
        m, v = opt.slots
        m *= opt.beta1
        m += np.multiply(1.0 - opt.beta1, g, out=tmp)
        v *= opt.beta2
        v += np.multiply(1.0 - opt.beta2, np.square(g, out=tmp), out=tmp)
        np.sqrt(v, out=tmp2)
        tmp2 *= 1.0 / math.sqrt(1.0 - opt.beta2**opt.step)
        tmp2 += opt.eps
        np.divide(m, tmp2, out=tmp)
        tmp *= lr / (1.0 - opt.beta1**opt.step)
        params -= tmp
    if opt.weight_decay:
        weights = params[: model.num_weights]
        weights -= np.multiply(lr * opt.weight_decay, weights, out=tmp[: model.num_weights])
    model.step_count += 1


def mc_dropout_predict(model: ModelState, inputs, samples: int, rng: RngStream):
    """Monte-Carlo dropout: repeated stochastic passes with dropout active.

    Returns the per-input sample mean and unbiased sample variance of the
    outputs, each shaped like one forward output. ``samples`` is an integer
    >= 2 by the package's integer rule (an integral float or a numpy
    integer counts as its integer); anything else raises UsageError naming
    it. Bit-equal to one
    train-mode ``forward`` per sample, with the same draws in the same
    order. Layer 0 before dropout is computed once. The passes then run as
    two stages over two mask sets: a drawer thread draws each sample's
    masks from ``rng``, sample by sample and layer by layer, into one set,
    while the calling thread resumes the layer loop from layer 0 on the
    previous sample's set, with relu and masks applied in place. Only the
    drawer touches ``rng``, so its draws do not depend on thread timing.
    The drawer is joined before the call returns or raises; an exception
    it raised is raised here.
    """
    if model.dropout_rate <= 0.0:
        raise UsageError("mc_dropout_predict needs a positive dropout rate")
    samples = check_int(samples, "samples", 2)
    if rng is None and len(model.layers) > 1:
        raise UsageError("train-mode forward with dropout needs an rng stream")
    # every pass writes into the same buffers: arrays this size would
    # otherwise go back to the OS on each free and be faulted in again
    first = _propagate(model, inputs, 1)[0]
    buffers = _layer_buffers(model, first.shape[0])
    kept = [[np.empty_like(acts, dtype=bool) for acts in buffers[:-1]] for _ in range(2)]
    # the drawer allocates nothing: a thread's allocations would grow a malloc arena of its own
    flat = np.empty(max([acts.size for acts in buffers[:-1]], default=0))
    uniforms = [flat[: acts.size].reshape(acts.shape) for acts in buffers[:-1]]
    outs = np.empty((samples, first.shape[0], model.layers[-1].biases.size))
    # sample s uses set s % 2: ``free`` counts the sets the drawer may fill,
    # ``ready`` the filled sets the caller has not yet run
    free, ready = threading.Semaphore(2), threading.Semaphore(0)
    stop, failure = [], []

    def draw():
        try:
            for s in range(samples):
                free.acquire()
                if stop:
                    return
                _draw_masks(model, len(first), rng, kept[s % 2], uniforms)
                ready.release()
        except BaseException as exc:  # the caller re-raises it after the join
            failure.append(exc)
            ready.release()

    drawer = threading.Thread(target=draw, name="mc-dropout-drawer")
    drawer.start()
    try:
        for s in range(samples):
            ready.acquire()
            if failure:
                break
            outs[s] = _propagate(model, first, len(model.layers), kept[s % 2], buffers, start=1)[0]
            free.release()
    finally:
        stop.append(True)
        free.release()  # wakes a drawer waiting for a set, which then sees ``stop``
        drawer.join()
    if failure:
        raise failure[0]
    return outs.mean(axis=0), outs.var(axis=0, ddof=1)


def embed(model: ModelState, inputs) -> np.ndarray:
    """Deterministic activations entering the final layer (no dropout)."""
    if len(model.layers) < 2:
        raise UsageError("embedding needs a model with at least 2 layers")
    return _propagate(model, inputs, len(model.layers) - 1)[0]


def save_model(model: ModelState, path) -> None:
    """Write a checkpoint as JSON; floats survive the round trip bit-exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "dropout_rate": model.dropout_rate,
        "step_count": model.step_count,
        "layers": [
            {
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
            }
            for layer in model.layers
        ],
    }
    text = json.dumps(payload)  # the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path) -> ModelState:
    """Read a checkpoint written by ``save_model``. A missing file raises
    DatasetError (code ``missing_file``); any other unreadable checkpoint,
    UsageError."""
    if not os.path.isfile(path):
        raise DatasetError(f"checkpoint file not found: {path}", code="missing_file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"checkpoint {path!r} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise UsageError(f"{path!r} is not a {CHECKPOINT_FORMAT} checkpoint")
    try:
        layers = [
            Layer(weights=spec["weights"], biases=spec["biases"], activation=spec["activation"])
            for spec in payload["layers"]
        ]
        return ModelState(
            layers=layers,
            dropout_rate=payload["dropout_rate"],
            mode="eval",
            step_count=payload.get("step_count", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"checkpoint {path!r} is malformed: {exc!r}") from None
