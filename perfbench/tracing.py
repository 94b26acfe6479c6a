"""Spans around the calls into each warpmix layer, installed from outside.

The tracer replaces module-global names (the names the caller looks up at
call time) with timing wrappers, and RngStream draw methods with counting
wrappers, then puts every original back. A name that no longer exists is
listed in ``missing`` instead of failing, so a refactor that moves a
function costs only the metrics built on it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "warpmix"

# (module of the caller, global name the caller uses) for each traced layer.
TARGETS = (
    ("harness", "Batch"),
    ("harness", "mix_batch"),
    ("harness", "forward"),
    ("harness", "_loss_and_grad"),
    ("harness", "backward"),
    ("harness", "optimizer_step"),
    ("harness", "_plain_valid_loss"),
    ("harness", "split"),
    ("harness", "init_mlp"),
    ("harness", "mc_dropout_predict"),
    ("harness", "temperature_scale"),
    ("harness", "load_csv"),
    ("mixer", "beta_sample"),
    ("mixer", "batch_taus"),
    ("mixer", "extract_features"),
    ("mixer", "warp_pairwise"),
    ("warping", "incomplete_beta_reg"),
    ("model", "embed"),
)
RNG_METHODS = ("uniform", "standard_normal", "integers", "permutation")

# The stages of one training step, in loop order; a step ends when the
# optimizer update returns.
STEP_SPANS = (
    "harness.Batch",
    "harness.mix_batch",
    "harness.forward",
    "harness._loss_and_grad",
    "harness.backward",
    "harness.optimizer_step",
)
STEP_END = "harness.optimizer_step"

# (metric, stage span): each reported as p50 and p99 over training steps.
STAGE_METRICS = (
    ("harness.batch_us", "harness.Batch"),
    ("mixer.mix_batch_us", "harness.mix_batch"),
    ("model.forward_us", "harness.forward"),
    ("harness.loss_grad_us", "harness._loss_and_grad"),
    ("model.backward_us", "harness.backward"),
    ("model.optimizer_step_us", "harness.optimizer_step"),
)


class Tracer:
    """Calls, total time and self time per (phase, span), plus per-step times."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing = []
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top_total = defaultdict(float)  # phase -> time in outermost spans
        self.phase_wall = defaultdict(float)
        self.phase_runs = Counter()
        self.rng_calls = Counter()  # phase -> draw calls
        self.steps = 0
        self.per_step = defaultdict(list)  # stage span -> one time per step
        self.plans = []  # mix plans, while keep_plans is set
        self.keep_plans = True
        self._phase = None
        self._stack = []
        self._step = defaultdict(float)
        self._patched = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr in self.targets:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            original = module.__dict__.get(attr)
            if not callable(original):
                self.missing.append(name)
                continue
            observe = self._observe_mix if name == "harness.mix_batch" else None
            self._patch(module, attr, original, self._timed(name, original, observe))
        try:
            rng_cls = importlib.import_module(f"{PACKAGE}.rng").RngStream
        except (ImportError, AttributeError):
            self.missing.append("rng.RngStream")
            return
        for method in RNG_METHODS:
            original = rng_cls.__dict__.get(method)
            if not callable(original):
                self.missing.append(f"rng.RngStream.{method}")
                continue
            self._patch(rng_cls, method, original, self._counted(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute spans to ``name`` and time the whole phase."""
        self._phase = name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall[name] += time.perf_counter() - start
            self.phase_runs[name] += 1
            self._phase = None

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, observe):
        stack = self._stack

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._record(name, elapsed, frame[0], top=not stack)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.rng_calls[self._phase] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record(self, name, elapsed, child, top) -> None:
        key = (self._phase, name)
        self.calls[key] += 1
        self.total[key] += elapsed
        self.self_time[key] += elapsed - child
        if not top:
            return
        self.top_total[self._phase] += elapsed
        if self._phase != "train" or name not in STEP_SPANS:
            return
        self._step[name] += elapsed
        if name == STEP_END:
            for span in STEP_SPANS:
                self.per_step[span].append(self._step[span])
            self._step.clear()
            self.steps += 1

    def _observe_mix(self, mixed) -> None:
        if self.keep_plans:
            plan = getattr(mixed, "plan", None)
            if plan is not None:
                self.plans.append(plan)

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Deterministic counts so far, for per-step ratios."""
        return {
            "steps": self.steps,
            "incomplete_beta": self.calls[("train", "warping.incomplete_beta_reg")],
            "beta_sample": self.calls[("train", "mixer.beta_sample")],
            "rng": self.rng_calls["train"],
        }

    def metrics(self, counts: dict) -> dict:
        """Per-layer metrics as name -> (value, unit).

        ``counts`` is a :meth:`counts` snapshot taken at a fixed point of the
        run, so count ratios and the mixing regime do not depend on how many
        seeds fit in the time.
        """
        out = {}
        steps = max(self.steps, 1)

        def per_step_us(phase, name, table):
            return table[(phase, name)] / steps * 1e6

        def per_call(phase, name, scale):
            calls = self.calls[(phase, name)]
            return self.total[(phase, name)] / calls * scale if calls else 0.0

        def per_run_ms(phase, name):
            runs = self.phase_runs[phase]
            return self.total[(phase, name)] / runs * 1e3 if runs else 0.0

        for metric, span in STAGE_METRICS:
            times = np.asarray(self.per_step[span] or [0.0]) * 1e6
            out[metric + ".p50"] = (float(np.percentile(times, 50)), "us")
            out[metric + ".p99"] = (float(np.percentile(times, 99)), "us")

        out["mixer.self_us"] = (per_step_us("train", "harness.mix_batch", self.self_time), "us")
        out["warping.warp_pairwise_self_us"] = (
            per_step_us("train", "mixer.warp_pairwise", self.self_time), "us")
        out["similarity.batch_taus_us"] = (per_step_us("train", "mixer.batch_taus", self.total), "us")
        out["similarity.extract_features_us"] = (
            per_step_us("train", "mixer.extract_features", self.total), "us")
        out["model.embed_us"] = (per_step_us("train", "model.embed", self.total), "us")
        out["harness.self_us_per_step"] = (
            (self.phase_wall["train"] - self.top_total["train"]) / steps * 1e6, "us")
        out["special.incomplete_beta_us"] = (per_call("train", "warping.incomplete_beta_reg", 1e6), "us")
        out["special.beta_sample_us"] = (per_call("train", "mixer.beta_sample", 1e6), "us")

        fixed_steps = max(counts["steps"], 1)
        out["special.incomplete_beta_calls_per_step"] = (counts["incomplete_beta"] / fixed_steps, "count")
        out["special.beta_draws_per_step"] = (counts["beta_sample"] / fixed_steps, "count")
        out["rng.calls_per_step"] = (counts["rng"] / fixed_steps, "count")
        out.update(mixing_regime(self.plans))

        out["harness.valid_loss_ms"] = (per_call("train", "harness._plain_valid_loss", 1e3), "ms")
        out["model.init_mlp_ms"] = (per_call("train", "harness.init_mlp", 1e3), "ms")
        out["data.split_ms"] = (per_call("train", "harness.split", 1e3), "ms")
        out["data.load_csv_ms"] = (per_call("setup", "harness.load_csv", 1e3), "ms")
        out["model.mc_dropout_ms"] = (per_run_ms("eval", "harness.mc_dropout_predict"), "ms")
        out["metrics.temperature_scale_ms"] = (per_run_ms("eval", "harness.temperature_scale"), "ms")
        eval_runs = max(self.phase_runs["eval"], 1)
        out["metrics.calibration_ms"] = (
            (self.phase_wall["eval"] - self.top_total["eval"]) / eval_runs * 1e3, "ms")
        out["trace.missing"] = (float(len(self.missing)), "count")
        return out


def _tau_values(taus) -> np.ndarray:
    """Warp strengths as floats, from WarpParam lists or plain arrays."""
    if isinstance(taus, np.ndarray):
        return taus.astype(np.float64).ravel()
    values = [getattr(t, "value", t) for t in taus]
    return np.array([math.inf if v is None else v for v in values], dtype=np.float64)


def mixing_regime(plans) -> dict:
    """How strongly pairs mixed: tau quantiles and clamp shares per side, and
    the share of warped coefficients strictly inside (0.01, 0.99)."""
    try:
        special = importlib.import_module(f"{PACKAGE}.special")
    except ImportError:
        special = None
    shape_min = getattr(special, "SHAPE_MIN", 0.0)
    shape_max = getattr(special, "SHAPE_MAX", math.inf)
    out = {}
    coeffs = []
    for side, attr in (("input", "input_taus"), ("target", "target_taus")):
        taus = [_tau_values(getattr(p, attr)) for p in plans if hasattr(p, attr)]
        taus = np.concatenate(taus) if taus else np.ones(1)
        q05, q50, q95 = np.quantile(taus, [0.05, 0.5, 0.95])
        out[f"similarity.{side}_tau_q05"] = (float(q05), "1")
        out[f"similarity.{side}_tau_q50"] = (float(q50), "1")
        out[f"similarity.{side}_tau_q95"] = (float(q95), "1")
        clamped = (taus <= shape_min) | (taus >= shape_max)
        out[f"similarity.{side}_tau_clamped"] = (float(clamped.mean()), "frac")
    for plan in plans:
        for attr in ("input_coeffs", "target_coeffs"):
            if hasattr(plan, attr):
                coeffs.append(np.asarray(getattr(plan, attr), dtype=np.float64).ravel())
    coeffs = np.concatenate(coeffs) if coeffs else np.ones(1)
    inside = (coeffs > 0.01) & (coeffs < 0.99)
    out["mixer.interp_frac"] = (float(inside.mean()), "frac")
    return out
