"""warpmix benchmark: one workload, end-to-end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload reg_warped --seed 1 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ``src/`` next to
this directory, never from an installed copy. The workload seed makes the
input CSV; training seeds 0, 1, 2, ... follow one another until the time is
up. The first ``MIN_SEEDS`` seeds always run, and every quality figure and
count is taken from them, so those repeat exactly for a given workload seed.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it is a JSON report with the environment, every check and
the figures behind each metric.
"""

import os

# BLAS threads are pinned before numpy loads; set-up probes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

import numpy as np

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_SEEDS = 4
SETUP_REPEATS = 9
# reference_s() on the machine of the first baseline (a 2-vCPU 2.1 GHz Xeon
# VM). setup_s is reported in seconds at that reference speed.
REF_S = 0.035


def import_warpmix():
    """Import the checkout's warpmix, or exit with an error when there is none."""
    if not os.path.isfile(os.path.join(SRC, "warpmix", "__init__.py")):
        sys.exit(f"error: no warpmix sources under {SRC}; run from a source checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import warpmix

    if not os.path.abspath(warpmix.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported warpmix from {warpmix.__file__}, not from {SRC}")
    return warpmix


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, train_seeds):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": workload,
        "workload_seed": seed,
        "train_seeds": train_seeds,
    }


def setup_time(config_values):
    """Seconds to import warpmix, build the config and load the dataset, in a
    fresh interpreter, as a user's first call pays them."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, json.dumps(config_values)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def reference_s():
    """Seconds for a fixed computation that never touches warpmix, shaped
    like a training step: small matrix products, an Adam-like update of a
    128x128 array, and 32 short scalar continued fractions in the interpreter.

    On a shared host the machine's speed drifts by tens of percent over
    minutes, and this and warpmix slow down together. Timed around each
    part of every seed, it turns times into ratios that keep their value.
    """
    x = np.linspace(-1.0, 1.0, 16 * 5).reshape(16, 5)
    w1 = np.linspace(-0.5, 0.5, 5 * 128).reshape(5, 128)
    w2 = np.linspace(-0.1, 0.1, 128 * 128).reshape(128, 128)
    m, v = np.zeros_like(w2), np.zeros_like(w2)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(150):
        h = np.maximum(x @ w1, 0.0)
        g = (h.T @ (h @ w2)) * 1e-6
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        w2 -= 1e-3 * m / (np.sqrt(v) + 1e-8)
        for j in range(32):
            xx = (j + 0.5) / 32.0
            f, c, d = 1.0, 1.0, 0.0
            for n in range(1, 20):
                a = n * xx / (n + 1.0)
                d = 1.0 / (1.0 + a * d)
                c = 1.0 + a / c
                f *= c * d
            acc += math.log(abs(f) + 1.0)
    return time.perf_counter() - start


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def roundtrip_ok(warpmix, model, path):
    """load_model(save_model(m)) gives bit-identical parameters."""
    loaded = warpmix.model.load_model(path)
    return len(loaded.layers) == len(model.layers) and all(
        same_bits(a.weights, b.weights) and same_bits(a.biases, b.biases)
        for a, b in zip(model.layers, loaded.layers)
    )


def run_seed(warpmix, config, dataset, seed, path, tracer=None, between=None):
    """Train, evaluate and checkpoint one seed; returns its timings and results.

    ``between`` runs after training and before evaluation, off the clock.
    The checkpoint is hashed, reloaded for the round-trip check and deleted
    after the clock stops.
    """
    phase = tracer.phase if tracer is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    with phase("train"):
        result = warpmix.harness.train(config, seed, dataset)
    train_s = time.perf_counter() - start
    if between is not None:
        between()
    start = time.perf_counter()
    with phase("eval"):
        metrics, _ = warpmix.harness.evaluate(result.model, result.splits, config, seed)
    evaluated = time.perf_counter()
    with phase("save"):
        warpmix.model.save_model(result.model, path)
    saved = time.perf_counter()
    out = {
        "seed_s": train_s + saved - start,
        "train_s": train_s,
        "eval_s": evaluated - start,
        "save_s": saved - evaluated,
        "rows": len(result.splits.train) * int(config.to_dict()["optimizer"]["epochs"]),
        "metrics": metrics,
        "sha256": sha256(path),
        "bytes": os.path.getsize(path),
        "roundtrip": roundtrip_ok(warpmix, result.model, path),
    }
    os.remove(path)
    return out


class Gate:
    """Counts attempted and failed seeds and checks; keeps each check's verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def check(self, name, ok, detail=None):
        self.attempted += 1
        self.failed += 0 if ok else 1
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        entry["passed" if ok else "failed"] += 1
        if not ok and detail is not None:
            entry.setdefault("detail", []).append(detail)
        return ok

    def seed(self, fn, *args, **kwargs):
        """Run one seed; a failure is counted and its traceback printed."""
        try:
            out = fn(*args, **kwargs)
        except Exception:  # one bad seed must not stop the benchmark
            traceback.print_exc(file=sys.stderr)
            self.check("seed", False)
            return None
        self.check("seed", True)
        return out


def p50(values):
    return statistics.median(values) if values else math.nan


def measure(workload, seed, seconds, trace, min_seeds=MIN_SEEDS):
    """Run one workload and return (result line, report)."""
    warpmix = import_warpmix()
    make_data, make_config, brackets = workloads.WORKLOADS[workload]
    gate = Gate()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        csv_path = os.path.join(work, "data.csv")
        workloads.write_csv(csv_path, *make_data(seed))
        values = make_config()
        values["dataset"] = {"path": csv_path, "target_column": -1, "name": workload}

        config = warpmix.ExperimentConfig(values)
        dataset = config.load_dataset()

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
            try:
                with tracer.phase("setup"):
                    for _ in range(SETUP_REPEATS):
                        config.load_dataset()
            finally:
                tracer.uninstall()

        plain, traced, quality = [], [], []
        counts = None
        start = time.perf_counter()
        # Untraced, the reference runs before training, between training and
        # evaluation, and after saving; each part is divided by the mean of
        # the two reference times around it. Set-up probes are spread over
        # the run and sit between reference runs too.
        refs = [] if trace else [reference_s()]
        setup, setup_raw = [], []

        def probe():
            probe_s = setup_time(values)
            refs.append(reference_s())
            setup_raw.append(probe_s)
            setup.append(probe_s * REF_S / ((refs[-2] + refs[-1]) / 2.0))

        next_probe = 0.0
        k = 0
        while k < min_seeds or time.perf_counter() - start < seconds:
            elapsed = time.perf_counter() - start
            if not trace and elapsed >= next_probe:
                probe()
                next_probe = elapsed + seconds / SETUP_REPEATS
            between = None if trace else (lambda: refs.append(reference_s()))
            first = len(refs) - 1
            out = gate.seed(run_seed, warpmix, config, dataset, k, os.path.join(work, "plain.json"),
                            between=between)
            if not trace:
                refs.append(reference_s())
            if out is not None:
                if not trace:
                    before, mid, after = refs[first:first + 3]
                    out["train_ref"] = out["train_s"] / ((before + mid) / 2.0)
                    out["eval_ref"] = out["eval_s"] / ((mid + after) / 2.0)
                    out["seed_ref"] = out["train_ref"] + (out["eval_s"] + out["save_s"]) / (
                        (mid + after) / 2.0)
                plain.append(out)
                gate.check("roundtrip", out["roundtrip"], k)
                gate.check("finite_quality",
                           all(math.isfinite(float(v)) for v in out["metrics"].values()), k)
                if k < min_seeds:
                    quality.append(workloads.quality(config.task, out["metrics"]))
            if tracer is not None:
                tracer.install()
                try:
                    tout = gate.seed(run_seed, warpmix, config, dataset, k,
                                     os.path.join(work, "traced.json"), tracer)
                finally:
                    tracer.uninstall()
                if tout is not None:
                    traced.append(tout)
                    gate.check("trace_same_checkpoint",
                               out is not None and out["sha256"] == tout["sha256"], k)
                if k == min_seeds - 1:
                    counts = tracer.counts()
                    tracer.keep_plans = False
            k += 1
        while not trace and len(setup) < SETUP_REPEATS:
            probe()

        quality_mean = {}
        if len(quality) == min_seeds:
            quality_mean = {name: statistics.fmean(q[name] for q in quality) for name in quality[0]}
        for name, (lo, hi) in brackets.items():
            value = quality_mean.get(name, math.nan)
            gate.check("quality_bracket", lo <= value <= hi, f"{name}={value} not in [{lo}, {hi}]")

        report = {
            "env": environment(workload, seed, list(range(k))),
            "seeds_run": k,
            "quality_seeds": min_seeds,
            "quality": quality_mean,
            "checkpoint_sha256": [s["sha256"] for s in plain],
        }
        if tracer is None:
            metrics = end_to_end(plain, setup)
            train_s = sum(s["train_s"] for s in plain)
            report["seconds"] = {
                "setup_s": p50(setup_raw),
                "seed_s": p50([s["seed_s"] for s in plain]),
                "train_rows_per_s": sum(s["rows"] for s in plain) / train_s if train_s else None,
                "eval_s": p50([s["eval_s"] for s in plain]),
                "reference_s": p50(refs),
            }
            report["samples"] = {"seed": len(plain), "reference": len(refs), "setup": len(setup)}
        else:
            metrics = tracer.metrics(counts or tracer.counts())
            metrics["model.save_model_ms"] = (p50([t["save_s"] for t in traced]) * 1e3, "ms")
            metrics["model.checkpoint_bytes"] = (float(traced[0]["bytes"]) if traced else math.nan,
                                                 "bytes")
            plain_s = sum(t["train_s"] + t["eval_s"] for t in plain)
            traced_s = sum(t["train_s"] + t["eval_s"] for t in traced)
            metrics["trace.overhead_pct"] = (
                (traced_s / plain_s - 1.0) * 100.0 if plain_s and traced else math.nan, "%")
            report["missing"] = tracer.missing
            report["traced_sha256"] = [t["sha256"] for t in traced]
            report["samples"] = {"steps": tracer.steps}
        gate.check("finite_metrics", all(math.isfinite(v) for v, _ in metrics.values()),
                   [name for name, (v, _) in metrics.items() if not math.isfinite(v)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    report["checks"] = gate.checks
    report["failed_frac"] = gate.failed / gate.attempted
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        # A non-finite value has already failed the gate; null keeps the line valid JSON.
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def end_to_end(seeds, setup):
    """Set-up seconds at the reference speed, memory, and times as multiples
    of the reference computation timed around them (see :func:`reference_s`)."""
    train_ref = sum(s["train_ref"] for s in seeds)
    return {
        "setup_s": (p50(setup), "s"),
        "seed_ref": (p50([s["seed_ref"] for s in seeds]), "ref"),
        "train_rows_per_ref": (sum(s["rows"] for s in seeds) / train_ref if train_ref else math.nan,
                               "rows/ref"),
        "eval_ref": (p50([s["eval_ref"] for s in seeds]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{name:42s} {entry['value']} {entry['unit']}")
    for name, value in report.get("seconds", {}).items():
        print(f"{name:42s} {value} (wall clock, not drift-corrected)")
    for name, value in report["quality"].items():
        print(f"{name:42s} {value} (mean of {report['quality_seeds']} seeds)")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
