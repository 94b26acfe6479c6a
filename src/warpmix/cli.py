"""Command-line interface.

Verbs: train, eval, grid, warp-demo, metrics. Every command writes only
inside its output directory and creates it at its first write, so a command
that fails before writing leaves no directory; exit code 0 means success, 2
a usage problem (bad flags, bad config, a missing or unreadable input file), 1 a runtime failure
(divergence, non-convergence, I/O trouble or running out of memory mid-run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DatasetError, DomainError, UsageError, WarpmixError, check_int
from .data import _csv_text, _read_json, split
from .harness import DEFAULT_CONFIG, ExperimentConfig, evaluate, grid_search, run_experiment
from .metrics import bin_stats, metrics_from_payload, payload_bins
from .model import load_model, save_model
from .rng import RngStream
from .special import beta_sample
from .warping import warp_pairwise

__all__ = ["main"]

USAGE_EXIT = 2
RUNTIME_EXIT = 1
WARP_DEMO_BINS = 50


def _comma_floats(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")
    return values


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_file(args.config, args.overrides)
    else:
        config = ExperimentConfig().with_overrides(args.overrides)
    extra = []
    if args.seed is not None:
        extra.append(f"seeds=[{args.seed}]")
    if args.out:
        extra.append(f"output_dir={json.dumps(args.out)}")
    return config.with_overrides(extra)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory first."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_metrics(out: str, metrics: dict) -> None:
    _write(os.path.join(out, "metrics.json"), json.dumps(metrics, indent=2, sort_keys=True))
    for name, value in sorted(metrics.items()):
        if value is not None:
            print(f"{name}: {value:.6g}")


def _bin_edges(lo: float, hi: float, m: int) -> list:
    """The m + 1 edges of ``bin_stats``'s equal-width bins of [lo, hi]."""
    return (lo + (hi - lo) * np.arange(m + 1) / m).tolist()


def _bin_table(payload: dict) -> str:
    """The per-bin table behind ECE (classification) or UCE/ENCE (regression)."""
    lo, hi, counts, sums = payload_bins(payload)
    m = counts.shape[0]
    edges = _bin_edges(lo, hi, m)
    means = np.divide(sums, counts, out=np.full(sums.shape, np.nan), where=counts > 0).tolist()
    columns = ("mse", "mean_variance") if payload["task"] == "regression" else ("accuracy", "confidence")
    rows = ((edges[b], edges[b + 1], int(counts[b]), means[0][b], means[1][b]) for b in range(m))
    return _csv_text(("bin_lo", "bin_hi", "count", *columns), rows)


def _cmd_train(args) -> int:
    config = _load_config(args)
    result = run_experiment(config)
    out = config.output_dir
    _write(os.path.join(out, "report.json"), result.report.to_json())
    _write(os.path.join(out, "effective_config.json"), json.dumps(config.to_dict(), indent=2, sort_keys=True))
    columns = ("epoch", "train_loss", "valid_loss")
    for seed, train_result in result.train_results.items():
        save_model(train_result.model, os.path.join(out, f"checkpoint_seed{seed}.json"))
        trace = ([row[c] for c in columns] for row in train_result.trace)
        _write(os.path.join(out, f"trace_seed{seed}.csv"), _csv_text(columns, trace))
        _write(
            os.path.join(out, f"predictions_seed{seed}.json"),
            json.dumps(result.predictions[seed], indent=2, sort_keys=True),
        )
    for name, value in sorted(result.report.mean.items()):
        print(f"{name}: mean={value:.6g} std={result.report.std[name]:.6g}")
    print(f"wrote {out}/report.json")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    model = load_model(args.checkpoint)
    seed = config.seeds[0]  # --seed replaces the seed list
    splits = split(config.load_dataset(), config.split_fractions, seed)
    metrics, payload = evaluate(model, splits, config, seed)
    out = config.output_dir
    _write(os.path.join(out, "predictions.json"), json.dumps(payload, indent=2, sort_keys=True))
    _write(os.path.join(out, "bins.csv"), _bin_table(payload))
    _write_metrics(out, metrics)
    print(f"wrote {out}/metrics.json")
    return 0


def _cmd_grid(args) -> int:
    config = _load_config(args)
    result = grid_search(config, _read_json(args.cells, "cells"), jobs=args.jobs)
    out = config.output_dir
    _write(os.path.join(out, "grid.csv"), result.to_csv())
    _write(
        os.path.join(out, "grid.json"),
        json.dumps({"cells": result.cells}, indent=2, sort_keys=True),
    )
    _write(os.path.join(out, "effective_config.json"), json.dumps(config.to_dict(), indent=2, sort_keys=True))
    ok = sum(1 for c in result.cells if c["status"] == "ok")
    print(f"grid: {ok}/{len(result.cells)} cells succeeded; wrote {out}/grid.csv")
    return 0


def _cmd_warp_demo(args) -> int:
    samples = check_int(args.samples, "--samples", 1)
    if args.taus is None:
        raise UsageError("warp-demo needs --taus")
    rng = RngStream(args.seed)
    edges = _bin_edges(0.0, 1.0, WARP_DEMO_BINS)
    rows = []
    for case_index, tau in enumerate(_comma_floats(args.taus)):
        raw = beta_sample(args.alpha, rng.child(case_index), size=samples)
        counts, _ = bin_stats(warp_pairwise(raw, np.full(samples, tau)), 0.0, 1.0, WARP_DEMO_BINS)
        for b in range(WARP_DEMO_BINS):
            lo, hi = edges[b], edges[b + 1]
            rows.append((tau, lo, hi, int(counts[b]), float(counts[b]) / (samples * (hi - lo))))
    path = os.path.join(args.out, "warp_demo.csv")
    _write(path, _csv_text(("tau", "bin_lo", "bin_hi", "count", "density"), rows))
    print(f"wrote {path}")
    return 0


def _cmd_metrics(args) -> int:
    _write_metrics(args.out, metrics_from_payload(_read_json(args.predictions, "predictions")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpmix",
        description="Similarity-warped mixup: training, evaluation, grids, and warp demos.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    default_out = DEFAULT_CONFIG["output_dir"]

    def common(p):
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="replace the config seed list with this seed")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="dotted-path config overrides, e.g. mixup.alpha=0.5")

    p_train = sub.add_parser("train", help="train/evaluate all config seeds, write report + checkpoints")
    common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint JSON written by train")
    p_eval.set_defaults(func=_cmd_eval)

    p_grid = sub.add_parser("grid", help="train/evaluate each cell of config overrides, write grid.csv + grid.json")
    common(p_grid)
    p_grid.add_argument("--cells", required=True,
                        help='JSON file holding a non-empty list of cells, each a list of key=value overrides, '
                             'e.g. [["mixup.mode=off"], ["mixup.alpha=0.2"]]')
    p_grid.add_argument("--jobs", type=int, default=1, help="parallel cell workers")
    p_grid.set_defaults(func=_cmd_grid)

    p_demo = sub.add_parser("warp-demo", help=f"histogram warped coefficient densities in {WARP_DEMO_BINS} bins as CSV")
    p_demo.add_argument("--seed", type=int, default=0, help="seed of the raw draws")
    p_demo.add_argument("--out", default=default_out, help=f"output directory (default: {default_out})")
    p_demo.add_argument("--alpha", type=float, default=1.0, help="Beta(alpha, alpha) of the raw draws")
    p_demo.add_argument("--samples", type=int, default=100_000)
    p_demo.add_argument("--taus", default=None, help="comma-separated warp strengths")
    p_demo.set_defaults(func=_cmd_warp_demo)

    p_metrics = sub.add_parser("metrics", help="recompute metrics from an exported predictions file")
    p_metrics.add_argument("--predictions", required=True, help="predictions JSON written by eval/train")
    p_metrics.add_argument("--out", default=default_out, help=f"output directory (default: {default_out})")
    p_metrics.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        if args.out == "":  # every verb has --out; an empty path is the working directory
            raise UsageError("--out must be a non-empty path")
        return args.func(args)
    except (UsageError, DomainError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (WarpmixError, OSError, MemoryError) as exc:  # MemoryError: e.g. a huge metrics.mc_samples
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
