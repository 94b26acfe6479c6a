"""Run the benchmark once per workload seed and summarise each metric.

    python3 perfbench/repeat.py --workload reg_warped --seeds 1-10 --seconds 30 --trace 0

Prints one JSON object: per metric its unit, the values in seed order, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median; plus whether every run passed its gate and the
environment of the first run. Runs are sequential, one process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values, units, correct, env = {}, {}, True, None
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = env or json.loads(lines[-2])["report"]["env"]
        correct &= result["correct"]
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {
            "unit": units[name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": vals,
        }
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                      "trace": args.trace, "all_correct": correct, "env": env,
                      "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
