"""Fast self-check of the benchmark (about 20 seconds).

    python3 perfbench/selfcheck.py

Runs one seed of every workload untraced and traced, and fails (exit 1)
unless each run passes its correctness gate, emits exactly the metrics and
units that BENCHMARK.json names, and the traced checkpoint hashes equal the
untraced ones. It also checks that a traced name which no longer exists is
reported as missing and that the tracer puts every original back.
"""

import json
import os
import sys

import run  # pins BLAS threads before numpy loads
from tracing import TARGETS, Tracer

PROBLEMS = []


def expect(ok, message):
    if not ok:
        PROBLEMS.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def emitted(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    expect(set(names) == set(run.workloads.WORKLOADS), f"workloads {names} differ from run.py")

    for workload in names:
        plain, plain_report = run.measure(workload, 0, 0, trace=False, min_seeds=1)
        traced, traced_report = run.measure(workload, 0, 0, trace=True, min_seeds=1)
        for mode, result, report, spec_units in (("untraced", plain, plain_report, end_to_end),
                                                 ("traced", traced, traced_report, per_layer)):
            expect(result["correct"], f"{workload} {mode}: gate failed: {report['checks']}")
            expect(emitted(result) == spec_units,
                   f"{workload} {mode}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(emitted(result)) ^ set(spec_units))}")
        hashes = plain_report["checkpoint_sha256"] + traced_report["traced_sha256"]
        expect(len(hashes) == 2 and hashes[0] == hashes[1],
               f"{workload}: traced and untraced checkpoints differ: {hashes}")
        print(f"ok {workload}: {len(plain['metrics'])} + {len(traced['metrics'])} metrics, "
              f"checkpoint {hashes[0][:12]}")

    warpmix = run.import_warpmix()
    originals = {attr: getattr(warpmix.harness, attr) for module, attr in TARGETS if module == "harness"}
    draws = dict(vars(warpmix.rng.RngStream))
    tracer = Tracer(targets=TARGETS + (("harness", "renamed_away"),))
    tracer.install()
    tracer.uninstall()
    expect(tracer.missing == ["harness.renamed_away"], f"missing names: {tracer.missing}")
    expect(all(getattr(warpmix.harness, a) is f for a, f in originals.items()),
           "tracer left a wrapper installed")
    expect(dict(vars(warpmix.rng.RngStream)) == draws, "tracer left an RngStream wrapper installed")

    if PROBLEMS:
        print(f"{len(PROBLEMS)} problem(s)", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
