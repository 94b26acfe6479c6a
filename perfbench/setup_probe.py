"""Time a user's set-up in a fresh interpreter: import warpmix, build the
config, load the dataset. Prints {"setup_s": seconds} as JSON.

    python3 perfbench/setup_probe.py <src dir> '<config JSON>'
"""

import json
import sys
import time


def main():
    src, values = sys.argv[1], json.loads(sys.argv[2])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import warpmix

    warpmix.ExperimentConfig(values).load_dataset()
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
