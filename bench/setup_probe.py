"""One set-up sample, run in a fresh process: import the package, generate
and load the workload's scenario file, and build its initial data.

Prints the elapsed seconds, measured from before the first package import,
as the last line of standard output.

    python3 bench/setup_probe.py --workload spectral_3d --seed 1 --config path.cfg
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from semirelax import scenarios  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config", required=True)
    args = ap.parse_args()
    with open(args.config, "w") as fh:
        fh.write(workloads.config_text(args.workload, args.seed))
    workloads.build_initial_data(scenarios.load_config(args.config))
    print(f"{time.perf_counter() - T0!r}")


if __name__ == "__main__":
    main()
