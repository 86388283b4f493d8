"""Benchmark entry point for the ``sco`` command line.

    python3 perfbench/run.py --workload solve-cc --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload seed generates every input
file; the command runs in this interpreter through ``sco.cli.main``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics of the traced run. Exit
code 2 means the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# One BLAS thread: --parallel adds its own pool threads, and the default
# BLAS pool on top of them would exceed the cores of a small machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    # Set before numpy loads; SCO_THREADS stays unset so the pool size is the default.
    os.environ.update(THREAD_ENV)
    os.environ.pop("SCO_THREADS", None)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sco", "cli.py")):
        sys.stderr.write(f"perfbench: no sco package under {SRC}\n")
        return 2

    sys.path.insert(0, SRC)
    import bench

    print("environment " + json.dumps(bench.environment(), sort_keys=True))
    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in result.pop("errors"):
        sys.stderr.write(f"perfbench: failed: {error}\n")
    raw = result.pop("raw")
    if raw:
        walls = raw["walls"]
        print(f"raw command times: min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
              f"max {max(walls):.4f} s over {len(walls)} commands; raw set-up median "
              f"{statistics.median(raw['setup']):.4f} s; reference over measured speed "
              f"{raw['speed']:.4f}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"ops {result['attempted']} ops_failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
