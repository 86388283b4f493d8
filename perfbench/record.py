"""Run every workload over several seeds and write a results record.

    python3 perfbench/record.py --seeds 1-10 --seconds 28 --out perfbench/results/seed.json

Each run is a fresh interpreter (``run.py``), one after another. For every
workload the record holds each end-to-end metric's ten values, median,
quartiles and spread (interquartile distance over the median, as the
acceptance rule computes it), the operation counts, and the per-layer
table of one traced run. Later performance changes cite these numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 1)[1])
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--out", default=None, help="write the record here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    record = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            record["environment"], result = run_once(name, seed, args.seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
                + f" ops={result['attempted']} ops_failed={result['failed']}", flush=True)
        entry = {
            "ops": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
            "end_to_end": {metric: dict(summary([r["metrics"][metric]["value"] for r in runs]),
                                        unit=runs[0]["metrics"][metric]["unit"])
                           for metric in runs[0]["metrics"]},
        }
        for metric, stats in entry["end_to_end"].items():
            print(f"  {metric}: median {stats['median']:.4g} {stats['unit']}, "
                  f"spread {stats['spread']:.2%}", flush=True)
        _, traced = run_once(name, seeds[0], args.seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["per_layer_units"] = {k: m["unit"] for k, m in traced["metrics"].items()}
        print(f"  trace.overhead {entry['per_layer']['trace.overhead']:.3f}", flush=True)
        record["workloads"][name] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
