"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sim_contended --seeds 1-10 --seconds 10

Each run is a fresh process (`run.py`), one after another.  For every
metric the script prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the quartile distance as a
share of the median, which is what BENCHMARK.json's bounds are checked
against.  The per-run results are appended as JSON lines to
perfbench/results/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", default=10, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    results = []
    log = HERE / "results" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    if len(results) < 2:
        return 0
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<40} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {(q3 - q1) / med:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
