"""Run one workload with several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload sweep --runs 10 [--first-seed 1] [--seconds 20]

Spread is the distance between the first and third quartiles of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median.
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, {result['failed']} failed operations")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    steady = True
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        ok = spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:26} median {median:<12.6g} spread {spread:6.3f} bound {m['bound']:<5} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
