"""Run one workload over several seeds and summarise each metric.

    python3 benchmarks/spread.py --workload ladder --seeds 1-10 --seconds 30 --trace 0

Runs are sequential, one process at a time, from the current directory,
which must be a source checkout.  For each metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
distance between them as a share of the median; with ``--trace 1`` it
prints the per-layer figures the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}, " + ", ".join(
                  f"{n} {m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"failed share: {sorted(shares)}")
    print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else 0.0
        print(f"{name:<38} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>10.4f} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
