"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload exact_direct --seeds 1-10 --seconds 20

For every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(Q3 - Q1) / median`` that the benchmark's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

RUN = Path(__file__).resolve().with_name("run.py")


def seeds_of(text: str) -> List[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()

    values: Dict[str, List[float]] = {}
    for seed in seeds_of(args.seeds):
        command = [sys.executable, str(RUN), "--workload", args.workload, "--seed",
                   str(seed), "--seconds", args.seconds, "--trace", "0"]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   cwd=RUN.parent.parent)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}{completed.stdout}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<24} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
