"""Tracing overhead: a traced run's end-to-end numbers minus an untraced run's.

    python3 bench/overhead.py --workload gb-families --seed 1 --seconds 30

Runs ``run.py`` once untraced and once traced with the same arguments and
prints, per end-to-end metric, both values and their difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "bench_out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    results = []
    for trace in (0, 1):
        argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        subprocess.run([sys.executable, str(HERE / "run.py"), *argv], check=True, stdout=subprocess.DEVNULL)
        stem = f"{args.workload}-seed{args.seed}-trace{trace}"
        results.append(json.loads((OUT / f"result-{stem}.json").read_text())["end_to_end"])
    untraced, traced = results
    print(f"{'metric':<12} {'untraced':>14} {'traced':>14} {'overhead':>14}")
    for name, base in untraced.items():
        print(f"{name:<12} {base:14.4f} {traced[name]:14.4f} {traced[name] - base:+14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
