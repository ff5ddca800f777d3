"""Reference figure: each subexponential pipeline's time over the oracle's.

    python3 perfbench/oracle_baseline.py --seed 1

Runs every ``tp-planted`` and ``coloring`` instance once through the
workload's pipeline and once through ``exact_completion`` with the same
family and budget, and prints both times and their quotient per pipeline.
This is a figure for the README, not a benchmark metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import Instance, import_program  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    prog = import_program()
    with open(os.path.join(HERE, "reference.json")) as fh:
        pool = [e for e in json.load(fh)["instances"]
                if e["workload"] in ("tp-planted", "coloring")]
    totals: dict[str, list[float]] = {}
    for entry in pool:
        inst = Instance(entry, args.seed, 0, prog, graph_dir=None)
        pipeline_s = inst.solve()[0]
        t = time.perf_counter()
        prog["oracles"].exact_completion(inst.graph, inst.patterns, inst.budget)
        oracle_s = time.perf_counter() - t
        row = totals.setdefault(entry["solver"], [0.0, 0.0])
        row[0] += pipeline_s
        row[1] += oracle_s
        print(f"{entry['id']:16s} {entry['solver']:22s} n={inst.n:2d} "
              f"k={inst.budget} pipeline {pipeline_s:9.4f} s  "
              f"oracle {oracle_s:8.4f} s")
    for solver, (pipeline_s, oracle_s) in totals.items():
        print(f"{solver}: pipeline {pipeline_s:.3f} s, oracle {oracle_s:.4f} s, "
              f"quotient {pipeline_s / oracle_s:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
