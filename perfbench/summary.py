#!/usr/bin/env python3
"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/summary.py --seed 1 --seconds 58

Columns are workloads; rows are the end-to-end metrics with their units,
plus ``fail_frac`` (failed / attempted operations).  Exits 1 if any
operation failed.
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    args = parser.parse_args(argv)
    results = {}
    for name, shape in WORKLOADS.items():
        results[name], _ = run.run_workload(name, shape, args.seed, args.seconds, False,
                                            run.WORK / f"work-summary-{name}")
    print(f"{'metric':14s} {'unit':6s}" + "".join(f"{n:>12s}" for n in results))
    for metric, unit in run.END_TO_END:
        cells = "".join(f"{r['metrics'][metric]['value']:12.4f}" for r in results.values())
        print(f"{metric:14s} {unit:6s}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:12.4f}" for r in results.values())
    print(f"{'fail_frac':14s} {'ratio':6s}{cells}")
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
