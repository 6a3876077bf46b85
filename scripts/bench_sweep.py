#!/usr/bin/env python3
"""Benchmark sweep: peeling solvers and baselines vs oracles on small metrics.

Writes a CSV (same columns as `peelembed bench`) plus a per-algorithm summary
of mean approximation ratios against the exact oracles.  All rows are
deterministic under --seed; add --timing for wall times (a dense row that
reuses the solve of a case-(a) peel root reports that peel's wall time).

Usage:
    python3 scripts/bench_sweep.py --out bench.csv
    python3 scripts/bench_sweep.py --eps 0.25 0.5 --max-n 7 --timing
"""

import argparse
import csv
import io
import sys
from collections import defaultdict

from peelembed.cli import run_bench
from peelembed.errors import PeelEmbedError

FAMILIES = (
    "euclidean_gaussian",
    "euclidean_uniform_box",
    "clustered",
    "uniform_metric",
    "path_metric",
    "cluster_plus_outliers",
)


def build_config(args):
    instances = []
    for family in FAMILIES:
        for seed in range(args.seeds):
            for n in range(3, args.max_n + 1):
                instances.append({"family": family, "n": n, "seed": seed})
    return {
        "eps": args.eps,
        "algorithms": args.algorithms,
        "restarts": args.restarts,
        "instances": instances,
    }


def summarize(text):
    ratios = defaultdict(list)
    for row in csv.DictReader(io.StringIO(text)):
        if row["ratio"]:
            ratios[(row["algorithm"], row["eps"])].append(float(row["ratio"]))
    print(f"{'algorithm':<12} {'eps':>6} {'count':>6} {'mean':>8} {'min':>8}")
    for (algorithm, eps), values in sorted(ratios.items()):
        mean = sum(values) / len(values)
        print(f"{algorithm:<12} {eps or '-':>6} {len(values):>6} "
              f"{mean:>8.4f} {min(values):>8.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, nargs="+", default=[0.25, 0.5])
    parser.add_argument("--algorithms", nargs="+",
                        default=["peel-la", "peel-hc", "dense-la", "dense-hc",
                                 "avg-link", "bisect-la"])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timing", action="store_true")
    parser.add_argument("--out", default=None, help="CSV path (default stdout only summary)")
    args = parser.parse_args()

    try:
        text = run_bench(build_config(args), seed=args.seed, timing=args.timing)
    except PeelEmbedError as exc:  # a usage error: one line, exit 2, no traceback
        parser.error(str(exc))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {text.count(chr(10)) - 1} rows to {args.out}")
    summarize(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
