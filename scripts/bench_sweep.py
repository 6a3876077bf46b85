#!/usr/bin/env python3
"""Benchmark sweep: peeling solvers and baselines vs oracles on small metrics.

Writes a CSV (same columns as `peelembed bench`) plus a per-algorithm summary
of mean approximation ratios against the exact oracles.  All rows are
deterministic under --seed; add --timing for wall times (a dense row that
reuses the solve of a case-(a) peel root reports that peel's wall time).

With --compare BASE.csv the sweep's ratios are matched to the base's by
(instance, eps, algorithm).  Per (algorithm, eps) it prints the old and new
mean and minimum ratio and how many ratios went down and up, and exits 1 if
a mean or a minimum went down or a base ratio has no match, 2 if the base
cannot be read.  An unwritable --out or a bad base exits 2 before any solve.

Usage:
    python3 scripts/bench_sweep.py --out bench.csv
    python3 scripts/bench_sweep.py --eps 0.25 0.5 --max-n 7 --timing
    python3 scripts/bench_sweep.py --compare tests/golden/bench_sweep.csv
"""

import argparse
import csv
import io
import math
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


KEY = ("instance", "eps", "algorithm")


def read_ratios(text):
    """{(instance, eps, algorithm): ratio, None where the row has none} of a
    bench CSV; raises ValueError naming the first line that is not a row
    with a finite ratio or that repeats a key."""
    reader = csv.DictReader(io.StringIO(text))
    absent = {*KEY, "ratio"}.difference(reader.fieldnames or ())
    if absent:
        raise ValueError(f"no column {', '.join(sorted(absent))}")
    ratios = {}
    for row in reader:
        line = reader.line_num
        if None in row or None in row.values():
            raise ValueError(f"line {line}: {len(reader.fieldnames)} fields expected")
        key = tuple(row[column] for column in KEY)
        if key in ratios:
            raise ValueError(f"line {line}: repeats {key}")
        try:
            ratio = float(row["ratio"]) if row["ratio"] else None
        except ValueError:
            ratio = math.nan
        if ratio is not None and not math.isfinite(ratio):
            raise ValueError(f"line {line}: bad ratio {row['ratio']!r}")
        ratios[key] = ratio
    return ratios


def compare(base, new):
    """Print the base and new ratios per (algorithm, eps) and each base ratio
    with no match in ``new``; 1 if a mean or a minimum went down or a ratio
    is missing, else 0."""
    pairs, missing = defaultdict(list), []
    for key, old in base.items():
        if old is None:
            continue
        if new.get(key) is None:
            missing.append(key)
        else:
            pairs[key[2], key[1]].append((old, new[key]))
    print(f"{'algorithm':<12} {'eps':>6} {'count':>6} {'old mean':>9} {'new mean':>9} "
          f"{'old min':>9} {'new min':>9} {'down':>5} {'up':>5}")
    worse = bool(missing)
    for (algorithm, eps), group in sorted(pairs.items()):
        olds, news = [old for old, _ in group], [now for _, now in group]
        old_mean, new_mean = sum(olds) / len(olds), sum(news) / len(news)
        worse |= new_mean < old_mean or min(news) < min(olds)
        down = sum(now < old for old, now in group)
        up = sum(now > old for old, now in group)
        print(f"{algorithm:<12} {eps or '-':>6} {len(group):>6} {old_mean:>9.6f} "
              f"{new_mean:>9.6f} {min(olds):>9.6f} {min(news):>9.6f} {down:>5} {up:>5}")
    for instance, eps, algorithm in missing:
        print(f"missing {instance} eps={eps or '-'} {algorithm}")
    return int(worse)


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
    parser.add_argument("--compare", metavar="BASE.csv", default=None,
                        help="bench CSV whose ratios the sweep must not lower")
    args = parser.parse_args()

    base = out = None
    if args.compare:
        try:
            with open(args.compare, encoding="utf-8") as fh:
                base = read_ratios(fh.read())
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            parser.error(f"cannot read base {args.compare}: {exc}")
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write {args.out}: {exc}")
    try:
        text = run_bench(build_config(args), seed=args.seed, timing=args.timing)
    except PeelEmbedError as exc:  # a usage error: one line, exit 2, no traceback
        parser.error(str(exc))
    if out is not None:
        with out:
            out.write(text)
        print(f"wrote {text.count(chr(10)) - 1} rows to {args.out}")
    summarize(text)
    return 0 if base is None else compare(base, read_ratios(text))


if __name__ == "__main__":
    sys.exit(main())
