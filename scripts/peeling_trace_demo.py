#!/usr/bin/env python3
"""Show the peeling recursion on two-scale instances that force case (c).

Prints, per level: case taken, subinstance size, density, the peeled layer
size and the accounting terms (alpha, beta, gamma).  Demonstrates density
growth between levels and the log-depth bound.

Usage:
    python3 scripts/peeling_trace_demo.py              # LA, n=400
    python3 scripts/peeling_trace_demo.py --objective hc --n 1900
"""

import argparse
import math
import sys

from peelembed.errors import PeelEmbedError
from peelembed.hc_peeling import solve_hc
from peelembed.instances import generate, hc_case_c_spec, la_case_c_spec
from peelembed.la_peeling import solve_la
from peelembed.local_search import SolveConfig


def show(trace, n, depth_bound):
    print(f"{'lvl':>3} {'case':>4} {'n':>6} {'rho':>10} {'|A|':>5} "
          f"{'alpha':>12} {'beta':>12} {'gamma':>8}")
    for rec in trace.levels:
        alpha = "-" if rec.alpha is None else f"{rec.alpha:.4g}"
        beta = "-" if rec.beta is None else f"{rec.beta:.4g}"
        gamma = "-" if rec.gamma is None else f"{rec.gamma:.5f}"
        print(f"{rec.level:>3} {rec.case:>4} {rec.n:>6} {rec.rho:>10.3e} "
              f"{len(rec.a_ids):>5} {alpha:>12} {beta:>12} {gamma:>8}")
    for i in range(trace.depth - 1):
        lo, hi = trace.levels[i].rho, trace.levels[i + 1].rho
        print(f"density growth level {i} -> {i + 1}: x{hi / lo:.1f}")
    print(f"value {trace.value:.6g}  depth {trace.depth}  "
          f"bound {depth_bound:.1f}  cases {trace.case_sequence()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objective", choices=["la", "hc"], default="la")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--restarts", type=int, default=0,
                        help="dense-leaf search restarts (0 = cheapest leaf)")
    args = parser.parse_args()

    try:
        if args.objective == "la":
            n = args.n or 400
            spec, eps = la_case_c_spec(n, seed=args.seed)
            m = generate(spec)
            _, trace = solve_la(m, SolveConfig(eps, restarts=args.restarts), seed=args.seed)
            show(trace, n, 2 * math.log2(n) + 4)
        else:
            n = args.n or 1900
            spec, eps = hc_case_c_spec(n, seed=args.seed)
            m = generate(spec)
            _, trace = solve_hc(m, SolveConfig(eps, restarts=args.restarts), seed=args.seed)
            show(trace, n, 2 * math.log2(math.log2(n) + 2) + 4)
    except PeelEmbedError as exc:  # a usage error: one line, exit 2, no traceback
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
