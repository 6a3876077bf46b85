"""Command-line interface: validate, gen, solve-la, solve-hc, oracle, bench.

Exit codes: 0 ok, 1 invariant/assertion failure or size violation, 2 malformed
input, configuration or usage.
The bench subcommand emits a fixed-column CSV; wall times are only filled in
with --timing so that default output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable

from .errors import ConfigParse, InputParse, PeelEmbedError
from .hc_dense import solve_hc_dense
from .hc_peeling import HcPeelConfig, solve_hc
from .instances import GeneratorSpec, generate
from .la_dense import solve_la_dense
from .la_peeling import LaPeelConfig, solve_la
from .metric import (
    Metric,
    format_metric,
    parse_metric,
    parse_point_cloud,
    subset_stats,
)
from .objectives import evaluate_hc, evaluate_la
from .oracles import (
    HC_ORACLE_MAX_N,
    LA_ORACLE_MAX_N,
    average_linkage_hc,
    brute_force_hc,
    brute_force_la,
    random_bisection_la,
)
from .partition_search import SearchBudget

CSV_COLUMNS = [
    "instance",
    "family",
    "n",
    "eps",
    "algorithm",
    "value",
    "oracle_value",
    "ratio",
    "depth",
    "cases",
    "wall_time",
]


@dataclass(frozen=True)
class Objective:
    """What the solve, oracle and bench commands need of one objective.

    Solvers are wrapped in lambdas, as in :class:`peeling.Policy`, so that
    wrappers installed on their module-level names see the calls.
    """

    peel: Callable  # (metric, peel config, seed) -> (witness, trace)
    peel_config: type  # its dense_type is the dense solver's config
    dense: Callable  # (metric, dense config, seed) -> witness
    evaluate: Callable  # (metric, witness) -> value
    oracle: Callable  # metric -> OracleResult; raises TooLarge above oracle_max_n
    oracle_max_n: int
    witness: str  # label of the printed witness line

    def solve(self, m, eps, budget, seed, grid_mode="reduced", dense_only=False):
        """(witness, trace) of the peeling solver; with ``dense_only`` the dense
        solver's witness and no trace."""
        dense = self.peel_config.dense_type(eps=eps, grid_mode=grid_mode, budget=budget)
        if dense_only:
            return self.dense(m, dense, seed), None
        return self.peel(m, self.peel_config(eps=eps, dense=dense), seed)

    def value(self, m, witness, trace):
        """Objective value of ``witness``; a peeling trace already holds it."""
        return trace.value if trace is not None else self.evaluate(m, witness)


OBJECTIVES = {
    "la": Objective(
        peel=lambda m, cfg, seed: solve_la(m, cfg, seed),
        peel_config=LaPeelConfig,
        dense=lambda m, cfg, seed: solve_la_dense(m, cfg, seed),
        evaluate=lambda m, arr: evaluate_la(m, arr),
        oracle=lambda m: brute_force_la(m),
        oracle_max_n=LA_ORACLE_MAX_N,
        witness="arrangement",
    ),
    "hc": Objective(
        peel=lambda m, cfg, seed: solve_hc(m, cfg, seed),
        peel_config=HcPeelConfig,
        dense=lambda m, cfg, seed: solve_hc_dense(m, cfg, seed),
        evaluate=lambda m, tree: evaluate_hc(m, tree),
        oracle=lambda m: brute_force_hc(m),
        oracle_max_n=HC_ORACLE_MAX_N,
        witness="tree",
    ),
}


def _load_metric(path: str, fmt: str) -> Metric:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParse(f"cannot read input {path}: {exc}") from None
    if fmt == "matrix":
        return parse_metric(text)
    if fmt == "points":
        return parse_point_cloud(text)
    # auto: a matrix file starts with a bare count followed by n*n floats
    tokens = text.split()
    try:
        n = int(tokens[0])
        if len(tokens) == 1 + n * n:
            return parse_metric(text, tokens=tokens)
    except (ValueError, IndexError):
        pass
    return parse_point_cloud(text)


def _write_out(out: str, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args) -> int:
    m = _load_metric(args.input, args.format)
    stats = subset_stats(m, range(m.n))
    print(f"ok n={m.n} diameter={stats.diameter:g} weight={stats.weight_sum:g} "
          f"density={stats.density:g}")
    return 0


def _cmd_gen(args) -> int:
    known = {f.name for f in fields(GeneratorSpec)}
    params = {k: v for k, v in vars(args).items() if k in known and v is not None}
    spec = GeneratorSpec(**params)
    m = generate(spec)
    _write_out(args.out, format_metric(m))
    return 0


def _cmd_solve(args) -> int:
    obj = OBJECTIVES[args.objective]
    m = _load_metric(args.input, args.format)
    budget = SearchBudget(restarts=args.budget_restarts)
    witness, trace = obj.solve(m, args.eps, budget, args.seed, args.grid_mode, args.dense_only)
    print(f"value {obj.value(m, witness, trace):.12g}")
    print(f"{obj.witness} {witness.serialize()}")
    if trace is not None:
        print(f"depth {trace.depth} cases {trace.case_sequence()}")
        if args.trace:
            _write_out(args.trace, trace.to_json_lines())
    return 0


def _cmd_oracle(args) -> int:
    obj = OBJECTIVES[args.objective]
    res = obj.oracle(_load_metric(args.input, args.format))
    print(f"value {res.value:.12g}")
    print(f"{obj.witness} {res.witness.serialize()}")
    print(f"explored {res.explored}")
    return 0


# bench algorithm -> the objective it is scored on
_BENCH_ALGORITHMS = {
    **{f"{kind}-{name}": name for kind in ("peel", "dense", "oracle") for name in OBJECTIVES},
    "avg-link": "hc",
    "bisect-la": "la",
}


def _bench_rows(config: dict, seed: int, timing: bool):
    eps_values = config.get("eps", [0.25])
    algorithms = config.get("algorithms", ["peel-la", "peel-hc"])
    budget = SearchBudget(restarts=int(config.get("restarts", 32)))
    for idx, inst in enumerate(config.get("instances", [])):
        inst = dict(inst)
        label = inst.pop("label", None)
        try:
            spec = GeneratorSpec(**inst)
        except TypeError as exc:
            raise ConfigParse(f"bad instance entry {idx}: {exc}") from None
        m = generate(spec)
        label = label or f"{spec.family}-n{spec.n}-s{spec.seed}"
        oracles = {}  # objective -> exact optimum, None above the oracle's size limit
        for algorithm in algorithms:
            if algorithm not in _BENCH_ALGORITHMS:
                raise ConfigParse(f"unknown algorithm {algorithm!r}")
            kind, objective = algorithm.split("-")[0], _BENCH_ALGORITHMS[algorithm]
            obj = OBJECTIVES[objective]
            if objective not in oracles:
                oracles[objective] = obj.oracle(m).value if m.n <= obj.oracle_max_n else None
            oracle = oracles[objective]
            for eps in eps_values if kind in ("peel", "dense") else [None]:
                start = time.perf_counter()
                trace = None
                if kind == "oracle":
                    # above the size limit this raises TooLarge, as `oracle` does
                    value = oracle if oracle is not None else obj.oracle(m).value
                else:
                    if kind in ("peel", "dense"):
                        dense_only = kind == "dense"
                        witness, trace = obj.solve(m, eps, budget, seed, dense_only=dense_only)
                    elif algorithm == "avg-link":
                        witness = average_linkage_hc(m)
                    else:  # bisect-la
                        witness = random_bisection_la(m, seed=seed)
                    value = obj.value(m, witness, trace)
                elapsed = time.perf_counter() - start
                ratio = None if oracle in (None, 0.0) else value / oracle
                if ratio is not None and ratio > 1.0 + 1e-9:
                    raise AssertionError(
                        f"{algorithm} on {label}: value {value} above oracle {oracle}"
                    )
                yield {
                    "instance": label,
                    "family": spec.family,
                    "n": m.n,
                    "eps": "" if eps is None else f"{eps:g}",
                    "algorithm": algorithm,
                    "value": f"{value:.12g}",
                    "oracle_value": "" if oracle is None else f"{oracle:.12g}",
                    "ratio": "" if ratio is None else f"{ratio:.6f}",
                    "depth": "" if trace is None else trace.depth,
                    "cases": "" if trace is None else trace.case_sequence(),
                    "wall_time": f"{elapsed:.6f}" if timing else "",
                }


def run_bench(config: dict, seed: int = 0, timing: bool = False) -> str:
    """Render the sweep as CSV text (deterministic unless timing is on)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in _bench_rows(config, seed, timing):
        writer.writerow(row)
    return buf.getvalue()


def _cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(config, dict) or "instances" not in config:
        raise ConfigParse("config must be a JSON object with an 'instances' list")
    _write_out(args.out, run_bench(config, seed=args.seed, timing=args.timing))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peelembed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface stability; execution is sequential")
    parser.add_argument("--out", default="-")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=["auto", "matrix", "points"], default="auto")

    p = sub.add_parser("validate")
    add_input(p)

    p = sub.add_parser("gen")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--m-clusters", dest="m_clusters", type=int)
    p.add_argument("--intra-scale", dest="intra_scale", type=float)
    p.add_argument("--inter-scale", dest="inter_scale", type=float)
    p.add_argument("--core-n", dest="core_n", type=int)
    p.add_argument("--outlier-n", dest="outlier_n", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--weight-ratio", dest="weight_ratio", type=float)

    for objective in OBJECTIVES:
        p = sub.add_parser(f"solve-{objective}")
        p.set_defaults(objective=objective)
        add_input(p)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--grid-mode", choices=["reduced", "faithful"], default="reduced")
        p.add_argument("--budget-restarts", type=int, default=32)
        p.add_argument("--dense-only", action="store_true")
        p.add_argument("--trace")

    p = sub.add_parser("oracle")
    add_input(p)
    p.add_argument("--objective", choices=list(OBJECTIVES), required=True)

    p = sub.add_parser("bench")
    p.add_argument("--config", required=True)
    p.add_argument("--timing", action="store_true")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "solve-la": _cmd_solve,
    "solve-hc": _cmd_solve,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigParse, InputParse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeelEmbedError, AssertionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
