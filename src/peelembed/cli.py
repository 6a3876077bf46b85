"""Command-line interface: validate, gen, solve-la, solve-hc, oracle, bench.

Exit codes: 0 ok, 1 invariant/assertion failure or size violation, 2 malformed
input, configuration or usage.
The bench subcommand emits a fixed-column CSV; wall times are only filled in
with --timing so that default output is byte-identical across runs.  A dense
row listed after the peel row of its objective and eps does not solve again
when that peel's root level was case (a): the root ran the same dense solve,
so the row takes its value and, with --timing, its wall time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

from .errors import ConfigParse, InputParse, PeelEmbedError, TooLarge
from .hc_dense import solve_hc_dense
from .hc_peeling import solve_hc
from .instances import GeneratorSpec, generate
from .la_dense import solve_la_dense
from .la_peeling import solve_la
from .local_search import SolveConfig
from .metric import (
    Metric,
    format_metric,
    parse_metric,
    parse_point_cloud,
    subset_stats,
)
from .objectives import evaluate_hc, evaluate_la
from .oracles import average_linkage_hc, brute_force_hc, brute_force_la, random_bisection_la

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

    Both solvers take the one :class:`SolveConfig` of the solve.  They are
    wrapped in lambdas, as in :class:`peeling.Policy`, so that wrappers
    installed on their module-level names see the calls.
    """

    peel: Callable  # (metric, solve config, seed) -> (witness, trace)
    dense: Callable  # (metric, solve config, seed) -> (witness, value)
    evaluate: Callable  # (metric, witness) -> value
    oracle: Callable  # metric -> OracleResult; raises TooLarge above the oracle's cap
    witness: str  # label of the printed witness line

    def solve(self, m, cfg, seed, dense_only=False):
        """(witness, value, trace) of the peeling solver; with ``dense_only``
        the dense solver's witness and value, and no trace."""
        if dense_only:
            return (*self.dense(m, cfg, seed), None)
        witness, trace = self.peel(m, cfg, seed)
        return witness, trace.value, trace


OBJECTIVES = {
    "la": Objective(
        peel=lambda m, cfg, seed: solve_la(m, cfg, seed),
        dense=lambda m, cfg, seed: solve_la_dense(m, cfg, seed),
        evaluate=lambda m, arr: evaluate_la(m, arr),
        oracle=lambda m: brute_force_la(m),
        witness="arrangement",
    ),
    "hc": Objective(
        peel=lambda m, cfg, seed: solve_hc(m, cfg, seed),
        dense=lambda m, cfg, seed: solve_hc_dense(m, cfg, seed),
        evaluate=lambda m, tree: evaluate_hc(m, tree),
        oracle=lambda m: brute_force_hc(m),
        witness="tree",
    ),
}


def _load_metric(path: str, fmt: str) -> Metric:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParse(f"cannot read input {path}: {exc}") from None
    if fmt == "points":
        return parse_point_cloud(text)
    # auto: a matrix file starts with a bare count followed by n*n floats;
    # parse_metric tells it from a point cloud in the same pass
    return parse_metric(text, auto=fmt == "auto")


def _write_out(out: str, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigParse(f"cannot write {out}: {exc}") from None


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
    cfg = SolveConfig(eps=args.eps, grid_mode=args.grid_mode, restarts=args.budget_restarts)
    witness, value, trace = obj.solve(m, cfg, args.seed, args.dense_only)
    print(f"value {value:.12g}")
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


def _list_of(*types):
    # bool is an int, but JSON true is not a number
    return lambda v: isinstance(v, list) and all(
        isinstance(x, types) and not isinstance(x, bool) for x in v)


# bench config field -> (default, type test, what the test asks for)
_BENCH_FIELDS = {
    "eps": ([0.25], _list_of(int, float), "a list of numbers"),
    "algorithms": (["peel-la", "peel-hc"], _list_of(str), "a list of strings"),
    "restarts": (SolveConfig.restarts,
                 lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "instances": ([], _list_of(dict), "a list of objects"),
}


def _bench_rows(config: dict, seed: int, timing: bool):
    cfg = {}
    for name, (default, ok, kind) in _BENCH_FIELDS.items():
        cfg[name] = config.get(name, default)
        if not ok(cfg[name]):
            raise ConfigParse(f"config field {name!r} must be {kind}, got {cfg[name]!r}")
    for algorithm in cfg["algorithms"]:
        if algorithm not in _BENCH_ALGORITHMS:
            raise ConfigParse(f"unknown algorithm {algorithm!r}")
    # restarts are checked here, before any instance is generated; each
    # solve row replaces the eps
    base = SolveConfig(eps=1.0, restarts=cfg["restarts"])
    for idx, inst in enumerate(cfg["instances"]):
        inst = dict(inst)
        label = inst.pop("label", None)
        try:
            spec = GeneratorSpec(**inst)
        except TypeError as exc:
            raise ConfigParse(f"bad instance entry {idx}: {exc}") from None
        m = generate(spec)
        label = label or f"{spec.family}-n{spec.n}-s{spec.seed}"
        oracles = {}  # objective -> exact optimum, None above the oracle's size limit
        # (objective, eps) -> (value, seconds) of a peel whose root level was
        # case (a): it ran the dense solver on the whole instance
        root_dense = {}
        for algorithm in cfg["algorithms"]:
            kind, objective = algorithm.split("-")[0], _BENCH_ALGORITHMS[algorithm]
            obj = OBJECTIVES[objective]
            if objective not in oracles:
                try:
                    oracles[objective] = obj.oracle(m).value
                except TooLarge:
                    oracles[objective] = None
            oracle = oracles[objective]
            for eps in cfg["eps"] if kind in ("peel", "dense") else [None]:
                trace = None
                if kind == "dense" and (objective, eps) in root_dense:
                    # that root made this very call, with the same metric,
                    # dense config and seed, so it returned this value
                    value, elapsed = root_dense[objective, eps]
                else:
                    start = time.perf_counter()
                    if kind == "oracle":
                        # above the size limit this raises TooLarge, as `oracle` does
                        value = oracle if oracle is not None else obj.oracle(m).value
                    elif kind in ("peel", "dense"):
                        _, value, trace = obj.solve(m, replace(base, eps=eps), seed,
                                                    dense_only=kind == "dense")
                    elif algorithm == "avg-link":
                        value = obj.evaluate(m, average_linkage_hc(m))
                    else:  # bisect-la
                        value = obj.evaluate(m, random_bisection_la(m, seed=seed))
                    elapsed = time.perf_counter() - start
                if kind == "peel" and trace.case_sequence() == "a":
                    root_dense[objective, eps] = value, elapsed
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
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(config, dict) or "instances" not in config:
        raise ConfigParse("config must be a JSON object with an 'instances' list")
    _write_out(args.out, run_bench(config, seed=args.seed, timing=args.timing))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: ``gen ... --out X`` would read --out as --outlier-n
    parser = argparse.ArgumentParser(prog="peelembed", allow_abbrev=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="-")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, **defaults):  # ``main`` calls ``args.run(args)``
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(run=run, **defaults)
        return p

    def add_input(p):
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=["auto", "matrix", "points"], default="auto")

    p = command("validate", _cmd_validate)
    add_input(p)

    p = command("gen", _cmd_gen)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--m-clusters", dest="m_clusters", type=int)
    p.add_argument("--intra-scale", dest="intra_scale", type=float)
    p.add_argument("--inter-scale", dest="inter_scale", type=float)
    p.add_argument("--outlier-n", dest="outlier_n", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--weight-ratio", dest="weight_ratio", type=float)

    for objective in OBJECTIVES:
        p = command(f"solve-{objective}", _cmd_solve, objective=objective)
        add_input(p)
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--grid-mode", choices=["reduced", "faithful"], default="reduced")
        p.add_argument("--budget-restarts", type=int, default=SolveConfig.restarts)
        only_or_trace = p.add_mutually_exclusive_group()  # the dense solver records no trace
        only_or_trace.add_argument("--dense-only", action="store_true")
        only_or_trace.add_argument("--trace")

    p = command("oracle", _cmd_oracle)
    add_input(p)
    p.add_argument("--objective", choices=list(OBJECTIVES), required=True)

    p = command("bench", _cmd_bench)
    p.add_argument("--config", required=True)
    p.add_argument("--timing", action="store_true")
    return parser


# Built once: each parse_args call makes a fresh Namespace and keeps its
# mutually-exclusive and subparser state to that call, so ``main`` may be
# called any number of times in one process.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.seed < 0:  # numpy's seeding would reject it later, without naming the flag
        PARSER.error(f"argument --seed: must be >= 0, got {args.seed}")
    try:
        return args.run(args)
    except (ConfigParse, InputParse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeelEmbedError, AssertionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
