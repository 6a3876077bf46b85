"""Seeded requests of the four workloads and the checks on their outputs.

Every instance is generated with ``peelembed.instances`` into a work
directory; the program only ever receives files.  Each workload is a fixed
list of request shapes (objective, n, eps, mode): the seed picks the
instances, not their sizes, so the cost of a round stays put from seed to
seed while its inputs change.

Why each workload exists:

- ingest: dense matrix files with n of 700-1000, solved at zero budget.
  Parsing and the O(n^3) triangle scan dominate; the dense search does one
  ladder evaluation.  The LA requests use cluster_plus_outliers, which the
  LA peel closes in case (b) without a dense solve (a dense LA solve at this
  n takes minutes in the swap climb), so both objectives measure ingest.
- search: small dense instances at the default budget of 32 restarts, with
  the faithful LA grid in both partition regimes (exhaustive at n=10, local
  at n=13) and a faithful HC grid.  Reduced local search dominates and this
  is the only workload that runs ``partition_search``.
- peel: calibrated case-(c) point clouds at zero budget with a trace file.
  HC requests are carried by the per-level statistics, core search,
  submetric copies and trace recording; LA requests still end in a dense
  leaf that runs the swap climb.
- sweep: the grid of ``scripts/bench_sweep.py`` (six families, n 3-8,
  eps 0.25 and 0.5, 8 restarts) through ``bench --config``, one request per
  instance and objective group.  The only workload with exact oracles, and
  the one where fixed per-call costs dominate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from peelembed.instances import GeneratorSpec, generate, hc_case_c_spec, la_case_c_spec
from peelembed.metric import format_metric, format_point_cloud, parse_point_cloud
from peelembed.objectives import HcTree, LinearArrangement

WORKLOADS = ("ingest", "search", "peel", "sweep")

DENSE_FAMILIES = ("clustered", "euclidean_gaussian")

# Weight of the interpreter-bound kernel in the speed calibration of each
# kind of request (the rest is the memory-bound kernel): the weight under
# which the calibrated CPU time of that request varied least while the
# host's speed changed, fitted on a 2-vCPU Xeon VM.
INTERPRETER_WEIGHT = {
    "ingest": {"la": 0.3, "hc": 0.3},
    "search": {"la": 0.8, "hc": 0.6},
    "peel": {"la": 0.8, "hc": 0.5},
    "sweep": {"la": 0.6, "hc": 0.7},
}

# (objective, n, eps, grid mode, copies).  The LA median falls among the
# twenty cheap n=12 LA requests, and both the HC median and cpu_s_tail (the
# 27th of 37 requests) fall among the twelve n=12 HC requests, so each sits
# inside a cluster of like requests; the rest spread the round over the n
# and eps ranges and both grid modes.
SEARCH_SHAPES = (
    ("la", 12, 0.5, "reduced", 16),
    ("la", 12, 0.25, "reduced", 4),
    ("la", 20, 0.25, "reduced", 1),
    ("la", 10, 0.5, "faithful", 1),
    ("la", 13, 0.5, "faithful", 1),
    ("hc", 12, 0.5, "reduced", 12),
    ("hc", 12, 0.25, "reduced", 1),
    ("hc", 7, 0.5, "faithful", 1),
)

# (objective, n, family); the n=850 pair gives cpu_s_tail.
INGEST_SHAPES = (
    ("hc", 700, "clustered"),
    ("la", 700, "cluster_plus_outliers"),
    ("hc", 850, "euclidean_gaussian"),
    ("la", 850, "cluster_plus_outliers"),
)

# Case-(c) sizes; the seed adds 0-3 points to each so instances differ.  The
# HC sizes stay above 2048, where an n x n float64 matrix exceeds glibc's
# largest mmap threshold (32 MiB) and is always returned to the system when
# freed; below it, whether a freed matrix stays in the heap depends on the
# allocation history, and peak_rss_mb jumped by one matrix between runs.
PEEL_HC_N = (2060, 2170, 2280, 2390)
PEEL_LA_N = (250, 300, 350, 396)

SWEEP_FAMILIES = (
    "euclidean_gaussian",
    "euclidean_uniform_box",
    "clustered",
    "uniform_metric",
    "path_metric",
    "cluster_plus_outliers",
)
# n=3 is left out of the bench_sweep range so that the medians fall inside
# the n=6 requests rather than in the gap between n=5 and n=6; with three
# instance seeds, cpu_s_tail (the 170th of 180) falls among the n=8 HC ones.
SWEEP_N = range(4, 9)
SWEEP_SEEDS_PER_RUN = 3
SWEEP_GROUPS = {
    "hc": ("peel-hc", "dense-hc", "avg-link"),
    "la": ("peel-la", "dense-la", "bisect-la"),
}
SWEEP_EPS = (0.25, 0.5)
SWEEP_RESTARTS = 8

REL_TOL = 1e-9
CASES_RE = re.compile(r"c*[ab]")


@dataclass
class Request:
    rid: str
    objective: str  # "la" or "hc"
    argv: list
    family: str
    n: int
    eps: Optional[float]
    kind: str  # "witness", "peel" or "sweep"
    ref: object  # distance matrix, coordinates of points on a line, or GeneratorSpec
    trace_path: Optional[Path] = None


@dataclass
class Outcome:
    ok: bool
    error: str = ""
    value_frac: Optional[float] = None
    ratios: list = field(default_factory=list)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _solve_argv(objective, path, eps, extra=()):
    return [f"solve-{objective}", "--input", path, "--eps", repr(eps), *extra]


def build(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload's instance files under ``workdir``."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed % 2**63, WORKLOADS.index(workload))))
    return {"ingest": _ingest, "search": _search, "peel": _peel, "sweep": _sweep}[workload](
        rng, workdir
    )


def _ingest(rng, workdir):
    requests = []
    for i, ((objective, n, family), inst_seed) in enumerate(
        zip(INGEST_SHAPES, _seeds(rng, len(INGEST_SHAPES)))
    ):
        m = generate(GeneratorSpec(family=family, n=n, seed=inst_seed))
        path = _write(workdir / f"ingest-{i}.txt", format_metric(m))
        argv = _solve_argv(objective, path, 0.5, ("--budget-restarts", "0"))
        requests.append(Request(f"ingest-{i:02d}", objective, argv, family, n, 0.5,
                                "witness", m.dist))
    return requests


def _search(rng, workdir):
    shapes = [s for *s, copies in SEARCH_SHAPES for _ in range(copies)]
    requests = []
    for i, ((objective, n, eps, mode), inst_seed) in enumerate(
        zip(shapes, _seeds(rng, len(shapes)))
    ):
        family = DENSE_FAMILIES[i % len(DENSE_FAMILIES)]
        m = generate(GeneratorSpec(family=family, n=n, seed=inst_seed))
        path = _write(workdir / f"search-{i}.txt", format_metric(m))
        extra = ("--grid-mode", "faithful") if mode == "faithful" else ()
        requests.append(Request(f"search-{i:02d}", objective,
                                _solve_argv(objective, path, eps, extra), family, n, eps,
                                "witness", m.dist))
    return requests


def _peel(rng, workdir):
    jobs = [("hc", hc_case_c_spec, n) for n in PEEL_HC_N]
    jobs += [("la", la_case_c_spec, n) for n in PEEL_LA_N]
    requests = []
    for i, (objective, spec_for, base_n) in enumerate(jobs):
        spec, eps = spec_for(base_n + int(rng.integers(0, 4)))
        m = generate(spec)
        # two_scale points lie on a line starting at 0, so row 0 holds them
        points = m.dist[0].copy()
        # compare digests so that no two n x n matrices are alive at once and
        # set-up does not raise the peak memory above the program's own
        digest = hashlib.sha256(m.dist.tobytes()).digest()
        del m
        text = format_point_cloud(points[:, None])
        if hashlib.sha256(parse_point_cloud(text).dist.tobytes()).digest() != digest:
            raise RuntimeError(f"point cloud for {spec} does not re-parse bit-exactly")
        path = _write(workdir / f"peel-{i}.txt", text)
        trace_path = workdir / f"peel-{i}.jsonl"
        argv = _solve_argv(objective, path, eps,
                           ("--budget-restarts", "0", "--trace", str(trace_path)))
        requests.append(Request(f"peel-{i:02d}", objective, argv, spec.family, spec.n, eps,
                                "peel", points, trace_path))
    return requests


def _sweep(rng, workdir):
    requests = []
    for inst_seed in _seeds(rng, SWEEP_SEEDS_PER_RUN):
        for family in SWEEP_FAMILIES:
            # largest first, so the warm-up request runs both oracles at n=8
            for n in reversed(SWEEP_N):
                spec = GeneratorSpec(family=family, n=n, seed=inst_seed)
                for objective, algorithms in SWEEP_GROUPS.items():
                    i = len(requests)
                    config = {
                        "eps": list(SWEEP_EPS),
                        "algorithms": list(algorithms),
                        "restarts": SWEEP_RESTARTS,
                        "instances": [{"family": family, "n": n, "seed": inst_seed}],
                    }
                    path = _write(workdir / f"sweep-{i}.json", json.dumps(config))
                    requests.append(Request(f"sweep-{i:03d}", objective,
                                            ["bench", "--config", path], family, n, None,
                                            "sweep", spec))
    return requests


# ---------------------------------------------------------------------------
# Output checks.  The evaluators are the benchmark's own, not the program's.


# The evaluators read distances a block of rows at a time, so that checking a
# point cloud never builds its full matrix.
ROW_BLOCK = 256


def distance_rows(ref):
    """rows(idx) -> distances from the points ``idx`` to every point."""
    if ref.ndim == 2:
        return lambda idx: ref[idx]
    return lambda idx: np.abs(ref[idx][:, None] - ref[None, :])


def _row_blocks(n):
    for start in range(0, n, ROW_BLOCK):
        yield np.arange(start, min(n, start + ROW_BLOCK))


def total_weight(rows, n) -> float:
    return sum(float(rows(idx).sum()) for idx in _row_blocks(n)) / 2.0


def la_value(rows, positions) -> float:
    pos = np.asarray(positions, dtype=float)
    return sum(float((rows(idx) * np.abs(pos[idx][:, None] - pos[None, :])).sum())
               for idx in _row_blocks(len(pos))) / 2.0


def hc_value(rows, root) -> float:
    """Sum over internal nodes of leaf count times the weight split there."""
    total = 0.0
    stack = [(root, False)]
    done = []
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            done.append([node])
        elif expanded:
            right, left = done.pop(), done.pop()
            small, big = sorted((left, right), key=len)
            total += (len(left) + len(right)) * float(rows(np.array(small))[:, big].sum())
            done.append(left + right)
        else:
            stack.extend(((node, True), (node[1], False), (node[0], False)))
    return total


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _lines(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest
    return out


def check(req: Request, stdout: str, trace_text: Optional[str]) -> Outcome:
    """Check one successful (exit 0) request's output against its instance."""
    if req.kind == "sweep":
        return _check_sweep(req, stdout)
    fields_ = _lines(stdout)
    rows = distance_rows(req.ref)
    printed = float(fields_["value"])
    if req.objective == "la":
        value = la_value(rows, LinearArrangement.parse(fields_["arrangement"]).position)
    else:
        value = hc_value(rows, HcTree.parse(fields_["tree"]).root)
    if not _close(value, printed):
        return Outcome(False, f"printed value {printed!r} but witness scores {value!r}")
    weight = total_weight(rows, req.n)
    outcome = Outcome(True, value_frac=printed / (req.n * weight))
    if req.kind == "peel":
        depth_s, _, cases = fields_["depth"].partition(" cases ")
        records = [json.loads(line) for line in (trace_text or "").splitlines()]
        traced = "".join(rec["case"] for rec in records)
        if not CASES_RE.fullmatch(cases) or traced != cases or len(records) != int(depth_s):
            return Outcome(False, f"trace cases {traced!r} vs printed depth {depth_s} "
                                  f"cases {cases!r}")
    return outcome


def _check_sweep(req: Request, stdout: str) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    algorithms = SWEEP_GROUPS[req.objective]
    expected = sum(len(SWEEP_EPS) if a.startswith(("peel", "dense")) else 1 for a in algorithms)
    if len(rows) != expected or {r["algorithm"] for r in rows} != set(algorithms):
        return Outcome(False, f"expected {expected} rows of {algorithms}, got {len(rows)}")
    weight = total_weight(distance_rows(generate(req.ref).dist), req.n)
    fracs, ratios = [], []
    for row in rows:
        if not row["oracle_value"] or not row["ratio"]:
            return Outcome(False, f"{row['algorithm']}: oracle columns empty")
        value, oracle = float(row["value"]), float(row["oracle_value"])
        ratio = value / oracle
        if float(row["ratio"]) > 1.0 + REL_TOL or ratio > 1.0 + REL_TOL:
            return Outcome(False, f"{row['algorithm']}: ratio {row['ratio']} above 1")
        if row["algorithm"].startswith("peel"):
            ratios.append(ratio)
            fracs.append(value / (req.n * weight) if weight > 0 else 0.0)
    return Outcome(True, value_frac=sum(fracs) / len(fracs), ratios=ratios)

