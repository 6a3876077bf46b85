"""Span tracer that wraps the public functions of each peelembed layer.

Spans are recorded from outside the program: ``install`` replaces every
reference to a traced function in every loaded ``peelembed.*`` module (the
modules import names with ``from .metric import ...``, so patching only the
defining module would miss calls) and patches methods on their class.
A span is recorded only while a request is open, so set-up and output checks
that call the same functions are never counted.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

ROOT_SPAN = "cli"


def _text_mb(args, kwargs, result):
    return {"metric.input_mb": len(args[0]) / 1e6}


def _submetric_mb(args, kwargs, result):
    # bytes copied by dist[np.ix_(idx, idx)].copy(), from the argument size
    k = len(args[1])
    return {"metric.submetric.mb": k * k * 8 / 1e6}


def _leaf_n(layer):
    def observe(args, kwargs, result):
        return {f"{layer}.leaf_n_sum": args[0].n}
    return observe


def _partition_hit(args, kwargs, result):
    return {"partition_search.search_partition.hits": int(result is not None)}


def _peeling_cases(args, kwargs, result):
    cases = result[1].case_sequence()
    return {
        "peeling.levels": len(cases),
        "peeling.case_a": cases.count("a"),
        "peeling.case_b": cases.count("b"),
        "peeling.case_c": cases.count("c"),
    }


def _jsonl_mb(args, kwargs, result):
    return {"trace.jsonl_mb": len(result) / 1e6}


@dataclass(frozen=True)
class Target:
    module: str  # defining module
    attr: str  # function name, or "Class.method"
    span: str  # span name, also the per-layer metric prefix
    observe: Optional[Callable] = None  # (args, kwargs, result) -> counters


TARGETS = (
    Target("peelembed.metric", "parse_metric", "metric.parse_metric", _text_mb),
    Target("peelembed.metric", "validate_metric", "metric.validate_metric"),
    Target("peelembed.metric", "parse_point_cloud", "metric.parse_point_cloud", _text_mb),
    Target("peelembed.metric", "subset_stats", "metric.subset_stats"),
    Target("peelembed.metric", "find_core", "metric.find_core"),
    Target("peelembed.metric", "Metric.submetric", "metric.submetric", _submetric_mb),
    Target("peelembed.la_peeling", "solve_la", "la_peeling.solve_la", _peeling_cases),
    Target("peelembed.hc_peeling", "solve_hc", "hc_peeling.solve_hc", _peeling_cases),
    Target("peelembed.la_dense", "solve_la_dense", "la_dense.solve_la_dense",
           _leaf_n("la_dense.solve_la_dense")),
    Target("peelembed.hc_dense", "solve_hc_dense", "hc_dense.solve_hc_dense",
           _leaf_n("hc_dense.solve_hc_dense")),
    Target("peelembed.partition_search", "search_partition",
           "partition_search.search_partition", _partition_hit),
    Target("peelembed.objectives", "evaluate_la", "objectives.evaluate_la"),
    Target("peelembed.objectives", "evaluate_hc", "objectives.evaluate_hc"),
    Target("peelembed.objectives", "ladder_tree", "objectives.ladder_tree"),
    Target("peelembed.oracles", "brute_force_la", "oracles.brute_force_la"),
    Target("peelembed.oracles", "brute_force_hc", "oracles.brute_force_hc"),
    Target("peelembed.oracles", "average_linkage_hc", "oracles.average_linkage_hc"),
    Target("peelembed.oracles", "random_bisection_la", "oracles.random_bisection_la"),
    Target("peelembed.trace", "RecursionTrace.to_json_lines", "trace.to_json_lines",
           _jsonl_mb),
)


class Tracer:
    """In-memory span store with per-request self-time aggregation.

    A finished span is ``(span_id, request_id, parent_id, name, cpu_start,
    cpu_end, wall_start, wall_end)``.  Self time is a span's CPU time minus
    the CPU time of its direct children.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []  # open spans: [span_id, name, cpu0, wall0, child_cpu]
        self._next_id = 0
        self.layers = {}  # request_id -> {name: [calls, self_cpu]}
        self.counters = {}  # request_id -> {counter: value}

    def begin(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.process_time(),
                            time.perf_counter(), 0.0])

    def end(self):
        cpu1, wall1 = time.process_time(), time.perf_counter()
        span_id, name, cpu0, wall0, child_cpu = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        cpu = cpu1 - cpu0
        if parent is not None:
            parent[4] += cpu
        self.spans.append((span_id, self.request, parent[0] if parent else None,
                           name, cpu0, cpu1, wall0, wall1))
        agg = self.layers[self.request].setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += cpu - child_cpu

    def count(self, values):
        bucket = self.counters[self.request]
        for key, value in values.items():
            bucket[key] += value

    def open_request(self, request_id):
        self.request = request_id
        self.layers[request_id] = {}
        self.counters[request_id] = defaultdict(float)

    def close_request(self):
        self.request = None

    def write(self, path):
        names = {}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                names.setdefault(span[3], len(names))
            fh.write(json.dumps({"fields": ["span", "request", "parent", "name",
                                            "cpu_start", "cpu_end", "wall_start",
                                            "wall_end"], "names": list(names)}) + "\n")
            for sid, rid, parent, name, c0, c1, w0, w1 in self.spans:
                fh.write(f'[{sid},"{rid}",{"null" if parent is None else parent},'
                         f'{names[name]},{c0!r},{c1!r},{w0!r},{w1!r}]\n')


def _wrap(fn, target, tracer):
    def traced(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        tracer.begin(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if target.observe is not None:
            tracer.count(target.observe(args, kwargs, result))
        return result
    return traced


def install(tracer):
    """Wrap every target; returns the list of patches for :func:`uninstall`."""
    patches = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "peelembed" or name.startswith("peelembed."))]
    for target in TARGETS:
        home = sys.modules[target.module]
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, _wrap(original, target, tracer))
            continue
        original = getattr(home, target.attr)
        wrapper = _wrap(original, target, tracer)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, name, original))
                    setattr(module, name, wrapper)
    return patches


def uninstall(patches):
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
