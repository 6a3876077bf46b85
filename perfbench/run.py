#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the peelembed command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {ingest,search,peel,sweep} \\
        --seed N --seconds S --trace {0,1}

Each request is one in-process call to ``peelembed.cli.main(argv)`` with
stdout captured, from reading the input file to printing the witness.  A
single closed-loop client issues them: the next request starts when the
previous one returns.  BLAS is pinned to one thread.

A run first sets up three times (generate the seeded instance files, check
them, run one uncounted warm-up request) and reports the median as
``setup_s``.  It then runs whole rounds over the workload's request list
until the rounds fill about ``--seconds``.  With ``--trace 0`` every round
is untraced and the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced rounds alternate; the traced rounds wrap the public
function of every layer (see ``spans.py``) and give the per-layer metrics,
which are per round: counts and self seconds summed over one pass of the
request list.

Every request is checked: exit code 0, the printed witness re-parsed and
re-scored on the benchmark's own copy of the instance, the trace JSONL
against the printed depth and cases, the bench CSV ratios against the
oracles, and the digests of stdout and trace identical across repetitions
and across traced and untraced rounds.  A failed check counts toward
``failed`` and never stops the run.

Times are seconds at a reference host speed (see ``Calibration``): the
host's speed drifts by up to 2x, and raw CPU seconds drift with it.  Each
request's time is the median over its repetitions, and the reported
medians are over the distinct requests of a round, so they do not depend on
how many rounds fit in ``--seconds``.  ``cpu_s_tail`` is the highest
percentile with at least ten requests beyond it, but never below the median.
Results, digests, per-request records and spans go to
``perfbench/results/``.  The last line of stdout is the JSON result.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 3


def load_program():
    src = ROOT / "src"
    if not (src / "peelembed" / "__init__.py").is_file():
        sys.exit(f"perfbench: no peelembed sources under {src}")
    sys.path.insert(0, str(src))
    import peelembed.cli

    if not Path(peelembed.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported peelembed from {peelembed.cli.__file__}, not {src}")
    return peelembed.cli


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


# The host's speed changes by up to 2x within seconds (the vCPUs share
# physical cores), and process CPU time changes with it.  Two fixed kernels,
# one interpreter-bound (small numpy calls in a Python loop) and one
# memory-bound (passes over a 4 MB array), are timed right before and after
# every request.  Times are reported at the reference speed: raw seconds
# divided by the slowdown, a weighted mean of each kernel's time over its
# reference time, weighted by the kind of request (see INTERPRETER_WEIGHT in
# workloads.py).  The reference times are the kernels' times on an idle
# 2-vCPU Xeon VM; only their ratio to later samples matters.
KERNEL_REF_S = (0.015, 0.005)
CALIBRATION_MAX_AGE_S = 0.05


class Calibration:
    def __init__(self):
        import numpy as np

        self.small = np.arange(64.0).reshape(8, 8)
        self.large = np.arange(500_000.0)
        self.sample()

    def sample(self):
        """Time both kernels; returns each one's slowdown against its reference."""
        start = time.process_time()
        acc = 0.0
        for i in range(7500):
            acc += float((self.small * i).sum())
        middle = time.process_time()
        for _ in range(6):
            acc += float((self.large * 1.0001 + self.large).max())
        end = time.process_time()
        self.last = ((middle - start) / KERNEL_REF_S[0], (end - middle) / KERNEL_REF_S[1])
        self.taken = time.perf_counter()
        return self.last

    def fresh(self):
        """The latest slowdowns, re-measured if they are older than the max age."""
        if time.perf_counter() - self.taken > CALIBRATION_MAX_AGE_S:
            return self.sample()
        return self.last

    def scale(self, before, interpreter_weight):
        """Factor from raw to reference seconds for work done since ``before``."""
        after = self.sample()
        slowdown = sum(interpreter_weight * b[0] + (1.0 - interpreter_weight) * b[1]
                       for b in (before, after)) / 2.0
        return 1.0 / slowdown


def _sha(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


class Bench:
    def __init__(self, cli, workloads, workload, seed):
        self.cli = cli
        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.requests = []
        self.workdir = None
        self.digests = {}  # rid -> (stdout sha256, trace sha256)
        self.failures = []
        self.calibration = Calibration()
        self.weights = workloads.INTERPRETER_WEIGHT[workload]

    def setup(self, index):
        """Build the instance files and warm up; returns (scaled, raw) seconds."""
        before = self.calibration.fresh()
        start = time.perf_counter()
        if self.workdir is not None:
            shutil.rmtree(self.workdir)
        self.workdir = RESULTS / f"work-{self.workload}-{os.getpid()}-{index}"
        self.workdir.mkdir(parents=True)
        self.requests = self.wl.build(self.workload, self.seed, self.workdir)
        self.execute(self.requests[0], "warmup", None)
        raw = time.perf_counter() - start
        weight = statistics.fmean(self.weights.values())
        return raw * self.calibration.scale(before, weight), raw

    def execute(self, req, round_tag, tracer):
        """Run one request, check it, and return its execution record."""
        if req.trace_path is not None:
            req.trace_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        key = f"{req.rid}#{round_tag}"
        gc.collect()  # leave no garbage from earlier requests to be collected inside this one
        before = self.calibration.fresh()
        if tracer is not None:
            tracer.open_request(key)
            tracer.begin(spans.ROOT_SPAN)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(req.argv)
            error = "" if rc == 0 else f"exit code {rc}: {err.getvalue().strip()}"
        except (Exception, SystemExit):
            error = traceback.format_exc()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if tracer is not None:
            tracer.end()
            tracer.close_request()
        scale = self.calibration.scale(before, self.weights[req.objective])

        stdout = out.getvalue()
        trace_text = None
        if req.trace_path is not None and req.trace_path.exists():
            trace_text = req.trace_path.read_text(encoding="utf-8")
        outcome = self.wl.Outcome(False, error)
        if not error:
            try:
                outcome = self.wl.check(req, stdout, trace_text)
            except Exception:
                outcome = self.wl.Outcome(False, "unparsable output: " + traceback.format_exc())
        digest = (_sha(stdout), _sha(trace_text))
        reference = self.digests.setdefault(req.rid, digest)
        if outcome.ok and digest != reference:
            outcome = self.wl.Outcome(False, f"output digest {digest} differs from {reference}")
        return {"rid": req.rid, "key": key, "objective": req.objective,
                "cpu_s": cpu * scale, "wall_s": wall * scale, "scale": scale,
                "raw_cpu_s": cpu, "raw_wall_s": wall, "ok": outcome.ok,
                "error": outcome.error, "value_frac": outcome.value_frac,
                "ratios": outcome.ratios}

    def run_round(self, round_tag, tracer=None):
        records = [self.execute(req, round_tag, tracer) for req in self.requests]
        self.failures.extend(r for r in records if not r["ok"])
        return records

    def cleanup(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def per_request_median(records, field):
    by_rid = defaultdict(list)
    for r in records:
        if r["ok"]:
            by_rid[r["rid"]].append(r[field])
    return {rid: statistics.median(v) for rid, v in by_rid.items()}


def tail(values):
    """Highest percentile with >= 10 values beyond it, floored at the median."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(untraced, setups):
    objective = {r["rid"]: r["objective"] for r in untraced}
    cpu = per_request_median(untraced, "cpu_s")
    la = [v for rid, v in cpu.items() if objective[rid] == "la"]
    hc = [v for rid, v in cpu.items() if objective[rid] == "hc"]
    tail_value, tail_pct, tail_n = tail(cpu.values())
    ok = [r for r in untraced if r["ok"]]
    fracs = per_request_median(untraced, "value_frac")
    metrics = {
        "la_cpu_s_p50": (statistics.median(la) if la else 0.0, "s"),
        "hc_cpu_s_p50": (statistics.median(hc) if hc else 0.0, "s"),
        "cpu_s_tail": (tail_value, "s"),
        "solves_per_s": (len(ok) / sum(r["wall_s"] for r in untraced), "1/s"),
        "value_frac_mean": (statistics.fmean(fracs.values()) if fracs else 0.0, "ratio"),
        "setup_s": (statistics.median(scaled for scaled, raw in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = per_request_median(untraced, "raw_cpu_s")
    notes = {"cpu_s_tail": {"percentile": tail_pct, "requests": tail_n,
                            "samples": len(ok)},
             "setup_s": {"scaled": [a for a, b in setups], "raw": [b for a, b in setups]},
             "raw_cpu_s_p50": statistics.median(raw.values()) if raw else None,
             "scale_median": statistics.median(r["scale"] for r in untraced),
             "requests": {r["key"]: {k: r[k] for k in ("cpu_s", "raw_cpu_s", "scale")}
                          for r in untraced}}
    return metrics, notes


def per_layer(tracer, traced, untraced, rounds):
    calls, self_s = defaultdict(int), defaultdict(float)
    counters = defaultdict(float)
    for r in traced:
        for name, (n, s) in tracer.layers[r["key"]].items():
            calls[name] += n
            self_s[name] += s * r["scale"]
    for bucket in tracer.counters.values():
        for key, value in bucket.items():
            counters[key] += value
    metrics = {}
    for name in [t.span for t in spans.TARGETS] + [spans.ROOT_SPAN]:
        metrics[f"{name}.calls"] = (calls[name] / rounds, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / rounds, "s")
    for layer in ("la_dense.solve_la_dense", "hc_dense.solve_hc_dense"):
        n = calls[layer]
        metrics[f"{layer}.leaf_n"] = (counters[f"{layer}.leaf_n_sum"] / n if n else 0.0,
                                      "points")
    searches = calls["partition_search.search_partition"]
    hits = counters["partition_search.search_partition.hits"]
    metrics["partition_search.search_partition.hit_ratio"] = (
        hits / searches if searches else 0.0, "ratio")
    for key, unit in (("metric.input_mb", "MB"), ("metric.submetric.mb", "MB"),
                      ("trace.jsonl_mb", "MB"), ("peeling.levels", "count"),
                      ("peeling.case_a", "count"), ("peeling.case_b", "count"),
                      ("peeling.case_c", "count")):
        metrics[key] = (counters[key] / rounds, unit)
    traced_cpu = sum(r["cpu_s"] for r in traced)
    untraced_cpu = sum(r["cpu_s"] for r in untraced)
    metrics["bench.trace_overhead"] = (traced_cpu / untraced_cpu - 1.0, "ratio")
    metrics["bench.traced_cpu_s"] = (traced_cpu / rounds, "s")
    all_records = traced + untraced
    metrics["fail_rate"] = (sum(not r["ok"] for r in all_records) / len(all_records), "ratio")
    ratios = [x for r in traced if r["ok"] for x in r["ratios"]]
    metrics["ratio_mean"] = (statistics.fmean(ratios) if ratios else 0.0, "ratio")
    metrics["ratio_min"] = (min(ratios) if ratios else 0.0, "ratio")
    return metrics


def request_records(bench, tracer, traced):
    by_rid = {req.rid: req for req in bench.requests}
    for r in traced:
        req = by_rid[r["rid"]]
        layers = tracer.layers[r["key"]]
        yield {
            "workload": bench.workload, "request": r["key"],
            "argv": [a.replace(str(bench.workdir), "{work}") for a in req.argv],
            "family": req.family, "n": req.n, "eps": req.eps,
            "cpu_s": r["cpu_s"], "wall_s": r["wall_s"], "raw_cpu_s": r["raw_cpu_s"],
            "scale": r["scale"], "ok": r["ok"],
            "self_s": {name: s * r["scale"] for name, (n, s) in sorted(layers.items())},
            "calls": {name: n for name, (n, s) in sorted(layers.items())},
            "counters": dict(sorted(tracer.counters[r["key"]].items())),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ingest", "search", "peel", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_program()
    import workloads

    env = environment()
    print(json.dumps({"environment": env}))
    RESULTS.mkdir(exist_ok=True)
    bench = Bench(cli, workloads, args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = [bench.setup(i) for i in range(repeats)]
        start = time.perf_counter()
        rounds = 0
        while True:
            untraced += bench.run_round(f"u{rounds}")
            if tracer is not None:
                patches = spans.install(tracer)
                try:
                    traced += bench.run_round(f"t{rounds}", tracer)
                finally:
                    spans.uninstall(patches)
            rounds += 1
            elapsed = time.perf_counter() - start
            # whole rounds, ending as close to --seconds as they allow
            if elapsed + elapsed / rounds / 2 >= args.seconds:
                break
    finally:
        bench.cleanup()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics, notes = end_to_end(untraced, setups)
    else:
        metrics, notes = per_layer(tracer, traced, untraced, rounds), {}
        # one spans file per workload: a traced sweep round holds ~500k spans
        tracer.write(RESULTS / f"spans-{args.workload}.jsonl.gz")
        with open(RESULTS / f"requests-{tag}.jsonl", "w", encoding="utf-8") as fh:
            for record in request_records(bench, tracer, traced):
                fh.write(json.dumps(record) + "\n")
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    printed = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} is measured in {unit}, declared {entry['unit']}")
        printed[entry["name"]] = {"value": value, "unit": unit}
    attempted = len(untraced) + len(traced)
    failed = len(bench.failures)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "environment": env, "notes": notes,
        "failures": [{"request": r["key"], "error": r["error"]} for r in bench.failures],
        "digests": {rid: {"stdout": d[0], "trace": d[1]}
                    for rid, d in sorted(bench.digests.items())},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"summary-{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if notes:
        print(json.dumps({"cpu_s_tail": notes["cpu_s_tail"], "setup_s": notes["setup_s"]}))
    for r in bench.failures[:5]:
        print(f"FAILED {r['key']}: {r['error'].strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
