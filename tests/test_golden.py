"""Byte-level referee: solver, bench and CLI outputs against tests/golden/.

The golden files were written before the two peeling recursions, the two
CLI solve paths and the two dense restart loops were merged, and a mismatch
means an output changed.  They were regenerated once since, when a block's
weight became half the sum of its row sums: only trace floats moved in their
last bits (``rho`` in six of the seven peeling traces and in the la, hc and
la250 trace files of the CLI transcript, ``alpha``, ``beta`` and ``gamma``
in some of them), while every witness, value, case sequence, id list,
stdout line and the bench CSV stayed byte-identical.  The CLI transcript was
regenerated once more when the exact oracles' caps rose to n <= 20 (LA) and
n <= 15 (HC): the HC oracle on the n=9 matrix now answers instead of exiting
1, and a new n=16 case keeps the exit-1 path.  They hold

- the CSV of ``scripts/bench_sweep.py`` with its default arguments;
- witness, value and trace JSONL of zero-budget case-(c) peeling runs
  (``la_case_c_spec`` at n 250/300/440, ``hc_case_c_spec`` at n 1860/1900)
  and of the case-(b) outlier instances of the peeling tests;
- a CLI transcript: argv, exit code, stdout, stderr and written files of
  every command in ``CLI_COMMANDS``;
- value and witness of default-budget faithful dense solves whose grids the
  partition search takes in its local regime (n > 12), ``FAITHFUL_LOCAL``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peelembed import objectives
from peelembed.cli import main
from peelembed.hc_dense import solve_hc_dense
from peelembed.hc_peeling import solve_hc
from peelembed.instances import GeneratorSpec, generate, hc_case_c_spec, la_case_c_spec
from peelembed.la_dense import solve_la_dense
from peelembed.la_peeling import solve_la
from peelembed.local_search import SolveConfig
from peelembed.metric import format_metric, format_point_cloud

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _la_case_c(n, seed):
    spec, eps = la_case_c_spec(n, seed=seed)
    return solve_la(generate(spec), SolveConfig(eps, restarts=0), seed=seed)


def _hc_case_c(n, seed):
    spec, eps = hc_case_c_spec(n, seed=seed)
    return solve_hc(generate(spec), SolveConfig(eps, restarts=0), seed=seed)


def _outliers(core_n):
    return generate(GeneratorSpec(family="cluster_plus_outliers", n=core_n + 1, outlier_n=1))


PEELING_RUNS = {
    "la_case_c_n250_s0": lambda: _la_case_c(250, 0),
    "la_case_c_n300_s1": lambda: _la_case_c(300, 1),
    "la_case_c_n440_s2": lambda: _la_case_c(440, 2),
    "hc_case_c_n1860_s0": lambda: _hc_case_c(1860, 0),
    "hc_case_c_n1900_s1": lambda: _hc_case_c(1900, 1),
    "la_case_b_outlier51": lambda: solve_la(_outliers(50), SolveConfig(0.6)),
    "hc_case_b_outlier501": lambda: solve_hc(_outliers(500), SolveConfig(0.05)),
}


def render_peeling(name):
    """(witness text, trace JSONL) of one peeling run."""
    witness, trace = PEELING_RUNS[name]()
    return f"value {trace.value!r}\n{witness.serialize()}\n", trace.to_json_lines()


# (objective, family, n, seed) at eps 0.5: the LA grids pick every move by a
# clear lead, the HC grids also through near-tied rows of the partition search
FAITHFUL_LOCAL = [
    ("la", "clustered", 13, 0),
    ("la", "euclidean_uniform_box", 16, 0),
    ("hc", "clustered", 13, 1),
    ("hc", "uniform_metric", 13, 0),
]


def render_faithful_local():
    """A header, value and witness line per solve of ``FAITHFUL_LOCAL``."""
    solvers = {"la": solve_la_dense, "hc": solve_hc_dense}
    lines = []
    for objective, family, n, seed in FAITHFUL_LOCAL:
        m = generate(GeneratorSpec(family=family, n=n, seed=seed))
        witness, value = solvers[objective](m, SolveConfig(0.5, "faithful"), seed=seed)
        lines += [f"{objective} {family} n={n} seed={seed}", f"value {value!r}",
                  witness.serialize()]
    return "\n".join(lines) + "\n"


def render_bench_sweep(tmp_dir):
    out = Path(tmp_dir) / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_sweep.py"),
                    "--out", str(out)], check=True, env=env, stdout=subprocess.DEVNULL)
    return out.read_text(encoding="utf-8")


def _write_inputs(tmp_dir):
    tmp = Path(tmp_dir)
    pts = np.random.default_rng(11).uniform(0.0, 1.0, size=(7, 2))
    inputs = {
        "m9.txt": format_metric(generate(GeneratorSpec(family="clustered", n=9, seed=3))),
        "m16.txt": format_metric(generate(GeneratorSpec(family="clustered", n=16, seed=3))),
        "m8.txt": format_metric(generate(GeneratorSpec(family="euclidean_gaussian", n=8,
                                                       seed=2))),
        "outliers40.txt": format_metric(generate(GeneratorSpec(
            family="cluster_plus_outliers", n=40, outlier_n=4, seed=1))),
        "two_scale250.txt": format_metric(generate(la_case_c_spec(250, seed=4)[0])),
        "pts7.txt": format_point_cloud(pts),
        "triangle.txt": "3\n0 1 9\n1 0 1\n9 1 0\n",
        "bench.json": json.dumps({
            "eps": [0.25, 0.5],
            "restarts": 4,
            "algorithms": ["peel-la", "peel-hc", "dense-la", "dense-hc", "avg-link",
                           "bisect-la", "oracle-la", "oracle-hc"],
            "instances": [{"family": "clustered", "n": 7, "seed": 1},
                          {"family": "path_metric", "n": 6, "label": "path6"},
                          {"family": "cluster_plus_outliers", "n": 8, "seed": 2}],
        }),
        "bad.json": "{not json",
    }
    for name, text in inputs.items():
        (tmp / name).write_text(text, encoding="utf-8")


def _solve_variants(objective, path, eps):
    base = [f"solve-{objective}", "--input", path, "--eps", eps]
    return [base, base + ["--dense-only"], base + ["--grid-mode", "faithful"],
            base + ["--grid-mode", "faithful", "--dense-only"]]


CLI_COMMANDS = [
    ["--seed", "3", "gen", "--family", "clustered", "--n", "9"],
    ["gen", "--family", "path_metric", "--n", "5"],
    ["validate", "--input", "{dir}/m9.txt"],
    ["validate", "--input", "{dir}/pts7.txt"],
    ["validate", "--input", "{dir}/triangle.txt", "--format", "matrix"],
    *_solve_variants("la", "{dir}/m9.txt", "0.5"),
    *_solve_variants("hc", "{dir}/m8.txt", "0.5"),
    ["solve-la", "--input", "{dir}/m9.txt", "--eps", "0.25", "--dense-only"],
    ["solve-hc", "--input", "{dir}/m9.txt", "--eps", "0.34"],
    ["--seed", "5", "solve-la", "--input", "{dir}/pts7.txt", "--eps", "0.34"],
    ["--seed", "5", "solve-hc", "--input", "{dir}/pts7.txt", "--eps", "0.34",
     "--format", "points"],
    ["solve-la", "--input", "{dir}/outliers40.txt", "--eps", "0.6",
     "--trace", "{dir}/la.jsonl"],
    ["solve-hc", "--input", "{dir}/outliers40.txt", "--eps", "0.3",
     "--budget-restarts", "4", "--trace", "{dir}/hc.jsonl"],
    ["solve-la", "--input", "{dir}/outliers40.txt", "--eps", "0.5",
     "--budget-restarts", "0", "--dense-only"],
    ["solve-la", "--input", "{dir}/two_scale250.txt", "--eps", "0.45",
     "--budget-restarts", "0", "--trace", "{dir}/la250.jsonl"],
    ["solve-hc", "--input", "{dir}/two_scale250.txt", "--eps", "0.2",
     "--budget-restarts", "1", "--trace", "{dir}/hc250.jsonl"],
    ["solve-la", "--input", "{dir}/m9.txt", "--eps", "1.5"],
    ["oracle", "--input", "{dir}/m8.txt", "--objective", "la"],
    ["oracle", "--input", "{dir}/m8.txt", "--objective", "hc"],
    ["oracle", "--input", "{dir}/m9.txt", "--objective", "hc"],
    ["oracle", "--input", "{dir}/m16.txt", "--objective", "hc"],
    ["--seed", "2", "bench", "--config", "{dir}/bench.json"],
    ["bench", "--config", "{dir}/bad.json"],
]


def render_cli_transcript(tmp_dir):
    """One JSON line per command: argv, exit code, stdout, stderr, files."""
    _write_inputs(tmp_dir)
    lines = []
    for argv in CLI_COMMANDS:
        real = [a.replace("{dir}", str(tmp_dir)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(real)
        files = {}
        for arg in argv:
            if arg.endswith(".jsonl"):
                path = Path(arg.replace("{dir}", str(tmp_dir)))
                files[path.name] = path.read_text(encoding="utf-8")
        record = {"argv": argv, "exit": rc,
                  "stdout": out.getvalue().replace(str(tmp_dir), "{dir}"),
                  "stderr": err.getvalue().replace(str(tmp_dir), "{dir}"),
                  "files": files}
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _golden(name):
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(PEELING_RUNS))
def test_peeling_outputs_match_golden(name):
    witness, jsonl = render_peeling(name)
    assert witness == _golden(f"{name}.witness")
    assert jsonl == _golden(f"{name}.jsonl")


def test_hc_case_c_peel_walks_no_tree(monkeypatch):
    # the dense leaf's ladder is built from spans in closed form, and each
    # level joins its layer by relabelling and shifting the spans below
    walks = []
    walk = objectives._leaf_spans

    def counted(root):
        walks.append(1)
        return walk(root)

    monkeypatch.setattr(objectives, "_leaf_spans", counted)
    witness, _ = render_peeling("hc_case_c_n1860_s0")
    assert len(walks) == 0
    assert witness == _golden("hc_case_c_n1860_s0.witness")


def test_faithful_local_regime_matches_golden():
    assert render_faithful_local() == _golden("faithful_local.txt")


def test_bench_sweep_csv_matches_golden(tmp_path):
    assert render_bench_sweep(tmp_path) == _golden("bench_sweep.csv")


def test_cli_transcript_matches_golden(tmp_path):
    expected = _golden("cli_transcript.jsonl").splitlines()
    actual = render_cli_transcript(tmp_path).splitlines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert json.loads(got) == json.loads(want)
    assert actual == expected
