"""Command-line interface: subcommand roundtrips, exit codes, bench CSV."""

import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peelembed import cli, hc_peeling, la_peeling
from peelembed.cli import CSV_COLUMNS, OBJECTIVES, main, run_bench
from peelembed.instances import GeneratorSpec, generate, la_case_c_spec
from peelembed.local_search import SolveConfig
from peelembed.metric import Metric, format_metric, parse_metric
from peelembed.oracles import HC_ORACLE_MAX_N, LA_ORACLE_MAX_N, brute_force_la


@pytest.fixture
def matrix_file(tmp_path, two_cluster_6):
    path = tmp_path / "m.txt"
    path.write_text(format_metric(two_cluster_6))
    return str(path)


POINTS_TEXT = "0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n3 2.0 2.0\n"


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text(POINTS_TEXT)
    return str(path)


class TestValidateAndGen:
    def test_validate_matrix(self, matrix_file, capsys):
        assert main(["validate", "--input", matrix_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok n=6")
        assert "density=" in out

    def test_validate_points_auto(self, points_file, capsys):
        assert main(["validate", "--input", points_file]) == 0
        assert capsys.readouterr().out.startswith("ok n=4")

    def test_gen_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.txt")
        rc = main(
            ["--seed", "3", "--out", out, "gen", "--family", "euclidean_gaussian",
             "--n", "7"]
        )
        assert rc == 0
        m = parse_metric((tmp_path / "gen.txt").read_text())
        assert m.n == 7

    def test_gen_seed_changes_output(self, tmp_path):
        texts = []
        for seed in ("0", "1"):
            out = str(tmp_path / f"g{seed}.txt")
            main(["--seed", seed, "--out", out, "gen", "--family",
                  "euclidean_uniform_box", "--n", "6"])
            texts.append((tmp_path / f"g{seed}.txt").read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("argv, unknown", [
        (["gen", "--family", "clustered", "--n", "5", "--out", "inst.txt"], "--out inst.txt"),
        # a prefix of gen's --outlier-n, which prefix matching would set to 3
        (["gen", "--family", "cluster_plus_outliers", "--n", "5", "--out", "3"], "--out 3"),
        (["bench", "--config", "sweep.json", "--out", "results.csv"], "--out results.csv"),
        (["--threads=2", "gen", "--family", "clustered", "--n", "5"], "--threads=2"),
    ])
    def test_misplaced_or_unknown_flag_exits_2(self, tmp_path, monkeypatch, capsys, argv,
                                               unknown):
        # --out is global, so it goes before the subcommand; there is no --threads
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {unknown}" in captured.err
        assert not any(tmp_path.iterdir())

    def test_gen_bad_family_exits_1(self, capsys):
        assert main(["gen", "--family", "nope", "--n", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_broken_metric_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        # triangle inequality fails: d(0,2) = 9 > 1 + 1
        path.write_text("3\n0 1 9\n1 0 1\n9 1 0\n")
        assert main(["validate", "--input", str(path), "--format", "matrix"]) == 1

    @pytest.mark.parametrize("command", ["validate", "solve-la", "solve-hc"])
    def test_non_finite_matrix_exits_1_without_traceback(self, tmp_path, capsys, command):
        path = tmp_path / "nan.txt"
        path.write_text("3\n0 1 nan\n1 0 1\nnan 1 0\n")
        argv = [command, "--input", str(path), "--format", "matrix"]
        if command != "validate":
            argv += ["--eps", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert "Traceback" not in captured.err


    NAN_CLOUD = "0 nan 0\n1 1 0\n2 3 1\n3 0 2\n"

    @pytest.mark.parametrize("command", ["validate", "solve-la", "solve-hc"])
    def test_non_finite_point_cloud_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "nan_points.txt"
        path.write_text(self.NAN_CLOUD)
        argv = [command, "--input", str(path)]
        if command != "validate":
            argv += ["--eps", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not finite" in captured.err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "solve-la", "solve-hc"])
    def test_overflowing_point_cloud_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "huge_points.txt"
        path.write_text("0 1e200 0\n1 0 0\n2 3 1\n")
        argv = [command, "--input", str(path)]
        if command != "validate":
            argv += ["--eps", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: distance between points 0 and 1 overflows\n"

    @pytest.mark.parametrize(
        "text, fmt",
        [
            ("0 1\n0 2\n", "auto"),  # duplicate id
            ("0 0 0\n1 1\n2 3 1\n", "points"),  # ragged rows
            ("0 0 0\n1 1 x\n", "auto"),  # non-numeric coordinate
            ("3\n0 1 1\n1 0 1\n", "matrix"),  # too few matrix entries
            ("2\n0 x\nx 0\n", "matrix"),  # non-numeric entry
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, text, fmt):
        path = tmp_path / "bad_input.txt"
        path.write_text(text)
        for argv in (["validate"], ["solve-hc", "--eps", "0.5"]):
            assert main(argv + ["--input", str(path), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["auto", "matrix", "points"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, two_cluster_6, fmt):
        text = format_metric(two_cluster_6) if fmt != "points" else POINTS_TEXT
        outs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "input.txt"
            path.write_bytes(prefix + text.encode("utf-8"))
            for argv in (["validate"], ["solve-hc", "--eps", "0.5"]):
                assert main(argv + ["--input", str(path), "--format", fmt]) == 0
                outs.append(capsys.readouterr().out)
        assert outs[:2] == outs[2:]

    @pytest.mark.parametrize("command", ["validate", "solve-la", "oracle"])
    def test_missing_input_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--input", str(tmp_path / "absent.txt")]
        argv += {"validate": [], "solve-la": ["--eps", "0.5"],
                 "oracle": ["--objective", "la"]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read input ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["gen", "bench", "solve-la", "solve-hc"])
    def test_unwritable_output_exits_2(self, matrix_file, tmp_path, capsys, command):
        # --out or --trace into a missing directory: one error line naming
        # the path, as for an unreadable input, and no traceback
        path = str(tmp_path / "absent" / "out.txt")
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({"instances": [{"family": "uniform_metric", "n": 4}]}))
        argv = {"gen": ["--out", path, "gen", "--family", "clustered", "--n", "5"],
                "bench": ["--out", path, "bench", "--config", str(config)]}.get(
            command, [command, "--input", matrix_file, "--eps", "0.5", "--trace", path])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSolveAndOracle:
    def test_solve_la_sound_and_parses(self, matrix_file, two_cluster_6, capsys):
        assert main(["solve-la", "--input", matrix_file, "--eps", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        value = float(lines[0].split()[1])
        assert lines[1].startswith("arrangement ")
        assert lines[2].startswith("depth ")
        assert value <= brute_force_la(two_cluster_6).value * (1 + 1e-9)

    def test_solve_la_dense_only(self, matrix_file, capsys):
        rc = main(["solve-la", "--input", matrix_file, "--eps", "0.5",
                   "--dense-only"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # no trace line without peeling

    @pytest.mark.parametrize("command", ["solve-la", "solve-hc"])
    def test_dense_only_with_trace_is_a_usage_error(self, matrix_file, tmp_path, capsys,
                                                    command):
        trace_path = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", matrix_file, "--eps", "0.5", "--dense-only",
                  "--trace", str(trace_path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --trace: not allowed with argument --dense-only" in captured.err
        assert not trace_path.exists()

    @pytest.mark.parametrize("budget", [[], ["--budget-restarts", "0"]])
    def test_negative_seed_is_a_usage_error(self, matrix_file, capsys, budget):
        # with or without a search that would seed numpy with it
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", "solve-la", "--input", matrix_file, "--eps", "0.5", *budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be >= 0, got -1" in captured.err

    def test_negative_instance_seed_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [{"family": "uniform_metric", "n": 4,
                                                  "seed": -1}]}))
        assert main(["bench", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "clustered", "--n", "5", "--inter-scale", "inf"],
         "inter_scale must be finite and > 0, got inf"),
        (["gen", "--family", "clustered", "--n", "5", "--inter-scale", "nan"],
         "inter_scale must be finite and > 0, got nan"),
        (["gen", "--family", "cluster_plus_outliers", "--n", "5", "--ratio", "inf"],
         "ratio must be finite and > 0, got inf"),
        (["gen", "--family", "clustered", "--n", "5", "--intra-scale", "-1"],
         "intra_scale must be finite and >= 0, got -1.0"),
        (["bench", "--config", "{cfg}"], "inter_scale must be finite and > 0, got inf"),
        # 1/eps overflows: the dense solvers could not count their parts
        (["solve-la", "--input", "{m}", "--eps", "1e-310", "--budget-restarts", "0"],
         "eps must have a finite 1/eps, got 1e-310"),
        (["solve-hc", "--input", "{m}", "--eps", "1e-310"],
         "eps must have a finite 1/eps, got 1e-310"),
    ], ids=["inf-inter", "nan-inter", "inf-ratio", "negative-intra", "bench-infinity",
            "subnormal-eps-la", "subnormal-eps-hc"])
    def test_non_finite_scale_exits_1(self, matrix_file, tmp_path, capsys, argv, message):
        cfg = tmp_path / "cfg.json"
        # Python's json reads Infinity
        cfg.write_text('{"instances": [{"family": "clustered", "n": 5, "inter_scale": Infinity}]}')
        argv = [a.replace("{cfg}", str(cfg)).replace("{m}", matrix_file) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("instance", [
        {"family": "uniform_metric", "n": 4, "seed": 1.5},
        {"family": "uniform_metric", "n": 4.5},
        {"family": "clustered", "n": 6, "dim": 1.5},
        {"family": "uniform_metric", "n": True},
    ], ids=["float-seed", "float-n", "float-dim", "bool-n"])
    def test_non_integer_instance_field_exits_2(self, tmp_path, capsys, instance):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [instance]}))
        assert main(["bench", "--config", str(cfg)]) == 2  # raises on a traceback
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad instance entry 0: ")
        assert "must be an integer" in captured.err

    @pytest.mark.parametrize("command", ["solve-la", "solve-hc", "bench", "solve-la-eps-1.5",
                                         "bench-avg-link", "bench-unknown-family"])
    def test_negative_budget_exits_1_without_traceback(self, matrix_file, tmp_path, capsys,
                                                       monkeypatch, command):
        # restarts are checked first: before the eps, and in a bench before
        # any instance is generated, even when no algorithm searches
        generated = []
        monkeypatch.setattr(cli, "generate", lambda spec: generated.append(spec) or generate(spec))
        configs = {"bench": {},
                   "bench-avg-link": {"algorithms": ["avg-link"]},
                   "bench-unknown-family": {"instances": [{"family": "bogus", "n": 4}]}}
        if command in configs:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**BENCH_CONFIG, **configs[command], "restarts": -2}))
            argv, shown = ["bench", "--config", str(cfg)], -2
        elif command == "solve-la-eps-1.5":
            argv = ["solve-la", "--input", matrix_file, "--eps", "1.5", "--budget-restarts", "-1"]
            shown = -1
        else:
            argv = [command, "--input", matrix_file, "--eps", "0.5", "--budget-restarts", "-3"]
            shown = -3
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: restarts must be >= 0, got {shown}\n"
        assert generated == []

    def test_solve_hc_trace_file(self, matrix_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        rc = main(["solve-hc", "--input", matrix_file, "--eps", "0.5",
                   "--trace", str(trace_path)])
        assert rc == 0
        recs = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert recs and recs[-1]["case"] in "ab"

    def test_oracle_both_objectives(self, matrix_file, capsys):
        for objective in ("la", "hc"):
            assert main(["oracle", "--input", matrix_file,
                         "--objective", objective]) == 0
            out = capsys.readouterr().out
            assert out.startswith("value ")
            assert "explored" in out

    def test_oracle_too_large_exits_1(self, tmp_path, capsys):
        for objective, cap in (("la", LA_ORACLE_MAX_N), ("hc", HC_ORACLE_MAX_N)):
            path = tmp_path / f"big-{objective}.txt"
            n = cap + 1
            rows = [" ".join("0" if i == j else "1" for j in range(n)) for i in range(n)]
            path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
            assert main(["oracle", "--input", str(path), "--objective", objective]) == 1

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    def test_trace_value_is_the_witness_value(self, objective):
        obj = OBJECTIVES[objective]
        spec, eps = la_case_c_spec(250)
        metrics = [generate(spec)]
        for family in ("euclidean_gaussian", "clustered", "cluster_plus_outliers"):
            metrics += [generate(GeneratorSpec(family=family, n=n, seed=2)) for n in (6, 31)]
        # a Fortran-ordered matrix, whose own layout could change summation order
        metrics.append(Metric(np.asfortranarray(metrics[2].dist)))
        for m in metrics:
            witness, value, trace = obj.solve(m, SolveConfig(eps, restarts=0), seed=1)
            assert value == trace.value == obj.evaluate(m, witness)
            if m.n < 100:  # the dense solver alone, as --dense-only runs it
                witness, value, trace = obj.solve(m, SolveConfig(eps, restarts=0), seed=1,
                                                  dense_only=True)
                assert trace is None and value == obj.evaluate(m, witness)

    def test_determinism_across_runs(self, matrix_file, capsys):
        outs = []
        for _ in range(2):
            main(["--seed", "7", "solve-la", "--input", matrix_file,
                  "--eps", "0.5"])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


BENCH_CONFIG = {
    "eps": [0.5],
    "algorithms": ["peel-la", "peel-hc", "avg-link", "bisect-la", "oracle-la"],
    "instances": [
        {"family": "uniform_metric", "n": 5},
        {"family": "clustered", "n": 6, "seed": 2, "label": "clust6"},
    ],
}


# an instance every peel solves at its root in case (a), and one whose HC
# peel at eps 0.5 takes case (b) there
ROOT_A = {"family": "clustered", "n": 6, "seed": 2, "label": "root-a"}
ROOT_B = {"family": "cluster_plus_outliers", "n": 6, "label": "root-b"}


class TestBench:
    def test_csv_shape_and_ratios(self):
        text = run_bench(BENCH_CONFIG)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2 * len(BENCH_CONFIG["algorithms"])
        assert {row["instance"] for row in rows} == {"uniform_metric-n5-s0", "clust6"}
        for row in rows:
            assert float(row["ratio"]) <= 1.0 + 1e-9
            assert row["wall_time"] == ""
        oracle_rows = [r for r in rows if r["algorithm"] == "oracle-la"]
        assert all(float(r["ratio"]) == pytest.approx(1.0) for r in oracle_rows)

    def test_byte_identical_without_timing(self):
        assert run_bench(BENCH_CONFIG) == run_bench(BENCH_CONFIG)

    def test_timing_fills_wall_time(self):
        text = run_bench(BENCH_CONFIG, timing=True)
        last = text.splitlines()[-1].split(",")
        assert last[-1] != ""

    def test_bench_cli_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        out = tmp_path / "rows.csv"
        rc = main(["--out", str(out), "bench", "--config", str(cfg)])
        assert rc == 0
        assert out.read_text() == run_bench(BENCH_CONFIG)

    def test_bench_config_byte_order_mark_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        outs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            cfg.write_bytes(prefix + json.dumps(BENCH_CONFIG).encode("utf-8"))
            assert main(["bench", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("algorithm, n", [("oracle-la", LA_ORACLE_MAX_N + 1),
                                              ("oracle-hc", HC_ORACLE_MAX_N + 1)])
    def test_oracle_row_too_large_exits_1(self, tmp_path, capsys, algorithm, n):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"algorithms": [algorithm],
                                   "instances": [{"family": "uniform_metric", "n": n}]}))
        assert main(["bench", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "oracle guarded" in captured.err

    @pytest.mark.parametrize("config", [
        {"eps": 0.5},
        {"eps": "0.5"},
        {"instances": [5]},
        {"restarts": "x"},
        {"instances": {"family": "uniform_metric", "n": 4}},
    ], ids=["scalar-eps", "string-eps", "number-instance", "string-restarts",
            "object-instances"])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**BENCH_CONFIG, **config}))
        assert main(["bench", "--config", str(cfg)]) == 2  # raises on a traceback
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config field ")

    @pytest.mark.parametrize("algorithms, instances", [
        (["bogus"], []),
        (["peel-la", "bogus"], [{"family": "uniform_metric", "n": 4}]),
    ], ids=["no-instances", "after-a-known-one"])
    def test_unknown_algorithm_exits_2_before_any_instance(self, tmp_path, capsys, monkeypatch,
                                                           algorithms, instances):
        generated = []
        monkeypatch.setattr(cli, "generate", lambda spec: generated.append(spec) or generate(spec))
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"algorithms": algorithms, "instances": instances}))
        assert main(["bench", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: unknown algorithm 'bogus'\n"
        assert generated == []

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["bench", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"eps": [0.5]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"instances": [{"family": "uniform_metric",
                                                  "n": 4, "bogus": 1}]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        cfg.write_bytes(json.dumps(BENCH_CONFIG).encode("utf-8") + b"\xff")
        assert main(["bench", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config ")


def _bench_table(algorithms, timing=False, instances=(ROOT_A,)):
    text = run_bench({"eps": [0.25, 0.5], "algorithms": algorithms,
                      "instances": list(instances)}, timing=timing)
    return [dict(zip(CSV_COLUMNS, line.split(","))) for line in text.splitlines()[1:]]


class TestBenchDenseReuse:
    """A dense row after a peel row whose root level was case (a) takes that
    root's dense solve instead of running it again."""

    def test_dense_rows_equal_whatever_the_order(self):
        instances = (ROOT_A, ROOT_B)
        after = _bench_table(["peel-la", "dense-la", "peel-hc", "dense-hc"],
                             instances=instances)
        alone = _bench_table(["dense-la", "dense-hc"], instances=instances)
        before = _bench_table(["dense-la", "peel-la", "dense-hc", "peel-hc"],
                              instances=instances)
        # the case-(b) root keeps a dense row that is solved, not reused
        cases = {(r["instance"], r["algorithm"], r["eps"]): r["cases"]
                 for r in after if r["algorithm"].startswith("peel")}
        assert cases == {(label, f"peel-{objective}", eps): "a"
                         for label in ("root-a", "root-b")
                         for objective in OBJECTIVES for eps in ("0.25", "0.5")
                         } | {("root-b", "peel-hc", "0.5"): "b"}

        def dense(rows):
            return [r for r in rows if r["algorithm"].startswith("dense")]

        assert dense(after) == dense(alone) == dense(before)
        assert all(r["depth"] == r["cases"] == "" for r in dense(after))
        assert [r for r in after if r not in dense(after)] == [
            r for r in before if r not in dense(before)]

    @pytest.mark.parametrize("algorithms, calls", [
        (["peel-la", "dense-la", "peel-hc", "dense-hc"], 2),
        (["dense-la", "peel-la", "dense-hc", "peel-hc"], 4),  # a peel reuses nothing
    ], ids=["peel-first", "dense-first"])
    def test_each_dense_solve_runs_once(self, monkeypatch, algorithms, calls):
        counts = {"la": 0, "hc": 0}
        for objective, modules in (("la", (cli, la_peeling)), ("hc", (cli, hc_peeling))):
            name = f"solve_{objective}_dense"
            solve = getattr(cli, name)

            def counted(*args, objective=objective, solve=solve):
                counts[objective] += 1
                return solve(*args)

            for module in modules:
                monkeypatch.setattr(module, name, counted)
        _bench_table(algorithms)
        assert counts == {"la": calls, "hc": calls}

    def test_reused_row_reports_the_shared_wall_time(self):
        rows = _bench_table(["peel-la", "dense-la", "peel-hc", "dense-hc"], timing=True)
        times = {(r["algorithm"], r["eps"]): r["wall_time"] for r in rows}
        assert all(t != "" for t in times.values())
        for objective in OBJECTIVES:
            for eps in ("0.25", "0.5"):
                assert times[f"dense-{objective}", eps] == times[f"peel-{objective}", eps]


class TestRepeatedMain:
    def test_calls_share_one_parser_and_no_state(self, matrix_file, tmp_path, capsys,
                                                  monkeypatch):
        solve = ["solve-la", "--input", matrix_file, "--eps", "0.5"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        lone = subprocess.run([sys.executable, "-m", "peelembed.cli", *solve], env=env,
                              capture_output=True, text=True, check=True).stdout
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        refused = tmp_path / "refused.jsonl"
        for argv in ([*solve, "--dense-only", "--trace", str(refused)], ["--seed", "-1", *solve]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert main([*solve, "--budget-restarts", "0"]) == 0
        trace = tmp_path / "t.jsonl"
        assert main(["--seed", "3", *solve, "--trace", str(trace)]) == 0
        assert [json.loads(line) for line in trace.read_text().splitlines()]
        trace.unlink()
        capsys.readouterr()
        assert main(solve) == 0
        assert capsys.readouterr().out == lone
        assert not trace.exists() and not refused.exists()
        cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
        cfg.write_text(json.dumps(BENCH_CONFIG))
        assert main(["--out", str(out), "bench", "--config", str(cfg)]) == 0
        assert out.read_text() == run_bench(BENCH_CONFIG)
        assert built == []

    @pytest.mark.parametrize("dense_only", [False, True])
    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    @pytest.mark.parametrize("k", [40, 300])
    @pytest.mark.parametrize("family", ["clustered", "two_scale"])
    def test_solve_on_a_view_prints_what_a_copy_prints(self, tmp_path, capsys, monkeypatch,
                                                       family, k, objective, dense_only):
        big = generate(GeneratorSpec(family=family, n=k + 11, seed=1))
        view = Metric._adopt(big.dist[:k, :k])  # rows k + 11 entries apart
        # the default budget's restarts cost seconds for LA at k = 300; a zero
        # budget still quantizes the view for the swap climb
        budget = "0" if (objective, k) == ("la", 300) else "32"
        argv = [f"solve-{objective}", "--input", "-", "--eps", "0.5", "--budget-restarts", budget]
        argv += ["--dense-only"] if dense_only else ["--trace", str(tmp_path / "t.jsonl")]
        outs = []
        for m in (view, Metric(view.dist)):
            monkeypatch.setattr(cli, "_load_metric", lambda path, fmt, m=m: m)
            assert main(argv) == 0
            trace = "" if dense_only else (tmp_path / "t.jsonl").read_text()
            outs.append((capsys.readouterr().out, trace))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["peeling_trace_demo.py", "--n", "100"],  # below LA case (c)'s calibration
    ["bench_sweep.py", "--eps", "0"],
    ["bench_sweep.py", "--algorithms", "bogus"],
])
def test_scripts_report_bad_arguments_as_usage_errors(argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith(f"{argv[0]}: error: ")


def _bench_sweep(monkeypatch, *args):
    """The bench_sweep script as a module, its command line set to ``args``
    and its ``run_bench`` recording each call, whose CSV text is
    ``module.sweep_text``."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_sweep.py"
    spec = importlib.util.spec_from_file_location("bench_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls, module.sweep_text = [], None
    monkeypatch.setattr(module, "run_bench",
                        lambda *a, **k: module.calls.append(a) or module.sweep_text)
    monkeypatch.setattr(sys, "argv", ["bench_sweep.py", *args])
    return module


GOLDEN_SWEEP = Path(__file__).resolve().parent / "golden" / "bench_sweep.csv"


def _usage_error(sweep, capsys):
    """The stderr of a bench_sweep run that must stop with a usage error."""
    with pytest.raises(SystemExit) as stop:
        sweep.main()
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error" in line] == err.splitlines()[-1:]
    assert sweep.calls == []  # no solve ran
    return err.splitlines()[-1]


def test_bench_sweep_refuses_an_unwritable_out_before_any_solve(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "missing-dir" / "x.csv")
    sweep = _bench_sweep(monkeypatch, "--out", path, "--max-n", "3", "--seeds", "1")
    assert _usage_error(sweep, capsys).startswith(f"bench_sweep.py: error: cannot write {path}: ")


def _csv(rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_bench_sweep_compare_flags_a_lowered_ratio_and_a_dropped_row(monkeypatch, capsys):
    golden = GOLDEN_SWEEP.read_text(encoding="utf-8")
    rows = list(csv.DictReader(io.StringIO(golden)))
    assert _csv(rows) == golden
    lowered = next(i for i, row in enumerate(rows)
                   if (row["algorithm"], row["eps"]) == ("dense-hc", "0.5") and row["ratio"])
    dropped = next(i for i, row in enumerate(rows)
                   if (row["algorithm"], row["eps"]) == ("dense-la", "0.25") and row["ratio"])
    rows[lowered]["ratio"] = "0.500000"
    gone = rows.pop(dropped)

    sweep = _bench_sweep(monkeypatch, "--compare", str(GOLDEN_SWEEP))
    sweep.sweep_text = _csv(rows)
    assert sweep.main() == 1
    printed = capsys.readouterr().out.splitlines()
    compared = printed[printed.index(next(line for line in printed if "old mean" in line)):]
    table = {tuple(line.split()[:2]): line.split()[2:] for line in compared[1:11]}
    assert len(table) == 10 and all(cells[-2:] == ["0", "0"] for key, cells in table.items()
                                    if key != ("dense-hc", "0.5"))
    count, old_mean, new_mean, old_min, new_min, down, up = table["dense-hc", "0.5"]
    assert (count, new_min, down, up) == ("144", "0.500000", "1", "0")
    assert float(new_mean) < float(old_mean) and float(old_min) > 0.5
    assert table["dense-la", "0.25"][0] == "143"
    assert compared[11:] == [f"missing {gone['instance']} eps=0.25 dense-la"]

    # the golden sweep against itself changes nothing
    sweep = _bench_sweep(monkeypatch, "--compare", str(GOLDEN_SWEEP))
    sweep.sweep_text = golden
    assert sweep.main() == 0
    assert "missing" not in capsys.readouterr().out


@pytest.mark.parametrize("case", ["no ratio column", "bad ratio", "short row", "repeated key"])
def test_bench_sweep_refuses_a_malformed_base_before_any_solve(case, tmp_path, monkeypatch,
                                                                capsys):
    lines = GOLDEN_SWEEP.read_text(encoding="utf-8").splitlines()[:4]
    if case == "no ratio column":
        lines[0] = lines[0].replace("ratio", "ratios")
    elif case == "bad ratio":
        lines[2] = lines[2].replace(",1.000000,", ",x,")
    elif case == "short row":
        lines[2] = lines[2].rsplit(",", 1)[0]
    else:
        lines[3] = lines[2]
    base = tmp_path / "base.csv"
    base.write_text("\n".join(lines) + "\n")
    sweep = _bench_sweep(monkeypatch, "--compare", str(base))
    error = _usage_error(sweep, capsys)
    assert error.startswith(f"bench_sweep.py: error: cannot read base {base}: ")
