"""Command-line interface: subcommand roundtrips, exit codes, bench CSV."""

import json

import numpy as np
import pytest

from peelembed.cli import CSV_COLUMNS, OBJECTIVES, main, run_bench
from peelembed.instances import GeneratorSpec, generate, la_case_c_spec
from peelembed.metric import Metric, format_metric, parse_metric
from peelembed.oracles import brute_force_la
from peelembed.partition_search import SearchBudget


@pytest.fixture
def matrix_file(tmp_path, two_cluster_6):
    path = tmp_path / "m.txt"
    path.write_text(format_metric(two_cluster_6))
    return str(path)


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n3 2.0 2.0\n")
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

    @pytest.mark.parametrize("command", ["validate", "solve-la", "oracle"])
    def test_missing_input_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--input", str(tmp_path / "absent.txt")]
        argv += {"validate": [], "solve-la": ["--eps", "0.5"],
                 "oracle": ["--objective", "la"]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read input ")
        assert "Traceback" not in captured.err


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
        path = tmp_path / "big.txt"
        n = 12
        rows = [" ".join("0" if i == j else "1" for j in range(n)) for i in range(n)]
        path.write_text(f"{n}\n" + "\n".join(rows) + "\n")
        assert main(["oracle", "--input", str(path), "--objective", "la"]) == 1

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
            witness, trace = obj.solve(m, eps, SearchBudget(restarts=0), seed=1)
            assert trace.value == obj.evaluate(m, witness)
            assert obj.value(m, witness, trace) == trace.value

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

    @pytest.mark.parametrize("algorithm, n", [("oracle-la", 11), ("oracle-hc", 9)])
    def test_oracle_row_too_large_exits_1(self, tmp_path, capsys, algorithm, n):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"algorithms": [algorithm],
                                   "instances": [{"family": "uniform_metric", "n": n}]}))
        assert main(["bench", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "oracle guarded" in captured.err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["bench", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"eps": [0.5]}))
        assert main(["bench", "--config", str(cfg)]) == 2
        cfg.write_text(json.dumps({"instances": [{"family": "uniform_metric",
                                                  "n": 4, "bogus": 1}]}))
        assert main(["bench", "--config", str(cfg)]) == 2
