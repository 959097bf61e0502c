"""Command-line behavior: happy paths, diagnostics with line numbers,
deterministic outputs, and the sample-then-test round trip."""

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pitos import classic, cli
from pitos.cli import build_parser, main, read_values
from pitos.distributions import zoo_lookup
from pitos.harness import replicate_dataset
from pitos.streams import stream

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_entrypoint(argv, cwd):
    """The installed `pitos` entry point in a fresh process (logging configured)."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from pitos.cli import entrypoint; "
         "sys.argv[0] = 'pitos'; entrypoint()", *argv],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
    )


class TestInputParsing:
    def test_values_comments_and_blanks(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n0.25\n\n0.75  # trailing\n0.5\n")
        np.testing.assert_allclose(read_values(path), [0.25, 0.75, 0.5])

    def test_malformed_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.1\n0.2\n0.3\n0.4\n0.5\n0.6\nabc\n")
        code, _, err = run_cli(["test", "--input", str(path)], capsys)
        assert code != 0
        assert "line 7" in err and "abc" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["test", "--input", str(tmp_path / "nope.txt")], capsys)
        assert code != 0 and "error:" in err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, _, err = run_cli(["test", "--input", str(path)], capsys)
        assert code != 0 and "no data" in err

    def test_out_of_range_value(self, tmp_path, capsys):
        path = tmp_path / "range.txt"
        path.write_text("0.5\n1.5\n")
        code, _, err = run_cli(["test", "--input", str(path)], capsys)
        assert code != 0 and "error:" in err


class TestTestSubcommand:
    def test_pitos_verdict_json(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        rng = np.random.default_rng(0)
        path.write_text("".join(f"{float(v)!r}\n" for v in rng.random(200)))
        code, out, _ = run_cli(["test", "--input", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["test"] == "PITOS"
        assert payload["n"] == 200
        assert payload["m"] == math.ceil(10 * 200 * math.log(200)) + 200
        assert payload["p_star"] == min(1.0, 1.15 * payload["p_value"])

    def test_classic_verdict_json(self, tmp_path, capsys, cache_dir):
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(1).random(50)))
        code, out, _ = run_cli(
            ["test", "--input", str(path), "--method", "ks",
             "--null-b", "500", "--seed", "3", "--cache-dir", str(cache_dir)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["test"] == "KS" and payload["b"] == 500 and payload["seed"] == 3
        assert 0.0 < payload["p_value"] <= 1.0

    @pytest.mark.parametrize("null_b", ["0", "-3"])
    def test_null_draw_counts_below_one_are_named(self, tmp_path, capsys, cache_dir, null_b):
        path = tmp_path / "data.txt"
        path.write_text("0.2\n0.5\n0.9\n")
        code, out, err = run_cli(["test", "--input", str(path), "--method", "ks",
                                  "--null-b", null_b, "--cache-dir", str(cache_dir)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: B must be a positive integer, got {null_b}\n"
        assert not cache_dir.exists()

    def test_negative_seed_is_named(self, tmp_path, capsys, cache_dir):
        # refused alike where a draw reads the seed (ks's null, a discrete
        # null's PIT) and where none does (pitos, a continuous null's PIT)
        path = tmp_path / "data.txt"
        path.write_text("0.2\n0.5\n0.9\n")
        for extra in (["--method", "ks", "--cache-dir", str(cache_dir)],
                      ["--null-cdf", "discrete-uniform-99"],
                      ["--method", "pitos"],
                      ["--null-cdf", "beta(2,2)"]):
            code, out, err = run_cli(["test", "--input", str(path), "--seed", "-1", *extra],
                                     capsys)
            assert (code, out) == (2, ""), extra
            assert err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("method", ["ad", "nb", "ks", "cvm", "pitos"])
    def test_verdict_is_strict_json(self, tmp_path, capsys, cache_dir, method):
        # a value at 0 makes AD infinite: JSON null, with the p-value kept
        path = tmp_path / "data.txt"
        path.write_text("0.0\n0.5\n0.7\n")
        argv = ["test", "--input", str(path), "--method", method]
        if method != "pitos":
            argv += ["--null-b", "50", "--cache-dir", str(cache_dir)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out, parse_constant=refuse)
        if method == "ad":
            assert payload["statistic"] is None
            assert payload["p_value"] == 1.0 / 51.0
        elif method != "pitos":
            assert math.isfinite(payload["statistic"])

    def test_null_cdf_routing(self, tmp_path, capsys):
        # beta data mapped through its own CDF should look uniform
        path = tmp_path / "beta.txt"
        rng = np.random.default_rng(2)
        path.write_text("".join(f"{float(v)!r}\n" for v in rng.beta(0.6, 0.6, 300)))
        code, out, _ = run_cli(
            ["test", "--input", str(path), "--null-cdf", "beta(0.6,0.6)"], capsys
        )
        assert code == 0
        assert json.loads(out)["p_star"] > 0.01

    def test_emit_detail(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(3).random(20)))
        detail = tmp_path / "detail.csv"
        code, _, _ = run_cli(
            ["test", "--input", str(path), "--emit-detail", str(detail)], capsys
        )
        assert code == 0
        lines = detail.read_text().splitlines()
        assert lines[0] == "k,i,j,u,p"
        assert len(lines) == 1 + math.ceil(10 * 20 * math.log(20)) + 20

    @pytest.mark.parametrize("flag, value", [("--emit-detail", "det.csv"), ("--warp", "2,2")])
    def test_classic_method_rejects_pitos_flags(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        Path("data.txt").write_text("0.2\n0.7\n0.4\n")
        code, out, err = run_cli(
            ["test", "--input", "data.txt", "--method", "ks", flag, value, "--cache-dir", "cache"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and flag in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt"]

    @pytest.mark.parametrize("flag, value", [("--null-b", "5"), ("--cache-dir", "cache")])
    def test_pitos_rejects_classical_flags(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        Path("data.txt").write_text("0.2\n0.7\n0.4\n")
        code, out, err = run_cli(["test", "--input", "data.txt", flag, value], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and flag in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt"]

    def test_parser_survives_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text("0.2\n0.7\n0.4\n")
        code, before, _ = run_cli(["test", "--input", str(path)], capsys)
        assert code == 0
        assert run_cli(["test", "--input", str(path), "--warp=1"], capsys)[0] == 2
        assert run_cli(["test", "--input", str(path)], capsys) == (0, before, "")
        assert build_parser() is build_parser()  # built once per process

    @pytest.mark.parametrize("value", ["1", "1,2,3", "0,1", "-1,2", "inf,1", "nan,1", "a,b"])
    def test_warp_takes_two_positive_finite_shapes(self, tmp_path, capsys, value):
        path = tmp_path / "data.txt"
        path.write_text("0.2\n0.7\n0.4\n")
        code, out, err = run_cli(["test", "--input", str(path), f"--warp={value}"], capsys)
        assert code == 2 and out == ""
        assert "argument --warp" in err

    def test_custom_warp_warns(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(4).random(30)))
        proc = run_entrypoint(["test", "--input", str(path), "--warp", "2,2"], tmp_path)
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "warning" in lines[0].lower()
        assert "1.15 correction" in lines[0]


class TestTabularSubcommands:
    def test_pairs_row_count(self, capsys):
        code, out, _ = run_cli(["pairs", "--n", "25"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,i,j"
        assert len(lines) == 1 + 830

    def test_pairs_golden(self, capsys):
        golden = Path(__file__).parent / "data" / "pairs_n5_golden.csv"
        code, out, _ = run_cli(["pairs", "--n", "5"], capsys)
        assert code == 0 and out == golden.read_text()

    def test_sample_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run_cli(
                ["sample", "--dist", "uniform", "--n", "100", "--seed", "7", "--out", str(f)],
                capsys,
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        values = read_values(f1)
        assert len(values) == 100 and values.min() >= 0 and values.max() <= 1

    def test_sample_writes_replicate_zero_dataset(self, capsys):
        # the dataset replicate 0 of a directly named distribution sees: the
        # first draw from its job's stream (0, 0, 1)
        spec = zoo_lookup("beta(0.6,0.6)")
        values = replicate_dataset(spec, 20, stream(7, 0, 0, 1))
        expected = "".join(f"{v!r}\n" for v in values.tolist())
        code, out, err = run_cli(
            ["sample", "--dist", "beta(0.6,0.6)", "--n", "20", "--seed", "7"], capsys)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("shapes", ["nan,1", "inf,1"])
    def test_sample_rejects_non_finite_beta_shapes(self, tmp_path, capsys, shapes):
        out_file = tmp_path / "values.txt"
        code, out, err = run_cli(
            ["sample", "--dist", f"beta({shapes})", "--n", "3", "--out", str(out_file)], capsys)
        assert (code, out, err) == (2, "", "error: beta shapes must be finite\n")
        assert not out_file.exists()

    def test_sample_accepts_a_printed_outliers_name(self, capsys):
        code, out, _ = run_cli(["scenarios", "--name", "outliers", "--count", "1"], capsys)
        name = next(csv.DictReader(out.splitlines()))["distribution"]
        assert code == 0 and name.startswith("outliers(")
        code, out, err = run_cli(["sample", "--dist", name, "--n", "5"], capsys)
        assert (code, err, len(out.splitlines())) == (0, "", 5)

    def test_scenarios_csv(self, capsys):
        code, out, _ = run_cli(
            ["scenarios", "--name", "random-gap", "--count", "3", "--seed", "11"], capsys
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["index", "scenario", "distribution", "parameters"]
        assert len(rows) == 4
        params = json.loads(rows[1][3])
        assert {"center", "halfwidth"} <= set(params)

    def test_power_csv_and_sidecar(self, tmp_path, capsys, cache_dir):
        out_csv = tmp_path / "power.csv"
        code, _, _ = run_cli(
            ["power", "--dist", "uniform", "--tests", "pitos,ks", "--n", "10,20",
             "--reps", "50", "--null-b", "200", "--seed", "2",
             "--cache-dir", str(cache_dir), "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "distribution,n,test,alpha,replicates,rejection_rate,mc_std_err,seed"
        assert len(lines) == 1 + 2 * 2
        sidecar = json.loads((tmp_path / "power.csv.meta.json").read_text())
        assert sidecar["subcommand"] == "power" and sidecar["seed"] == 2
        assert "threads" not in sidecar

    def test_calibrate_csv(self, tmp_path, capsys, cache_dir):
        out_csv = tmp_path / "cal.csv"
        code, _, _ = run_cli(
            ["calibrate", "--test", "pitos", "--n", "10", "--reps", "100",
             "--grid", "0.05,0.5", "--seed", "1", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "threshold,cdf_p,cdf_p_star"
        assert len(lines) == 3

    def test_study_csv(self, tmp_path, capsys, cache_dir):
        out_csv = tmp_path / "study.csv"
        code, _, _ = run_cli(
            ["study", "--scenario", "outliers", "--dists", "3", "--reps", "30",
             "--n", "15", "--tests", "pitos,ks", "--null-b", "200", "--seed", "5",
             "--cache-dir", str(cache_dir), "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "test,avg_power,rank1_freq,rank2_freq"
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "study.csv.meta.json").read_text())
        assert len(sidecar["distributions"]) == 3

    def test_paper_scale_changes_defaults_in_sidecar(self, tmp_path, capsys, cache_dir):
        out_csv = tmp_path / "cal.csv"
        code, _, _ = run_cli(
            ["calibrate", "--test", "ks", "--n", "8", "--reps", "50", "--paper-scale",
             "--null-b", "100", "--grid", "0.5", "--seed", "1",
             "--cache-dir", str(cache_dir), "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "cal.csv.meta.json").read_text())
        # explicit flags win over --paper-scale
        assert sidecar["replicates"] == 50 and sidecar["null_b"] == 100

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_calibrate_rejects_replicate_counts_below_one(self, tmp_path, capsys, reps):
        out_csv = tmp_path / "cal.csv"
        code, out, err = run_cli(
            ["calibrate", "--test", "pitos", "--n", "10", "--reps", reps, "--grid", "0.05",
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: replicates must be a positive integer, got {reps}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", [
        ["power", "--dist", "uniform", "--tests", "ks"],
        ["calibrate", "--test", "ks"],
    ])
    def test_replicate_count_checked_before_any_null_is_built(self, tmp_path, capsys, command):
        cache = tmp_path / "cache"
        code, out, err = run_cli(
            command + ["--n", "10", "--reps", "0", "--null-b", "50", "--cache-dir", str(cache)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: replicates must be a positive integer, got 0\n"
        assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        ["power", "--dist", "uniform", "--tests", "ks", "--n", "0", "--reps", "10"],
        ["calibrate", "--test", "ks", "--n", "0", "--reps", "10"],
    ])
    def test_classical_roster_rejects_sample_size_zero(self, tmp_path, capsys, argv):
        code, out, err = run_cli(
            argv + ["--null-b", "50", "--cache-dir", str(tmp_path / "cache"),
                    "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: sample size must be a positive integer, got 0\n"
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sample_rejects_sample_sizes_below_one(self, tmp_path, capsys, n):
        out_file = tmp_path / "sample.txt"
        code, out, err = run_cli(
            ["sample", "--dist", "uniform", "--n", n, "--out", str(out_file)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: sample size must be a positive integer, got {n}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_scenarios_rejects_counts_below_one(self, tmp_path, capsys, count):
        out_file = tmp_path / "scenarios.csv"
        code, out, err = run_cli(
            ["scenarios", "--name", "random-gap", "--count", count, "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: count must be a positive integer, got {count}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_study_rejects_distribution_counts_below_one(self, tmp_path, capsys, count):
        # the message names the flag, not scenario_study's num_distributions
        out_file = tmp_path / "study.csv"
        code, out, err = run_cli(
            ["study", "--scenario", "outliers", "--dists", count, "--reps", "4", "--n", "8",
             "--null-b", "20", "--cache-dir", str(tmp_path / "cache"), "--out", str(out_file)],
            capsys)
        assert (code, out) == (2, "")
        assert err == f"error: dists must be a positive integer, got {count}\n"
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("command, message", [
        (["power", "--dist", "uniform", "--n", "10,abc"],
         "--n takes comma-separated integers, got '10,abc'"),
        (["calibrate", "--n", "10", "--grid", "0.1,x"],
         "--grid takes comma-separated numbers, got '0.1,x'"),
        (["calibrate", "--n", "10", "--grid", ""],
         "--grid takes comma-separated numbers, got ''"),
    ], ids=["power-n", "calibrate-grid", "calibrate-grid-empty"])
    def test_comma_list_flags_name_a_value_that_does_not_parse(self, tmp_path, capsys,
                                                               command, message):
        code, out, err = run_cli(
            command + ["--reps", "4", "--null-b", "20", "--cache-dir", str(tmp_path / "cache"),
                       "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("roster, message", [
        # a repeated pitos would be reported without its correction, and a
        # study would rank the repeat twice
        ("pitos,ks,pitos", "test 'pitos' appears twice in the roster"),
        ("ks,watson", "unknown test identifier 'watson'; choose from "
                      "('pitos', 'ad', 'nb', 'ks', 'cvm', 'lrt')"),
        (",", "empty test roster"),
    ], ids=["repeated", "unknown", "empty"])
    @pytest.mark.parametrize("command", [
        ["power", "--dist", "gap(0.5,0.05)", "--n", "20"],
        ["study", "--scenario", "outliers", "--dists", "2", "--n", "8"],
    ], ids=["power", "study"])
    def test_bad_roster_is_named_with_its_flag(self, tmp_path, capsys, command, roster, message):
        code, out, err = run_cli(
            command + ["--tests", roster, "--reps", "4", "--null-b", "20",
                       "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --tests: {message}\n"
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("grid", ["nan", "0.05,nan", "inf", "1.5"])
    def test_calibrate_refuses_thresholds_outside_the_unit_interval(self, tmp_path, capsys, grid):
        code, out, err = run_cli(
            ["calibrate", "--test", "ks", "--n", "10", "--reps", "5", "--null-b", "20",
             "--grid", grid, "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --grid takes thresholds in [0, 1], got {grid!r}\n"
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        ["power", "--dist", "uniform", "--n", "8"],
        ["study", "--scenario", "outliers", "--dists", "2", "--n", "8"],
    ])
    def test_thread_counts_below_one_are_refused(self, tmp_path, capsys, command, threads):
        code, out, err = run_cli(
            command + ["--tests", "ks", "--reps", "4", "--null-b", "20", "--threads", threads,
                       "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: threads must be a positive integer, got {threads}\n"
        assert not any(tmp_path.iterdir())  # no CSV, no cache directory

    @pytest.mark.parametrize("argv", [
        ["sample", "--dist", "uniform", "--n", "5"],
        ["scenarios", "--name", "outliers", "--count", "2"],
    ])
    def test_no_cache_dir_where_no_null_is_read(self, tmp_path, capsys, argv):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag_nonzero(self, capsys):
        assert main(["pairs", "--n", "5", "--bogus"]) != 0
        capsys.readouterr()


# md5 of stdout, the --out CSV (or --emit-detail CSV) and the sidecar,
# each frozen from the implementation before the code it covers was reworked
# (power_lrt_threads: before studies resolved their nulls once per n); the
# CSVs of the power, calibrate_ks and study entries were re-captured when each
# empirical null came to draw its rows from one stream per (seed, n), and the
# CSVs of every power, calibrate and study entry when each job came to draw
# its replicate datasets from one stream, and every sidecar when the random
# pair source and its random_pair_seed key were removed; {out}, {cache} and
# {data} are filled per run.
FROZEN_CLI = {
    "power": (
        ["power", "--dist", "uniform", "--tests", "pitos,ks", "--n", "10,20", "--reps", "50",
         "--null-b", "200", "--seed", "2", "--out", "{out}", "--cache-dir", "{cache}"],
        ("d41d8cd98f00b204e9800998ecf8427e", "d2ed488375202ed69329ba755d743cbd",
         "398387cb1e688a59cab29fddc856efe9"),
    ),
    "power_lrt_threads": (
        ["power", "--dist", "gap(0.5,0.05)", "--tests", "pitos,ks,lrt", "--n", "12,20",
         "--reps", "40", "--null-b", "200", "--seed", "2", "--threads", "2", "--out", "{out}",
         "--cache-dir", "{cache}"],
        ("d41d8cd98f00b204e9800998ecf8427e", "9955673239fe21bac82e751493cde2a3",
         "984ea25e06dbe79f8769c2c90e5e15f8"),
    ),
    "calibrate_pitos": (
        ["calibrate", "--test", "pitos", "--n", "10", "--reps", "100", "--grid", "0.05,0.5",
         "--seed", "1", "--out", "{out}", "--cache-dir", "{cache}"],
        ("d41d8cd98f00b204e9800998ecf8427e", "cc5b4afb5bb0d6d8987ab451d6a06f56",
         "3e9ae7cc896bf7140311615d0aac4461"),
    ),
    "calibrate_ks_paper_scale": (
        ["calibrate", "--test", "ks", "--n", "8", "--reps", "50", "--paper-scale",
         "--null-b", "100", "--grid", "0.5", "--seed", "1", "--out", "{out}",
         "--cache-dir", "{cache}"],
        ("d41d8cd98f00b204e9800998ecf8427e", "8241fd91275176b9e70e95eebba927ac",
         "e8195e093dcc7114be03a9bb56ffea77"),
    ),
    "study": (
        ["study", "--scenario", "outliers", "--dists", "3", "--reps", "30", "--n", "15",
         "--tests", "pitos,ks", "--null-b", "200", "--seed", "5", "--out", "{out}",
         "--cache-dir", "{cache}"],
        ("d41d8cd98f00b204e9800998ecf8427e", "6b8eb44cf181825ec9e03e04c69b315b",
         "489688e6928b22c271c1b2afe8fa4fa8"),
    ),
    "test_pitos_detail": (
        ["test", "--input", "{data}", "--emit-detail", "{out}"],
        ("bd3a6dc21bff1f8d44f4e9d90e914969", "287166b6b7634e4fecf2bf087130241c", None),
    ),
    "test_ks": (
        ["test", "--input", "{data}", "--method", "ks", "--null-b", "300", "--seed", "4",
         "--cache-dir", "{cache}"],
        ("a8228c77c945a5c678436c13cffffcf7", None, None),
    ),
    "pairs": (["pairs", "--n", "12"], ("06d0f6b048925ed37c6de14b13d79b81", None, None)),
    "scenarios": (
        ["scenarios", "--name", "random-gap", "--count", "3", "--seed", "11"],
        ("d9e3695b8d3e57d3f9bd5c2a06a900fe", None, None),
    ),
    "sample": (
        ["sample", "--dist", "uniform", "--n", "20", "--seed", "7"],
        ("5ef424596ac02155fdaab159408d477b", None, None),
    ),
}


@pytest.mark.parametrize("name", list(FROZEN_CLI))
def test_frozen_cli_bytes(tmp_path, capsys, name):
    argv, expected = FROZEN_CLI[name]
    out = tmp_path / "out.csv"
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{(k * 0.6180339887498949) % 1.0!r}\n" for k in range(1, 41)))
    argv = [a.format(out=out, cache=tmp_path / "cache", data=data) for a in argv]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0

    def digest(path):
        return hashlib.md5(path.read_bytes()).hexdigest() if path.exists() else None

    sidecar = Path(str(out) + ".meta.json")
    got = (hashlib.md5(stdout.encode()).hexdigest(), digest(out), digest(sidecar))
    assert got == expected


@pytest.mark.parametrize("name", ["pairs", "test_pitos_detail", "sample"])
def test_frozen_bytes_in_seven_row_blocks(tmp_path, capsys, monkeypatch, name):
    # 311 pair rows, 1516 detail rows and 20 sample rows: each table ends
    # in a partial block
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    test_frozen_cli_bytes(tmp_path, capsys, name)


def test_detail_csv_reaches_the_sink_one_block_at_a_time(tmp_path, capsys, monkeypatch):
    received = {}

    def record(path, chunks):
        assert not isinstance(chunks, str), "the whole table was built before writing"
        received[path] = list(chunks)

    monkeypatch.setattr(cli, "_write_text", record)
    data, out = tmp_path / "data.txt", str(tmp_path / "detail.csv")
    data.write_text("".join(f"{v!r}\n" for v in np.random.default_rng(5).random(1000).tolist()))
    code, _, _ = run_cli(["test", "--input", str(data), "--emit-detail", out], capsys)
    assert code == 0
    rows = [chunk.count("\n") for chunk in received[out]]
    assert sum(rows) == 1 + 70_078  # header and m(1000) pairs: more than one block
    assert max(rows) <= cli._BLOCK_ROWS


class TestRoundTrip:
    def test_uniform_sample_then_test_rejects_rarely(self, tmp_path, capsys):
        # over 200 seeds the corrected p-value should reject at ~5%;
        # 20 of 200 sits more than 3 binomial sigmas above that
        rejections = 0
        for seed in range(200):
            data_file = tmp_path / "roundtrip.txt"
            code, _, _ = run_cli(
                ["sample", "--dist", "uniform", "--n", "100", "--seed", str(seed),
                 "--out", str(data_file)],
                capsys,
            )
            assert code == 0
            code, out, _ = run_cli(["test", "--input", str(data_file)], capsys)
            assert code == 0
            if json.loads(out)["p_star"] <= 0.05:
                rejections += 1
        assert rejections <= 20


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        # the installed entry point wraps main(); exercise via -c to avoid
        # requiring an installed console script during development
        data = tmp_path / "d.txt"
        data.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(9).random(30)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from pitos.cli import main; sys.exit(main(sys.argv[1:]))",
             "test", "--input", str(data)],
            capture_output=True, text=True,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["test"] == "PITOS"

    @pytest.mark.parametrize("module", ["pitos", "pitos.cli"])
    def test_python_dash_m(self, tmp_path, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: pitos")
