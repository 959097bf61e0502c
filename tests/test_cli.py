"""Command-line behavior: happy paths, diagnostics with line numbers,
deterministic outputs, and the sample-then-test round trip."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pitos.cli import main, read_values

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

    def test_scenarios_csv(self, capsys):
        code, out, _ = run_cli(
            ["scenarios", "--name", "random-gap", "--count", "3", "--seed", "11"], capsys
        )
        assert code == 0
        import csv as _csv
        rows = list(_csv.reader(out.splitlines()))
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

    def test_random_pair_seed_flag(self, tmp_path, capsys, cache_dir):
        out_csv = tmp_path / "power.csv"
        code, _, _ = run_cli(
            ["power", "--dist", "uniform", "--tests", "pitos", "--n", "12",
             "--reps", "40", "--null-b", "100", "--seed", "2", "--random-pair-seed", "9",
             "--cache-dir", str(cache_dir), "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "power.csv.meta.json").read_text())
        assert sidecar["random_pair_seed"] == 9

    def test_random_pair_seed_warns_once(self, tmp_path):
        proc = run_entrypoint(
            ["power", "--dist", "uniform", "--tests", "pitos", "--n", "30",
             "--reps", "50", "--random-pair-seed", "1", "--out", str(tmp_path / "p.csv")],
            tmp_path,
        )
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "1.15 correction" in lines[0]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_random_pair_study_builds_sequence_once(self, tmp_path, threads):
        # one random-uniform sequence per study, not one per distribution
        proc = run_entrypoint(
            ["study", "--scenario", "random-gap", "--dists", "3", "--reps", "30",
             "--n", "25", "--tests", "pitos,ad", "--random-pair-seed", "2",
             "--null-b", "200", "--threads", threads, "--cache-dir", str(tmp_path / "cache"),
             "--out", str(tmp_path / "study.csv")],
            tmp_path,
        )
        assert proc.returncode == 0
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "1.15 correction" in lines[0]

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag_nonzero(self, capsys):
        assert main(["pairs", "--n", "5", "--bogus"]) != 0
        capsys.readouterr()


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
