"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`
to watch them stream).

Criteria, in order:
 1. Type I error control for all five tests at n in {30, 100}.
 2. Null p-value CDF shape at n = 30: near-identity below 0.05, conservative
    above 0.2.
 3. Correction ordering: corrected >= uncorrected everywhere, with exact
    1.15x scaling whenever it does not clip at 1.
 4. Discrete alternative: competitors stay near level, the order-statistic
    test dominates (rate frozen from a pilot run).
 5. Fixed bump and gap at n = 200: dominance over the classical tests and a
    near-perfect likelihood-ratio oracle.
 6. Scenario studies: first place by average power on outliers, random-bump
    and random-gap; a narrow band on nearly-uniform.
 7. Special-function oracle equivalence and exact Halton values.
 8. Per-pair null uniformity at n = 100.
 9. O(n log n) end-to-end cost: n = 1e5 at most 15x the n = 1e4 wall time.
10. Byte-identical CLI outputs across reruns and thread counts.

Opt-in, outside the default run: criteria 1 and 2's bounds on the corrected
null p-values at n in {10, 300, 1000, 3000} (`pytest tests/test_acceptance.py
--calibration-sweep -k sweep -s`, about 2.5 min on 2 cores).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as _sp

from pitos.cli import main as cli_main
from pitos.core import pitos_p_value
from pitos.harness import estimate_power, null_pitos_pvalues, scenario_study
from pitos.pairs import generate_pairs, halton
from pitos.special import beta_cdf

from conftest import beta_cdf_quadrature, ecdf_sup_distance, radical_inverse_fraction

SEED = 20260808
NULL_B = 20_000
FIVE_TESTS = ("pitos", "ad", "nb", "ks", "cvm")
TYPE_ONE_BAND = (0.035, 0.065)  # rejection rate at alpha 0.05

# Rejection rate of the order-statistic test on discrete-uniform-99 at
# n = 500, 2,000 replicates, seed above; frozen from the pilot run.
FROZEN_DISCRETE_RATE = 1.0


def report(number, label, ok, detail):
    print(f"[criterion {number:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def acc_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-null-cache")


@pytest.fixture(scope="module")
def null_pvalues_n30():
    """50,000 null (uncorrected, corrected) p-value pairs at n = 30."""
    return null_pitos_pvalues(n=30, replicates=50_000, seed=SEED)


def test_criterion_01_type_one_error_control(acc_cache):
    start = time.perf_counter()
    rates = {}
    for n in (30, 100):
        rep = estimate_power(
            "uniform", FIVE_TESTS, n=n, alpha=0.05, replicates=10_000,
            seed=SEED, null_b=NULL_B, cache_dir=acc_cache,
        )
        for test in FIVE_TESTS:
            rates[(test, n)] = rep.rejection_rate[test]
    elapsed = time.perf_counter() - start
    ok = all(TYPE_ONE_BAND[0] <= r <= TYPE_ONE_BAND[1] for r in rates.values()) and elapsed < 600.0
    detail = (
        ", ".join(f"{t}@{n}={r:.4f}" for (t, n), r in rates.items())
        + f"; {elapsed:.0f}s"
    )
    assert report(1, "type I error in [0.035, 0.065] at alpha 0.05", ok, detail)


def _null_cdf_shape(p_star):
    """(ok, detail): criterion 2's bounds on the empirical CDF of corrected
    null p-values."""
    p_star = np.sort(p_star)

    def cdf(t):
        return np.searchsorted(p_star, t, side="right") / len(p_star)

    near = {t: cdf(t) for t in (0.01, 0.02, 0.05)}
    upper = {t: cdf(t) for t in (0.3, 0.5, 0.7, 0.9)}
    ok_near = all(abs(v - t) <= 0.012 for t, v in near.items())
    ok_upper = all(v <= t for t, v in upper.items())
    detail = (
        "near: " + ", ".join(f"F({t})={v:.4f}" for t, v in near.items())
        + " | upper: " + ", ".join(f"F({t})={v:.3f}" for t, v in upper.items())
    )
    return ok_near and ok_upper, detail


def test_criterion_02_null_pvalue_cdf_shape(null_pvalues_n30):
    ok, detail = _null_cdf_shape(null_pvalues_n30[1])
    assert report(2, "corrected null CDF near-uniform below 0.05, conservative above 0.2",
                  ok, detail)


@pytest.mark.parametrize("n", [10, 300, 1000, 3000])
def test_criteria_01_02_calibration_sweep(n, request):
    if not request.config.getoption("--calibration-sweep"):
        pytest.skip("slow; run with --calibration-sweep")
    _, p_star = null_pitos_pvalues(n=n, replicates=2_000, seed=SEED)
    rate = float(np.mean(p_star <= 0.05))
    ok_shape, detail = _null_cdf_shape(p_star)
    ok = TYPE_ONE_BAND[0] <= rate <= TYPE_ONE_BAND[1] and ok_shape
    assert report(1, f"sweep n={n}: type I {rate:.4f} in band, criterion 2 shape", ok, detail)


def test_criterion_03_correction_ordering(null_pvalues_n30):
    p, p_star = null_pvalues_n30
    ok_order = bool(np.all(p_star >= p)) and bool(np.all(p_star <= 1.0))
    scaled = p <= 1.0 / 1.15
    ok_exact = bool(np.all(p_star[scaled] == 1.15 * p[scaled]))
    clipped = ~scaled
    ok_clip = bool(np.all(p_star[clipped] == 1.0))
    detail = (
        f"{len(p)} replicates, {int(scaled.sum())} scaled exactly, "
        f"{int(clipped.sum())} clipped at 1"
    )
    assert report(3, "corrected p >= p with exact 1.15x scaling", ok_order and ok_exact and ok_clip, detail)


def test_criterion_04_discrete_alternative(acc_cache):
    rep = estimate_power(
        "discrete-uniform-99", FIVE_TESTS, n=500, alpha=0.05,
        replicates=2_000, seed=SEED, null_b=NULL_B, cache_dir=acc_cache,
    )
    rates = rep.rejection_rate
    competitors = {t: rates[t] for t in ("ad", "nb", "ks", "cvm")}
    best = max(competitors.values())
    ok = (
        all(v <= 0.08 for v in competitors.values())
        and rates["pitos"] >= best + 0.25
        and abs(rates["pitos"] - FROZEN_DISCRETE_RATE) <= 0.005
    )
    detail = ", ".join(f"{t}={v:.4f}" for t, v in rates.items()) + f"; frozen={FROZEN_DISCRETE_RATE}"
    assert report(4, "discrete-uniform-99: competitors level, order-statistic test dominant", ok, detail)


def test_criterion_05_local_departure_dominance(acc_cache):
    details = []
    ok = True
    for name in ("bump(0.5,0.001,0.08)", "gap(0.5,0.05)"):
        rep = estimate_power(
            name, FIVE_TESTS + ("lrt",), n=200, alpha=0.05,
            replicates=2_000, seed=SEED, null_b=NULL_B, cache_dir=acc_cache,
        )
        rates = rep.rejection_rate
        ok = ok and all(rates["pitos"] > rates[t] for t in ("ad", "nb", "ks", "cvm"))
        ok = ok and rates["lrt"] >= 0.99
        details.append(name + ": " + ", ".join(f"{t}={v:.4f}" for t, v in rates.items()))
    assert report(5, "fixed bump and gap at n=200: dominance, oracle >= 0.99", ok, " | ".join(details))


@pytest.mark.slow
def test_criterion_06_scenario_study_direction(acc_cache):
    kw = dict(
        num_distributions=100, replicates_per_distribution=500, n=100,
        alpha=0.05, seed=SEED, tests=FIVE_TESTS, null_b=NULL_B, cache_dir=acc_cache,
    )
    details = []
    ok = True
    for scenario in ("outliers", "random-bump", "random-gap"):
        summary = scenario_study(scenario, **kw)
        top = max(summary.avg_power, key=summary.avg_power.get)
        ok = ok and top == "pitos"
        details.append(
            f"{scenario}: " + ", ".join(f"{t}={v:.3f}" for t, v in summary.avg_power.items())
        )
    summary = scenario_study("nearly-uniform", **kw)
    band = max(summary.avg_power.values()) - min(summary.avg_power.values())
    ok = ok and band <= 0.10
    details.append(
        "nearly-uniform: "
        + ", ".join(f"{t}={v:.3f}" for t, v in summary.avg_power.items())
        + f", band={band:.3f}"
    )
    assert report(6, "study: first on outliers/bump/gap, 0.10 band on nearly-uniform", ok, " | ".join(details))


def test_criterion_07_special_function_oracles():
    worst = 0.0
    for a in (0.5, 0.7, 1.0, 2.0, 5.0, 50.0, 199.0):
        for b in (0.5, 0.7, 1.0, 2.0, 5.0, 50.0, 199.0):
            for x in (0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
                worst = max(worst, abs(beta_cdf(x, a, b) - beta_cdf_quadrature(x, a, b)))
    ok_beta = worst <= 1e-12
    ok_halton = all(
        halton(k, base) == float(radical_inverse_fraction(k, base))
        for base in (2, 3)
        for k in range(1, 11)
    )
    detail = f"beta grid worst err {worst:.2e}; halton 1..10 exact in bases 2 and 3"
    assert report(7, "quadrature equivalence to 1e-12, exact radical inverses", ok_beta and ok_halton, detail)


def test_criterion_08_per_pair_uniformity():
    rng = np.random.default_rng(SEED)
    reps, n = 10_000, 100
    rows = np.sort(rng.random((reps, n)), axis=1)
    distances = {}
    for i, j in ((1, 1), (10, 90), (90, 10), (50, 50)):
        xi = rows[:, i - 1]
        xj = rows[:, j - 1]
        if i == j:
            u = _sp.betainc(float(j), float(n - j + 1), xj)
        elif i < j:
            u = _sp.betainc(float(j - i), float(n - j + 1), (xj - xi) / (1.0 - xi))
        else:
            u = _sp.betainc(float(j), float(i - j), xj / xi)
        distances[(i, j)] = ecdf_sup_distance(u)
    ok = all(d <= 0.02 for d in distances.values())
    detail = ", ".join(f"({i},{j})={d:.4f}" for (i, j), d in distances.items())
    assert report(8, "per-pair PIT uniform to 0.02 sup distance", ok, detail)


@pytest.mark.slow
def test_criterion_09_complexity_ratio():
    def timed_run(n, data):
        generate_pairs.cache_clear()  # pair generation must be paid each run
        start = time.perf_counter()
        pitos_p_value(data, generate_pairs(n))
        return time.perf_counter() - start

    rng = np.random.default_rng(SEED)
    small = rng.random(10**4)
    large = rng.random(10**5)
    timed_run(10**4, small)  # warm-up: allocator and code paths, untimed
    # interleave the sizes so machine drift cancels in the ratio of medians
    t_small, t_large = [], []
    for _ in range(5):
        t_small.append(timed_run(10**4, small))
        t_large.append(timed_run(10**5, large))
    generate_pairs.cache_clear()
    med_small = sorted(t_small)[2]
    med_large = sorted(t_large)[2]
    ratio = med_large / med_small
    ok = ratio <= 15.0
    detail = f"median {med_small:.2f}s at 1e4 vs {med_large:.2f}s at 1e5, ratio {ratio:.1f}x"
    assert report(9, "n=1e5 within 15x of n=1e4 wall time", ok, detail)


def test_criterion_10_cli_determinism(tmp_path, acc_cache, capsys):
    def run(argv):
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    outputs = {}
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        power_csv = tmp_path / f"power_{tag}.csv"
        run([
            "power", "--dist", "gap(0.5,0.1)", "--tests", "pitos,ks", "--n", "20,40",
            "--alpha", "0.05", "--reps", "200", "--null-b", "1000", "--seed", "17",
            "--threads", threads, "--cache-dir", str(acc_cache), "--out", str(power_csv),
        ])
        study_csv = tmp_path / f"study_{tag}.csv"
        run([
            "study", "--scenario", "random-bump", "--dists", "4", "--reps", "80",
            "--n", "30", "--tests", "pitos,cvm", "--null-b", "1000", "--seed", "23",
            "--threads", threads, "--cache-dir", str(acc_cache), "--out", str(study_csv),
        ])
        outputs[tag] = (
            power_csv.read_bytes(),
            (tmp_path / f"power_{tag}.csv.meta.json").read_bytes(),
            study_csv.read_bytes(),
            (tmp_path / f"study_{tag}.csv.meta.json").read_bytes(),
        )
    ok_threads = outputs["a"] == outputs["b"] == outputs["c"]

    pairs_out = [run(["pairs", "--n", "40"]) for _ in range(2)]
    sample_out = [
        run(["sample", "--dist", "phi-laplace", "--n", "64", "--seed", "29"])
        for _ in range(2)
    ]
    cal_files = []
    for tag in ("x", "y"):
        cal_csv = tmp_path / f"cal_{tag}.csv"
        run([
            "calibrate", "--test", "pitos", "--n", "12", "--reps", "300",
            "--grid", "0.01,0.05,0.2", "--seed", "31", "--out", str(cal_csv),
        ])
        cal_files.append(cal_csv.read_bytes())
    ok_rerun = (
        pairs_out[0] == pairs_out[1]
        and sample_out[0] == sample_out[1]
        and cal_files[0] == cal_files[1]
    )
    # spot checks: JSON verdicts identical across reruns too
    data_file = tmp_path / "data.txt"
    data_file.write_text("".join(f"{float(v)!r}\n" for v in np.random.default_rng(5).random(80)))
    verdicts = [run(["test", "--input", str(data_file)]) for _ in range(2)]
    ok_verdict = verdicts[0] == verdicts[1] and json.loads(verdicts[0])["test"] == "PITOS"

    ok = ok_threads and ok_rerun and ok_verdict
    detail = f"threads-invariant={ok_threads}, rerun-identical={ok_rerun and ok_verdict}"
    assert report(10, "byte-identical CLI outputs incl. --threads", ok, detail)
