"""The three workloads: their inputs, op rounds and output checks.

Every workload maps its op kinds onto the slots a, b and c, which feed the
end-to-end metrics op_a_s, op_b_ms and op_c_ms (see README.md).  Inputs
derive from the workload seed alone; the program only sees generated files
and arguments.  Each workload is a closed loop from one client.

A run executes a fixed number of rounds, ``rounds_for(seconds, ROUND_S)``:
ROUND_S is a round's duration on the reference machine (README.md), so a
run measures about ``--seconds`` there, and its inputs, sample counts and
traced counters do not depend on how fast the host happens to be.
"""

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pitos import classic, cli, harness

TESTS = ("ad", "nb", "ks", "cvm")
ROSTER = ("pitos",) + TESTS
NULL_B = 20_000
CORRECTION = 1.15  # README: p_star = min(1, 1.15 p_value)
CLAMP_EPS = 1e-15


class CheckFailed(Exception):
    """An op produced output that breaks the program's documented contract."""


@dataclass
class Op:
    kind: str  # "a", "b", "c", or a kind outside the metric slots
    key: str  # identifies the input; equal keys must give equal outputs
    call: Callable  # the timed program call
    check: Callable  # untimed; validates the call's result, returns bytes to hash
    prepare: Callable | None = None  # untimed, runs before the call


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def write_values(path, values):
    path.write_text("".join(repr(float(v)) + "\n" for v in values), encoding="utf-8")


def run_cli(argv):
    """pitos.cli.main in-process; returns its stdout, raises on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pitos {' '.join(argv[:1])} exited with {code}")
    return out.getvalue()


def pair_count(n):
    return math.ceil(10.0 * n * math.log(n)) + n


def check_pitos_json(text, n):
    expect(text.endswith("\n") and text.count("\n") == 1, "verdict is not one line")
    v = json.loads(text)
    expect(list(v) == ["test", "n", "m", "p_value", "p_star"], f"verdict keys {list(v)}")
    expect(v["test"] == "PITOS" and v["n"] == n, "wrong test name or n")
    expect(v["m"] == pair_count(n), f"m={v['m']} != pair_count({n})")
    p, p_star = v["p_value"], v["p_star"]
    expect(0.0 <= p <= 1.0 and 0.0 <= p_star <= 1.0, "p outside [0, 1]")
    expect(p_star == min(1.0, CORRECTION * p), "p_star != min(1, 1.15 p_value)")
    return v


def cauchy_combination(p):
    """Uncorrected Cauchy-combination p-value of per-pair p-values."""
    t = np.clip(1.0 - p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    stat = float(np.tan((t - 0.5) * np.pi).mean())
    return 0.5 - math.atan(stat) / math.pi


def check_detail_csv(text, verdict):
    m, n = verdict["m"], verdict["n"]
    expect(text.startswith("k,i,j,u,p\n"), "detail header is not k,i,j,u,p")
    expect(text.endswith("\n") and text.count("\n") == m + 1, "detail CSV is not m + 1 lines")
    first = text[10 : text.index("\n", 10)].split(",")
    last = text[text.rindex("\n", 0, len(text) - 1) + 1 : -1].split(",")
    expect(first[0] == "1" and last[:3] == [str(m), str(n), str(n)], "detail rows misnumbered")
    cols = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, usecols=(3, 4))
    u, p = cols[:, 0], cols[:, 1]
    expect(np.all((u >= 0) & (u <= 1)), "detail u outside [0, 1]")
    expect(np.array_equal(p, 2.0 * np.minimum(u, 1.0 - u)), "detail p != 2 min(u, 1-u)")
    combined = cauchy_combination(p)
    expect(abs(combined - verdict["p_value"]) <= 1e-9, "detail p does not combine to p_value")


def reference_statistic(test, values):
    """The four classical statistics in plain Python, independent of pitos."""
    x = sorted(float(v) for v in values)
    n = len(x)
    if test == "ad":
        terms = ((2 * i - 1) * (math.log(x[i - 1]) + math.log(1.0 - x[n - i])) for i in range(1, n + 1))
        return -n - math.fsum(terms) / n
    if test == "nb":
        t1 = math.fsum(math.sqrt(3.0) * (2.0 * v - 1.0) for v in x)
        t2 = math.fsum(math.sqrt(5.0) * (6.0 * v * v - 6.0 * v + 1.0) for v in x)
        return (t1 * t1 + t2 * t2) / n
    if test == "ks":
        return max(max(i / n - x[i - 1], x[i - 1] - (i - 1) / n) for i in range(1, n + 1))
    if test == "cvm":
        return 1.0 / (12.0 * n) + math.fsum(((2 * i - 1) / (2.0 * n) - x[i - 1]) ** 2 for i in range(1, n + 1))
    raise ValueError(test)


def check_classic(test, name, n, b, seed, statistic, p_value, values, expected_seed):
    expect(name == test.upper() and n == len(values), "wrong test name or n")
    expect(b == NULL_B and seed == expected_seed, "wrong b or seed")
    expect(0.0 < p_value <= 1.0, "p outside (0, 1]")
    k = p_value * (NULL_B + 1)
    expect(abs(k - round(k)) <= 1e-6, "p (B + 1) is not an integer")
    ref = reference_statistic(test, values)
    expect(math.isclose(statistic, ref, rel_tol=1e-9, abs_tol=1e-12), f"statistic {statistic} != {ref}")


def rounds_for(seconds, round_s):
    return max(1, round(seconds / round_s))


def to_ms(seconds):
    return None if seconds is None else seconds * 1e3


def dir_files(path):
    return {p.name for p in path.iterdir()}


# ---------------------------------------------------------------------------

class VerdictCold:
    """Single cold `pitos test` verdicts, in-process through cli.main.

    a: uniform data, n in [19500, 20500] (m > 2^20: the streaming path)
    b: Beta(1.1, 0.9) data, n in [2900, 3100], --null-cdf 'beta(1.1,0.9)'
    c: uniform data, n in [2900, 3100], --emit-detail to a file
    No two ops share an n, so the in-memory pair cache never hits.
    """

    ROUND = ("a", "b", "c", "b")
    ROUND_S = 13.0

    def __init__(self, seed, tmp, seconds):
        self.seed = seed
        self.tmp = tmp
        self.rounds = rounds_for(seconds, self.ROUND_S)
        self.counters = Counter()

    def setup(self):
        rng = np.random.default_rng(self.seed)
        per_round = Counter(self.ROUND)
        big = rng.choice(np.arange(19_500, 20_501), self.rounds * per_round["a"], replace=False)
        small = rng.choice(
            np.arange(2_900, 3_101), self.rounds * (per_round["b"] + per_round["c"]), replace=False
        )
        sizes = {"a": iter(big.tolist()), "bc": iter(small.tolist())}
        self.inputs = []
        for r in range(self.rounds):
            ops = []
            for k, kind in enumerate(self.ROUND):
                n = next(sizes["a" if kind == "a" else "bc"])
                path = self.tmp / f"r{r}_{k}_{kind}_n{n}.txt"
                data = rng.beta(1.1, 0.9, n) if kind == "b" else rng.random(n)
                write_values(path, data)
                ops.append((kind, n, path))
            self.inputs.append(ops)

    def round_ops(self, r):
        return [self._op(r, k, kind, n, path) for k, (kind, n, path) in enumerate(self.inputs[r])]

    def _op(self, r, k, kind, n, path):
        argv = ["test", "--input", str(path)]
        detail = path.with_suffix(".csv")
        if kind == "b":
            argv += ["--null-cdf", "beta(1.1,0.9)"]
        if kind == "c":
            argv += ["--emit-detail", str(detail)]

        def check(text):
            verdict = check_pitos_json(text, n)
            blob = text.encode()
            self.counters["cli.bytes_out"] += len(blob)
            if kind == "c":
                csv_bytes = detail.read_bytes()
                detail.unlink()
                self.counters["cli.bytes_out"] += len(csv_bytes)
                check_detail_csv(csv_bytes.decode(), verdict)
                blob += csv_bytes
            return blob

        return Op(kind, f"r{r}.{k}.{kind}.n{n}", lambda: run_cli(argv), check)

    def named_metrics(self, med):
        return {
            "verdict_n20k_s": {"value": med["a"], "unit": "s"},
            "verdict_n3k_s": {"value": med["b"], "unit": "s"},
            "detail_n3k_s": {"value": med["c"], "unit": "s"},
        }


class McStudy:
    """Monte Carlo studies on prebuilt nulls; the pair cache hits after round 0.

    a: scenario_study('random-gap') at n = 100, roster pitos,ad,nb,ks,cvm, threads = 2
    b: the same at n = 30
    c: estimate_power on one seed-drawn gap distribution at n = 100 (one thread)
    """

    STUDY = {"a": (100, 4, 150), "b": (30, 4, 400)}  # kind: (n, distributions, replicates)
    POWER_N, POWER_REPS = 100, 300
    ROUND_S = 2.5

    def __init__(self, seed, tmp, seconds):
        self.seed = seed
        self.cache = tmp / "cache"
        self.rounds = rounds_for(seconds, self.ROUND_S)
        self.counters = Counter()

    def setup(self):
        for n in sorted({n for n, _, _ in self.STUDY.values()} | {self.POWER_N}):
            for test in TESTS:
                classic.build_empirical_null(test, n, NULL_B, self.seed, cache_dir=self.cache)
        rng = np.random.default_rng(self.seed)
        self.gap = f"gap({rng.uniform(0.2, 0.8):.4f},{rng.uniform(0.025, 0.1):.4f})"

    def round_ops(self, r):
        ops = []
        for kind, (n, dists, reps) in self.STUDY.items():
            call = lambda n=n, dists=dists, reps=reps: harness.scenario_study(
                "random-gap", dists, reps, n, seed=self.seed, tests=ROSTER,
                null_b=NULL_B, cache_dir=self.cache, threads=2,
            )
            check = lambda s, n=n, dists=dists, reps=reps: self._check_study(s, n, dists, reps)
            ops.append(Op(kind, f"study.n{n}", call, check))
        call = lambda: harness.estimate_power(
            self.gap, ROSTER, self.POWER_N, replicates=self.POWER_REPS, seed=self.seed,
            null_b=NULL_B, cache_dir=self.cache,
        )
        ops.append(Op("c", f"power.n{self.POWER_N}", call, self._check_power))
        return ops

    def _check_report(self, rep, n, reps):
        expect(rep.n == n and rep.replicates == reps, "report n or replicates wrong")
        expect(tuple(rep.rejection_rate) == ROSTER, "report roster wrong")
        parts = []
        for test, rate in rep.rejection_rate.items():
            expect(0.0 <= rate <= 1.0 and abs(rate * reps - round(rate * reps)) < 1e-9,
                   f"{test} rejection rate {rate} is not k/{reps}")
            expect(rep.mc_std_err[test] == math.sqrt(rate * (1.0 - rate) / reps), "std err formula")
            parts.append(repr(rate))
        return ",".join(parts)

    def _check_study(self, summary, n, dists, reps):
        expect(summary.tests == ROSTER and summary.num_distributions == dists, "study shape")
        expect(len(summary.reports) == dists, "one report per distribution")
        freq = summary.rank_freq
        ones = np.ones(len(ROSTER))
        expect(np.allclose(freq.sum(axis=1), ones, atol=1e-12), "rank rows do not sum to 1")
        expect(np.allclose(freq.sum(axis=0), ones, atol=1e-12), "rank columns do not sum to 1")
        rows = [self._check_report(rep, n, reps) for rep in summary.reports]
        for test in ROSTER:
            mean = sum(rep.rejection_rate[test] for rep in summary.reports) / dists
            expect(math.isclose(summary.avg_power[test], mean, abs_tol=1e-12), "avg_power")
        text = "\n".join(rows + [json.dumps(summary.avg_power), freq.tobytes().hex()])
        return text.encode()

    def _check_power(self, rep):
        return self._check_report(rep, self.POWER_N, self.POWER_REPS).encode()

    def named_metrics(self, med):
        def rate(kind, reps):
            return {"value": None if med[kind] is None else reps / med[kind], "unit": "1/s"}

        (n_a, d_a, r_a), (n_b, d_b, r_b) = self.STUDY["a"], self.STUDY["b"]
        return {
            f"mc_reps_per_s_n{n_a}": rate("a", d_a * r_a),
            f"mc_reps_per_s_n{n_b}": rate("b", d_b * r_b),
            f"power_reps_per_s_n{self.POWER_N}": rate("c", self.POWER_REPS),
        }


# Rough medians of each null statistic at n = 100 (uniform data); a built null
# whose median strays more than NULL_MEDIAN_TOL from these is wrong.
NULL_MEDIAN = {"ad": 0.774, "nb": 1.386, "ks": 0.0811, "cvm": 0.119}
NULL_MEDIAN_TOL = 0.08


class NullCache:
    """Empirical nulls built (misses, writes) and read (hits) side by side.

    a: build_empirical_null for ad, nb, ks, cvm at n = 100, B = 20000, fresh seed
    b: `pitos test --method T --null-b 20000` against prebuilt nulls (CLI read)
    c: classic_test against the same prebuilt nulls (library read)
    plus one CLI read per round against a truncated cache file (kind "truncated").
    """

    N = 100
    READS = 20
    ROUND_S = 2.8

    def __init__(self, seed, tmp, seconds):
        self.seed = seed
        self.tmp = tmp
        self.rounds = rounds_for(seconds, self.ROUND_S)
        self.read_dir = tmp / "read"
        self.trunc_dir = tmp / "truncated"
        self.build_dir = tmp / "build"
        self.counters = Counter()

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.inputs = []
        for k in range(self.READS):
            a, b = rng.uniform(0.7, 1.5, 2)
            values = rng.beta(a, b, self.N)
            path = self.tmp / f"read{k}.txt"
            write_values(path, values)
            self.inputs.append((path, values))
        for d in (self.read_dir, self.trunc_dir, self.build_dir):
            d.mkdir()
        self.truncated = {}
        for test in TESTS:
            before = dir_files(self.read_dir)
            classic.build_empirical_null(test, self.N, NULL_B, self.seed, cache_dir=self.read_dir)
            (name,) = dir_files(self.read_dir) - before
            whole = (self.read_dir / name).read_bytes()
            self.truncated[test] = (self.trunc_dir / name, whole[: len(whole) // 2])

    def round_ops(self, r):
        build_seed = 1 + r + 1000 * (self.seed + 1)
        ops = [Op("a", f"build.s{build_seed}", lambda: self._build(build_seed),
                  lambda nulls: self._check_build(nulls, build_seed), prepare=self._snapshot)]
        for k, (path, values) in enumerate(self.inputs):
            test = TESTS[k % len(TESTS)]
            ops.append(self._cli_read("b", f"cli.{k}.{test}", test, path, values, self.read_dir))
            call = lambda test=test, values=values: classic.classic_test(
                test, values, null_b=NULL_B, seed=self.seed, cache_dir=self.read_dir
            )
            ops.append(Op("c", f"lib.{k}.{test}", call,
                          lambda v, test=test, values=values: self._check_verdict(v, test, values)))
        k = r % self.READS
        test = TESTS[r % len(TESTS)]
        path, values = self.inputs[k]
        trunc_path, trunc_bytes = self.truncated[test]
        op = self._cli_read("truncated", f"truncated.{k}.{test}", test, path, values, self.trunc_dir)
        op.prepare = lambda: trunc_path.write_bytes(trunc_bytes)
        ops.append(op)
        return ops

    def _snapshot(self):
        self.build_files = dir_files(self.build_dir)

    def _build(self, build_seed):
        return [classic.build_empirical_null(t, self.N, NULL_B, build_seed, cache_dir=self.build_dir)
                for t in TESTS]

    def _check_build(self, nulls, build_seed):
        blob = b""
        for test, null in zip(TESTS, nulls):
            expect(null.test_name == test and null.n == self.N and null.B == NULL_B, "null shape")
            expect(null.seed == build_seed and len(null.statistics) == NULL_B, "null seed or B")
            s = null.statistics
            expect(np.all(np.isfinite(s)) and np.all(s[:-1] <= s[1:]), "null not finite and sorted")
            med = float(np.median(s))
            expect(abs(med / NULL_MEDIAN[test] - 1.0) <= NULL_MEDIAN_TOL, f"{test} null median {med}")
            blob += s.tobytes()
        written = dir_files(self.build_dir) - self.build_files
        expect(len(written) == len(TESTS), "not one new cache file per null")
        for name in written:
            with np.load(self.build_dir / name) as payload:
                stored = payload["statistics"]
            expect(any(np.array_equal(stored, null.statistics) for null in nulls), "cache file differs")
        return blob

    def _cli_read(self, kind, key, test, path, values, cache_dir):
        argv = ["test", "--method", test, "--null-b", str(NULL_B), "--input", str(path),
                "--seed", str(self.seed), "--cache-dir", str(cache_dir)]

        def check(text):
            expect(text.endswith("\n") and text.count("\n") == 1, "verdict is not one line")
            v = json.loads(text)
            expect(list(v) == ["test", "n", "b", "seed", "statistic", "p_value"], f"keys {list(v)}")
            check_classic(test, v["test"], v["n"], v["b"], v["seed"], v["statistic"],
                          v["p_value"], values, self.seed)
            self.counters["cli.bytes_out"] += len(text)
            return text.encode()

        return Op(kind, key, lambda: run_cli(argv), check)

    def _check_verdict(self, verdict, test, values):
        check_classic(test, verdict.test_name, verdict.n, verdict.b, verdict.seed,
                      verdict.statistic, verdict.p_value, values, self.seed)
        return repr((verdict.statistic, verdict.p_value)).encode()

    def named_metrics(self, med):
        return {
            "null_build_s": {"value": med["a"], "unit": "s"},
            "classic_verdict_ms": {"value": to_ms(med["b"]), "unit": "ms"},
            "library_verdict_ms": {"value": to_ms(med["c"]), "unit": "ms"},
        }


WORKLOADS = {"verdict-cold": VerdictCold, "mc-study": McStudy, "null-cache": NullCache}
