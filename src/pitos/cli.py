"""Command-line entry point.

Subcommands: test, pairs, sample, scenarios, power, calibrate, study.
Single verdicts print as one-line JSON on stdout; tabular outputs are CSV
with a header row.  The Monte Carlo studies (power, calibrate, study)
written with --out also get a JSON sidecar (<out>.meta.json) recording the
configuration and seeds.  Identical invocations are byte-identical,
including under different --threads values (threads only schedule work and
are deliberately left out of the sidecar).

Input files hold one decimal value per line; blank lines and '#' comments
(full-line or trailing) are ignored.  Parse failures name the line number.
"""

import argparse
import csv
import functools
import json
import logging
import math
import sys
import types
from pathlib import Path

import numpy as np

from .classic import VERDICT_NULL_B, classic_test
from .core import OrderedSample, pitos_p_value
from .distributions import SCENARIOS, ScenarioSampler, zoo_lookup
from .harness import (
    DEFAULT_REPLICATES,
    DEFAULT_TESTS,
    STUDY_NULL_B,
    _normalize_tests,
    null_pvalue_cdf,
    power_curve,
    replicate_dataset,
    scenario_study,
)
from .pairs import DEFAULT_WARP, _positive_int, _sample_size, generate_pairs
from .rosenblatt import randomized_pit
from .streams import _check_key, stream

__all__ = ["main", "entrypoint"]

PAPER_SCALE = 100_000
_BLOCK_ROWS = 1 << 16  # rows per chunk of a numbers-only table: bounds the text held at once

CALIBRATION_GRID = (
    [round(0.001 * k, 3) for k in range(1, 10)]
    + [round(0.01 * k, 2) for k in range(1, 20)]
    + [round(0.05 * k, 2) for k in range(4, 21)]
)


class CliError(Exception):
    """Validation or runtime failure that should become a one-line diagnostic."""


def _resolve_counts(args):
    """Replicates and null draws: explicit flags win, then --paper-scale,
    then the desk-scale defaults."""
    reps = args.reps
    if reps is None:
        reps = PAPER_SCALE if args.paper_scale else DEFAULT_REPLICATES
    null_b = args.null_b
    if null_b is None:
        null_b = PAPER_SCALE if args.paper_scale else STUDY_NULL_B
    return reps, null_b


def _warp_shapes(text):
    """--warp A,B: exactly two positive finite Beta shapes."""
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two shapes A,B, got {text!r}") from None
    if not all(math.isfinite(v) and v > 0.0 for v in (a, b)):
        raise argparse.ArgumentTypeError(f"shapes must be positive and finite, got {text!r}")
    return a, b


def read_values(path):
    """Numeric values from a text file, one per line, '#' starts a comment."""
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise CliError(
                        f"{path}: line {lineno}: could not parse value {text!r}"
                    ) from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    if not values:
        raise CliError(f"{path}: no data values found")
    return np.array(values)


def _write_text(path, chunks):
    """Write an iterable of text chunks to the file at `path`, or to stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _numeric_table(header, row_format, *columns):
    """A numbers-only table, which needs no csv quoting, as text chunks: the
    header, then one chunk per _BLOCK_ROWS rows of row_format.format(k, *row)
    for the 1-based row number k, each column converted a block at a time."""
    yield header
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        hi = lo + _BLOCK_ROWS
        yield "".join(map(row_format.format, range(lo + 1, hi + 1),
                          *(c[lo:hi].tolist() for c in columns)))


def _csv_lines(header, rows):
    """CSV lines for tables whose fields can need quoting: distribution
    names such as gap(0.5,0.05) hold commas."""
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        [header, *rows])
    return lines


def _write_study_table(args, null_b, header, rows, config):
    """A study's CSV to --out (or stdout).  With --out it also writes the
    sidecar: the handler's own `config` plus the keys every study records."""
    _write_text(args.out, _csv_lines(header, rows))
    if args.out is None:
        return
    config.update(subcommand=args.subcommand, null_b=null_b, seed=args.seed)
    sidecar = Path(str(args.out) + ".meta.json")
    sidecar.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_test(args):
    # flags that only the other kind of test reads are refused, not ignored
    if args.method == "pitos":
        scope = "a classical --method"
        unused = {"--null-b": args.null_b, "--cache-dir": args.cache_dir}
    else:
        scope = "--method pitos"
        unused = {"--emit-detail": args.emit_detail, "--warp": args.warp}
    for flag, value in unused.items():
        if value is not None:
            raise CliError(f"{flag} applies only to {scope}")
    seed, _ = _check_key(args.seed, ())  # refused even where no draw reads it
    values = read_values(args.input)
    if args.null_cdf is not None:
        spec = zoo_lookup(args.null_cdf)
        rng = stream(seed, 0, 0, 0) if spec.is_discrete else None
        values = randomized_pit(values, spec, rng=rng)
        values = np.clip(values, 0.0, 1.0)
    sample = OrderedSample(values)

    if args.method == "pitos":
        pairs = generate_pairs(sample.n, warp=args.warp or DEFAULT_WARP)
        verdict = pitos_p_value(sample, pairs, detail=args.emit_detail is not None)
        if args.emit_detail is not None:
            det = verdict.detail
            _write_text(args.emit_detail, _numeric_table(
                "k,i,j,u,p\n", "{},{},{},{!r},{!r}\n", det.i, det.j, det.u, det.p))
        payload = {
            "test": "PITOS",
            "n": verdict.n,
            "m": verdict.m,
            "p_value": verdict.p_uncorrected,
            "p_star": verdict.p_value,
        }
    else:
        null_b = VERDICT_NULL_B if args.null_b is None else args.null_b
        verdict = classic_test(
            args.method, sample, null_b=null_b, seed=seed, cache_dir=args.cache_dir
        )
        payload = {
            "test": verdict.test_name,
            "n": verdict.n,
            "b": verdict.b,
            "seed": verdict.seed,
            # strict JSON has no infinity; only AD reaches one, and only +inf
            "statistic": None if verdict.statistic == math.inf else verdict.statistic,
            "p_value": verdict.p_value,
        }
    print(json.dumps(payload, allow_nan=False))
    return 0


def _cmd_pairs(args):
    seq = generate_pairs(args.n)
    _write_text(args.out, _numeric_table("k,i,j\n", "{},{},{}\n", seq.i, seq.j))
    return 0


def _cmd_sample(args):
    spec = zoo_lookup(args.dist)
    # replicate 0 of a directly named distribution's job at this seed
    values = replicate_dataset(spec, _sample_size(args.n), stream(args.seed, 0, 0, 1))
    _write_text(args.out, _numeric_table("", "{1!r}\n", values))
    return 0


def _cmd_scenarios(args):
    sampler = ScenarioSampler(args.name, args.seed)
    rows = []
    for idx, spec in enumerate(sampler.draw_many(_positive_int(args.count, "count"))):
        params = json.dumps(spec.parameters, sort_keys=True)
        rows.append((idx, args.name, spec.name, params))
    _write_text(args.out, _csv_lines(["index", "scenario", "distribution", "parameters"], rows))
    return 0


def _comma_list(flag, text, convert, kind):
    """The comma-separated values of `flag`, each through `convert`; a value
    that does not convert is named with its flag."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} takes comma-separated {kind}, got {text!r}") from None


def _parse_tests(raw):
    tests = tuple(t.strip() for t in raw.split(",") if t.strip())
    if not tests:
        raise CliError("--tests: empty test roster")
    try:
        return _normalize_tests(tests)
    except ValueError as exc:
        raise CliError(f"--tests: {exc}") from None


def _cmd_power(args):
    tests = _parse_tests(args.tests)
    n_grid = _comma_list("--n", args.n, int, "integers")
    reps, null_b = _resolve_counts(args)
    if args.dist in SCENARIOS:
        dist = ScenarioSampler(args.dist, args.seed).draw(0)
    else:
        dist = zoo_lookup(args.dist)
    reports = power_curve(
        dist, tests, n_grid, args.alpha, reps, args.seed,
        null_b=null_b, cache_dir=args.cache_dir, threads=args.threads,
    )
    rows = [
        (rep.distribution["name"], rep.n, test, rep.alpha, rep.replicates,
         repr(rep.rejection_rate[test]), repr(rep.mc_std_err[test]), rep.seed)
        for rep in reports
        for test in tests
    ]
    header = ["distribution", "n", "test", "alpha", "replicates",
              "rejection_rate", "mc_std_err", "seed"]
    _write_study_table(args, null_b, header, rows, {
        "distribution": reports[0].distribution,
        "tests": list(tests),
        "n_grid": n_grid,
        "alpha": args.alpha,
        "replicates": reps,
    })
    return 0


def _cmd_calibrate(args):
    grid = (list(CALIBRATION_GRID) if args.grid is None
            else _comma_list("--grid", args.grid, float, "numbers"))
    if not all(0.0 <= t <= 1.0 for t in grid):  # NaN fails both
        raise CliError(f"--grid takes thresholds in [0, 1], got {args.grid!r}")
    reps, null_b = _resolve_counts(args)
    result = null_pvalue_cdf(
        args.test, args.n, reps, args.seed, grid, null_b=null_b, cache_dir=args.cache_dir,
    )
    if args.test == "pitos":
        header = ["threshold", "cdf_p", "cdf_p_star"]
        rows = [
            (repr(t), repr(a), repr(b))
            for t, a, b in zip(grid, result.series["p"].tolist(), result.series["p_star"].tolist())
        ]
    else:
        header = ["threshold", "cdf_p"]
        rows = [(repr(t), repr(a)) for t, a in zip(grid, result.series["p"].tolist())]
    _write_study_table(args, null_b, header, rows, {
        "test": args.test,
        "n": args.n,
        "replicates": reps,
        "grid": grid,
    })
    return 0


def _cmd_study(args):
    tests = _parse_tests(args.tests)
    dists = _positive_int(args.dists, "dists")
    reps, null_b = _resolve_counts(args)
    summary = scenario_study(
        args.scenario, dists, reps, args.n, args.alpha, args.seed,
        tests=tests, null_b=null_b, cache_dir=args.cache_dir, threads=args.threads,
    )
    header = ["test", "avg_power"] + [f"rank{r}_freq" for r in range(1, len(tests) + 1)]
    rows = [
        [test, repr(summary.avg_power[test])]
        + [repr(float(v)) for v in summary.rank_freq[k]]
        for k, test in enumerate(tests)
    ]
    _write_study_table(args, null_b, header, rows, {
        "scenario": args.scenario,
        "tests": list(tests),
        "num_distributions": dists,
        "replicates_per_distribution": reps,
        "n": args.n,
        "alpha": args.alpha,
        "distributions": [rep.distribution for rep in summary.reports],
    })
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once per process; parsing never changes it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pitos",
        description="Goodness-of-fit testing against a Uniform(0,1) null "
        "(or any named null via its probability integral transform).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, *, cache_dir=True, threads=False):
        p.add_argument("--seed", type=int, default=0, help="seed controlling all randomness")
        if cache_dir:
            p.add_argument("--cache-dir", default=None,
                           help="empirical-null cache directory (default $PITOS_CACHE_DIR or ~/.cache/pitos)")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="threads running jobs (grid points or distributions); each "
                           "job's replicates use the available cores; outputs are identical "
                           "for any value")

    def add_study_flags(p, *, reps=True, roster=True):
        """Flags shared by power, calibrate and study: --reps where it is
        optional, and the roster and level where tests are compared."""
        if roster:
            p.add_argument("--tests", default=",".join(DEFAULT_TESTS), help="comma-separated roster")
            p.add_argument("--alpha", type=float, default=0.05)
        if reps:
            p.add_argument("--reps", type=int, default=None,
                           help=f"replicates (default {DEFAULT_REPLICATES}, or {PAPER_SCALE} with --paper-scale)")
        p.add_argument("--null-b", type=int, default=None,
                       help=f"null draws (default {STUDY_NULL_B}, or {PAPER_SCALE} with --paper-scale)")
        p.add_argument("--paper-scale", action="store_true",
                       help=f"full-size counts: {PAPER_SCALE} for each count not given explicitly")
        p.add_argument("--out", default=None)

    p = sub.add_parser("test", help="run one test on a data file")
    p.add_argument("--input", required=True, help="one numeric value per line")
    p.add_argument("--method", default="pitos", choices=DEFAULT_TESTS)
    p.add_argument("--null-cdf", default=None,
                   help="map data through this zoo distribution's PIT before testing")
    p.add_argument("--emit-detail", default=None, metavar="PATH",
                   help="write per-pair detail CSV (pitos only)")
    p.add_argument("--warp", default=None, type=_warp_shapes, metavar="A,B",
                   help="custom Beta warp shapes for the pair sequence (pitos only)")
    p.add_argument("--null-b", type=int, default=None,
                   help=f"null replicates behind classical p-values (default {VERDICT_NULL_B})")
    add_common(p)
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("pairs", help="emit the pair sequence for a sample size as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_pairs)

    p = sub.add_parser("sample", help="draw from a zoo distribution, one value per line")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    add_common(p, cache_dir=False)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("scenarios", help="draw distributions from a scenario, emit parameters as CSV")
    p.add_argument("--name", required=True, choices=SCENARIOS)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", default=None)
    add_common(p, cache_dir=False)
    p.set_defaults(handler=_cmd_scenarios)

    p = sub.add_parser("power", help="rejection rates over an n grid")
    p.add_argument("--dist", required=True, help="zoo distribution or scenario name")
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    add_study_flags(p)
    add_common(p, threads=True)
    p.set_defaults(handler=_cmd_power)

    p = sub.add_parser("calibrate", help="null p-value CDF on a threshold grid")
    p.add_argument("--test", default="pitos", choices=DEFAULT_TESTS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default=None, help="comma-separated thresholds in [0, 1]")
    add_study_flags(p, roster=False)
    add_common(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("study", help="randomized-scenario rank and average-power study")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--dists", type=int, required=True, help="number of distributions to draw")
    p.add_argument("--reps", type=int, required=True, help="replicates per distribution")
    p.add_argument("--n", type=int, required=True)
    add_study_flags(p, reps=False)
    add_common(p, threads=True)
    p.set_defaults(handler=_cmd_study)

    return parser


def main(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
