"""Steadiness and reproducibility checks for the benchmark.

Run a set of seeds per workload and summarise each metric's median and
quartile spread against its bound:

    python3 perfbench/prove.py run --workloads verdict-cold,mc-study,null-cache \\
        --seeds 1-10 --trace 0 --out set1.json

With two or more --out files the sets are run interleaved, seed by seed,
alternating which set goes first, so slow drift of the host's speed falls
on every set alike.

Compare two such sets (each set's median not worse than the other's by more
than the bound, in both directions; identical digest lists for equal seeds;
identical exact counters for traced sets; tracing overhead when one set is
traced and the other is not):

    python3 perfbench/prove.py compare set1.json set2.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
SPEC_BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
EXACT_UNITS = ("count", "B")


def seeds_arg(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "info": info, "result": result}


def spread(values):
    """Median, quartiles and (q3 - q1) / median; the ratio is nan for a zero median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarise(runs):
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, group in by_workload.items():
        walls = [r["wall_s"] for r in group]
        fails = sorted({(r["result"]["failed"], r["result"]["attempted"]) for r in group})
        print(f"\n{workload}: {len(group)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"correct={all(r['result']['correct'] for r in group)}, failed/attempted={fails}")
        probes = [p for r in group for p in r["info"]["probe_s"].values()]
        print(f"  probe_s {min(probes):.3f}-{max(probes):.3f}")
        for name in group[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in group]
            if len(values) < 2 or any(v is None for v in values):
                print(f"  {name:32s} {values}")
                continue
            med, q1, q3, rel = spread(values)
            bound = BOUNDS.get(name)
            note = f" bound {bound} ratio {rel / bound:.2f}" if bound is not None else ""
            print(f"  {name:32s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f}{note}")


def compare(a_runs, b_runs):
    ok = True
    for workload in sorted({r["workload"] for r in a_runs}):
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        print(f"\n{workload}")
        b_seed = {r["seed"]: r for r in b}
        for ra in a:
            rb = b_seed.get(ra["seed"])
            if rb is None:
                continue
            same = ra["info"]["digests"] == rb["info"]["digests"]
            ok &= same
            print(f"  seed {ra['seed']}: digests {'identical' if same else 'DIFFER'}")
            if ra["trace"] and rb["trace"]:
                units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                diff = [k for k, u in units.items() if u in EXACT_UNITS
                        and ra["result"]["metrics"][k] != rb["result"]["metrics"][k]]
                ok &= not diff
                print(f"           exact counters {'identical' if not diff else 'DIFFER: ' + str(diff)}")
        if a[0]["trace"] == b[0]["trace"] == 0:
            for name, bound in BOUNDS.items():
                ma = statistics.median(r["result"]["metrics"][name]["value"] for r in a)
                mb = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
                sign = 1 if SPEC_BETTER[name] == "lower" else -1
                b_worse, a_worse = sign * (mb - ma) / ma, sign * (ma - mb) / mb
                ok &= max(b_worse, a_worse) <= bound
                print(f"  {name:14s} median {ma:.6g} / {mb:.6g}  second worse by {b_worse:+.4f},"
                      f" first worse by {a_worse:+.4f} (bound {bound})")
        elif a[0]["trace"] != b[0]["trace"]:
            traced, plain = (a, b) if a[0]["trace"] else (b, a)
            for kind in sorted(a[0]["info"]["ops"]):
                mt, mp = (statistics.median(r["info"]["ops"][kind]["median"] for r in runs)
                          for runs in (traced, plain))
                print(f"  tracing overhead, median op {kind}: {mt:.6g} - {mp:.6g} s"
                      f" = {mt - mp:+.6g} s ({(mt - mp) / mp:+.1%})")
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", nargs="+", required=True, help="one file per interleaved set")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)

    if args.cmd == "compare":
        return compare(*(json.loads(Path(f).read_text()) for f in (args.a, args.b)))
    sets = [[] for _ in args.out]
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            for k in ((seed + j) % len(sets) for j in range(len(sets))):
                r = run_one(workload, seed, args.seconds, args.trace)
                sets[k].append(r)
                values = {name: round(m["value"], 5) for name, m in r["result"]["metrics"].items()
                          if m["value"] is not None}
                print(f"{workload} seed {seed} set {k}: {r['wall_s']:.1f} s {json.dumps(values)}", flush=True)
                Path(args.out[k]).write_text(json.dumps(sets[k]))
    for out, runs in zip(args.out, sets):
        print(f"\n== {out}")
        summarise(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
