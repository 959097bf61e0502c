"""One workload in one fresh process: set up, print "ready", run rounds of ops,
print the result as one JSON line.  Launched by run.py; not meant for direct use.

Every op is timed around the program call alone; its output is then checked
and hashed outside the timed region.  An op fails when the call raises or
the check rejects its output.  Traced and untraced runs execute the same
fixed number of rounds, derived from --seconds (see workloads.py), so
traced counters repeat exactly.  Each slot metric is the run median of its
op kind's latencies.
"""

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import workloads


class Runner:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.errors = Counter()
        self.latency = defaultdict(list)
        self.digest_by_key = {}
        self.first_round_digests = []

    def _fail(self, op, what, exc):
        self.failed += 1
        label = f"{op.kind}:{what}:{type(exc).__name__}"
        if not self.errors[label]:
            print(f"op {op.key} failed ({what}): {exc!r}", file=sys.stderr)
            traceback.print_exception(exc, limit=-3, file=sys.stderr)
        self.errors[label] += 1

    def run(self, op, first_round):
        self.attempted += 1
        if op.prepare is not None:
            op.prepare()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failing op is a measurement, not a crash
            self._fail(op, "raised", exc)
            return
        elapsed = time.perf_counter() - t0
        try:
            blob = op.check(out)
        except Exception as exc:  # any check error means the output is wrong
            self.incorrect += 1
            self._fail(op, "check", exc)
            return
        digest = hashlib.sha256(blob).hexdigest()[:16]
        if self.digest_by_key.setdefault(op.key, digest) != digest:
            self.incorrect += 1
            self._fail(op, "check", workloads.CheckFailed("output differs from its first run"))
            return
        if first_round:
            self.first_round_digests.append(f"{op.key}={digest}")
        self.latency[op.kind].append(elapsed)


def latency_summary(samples):
    """Sample count, min, median and the highest of p99/p95/p90/p75 that has
    at least ten samples beyond it (omitted below 40 samples), in seconds."""
    out = {"n": len(samples), "min": min(samples), "median": statistics.median(samples)}
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = float(np.percentile(samples, q))
            break
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import pitos

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(pitos.__file__).resolve().parents:
        raise SystemExit(f"pitos imported from {pitos.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.tmp), args.seconds)
    wl.setup()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner()
    for r in range(wl.rounds):
        for op in wl.round_ops(r):
            runner.run(op, first_round=r == 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat = runner.latency
    med = {kind: statistics.median(lat[kind]) if lat[kind] else None for kind in "abc"}
    error_rate = runner.failed / runner.attempted
    metrics = {
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - error_rate,
        "op_a_s": med["a"],
        "op_b_ms": workloads.to_ms(med["b"]),
        "op_c_ms": workloads.to_ms(med["c"]),
    }
    named = wl.named_metrics(med)
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    named["error_rate"] = {"value": error_rate, "unit": "ratio"}
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": wl.rounds,
        "ops": {kind: latency_summary(v) for kind, v in sorted(lat.items())},
        "metrics": metrics,
        "named": named,
        "errors": dict(runner.errors),
        "digests": runner.first_round_digests,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wl.counters)
        result["missing"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
