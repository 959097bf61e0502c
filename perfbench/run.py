"""Benchmark entry point: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload verdict-cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout; without it the run exits with code 2.

This parent process times a fixed ``scipy.special`` kernel before and after
the workload (a machine-speed probe, printed only), launches the workload in
fresh processes (``worker.py``) and prints two lines: an info object with the
workload's named metrics, probe times and output digests, and as the last
line the result object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics from a traced run.

``setup_s`` is the median over SETUPS launches of the time from starting the
worker process to its "ready" line: SETUPS - 1 set-up-only launches plus the
measuring one.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
WORKLOADS = ("verdict-cold", "mc-study", "null-cache")
SETUPS = 3
WORKER_TIMEOUT_S = 170


def probe_s():
    """Wall time of a fixed betaincinv + betainc pass over 2^20 points."""
    import numpy as np
    from scipy import special

    x = np.linspace(0.0005, 0.9995, 1 << 20)
    t0 = time.perf_counter()
    special.betainc(0.7, 0.7, special.betaincinv(0.7, 0.7, x))
    return time.perf_counter() - t0


def _worker_env(tmp):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same str hashing, so same dict and set layout, in every run
    env["PITOS_CACHE_DIR"] = str(tmp / "default-cache")  # keeps pitos off ~/.cache
    return env


def launch(args, tmp, *, setup_only):
    """Run one worker; returns (seconds from launch to ready, result or None)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp),
    ]
    if setup_only:
        cmd.append("--setup-only")
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(tmp), cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} failed (exit {proc.returncode})")
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pitos" / "__init__.py").is_file():
        print(f"error: no src/pitos package under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_tmp = TMP_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        probe_before = probe_s()
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                setups.append(launch(args, run_tmp / f"setup{k}", setup_only=True)[0])
        setup, res = launch(args, run_tmp / "main", setup_only=False)
        setups.append(setup)
        probe_after = probe_s()
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)
        if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    measured = dict(res["metrics"])
    measured["setup_s"] = statistics.median(setups)
    named = dict(res["named"])
    named["setup_s"] = {"value": measured["setup_s"], "unit": "s"}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": res["rounds"],
        "ops": res["ops"],
        "named_metrics": named,
        "setup_samples_s": setups,
        "probe_s": {"before": probe_before, "after": probe_after},
        "errors": res["errors"],
        "missing_hooks": res.get("missing", []),
        "digests": res["digests"],
        "versions": res["versions"],
    }
    if args.trace:
        measured = res["layers"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(info))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
