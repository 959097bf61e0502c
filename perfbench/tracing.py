"""Traced runs: spans around calls into each pitos layer, recorded from here.

The tracer replaces module attributes that pitos looks up at call time
(``pitos.pairs.beta_inv_cdf``, ``scipy.special.betainc``,
``pitos.harness.replicate_dataset``, ...) with wrappers that record a span:
name, thread, start, end and the span that caused it.  A span opened on a
worker thread with nothing open on that thread is caused by the innermost
span open on the main thread (the study waiting on its thread pool).  A
hook whose target no longer exists is listed in ``missing`` and every
metric that depends on it reads -1.

``stream`` runs tens of thousands of times per null build, so it records no
span: its hook adds the call's count and duration to a per-thread tally, and
the duration to the span open on the calling thread, whose self time then
leaves it out.

Self time is a span's duration minus the union of its children's intervals
and minus the stream time inside it.
Exact counts (pairs, betainc evaluations, stream calls, cache outcomes and
bytes) come from arguments, return values and the cache directory as seen
before and after each call, never from pitos internals.
"""

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute path, span name)
HOOKS = (
    ("pitos.pairs", "beta_inv_cdf", "special.beta_inv_cdf"),
    ("scipy.special", "betainc", "betainc"),
    ("pitos.pairs", "_radical_inverse_fill", "pairs.radical_inverse"),
    ("pitos.cli", "generate_pairs", "pairs.generate_pairs"),
    ("pitos.core", "generate_pairs", "pairs.generate_pairs"),
    ("pitos.harness", "generate_pairs", "pairs.generate_pairs"),
    ("pitos.pairs", "PairSequence.dedup", "pairs.dedup"),
    ("pitos.cli", "pitos_p_value", "core.pitos_p_value"),
    ("pitos.harness", "pitos_p_value", "core.pitos_p_value"),
    ("pitos.cli", "randomized_pit", "rosenblatt.randomized_pit"),
    ("pitos.cli", "main", "cli.main"),
    ("pitos.cli", "read_values", "cli.read_values"),
    ("pitos.cli", "classic_test", "classic.classic_test"),
    ("pitos.classic", "build_empirical_null", "classic.build_empirical_null"),
    ("pitos.harness", "build_empirical_null", "classic.build_empirical_null"),
    ("pitos.classic", "batch_statistics", "classic.batch_statistics"),
    ("pitos.harness", "batch_statistics", "classic.batch_statistics"),
    ("pitos.classic", "empirical_p_value", "classic.empirical_p_value"),
    ("pitos.harness", "empirical_p_value", "classic.empirical_p_value"),
    ("pitos.classic", "stream", "streams.stream"),
    ("pitos.harness", "stream", "streams.stream"),
    ("pitos.cli", "stream", "streams.stream"),
    ("pitos.distributions", "stream", "streams.stream"),
    ("pitos.harness", "replicate_dataset", "harness.replicate_dataset"),
    ("pitos.harness", "scenario_study", "harness.scenario_study"),
    ("pitos.harness", "estimate_power", "harness.estimate_power"),
)

HARNESS_OPS = ("harness.scenario_study", "harness.estimate_power")
COUNTED = ("streams.stream",)  # hooks that tally calls instead of recording spans

# per-layer metric -> span names it is computed from
SOURCES = {
    "special.beta_inv_cdf.calls": ("special.beta_inv_cdf",),
    "special.beta_inv_cdf.points": ("special.beta_inv_cdf",),
    "special.beta_inv_cdf.s": ("special.beta_inv_cdf",),
    "pairs.generate_pairs.self_s": ("pairs.generate_pairs", "special.beta_inv_cdf", "pairs.radical_inverse"),
    "pairs.radical_inverse.s": ("pairs.radical_inverse",),
    "pairs.m": ("pairs.generate_pairs",),
    "pairs.dedup.s": ("pairs.dedup",),
    "pairs.unique_frac": ("pairs.dedup",),
    "core.betainc.calls": ("betainc", "core.pitos_p_value"),
    "core.betainc.evals": ("betainc", "core.pitos_p_value"),
    "core.betainc.s": ("betainc", "core.pitos_p_value"),
    "core.evals_per_pair": ("betainc", "core.pitos_p_value"),
    "core.pairs.diag": ("core.pitos_p_value",),
    "core.pairs.below": ("core.pitos_p_value",),
    "core.pairs.above": ("core.pitos_p_value",),
    "core.pitos_p_value.self_s": (
        "core.pitos_p_value", "betainc", "pairs.generate_pairs", "pairs.dedup",
    ),
    "rosenblatt.randomized_pit.s": ("rosenblatt.randomized_pit",),
    "cli.main.self_s": (
        "cli.main", "cli.read_values", "rosenblatt.randomized_pit", "pairs.generate_pairs",
        "core.pitos_p_value", "classic.classic_test", "streams.stream",
    ),
    "cli.read_values.s": ("cli.read_values",),
    "cli.bytes_out": (),
    "classic.null_cache.hits": ("classic.build_empirical_null",),
    "classic.null_cache.misses": ("classic.build_empirical_null",),
    "classic.null_build.s": ("classic.build_empirical_null",),
    "classic.null_load.s": ("classic.build_empirical_null",),
    "classic.batch_statistics.s": ("classic.batch_statistics",),
    "classic.empirical_p_value.s": ("classic.empirical_p_value",),
    "classic.cache_bytes_written": ("classic.build_empirical_null",),
    "streams.stream.calls": ("streams.stream",),
    "streams.stream.s": ("streams.stream",),
    "distributions.sample.s": ("harness.replicate_dataset", "streams.stream"),
    "harness.replicate_dataset.calls": ("harness.replicate_dataset",),
    "harness.replicate_dataset.s": ("harness.replicate_dataset",),
    "harness.score_pitos.s": ("core.pitos_p_value",) + HARNESS_OPS,
    "harness.score_classic.s": ("classic.batch_statistics", "classic.empirical_p_value") + HARNESS_OPS,
    "harness.null_load.s": ("classic.build_empirical_null",) + HARNESS_OPS,
    "harness.self_s": HARNESS_OPS + ("harness.replicate_dataset", "core.pitos_p_value"),
    "harness.parallel_frac": HARNESS_OPS,
}


class Span:
    __slots__ = ("sid", "name", "thread", "start", "end", "parent", "attrs")

    def __init__(self, sid, name, thread, start, end, parent, attrs):
        self.sid, self.name, self.thread, self.start, self.end = sid, name, thread, start, end
        self.parent, self.attrs = parent, attrs

    @property
    def duration(self):
        return self.end - self.start


def _cache_snapshot(kwargs):
    """{file name: (size, mtime)} of the cache directory a null call will use."""
    cache_dir = kwargs.get("cache_dir") or os.environ.get("PITOS_CACHE_DIR")
    if not cache_dir or not Path(cache_dir).is_dir():
        return {}
    stats = {e.name: e.stat() for e in os.scandir(cache_dir)}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


class Tracer:
    def __init__(self):
        self.spans = {}
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._saved = []
        self._sequences = set()  # (n, warp) of every pair sequence returned so far
        self._deduped = set()
        self._branches = {}  # id(pairs) -> (pairs kept alive so the id stays unique, counts)
        self._tallies = {}  # thread id -> [stream calls, stream seconds]
        self._counted_in = defaultdict(float)  # span id -> stream seconds inside it

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- hook installation -------------------------------------------------

    def install(self):
        handlers = {
            "special.beta_inv_cdf": (None, self._exit_points),
            "betainc": (None, self._exit_evals),
            "pairs.generate_pairs": (None, self._exit_pairs),
            "pairs.dedup": (None, self._exit_dedup),
            "core.pitos_p_value": (None, self._exit_verdict),
            "classic.build_empirical_null": (_cache_snapshot, self._exit_cache),
            "harness.scenario_study": (None, self._exit_threads),
        }
        for module_name, attr_path, name in HOOKS:
            *owner_path, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            if name in COUNTED:
                wrapper = self._count(target)
            else:
                enter, exit_ = handlers.get(name, (None, None))
                wrapper = self._wrap(name, target, enter, exit_)
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, target))

    def uninstall(self):
        for owner, attr, target in reversed(self._saved):
            setattr(owner, attr, target)
        self._saved.clear()

    def _wrap(self, name, fn, enter, exit_):
        spans, ids, local_stack = self.spans, self._ids, self._stack
        main_stack, get_ident, clock = self._main_stack, threading.get_ident, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local_stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else None
            sid = next(ids)
            state = enter(kwargs) if enter is not None else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, name, get_ident(), start, end, parent, {"error": True})
                raise
            end = clock()
            stack.pop()
            attrs = exit_(args, kwargs, result, state) if exit_ is not None else None
            spans[sid] = Span(sid, name, get_ident(), start, end, parent, attrs)
            return result

        return functools.wraps(fn)(wrapper)

    def _count(self, fn):
        tallies, counted_in, local_stack = self._tallies, self._counted_in, self._stack
        get_ident, clock = threading.get_ident, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tally = tallies.get(get_ident()) or tallies.setdefault(get_ident(), [0, 0.0])
                tally[0] += 1
                tally[1] += elapsed
                stack = local_stack()
                if stack:
                    counted_in[stack[-1]] += elapsed

        return functools.wraps(fn)(wrapper)

    # -- exit handlers: exact counts from arguments and results -----------

    def _exit_points(self, args, kwargs, result, state):
        return {"points": int(np.size(args[0]))}

    def _exit_evals(self, args, kwargs, result, state):
        return {"evals": int(np.size(result))}

    # Keyed by (n, warp), not by object: threads that miss the pair cache at
    # the same moment each build the sequence, and exact counts must not
    # depend on that race.
    def _exit_pairs(self, args, kwargs, result, state):
        self._local.last_pairs = result
        key = (result.n, result.warp)
        if key in self._sequences:
            return {"new_m": 0}
        self._sequences.add(key)
        return {"new_m": result.m}

    def _exit_dedup(self, args, kwargs, result, state):
        seq = args[0]
        key = (seq.n, seq.warp)
        if key in self._deduped:
            return {"unique": 0, "m": 0}
        self._deduped.add(key)
        return {"unique": len(result[0]), "m": len(result[2])}

    def _exit_verdict(self, args, kwargs, result, state):
        pairs = args[1] if len(args) > 1 else kwargs.get("pairs")
        if pairs is None:
            pairs = self._local.last_pairs
        if id(pairs) not in self._branches:
            i, j = pairs.i, pairs.j
            counts = (int(np.count_nonzero(i == j)), int(np.count_nonzero(i < j)),
                      int(np.count_nonzero(i > j)))
            self._branches[id(pairs)] = (pairs, counts)
        return {"m": result.m, "branches": self._branches[id(pairs)][1]}

    def _exit_cache(self, args, kwargs, result, before):
        after = _cache_snapshot(kwargs)
        written = [size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime)]
        return {"hit": not written, "bytes": sum(written)}

    def _exit_threads(self, args, kwargs, result, state):
        return {"threads": int(kwargs.get("threads") or 1)}

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, counters):
        spans = self.spans
        by_name = defaultdict(list)
        children = defaultdict(list)
        for sid, s in spans.items():
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent].append(s)

        def self_s(span):
            covered, reach = 0.0, span.start
            for lo, hi in sorted((c.start, c.end) for c in children[span.sid]):
                lo, hi = max(lo, reach), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return span.duration - covered - self._counted_in.get(span.sid, 0.0)

        def under_harness(span):
            while span.parent is not None:
                span = spans[span.parent]
                if span.name in HARNESS_OPS:
                    return True
            return False

        def total(name, pick=lambda s: True):
            return sum(s.duration for s in by_name[name] if pick(s))

        def attr_sum(name, key, pick=lambda s: True):
            return sum(s.attrs[key] for s in by_name[name] if s.attrs and key in s.attrs and pick(s))

        # beta_inv_cdf inside a repeated build of a pair sequence (see
        # _exit_pairs) is left out of the exact counts, as in pairs.m.
        def first_build(span):
            while span.parent is not None:
                span = spans[span.parent]
                if span.name == "pairs.generate_pairs":
                    return (span.attrs or {}).get("new_m", 1) > 0
            return True

        def core_child(s):
            return s.parent is not None and spans[s.parent].name == "core.pitos_p_value"

        verdicts = [s for s in by_name["core.pitos_p_value"] if s.attrs and "m" in s.attrs]
        pairs_scored = sum(s.attrs["m"] for s in verdicts)
        branch = [sum(s.attrs["branches"][k] for s in verdicts) for k in range(3)]
        core_evals = attr_sum("betainc", "evals", core_child)
        dedup_m = attr_sum("pairs.dedup", "m")
        cache = [s for s in by_name["classic.build_empirical_null"] if s.attrs and "hit" in s.attrs]
        studies = by_name["harness.scenario_study"]
        busy = sum(c.duration for s in studies for c in children[s.sid] if c.thread != s.thread)
        capacity = sum(s.duration * s.attrs["threads"] for s in studies if s.attrs)

        out = {
            "special.beta_inv_cdf.calls": sum(1 for s in by_name["special.beta_inv_cdf"] if first_build(s)),
            "special.beta_inv_cdf.points": attr_sum("special.beta_inv_cdf", "points", first_build),
            "special.beta_inv_cdf.s": total("special.beta_inv_cdf"),
            "pairs.generate_pairs.self_s": sum(self_s(s) for s in by_name["pairs.generate_pairs"]),
            "pairs.radical_inverse.s": total("pairs.radical_inverse"),
            "pairs.m": attr_sum("pairs.generate_pairs", "new_m"),
            "pairs.dedup.s": total("pairs.dedup"),
            "pairs.unique_frac": attr_sum("pairs.dedup", "unique") / dedup_m if dedup_m else 0.0,
            "core.betainc.calls": sum(1 for s in by_name["betainc"] if core_child(s)),
            "core.betainc.evals": core_evals,
            "core.betainc.s": total("betainc", core_child),
            "core.evals_per_pair": core_evals / pairs_scored if pairs_scored else 0.0,
            "core.pairs.diag": branch[0],
            "core.pairs.below": branch[1],
            "core.pairs.above": branch[2],
            "core.pitos_p_value.self_s": sum(self_s(s) for s in by_name["core.pitos_p_value"]),
            "rosenblatt.randomized_pit.s": total("rosenblatt.randomized_pit"),
            "cli.main.self_s": sum(self_s(s) for s in by_name["cli.main"]),
            "cli.read_values.s": total("cli.read_values"),
            "cli.bytes_out": counters["cli.bytes_out"],
            "classic.null_cache.hits": sum(1 for s in cache if s.attrs["hit"]),
            "classic.null_cache.misses": sum(1 for s in cache if not s.attrs["hit"]),
            "classic.null_build.s": sum(s.duration for s in cache if not s.attrs["hit"]),
            "classic.null_load.s": sum(s.duration for s in cache if s.attrs["hit"]),
            "classic.batch_statistics.s": total("classic.batch_statistics"),
            "classic.empirical_p_value.s": total("classic.empirical_p_value"),
            "classic.cache_bytes_written": sum(s.attrs["bytes"] for s in cache),
            "streams.stream.calls": sum(calls for calls, _ in self._tallies.values()),
            "streams.stream.s": sum(secs for _, secs in self._tallies.values()),
            "distributions.sample.s": sum(self_s(s) for s in by_name["harness.replicate_dataset"]),
            "harness.replicate_dataset.calls": len(by_name["harness.replicate_dataset"]),
            "harness.replicate_dataset.s": total("harness.replicate_dataset"),
            "harness.score_pitos.s": total("core.pitos_p_value", under_harness),
            "harness.score_classic.s": total("classic.batch_statistics", under_harness)
            + total("classic.empirical_p_value", under_harness),
            "harness.null_load.s": sum(s.duration for s in cache if s.attrs["hit"] and under_harness(s)),
            "harness.self_s": sum(self_s(s) for name in HARNESS_OPS for s in by_name[name]),
            "harness.parallel_frac": busy / capacity if capacity else 0.0,
        }
        lost = {name for module, attr, name in HOOKS if f"{module}.{attr}" in self.missing}
        for metric, sources in SOURCES.items():
            if lost.intersection(sources):
                out[metric] = -1
        return out
