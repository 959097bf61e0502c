"""Deterministic RNG stream derivation shared by the simulation code.

Every stream is `default_rng(SeedSequence(entropy=seed, spawn_key=path))`
for a short integer path, so work items can run in any order or any degree
of parallelism and still see identical randomness:

  (scenario_code, distribution_index, 0)   parameter draws
  (scenario_code, distribution_index, 1)   datasets of a job's replicates
  (NULL_ROWS, n)                           empirical-null rows at size n
  (0, 0, 0)                                discrete-PIT draw of `pitos test`

scenario_code 0 means a directly specified distribution (no scenario).  A
harness job, one distribution at one sample size, draws replicate r as the
(r+1)-th dist.sample(n, rng) call on its one stream (scenario_code,
distribution_index, 1); the paths (scenario_code, distribution_index, 1 + r)
for r >= 1 are unused.  `pitos sample` writes replicate 0's dataset, the
first draw from (0, 0, 1).  Replicate r of an empirical null at size n is
values r*n ... (r+1)*n - 1 of its one stream, which every test's null at
that seed and n shares.  No other path has two words, so the null rows
share no stream with the others.
"""

import operator

import numpy as np

__all__ = ["NULL_ROWS", "stream"]

# first path word of the empirical-null rows; not the empty path, since
# stream(seed) is default_rng(seed)
NULL_ROWS = 0x4E554C4C  # ASCII "NULL"


def _index(value):
    """value as a Python int if it is a non-negative integer, else None.  A
    bool is refused: True would otherwise stand for 1."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        value = operator.index(value)
    except TypeError:
        return None
    return value if value >= 0 else None


def _check_key(seed, path):
    """(seed, path) as Python ints; a ValueError names the bad argument."""
    key = [_index(v) for v in (seed, *path)]
    if key[0] is None:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if None in key:
        raise ValueError(f"stream path must be non-negative integers, got {path!r}")
    return key[0], tuple(key[1:])


def stream(seed, *path):
    seed, path = _check_key(seed, path)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))
