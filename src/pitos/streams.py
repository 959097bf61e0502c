"""Deterministic RNG stream derivation shared by the simulation code.

Every stream is `default_rng(SeedSequence(entropy=seed, spawn_key=path))`
for a short integer path, so work items can run in any order or any degree
of parallelism and still see identical randomness:

  (scenario_code, distribution_index, 0)       parameter draws
  (scenario_code, distribution_index, 1 + r)   dataset of replicate r
  (r,)                                         empirical-null replicate r
  (0xA17,)                                     random-pair source (random_pairs)
  (0, 0, 0)                                    discrete-PIT draw of `pitos test`

scenario_code 0 means a directly specified distribution (no scenario).
`pitos sample` writes replicate 0's dataset, (0, 0, 1).  The random-pair
path is also null replicate 2583's path, so under one seed the two share
their uniforms.
"""

import numpy as np

__all__ = ["stream"]


def stream(seed, *path):
    if any(int(p) != p or p < 0 for p in path):
        raise ValueError(f"stream path must be non-negative integers, got {path!r}")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    )
