"""uniform_rows against stream(), bitwise, and the argument checks they share."""

import re
from pathlib import Path

import numpy as np
import pytest

from pitos.streams import stream, uniform_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "pitos"


def _reference(seed, prefix, first, count, n):
    return np.array([stream(seed, *prefix, first + k).random(n) for k in range(count)])


def test_default_generator_is_pcg64():
    # uniform_rows reimplements PCG64; another default generator must fail here
    assert type(stream(0).bit_generator) is np.random.PCG64


# 5 seeds x 2 prefixes x 10,000 keys = 1e5 (seed, key) pairs
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**128 + 12345],
                         ids=["0", "2^32-1", "2^32", "2^64", "2^128+12345"])
@pytest.mark.parametrize("prefix", [(), (0, 0)], ids=["key1", "key3"])
def test_rows_match_streams_bitwise(seed, prefix):
    # key (r,) is an empirical-null replicate, (0, 0, 1 + r) a uniform dataset
    first = 0 if prefix == () else 1
    got = uniform_rows(seed, prefix, first, 10_000, 5)
    assert got.shape == (10_000, 5) and got.flags.c_contiguous
    assert got.tobytes() == _reference(seed, prefix, first, 10_000, 5).tobytes()


@pytest.mark.parametrize("prefix", [(), (7,), (2**40, 3, 0)])
def test_block_starting_past_zero(prefix):
    for first, count in ((2583, 40), (2**32 - 40, 40)):
        got = uniform_rows(20260808, prefix, first, count, 37)
        assert got.tobytes() == _reference(20260808, prefix, first, count, 37).tobytes()


def test_keys_of_two_words_are_refused():
    uniform_rows(0, (), 2**32 - 1, 1, 2)  # the last one-word key
    with pytest.raises(ValueError, match=r"keys below 2\*\*32"):
        uniform_rows(0, (), 2**32 - 1, 2, 2)
    with pytest.raises(ValueError, match=r"keys below 2\*\*32"):
        uniform_rows(0, (), 0, 2**32 + 1, 2)


# a bool is refused: True would key the streams of seed 1
@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, np.True_])
def test_bad_seed_is_named(seed):
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        stream(seed, 0)
    with pytest.raises(ValueError, match=message):
        uniform_rows(seed, (), 0, 1, 1)


@pytest.mark.parametrize("path", [(-1,), (0, 2.5), (3, True)])
def test_bad_path_is_named(path):
    with pytest.raises(ValueError, match="^stream path must be non-negative integers"):
        stream(0, *path)
    with pytest.raises(ValueError, match="^stream path must be non-negative integers"):
        uniform_rows(0, path[:-1], path[-1], 1, 1)


def test_numpy_integers_are_accepted():
    assert (uniform_rows(np.uint64(9), (np.int64(2),), np.int32(4), 3, 6).tobytes()
            == _reference(9, (2,), 4, 3, 6).tobytes())


def test_only_streams_builds_generators():
    # one owner of every reproducibility key: no other module seeds numpy or
    # spells out PCG64's multiplier (hex halves, halves or whole in decimal)
    needles = re.compile(
        r"SeedSequence|default_rng|2360ed051fc65da4|4385df649fccf645|2549297995355413924"
        r"|4865540595714422341|47026247687942121848144207491837523525", re.IGNORECASE)
    owners = {path.name for path in SRC.rglob("*.py") if needles.search(path.read_text())}
    assert owners == {"streams.py"}
