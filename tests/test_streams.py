"""stream(): the argument checks, the default generator, the one owner of
every reproducibility key, and the path table's disjoint null rows."""

import re
from pathlib import Path

import numpy as np
import pytest

from pitos.cli import main
from pitos.harness import estimate_power, scenario_study
from pitos.streams import NULL_ROWS, stream

SRC = Path(__file__).resolve().parents[1] / "src" / "pitos"


def test_default_generator_is_pcg64():
    # every frozen digest of a simulated output was captured on PCG64 draws
    assert type(stream(0).bit_generator) is np.random.PCG64


# a bool is refused: True would key the streams of seed 1
@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, np.True_])
def test_bad_seed_is_named(seed):
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        stream(seed, 0)


@pytest.mark.parametrize("path", [(-1,), (0, 2.5), (3, True)])
def test_bad_path_is_named(path):
    with pytest.raises(ValueError, match="^stream path must be non-negative integers"):
        stream(0, *path)


def test_numpy_integers_are_accepted():
    assert (stream(np.uint64(9), np.int64(2), np.int32(4)).random(6).tobytes()
            == stream(9, 2, 4).random(6).tobytes())


def test_only_streams_builds_generators():
    # one owner of every reproducibility key: no other module seeds numpy or
    # spells out PCG64's multiplier (hex halves, halves or whole in decimal)
    needles = re.compile(
        r"SeedSequence|default_rng|2360ed051fc65da4|4385df649fccf645|2549297995355413924"
        r"|4865540595714422341|47026247687942121848144207491837523525", re.IGNORECASE)
    owners = {path.name for path in SRC.rglob("*.py") if needles.search(path.read_text())}
    assert owners == {"streams.py"}


def test_null_rows_share_no_path_with_other_draws(tmp_path, monkeypatch, capsys):
    # every generator comes from stream(), so recording the SeedSequences it
    # builds lists every path a run draws from; the empirical-null rows
    # (NULL_ROWS, n) must be the only two-word paths
    paths = []
    seed_sequence = np.random.SeedSequence

    def recorded(*, entropy, spawn_key):
        paths.append(tuple(spawn_key))
        return seed_sequence(entropy=entropy, spawn_key=spawn_key)

    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    kw = dict(null_b=20, cache_dir=tmp_path)
    estimate_power("gap(0.5,0.05)", ("pitos", "ks", "lrt"), 12, replicates=5, **kw)
    scenario_study("outliers", 2, 5, 12, tests=("pitos", "ad"), **kw)
    data = tmp_path / "data.txt"
    data.write_text("0.25\n0.5\n0.75\n")
    assert main(["test", "--input", str(data), "--null-cdf", "discrete-uniform-99"]) == 0
    capsys.readouterr()
    null_rows = {p for p in paths if p[0] == NULL_ROWS}
    assert null_rows == {(NULL_ROWS, 12)}
    assert {len(p) for p in paths if p[0] != NULL_ROWS} == {3}
