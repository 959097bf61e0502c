"""Halton values and the pair sequence: hand-computed radical inverses,
length arithmetic, diagonal suffix, determinism, the oracle-composed first
pair, boundary-heavy coverage, the frozen golden file, and the edge-lookup
index map and table-driven radical inverse against the direct paths."""

import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pitos import pairs as pairs_mod
from pitos.pairs import DEFAULT_WARP, PairSequence, generate_pairs, halton, pair_count, random_pairs
from pitos.special import beta_inv_cdf

from conftest import beta_inv_cdf_bisection, radical_inverse_fraction

GOLDEN = Path(__file__).parent / "data" / "pairs_n5_golden.csv"


class TestHalton:
    def test_hand_values(self):
        assert halton(1, 2) == 0.5
        assert halton(3, 2) == 0.75
        assert halton(2, 3) == 2.0 / 3.0

    @pytest.mark.parametrize("base", [2, 3])
    def test_first_ten_match_exact_fractions(self, base):
        # exact float equality: both sides are the correctly rounded double
        # of the same rational number
        for index in range(1, 11):
            assert halton(index, base) == float(radical_inverse_fraction(index, base))

    def test_all_values_in_open_unit_interval(self):
        vals = [halton(k, b) for b in (2, 3, 5) for k in range(1, 200)]
        assert all(0.0 < v < 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            halton(0, 2)
        with pytest.raises(ValueError):
            halton(1, 1)
        with pytest.raises(ValueError):
            halton(-3, 2)


class TestPairSequence:
    def test_length_arithmetic(self):
        assert pair_count(1) == 1
        assert pair_count(25) == 830  # ceil(250 ln 25) + 25 = 805 + 25
        seq = generate_pairs(25)
        assert seq.m == 830

    def test_n1_is_single_diagonal(self):
        seq = generate_pairs(1)
        assert list(seq) == [(1, 1)]

    def test_diagonal_suffix(self):
        for n in (1, 7, 40):
            seq = generate_pairs(n)
            diag = np.arange(1, n + 1)
            np.testing.assert_array_equal(seq.i[-n:], diag)
            np.testing.assert_array_equal(seq.j[-n:], diag)

    def test_indices_in_range(self):
        for n in (2, 13, 100):
            seq = generate_pairs(n)
            assert seq.i.min() >= 1 and seq.i.max() <= n
            assert seq.j.min() >= 1 and seq.j.max() <= n

    def test_deterministic(self):
        a = generate_pairs(60)
        generate_pairs.cache_clear()
        b = generate_pairs(60)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)

    def test_first_pair_for_n100_matches_oracle_composition(self):
        # halton(1,2) = 1/2 and halton(1,3) = 1/3 by hand; warp inverses from
        # the bisection-on-quadrature oracle
        seq = generate_pairs(100)
        i1 = math.ceil(100 * beta_inv_cdf_bisection(0.5, 0.7, 0.7))
        j1 = math.ceil(100 * beta_inv_cdf_bisection(1.0 / 3.0, 0.7, 0.7))
        assert (seq.i[0], seq.j[0]) == (i1, j1) == (50, 30)

    @pytest.mark.parametrize("n", [25, 50, 100, 200])
    def test_boundary_heavy_coverage(self, n):
        # warped pairs concentrate near the square's edges: strictly more
        # indices within n/10 of either end than a uniform draw expects
        seq = generate_pairs(n)
        k = seq.m - n  # warped points only; the diagonal suffix is excluded
        cutoff = n / 10.0
        qualifying = sum(1 for idx in range(1, n + 1) if min(idx, n - idx + 1) <= cutoff)
        expected_uniform = k * qualifying / n
        for coords in (seq.i[:k], seq.j[:k]):
            near_edge = np.minimum(coords, n - coords + 1) <= cutoff
            assert near_edge.sum() > expected_uniform

    def test_golden_file(self):
        seq = generate_pairs(5)
        lines = ["k,i,j"] + [f"{k},{i},{j}" for k, (i, j) in enumerate(seq, start=1)]
        assert "\n".join(lines) + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_custom_warp_changes_sequence(self):
        default = generate_pairs(50)
        warped = generate_pairs(50, warp=(2.0, 2.0))
        assert warped.warp != DEFAULT_WARP
        assert not np.array_equal(default.i, warped.i)

    def test_memo_keeps_the_two_latest_sequences(self):
        info = pairs_mod._generate_pairs_beta.cache_info
        generate_pairs.cache_clear()
        first = generate_pairs(100)
        generate_pairs(30)
        assert generate_pairs(100) is first  # two alternating sizes both stay
        generate_pairs(40)
        generate_pairs(41)
        assert info().currsize == 2 and info().hits == 1
        assert generate_pairs(100) is not first

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_pairs(0)
        with pytest.raises(ValueError):
            PairSequence(n=5, i=np.array([0]), j=np.array([1]))
        with pytest.raises(ValueError):
            PairSequence(n=5, i=np.array([1, 2]), j=np.array([1]))

    def test_dedup_roundtrip(self):
        seq = generate_pairs(30)
        ui, uj, inv = seq.dedup()
        np.testing.assert_array_equal(ui[inv], seq.i)
        np.testing.assert_array_equal(uj[inv], seq.j)
        assert len(ui) < seq.m  # small n has many repeats


class TestRandomPairSource:
    def test_shape_matches_default_construction(self):
        seq = random_pairs(40, seed=3)
        assert seq.m == pair_count(40)
        assert seq.warp != DEFAULT_WARP
        diag = np.arange(1, 41)
        np.testing.assert_array_equal(seq.i[-40:], diag)
        np.testing.assert_array_equal(seq.j[-40:], diag)
        assert seq.i.min() >= 1 and seq.i.max() <= 40

    def test_seeded_and_distinct_from_default(self):
        a = random_pairs(40, seed=3)
        b = random_pairs(40, seed=3)
        c = random_pairs(40, seed=4)
        np.testing.assert_array_equal(a.i, b.i)
        assert not np.array_equal(a.i, c.i)
        assert not np.array_equal(a.i, generate_pairs(40).i)


def _halton_column(k, base):
    """Points 1..k of the base-`base` Halton sequence, one digit per pass."""
    ndigits = pairs_mod._digit_count(k, base)
    idx = np.arange(1, k + 1, dtype=np.int64)
    num = np.zeros(k, dtype=np.int64)
    for _ in range(ndigits):
        num = num * base + idx % base
        idx //= base
    return num / float(base**ndigits)


def _inverse_warp(u, a=0.7, b=0.7):
    """The direct map's warp x = F^-1(u), in blocks to bound memory, on two
    threads (elementwise, so the blocking changes no value)."""
    block = 1 << 20
    with ThreadPoolExecutor(max_workers=2) as pool:
        parts = pool.map(lambda lo: beta_inv_cdf(u[lo : lo + block], a, b), range(0, len(u), block))
        return np.concatenate([np.empty(0), *parts])


def _direct_indices(x, n):
    """The direct discretization max(1, ceil(n x)) of warped points x."""
    return np.maximum(np.ceil(x * n), 1).astype(np.int64)


class TestIndexMapMatchesInverse:
    """The edge-lookup index map against ceil(n * beta_inv_cdf(u)), exactly.

    Point t of a Halton column is the same double for every n, so the warp
    is computed once over the longest prefix and each n reads its own.
    """

    @staticmethod
    def _check(n, warped):
        seq = generate_pairs(n)
        k = seq.m - n
        diag = np.arange(1, n + 1)
        for got, x in zip((seq.i, seq.j), warped):
            np.testing.assert_array_equal(got, np.concatenate([_direct_indices(x[:k], n), diag]))

    def test_every_n_up_to_2000(self):
        k = pair_count(2000) - 2000
        warped = [_inverse_warp(_halton_column(k, base)) for base in (2, 3)]
        for n in range(1, 2001):
            self._check(n, warped)
            generate_pairs.cache_clear()

    @pytest.mark.slow
    def test_large_n(self):
        k = pair_count(10**5) - 10**5
        for column, base in enumerate((2, 3)):
            x = _inverse_warp(_halton_column(k, base))
            for n in (10**4, 10**5):
                seq = generate_pairs(n)
                got = (seq.i, seq.j)[column][: seq.m - n]
                np.testing.assert_array_equal(got, _direct_indices(x[: seq.m - n], n))
            del x
        generate_pairs.cache_clear()

    @pytest.mark.parametrize(
        "n, seed", [(1, 5), (2, 0), (37, 3), (1000, 11), (11300, 3), (20000, 8)]
    )
    def test_random_pairs(self, n, seed):
        seq = random_pairs(n, seed)
        k = seq.m - n
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA17,)))
        for got in (seq.i, seq.j):  # column i draws all its uniforms first
            np.testing.assert_array_equal(got[:k], _direct_indices(_inverse_warp(rng.random(k)), n))

    def test_near_edge_points_take_the_inverse_path(self, monkeypatch):
        # u = 1/2 is the first Halton point and sits on the middle edge of
        # the symmetric warp for even n; rounding decides its side
        calls = []

        def spy(u, a, b):
            calls.append(np.array(u))
            return beta_inv_cdf(u, a, b)

        monkeypatch.setattr(pairs_mod, "beta_inv_cdf", spy)
        generate_pairs.cache_clear()
        seq = generate_pairs(100)
        generate_pairs.cache_clear()
        assert any(0.5 in c for c in calls)
        assert sum(c.size for c in calls) < 10  # a handful of points, not the sequence
        assert seq.i[0] == math.ceil(100 * beta_inv_cdf(0.5, 0.7, 0.7))

    def test_custom_beta_shapes(self):
        # edges crowd into the first and last guide buckets when F is flat there
        for warp in ((2.0, 2.0), (5.0, 0.5)):
            seq = generate_pairs(300, warp=warp)
            k = seq.m - 300
            for column, base in enumerate((2, 3)):
                x = _inverse_warp(_halton_column(k, base), *warp)
                np.testing.assert_array_equal((seq.i, seq.j)[column][:k], _direct_indices(x, 300))


class TestTableDrivenRadicalInverse:
    """Chunked digit reversal against the scalar halton()."""

    @pytest.mark.parametrize("base", [2, 3])
    def test_digit_counts_and_chunk_remainders(self, base):
        # each range straddles the first index with `ndigits` digits, so its
        # shorter indices carry trailing zero digits; digit counts up to 30
        # (base 2) and 19 (base 3) cover each remainder chunk of the table
        count = 500
        for ndigits in range(1, 31 if base == 2 else 20):
            first = max(1, base ** (ndigits - 1) - count // 2)
            out = np.empty(count)
            pairs_mod._radical_inverse_fill(out, first, base)
            assert out.tolist() == [halton(t, base) for t in range(first, first + count)]

    def test_block_boundaries_and_short_last_block(self):
        block = pairs_mod.PASS_SIZE
        k = block + 777
        fill = pairs_mod._halton_points
        for column, base in enumerate((2, 3)):
            head = np.empty(block)
            fill(head, column, 0)
            tail = np.empty(k - block)
            fill(tail, column, block)
            for lo, got in ((0, head), (block, tail)):
                for t in list(range(8)) + list(range(len(got) - 8, len(got))):
                    assert got[t] == halton(lo + t + 1, base)
            assert tail.tolist() == [halton(t, base) for t in range(block + 1, k + 1)]
