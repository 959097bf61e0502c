"""Core test behavior: hand-executed small cases, permutation invariance,
clamping and saturation, duplicate-pair upweighting, the correction
ordering, frozen output bits, the vectorized kernel against the scalar
conditional CDF, and null uniformity of the per-pair transform."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from pitos import core
from pitos.core import OrderedSample, conditional_os_cdf, pitos_p_value
from pitos.pairs import PairSequence, generate_pairs, pair_count, pair_shapes, random_pairs

from conftest import ecdf_sup_distance


class TestOrderedSample:
    def test_sorts_and_validates(self):
        s = OrderedSample([0.9, 0.1, 0.5])
        np.testing.assert_array_equal(s.order_statistics, [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(s.values, [0.9, 0.1, 0.5])
        assert s.n == 3

    def test_rejects_bad_values(self):
        for bad in ([0.5, float("nan")], [1.2], [-0.1, 0.3], []):
            with pytest.raises(ValueError):
                OrderedSample(bad)

    def test_keeps_ties(self):
        s = OrderedSample([0.5, 0.5, 0.5])
        assert s.n == 3
        np.testing.assert_array_equal(s.order_statistics, [0.5, 0.5, 0.5])

    def test_boundary_values_allowed(self):
        OrderedSample([0.0, 1.0])


class TestConditionalOsCdf:
    def test_uniform_branch_below(self):
        assert conditional_os_cdf(2, 1, 2, 0.2, 0.6) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_branch_above(self):
        assert conditional_os_cdf(2, 2, 1, 0.8, 0.2) == pytest.approx(0.25, abs=1e-12)

    def test_marginal_branch(self):
        assert conditional_os_cdf(5, 3, 3, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_boundary_conditioning_values(self):
        # conditioning pins the j-th order statistic: result is 1, not an error
        assert conditional_os_cdf(5, 2, 4, 1.0, 1.0) == 1.0
        assert conditional_os_cdf(5, 4, 2, 0.0, 0.0) == 1.0

    def test_index_validation(self):
        for i, j in [(0, 1), (1, 6), (-1, 2), (2.5, 2)]:
            with pytest.raises(ValueError):
                conditional_os_cdf(5, i, j, 0.5, 0.5)
        with pytest.raises(ValueError):
            conditional_os_cdf(5, 1, 2, 0.5, 1.5)

    def test_tied_values_hit_branch_boundary(self):
        # tied order statistics give ratio 0 below the diagonal branch
        assert conditional_os_cdf(10, 2, 5, 0.4, 0.4) == 0.0


class TestPitosPValue:
    def test_hand_executed_n1(self):
        verdict = pitos_p_value([0.25])
        assert verdict.statistic == pytest.approx(0.0, abs=1e-15)
        assert verdict.p_uncorrected == pytest.approx(0.5, abs=1e-15)
        assert verdict.p_value == pytest.approx(0.575, abs=1e-14)
        assert verdict.n == 1 and verdict.m == 1
        assert verdict.test_name == "PITOS"

    def test_saturation_when_every_pair_p_is_one(self):
        # data {0.5} with the marginal pair: u = 1/2 exactly, p_11 = 1
        verdict = pitos_p_value([0.5])
        assert verdict.statistic < -1e14
        assert verdict.p_uncorrected == pytest.approx(1.0, abs=1e-14)
        assert verdict.p_value == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        data = rng.random(64)
        base = pitos_p_value(data)
        for _ in range(3):
            shuffled = rng.permutation(data)
            again = pitos_p_value(shuffled)
            assert again.p_value == base.p_value
            assert again.statistic == base.statistic

    def test_duplicate_pairs_upweight_by_mean(self):
        data = np.random.default_rng(11).random(20)
        single = PairSequence(n=20, i=np.array([3]), j=np.array([15]))
        double = PairSequence(n=20, i=np.array([3, 3]), j=np.array([15, 15]))
        a = pitos_p_value(data, single)
        b = pitos_p_value(data, double)
        assert a.p_value == b.p_value  # mean of two equal terms is the term

    def test_dedup_is_bitwise_neutral(self, monkeypatch):
        # gathering the distinct pairs' terms and the block loop give the same
        # bits, on both sides of the 2^16-pair limit (n = 943 | 944)
        for n in (1, 2, 30, 100, 943, 944, 3000):
            data = np.random.default_rng(13 + n).random(n)
            pairs = generate_pairs(n)
            monkeypatch.setattr(core, "_DEDUP_LIMIT", 1 << 20)
            gathered = pitos_p_value(data, pairs)
            monkeypatch.setattr(core, "_DEDUP_LIMIT", 0)
            looped = pitos_p_value(data, pairs)
            assert gathered.statistic.hex() == looped.statistic.hex(), n
            assert gathered.p_value.hex() == looped.p_value.hex(), n

    def test_detail_and_bare_verdicts_share_bits(self):
        # detail always takes the block loop; below the limit a bare verdict gathers
        for n in (1, 30, 943, 944):
            data = np.random.default_rng(41 + n).random(n)
            bare, rich = pitos_p_value(data), pitos_p_value(data, detail=True)
            assert bare.statistic.hex() == rich.statistic.hex(), n
            assert bare.p_uncorrected.hex() == rich.p_uncorrected.hex(), n

    def test_dedup_only_below_the_limit_and_never_for_detail(self, monkeypatch):
        calls = []
        real = PairSequence.dedup

        def spy(seq):
            calls.append(seq.n)
            return real(seq)

        monkeypatch.setattr(PairSequence, "dedup", spy)
        for n, detail in ((944, False), (944, True), (30, True), (30, False)):
            seq = generate_pairs(n)
            fresh = PairSequence(n=n, i=seq.i, j=seq.j)  # a cold sequence, nothing cached
            pitos_p_value(np.random.default_rng(n).random(n), fresh, detail=detail)
        assert calls == [30]

    def test_dedup_limit_fits_one_block_and_ends_at_n_943(self):
        assert core._DEDUP_LIMIT <= core._BLOCK
        assert pair_count(943) <= core._DEDUP_LIMIT < pair_count(944)

    def test_block_pool_is_bitwise_neutral(self, monkeypatch):
        # many short blocks: the sum is the same left-to-right block sum
        # whether one thread or a pool evaluated the blocks
        data = np.random.default_rng(23).random(150)
        pairs = generate_pairs(150)
        monkeypatch.setattr(core, "_DEDUP_LIMIT", 0)
        monkeypatch.setattr(core, "_BLOCK", 997)
        u = np.empty(pairs.m)
        terms = core._pair_terms(np.sort(data), pairs.i, pairs.j, 150, np.empty(pairs.m), u)
        total = 0.0
        for lo in range(0, pairs.m, 997):
            total += float(terms[lo : lo + 997].sum())
        pools = []

        class RecordingPool(core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", RecordingPool)
        for cores in (1, 2, 5):
            monkeypatch.setattr(core, "_available_cores", lambda cores=cores: cores)
            v = pitos_p_value(data, pairs, detail=True)
            assert v.statistic.hex() == (total / pairs.m).hex()
            assert v.detail.u.tobytes() == u.tobytes()
            assert pitos_p_value(data, pairs).statistic.hex() == (total / pairs.m).hex()
        assert pools == [2, 2, 5, 5]

    def test_nested_thread_map_runs_inline(self, pool_sizes):
        inner = lambda x: core.thread_map(lambda y: (x, y), [1, 2, 3], 2)
        assert core.thread_map(inner, [0, 1], 2) == [[(x, y) for y in (1, 2, 3)] for x in (0, 1)]
        assert pool_sizes == [2]
        assert core.thread_map(inner, [0], 2) == [[(0, y) for y in (1, 2, 3)]]  # inline outer
        assert pool_sizes == [2, 2]

    def test_correction_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            v = pitos_p_value(rng.random(30))
            assert v.p_value >= v.p_uncorrected
            assert v.p_value <= 1.0
            if 1.15 * v.p_uncorrected <= 1.0:
                assert v.p_value == 1.15 * v.p_uncorrected

    def test_detail_opt_in(self):
        data = np.random.default_rng(19).random(25)
        bare = pitos_p_value(data)
        assert bare.detail is None
        rich = pitos_p_value(data, detail=True)
        det = rich.detail
        assert len(det.i) == len(det.j) == len(det.u) == len(det.p) == rich.m
        np.testing.assert_allclose(det.p, 2.0 * np.minimum(det.u, 1.0 - det.u))
        assert rich.p_value == bare.p_value

    def test_pair_sample_size_mismatch(self):
        with pytest.raises(ValueError):
            pitos_p_value(np.full(10, 0.5), generate_pairs(11))

    def test_ties_flow_through(self):
        # heavy ties (discrete data) must yield a tiny p-value, not an error
        data = np.repeat([0.2, 0.4, 0.6, 0.8], 25)
        verdict = pitos_p_value(data)
        assert 0.0 < verdict.p_value < 1e-6

    def test_out_of_range_data_rejected(self):
        with pytest.raises(ValueError):
            pitos_p_value([0.5, 1.5])

    def test_custom_warp_warns(self, caplog):
        # one warning when the sequence is built, none per verdict
        data = np.random.default_rng(23).random(40)
        generate_pairs.cache_clear()
        with caplog.at_level("WARNING"):
            pairs = generate_pairs(40, warp=(2.0, 2.0))
            pitos_p_value(data, pairs)
            pitos_p_value(data, pairs)
        warned = [r for r in caplog.records if "1.15 correction" in r.message]
        assert [r.name for r in warned] == ["pitos.pairs"]


class TestPairPlan:
    """The gather regime reads its shapes from the plan cached on the
    sequence; it must give the block loop's bits."""

    @staticmethod
    def _tied_boundary_data(n):
        # few distinct values, 0 and 1 among them: ties and pinned denominators
        rng = np.random.default_rng(7 + n)
        return rng.choice(np.concatenate(([0.0, 1.0], rng.random(n // 4 + 1))), n)

    def test_plan_matches_block_loop(self, monkeypatch):
        for n in list(range(1, 401)) + [943, 944, 3000]:
            pairs = generate_pairs(n)
            for data in (self._tied_boundary_data(n), np.random.default_rng(n).random(n)):
                monkeypatch.setattr(core, "_DEDUP_LIMIT", core._BLOCK)
                planned = pitos_p_value(data, pairs)
                monkeypatch.setattr(core, "_DEDUP_LIMIT", 0)
                looped = pitos_p_value(data, pairs)
                assert planned.statistic.hex() == looped.statistic.hex(), n
                assert planned.p_uncorrected.hex() == looped.p_uncorrected.hex(), n
            assert pairs._plan is not None, n

    def test_plan_is_built_once_from_dedup(self, monkeypatch):
        calls = []
        real = PairSequence.dedup

        def spy(seq):
            calls.append(seq.n)
            return real(seq)

        monkeypatch.setattr(PairSequence, "dedup", spy)
        seq = generate_pairs(50)
        fresh = PairSequence(n=50, i=seq.i, j=seq.j)
        for r in range(3):
            pitos_p_value(np.random.default_rng(r).random(50), fresh)
        assert calls == [50]
        shapes, inv = fresh.plan()
        ui, uj, dedup_inv = real(fresh)
        np.testing.assert_array_equal(inv, dedup_inv)
        want = pair_shapes(ui, uj, 50)
        for got, expected in zip(shapes, want):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(shapes.i0[inv] + 1, fresh.i)
        np.testing.assert_array_equal(shapes.j0[inv] + 1, fresh.j)

    def test_threads_racing_for_the_plan_build_it_once(self, monkeypatch):
        calls = []
        real = PairSequence.dedup

        def spy(seq):
            calls.append(seq.n)
            return real(seq)

        monkeypatch.setattr(PairSequence, "dedup", spy)
        seq = generate_pairs(900)
        data = np.random.default_rng(3).random(900)
        want = pitos_p_value(data, seq).statistic
        threads = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                calls.clear()
                fresh = PairSequence(n=900, i=seq.i, j=seq.j)
                start = threading.Barrier(threads)

                def score():
                    start.wait(timeout=60)
                    return pitos_p_value(data, fresh)

                with core.ThreadPoolExecutor(max_workers=threads) as pool:
                    got = [f.result(timeout=60) for f in [pool.submit(score) for _ in range(threads)]]
                assert calls == [900]
                assert all(v.statistic.hex() == want.hex() for v in got)
        finally:
            sys.setswitchinterval(interval)


def _frozen_data(n):
    return np.random.default_rng(1000 + n).random(n)


def _md5(*arrays):
    return hashlib.md5(b"".join(a.tobytes() for a in arrays)).hexdigest()


class TestFrozenBits:
    """Outputs frozen as float.hex / md5 from the three-branch kernel with
    separate dedup, detail and streaming paths; the single evaluation loop
    must reproduce them bit for bit."""

    # n: (statistic, p_value); n = 11300 has m > 2^20, two summation blocks
    VERDICTS = {
        1: ("-0x1.2b602f89cd08ep+0", "0x1.c8354d63a4f63p-1"),
        5: ("-0x1.565db477b1d80p-2", "0x1.62df71901f918p-1"),
        30: ("-0x1.a5a535b82d6bep+0", "0x1.e688536f3852cp-1"),
        100: ("0x1.3d089c0eaf6a5p+14", "0x1.2eaddefd82999p-16"),
        3000: ("-0x1.30685c4472332p+2", "0x1.0000000000000p+0"),
        11300: ("-0x1.3647e110adb42p-2", "0x1.5d8abe3bdf919p-1"),
    }

    @pytest.mark.parametrize("n", sorted(VERDICTS))
    def test_verdict_bits(self, n):
        v = pitos_p_value(_frozen_data(n))
        assert (v.statistic.hex(), v.p_value.hex()) == self.VERDICTS[n]

    def test_tied_boundary_data_bits(self):
        v = pitos_p_value(np.repeat([0.0, 0.2, 0.5, 1.0], 25))
        assert (v.statistic.hex(), v.p_value.hex()) == (
            "0x1.802b1f91a02d5p+47", "0x1.f0cccccccccccp-50"
        )

    def test_detail_bytes(self):
        det = pitos_p_value(_frozen_data(100), detail=True).detail
        assert _md5(det.u, det.p) == "bb48ac13df12a561e66b47c10e3fe4c4"

    @pytest.mark.parametrize("n, digest", [
        (40, "4b3be5368c70668582a381d6b8e874aa"),
        (11300, "f9f000d16ddcb28ec700f3800b95d78a"),  # k > 2^20 crosses a block
    ])
    def test_random_pairs_bytes(self, n, digest):
        seq = random_pairs(n, 3)
        assert _md5(seq.i, seq.j) == digest


def _kernel_vs_scalar(x, i, j):
    """The kernel's u against conditional_os_cdf, and its terms against the
    fold and Cauchy quantile written out on that u, exactly."""
    sorted_x = np.sort(x)
    n = len(sorted_x)
    u = np.empty(len(i))
    terms = core._pair_terms(sorted_x, i, j, n, np.empty(len(i)), u)
    want = np.array([
        conditional_os_cdf(n, a, b, sorted_x[a - 1], sorted_x[b - 1])
        for a, b in zip(i.tolist(), j.tolist())
    ])
    np.testing.assert_array_equal(u, want)
    p = 2.0 * np.minimum(want, 1.0 - want)
    want_terms = np.tan(np.pi * (np.clip(1.0 - p, core.CLAMP_EPS, 1.0 - core.CLAMP_EPS) - 0.5))
    np.testing.assert_array_equal(terms, want_terms)
    # without a u buffer the kernel gives the same terms
    bare = core._pair_terms(sorted_x, i, j, n, np.empty(len(i)))
    assert bare.tobytes() == terms.tobytes()
    return u


class TestKernelMatchesScalar:
    """The vectorized pair kernel against the scalar conditional_os_cdf, exactly."""

    SAMPLERS = {
        "uniform": lambda rng, n: rng.random(n),
        "lattice": lambda rng, n: rng.choice([0.0, 0.2, 0.5, 1.0], n),
        "tied": lambda rng, n: rng.choice(rng.random(n // 4 + 1), n),
        "beta-edges": lambda rng, n: rng.beta(0.05, 0.05, n),
    }

    @pytest.mark.parametrize("kind", sorted(SAMPLERS))
    def test_random_pairs_of_indices(self, kind):
        rng = np.random.default_rng(31)
        for n in [1, 2, 3, 7] + rng.integers(4, 400, 12).tolist():
            x = self.SAMPLERS[kind](rng, n)
            i = rng.integers(1, n + 1, 300)
            j = rng.integers(1, n + 1, 300)
            diag = np.arange(1, n + 1)
            _kernel_vs_scalar(x, np.concatenate([i, diag]), np.concatenate([j, diag]))

    def test_boundary_conditioning_values(self):
        # x_(i) = 1 with i < j and x_(i) = 0 with i > j pin u to 1
        x = np.array([0.0, 0.0, 0.3, 0.3, 1.0, 1.0])
        grid = np.arange(1, 7)
        i, j = np.meshgrid(grid, grid, indexing="ij")
        _kernel_vs_scalar(x, i.ravel(), j.ravel())
        got = _kernel_vs_scalar(x, np.array([5, 2]), np.array([6, 1]))
        np.testing.assert_array_equal(got, [1.0, 1.0])

    def test_kernel_sub_blocks_do_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(37)
        x = np.sort(rng.random(500))
        i = rng.integers(1, 501, 5000)
        j = rng.integers(1, 501, 5000)
        whole_u, chunked_u = np.empty(5000), np.empty(5000)
        whole = core._pair_terms(x, i, j, 500, np.empty(5000), whole_u)
        monkeypatch.setattr(core, "PASS_SIZE", 77)
        chunked = core._pair_terms(x, i, j, 500, np.empty(5000), chunked_u)
        assert whole_u.tobytes() == chunked_u.tobytes()
        assert whole.tobytes() == chunked.tobytes()


class TestNullUniformityOfPairTransform:
    def test_single_pair_ecdf_close_to_identity(self):
        # DKW at 10,000 replicates: sup distance above 0.02 has probability ~7e-4
        rng = np.random.default_rng(29)
        n, reps = 50, 10_000
        i, j = 10, 35
        u = np.empty(reps)
        for r in range(reps):
            xs = np.sort(rng.random(n))
            u[r] = conditional_os_cdf(n, i, j, xs[i - 1], xs[j - 1])
        assert ecdf_sup_distance(u) <= 0.02
