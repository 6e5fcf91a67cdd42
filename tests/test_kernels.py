"""The full-residue kernels against scalar references, value for value."""

import concurrent.futures
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import concurrency, equidist, expsums
from mrwitness._scan import _POW_BLOCK, _roots, liar_codes, pow_all_numpy, pow_elementwise
from mrwitness.arith import is_prime
from mrwitness.witness import WitnessClass, _minus_one_stage, classify, classify_all, mr_decompose


def _odd_part(m: int) -> int:
    return m >> ((m & -m).bit_length() - 1) if m else 0


@st.composite
def _modulus_and_exponent(draw):
    n = draw(st.integers(min_value=1, max_value=70_000))  # 1 to 5 blocks
    e = draw(st.one_of(st.sampled_from([0, 1, 2, _odd_part(n - 1)]),
                       st.integers(min_value=0, max_value=2**31 - 1)))
    return n, e


class TestPowAll:
    @given(_modulus_and_exponent())
    @settings(max_examples=60, deadline=None)
    @example((1, 0))
    @example((1, 5))
    @example((_POW_BLOCK - 1, _POW_BLOCK - 1))
    @example((_POW_BLOCK, 3))
    @example((_POW_BLOCK + 1, _POW_BLOCK))
    @example((3 * _POW_BLOCK + 7, 2**31 - 1))
    def test_matches_builtin_pow(self, case):
        n, e = case
        got = pow_all_numpy(n, e)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == [pow(w, e, n) for w in range(n)]


class TestPowElementwise:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**62),
                              st.integers(min_value=0, max_value=2**62),
                              st.integers(min_value=1, max_value=2**31 - 1)), max_size=40))
    @settings(max_examples=60, deadline=None)
    @example([])
    @example([(0, 0, 1), (5, 0, 7), (0, 0, 7), (2**31 - 2, 2**62, 2**31 - 1), (7, 3, 7)])
    def test_matches_builtin_pow(self, rows):
        base, exponent, modulus = (np.array(col, np.int64).reshape(-1) for col in zip(*rows)) if rows else ([],) * 3
        got = pow_elementwise(base, exponent, modulus)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(b, e, n) for b, e, n in rows]

    def test_scalars_broadcast_across_blocks(self):
        """A scalar base against per-element exponents and moduli that span
        three blocks, the shape `least_witnesses` calls it with."""
        rng = np.random.default_rng(3)
        n = rng.integers(1, 2**31, 2 * _POW_BLOCK + 5) | 1
        e = rng.integers(0, 2**31, len(n))
        got = pow_elementwise(3, e, n)
        assert got.tolist() == [pow(3, int(a), int(m)) for a, m in zip(e, n)]


def test_liar_codes_peak_at_two_scratch_arrays():
    """Reading the pow route's codes at 2074757 holds powd, one squared
    scratch copy and its quotient (24 B per residue) beside the codes and
    stages: below 30 B per residue, where fresh temporaries per squaring
    took 34 B."""
    n = 2074757
    scan = classify_all(n)
    tracemalloc.start()
    try:
        scan.codes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * n


GOLDEN_MODULI = (200005, 1056331, 2074757)  # the weyl and sums goldens


def _witness_list(scan):
    """The oracle: the witnesses read off the n-byte non-witness mask,
    apart from the block builder of `ResidueScan.witness_block`."""
    return np.flatnonzero(~scan.mask)


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def _mixed_ks(n):
    """A repeat (reduced afresh), a negative k, the carry from n - 1 to 0
    (at k = 0 and at k = n) and on to n + 1, and the largest supported k:
    both branches of the index update."""
    return [3, 3, 7, -1, 0, n - 1, n, n + 1, 10**6]


def _full_sum(ws, k, n):
    """numpy's full-array sum of e(k*w/n) over ws, from `_roots` of the
    whole index array: the oracle of `_phase_sums`, bit for bit."""
    return complex(_roots(((k * ws) % n).astype(np.complex128), n).sum())


def _check_bits(ws, n, ks, few=None):
    """`_phase_sums` against `_full_sum`, bit for bit; with few given, also
    whether the call took the few-term leaf, which reads no root table."""
    want = [_full_sum(ws, k, n) for k in ks]
    calls = expsums._root_table.cache_info()
    got = expsums._phase_sums(ws, ks, n)
    if few is not None:
        assert (expsums._root_table.cache_info() == calls) == few, (n, len(ws), ks)
    assert _bits(got) == _bits(want), (n, len(ws), ks)


class TestPhaseSums:
    def test_small_moduli_match_oracle_bitwise(self):
        # ks 1..2n covers the wrap from n - 1 to 0 and k = n, 2n (index 0
        # everywhere) below 256; above that, 16 frequencies keep the pass
        # to about a second.  The sorted liar sets take either leaf.
        leaves = set()
        for n in range(9, 2001, 2):
            if is_prime(n):
                continue
            scan = classify_all(n)
            ws = _witness_list(scan)
            _check_bits(ws, n, range(1, 2 * n + 1) if n < 256 else range(1, 17))
            ks = _mixed_ks(n)
            _check_bits(ws, n, ks)
            for liars in map(np.sort, scan.liars):
                few = len(liars) * len(ks) <= n
                _check_bits(liars, n, ks, few)
                leaves.add(few)
        assert leaves == {False, True}

    def test_root_table_is_the_full_expression_bitwise(self):
        """Built in place from a complex ramp, the table keeps the bits of
        the one-line build from an int64 ramp: at every odd n < 3000, small
        even n, and the CLI golden moduli up to _LEAF, past which no table
        is built."""
        ns = [*range(1, 3000, 2), *range(2, 300, 2), 2411, 20007, 1024, 6561, expsums._LEAF]
        for n in ns:
            want = np.exp(2j * np.pi * np.arange(n) / n)
            assert expsums._root_table.__wrapped__(n).tobytes() == want.tobytes(), n

    def test_empty_residues(self, monkeypatch):
        """No root table is built for an empty set, directly or through
        an empty solution set of the cancellation sum, nor for the few
        liars of 2074757 (sets of 1, 1 and 4), whose sums at k = 1..10
        match `_full_sum` bit for bit."""

        def fail(n):
            raise AssertionError("root table built")

        n = 2074757
        liars = [np.sort(x) for x in classify_all(n).liars]
        assert [len(x) for x in liars] == [1, 1, 4]
        want = [_bits(_full_sum(ws, k, n) for k in range(1, 11)) for ws in liars]
        monkeypatch.setattr(expsums, "_root_table", fail)
        assert [_bits(expsums._phase_sums(ws, range(1, 11), n)) for ws in liars] == want
        assert expsums._phase_sums(np.array([], np.int64), [1, 2, 3], 15) == [0j, 0j, 0j]
        c = expsums.cancellation_sum(7, 2, 3, 1)  # 3 is not a square mod 7
        assert c.solution_count == 0 and c.total.value == 0j


class TestPhaseSumsOracle:
    """The block kernel against the full-array oracle: counts on both
    sides of one and two blocks, and witness sets of many blocks."""

    @staticmethod
    def _check(ws, n):
        for ks in (range(1, 11), _mixed_ks(n)):
            _check_bits(ws, n, ks)

    def test_block_boundaries(self):
        n = 1_000_003
        rng = np.random.default_rng(13)
        leaf = expsums._LEAF
        for count in [leaf - 1, leaf, leaf + 1] + [2 * leaf + r for r in range(8)]:
            self._check(np.sort(rng.choice(n, count, replace=False)), n)

    def test_witness_sets(self):
        for n in GOLDEN_MODULI:
            self._check(_witness_list(classify_all(n)), n)


def _blocks(count):
    """The rank ranges [lo, hi) of the leaves of the pairwise tree of count."""
    return expsums._pairwise(0, count, lambda lo, hi: [(lo, hi)])


class TestWitnessBlocks:
    """`ResidueScan.witness_block` against the mask oracle, and the phase
    sums over the blocks against the sums over the oracle's list."""

    @staticmethod
    def _check_blocks(scan, blocks):
        want = _witness_list(scan)
        assert len(want) == scan.counts.witness
        for lo, hi in blocks:
            got = scan.witness_block(lo, hi)
            assert got.dtype == np.int64 and np.array_equal(got, want[lo:hi]), (scan.n, lo, hi)

    def test_small_blocks_at_every_odd_composite(self, monkeypatch):
        """Leaves of 64 ranks, and the first and last single ranks, at
        every odd composite n <= 10**4, sparse and dense routes alike."""
        monkeypatch.setattr(expsums, "_LEAF", 64)
        for n in range(9, 10**4 + 1, 2):
            if is_prime(n):
                continue
            scan = classify_all(n)
            count = scan.counts.witness
            self._check_blocks(scan, _blocks(count) + [(0, 1), (count - 1, count)])

    def test_blocks_at_the_golden_moduli(self):
        for n in GOLDEN_MODULI:
            scan = classify_all(n)
            self._check_blocks(scan, _blocks(scan.counts.witness))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sums_over_blocks_match_the_list_bitwise(self, workers, monkeypatch):
        monkeypatch.setattr(concurrency, "thread_count", lambda: workers)
        for n in GOLDEN_MODULI:
            scan = classify_all(n)
            ks = _mixed_ks(n)
            got = expsums._phase_sums(scan.witness_block, ks, n, scan.counts.witness)
            assert _bits(got) == _bits(expsums._phase_sums(_witness_list(scan), ks, n)), n

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_small_leaves_match_the_list_bitwise(self, workers, monkeypatch):
        """Many leaves at small n: the tree of 64-rank blocks gives the
        bits of numpy's full-array sum."""
        monkeypatch.setattr(concurrency, "thread_count", lambda: workers)
        monkeypatch.setattr(expsums, "_LEAF", 64)
        for n in (561, 3825, 9999, 10001):
            scan = classify_all(n)
            ks = [1, 2, 3, 7, n - 1]
            got = expsums._phase_sums(scan.witness_block, ks, n, scan.counts.witness)
            want = [_full_sum(_witness_list(scan), k, n) for k in ks]
            assert _bits(got) == _bits(want), n

    def test_weyl_holds_no_witness_list(self, monkeypatch):
        """`weyl_battery` at 2074757 on two workers peaks below 6 MiB: 8 B
        per witness would be 15.8 MiB."""
        monkeypatch.setattr(concurrency, "thread_count", lambda: 2)
        n = 2074757
        tracemalloc.start()
        try:
            rows = equidist.weyl_battery(n, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 10
        assert peak < 6 * 2**20

    def test_sums_past_leaf_build_no_root_table(self, monkeypatch):
        """Past _LEAF a sum of more terms than n takes its own exps, so ten
        ks over the 2,071,674 witnesses of 2074757 peak below 4 MiB, and
        `weyl_battery` at 1056331, ten ks over 263,538 liars, below 6 MiB
        with the liars built: an e(m/n) table of every residue alone would
        be 33 MB and 16.9 MB."""
        monkeypatch.setattr(concurrency, "thread_count", lambda: 2)
        n = 2074757
        scan = classify_all(n)
        scan.witness_block(0, 1)  # the sorted non-witnesses, read by every block
        for call, limit in ((lambda: expsums._phase_sums(scan.witness_block, range(1, 11), n, scan.counts.witness), 4),
                            (lambda: equidist.weyl_battery(1056331, 10), 6)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit * 2**20


class TestBlockWorkers:
    """`concurrency.ordered_map` and the blocks of the pairwise tree it
    runs, on up to three workers: the same results in the same order, the
    same first error, and no pool outside the main thread."""

    @staticmethod
    def _workers(monkeypatch, count):
        monkeypatch.setattr(concurrency, "thread_count", lambda: count)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bitwise_for_any_worker_count(self, workers, monkeypatch):
        """Sets of one to four blocks take the few-term leaf past _LEAF: at
        100003, where 9 ks over them are more terms than n, and at 3200003,
        where blocks of about _LEAF / 2 (2 * _LEAF + 1 terms) take two ks
        per chunk.  At 32749 <= _LEAF, sets of more terms than n over the
        9 ks gather from the table in one block."""
        self._workers(monkeypatch, workers)
        rng = np.random.default_rng(17)
        leaf = expsums._LEAF
        for n in (100_003, 3_200_003):
            for count in (leaf, leaf + 1, 2 * leaf + 1, 3 * leaf + 5):
                _check_bits(np.sort(rng.choice(n, count, replace=False)), n, _mixed_ks(n), few=True)
        n = 32_749
        for count in (3_640, leaf // 2, n):
            ks = _mixed_ks(n)
            assert count * len(ks) > n and n <= leaf
            _check_bits(np.sort(rng.choice(n, count, replace=False)), n, ks, few=False)

    def test_many_ks_chunk_the_few_term_leaf(self, monkeypatch):
        """1000 ks over 3200 terms at 3200003 take the few-term leaf in
        chunks of 10 ks: no `_roots` call sees more than _LEAF terms, and
        the sums are the table's bits."""
        n = 3_200_003
        ws = np.sort(np.random.default_rng(19).choice(n, 3200, replace=False))
        ks = range(1, 1001)
        want = [_full_sum(ws, k, n) for k in ks]
        sizes = []
        original = expsums._roots

        def roots(z, n):
            sizes.append(z.size)
            return original(z, n)

        monkeypatch.setattr(expsums, "_roots", roots)
        assert _bits(expsums._phase_sums(ws, ks, n)) == _bits(want)
        assert sizes == [32000] * 100

    def test_other_threads_run_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        self._workers(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        n = 1_000_003
        ws = np.arange(1, 2 * expsums._LEAF + 2)
        with pytest.raises(AssertionError, match="pool started"):
            expsums._phase_sums(ws, [1], n)  # the main thread would start one
        got = []
        worker = threading.Thread(target=lambda: got.append(expsums._phase_sums(ws, [1, 5], n)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert got == [[_full_sum(ws, k, n) for k in (1, 5)]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_block_order(self, workers, monkeypatch):
        """Every block but the first raises; with two or three workers
        every block runs on the pool, and block 1's error is raised."""
        self._workers(monkeypatch, workers)

        def leaf(lo, hi):
            if lo:
                raise ValueError(f"block at {lo}")
            return np.zeros(1, np.complex128)

        with pytest.raises(ValueError, match=f"^block at {3 * expsums._LEAF // 4}$"):
            expsums._pairwise_blocks(3 * expsums._LEAF + 5, leaf)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ordered_map_keeps_item_order(self, workers, monkeypatch):
        """Results in item order; of several errors the first in item order
        is raised, and the pool runs every item before raising it."""
        self._workers(monkeypatch, workers)
        assert concurrency.ordered_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]
        ran = []

        def fn(x):
            ran.append(x)
            if x in (2, 4, 5):
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="^item 2$"):
            concurrency.ordered_map(fn, range(7))
        assert sorted(ran) == (list(range(3)) if workers == 1 else list(range(7)))

    def test_one_item_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        self._workers(monkeypatch, 3)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert concurrency.ordered_map(str, [5]) == ["5"]
        assert concurrency.ordered_map(str, []) == []


class TestLiarCodes:
    def test_mixed_batch_matches_scalar_classify(self):
        """One batch over moduli with s = 1..16, primes and composites
        alike, against `classify` residue by residue."""
        rng = np.random.default_rng(5)
        ns, ws = [], []
        for v in range(1, 17):
            for odd in (1, 3, 5, 7, 9, 11, 13, 15):
                n = odd * 2**v + 1
                if n < 9:
                    continue
                liars = np.flatnonzero(classify_all(n).codes >= 2)
                picks = np.concatenate([liars[rng.integers(0, len(liars), 40)], rng.integers(1, n, 40)])
                for w in picks.tolist():
                    if math.gcd(w, n) == 1:
                        ns.append(n)
                        ws.append(w)
        decs = [mr_decompose(n) for n in ns]
        x = np.array([pow(w, dec.d, n) for w, dec, n in zip(ws, decs, ns)], np.int64)
        s = np.array([dec.s for dec in decs], np.int64)
        before = x.copy()
        codes, stages = liar_codes(x, np.array(ns, np.int64), s)
        assert np.array_equal(x, before)
        assert set(s.tolist()) == set(range(1, 17))
        expect = {WitnessClass.WITNESS: 0, WitnessClass.DTH_ROOT: 2, WitnessClass.MINUS_ONE: 3}
        for i, (n, w) in enumerate(zip(ns, ws)):
            c = classify(n, w)
            assert (codes[i], stages[i]) == (expect[c.category], -1 if c.stage is None else c.stage), (n, w)

    def test_stage_bound_is_per_element(self):
        """Every x mod n against the scalar stage rule at each bound
        s' <= v2(n - 1): -1 reached at a stage j >= s' does not count."""
        ns, xs, ss = [], [], []
        for m in (65, 97, 257, 18721, 40961):
            for bound in range(1, mr_decompose(m).s + 1):
                ns += [m] * m
                xs += range(m)
                ss += [bound] * m
        codes, stages = liar_codes(np.array(xs, np.int64), np.array(ns, np.int64), np.array(ss, np.int64))
        want = [_minus_one_stage(x, m, b) for x, m, b in zip(xs, ns, ss)]
        assert stages.tolist() == [-1 if j is None else j for j in want]
        assert codes.tolist() == [2 if x == 1 else 0 if j is None else 3 for x, j in zip(xs, want)]
