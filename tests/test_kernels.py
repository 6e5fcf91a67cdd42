"""The full-residue kernels against scalar references, value for value."""

import concurrent.futures
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import concurrency, expsums
from mrwitness._scan import _POW_BLOCK, liar_codes, pow_all_numpy
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


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def _mixed_ks(n):
    """A repeat (reduced afresh), a negative k, the carry from n - 1 to 0
    (at k = 0 and at k = n) and on to n + 1, and the largest supported k:
    both branches of the index update."""
    return [3, 3, 7, -1, 0, n - 1, n, n + 1, 10**6]


def _check_bits(ws, n, ks):
    """`_phase_sums` against numpy's full-array sum of the gathered roots,
    bit for bit."""
    table = expsums._root_table(n)
    want = [complex(table[(k * ws) % n].sum()) for k in ks]
    assert _bits(expsums._phase_sums(ws, ks, n)) == _bits(want), (n, len(ws), ks)


class TestPhaseSums:
    def test_small_moduli_match_oracle_bitwise(self):
        # ks 1..2n covers the wrap from n - 1 to 0 and k = n, 2n (index 0
        # everywhere) below 256; above that, 16 frequencies keep the pass
        # to about a second.
        for n in range(9, 2001, 2):
            if is_prime(n):
                continue
            ws = classify_all(n).witnesses
            _check_bits(ws, n, range(1, 2 * n + 1) if n < 256 else range(1, 17))
            _check_bits(ws, n, _mixed_ks(n))

    def test_root_table_is_the_full_expression_bitwise(self):
        """Built in place, the table keeps the bits of the one-line build."""
        for n in [*range(1, 300), 2411, 20007, 1_056_331]:
            want = np.exp(2j * np.pi * np.arange(n) / n)
            assert expsums._root_table.__wrapped__(n).tobytes() == want.tobytes(), n

    def test_empty_residues(self, monkeypatch):
        """No root table is built for an empty set, directly or through
        an empty solution set of the cancellation sum."""

        def fail(n):
            raise AssertionError("root table built for an empty set")

        monkeypatch.setattr(expsums, "_root_table", fail)
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
        for n in (200005, 1056331, 2074757):
            self._check(classify_all(n).witnesses, n)


class TestBlockWorkers:
    """`concurrency.ordered_map` and the blocks of the pairwise tree it
    runs, on up to three workers: the same results in the same order, the
    same first error, and no pool outside the main thread."""

    @staticmethod
    def _workers(monkeypatch, count):
        monkeypatch.setattr(concurrency, "thread_count", lambda: count)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bitwise_for_any_worker_count(self, workers, monkeypatch):
        self._workers(monkeypatch, workers)
        n = 1_000_003
        rng = np.random.default_rng(17)
        leaf = expsums._LEAF
        for count in (leaf, leaf + 1, 3 * leaf + 5):
            _check_bits(np.sort(rng.choice(n, count, replace=False)), n, _mixed_ks(n))

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
        table = expsums._root_table(n)
        assert got == [[complex(table[k * ws % n].sum()) for k in (1, 5)]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_block_order(self, workers, monkeypatch):
        """Every block but the first raises; with two or three workers
        every block runs on the pool, and block 1's error is raised."""
        self._workers(monkeypatch, workers)

        def leaf(ws):
            if ws[0]:
                raise ValueError(f"block at {ws[0]}")
            return np.zeros(1, np.complex128)

        with pytest.raises(ValueError, match=f"^block at {3 * expsums._LEAF // 4}$"):
            expsums._pairwise_blocks(np.arange(3 * expsums._LEAF + 5), leaf)

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
