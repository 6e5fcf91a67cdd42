"""The full-residue kernels against scalar references, value for value."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import expsums
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


class TestPhaseSums:
    def test_battery_equals_single_k_bitwise(self):
        # k_max = 2n covers k = n and k = 2n (index 0 everywhere) below 256;
        # above that, 16 frequencies keep the pass to about a second.
        for n in range(9, 2001, 2):
            if is_prime(n):
                continue
            ws = classify_all(n).witnesses
            k_max = 2 * n if n < 256 else 16
            battery = expsums._phase_sums(ws, k_max, n)
            single = [expsums._phase_sum(ws, k, n) for k in range(1, k_max + 1)]
            assert battery == single, n

    def test_empty_residues(self):
        assert expsums._phase_sums(np.array([], np.int64), 3, 15) == [0j, 0j, 0j]


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


class TestPhaseSumsOracle:
    """The block kernel against numpy's full-array sum of the gathered
    roots, bit for bit: counts on both sides of one and two blocks, and
    witness sets of many blocks."""

    @staticmethod
    def _check(ws, n):
        table = expsums._root_table(n)
        want = [complex(table[(k * ws) % n].sum()) for k in range(1, 11)]
        assert _bits(expsums._phase_sums(ws, 10, n)) == _bits(want), (n, len(ws))
        for k in (3, 7, 999):
            want = complex(table[(k * ws) % n].sum())
            assert _bits([expsums._phase_sum(ws, k, n)]) == _bits([want]), (n, len(ws), k)

    def test_block_boundaries(self):
        n = 1_000_003
        rng = np.random.default_rng(13)
        leaf = expsums._LEAF
        for count in [leaf - 1, leaf, leaf + 1] + [2 * leaf + r for r in range(8)]:
            self._check(np.sort(rng.choice(n, count, replace=False)), n)

    def test_witness_sets(self):
        for n in (200005, 1056331, 2074757):
            self._check(classify_all(n).witnesses, n)


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
