"""Witness statistics from the non-witnesses and solution sets from prime-power
components, against the full-residue formulas they replace, value for value.

The oracles below walk all n residues: a bincount of every witness, the two
float comparisons on every witness, D* over every sorted witness as an exact
rational, w**e mod n for every w, and the phase sums over whole sets at once.
Each routed result must be `==` to its oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import equidist, expsums
from mrwitness._scan import _reduce, pow_all_numpy
from mrwitness.arith import is_prime
from mrwitness.witness import classify_all, mr_decompose

SMALL_COMPOSITES = [n for n in range(9, 4002, 2) if not is_prime(n)]

# prime powers, Carmichael numbers, s = 5 (97 * 193 - 1 = 2**5 * 585),
# the golden-file moduli 200005 = 5 * 13 * 17 * 181 and 1056331 = 727 * 1453
NAMED = (3**13, 7**7, 561, 1105, 1729, 41041, 97 * 193, 200005, 1056331)


def with_named(test):
    for n in NAMED:
        test = example(n)(test)
    return test


def _odd_composites(max_value):
    return st.integers(min_value=4, max_value=max_value // 2).map(lambda m: 2 * m + 1).filter(
        lambda n: not is_prime(n))


def witness_list(n):
    """The witnesses of n, ascending, read off the n-byte non-witness mask."""
    return np.flatnonzero(~classify_all(n).mask)


def hist_oracle(n, bins):
    ws = witness_list(n)
    return np.bincount(ws * bins // n, minlength=bins)


def interval_oracle(n, a, b):
    ws = witness_list(n)
    fraction = int(np.count_nonzero((ws >= a * n) & (ws <= b * n))) / len(ws)
    return fraction, abs(fraction - (b - a))


def dstar_oracle(n):
    """D* over every sorted witness w_i, i = 1..N: the largest of i/N - w_i/n
    and w_i/n - (i-1)/N as one Fraction over N * n, rounded once."""
    ws = witness_list(n)
    N, i = len(ws), np.arange(1, len(ws) + 1)
    return float(Fraction(max(int((i * n - ws * N).max()), int((ws * N - (i - 1) * n).max())), N * n))


def solutions_oracle(n, e, b):
    return np.nonzero(pow_all_numpy(n, e) == b % n)[0]


def phase_oracle(ws, k, n):
    """numpy's full-array sum of e(k*w/n) over ws, which `_phase_sums`
    equals bit for bit."""
    return complex(expsums._root_table(n)[(k * ws) % n].sum())


def reports_oracle(n, ks):
    """decomposition_reports with its solution sets from w**d mod n for every w."""
    dec = mr_decompose(n)
    scan = classify_all(n)
    powd = pow_all_numpy(n, dec.d)
    roots = np.nonzero(powd == 1)[0]
    stage_sets, seen, duplicates, x = [], np.zeros(n, bool), 0, powd
    for j in range(dec.s):
        sols = np.nonzero(x == n - 1)[0]
        dup = seen[sols]
        duplicates += int(dup.sum())
        stage_sets.append(sols[~dup])
        seen[sols] = True
        if j + 1 < dec.s:
            x = x * x
            _reduce(x, n, np.empty_like(x))
    ws = np.flatnonzero(~scan.mask)
    non = np.nonzero(scan.codes)[0]
    out = []
    for k in ks:
        s_wit = expsums._csum(phase_oracle(ws, k, n), len(ws), n)
        s_non = expsums._csum(phase_oracle(non, k, n), len(non), n)
        s1 = expsums.ComplexSum(float(-expsums.ramanujan_closed(scan.fac, k)), 0.0, scan.counts.non_coprime, 0.0)
        s2 = expsums._csum(phase_oracle(roots, k, n), len(roots), n)
        stage_sums = tuple(expsums._csum(phase_oracle(t, k, n), len(t), n) for t in stage_sets)
        z3 = sum((cs.value for cs in stage_sums), 0j)
        s3 = expsums._csum(z3, sum(cs.term_count for cs in stage_sums), n)
        out.append(expsums.DecompositionReport(
            n, k, s_wit, s_non, s1, s2, s3, stage_sums, duplicates,
            abs(s_wit.value + s_non.value), abs(s_non.value - (s1.value + s2.value + s3.value))))
    return out


def assert_statistics_match(n):
    for bins in (1, 7, 1000):
        assert list(equidist.histogram(n, bins).counts) == hist_oracle(n, bins).tolist(), (n, bins)
    for a, b in ((0.0, 1.0), (0.125, 0.6), (1 / 3, 0.5 + 1e-9)):
        assert equidist.interval_fraction(n, a, b) == interval_oracle(n, a, b), (n, a, b)
    assert equidist.star_discrepancy(n) == dstar_oracle(n), n


class TestWitnessStatistics:
    def test_every_small_odd_composite(self):
        for n in SMALL_COMPOSITES:
            assert_statistics_match(n)

    @given(_odd_composites(3_000_000))
    @settings(max_examples=10, deadline=None)
    @with_named
    def test_named_and_drawn_moduli(self, n):
        assert_statistics_match(n)

    @pytest.mark.parametrize("n", [561, 1105, 41041, 200005])
    def test_bounds_on_integers(self, n):
        """a * n and b * n exact integers, so boundary residues sit on the
        closed interval's ends; b = 1 puts the upper end at n itself."""
        cases = [(c / n, e / n) for c, e in ((1, 2), (3, 30), (n // 3, n // 2), (n // 2, n - 1))]
        cases += [(0.2, 0.4), (0.0, 1.0), (0.5, 1.0)]
        exact = 0
        for a, b in cases:
            exact += float(a * n).is_integer() and float(b * n).is_integer()
            assert equidist.interval_fraction(n, a, b) == interval_oracle(n, a, b), (n, a, b)
        assert exact >= 4  # the boundary case is really exercised

    def test_star_discrepancy_is_exact(self):
        """D* is the exact rational rounded once: a float route over i/N and
        w/n was off it at 1964 of these 2217 odd composites, and in the 12th
        printed digit at 200005 and 2074757."""
        for n in [n for n in range(9, 6001, 2) if not is_prime(n)] + [200005, 1000001, 1056331, 2074757]:
            assert equidist.star_discrepancy(n) == dstar_oracle(n), n

    def test_scan_row_uses_the_same_statistics(self):
        for n in (561, 41041, 200005):
            row = equidist.scan_row(n, 3, bins=100)
            counts = hist_oracle(n, 100)
            mean = counts.sum() / 100
            assert row.star_discrepancy == dstar_oracle(n)
            assert row.flatness == float(np.abs(counts - mean).max() / mean)


class TestSolutionSets:
    def test_reports_every_small_odd_composite(self):
        ks = [1, 2, 7]
        for n in SMALL_COMPOSITES:
            ks_n = [k for k in ks if k % n]
            assert expsums.decomposition_reports(n, ks_n) == reports_oracle(n, ks_n), n

    @given(_odd_composites(3_000_000))
    @settings(max_examples=6, deadline=None)
    @with_named
    def test_reports_named_and_drawn_moduli(self, n):
        assert expsums.decomposition_reports(n, [1, 3]) == reports_oracle(n, [1, 3])

    def test_cancellation_solutions_every_small_modulus(self):
        for n in range(2, 400):
            units = [b for b in range(1, n) if math.gcd(b, n) == 1][:4]
            for alpha in (1, 2, 3, 4, 6):
                for b in units:
                    c = expsums.cancellation_sum(n, alpha, b, 1)
                    want = solutions_oracle(n, alpha, b)
                    assert np.array_equal(c.solutions, want), (n, alpha, b)
                    assert c.total == expsums._csum(phase_oracle(want, 1, n), len(want), n)

    @pytest.mark.parametrize("n", NAMED + (2**10 * 3**3, 2 * 41041))
    def test_cancellation_solutions_named_moduli(self, n):
        for alpha, b in ((2, 1), (3, 1), (4, n - 1), (5, 2 if n % 2 else 5)):
            if math.gcd(b, n) != 1:
                continue
            c = expsums.cancellation_sum(n, alpha, b, 3)
            assert np.array_equal(c.solutions, solutions_oracle(n, alpha, b)), (n, alpha, b)
