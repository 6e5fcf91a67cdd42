import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import witness
from mrwitness.arith import is_prime
from mrwitness.errors import DomainError
from mrwitness.witness import WitnessClass

odd_n = st.integers(min_value=3, max_value=4001).map(lambda v: v | 1)


def classify_oracle(n: int, w: int) -> tuple[str, int | None]:
    """Direct re-statement of the three membership conditions."""
    if math.gcd(w, n) > 1:
        return "non-coprime", None
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if pow(w, d, n) == 1:
        return "dth-root", None
    for j in range(s):
        if pow(w, d * 2**j, n) == n - 1:
            return "minus-one", j
    return "witness", None


class TestDecompose:
    @pytest.mark.parametrize("n,d,s", [(9, 1, 3), (25, 3, 3), (1056331, 528165, 1)])
    def test_examples(self, n, d, s):
        dec = witness.mr_decompose(n)
        assert (dec.d, dec.s) == (d, s)
        assert dec.d * 2**dec.s == n - 1
        assert dec.d % 2 == 1

    @pytest.mark.parametrize("bad", [8, 1, -3, 0, 2])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            witness.mr_decompose(bad)

    @given(odd_n)
    def test_unique_decomposition(self, n):
        dec = witness.mr_decompose(n)
        assert dec.d * 2**dec.s == n - 1 and dec.d % 2 == 1 and dec.s >= 1


class TestClassify:
    def test_examples_mod_9(self):
        c = witness.classify(9, 8)
        assert c.category is WitnessClass.MINUS_ONE and c.stage == 0
        assert witness.classify(9, 1).category is WitnessClass.DTH_ROOT
        # 2^1=2 != 1; 2 != 8, 4 != 8, 7 != 8 mod 9
        assert witness.classify(9, 2).category is WitnessClass.WITNESS
        c = witness.classify(9, 3)
        assert c.category is WitnessClass.NON_COPRIME and c.gcd_value == 3

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            witness.classify(9, 9)
        with pytest.raises(DomainError):
            witness.classify(9, -1)

    @given(odd_n, st.data())
    @settings(max_examples=300)
    def test_matches_condition_oracle(self, n, data):
        w = data.draw(st.integers(min_value=0, max_value=n - 1))
        got = witness.classify(n, w)
        cls, stage = classify_oracle(n, w)
        assert got.category.value == cls
        if stage is not None:
            assert got.stage == stage


class TestEnumerate:
    def test_mod_9_sets(self):
        scan = witness.classify_all(9)
        assert list(scan.witnesses) == [2, 4, 5, 7]
        assert list(scan.members(WitnessClass.NON_COPRIME)) == [0, 3, 6]
        assert list(scan.members(WitnessClass.DTH_ROOT)) == [1]
        assert list(scan.members(WitnessClass.MINUS_ONE)) == [8]
        assert scan.counts.total == 9 and scan.overlap == 0

    def test_prime_has_no_witnesses(self):
        assert witness.classify_all(7).counts.witness == 0

    def test_figure_n_counts(self):
        scan = witness.classify_all(1056331)
        c = scan.counts
        assert c.total == 1056331
        # frozen from two independent scan engines
        assert (c.witness, c.non_coprime, c.dth_root, c.minus_one) == (
            790614,
            2179,
            131769,
            131769,
        )

    @given(odd_n)
    @settings(max_examples=60, deadline=None)
    @example(n=9)
    @example(n=561)  # Carmichael numbers
    @example(n=1105)
    @example(n=1729)
    @example(n=12289)  # prime, s = 12
    @example(n=65537)  # prime, s = 16
    @example(n=59049)  # 3**10
    @example(n=1056331)  # the histogram modulus
    def test_engines_agree(self, n):
        a = witness.classify_all(n, engine="auto")
        b = witness.classify_all(n, engine="numpy")
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.stages, b.stages)
        assert a.counts == b.counts and a.overlap == b.overlap == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(DomainError):
            witness.classify_all(9, engine="numba")

    @given(odd_n, st.data())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, n, data):
        scan = witness.classify_all(n)
        w = data.draw(st.integers(min_value=0, max_value=n - 1))
        single = witness.classify(n, w)
        assert witness._CODE_TO_CLASS[int(scan.codes[w])] is single.category
        if single.category is WitnessClass.MINUS_ONE:
            assert scan.stages[w] == single.stage

    @given(odd_n)
    @settings(max_examples=100, deadline=None)
    def test_structural_memberships(self, n):
        scan = witness.classify_all(n)
        assert scan.codes[1] == witness.CLASS_TO_CODE[WitnessClass.DTH_ROOT]
        assert scan.codes[n - 1] == witness.CLASS_TO_CODE[WitnessClass.MINUS_ONE]
        assert scan.stages[n - 1] == 0


class TestBounds:
    def test_mod_9(self):
        rep = witness.bound_report(9)
        assert rep.strong_liar_count == 2
        assert rep.rabin_ok_liar_def  # 2 <= (9-1)/4
        assert rep.least_witness == 2
        assert rep.bach_ok and math.isclose(rep.bach_bound, 2 * math.log(9) ** 2)

    def test_least_witness_15(self):
        # 2^7 = 128 = 8 mod 15, and 8 is neither 1 nor 14
        assert witness.least_witness(15) == (2, 2)
        assert witness.bound_report(15).least_witness == 2

    def test_105_fails_paper_definition(self):
        rep = witness.bound_report(105)
        # oracle count: 46 witnesses among 105 residues, below 3*104/4 = 78
        assert rep.witness_count == 46
        assert not rep.rabin_ok_paper_def
        assert rep.rabin_ok_liar_def

    def test_prime_rejected(self):
        with pytest.raises(DomainError):
            witness.bound_report(97)
        with pytest.raises(DomainError):
            witness.least_witness(13)

    def test_least_failing_base_counts_shared_factors(self):
        # 3 | 9: base 3 fails the strong test but is not a coprime witness
        rep = witness.bound_report(9)
        assert rep.least_failing_base == 2
        rep = witness.bound_report(25)
        assert rep.least_witness == 2 and rep.least_failing_base == 2

    @given(st.integers(min_value=4, max_value=2000))
    @settings(max_examples=80, deadline=None)
    def test_liar_bound_on_composites(self, seed):
        n = seed * 2 + 1
        if is_prime(n):
            return
        rep = witness.bound_report(n)
        assert 4 * rep.strong_liar_count <= n - 1
        assert rep.least_witness >= 2
        assert rep.least_failing_base <= rep.least_witness
