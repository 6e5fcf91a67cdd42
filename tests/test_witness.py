import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import _scan, cli, equidist, expsums, witness
from mrwitness.arith import factorize, is_prime
from mrwitness.errors import DomainError
from mrwitness.witness import WitnessClass

odd_n = st.integers(min_value=3, max_value=4001).map(lambda v: v | 1)

CODE = {
    WitnessClass.WITNESS: _scan.CODE_WITNESS,
    WitnessClass.NON_COPRIME: _scan.CODE_NON_COPRIME,
    WitnessClass.DTH_ROOT: _scan.CODE_DTH_ROOT,
    WitnessClass.MINUS_ONE: _scan.CODE_MINUS_ONE,
}


def liar_set_view(scan) -> tuple[np.ndarray, np.ndarray]:
    """(codes, stages) per residue as the mask and the liar sets of `scan`
    give them: code 1 on the mask, 2 and 3 on the sets, each stage set at
    its index.  `scan.codes` and `scan.stages` come from the pow route
    instead, so this view keeps the sets under test against it."""
    codes = scan.mask.astype(np.uint8)  # CODE_NON_COPRIME on every non-witness
    codes[scan.liars[0]] = _scan.CODE_DTH_ROOT
    stages = np.full(scan.n, -1, np.int8)
    for j, idx in enumerate(scan.liars[1:]):
        codes[idx] = _scan.CODE_MINUS_ONE
        stages[idx] = j
    return codes, stages


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
        codes, _ = liar_set_view(scan)
        assert scan.witness_block(0, 4).tolist() == [2, 4, 5, 7]
        assert list(np.flatnonzero(codes == _scan.CODE_NON_COPRIME)) == [0, 3, 6]
        assert list(np.flatnonzero(codes == _scan.CODE_DTH_ROOT)) == [1]
        assert list(np.flatnonzero(codes == _scan.CODE_MINUS_ONE)) == [8]
        assert scan.counts.total == 9
        assert np.count_nonzero(scan.mask) == scan.counts.non_coprime + scan.counts.strong_liars

    def test_prime_has_no_witnesses(self):
        scan = witness.classify_all(7)
        assert scan.counts.witness == 0
        assert sorted(np.concatenate(scan.liars).tolist()) == [1, 2, 3, 4, 5, 6]

    def test_full_scan_refused_from_2_31(self):
        with pytest.raises(DomainError, match="2\\*\\*31"):
            witness.classify_all(2**31 + 1)

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
        a = witness.classify_all(n)
        dec = witness.mr_decompose(n)
        fac = factorize(n)
        codes, stages, _, counts, overlap = _scan.scan_numpy(n, dec.d, dec.s, fac.primes)
        view_codes, view_stages = liar_set_view(a)
        assert np.array_equal(view_codes, codes)
        assert np.array_equal(view_stages, stages)
        assert a.counts == witness.ClassCounts(*counts.tolist())
        _, per_stage = witness.monier_counts(fac, dec.d, dec.s)
        assert np.bincount(stages[stages >= 0], minlength=len(per_stage)).tolist() == per_stage
        assert overlap == 0
        assert np.count_nonzero(a.mask) == a.counts.non_coprime + a.counts.strong_liars
        # the builder's sets, one by one, against the pow route; sorted,
        # each equals a strictly increasing flatnonzero, so has no repeats
        roots, *stage_sets = _scan.liar_sets(n, dec.d, fac.factors)
        assert [len(x) for x in stage_sets] == per_stage
        assert np.array_equal(np.sort(roots), np.flatnonzero(codes == _scan.CODE_DTH_ROOT))
        for j, x in enumerate(stage_sets):
            assert np.array_equal(np.sort(x), np.flatnonzero(stages == j))

    def test_liar_sets_refused_from_2_31(self):
        n = 1000036000099  # 1000003 * 1000033
        dec = witness.mr_decompose(n)
        with pytest.raises(DomainError, match="2\\*\\*31"):
            _scan.liar_sets(n, dec.d, factorize(n).factors)

    @given(odd_n, st.data())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, n, data):
        codes, stages = liar_set_view(witness.classify_all(n))
        w = data.draw(st.integers(min_value=0, max_value=n - 1))
        single = witness.classify(n, w)
        assert codes[w] == CODE[single.category]
        if single.category is WitnessClass.MINUS_ONE:
            assert stages[w] == single.stage

    @given(odd_n)
    @settings(max_examples=100, deadline=None)
    def test_structural_memberships(self, n):
        codes, stages = liar_set_view(witness.classify_all(n))
        assert codes[1] == _scan.CODE_DTH_ROOT
        assert codes[n - 1] == _scan.CODE_MINUS_ONE
        assert stages[n - 1] == 0


class TestWitnessArrays:
    """`witnesses` come from the membership mask, and the codes and stages
    from the pow route; `nonwitnesses` come from the sorted array of
    `_scan.nonwitness_array` when Monier's counts give at most
    n / _SPARSE_RATIO of them, and from the mask otherwise.  The pow route
    is the independent check of both; below 10**5 the partition suite's
    acceptance run checks the mask of every odd n, and the sorted array
    equals the mask's non-witnesses at every odd composite n <= 10**4."""

    def test_mask_sets_equal_the_codes(self):
        """The mask's sets equal the codes of the pow route."""
        for n in (200005, 1056331, 2074757):
            scan = witness.classify_all(n)
            dec = witness.mr_decompose(n)
            codes = _scan.scan_numpy(n, dec.d, dec.s, factorize(n).primes)[0]
            is_witness = codes == _scan.CODE_WITNESS
            assert np.array_equal(np.flatnonzero(~scan.mask), np.flatnonzero(is_witness)), n
            assert np.array_equal(scan.nonwitnesses, np.flatnonzero(~is_witness)), n

    def test_sorted_nonwitnesses_equal_the_mask(self):
        """Both builders called directly, whichever route the rule picks:
        n / m runs from 3.2 (200005) through 4.0 (1056331, 263,538 liars)
        and 73 (1000001) to 673 (2074757)."""
        composites = [n for n in range(9, 10**4 + 1, 2) if not is_prime(n)]
        for n in composites + [200005, 1056331, 2074757, 1000001, 3**13]:
            fac = factorize(n)
            sets = _scan.liar_sets(n, witness.mr_decompose(n).d, fac.factors)
            got = _scan.nonwitness_array(n, fac.primes, sets)
            assert got.dtype == np.int64, n
            assert np.array_equal(got, np.flatnonzero(_scan.nonwitness_mask(n, fac.primes, sets))), n

    def test_sorted_route_exactly_when_sixteen_times_as_few(self, monkeypatch):
        calls = []
        for name in ("nonwitness_array", "nonwitness_mask"):
            original = getattr(_scan, name)

            def spy(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(_scan, name, spy)
        assert witness._SPARSE_RATIO == 16
        picked = set()
        # 1000259 = 13 * 76943 and 1000127 = 17 * 58831 straddle n / m = 16
        for n in list(range(9, 3001, 2)) + [1000259, 1000127, 200005, 2074757]:
            if is_prime(n):
                continue
            calls.clear()
            m = len(witness.classify_all(n).nonwitnesses)
            sparse = 16 * m <= n
            picked.add(sparse)
            assert calls == ["nonwitness_array" if sparse else "nonwitness_mask"], n
        assert picked == {True, False}

    def test_sparse_nonwitnesses_never_build_the_mask(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the n-byte mask was built")

        monkeypatch.setattr(_scan, "nonwitness_mask", fail)
        n = 2074757
        nonwitnesses = witness.classify_all(n).nonwitnesses
        assert len(nonwitnesses) == 3083 == n - witness.classify_all(n).counts.witness
        assert sum(equidist.histogram(n, 1000).counts) == n - 3083
        equidist.interval_fraction(n, 0.125, 0.6)
        assert 0 < equidist.star_discrepancy(n) < 1
        assert len(equidist.weyl_battery(n, 3)) == 3
        assert expsums.decomposition_reports(n, [3])[0].residual_total < 1e-6
        assert equidist.scan_row(n, 3).least_witness == 2
        with pytest.raises(AssertionError, match="mask was built"):
            witness.classify_all(n).mask

    def test_arrays_built_once_on_first_read(self, monkeypatch):
        calls = []
        original = _scan.nonwitness_mask

        def nonwitness_mask(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(_scan, "nonwitness_mask", nonwitness_mask)
        scan = witness.classify_all(561)
        assert calls == []
        assert scan.mask is scan.mask
        assert scan.nonwitnesses is scan.nonwitnesses
        assert scan.codes is scan.codes and scan.stages is scan.stages
        assert calls == [561]

    def test_codes_are_the_pow_route(self, monkeypatch):
        """codes and stages are scan_numpy's first two outputs, built once
        and read through the module attribute, so a patched route shows."""
        for n in (9, 561, 65537, 200005):
            scan = witness.classify_all(n)
            want = _scan.scan_numpy(n, scan.d, scan.s, scan.fac.primes)
            assert np.array_equal(scan.codes, want[0]) and np.array_equal(scan.stages, want[1])
        original = _scan.scan_numpy
        calls = []

        def scan_numpy(*args):
            calls.append(args[0])
            codes, stages, *rest = original(*args)
            codes[2] = _scan.CODE_DTH_ROOT  # 2 is a witness of 561
            return codes, stages, *rest

        monkeypatch.setattr(_scan, "scan_numpy", scan_numpy)
        scan = witness.classify_all(561)
        assert scan.codes[2] == _scan.CODE_DTH_ROOT and scan.stages is scan.stages
        assert liar_set_view(scan)[0][2] == _scan.CODE_WITNESS
        assert calls == [561]

    def test_statistics_never_build_the_codes(self, monkeypatch, capsys):
        """No statistic and no CLI command runs the pow route."""

        def fail(*args):
            raise AssertionError("the class codes were built")

        monkeypatch.setattr(_scan, "scan_numpy", fail)
        n = 200005
        scan = witness.classify_all(n)
        assert scan.counts.witness + len(scan.nonwitnesses) == n
        assert sum(equidist.histogram(n, 1000).counts) == scan.counts.witness
        equidist.interval_fraction(n, 0.125, 0.6)
        assert 0 < equidist.star_discrepancy(n) < 1
        assert len(equidist.weyl_battery(n, 3)) == 3
        assert expsums.decomposition_reports(n, [3])[0].residual_total < 1e-6
        assert equidist.scan_row(n, 3, 100).error is None
        for argv in (["witnesses", "--n", "561", "--out", "-"], ["bounds", "--n", "561"],
                     ["histogram", "--n", "561", "--bins", "4", "--out", "-"],
                     ["interval", "--n", "561", "--a", "0.1", "--b", "0.6"],
                     ["weyl", "--n", "561", "--k", "3"], ["sums", "--n", "561", "--k", "3"]):
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        for view in ("codes", "stages"):
            with pytest.raises(AssertionError, match="codes were built"):
                getattr(scan, view)


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


def _old_strong_test_fails(n: int, d: int, s: int, a: int) -> bool:
    """Whether base a fails the strong test, by its own loop: independent
    of `arith._minus_one_stage`, the walk that `least_witness` shares with
    `classify` and `is_prime`."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
        if x == 1:
            return True
    return True


def test_least_witness_matches_the_old_strong_test_loop():
    """Both routes, the scalar `least_witness` and the batched
    `least_witnesses` over all the moduli at once, against the loop; the
    composites come from trial division, not from `is_prime`."""
    ns = [n for n in range(9, 20_001, 2) if any(n % p == 0 for p in range(3, math.isqrt(n) + 1, 2))]
    ns += [561, 1105, 1729, 41041]
    expected = []
    for n in ns:
        dec = witness.mr_decompose(n)
        failing = (a for a in range(2, n) if _old_strong_test_fails(n, dec.d, dec.s, a))
        least_any = next(failing)
        least = least_any if math.gcd(least_any, n) == 1 else next(a for a in failing if math.gcd(a, n) == 1)
        expected.append((least, least_any))
        assert witness.least_witness(n) == (least, least_any), n
    least, least_any = witness.least_witnesses(ns)
    assert least.dtype == least_any.dtype == np.int64
    assert list(zip(least.tolist(), least_any.tolist())) == expected


def test_least_witnesses_refuse_what_least_witness_refuses():
    """Even and prime moduli, a prime among composites of another block,
    and n >= 2**31, which only the scalar route serves."""
    composites = list(range(9, 6 * _scan._POW_BLOCK + 9, 6))  # odd multiples of 3: one block
    for bad in ([4], [9, 1], [3], [5, 9], [7], [13], composites + [2**31 - 1], [2**31 + 1]):
        with pytest.raises(DomainError):
            witness.least_witnesses(bad)
    assert witness.least_witness(2**31 + 1) == (2, 2)
    least, least_any = witness.least_witnesses([])
    assert least.tolist() == least_any.tolist() == []
