import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrwitness import _scan, expsums
from mrwitness.arith import factorize, sigma
from mrwitness.characters import CharacterGroup, character_group
from mrwitness.errors import DomainError
from mrwitness.witness import classify_all

def e(x: float) -> complex:
    return cmath.exp(2j * cmath.pi * x)

def brute_class_sum(n: int, k: int, members) -> complex:
    return sum(e(k * w / n) for w in members)

def trial_mobius(m: int) -> int:
    """mu(m) by trial division, independent of `arith.factorize`."""
    out = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out

class TestWeylSum:
    def test_single_member_classes_mod_9(self):
        (rep,) = expsums.decomposition_reports(9, [1])
        assert rep.minus_one_sum.value == pytest.approx(e(8 / 9), abs=1e-12)
        assert rep.minus_one_sum.term_count == 1 and abs(rep.minus_one_sum.magnitude() - 1) < 1e-12
        assert rep.dth_root_sum.value == pytest.approx(e(1 / 9), abs=1e-12)
        assert rep.witness_sum.value == pytest.approx(brute_class_sum(9, 1, [2, 4, 5, 7]), abs=1e-12)

    def test_witness_plus_complement_cancels(self):
        (rep,) = expsums.decomposition_reports(9, [1])
        four_classes = (rep.witness_sum.value + rep.shared_factor_sum.value
                        + rep.dth_root_sum.value + rep.minus_one_sum.value)
        assert abs(four_classes) < 1e-12

    def test_enum_selector(self):
        (rep,) = expsums.decomposition_reports(9, [2])
        assert rep.witness_sum.value == pytest.approx(brute_class_sum(9, 2, [2, 4, 5, 7]), abs=1e-12)

    def test_zero_k_rejected(self):
        with pytest.raises(DomainError, match="nonzero"):
            expsums.decomposition_reports(9, [0])

    @given(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_full_range_cancellation(self, half, k):
        n = 2 * half + 1
        if k % n == 0:
            return
        (rep,) = expsums.decomposition_reports(n, [k])
        total = (rep.witness_sum.value + rep.shared_factor_sum.value
                 + rep.dth_root_sum.value + rep.minus_one_sum.value)
        assert abs(total) < 1e-9  # geometric sum over all of [0, n)

class TestRamanujan:
    def test_examples(self):
        (r,) = expsums.ramanujan(9, [3])
        assert r.closed == -3
        assert r.brute.value == pytest.approx(-3, abs=1e-9)
        assert r.complement.value == pytest.approx(3, abs=1e-9)
        assert expsums.ramanujan(9, [1])[0].closed == 0
        (one,) = expsums.ramanujan(1, [7])  # the one residue 0 is a unit
        assert (one.closed, one.brute.value, one.brute.term_count) == (1, 1, 1)
        assert (one.complement.value, one.complement.term_count) == (0, 0)

    def test_k_zero_gives_phi(self):
        (r,) = expsums.ramanujan(12, [0])
        assert r.closed == 4 and r.brute.value == pytest.approx(4, abs=1e-9)

    @given(st.integers(min_value=1, max_value=800), st.integers(min_value=1, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_closed_matches_brute(self, n, k):
        (r,) = expsums.ramanujan(n, [k])
        assert abs(r.brute.value - r.closed) < 1e-8
        assert abs(r.closed) <= sigma(math.gcd(n, k))
        assert r.difference == abs(r.brute.value - r.closed)
        assert r.agrees and r.difference < r.brute.error_budget  # the closed form counts none

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_complement_identity(self, n, k):
        if k % n == 0:
            return
        (r,) = expsums.ramanujan(n, [k])
        shared = brute_class_sum(n, k, [w for w in range(n) if math.gcd(w, n) > 1])
        assert r.complement.value == pytest.approx(shared, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 12, 45, 1105])
    def test_one_call_per_modulus_matches_one_k_at_a_time(self, n):
        """Any list of k, repeats, steps, negatives and multiples of n
        included, gives the reports of one-k calls, float for float."""
        ks = [1, 2, 3, 3, 7, -1, 0, n, n + 1, 2 * n - 1, 50]
        assert [repr(r) for r in expsums.ramanujan(n, ks)] == [repr(expsums.ramanujan(n, [k])[0]) for k in ks]
        assert expsums.ramanujan(n, []) == []

    def test_product_formula_matches_divisor_sum(self):
        """The product over prime powers against sum over s | gcd(n, k) of
        s * mu(n / s), at every n <= 3000 and k in [-60, 60], 0 included;
        the divisor sum depends on k only through gcd(n, k)."""
        for n in range(1, 3001):
            fac = factorize(n)
            oracle = {}
            for k in range(-60, 61):
                g = math.gcd(n, k)
                if g not in oracle:
                    oracle[g] = sum(s * trial_mobius(n // s) for s in range(1, g + 1) if g % s == 0)
                assert expsums.ramanujan_closed(fac, k) == oracle[g], (n, k)

    def test_refused_past_2_31_before_allocating(self):
        # the unit mask alone would take terabytes, and the int64 products
        # of the phase sums are exact only below 2**31: n is refused first
        with pytest.raises(DomainError, match=r"^Ramanujan sums support n < 2\*\*31, got 1099511627777$"):
            expsums.ramanujan(2**40 + 1, [1])

class TestGaussSums:
    def test_trivial_character_reduces_to_unit_sum(self):
        chi = character_group(9).character_by_index(0)
        assert expsums.gauss_sum_brute(chi, 1).value == pytest.approx(
            expsums.ramanujan(9, [1])[0].brute.value, abs=1e-12
        )

    @pytest.mark.parametrize("k", [1, 7])
    def test_modulus_1_is_one_term(self, k):
        chi = CharacterGroup(1).character_by_index(0)
        assert expsums.gauss_sum_brute(chi, k) == expsums.ComplexSum(1.0, 0.0, 1, 2**-50)

    def test_quadratic_mod_5_has_magnitude_sqrt_5(self):
        chi = character_group(5).character((2,))
        assert expsums.gauss_sum_brute(chi, 1).magnitude() == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_k_multiple_of_n_is_character_sum(self):
        g = character_group(5)
        assert abs(expsums.gauss_sum_brute(g.character((1,)), 5).value) < 1e-9
        assert expsums.gauss_sum_brute(g.character_by_index(0), 5).value == pytest.approx(4, abs=1e-9)

    def test_vanishing_path_mod_9(self):
        chi = character_group(9).character((3,))  # conductor 3, l = 3
        red = expsums.gauss_sum_reduced(chi, 1)
        assert red.path == "vanishing" and red.value.value == 0
        # zero sets match here (rad(3) | 3), so brute force vanishes too
        assert red.agrees_with_brute

    def test_reduced_path_mod_9(self):
        chi = character_group(9).character((3,))
        red = expsums.gauss_sum_reduced(chi, 3)
        assert red.path == "reduced"
        chi1 = chi.conductor()[1]
        expected = 3 * expsums.gauss_sum_brute(chi1, 1).value
        assert red.value.value == pytest.approx(expected, abs=1e-12)
        assert red.agrees_with_brute  # oracle comparison, not assumed

    def test_primitive_path(self):
        chi = character_group(5).character((1,))
        for k in (1, 2, 3, 4, 6):
            red = expsums.gauss_sum_reduced(chi, k)
            assert red.path == "primitive"
            assert red.value.magnitude() == pytest.approx(math.sqrt(5), abs=1e-9)

    def test_reduction_disagrees_when_zero_sets_differ(self):
        # conductor 3 inside n = 15: l = 5 has a prime outside q, and the
        # reduction overcounts residues divisible by 5
        g = character_group(15)
        chi = next(c for c in g.characters() if c.conductor()[0] == 3)
        red = expsums.gauss_sum_reduced(chi, 5)
        assert red.path == "reduced"
        assert not red.agrees_with_brute
        assert red.brute.magnitude() == pytest.approx(4 * math.sqrt(3), abs=1e-9)
        assert red.value.magnitude() == pytest.approx(5 * math.sqrt(3), abs=1e-9)

    @given(st.integers(min_value=3, max_value=120), st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_brute_force_oracle(self, n, k, data):
        g = character_group(n)
        exps = tuple(data.draw(st.integers(0, m - 1)) for m in g.orders)
        chi = g.character(exps)
        oracle = sum(chi(w) * e(k * w / n) for w in range(n))
        assert expsums.gauss_sum_brute(chi, k).value == pytest.approx(oracle, abs=1e-9)

    def test_refused_past_2_31_before_allocating(self):
        # both components are below the log-table limit; n-sized tables are
        # not, and the Gauss-sum routes meet their byte budgets first
        n = 9999991 * 9999973
        chi = character_group(n).character_by_index(1)
        for route, message in (
            (chi.value_table, "2\\*\\*31"),
            (lambda: expsums.gauss_sum_brute(chi, 1), f"need {24 * n} bytes"),
            (lambda: expsums.gauss_sum_reduced(chi, 1), f"need {24 * n} bytes"),
            (lambda: expsums.gauss_sums(chi.group, 1), f"need {64 * n} bytes"),
        ):
            with pytest.raises(DomainError, match=message):
                route()

class TestGaussSumsFFT:
    # a prime, an odd prime power, 2**3 * 45, and four primes
    @pytest.mark.parametrize("n", [1009, 625, 360, 1155])
    def test_every_character_matches_brute(self, n):
        g = character_group(n)
        for k in (1, 15, n):
            taus = expsums.gauss_sums(g, k)
            assert len(taus) == g.total_order
            for chi in g.characters():
                brute = expsums.gauss_sum_brute(chi, k)
                assert abs(taus[chi.index] - brute.value) <= brute.error_budget, (chi.exponents, k)

    def test_power_indices_and_values_at(self):
        g = character_group(360)
        for alpha in (0, 2, 3, 7):
            assert g.power_indices(alpha).tolist() == [(chi**alpha).index for chi in g.characters()]
        for w in (1, 7, 11, 359, 6):
            assert np.abs(g.values_at(w) - [chi(w) for chi in g.characters()]).max() < 1e-12


class TestCancellation:
    def test_alpha_one_single_solution(self):
        c = expsums.cancellation_sum(9, 1, 1, 1)
        assert list(c.solutions) == [1]
        assert c.total.value == pytest.approx(e(1 / 9), abs=1e-12)
        assert c.sqrt_n_ratio == pytest.approx(1 / 3, abs=1e-12)

    def test_square_roots_of_7_mod_9(self):
        c = expsums.cancellation_sum(9, 2, 7, 1)
        assert list(c.solutions) == [4, 5]  # 16 = 7, 25 = 7 mod 9
        assert c.total.value == pytest.approx(e(4 / 9) + e(5 / 9), abs=1e-12)

    def test_nonresidue_empty(self):
        c = expsums.cancellation_sum(9, 2, 2, 1)
        assert c.solution_count == 0 and c.total.value == 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            expsums.cancellation_sum(9, 2, 3, 1)  # b not a unit
        with pytest.raises(DomainError):
            expsums.cancellation_sum(9, 2, 7, 0)
        with pytest.raises(DomainError):
            expsums.cancellation_sum(9, 0, 7, 1)

    def test_candidates_bounded_before_they_are_built(self, monkeypatch):
        """At 15 and alpha = lambda(15) = 4 the 8 units solve; they come
        from 3 * 4 candidates w = r + 5t, 96 B against BYTE_BUDGET."""
        monkeypatch.setattr(expsums, "BYTE_BUDGET", 95)
        with pytest.raises(DomainError, match="^the candidate solutions mod n = 15 need 96 bytes"):
            expsums.cancellation_sum(15, 4, 1, 1)
        monkeypatch.setattr(expsums, "BYTE_BUDGET", 96)
        assert list(expsums.cancellation_sum(15, 4, 1, 1).solutions) == [1, 2, 4, 7, 8, 11, 13, 14]

    @given(st.integers(min_value=2, max_value=250), st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solutions_solve(self, n, alpha, data):
        units = [w for w in range(1, n) if math.gcd(w, n) == 1]
        b = data.draw(st.sampled_from(units))
        c = expsums.cancellation_sum(n, alpha, b, 1)
        expected = {w for w in units if pow(w, alpha, n) == b}
        assert set(int(w) for w in c.solutions) == expected

    @given(st.integers(min_value=2, max_value=120), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dual_paths_agree(self, n, alpha, data):
        units = [w for w in range(1, n) if math.gcd(w, n) == 1]
        b = data.draw(st.sampled_from(units))
        k = data.draw(st.integers(min_value=1, max_value=50))
        dual = expsums.cancellation_sum_dual(n, alpha, b, k)
        assert dual.agrees, dual.difference

class TestDecompositionReport:
    def test_identities_mod_9(self):
        (rep,) = expsums.decomposition_reports(9, [1])
        assert rep.residual_total < 1e-12
        assert rep.residual_partition < 1e-12
        assert rep.stage_duplicates == 0
        assert rep.shared_factor_sum.value == pytest.approx(0, abs=1e-12)  # -mu(9)

    def test_mod_15(self):
        (rep,) = expsums.decomposition_reports(15, [1])
        assert rep.residual_total < 1e-12 and rep.residual_partition < 1e-12
        assert rep.witness_sum.magnitude() == pytest.approx(
            rep.nonwitness_sum.magnitude(), abs=1e-12
        )

    def test_figure_n_small_frequencies(self):
        for rep in expsums.decomposition_reports(1056331, list(range(1, 11))):
            assert rep.residual_total < 1e-6
            assert rep.residual_partition < 1e-6

    def test_class_sums_match_brute_force(self):
        n = 45
        scan = classify_all(n)
        (rep,) = expsums.decomposition_reports(n, [2])
        assert rep.witness_sum.value == pytest.approx(
            brute_class_sum(n, 2, np.flatnonzero(~scan.mask)), abs=1e-9
        )
        assert rep.dth_root_sum.value == pytest.approx(
            brute_class_sum(n, 2, np.flatnonzero(scan.codes == _scan.CODE_DTH_ROOT)), abs=1e-9
        )
        assert rep.minus_one_sum.value == pytest.approx(
            brute_class_sum(n, 2, np.flatnonzero(scan.codes == _scan.CODE_MINUS_ONE)), abs=1e-9
        )

    def test_k_divisible_by_n_rejected(self):
        with pytest.raises(DomainError):
            expsums.decomposition_reports(9, [9])
        with pytest.raises(DomainError):
            expsums.decomposition_reports(9, [0])

    def test_per_stage_sums_partition_minus_one_class(self):
        # 65 - 1 = 1 * 2**6: six stages, d = 1
        (rep,) = expsums.decomposition_reports(65, [4])
        assert len(rep.per_stage_sums) == 6
        total = sum((cs.value for cs in rep.per_stage_sums), 0j)
        assert total == pytest.approx(rep.minus_one_sum.value, abs=1e-12)

    def test_stage_duplicates_are_counted_and_dropped(self, monkeypatch):
        """A solver that puts every earlier stage's residues into each later
        stage set: each repeat counts once, in the stage that repeats it,
        and the per-stage sums stay those of the clean sets."""
        (clean,) = expsums.decomposition_reports(65, [4])
        original = expsums._solutions
        calls = []

        def solutions(n, tables):
            calls.append(original(n, tables))
            stages = calls[1:]  # after the d-th roots
            return np.union1d(calls[-1], np.concatenate(stages)) if stages else calls[-1]

        monkeypatch.setattr(expsums, "_solutions", solutions)
        (rep,) = expsums.decomposition_reports(65, [4])
        stages = calls[1:]
        assert len(stages) == 6
        assert rep.stage_duplicates == sum(len(x) * (5 - j) for j, x in enumerate(stages)) > 0
        assert rep.per_stage_sums == clean.per_stage_sums and clean.stage_duplicates == 0

    @given(st.integers(min_value=4, max_value=600), st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_identities_generic(self, half, k):
        n = 2 * half + 1
        if k % n == 0:
            return
        (rep,) = expsums.decomposition_reports(n, [k])
        budget = 4 * rep.nonwitness_sum.error_budget
        assert rep.residual_total < max(budget, 1e-9)
        assert rep.residual_partition < max(budget, 1e-9)

class TestErrorBudget:
    def test_budget_scales_with_modulus(self):
        s = expsums.decomposition_reports(10001, [1])[0].witness_sum
        assert s.error_budget == 10001 * 2.0**-50
        assert s.error_budget >= s.term_count * 2.0**-50

    def test_agreement_counts_the_budgets_of_the_values_compared(self):
        s = expsums.decomposition_reports(10001, [1])[0].witness_sum
        assert expsums.budget_ratio(s.error_budget, s) == 1.0
        assert expsums.budget_ratio(s.error_budget, s, 10001) == 0.5  # an FFT value mod 10001
        assert not expsums.agrees(s.error_budget, s)
        assert expsums.agrees(s.error_budget, s, 10001)
        assert expsums.agrees(np.array([0.0, 1e-12, 1e-11]), 10001).tolist() == [True, True, False]

    @pytest.mark.parametrize("n", [200005, 1056331])
    def test_witness_sums_within_budget_of_an_fsum_reference(self, n):
        """The reference is minus the math.fsum of cos and sin over the
        non-witnesses, since the sum over all of [0, n) vanishes."""
        nonwitnesses = classify_all(n).nonwitnesses.tolist()
        for rep in expsums.decomposition_reports(n, range(1, 11)):
            angles = [2 * math.pi * (rep.k * w % n) / n for w in nonwitnesses]
            ref = -complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))
            diff = abs(rep.witness_sum.value - ref)
            ratio = expsums.budget_ratio(diff, rep.witness_sum)
            print(f"n={n} k={rep.k} |S_k - reference| = {diff:.3e}, {ratio:.3f} of the budget")
            assert expsums.agrees(diff, rep.witness_sum)
