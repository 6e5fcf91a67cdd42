
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrwitness import _scan, equidist, expsums
from mrwitness.errors import DomainError
from mrwitness.witness import ResidueScan, classify_all


class TestHistogram:
    def test_two_bins_mod_9(self):
        rep = equidist.histogram(9, 2)
        assert rep.counts == (2, 2)  # {2,4} below 1/2, {5,7} above
        assert rep.total_witnesses == 4

    def test_single_bin(self):
        rep = equidist.histogram(15, 1)
        assert rep.counts == (rep.total_witnesses,)

    def test_conservation(self):
        rep = equidist.histogram(225, 16)
        assert sum(rep.counts) == rep.total_witnesses == classify_all(225).counts.witness

    def test_bin_rule_is_integer_floor(self):
        n = 21
        rep = equidist.histogram(n, 5)
        ws = np.flatnonzero(~classify_all(n).mask)
        expected = [0] * 5
        for w in ws:
            expected[5 * int(w) // n] += 1
        assert list(rep.counts) == expected

    def test_prime_rejected(self):
        with pytest.raises(DomainError):
            equidist.histogram(13, 4)

    def test_bad_bins(self):
        with pytest.raises(DomainError):
            equidist.histogram(9, 0)

    def test_bins_past_the_limit_before_any_bin_array(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"bins is limited to {equidist.MAX_BINS}"):
                equidist.histogram(9, equidist.MAX_BINS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestIntervalFraction:
    def test_whole_interval(self):
        fraction, deviation = equidist.interval_fraction(9, 0.0, 1.0)
        assert fraction == 1.0 and deviation == 0.0

    def test_half_interval_mod_9(self):
        fraction, _ = equidist.interval_fraction(9, 0.0, 0.5)
        assert fraction == 0.5  # witnesses 2,4 of 4; 4/9 < 1/2 < 5/9

    def test_closed_boundaries_count(self):
        # w = 2 sits exactly at 2/9
        fraction, _ = equidist.interval_fraction(9, 2 / 9, 1.0)
        assert fraction == 1.0

    def test_bad_interval(self):
        for a, b in ((0.5, 0.5), (-0.1, 0.5), (0.2, 1.2), (0.9, 0.1)):
            with pytest.raises(DomainError):
                equidist.interval_fraction(9, a, b)

    @given(
        st.integers(min_value=4, max_value=800),
        st.floats(min_value=0, max_value=0.99),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_and_dominated_by_discrepancy(self, half, a, width):
        n = 2 * half + 1
        from mrwitness.arith import is_prime

        if is_prime(n):
            return
        b = min(1.0, a + max(width * (1 - a), 1e-9))
        if not a < b:
            return
        fraction, deviation = equidist.interval_fraction(n, a, b)
        assert 0.0 <= fraction <= 1.0
        dstar = equidist.star_discrepancy(n)
        assert deviation <= 2 * dstar + 1e-9


    def test_sparse_interval_near_2_31_in_kilobytes(self):
        """2146654199 = 46327 * 46337 has 92,665 non-witnesses: the sorted
        array of them, not a 2 GB mask."""
        n = 2146654199
        tracemalloc.start()
        try:
            fraction, _ = equidist.interval_fraction(n, 0.125, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert fraction == pytest.approx(0.475, abs=1e-9)


class TestStarDiscrepancy:
    def test_single_midpoint(self):
        assert equidist.star_discrepancy_points(np.array([0.5])) == 0.5

    def test_uniform_grid(self):
        n = 100
        d = equidist.star_discrepancy_points(np.arange(n) / n)
        assert d == pytest.approx(1 / n, abs=1e-15)

    def test_mod_9_hand_value(self):
        # sorted points 2/9, 4/9, 5/9, 7/9; the 4-point formula gives 2/9
        assert equidist.star_discrepancy(9) == pytest.approx(2 / 9, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            equidist.star_discrepancy_points(np.array([]))

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=60))
    @settings(max_examples=150)
    def test_matches_definition_on_breakpoints(self, points):
        """The sup over t of |F_N(t) - t| is attained at the sample points
        (one-sided limits); scan both sides of every point as an oracle."""
        pts = sorted(points)
        N = len(pts)
        worst = 0.0
        for t in pts + [0.0, 1.0]:
            below = sum(1 for x in pts if x <= t) / N
            at_left = sum(1 for x in pts if x < t) / N
            worst = max(worst, abs(below - t), abs(at_left - t))
        assert equidist.star_discrepancy_points(np.array(pts)) == pytest.approx(worst, abs=1e-12)


class TestWeylBattery:
    def test_prime_rejected(self):
        with pytest.raises(DomainError):
            equidist.weyl_battery(11, 3)

    def test_mod_9_first_frequency(self):
        rows = equidist.weyl_battery(9, 2)
        expected = abs(sum(np.exp(2j * np.pi * np.array([2, 4, 5, 7]) / 9)))
        assert rows[0].magnitude == pytest.approx(expected, abs=1e-12)
        assert rows[0].ratio == pytest.approx(expected / 4, abs=1e-12)
        assert [r.k for r in rows] == [1, 2]

    def test_sums_the_liars_not_the_witnesses(self, monkeypatch):
        """At 2074757 the one phase-sum call sees the 6 strong liars, and
        no witness block is built."""

        def fail(*args):
            raise AssertionError("a witness block was built")

        sizes = []
        original = equidist._phase_sums

        def phase_sums(residues, ks, n, *args):
            sizes.append(len(residues))
            return original(residues, ks, n, *args)

        monkeypatch.setattr(ResidueScan, "witness_block", fail)
        monkeypatch.setattr(equidist, "_phase_sums", phase_sums)
        assert len(equidist.weyl_battery(2074757, 10)) == 10
        assert sizes == [6]

    @given(st.integers(min_value=5, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_ratios_in_unit_interval(self, half):
        n = 2 * half + 1
        from mrwitness.arith import is_prime

        if is_prime(n):
            return
        for row in equidist.weyl_battery(n, 6):
            assert 0.0 <= row.ratio <= 1.0 + 1e-12


class TestScan:
    def test_rows_in_order_with_errors(self):
        rows = equidist.scan([9, 7, 15], k_max=3)
        assert [r.n for r in rows] == [9, 7, 15]
        assert rows[0].witness_count == 4
        assert rows[1].error is not None
        assert rows[2].error is None

    def test_empty(self):
        assert equidist.scan([]) == []

    def test_flatness_populated_with_bins(self):
        rows = equidist.scan([9], k_max=2, bins=2)
        assert rows[0].flatness == pytest.approx(0.0)  # counts (2,2), mean 2

    def test_single_thread_matches_parallel(self, monkeypatch):
        ns = [9, 15, 21, 25, 27, 33]
        monkeypatch.setenv("WITNESS_THREADS", "1")
        a = equidist.scan(ns, k_max=4)
        monkeypatch.setenv("WITNESS_THREADS", "4")
        b = equidist.scan(ns, k_max=4)
        for ra, rb in zip(a, b):
            assert ra.n == rb.n and ra.witness_count == rb.witness_count
            assert ra.star_discrepancy == rb.star_discrepancy
            assert ra.weyl_ratios == rb.weyl_ratios

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_errors_propagate(self, workers, monkeypatch):
        original = equidist.scan_row

        def scan_row(n, *args):
            if n == 21:
                raise ArithmeticError(f"row {n} failed")
            return original(n, *args)

        monkeypatch.setattr(equidist, "scan_row", scan_row)
        monkeypatch.setenv("WITNESS_THREADS", str(workers))
        with pytest.raises(ArithmeticError, match="row 21 failed"):
            equidist.scan([9, 15, 21, 25, 27], k_max=2)

    def test_no_frequencies_is_an_error_row(self):
        (row,) = equidist.scan([15], k_max=0)
        assert row.error == "need k_max >= 1, got 0"

    def test_frequency_limit_before_any_scan(self, monkeypatch):
        """k_max past MAX_FREQUENCY is refused before the scan is built or a
        block of k_max sums is allocated."""

        def fail(*args):
            raise AssertionError("reached past the frequency check")

        monkeypatch.setattr(equidist, "classify_all", fail)
        monkeypatch.setattr(equidist, "_phase_sums", fail)
        k_max = expsums.MAX_FREQUENCY + 1
        for call in (equidist.weyl_battery, equidist.scan_row):
            with pytest.raises(DomainError, match="k_max is limited to 1000000"):
                call(200005, k_max)
        (row,) = equidist.scan([200005], k_max=k_max)
        assert row.error == "k_max is limited to 1000000, got 1000001"

    def test_bins_past_exact_binning_is_an_error_row(self):
        (row,) = equidist.scan([15], bins=2**62 // 15 + 1)  # not a 2**62-bin allocation
        assert row.error == "n * bin_count too large for exact integer binning"

    def test_empty_witness_set_has_one_message(self, monkeypatch):
        """A prime is refused from Monier's counts before its n - 1 liars
        are built: 16 GiB of them at 2147483629, the largest prime below
        2**31."""

        def fail(*args):
            raise AssertionError("the liar sets were built")

        monkeypatch.setattr(_scan, "liar_sets", fail)
        for n in (13, 2147483629):
            for call in (
                lambda: equidist.histogram(n, 4),
                lambda: equidist.interval_fraction(n, 0.0, 1.0),
                lambda: equidist.star_discrepancy(n),
                lambda: equidist.weyl_battery(n, 3),
                lambda: equidist.scan_row(n, 3, 10),
            ):
                with pytest.raises(DomainError, match=f"^{n} has no witnesses$"):
                    call()
            assert equidist.scan([n])[0].error == f"{n} has no witnesses"

    def test_least_odd_composite(self):
        assert equidist.least_odd_composite_at_least(3) == 9
        assert equidist.least_odd_composite_at_least(9) == 9
        assert equidist.least_odd_composite_at_least(10) == 15
        assert equidist.least_odd_composite_at_least(1000) == 1001
        assert equidist.least_odd_composite_at_least(10**4) == 10001
        assert equidist.least_odd_composite_at_least(10**5) == 100001
        assert equidist.least_odd_composite_at_least(10**6) == 1000001
