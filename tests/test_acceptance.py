"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The full-range scans are marked slow.
"""

import hashlib
import time
from pathlib import Path

import pytest

from mrwitness import cli, equidist, suites

pytestmark = pytest.mark.slow

GOLDEN = Path(__file__).parent / "data" / "cli_stdout"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


def assert_verify_lines(results, golden_name, capsys):
    """The `verify` stdout lines of results, printed from a fixture's run
    of the suite at its default bounds, against a golden file."""
    capsys.readouterr()
    cli._report_suites(results, None)
    assert capsys.readouterr().out == (GOLDEN / golden_name).read_text()


@pytest.fixture(scope="module")
def partition_rabin():
    t0 = time.perf_counter()
    results = {r.name: r for r in suites.suite_partition_rabin(100_000)}
    results["elapsed"] = time.perf_counter() - t0
    return results


class TestCriterion1Partition:
    def test_partition_exactness(self, partition_rabin):
        r = partition_rabin["partition"]
        elapsed = partition_rabin["elapsed"]
        ok = r.ok and elapsed < 120.0
        report(
            "1 partition-exactness",
            ok,
            f"{r.checked} odd n in [3, 1e5], {r.failures} failures, {elapsed:.1f}s (< 120s)",
        )
        assert r.ok, r.summary
        assert r.failures == 0
        assert elapsed < 120.0, f"partition scan took {elapsed:.1f}s"

    def test_verify_lines_match_golden(self, partition_rabin, capsys):
        """The `verify` stdout lines of partition and rabin at the default
        bound, printed from the fixture's results: no second 10**5 scan."""
        assert_verify_lines([partition_rabin["partition"], partition_rabin["rabin"]],
                            "verify_partition_rabin.txt", capsys)


@pytest.fixture(scope="module")
def sum_results():
    return {r.name: r for r in suites.suite_cancellation_additivity(10_000, 10)}


@pytest.fixture(scope="module")
def ramanujan_result():
    (r,) = suites.suite_ramanujan(2000, 50)
    return r


@pytest.fixture(scope="module")
def gauss_primitive_result():
    (r,) = suites.suite_gauss_primitive(500)
    return r


@pytest.fixture(scope="module")
def imprimitive_result():
    (r,) = suites.suite_imprimitive(300, 20)
    return r


@pytest.fixture(scope="module")
def dual_result():
    (r,) = suites.suite_cancellation_dual(300, 20)
    return r


class TestCriterion2And3Sums:
    def test_total_cancellation(self, sum_results):
        r = sum_results["cancellation"]
        report("2 total-cancellation", r.ok, f"{r.checked} (n, k) pairs; {r.summary}")
        assert r.ok and r.failures == 0, r.summary

    def test_partition_additivity(self, sum_results):
        r = sum_results["additivity"]
        report("3 partition-additivity", r.ok, f"{r.checked} (n, k) pairs; {r.summary}")
        assert r.ok and r.failures == 0, r.summary

    def test_verify_lines_match_golden(self, sum_results, capsys):
        assert_verify_lines([sum_results["cancellation"], sum_results["additivity"]],
                            "verify_cancellation_additivity.txt", capsys)


class TestCriterion4Ramanujan:
    def test_closed_form_equivalence(self, ramanujan_result):
        r = ramanujan_result
        report("4 unit-sum-closed-form", r.ok, f"{r.checked} (n, k) pairs within the error budgets of the values compared")
        assert r.ok and r.failures == 0, r.summary

    def test_verify_lines_match_golden(self, ramanujan_result, capsys):
        assert_verify_lines([ramanujan_result], "verify_ramanujan.txt", capsys)


class TestCriterion5PrimitiveGauss:
    def test_magnitude_sqrt_n(self, gauss_primitive_result):
        r = gauss_primitive_result
        report("5 primitive-gauss-magnitude", r.ok, f"{r.checked} magnitudes at sqrt(n) within the error budgets of the values compared")
        assert r.ok and r.failures == 0, r.summary

    def test_verify_lines_match_golden(self, gauss_primitive_result, capsys):
        assert_verify_lines([gauss_primitive_result], "verify_gauss_primitive.txt", capsys)


class TestCriterion6DualRoute:
    def test_enumeration_matches_orthogonality(self, dual_result):
        r = dual_result
        report("6 dual-route-agreement", r.ok, f"{r.checked} sums within the error budgets of the values compared")
        assert r.ok and r.failures == 0, r.summary

    def test_verify_lines_match_golden(self, dual_result, capsys):
        assert_verify_lines([dual_result], "verify_cancel_dual.txt", capsys)


class TestCriterion7StrongLiars:
    def test_liar_bound_with_equality_at_9(self, partition_rabin):
        r = partition_rabin["rabin"]
        report(
            "7 strong-liar-bound",
            r.ok,
            f"{r.checked} odd composites; equality only at 9; "
            f"{len(r.findings)} verbatim-bound shortfalls recorded",
        )
        assert r.ok and r.failures == 0, r.summary

    def test_verbatim_form_findings_table(self, partition_rabin):
        # the reporting deliverable: coprime-witness counts falling short of
        # 3(n-1)/4; n = 105 is the canonical example
        findings = partition_rabin["rabin"].findings
        assert findings, "expected a non-empty findings table"
        rows = {f["n"]: f for f in findings}
        assert 105 in rows
        assert rows[105]["witness_count"] == 46
        # the histogram modulus misses the verbatim bound too
        assert all(set(f) >= {"n", "witness_count", "required_more_than"} for f in findings)


class TestCriterion8LeastWitnessBound:
    def test_bach_bound_scan(self, capsys):
        """The scan at the default bound, and its `verify` line against the
        golden from the same results: no second run."""
        (r,) = suites.suite_bach(1_000_000)
        report(
            "8 least-witness-bound",
            r.ok and not r.findings,
            f"{r.checked} odd composites <= 1e6; {len(r.findings)} violations (expected 0)",
        )
        assert r.ok, r.summary
        assert not r.findings, f"unexpected bound violations: {r.findings[:5]}"
        assert_verify_lines([r], "verify_bach.txt", capsys)


class TestCriterion9Histogram:
    # frozen goldens from the deterministic integer binning of the full scan
    GOLDEN_WITNESSES = 790_614
    GOLDEN_MIN_BIN = 64
    GOLDEN_MAX_BIN = 93
    GOLDEN_FLATNESS = 0.19050257141917554

    def test_figure_reproduction(self):
        t0 = time.perf_counter()
        rep = equidist.histogram(1_056_331, 10_000)
        elapsed = time.perf_counter() - t0
        conserved = sum(rep.counts) == rep.total_witnesses
        ok = (
            conserved
            and elapsed < 60.0
            and rep.max_relative_deviation < 1.0
            and rep.total_witnesses == self.GOLDEN_WITNESSES
        )
        report(
            "9 histogram-reproduction",
            ok,
            f"{rep.total_witnesses} witnesses over 10000 bins in {elapsed:.1f}s; "
            f"max relative deviation {rep.max_relative_deviation:.6f} (< 1)",
        )
        assert conserved
        assert elapsed < 60.0
        assert rep.total_witnesses == self.GOLDEN_WITNESSES
        assert min(rep.counts) == self.GOLDEN_MIN_BIN
        assert max(rep.counts) == self.GOLDEN_MAX_BIN
        assert rep.max_relative_deviation < 1.0
        assert rep.max_relative_deviation == pytest.approx(self.GOLDEN_FLATNESS, abs=1e-12)


class TestCriterion10Trend:
    def test_discrepancy_and_weyl_ratios_decrease(self):
        (r,) = suites.suite_trend((10**3, 10**4, 10**5, 10**6), 10)
        detail = "; ".join(
            f"n={f['n']}: D*={f['star_discrepancy']:.3e}, "
            f"max|S_k|/#W={f['max_weyl_ratio']:.3e}"
            for f in r.findings
        )
        report("10 equidistribution-trend", r.ok, detail)
        assert r.ok, r.summary
        dstars = [f["star_discrepancy"] for f in r.findings]
        ratios = [f["max_weyl_ratio"] for f in r.findings]
        assert all(a > b for a, b in zip(dstars, dstars[1:]))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestCriterion11ImprimitiveReduction:
    def test_reduction_study(self, imprimitive_result):
        r = imprimitive_result
        report(
            "11 imprimitive-reduction-study",
            r.ok,
            f"{r.checked} comparisons; vanishing-case hard failures {r.failures}; "
            f"{len(r.findings)} disagreements recorded as findings",
        )
        assert r.ok and r.failures == 0, r.summary
        # the findings table is a deliverable: every disagreement involves a
        # character whose modulus has a prime factor outside its conductor
        assert r.findings
        assert all(not f["zero_sets_match"] for f in r.findings)
        agree = r.checked - len(r.findings)
        assert agree > 0

    def test_verify_lines_match_golden(self, imprimitive_result, capsys):
        assert_verify_lines([imprimitive_result], "verify_imprimitive.txt", capsys)

    def test_findings_csv_matches_golden_digest(self, imprimitive_result, tmp_path, capsys):
        """The findings CSV that `verify --suite imprimitive --out` writes,
        one row per disagreement, by its sha256."""
        path = tmp_path / "findings.csv"
        cli._report_suites([imprimitive_result], str(path))
        capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == (GOLDEN / "verify_imprimitive_findings.sha256").read_text().strip()
