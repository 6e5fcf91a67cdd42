import cmath
import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mrwitness import _scan, arith, characters, equidist, expsums, suites, witness
from mrwitness.arith import Factorization, euler_phi, factorize, is_prime


def _partition(n_max):
    (partition,) = [r for r in suites.suite_partition_rabin(n_max) if r.name == "partition"]
    return partition


def test_partition_passes_on_the_default_engine():
    r = _partition(301)
    assert r.ok and r.failures == 0 and r.checked == 150


def _corrupt_sets(monkeypatch, corrupt):
    """Pass the liar sets of every n through corrupt(n, sets) on their way
    to `classify_all`, and so to the mask built from them."""
    original = _scan.liar_sets

    def liar_sets(n, d, factors):
        sets = original(n, d, factors)
        corrupt(n, sets)
        return sets

    monkeypatch.setattr(_scan, "liar_sets", liar_sets)


def _corrupt_mask(monkeypatch, corrupt):
    """Pass the non-witness mask of every n through corrupt(n, mask)."""
    original = _scan.nonwitness_mask

    def nonwitness_mask(n, primes, sets):
        mask = original(n, primes, sets)
        corrupt(n, mask)
        return mask

    monkeypatch.setattr(_scan, "nonwitness_mask", nonwitness_mask)


def _keep_marking(monkeypatch, lost):
    """Keep the mask marking lost[n], the liar a set corruption dropped."""

    def mark(n, mask):
        if n in lost:
            mask[lost[n]] = True

    _corrupt_mask(monkeypatch, mark)


def _composites_with_witnesses(n_max):
    return sum(not is_prime(n) for n in range(9, n_max + 1, 2))


def test_partition_catches_a_witness_reported_as_a_liar(monkeypatch):
    """A witness added to the d-th roots is caught by the set sizes alone:
    the pow re-check is switched off."""

    def add_witness(n, sets):
        witnesses = np.flatnonzero(~_scan.nonwitness_mask(n, factorize(n).primes, sets))
        if len(witnesses):
            sets[0] = np.append(sets[0], witnesses[0])

    _corrupt_sets(monkeypatch, add_witness)
    monkeypatch.setattr(suites, "_pow_recheck", lambda batch: set())
    r = _partition(301)
    assert not r.ok and r.failures == _composites_with_witnesses(301)


def test_partition_catches_a_moved_stage(monkeypatch):
    """One stage-0 residue other than n - 1 moved to stage 1."""

    def move(n, sets):
        i = np.flatnonzero(sets[1] != n - 1)[:1]
        if len(i):
            if len(sets) == 2:
                sets.append(sets[1][:0])
            sets[2] = np.append(sets[2], sets[1][i])
            sets[1] = np.delete(sets[1], i)

    _corrupt_sets(monkeypatch, move)
    r = _partition(301)
    assert not r.ok and r.failures > 0


def test_partition_catches_a_repeated_liar(monkeypatch):
    """The last d-th root replaced by a second 1, while the mask still marks
    the root it lost: sizes, marks and the mask count all hold, so only the
    check for repeats sees it."""
    lost = {}

    def repeat(n, sets):
        roots = sets[0]
        if len(roots) > 1:
            lost[n] = roots[-1]
            sets[0] = np.append(roots[:-1], 1)

    _corrupt_sets(monkeypatch, repeat)
    _keep_marking(monkeypatch, lost)
    r = _partition(301)
    assert not r.ok and r.failures == len(lost) > 0


def test_partition_catches_a_mask_missing_a_liar(monkeypatch):
    """1, a d-th root of every n, left unmarked."""
    _corrupt_mask(monkeypatch, lambda n, mask: mask.__setitem__(1, False))
    r = _partition(301)
    assert not r.ok and r.failures == r.checked


def test_partition_catches_1_traded_into_stage_0(monkeypatch):
    """1 and the first stage-0 residue trade sets: sizes, marks and the
    mask hold.  The pow re-check of each liar against the set it came from
    sees it, and it always takes 1 and n - 1 of a prime."""

    def trade(n, sets):
        sets[0][0], sets[1][0] = sets[1][0], sets[0][0]  # 1 leads the CRT order

    _corrupt_sets(monkeypatch, trade)
    r = _partition(301)
    assert not r.ok and r.failures == r.checked


@pytest.mark.parametrize("lost", [1, 0])  # a liar, a multiple of every prime of n
def test_partition_catches_a_mask_trading_a_residue_for_a_witness(monkeypatch, lost):
    """The mask leaves one non-witness unmarked and marks the first witness
    instead: the count holds wherever n has witnesses, so only the marks
    see it there."""

    def trade(n, mask):
        witnesses = np.flatnonzero(~mask)
        mask[lost] = False
        mask[witnesses[:1]] = True

    _corrupt_mask(monkeypatch, trade)
    r = _partition(301)
    assert not r.ok and r.failures == r.checked


def test_partition_catches_a_multiple_reported_as_a_liar(monkeypatch):
    """The last d-th root of a composite replaced by a prime of n, while the
    mask still marks the root it lost; the pow re-check is switched off."""
    lost = {}

    def swap(n, sets):
        p = factorize(n).primes[0]
        if len(sets[0]) > 1 and p < n:
            lost[n] = sets[0][-1]
            sets[0][-1] = p

    _corrupt_sets(monkeypatch, swap)
    _keep_marking(monkeypatch, lost)
    monkeypatch.setattr(suites, "_pow_recheck", lambda batch: set())
    r = _partition(301)
    assert not r.ok and r.failures == len(lost) > 0


def test_partition_catches_a_mask_marking_a_witness(monkeypatch):
    def mark_witness(n, mask):
        witnesses = np.flatnonzero(~mask)
        if len(witnesses):
            mask[witnesses[0]] = True

    _corrupt_mask(monkeypatch, mark_witness)
    r = _partition(301)
    assert not r.ok and r.failures == _composites_with_witnesses(301)


def test_partition_catches_a_wrong_sparse_nonwitness_array(monkeypatch):
    """The sorted non-witnesses of 1363 = 29 * 47 lose one multiple of 47.
    The odd n below 1357 read theirs off the mask, so 1363 is the second n
    whose array the suite compares with the mask."""
    original = _scan.nonwitness_array

    def nonwitness_array(n, primes, sets):
        out = original(n, primes, sets)
        return out[out != 47] if n == 1363 else out

    monkeypatch.setattr(_scan, "nonwitness_array", nonwitness_array)
    r = _partition(1401)
    assert not r.ok and r.failures == 1


@pytest.mark.parametrize("recheck", [True, False])
def test_partition_sees_liars_traded_between_sets_only_by_pow(monkeypatch, recheck):
    """In a composite, a d-th root other than 1 and a stage-0 liar other
    than n - 1 trade sets: sizes, marks and the mask all hold, so only the
    pow re-check of each liar against the set it came from sees it."""
    traded = set()

    def trade(n, sets):
        i = np.flatnonzero(sets[0] != 1)[:1]
        j = np.flatnonzero(sets[1] != n - 1)[:1]
        if len(i) and len(j) and not is_prime(n):
            sets[0][i], sets[1][j] = sets[1][j], sets[0][i]
            traded.add(n)

    _corrupt_sets(monkeypatch, trade)
    if not recheck:
        monkeypatch.setattr(suites, "_pow_recheck", lambda batch: set())
    r = _partition(301)
    assert traded and r.failures == (len(traded) if recheck else 0)


@pytest.mark.parametrize("n_max", [7, 9])
def test_rabin_expects_equality_at_9_only_when_in_range(n_max):
    (rabin,) = [r for r in suites.suite_partition_rabin(n_max) if r.name == "rabin"]
    assert rabin.ok and rabin.checked == (n_max >= 9)
    assert f"equality exactly at {[9] if n_max >= 9 else []}" in rabin.summary


def test_imprimitive_passes():
    (r,) = suites.suite_imprimitive(40, 9)
    assert r.ok and r.failures == 0 and r.checked > 0


def test_imprimitive_catches_a_wrong_reduction(monkeypatch):
    """An inducing character replaced by the trivial one breaks the reduced
    path, which is now a hard check wherever every prime of n/q divides q
    (n = 9, q = 3, k = 3 among others); the vanishing path is untouched."""
    original = characters.DirichletCharacter.conductor

    def conductor(self):
        q, chi1 = original(self)
        return q, chi1.group.character_by_index(0)

    monkeypatch.setattr(characters.DirichletCharacter, "conductor", conductor)
    (r,) = suites.suite_imprimitive(40, 9)
    assert not r.ok and r.failures > 0
    assert all(f["path"] == "reduced" for f in r.findings if f["zero_sets_match"])


def test_imprimitive_findings_match_the_reduction_formula():
    """Every finding is an imprimitive character whose reduced path
    differs from tau(chi, k) by more than the error budgets of the values
    compared, recomputed here from the term-by-term sums."""
    (r,) = suites.suite_imprimitive(40, 9)
    assert r.findings
    for f in r.findings[:: max(1, len(r.findings) // 25)]:
        chi = characters.CharacterGroup(f["n"]).character_by_index(f["char_index"])
        red = expsums.gauss_sum_reduced(chi, f["k"])
        assert (red.conductor, red.path) == (f["conductor"], f["path"])
        assert abs(red.brute.value - complex(f["tau_re"], f["tau_im"])) < 1e-9
        assert abs(red.difference - f["difference"]) < 1e-9


def test_imprimitive_catches_an_fft_off_the_brute_sum(monkeypatch):
    """A shift of the term-by-term sum by 1e-9 is seen by the seeded sample
    alone, at every (n, k): the reductions take both sides from the FFT."""
    original = expsums.gauss_sum_brute

    def gauss_sum_brute(chi, k):
        s = original(chi, k)
        return expsums.ComplexSum(s.real + 1e-9, s.imag, s.term_count, s.error_budget)

    monkeypatch.setattr(expsums, "gauss_sum_brute", gauss_sum_brute)
    (r,) = suites.suite_imprimitive(40, 9)
    assert not r.ok and r.failures == 38 * 9
    assert "seeded character" in r.summary


def test_imprimitive_fft_shift_fails_the_hard_reductions(monkeypatch):
    """A shift of every FFT value by 1e-9 is far beyond the budgets of
    n <= 40: besides the sample, every reduction disagrees, the exact ones
    where every prime of n/q divides q among them."""
    original = expsums.gauss_sums
    monkeypatch.setattr(expsums, "gauss_sums", lambda group, k: original(group, k) + 1e-9)
    (r,) = suites.suite_imprimitive(40, 9)
    hard = sum(f["zero_sets_match"] for f in r.findings)
    assert not r.ok and len(r.findings) == r.checked and hard > 0
    assert r.failures == 38 * 9 + hard


def test_characters_catches_a_trivial_inducing_character(monkeypatch):
    """Every nontrivial character mod n <= 60 then differs on the units
    from the character its conductor returns: one failure each."""
    trivial = characters.CharacterGroup(1).character_by_index(0)
    monkeypatch.setattr(characters.DirichletCharacter, "conductor", lambda self: (1, trivial))
    (r,) = suites.suite_characters(10, 10)
    assert not r.ok and r.failures == sum(euler_phi(n) - 1 for n in range(2, 61))


def test_gauss_primitive_catches_a_scaled_tau(monkeypatch):
    original = expsums.gauss_sums

    def gauss_sums(group, k):
        taus = original(group, k)
        if group.n == 7:
            taus[3] *= 1.001  # every nontrivial character mod a prime is primitive
        return taus

    monkeypatch.setattr(expsums, "gauss_sums", gauss_sums)
    (r,) = suites.suite_gauss_primitive(20)
    assert not r.ok and r.failures == 3


def test_arith_passes():
    (r,) = suites.suite_arith(1000, 50_000)
    assert r.ok and r.failures == 0


@pytest.mark.parametrize("wrong", [((7, 1), (143, 1)), ((7, 1), (11, 1), (17, 1))])
def test_arith_catches_a_wrong_factorization(monkeypatch, wrong):
    """1001 = 7 * 11 * 13 reported with a composite part, which only the
    sieve catches, or with a wrong prime, which the round trip catches."""
    original = suites.factorize
    monkeypatch.setattr(suites, "factorize", lambda n: Factorization(n, wrong) if n == 1001 else original(n))
    (r,) = suites.suite_arith(100, 2000)
    assert not r.ok and r.failures == 1


def test_arith_catches_a_wrong_rho_split(monkeypatch):
    """Only the seeded semiprimes past the trial bound reach Brent's rho;
    a rho that returns 2 makes each of them come back wrong.  (A rho that
    returns 1 or n would make factorize loop forever.)"""
    monkeypatch.setattr(arith, "_brent_rho", lambda n: 2)
    (r,) = suites.suite_arith(100, 10_000)
    assert not r.ok and r.failures == suites.RHO_SEMIPRIMES


def test_arith_catches_phi_off_by_one(monkeypatch):
    original = suites.euler_phi
    monkeypatch.setattr(suites, "euler_phi", lambda n: original(n) + (n == 60))
    (r,) = suites.suite_arith(100, 2000)
    assert not r.ok and r.failures == 1


def test_run_suites_returns_request_order(monkeypatch):
    calls = []

    def suite(*names):
        def fn():
            calls.append(names)
            return [suites.SuiteResult(name, 1, 0, "") for name in names]
        return fn

    pair = suite("partition", "rabin")
    monkeypatch.setattr(suites, "_REGISTRY", {
        "partition": pair, "rabin": pair, "ramanujan": suite("ramanujan"),
    })
    results = suites.run_suites(["partition", "ramanujan", "rabin", "partition"])
    assert [r.name for r in results] == ["partition", "ramanujan", "rabin"]
    assert calls == [("partition", "rabin"), ("ramanujan",)]


def test_suite_result_ok_is_failures_zero_and_assignable():
    assert suites.SuiteResult("x", 3, 0, "").ok
    r = suites.SuiteResult("x", 3, 2, "")
    assert not r.ok and r.verdict == "FAIL" and r.hard and r.elapsed_s == 0.0
    r.ok = True  # a plain attribute, not a property
    assert r.verdict == "PASS"
    assert not suites.SuiteResult("x", 1, 0, "", hard=False).hard


def test_run_suites_stamps_each_function_run_time(monkeypatch):
    def pair():
        return [suites.SuiteResult("partition", 1, 0, ""), suites.SuiteResult("rabin", 1, 0, "")]

    ticks = itertools.count()
    monkeypatch.setattr(suites, "_REGISTRY", {"partition": pair, "rabin": pair})
    monkeypatch.setattr(suites, "time", SimpleNamespace(perf_counter=lambda: 0.5 * next(ticks)))
    assert [r.elapsed_s for r in suites.run_suites(["rabin", "partition"])] == [0.5, 0.5]
    assert [r.elapsed_s for r in pair()] == [0.0, 0.0]  # a direct call is not timed


def test_run_suites_sets_elapsed_on_every_result():
    results = suites.run_suites(["figure1", "trend"])
    assert [r.name for r in results] == ["figure1", "trend"]
    assert all(r.ok and r.elapsed_s > 0 for r in results)


def _brute_cancellation_ratio(n_max):
    """(max |S'|/sqrt(n), the least n attaining it) over the power-residue
    sums of `suite_cancellation_ratio`: the liars of each odd composite
    n <= n_max found by pow and grouped into the d-th roots and the stages
    of -1, each group summed ascending with cmath."""
    best, best_n = 0.0, 0
    for n in range(9, n_max + 1, 2):
        if all(n % p for p in range(3, math.isqrt(n) + 1, 2)):
            continue
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        groups: dict = {}
        for w in range(1, n):
            if math.gcd(w, n) != 1:
                continue
            x = pow(w, d, n)
            if x == 1:
                groups.setdefault("root", []).append(w)
                continue
            for j in range(s):
                if x == n - 1:
                    groups.setdefault(j, []).append(w)
                    break
                x = x * x % n
        for k in suites.RATIO_KS:
            for ws in groups.values():
                ratio = abs(sum(cmath.exp(2j * cmath.pi * (k * w % n) / n) for w in ws)) / math.sqrt(n)
                if ratio > best:
                    best, best_n = ratio, n
    return best, best_n


def test_ramanujan_catches_a_zero_envelope(monkeypatch):
    monkeypatch.setattr(suites, "sigma", lambda g: 0)
    (r,) = suites.suite_ramanujan(30, 4)
    nonzero = sum(s.closed != 0 for n in range(1, 31) for s in expsums.ramanujan(n, range(1, 5)))
    assert not r.ok and r.failures == nonzero > 0


def test_cancellation_ratio_passes():
    (r,) = suites.suite_cancellation_ratio(3000)
    assert r.ok and r.failures == 0 and r.checked > 0


def test_cancellation_ratio_maximum_matches_a_brute_search():
    (r,) = suites.suite_cancellation_ratio(600)
    match = re.search(r"max \|S'\|/sqrt\(n\) = ([0-9.]+) at n = (\d+);", r.summary)
    best, best_n = _brute_cancellation_ratio(600)
    assert int(match[2]) == best_n
    assert float(match[1]) == pytest.approx(best, abs=1e-6)


def test_cancellation_ratio_catches_a_zero_envelope(monkeypatch):
    monkeypatch.setattr(suites, "sigma", lambda k: 0)
    (r,) = suites.suite_cancellation_ratio(200)
    assert not r.ok and r.failures == r.checked


def test_weyl_routes_pass_and_name_their_worst_cell():
    """At the small moduli alone the summary names the cell with the
    fewest shared digits, and log10(|S_k| / residual) there is that count."""
    (r,) = suites.suite_weyl_routes(n_max=400, large=[])
    assert r.ok and r.checked == 10 * sum(not is_prime(n) for n in range(9, 401, 2))
    match = re.search(r"fewest digits held ([0-9.]+) \(n = (\d+), k = (\d+),", r.summary)
    n, k = int(match[2]), int(match[3])
    scan = witness.classify_all(n)
    s = equidist._weyl_sums(scan, k)[-1]
    z = expsums._phase_sums(scan.witness_block, [k], n, scan.counts.witness)[0]
    assert float(match[1]) == pytest.approx(math.log10(abs(s) / abs(s - z)), abs=0.05)


def test_weyl_routes_catch_a_liar_sum_off_by_twice_its_budget(monkeypatch):
    """One liar sum of 2074757 (k = 1) moved by twice its own budget
    n * 2**-50, in the direction that widens the routes' residual, is past
    the budget of the comparison (both sums' budgets, 2 n * 2**-50)."""
    n = 2_074_757
    (clean,) = suites.suite_weyl_routes(n_max=0, large=[n])
    assert clean.ok and clean.checked == 10
    scan = witness.classify_all(n)
    residual = (equidist._weyl_sums(scan, 1)[0]
                - expsums._phase_sums(scan.witness_block, [1], n, scan.counts.witness)[0])
    shift = 2 * n * expsums.BUDGET_SCALE * residual / abs(residual)
    original = equidist._phase_sums

    def perturbed(residues, ks, modulus, *args):
        sums = original(residues, ks, modulus, *args)
        sums[0] -= shift  # so S_1 = c_n(1) - (liar sum) moves by +shift
        return sums

    monkeypatch.setattr(equidist, "_phase_sums", perturbed)
    (r,) = suites.suite_weyl_routes(n_max=0, large=[n])
    assert not r.ok and r.failures == 1


def test_characters_passes():
    (r,) = suites.suite_characters(60, 200)
    assert r.ok and r.failures == 0 and r.checked > 0


def _bach_by_loop(n_max, least):
    """The bach verdict taken at every odd composite by trial division,
    with math.log at each: (checked, max least witness, max ratio,
    findings)."""
    checked, max_lw, max_ratio, findings = 0, 0, 0.0, []
    for n in range(9, n_max + 1, 2):
        if all(n % p for p in range(3, math.isqrt(n) + 1, 2)):
            continue
        lw, bound = least(n), 2.0 * math.log(n) ** 2
        checked, max_lw, max_ratio = checked + 1, max(max_lw, lw), max(max_ratio, lw / bound)
        if lw > bound:
            findings.append({"n": n, "least_witness": lw, "bound": bound})
    return checked, max_lw, max_ratio, findings


def _bach_verdict(r):
    lw, ratio = re.search(r"max least witness (\d+), max witness/bound ratio ([\d.]+)$", r.summary).groups()
    return r.checked, int(lw), ratio, r.findings


@pytest.mark.parametrize("n_max", [8, 9, 3001])
def test_bach_matches_the_scalar_loop(n_max):
    checked, max_lw, max_ratio, findings = _bach_by_loop(n_max, lambda n: witness.least_witness(n)[0])
    (r,) = suites.suite_bach(n_max)
    assert _bach_verdict(r) == (checked, max_lw, f"{max_ratio:.4f}", findings)


def test_bach_findings_come_from_math_log(monkeypatch):
    """Made-up least witnesses that break the bound at many moduli: the
    findings, their bounds and the printed maximum are those of math.log
    at every modulus, though the batch screens with np.log."""
    monkeypatch.setattr(suites, "least_witnesses", lambda ns: (np.asarray(ns) % 97 + 2, None))
    checked, max_lw, max_ratio, findings = _bach_by_loop(5001, lambda n: n % 97 + 2)
    (r,) = suites.suite_bach(5001)
    assert len(findings) > 50
    assert _bach_verdict(r) == (checked, max_lw, f"{max_ratio:.4f}", findings)
