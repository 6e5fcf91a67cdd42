import itertools
from types import SimpleNamespace

import numpy as np

from mrwitness import _scan, characters, expsums, suites
from mrwitness.arith import euler_phi, is_prime


def _partition(n_max):
    (partition,) = [r for r in suites.suite_partition_rabin(n_max) if r.name == "partition"]
    return partition


def test_partition_passes_on_the_default_engine():
    r = _partition(301)
    assert r.ok and r.failures == 0 and r.checked == 150


def _corrupt_engine(monkeypatch, corrupt):
    original = _scan.scan_subgroups

    def scan_subgroups(*args):
        codes, stages, overlap = original(*args)
        corrupt(codes, stages)
        return codes, stages, overlap

    monkeypatch.setattr(_scan, "scan_subgroups", scan_subgroups)


def _witness_to_dth_root(codes, stages):
    """One witness reported as a d-th root."""
    witnesses = np.flatnonzero(codes == _scan.CODE_WITNESS)
    if len(witnesses):
        codes[witnesses[0]] = _scan.CODE_DTH_ROOT


def _stage_moved(codes, stages):
    """One minus-one residue other than n - 1 reported one stage later."""
    minus_one = np.flatnonzero(codes == _scan.CODE_MINUS_ONE)[:-1]
    if len(minus_one):
        stages[minus_one[0]] += 1


def test_partition_catches_a_witness_reported_as_a_liar(monkeypatch):
    """Caught by the class sizes read from the codes alone: the pow
    re-check is switched off."""
    _corrupt_engine(monkeypatch, _witness_to_dth_root)
    monkeypatch.setattr(suites, "_pow_recheck", lambda batch: set())
    r = _partition(301)
    composites_with_witnesses = sum(not is_prime(n) for n in range(9, 302, 2))
    assert not r.ok and r.failures == composites_with_witnesses


def test_partition_catches_a_moved_stage(monkeypatch):
    _corrupt_engine(monkeypatch, _stage_moved)
    r = _partition(301)
    assert not r.ok and r.failures > 0


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
        return q, chi1.group.trivial

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
    trivial = characters.CharacterGroup(1).trivial
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
