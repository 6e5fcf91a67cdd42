"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numtheory as nt  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# the layers of the per-layer table (`_scan` spans are named `scan.`)
MODULES = ("witness", "scan", "arith", "equidist", "concurrency", "expsums",
           "characters", "suites", "cli")

# Small inputs in each workload's format, so that one unit of work is quick.
SMALL = {
    "single-n": {"n": 3 * 5 * 7 * 11 * 13 * 17, "a": 0.1, "b": 0.6, "k": 7,
                 "residues": list(range(0, 255255, 997))},
    "range-scan": {"n_values": [9, 15, 21, 25, 27, 33, 35, 1105]},
    "characters": {"ops": [("gauss", 7, i, 1) for i in range(6)]
                   + [("gauss", 45, i, k) for i in range(24) for k in (1, 3, 5)]
                   + [("dual", 15, 2, 1, 1)]},
    "verify-suites": {"calls": {
        "suite_partition_rabin": {"n_max": 101},
        "suite_cancellation_additivity": {"n_max": 45, "k_max": 3},
        "suite_ramanujan": {"n_max": 20, "k_max": 3},
        "suite_gauss_primitive": {"n_max": 12, "k_count": 1},
        "suite_cancellation_dual": {"n_max": 9, "pairs": 2},
        "suite_bach": {"n_max": 200},
        "suite_figure_histogram": {"n": 1105, "bins": 10},
        "suite_trend": {"magnitudes": [100, 1000]},
        "suite_imprimitive": {"n_max": 12, "k_max": 3},
        "suite_cancellation_ratio": {"n_max": 45},
        "suite_arith": {"phi_n_max": 20, "roundtrip_n_max": 200},
        "suite_characters": {"orth_n_max": 6, "count_n_max": 12},
    }},
}


def _run_small(name: str, tracer=None) -> Outcome:
    return WORKLOADS[name].run(SMALL[name], 1e-9, tracer)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = WORKLOADS[name].make_inputs
    first = make(7)
    assert make(7) == first
    assert make(8) != first
    assert first["why"] and "\n" not in first["why"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_inputs_pass_their_checks(name):
    out = _run_small(name)
    assert out.attempted > 0
    assert out.failed == 0, out.failures


def _corrupt_scan(monkeypatch):
    from mrwitness import _scan

    original = _scan.scan_numpy

    def scan_numpy(*args):
        codes, stages, powd, counts, overlap = original(*args)
        w = int(codes.argmin())  # a witness (code 0) becomes a d-th root
        codes[w] = _scan.CODE_DTH_ROOT
        counts = counts.copy()
        counts[0] -= 1
        counts[_scan.CODE_DTH_ROOT] += 1
        return codes, stages, powd, counts, overlap

    monkeypatch.setattr(_scan, "scan_numpy", scan_numpy)


def _corrupt_scan_row(monkeypatch):
    import dataclasses

    from mrwitness import equidist

    original = equidist.scan_row
    monkeypatch.setattr(equidist, "scan_row", lambda *a: dataclasses.replace(
        original(*a), least_witness=1))


def _corrupt_gauss(monkeypatch):
    from mrwitness import expsums

    original = expsums.gauss_sum_brute

    def gauss_sum_brute(chi, k):
        s = original(chi, k)
        return expsums.ComplexSum(s.real + 1e-3, s.imag, s.term_count, s.error_budget)

    monkeypatch.setattr(expsums, "gauss_sum_brute", gauss_sum_brute)


def _corrupt_suite(monkeypatch):
    from mrwitness import suites

    original = suites.suite_ramanujan

    def suite_ramanujan(**kwargs):
        results = original(**kwargs)
        results[0].ok = False
        return results

    monkeypatch.setattr(suites, "suite_ramanujan", suite_ramanujan)


@pytest.mark.parametrize("name, corrupt", [
    ("single-n", _corrupt_scan),
    ("range-scan", _corrupt_scan_row),
    ("characters", _corrupt_gauss),
    ("verify-suites", _corrupt_suite),
])
def test_corrupted_result_raises_fail_frac(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    out = _run_small(name)
    assert out.failed > 0
    assert all(f["op"] and f["reason"] for f in out.failures)


def test_range_scan_times_its_ops_itself(monkeypatch):
    import dataclasses

    from mrwitness import equidist

    original = equidist.scan_row

    def slow_report(*args):
        return dataclasses.replace(original(*args), runtime_ms=1e6)

    monkeypatch.setattr(equidist, "scan_row", slow_report)
    out = _run_small("range-scan")
    assert out.failed == len(SMALL["range-scan"]["n_values"])
    assert all("runtime_ms" in f["reason"] for f in out.failures)
    assert len(out.latencies_ms) == out.attempted and max(out.latencies_ms) < 1e6
    assert equidist.scan_row is slow_report  # the run took its timing wrapper out


def test_latency_quantiles_are_medians_over_chunks():
    out = Outcome(latencies_ms=[1.0, 1.0, 1.0, 9.0, 9.0, 5.0, 5.0, 5.0])
    out.chunks = [(3, 1.0, 3), (2, 1.0, 5), (3, 1.0, 8)]
    assert out.latency_ms()[0] == 5.0
    assert Outcome(latencies_ms=[2.0, 4.0]).latency_ms()[0] == 3.0


def test_exact_star_discrepancy_matches_a_fraction_sweep():
    from bisect import bisect_left, bisect_right
    from fractions import Fraction

    import numpy as np

    from mrwitness import WitnessClass, classify, star_discrepancy

    for n in (9, 15, 91, 561, 1105):
        ws = [w for w in range(n) if classify(n, w).category is WitnessClass.WITNESS]
        brute = max(abs(Fraction(count(ws, w), len(ws)) - Fraction(w, n))
                    for w in ws for count in (bisect_left, bisect_right))
        assert workloads.exact_star_discrepancy(np.array(ws), n) == brute
        assert star_discrepancy(n) == pytest.approx(float(brute), rel=1e-12)


def test_unreadable_cli_output_is_a_failure_not_a_crash():
    ref = workloads.SingleNReference(SMALL["single-n"])
    assert ref.problems("witnesses", 0, "witnesses=oops\n")
    assert ref.problems("sums", 0, "{}")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_match_the_spec():
    spec = _benchmark_spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    out = Outcome(attempted=2, busy_s=1.0, latencies_ms=[1.0, 2.0])
    assert set(run.end_to_end(out, [0.1])) == e2e
    tracer = Tracer()
    assert set(run.per_layer(out, out, tracer)) == layers
    for name in e2e | layers | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    produced = {**run.end_to_end(out, [0.1]), **run.per_layer(out, out, tracer)}
    assert {k: u for k, (_, u) in produced.items()} == units
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_runs_emit_spans_for_every_module():
    seen = set()
    for name in WORKLOADS:
        tracer = Tracer()
        tracer.install()
        try:
            out = _run_small(name, tracer)
        finally:
            tracer.uninstall()
        assert out.failed == 0, out.failures
        assert all(s.op is not None for s in tracer.spans)
        seen |= {s.name.split(".")[0] for s in tracer.spans}
    assert seen >= set(MODULES)


def test_uninstall_restores_the_package():
    from mrwitness import characters, equidist, witness

    before = (witness.classify_all, equidist.classify_all, characters.CharacterGroup.__init__)
    tracer = Tracer()
    tracer.install()
    assert equidist.classify_all is not before[1]
    tracer.uninstall()
    assert (witness.classify_all, equidist.classify_all,
            characters.CharacterGroup.__init__) == before


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "equidist.scan", 0.0, 10.0, None, "op", None),
        Span(2, "equidist.scan_row", 1.0, 6.0, 1, "op", None),  # two worker threads
        Span(3, "equidist.scan_row", 2.0, 8.0, 1, "op", None),
        Span(4, "witness.classify_all", 2.0, 3.0, 2, "op", {"n": 9}),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(3.0), 2: pytest.approx(4.0), 3: pytest.approx(6.0),
                     4: pytest.approx(1.0)}
    m = layer_metrics(spans)
    assert m["concurrency.parallelism"][0] == pytest.approx(11.0 / 10.0)
    assert m["witness.classify_all.residues_per_s"][0] == pytest.approx(9.0)


def test_monier_counts_match_the_full_scan():
    from mrwitness import classify_all

    for n in range(3, 2001, 2):
        c = classify_all(n).counts
        assert nt.class_counts(n) == {"witness": c.witness, "non_coprime": c.non_coprime,
                                      "dth_root": c.dth_root, "minus_one": c.minus_one}, n


def test_primitive_character_count_matches_the_conductors():
    from mrwitness import CharacterGroup

    for n in (2, 4, 8, 9, 12, 15, 16, 27, 45, 60):
        group = CharacterGroup(n)
        assert nt.primitive_character_count(n) == sum(chi.is_primitive for chi in group.characters())


def test_without_a_checkout_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single-n",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
