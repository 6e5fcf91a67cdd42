"""Span recording around the package's public functions, from outside it.

`Tracer.install()` replaces each traced function in every `mrwitness`
namespace that binds it (and each traced method on its class) with a
wrapper that records one span per call: name, start, end, parent span,
the op id current when it started, and a few values taken from the
arguments or the result.  Spans stay in memory until `write()`.

Parents are per thread.  A span opened on a worker thread with nothing
open on that thread takes as parent the innermost span open on the main
thread, which is the `equidist.scan` call that started the worker.  Self
time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

from numtheory import divisors


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict | None


def _classify_all(args, kwargs, result):
    return {"n": int(args[0] if args else kwargs["n"])}


def _least_witness(args, kwargs, result):
    return {"least_witness": int(result[0])}


def _scan_numpy(args, kwargs, result):
    codes, stages, powd = result[:3]
    return {"bytes": int(codes.nbytes + stages.nbytes + powd.nbytes)}


def _pow_all_numpy(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _thread_count(args, kwargs, result):
    return {"workers": int(result)}


def _decomposition_reports(args, kwargs, result):
    terms = 0
    worst = 0.0
    for rep in result:
        terms += rep.witness_sum.term_count + rep.nonwitness_sum.term_count
        terms += rep.dth_root_sum.term_count + sum(cs.term_count for cs in rep.per_stage_sums)
        budget = rep.witness_sum.error_budget
        worst = max(worst, rep.residual_total / budget, rep.residual_partition / budget)
    return {"phase_terms": terms, "residual_over_budget": worst}


def _conductor(args, kwargs, result):
    return {"n": int(args[0].group.n), "q": int(result[0])}


def _cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"sub": argv[0] if argv else ""}


# (module, attribute, span name, values recorded from a call).  A dotted
# attribute names a method, patched on its class.
TARGETS = [
    ("mrwitness.witness", "classify_all", "witness.classify_all", _classify_all),
    ("mrwitness.witness", "least_witness", "witness.least_witness", _least_witness),
    ("mrwitness._scan", "scan_numpy", "scan.scan_numpy", _scan_numpy),
    ("mrwitness._scan", "pow_all_numpy", "scan.pow_all_numpy", _pow_all_numpy),
    ("mrwitness.arith", "factorize", "arith.factorize", None),
    ("mrwitness.arith", "is_prime", "arith.is_prime", None),
    ("mrwitness.equidist", "histogram", "equidist.histogram", None),
    ("mrwitness.equidist", "star_discrepancy_points", "equidist.star_discrepancy_points", None),
    ("mrwitness.equidist", "weyl_battery", "equidist.weyl_battery", None),
    ("mrwitness.equidist", "scan_row", "equidist.scan_row", None),
    ("mrwitness.equidist", "scan", "equidist.scan", None),
    ("mrwitness.concurrency", "thread_count", "concurrency.thread_count", _thread_count),
    ("mrwitness.expsums", "decomposition_reports", "expsums.decomposition_reports",
     _decomposition_reports),
    ("mrwitness.expsums", "gauss_sum_reduced", "expsums.gauss_sum_reduced", None),
    ("mrwitness.expsums", "gauss_sum_brute", "expsums.gauss_sum_brute", None),
    ("mrwitness.expsums", "cancellation_sum_dual", "expsums.cancellation_sum_dual", None),
    ("mrwitness.characters", "CharacterGroup.__init__", "characters.group_build", None),
    ("mrwitness.characters", "DirichletCharacter.conductor", "characters.conductor", _conductor),
    ("mrwitness.characters", "DirichletCharacter.value_table", "characters.value_table", None),
    ("mrwitness.cli", "main", "cli.main", _cli_main),
]

SUITE_FUNCTIONS = (
    "suite_partition_rabin",
    "suite_cancellation_additivity",
    "suite_ramanujan",
    "suite_gauss_primitive",
    "suite_cancellation_dual",
    "suite_bach",
    "suite_figure_histogram",
    "suite_trend",
    "suite_imprimitive",
    "suite_cancellation_ratio",
    "suite_arith",
    "suite_characters",
)

TARGETS += [("mrwitness.suites", fn, f"suites.{fn}", None) for fn in SUITE_FUNCTIONS]

CLI_COMMANDS = ("witnesses", "bounds", "histogram", "interval", "weyl", "sums")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(self._ids)
            stack.append(sid)
            op = self.op
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, op,
                                       {"raised": type(exc).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = record(args, kwargs, result) if record else None
            self.spans.append(Span(sid, name, start, end, parent, op, attrs))
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (output checks call traced code)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def install(self) -> None:
        """Wrap every target in every loaded mrwitness namespace that binds it."""
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "mrwitness" or k.startswith("mrwitness.")]
        for module_name, attr, name, record in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original, record))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, record)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent, op, values."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced run's spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name, pick=None):
        return sum(selfs[s.id] for s in by_name.get(name, ()) if pick is None or pick(s))

    def total_s(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def attr_values(name, key):
        return [s.attrs[key] for s in by_name.get(name, ()) if s.attrs and key in s.attrs]

    m: dict[str, tuple[float, str]] = {}
    ca = "witness.classify_all"
    ca_n = attr_values(ca, "n")
    m[f"{ca}.calls"] = (calls(ca), "count")
    m[f"{ca}.self_s"] = (self_s(ca), "s")
    m[f"{ca}.residues_per_s"] = (sum(ca_n) / total_s(ca) if ca_n else 0.0, "1/s")
    m[f"{ca}.scan_reuse"] = (len(set(ca_n)) / len(ca_n) if ca_n else 0.0, "ratio")
    lw = "witness.least_witness"
    m[f"{lw}.self_s"] = (self_s(lw), "s")
    m[f"{lw}.bases_tried"] = (sum(a - 1 for a in attr_values(lw, "least_witness")), "count")

    m["scan.scan_numpy.self_s"] = (self_s("scan.scan_numpy"), "s")
    m["scan.pow_all_numpy.calls"] = (calls("scan.pow_all_numpy"), "count")
    m["scan.pow_all_numpy.self_s"] = (self_s("scan.pow_all_numpy"), "s")
    m["scan.bytes_computed"] = (sum(attr_values("scan.scan_numpy", "bytes"))
                                + sum(attr_values("scan.pow_all_numpy", "bytes")), "B")

    for fn in ("factorize", "is_prime"):
        m[f"arith.{fn}.calls"] = (calls(f"arith.{fn}"), "count")
        m[f"arith.{fn}.self_s"] = (self_s(f"arith.{fn}"), "s")

    for fn in ("histogram", "star_discrepancy_points", "weyl_battery", "scan_row"):
        m[f"equidist.{fn}.self_s"] = (self_s(f"equidist.{fn}"), "s")

    workers = attr_values("concurrency.thread_count", "workers")
    m["concurrency.workers"] = (max(workers) if workers else 0, "count")
    scan_wall = total_s("equidist.scan")
    m["concurrency.parallelism"] = (total_s("equidist.scan_row") / scan_wall if scan_wall else 0.0,
                                    "ratio")

    dr = "expsums.decomposition_reports"
    m[f"{dr}.self_s"] = (self_s(dr), "s")
    m[f"{dr}.phase_terms"] = (sum(attr_values(dr, "phase_terms")), "count")
    m[f"{dr}.residual_over_budget_max"] = (max(attr_values(dr, "residual_over_budget"), default=0.0),
                                           "ratio")
    m["expsums.gauss_sum_reduced.self_s"] = (self_s("expsums.gauss_sum_reduced"), "s")
    m["expsums.gauss_sum_brute.calls"] = (calls("expsums.gauss_sum_brute"), "count")
    m["expsums.cancellation_sum_dual.self_s"] = (self_s("expsums.cancellation_sum_dual"), "s")

    m["characters.group_build.self_s"] = (self_s("characters.group_build"), "s")
    cd = "characters.conductor"
    m[f"{cd}.calls"] = (calls(cd), "count")
    m[f"{cd}.self_s"] = (self_s(cd), "s")
    ranks = 0
    rank_cache: dict[int, list[int]] = {}
    for s in by_name.get(cd, ()):
        if s.attrs and "q" in s.attrs:
            divs = rank_cache.setdefault(s.attrs["n"], divisors(s.attrs["n"]))
            ranks += divs.index(s.attrs["q"]) + 1
    m[f"{cd}.divisors_tested"] = (ranks, "count")
    m["characters.value_table.calls"] = (calls("characters.value_table"), "count")
    m["characters.value_table.self_s"] = (self_s("characters.value_table"), "s")

    for fn in SUITE_FUNCTIONS:
        m[f"suites.{fn}.s"] = (total_s(f"suites.{fn}"), "s")
        m[f"suites.{fn}.self_s"] = (self_s(f"suites.{fn}"), "s")

    for sub in CLI_COMMANDS:
        m[f"cli.main.{sub}.self_s"] = (
            self_s("cli.main", lambda s, sub=sub: (s.attrs or {}).get("sub") == sub), "s")
    return m
