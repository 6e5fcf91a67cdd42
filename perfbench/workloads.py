"""The four benchmark workloads: seeded inputs, the timed op loop, output checks.

Each workload is a closed loop: one caller issues the next op when the
previous one has returned.  A run stops at the first boundary (session,
window, op or suite pass) after the summed op time reaches the requested
seconds, so every run measures whole units of the same mix.  Output checks
run outside the timed region and use routes independent of the code that
produced the output wherever one exists (`numtheory`, scalar `classify`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import numtheory as nt


@dataclass
class Outcome:
    """What one timed loop did: op counts, latencies and listed failures."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    # (ops, seconds, end index into latencies_ms) per chunk: a session, a
    # window, a slice of a character pass or a suite pass
    chunks: list[tuple[int, float, int]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    stdout_bytes: int = 0
    # peak resident memory of the process when the timed loop ended: read
    # before single-n's reference scan, the one check that allocates much
    peak_rss_mb: float = 0.0

    def end_timed(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close_chunk(self, ops: int, seconds: float) -> None:
        self.chunks.append((ops, seconds, len(self.latencies_ms)))

    def ops_per_s(self) -> float:
        """Median over the run's chunks of ops per second of op time: robust
        to bursts of noise from other tenants of the machine."""
        if not self.chunks:
            return self.attempted / self.busy_s
        return statistics.median(ops / s for ops, s, _ in self.chunks)

    def latency_ms(self) -> tuple[float, float, float]:
        """(p50, p90, p99) of op latency, each the median over chunks of the
        chunk's own quantile, which bursts of machine noise move less than
        quantiles over all ops.  Over all ops when no chunk has two."""
        bounds = [0] + [end for *_, end in self.chunks]
        parts = [self.latencies_ms[a:b] for a, b in zip(bounds, bounds[1:]) if b - a >= 2]
        if not parts:
            parts = [self.latencies_ms * (1 if len(self.latencies_ms) >= 2 else 2)]
        cuts = [statistics.quantiles(p, n=100, method="inclusive") for p in parts]
        return (statistics.median(statistics.median(p) for p in parts),
                statistics.median(c[89] for c in cuts),
                statistics.median(c[98] for c in cuts))

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.failures.append({"op": op, "reason": reason})

    def check(self, op: str, problems: list[str]) -> None:
        if problems:
            self.fail(op, "; ".join(problems))


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _timed(call):
    """(result, seconds, exception) of call()."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        return None, time.perf_counter() - t0, exc
    return result, time.perf_counter() - t0, None


def _set_op(tracer, op: str | None) -> None:
    if tracer is not None:
        tracer.op = op


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


# --------------------------------------------------------------------- single-n

# The pow route's cost is set by n, s = v2(n - 1) and the popcount of d, and
# the witness-set passes scale with #W, about phi(n).  The band fixes s = 2
# and the popcount, and keeps factors below SINGLE_N_MIN_FACTOR out (so that
# phi(n) / n > 0.97, as for a candidate prime a user would test), so that
# seeds vary the factorization without changing the work per op.
SINGLE_N_BAND = (2_000_000, 2_100_000)
SINGLE_N_POPCOUNT = 10
SINGLE_N_MIN_FACTOR = 100
SINGLE_N_RESIDUES = 200
HISTOGRAM_BINS = 10_000
WEYL_K = 10


def single_n_inputs(seed: int) -> dict:
    rng = random.Random(f"single-n:{seed}")
    lo, hi = SINGLE_N_BAND
    while True:
        # n = 5 mod 8 fixes s = v2(n - 1) = 2
        n = rng.randrange(lo + (5 - lo) % 8, hi, 8)
        if bin((n - 1) >> 2).count("1") != SINGLE_N_POPCOUNT:
            continue
        fac = nt.factor(n)
        if len(fac) > 1 or fac[0][1] > 1:
            if fac[0][0] > SINGLE_N_MIN_FACTOR:
                break
    a = round(rng.uniform(0.0, 0.5), 6)
    b = round(a + rng.uniform(0.1, 0.5), 6)
    return {
        "why": "one CLI user's session at one large n: every entry point classifies "
               "all n residues again, so the array scan dominates",
        "n": n,
        "a": a,
        "b": b,
        "k": rng.randrange(1, 1000),
        "residues": sorted(rng.sample(range(n), SINGLE_N_RESIDUES)),
        "properties": {
            "n": n,
            "s": nt.v2(n - 1),
            "d_popcount": SINGLE_N_POPCOUNT,
            "omega": len(fac),
            "phi": nt.phi(n),
            "divisor_count": nt.divisor_count(n),
            "factors": fac,
        },
    }


def _single_n_argvs(inp: dict) -> list[list[str]]:
    n = str(inp["n"])
    return [
        ["witnesses", "--n", n],
        ["bounds", "--n", n],
        ["histogram", "--n", n, "--bins", str(HISTOGRAM_BINS), "--out", "-"],
        ["interval", "--n", n, "--a", repr(inp["a"]), "--b", repr(inp["b"])],
        ["weyl", "--n", n, "--k", str(WEYL_K)],
        ["sums", "--n", n, "--k", str(inp["k"])],
    ]


def run_single_n(inp: dict, seconds: float, tracer=None) -> Outcome:
    from mrwitness import cli, star_discrepancy

    out = Outcome()
    outputs = []
    session = 0
    while out.busy_s < seconds:
        session_start = out.busy_s
        for argv in _single_n_argvs(inp):
            op = f"session{session}/{argv[0]}"
            _set_op(tracer, op)
            buf = io.StringIO()

            def call(argv=argv, buf=buf):
                with contextlib.redirect_stdout(buf):
                    return cli.main(argv)

            rc, dt, exc = _timed(call)
            text = buf.getvalue()
            out.stdout_bytes += len(text.encode())
            outputs.append((op, argv[0], rc, text, exc))
            out.busy_s += dt
            out.latencies_ms.append(dt * 1e3)
        op = f"session{session}/star_discrepancy"
        _set_op(tracer, op)
        value, dt, exc = _timed(lambda: star_discrepancy(inp["n"]))
        outputs.append((op, "star_discrepancy", value, None, exc))
        out.busy_s += dt
        out.latencies_ms.append(dt * 1e3)
        out.close_chunk(len(_single_n_argvs(inp)) + 1, out.busy_s - session_start)
        session += 1
    _set_op(tracer, None)
    out.end_timed()

    with _paused(tracer):
        ref = SingleNReference(inp)
        for op, kind, rc, text, exc in outputs:
            out.attempted += 1
            if exc is not None:
                out.fail(op, _raised(exc))
                continue
            out.check(op, ref.problems(kind, rc, text))
    return out


def exact_star_discrepancy(positions: np.ndarray, n: int) -> Fraction:
    """D* of the points w / n from its definition, sup over t in [0, 1] of
    |#{x < t} / N - t| (and of its right limit, with #{x <= t}), in integers.

    The sup is reached at a point w / n, so it is the largest of
    |count * n - w * N| / (N * n) over the points w, with count the number of
    points below w and the number at or below it.  Counts come from a search
    in the sorted positions, not from their ranks.
    """
    w = np.asarray(positions, dtype=np.int64)
    big_n = len(w)
    order = np.sort(w)
    worst = 0
    for side in ("left", "right"):
        count = np.searchsorted(order, w, side=side).astype(np.int64)
        worst = max(worst, int(np.abs(count * n - w * big_n).max()))
    return Fraction(worst, big_n * n)


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class SingleNReference:
    """Expected single-n outputs: class counts by Monier's formula, witness
    positions from one classify_all made after the timed loop and checked
    against scalar classify on the seeded residues, and D* in exact integers."""

    def __init__(self, inp: dict):
        from mrwitness import WitnessClass, classify, classify_all

        self.n = n = inp["n"]
        self.inp = inp
        self.counts = nt.class_counts(n)
        self.witness_count = self.counts["witness"]
        scan = classify_all(n)
        self.witnesses = np.nonzero(scan.codes == 0)[0]
        self.scan_problems = []
        if len(self.witnesses) != self.witness_count:
            self.scan_problems.append(
                f"classify_all finds {len(self.witnesses)} witnesses, Monier {self.witness_count}")
        codes = {WitnessClass.WITNESS: 0, WitnessClass.NON_COPRIME: 1,
                 WitnessClass.DTH_ROOT: 2, WitnessClass.MINUS_ONE: 3}
        for w in inp["residues"]:
            c = classify(n, w)
            stage = -1 if c.stage is None else c.stage
            if codes[c.category] != int(scan.codes[w]) or stage != int(scan.stages[w]):
                self.scan_problems.append(f"classify and classify_all disagree at w={w}")
                break
        self.dstar = float(exact_star_discrepancy(self.witnesses, n))

    def problems(self, kind: str, rc, text: str | None) -> list[str]:
        if kind == "star_discrepancy":
            # the package works in float64 on points below 1: a few units in
            # the last place of 1 is all the rounding it can show
            if not math.isclose(rc, self.dstar, rel_tol=1e-12, abs_tol=1e-15):
                return [f"D* {rc} != {self.dstar} (exact)"]
            return []
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return getattr(self, f"_check_{kind}")(text)
        except (KeyError, IndexError, ValueError) as exc:
            return [f"unreadable {kind} output: {type(exc).__name__}: {exc}"]

    def _check_witnesses(self, text):
        kv = _kv(text)
        c = self.counts
        got = {key: int(kv[key]) for key in ("witnesses", "non_coprime", "dth_root", "minus_one")}
        want = {"witnesses": c["witness"], "non_coprime": c["non_coprime"],
                "dth_root": c["dth_root"], "minus_one": c["minus_one"]}
        out = list(self.scan_problems)
        if got != want:
            out.append(f"class counts {got} != Monier {want}")
        if sum(got.values()) != self.n:
            out.append("class counts do not sum to n")
        return out

    def _check_bounds(self, text):
        from mrwitness import WitnessClass, classify

        kv = _kv(text)
        n, c = self.n, self.counts
        liars = c["dth_root"] + c["minus_one"]
        lw = int(kv["least_witness"])
        out = []
        if int(kv["witness_count"]) != c["witness"] or int(kv["strong_liar_count"]) != liars:
            out.append("bound counts disagree with Monier")
        if Fraction(kv["paper_witness_fraction"]) != Fraction(c["witness"], n - 1):
            out.append("paper_witness_fraction wrong")
        if kv["rabin_ok_liar_def"] != ("true" if 4 * liars <= n - 1 else "false"):
            out.append("rabin_ok_liar_def wrong")
        if classify(n, lw).category is not WitnessClass.WITNESS:
            out.append(f"least_witness {lw} is not a witness")
        if any(math.gcd(a, n) == 1 and classify(n, a).category is WitnessClass.WITNESS
               for a in range(2, lw)):
            out.append(f"a witness below least_witness {lw}")
        if kv["bach_ok"] != ("true" if lw <= 2.0 * math.log(n) ** 2 else "false"):
            out.append("bach_ok wrong")
        return out

    def _check_histogram(self, text):
        lines = text.splitlines()
        kv = _kv(text)
        rows = [line.split(",") for line in lines[1:] if "," in line]
        total = sum(int(cnt) for _, cnt in rows)
        out = []
        if lines[0] != "bin_index,count" or len(rows) != HISTOGRAM_BINS:
            out.append("histogram CSV malformed")
        if not total == int(kv["total_witnesses"]) == self.witness_count:
            out.append(f"histogram holds {total} witnesses, expected {self.witness_count}")
        return out

    def _check_interval(self, text):
        kv = _kv(text)
        n, a, b = self.n, self.inp["a"], self.inp["b"]
        w = self.witnesses
        want = np.count_nonzero((w >= a * n) & (w <= b * n)) / len(w)
        fraction, deviation = float(kv["fraction"]), float(kv["deviation"])
        if abs(fraction - want) > 1e-9 or abs(deviation - abs(want - (b - a))) > 1e-9:
            return [f"interval fraction {fraction} != {want}"]
        return []

    def _check_weyl(self, text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        out = []
        if [int(r[0]) for r in rows] != list(range(1, WEYL_K + 1)):
            out.append("weyl rows malformed")
        for _, mag, ratio in rows:
            if not (0.0 <= float(ratio) <= 1.0
                    and math.isclose(float(ratio), float(mag) / self.witness_count,
                                     rel_tol=1e-9, abs_tol=1e-12)):
                out.append(f"weyl ratio {ratio} != magnitude / #W")
                break
        return out

    def _check_sums(self, text):
        rep = json.loads(text)
        c = self.counts
        budget = rep["witness_sum"]["error_budget"]
        out = []
        if rep["k"] != self.inp["k"]:
            out.append("sums reports another k")
        for key in ("residual_total", "residual_partition"):
            if not rep[key] < budget:
                out.append(f"{key} {rep[key]:.3e} not below the error budget {budget:.3e}")
        counts = {
            "witness": rep["witness_sum"]["term_count"],
            "non_coprime": rep["shared_factor_sum"]["term_count"],
            "dth_root": rep["dth_root_sum"]["term_count"],
            "minus_one": sum(cs["term_count"] for cs in rep["per_stage_sums"]),
        }
        if counts != c or rep["nonwitness_sum"]["term_count"] != self.n - c["witness"]:
            out.append(f"sum term counts {counts} != Monier {c}")
        if rep["stage_duplicates"] != 0:
            out.append("stage sets overlap")
        return out


# ------------------------------------------------------------------- range-scan

RANGE_SCAN_START = (19_001, 21_001)
RANGE_SCAN_WIDTH = 1_600
SCAN_K_MAX = 10  # equidist.scan's default


def range_scan_inputs(seed: int) -> dict:
    rng = random.Random(f"range-scan:{seed}")
    lo = rng.randrange(*RANGE_SCAN_START, 2)
    hi = lo + RANGE_SCAN_WIDTH - 1
    odd = list(range(lo, hi + 1, 2))
    n_values = [n for n in odd if not nt.is_prime(n)]
    return {
        "why": "equidist.scan over every odd composite of a window: thousands of small "
               "scan_row calls through the thread pool, where per-call overhead matters",
        "n_values": n_values,
        "properties": {
            "window": [lo, hi],
            "moduli": len(n_values),
            "composite_share": len(n_values) / len(odd),
            "mean_omega": sum(len(nt.factor(n)) for n in n_values) / len(n_values),
            "max_s": max(nt.v2(n - 1) for n in n_values),
        },
    }


def run_range_scan(inp: dict, seconds: float, tracer=None) -> Outcome:
    from mrwitness import equidist

    out = Outcome()
    n_values = inp["n_values"]
    # each op is timed here, around the scan_row that equidist.scan calls on
    # its workers; the row's own runtime_ms is only checked against it
    inner = equidist.scan_row  # the tracer's wrapper in a traced run
    op_ms: dict[int, float] = {}

    def timed_scan_row(n, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(n, *args, **kwargs)
        finally:
            op_ms[n] = (time.perf_counter() - t0) * 1e3

    equidist.scan_row = timed_scan_row
    try:
        window = 0
        while out.busy_s < seconds:
            op_ms.clear()
            _set_op(tracer, f"window{window}")
            rows, dt, exc = _timed(lambda: equidist.scan(n_values))
            _set_op(tracer, None)
            out.busy_s += dt
            out.attempted += len(n_values)
            if exc is not None:
                for n in n_values:
                    out.fail(f"window{window}/n={n}", _raised(exc))
            else:
                for n, row in zip(n_values, rows):
                    if n in op_ms:
                        out.latencies_ms.append(op_ms[n])
                    out.check(f"window{window}/n={n}",
                              scan_row_problems(n, row, op_ms.get(n)))
            out.close_chunk(len(n_values), dt)
            window += 1
    finally:
        equidist.scan_row = inner
    out.end_timed()
    return out


def scan_row_problems(n: int, row, timed_ms: float | None) -> list[str]:
    from mrwitness import WitnessClass, classify

    if row is None:
        return ["no row"]
    if row.error is not None:
        return [f"error row for composite: {row.error}"]
    out = []
    if timed_ms is not None and row.runtime_ms > timed_ms:
        out.append(f"runtime_ms {row.runtime_ms:.6f} exceeds the call's own {timed_ms:.6f} ms")
    witnesses = nt.class_counts(n)["witness"]
    if row.n != n or row.witness_count != witnesses:
        out.append(f"witness_count {row.witness_count} != Monier {witnesses}")
    if classify(n, row.least_witness).category is not WitnessClass.WITNESS:
        out.append(f"least_witness {row.least_witness} is not a witness")
    elif any(math.gcd(a, n) == 1 and classify(n, a).category is WitnessClass.WITNESS
             for a in range(2, row.least_witness)):
        out.append(f"a witness below least_witness {row.least_witness}")
    if len(row.weyl_ratios) != SCAN_K_MAX or not all(0.0 <= r <= 1.0 for r in row.weyl_ratios):
        out.append("weyl ratios malformed")
    if not 1.0 / (2 * witnesses) <= row.star_discrepancy <= 1.0:
        out.append(f"D* {row.star_discrepancy} out of range")
    return out


# ------------------------------------------------------------------- characters

# Moduli come in three strata, CHAR_PER_STRATUM of each per seed: primes,
# odd prime powers and odd moduli with at least four prime factors.  Within
# a stratum the cost per character is similar, so seeds change the moduli
# without changing the mix of work.
CHAR_PER_STRATUM = 4
CHAR_PRIMES = tuple(n for n in range(2_400, 2_800) if nt.is_prime(n))
CHAR_PRIME_POWERS = tuple(sorted(p**e for p in range(3, 50, 2) if nt.is_prime(p)
                                 for e in range(2, 8) if 1_600 <= p**e <= 2_500))
CHAR_COMPOSITES = tuple(n for n in range(2_001, 3_500, 2) if len(nt.factor(n)) >= 4)
DUALS_PER_MODULUS = 2
# A chunk (the unit of the ops_per_s median) is this share of a pass.  A
# dual call costs as much as hundreds of Gauss sums, so the duals are spread
# evenly over the pass: each chunk holds the same number of them.
CHAR_CHUNKS_PER_PASS = 8
GAUSS_TOL = 1e-6  # the tolerance GaussReduction and DualCancellation use


def characters_inputs(seed: int) -> dict:
    rng = random.Random(f"characters:{seed}")
    moduli = [n for stratum in (CHAR_PRIMES, CHAR_PRIME_POWERS, CHAR_COMPOSITES)
              for n in sorted(rng.sample(stratum, CHAR_PER_STRATUM))]
    keyed = []
    props = []
    for m, n in enumerate(moduli):
        phi = nt.phi(n)
        divs = nt.divisors(n)[1:]
        ops = []
        for index in rng.sample(range(phi), phi):
            if rng.random() < 0.75:
                k = rng.randrange(1, n)
                while math.gcd(k, n) != 1:
                    k = rng.randrange(1, n)
            else:  # a multiple of a divisor, so that reduced paths occur
                step = rng.choice(divs)
                k = step * rng.randrange(1, max(2, n // step))
            ops.append(("gauss", n, index, k))
        # interleave by relative position, so that any prefix holds every
        # modulus in proportion to its share of the whole pass
        keyed += [((i + 0.5) / len(ops), n, op) for i, op in enumerate(ops)]
        units = [w for w in range(1, n) if math.gcd(w, n) == 1]
        for j in range(DUALS_PER_MODULUS):
            dual = ("dual", n, rng.choice((2, 3)), rng.choice(units), rng.randrange(1, 1000))
            # the duals of all moduli fall at evenly spaced positions
            keyed.append(((j + (m + 0.5) / len(moduli)) / DUALS_PER_MODULUS, n, dual))
        props.append({
            "n": n,
            "omega": len(nt.factor(n)),
            "phi": phi,
            "divisor_count": len(divs) + 1,
            "primitive_share": nt.primitive_character_count(n) / phi,
        })
    keyed.sort(key=lambda t: t[:2])
    return {
        "why": "gauss_sum_reduced on every character of primes, prime powers and "
               "many-divisor moduli: conductor search and value tables dominate",
        "ops": [op for _, _, op in keyed],
        "properties": {"moduli": props, "ops_per_pass": len(keyed)},
    }


def run_characters(inp: dict, seconds: float, tracer=None) -> Outcome:
    from mrwitness import CharacterGroup, cancellation_sum_dual, gauss_sum_reduced

    out = Outcome()
    groups: dict[int, CharacterGroup] = {}
    ops = inp["ops"]
    chunk = -(-len(ops) // CHAR_CHUNKS_PER_PASS)
    chunk_start = 0.0
    i = 0
    while out.busy_s < seconds or i % chunk:
        spec = ops[i % len(ops)]
        op = f"pass{i // len(ops)}/" + "/".join(map(str, spec))
        _set_op(tracer, op)
        if spec[0] == "gauss":
            _, n, index, k = spec

            def call(n=n, index=index, k=k):
                if n not in groups:
                    groups[n] = CharacterGroup(n)
                return gauss_sum_reduced(groups[n].character_by_index(index), k)
        else:
            _, n, alpha, b, k = spec

            def call(n=n, alpha=alpha, b=b, k=k):
                return cancellation_sum_dual(n, alpha, b, k)

        result, dt, exc = _timed(call)
        out.busy_s += dt
        out.latencies_ms.append(dt * 1e3)
        out.attempted += 1
        if exc is not None:
            out.fail(op, _raised(exc))
        elif spec[0] == "gauss":
            out.check(op, gauss_problems(spec[1], spec[3], result))
        elif not (result.agrees and result.difference < GAUSS_TOL):
            out.fail(op, f"dual route differs by {result.difference:.3e}")
        i += 1
        if i % chunk == 0:
            out.close_chunk(chunk, out.busy_s - chunk_start)
            chunk_start = out.busy_s
    _set_op(tracer, None)
    out.end_timed()
    return out


def gauss_problems(n: int, k: int, red) -> list[str]:
    """Checks on one GaussReduction: |tau| = sqrt(n) (or 0 when gcd(k, n) > 1)
    for primitive characters; brute agreement for the other paths wherever
    every prime of n/q divides q."""
    q = red.conductor
    if n % q != 0:
        return [f"conductor {q} does not divide {n}"]
    if q == n:
        want = math.sqrt(n) if math.gcd(k, n) == 1 else 0.0
        if abs(red.brute.magnitude() - want) >= GAUSS_TOL:
            return [f"primitive |tau| = {red.brute.magnitude():.9f}, expected {want:.9f}"]
        return []
    primes_q = {p for p, _ in nt.factor(q)}
    if {p for p, _ in nt.factor(n // q)} <= primes_q and not red.agrees_with_brute:
        return [f"{red.path} path off brute by {red.difference:.3e} with q={q}"]
    return []


# ---------------------------------------------------------------- verify-suites

# Each suite's bounds are drawn per seed from [lo, hi]; the bands keep every
# suite near a quarter second so that no single suite dominates a pass.
# An empty band runs the suite at its defaults.
SUITE_BANDS = {
    "suite_partition_rabin": {"n_max": (2_000, 2_100)},
    "suite_cancellation_additivity": {"n_max": (700, 735), "k_max": (10, 10)},
    "suite_ramanujan": {"n_max": (300, 315), "k_max": (25, 25)},
    "suite_gauss_primitive": {"n_max": (80, 84), "k_count": (3, 3)},
    "suite_cancellation_dual": {"n_max": (60, 63), "pairs": (8, 8)},
    "suite_bach": {"n_max": (150_000, 157_500)},
    "suite_figure_histogram": {"n": (950_000, 970_000), "bins": (10_000, 10_000)},
    # the trend claim (strict decrease) is made for its default magnitudes only
    "suite_trend": {},
    "suite_imprimitive": {"n_max": (80, 84), "k_max": (10, 10)},
    "suite_cancellation_ratio": {"n_max": (2_500, 2_625)},
    "suite_arith": {"phi_n_max": (500, 525), "roundtrip_n_max": (10_000, 10_500)},
    "suite_characters": {"orth_n_max": (30, 31), "count_n_max": (100, 105)},
}


def verify_suites_inputs(seed: int) -> dict:
    rng = random.Random(f"verify-suites:{seed}")
    calls = {}
    for fn, band in SUITE_BANDS.items():
        calls[fn] = {key: rng.randint(lo, hi) for key, (lo, hi) in band.items()}
    n = calls["suite_figure_histogram"]["n"] | 1
    while nt.is_prime(n):
        n += 2
    calls["suite_figure_histogram"]["n"] = n
    return {
        "why": "every verification suite at reduced bounds: the suites re-derive Gauss "
               "sums, duals and sieves inline, which no library workload runs",
        "calls": calls,
        "properties": {"figure_n": n, "figure_n_omega": len(nt.factor(n)),
                       "suites": len(calls)},
    }


def run_verify_suites(inp: dict, seconds: float, tracer=None) -> Outcome:
    from mrwitness import suites

    out = Outcome()
    passes = 0
    while out.busy_s < seconds:
        pass_start = out.busy_s
        for fn, kwargs in inp["calls"].items():
            op = f"pass{passes}/{fn}"
            _set_op(tracer, op)
            results, dt, exc = _timed(lambda fn=fn, kwargs=kwargs: getattr(suites, fn)(**kwargs))
            out.busy_s += dt
            out.latencies_ms.append(dt * 1e3)
            out.attempted += 1
            if exc is not None:
                out.fail(op, _raised(exc))
                continue
            out.check(op, [f"hard suite {r.name} failed: {r.summary}"
                           for r in results if r.hard and not r.ok]
                      + [f"suite {r.name} checked nothing" for r in results if r.checked < 1])
        out.close_chunk(len(inp["calls"]), out.busy_s - pass_start)
        passes += 1
    _set_op(tracer, None)
    out.end_timed()
    return out


# --------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    run: object
    warm_up: str  # statements run after `import mrwitness` in a fresh interpreter


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single-n", single_n_inputs, run_single_n,
                 "import contextlib, io\nfrom mrwitness import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    cli.main(['witnesses', '--n', '15'])"),
        Workload("range-scan", range_scan_inputs, run_range_scan,
                 "from mrwitness import equidist\nequidist.scan([15, 21])"),
        Workload("characters", characters_inputs, run_characters,
                 "from mrwitness import CharacterGroup, gauss_sum_reduced\n"
                 "gauss_sum_reduced(CharacterGroup(15).character_by_index(1), 1)"),
        Workload("verify-suites", verify_suites_inputs, run_verify_suites,
                 "from mrwitness import suites\nsuites.suite_partition_rabin(n_max=15)"),
    )
}
