"""Named verification suites: every module invariant and acceptance-grade
check, runnable from the CLI (`verify --suite NAME`) or from tests.

A suite returns one or more SuiteResults.  `hard` marks suites whose
failures are defects; soft suites record findings (observed violations of
literature bounds, reduction-formula disagreements) that are deliverables
rather than errors.  A suite function that shares one expensive scan
between several results runs once per `run_suites` call, which also times
it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from . import equidist, expsums
from ._scan import CODE_DTH_ROOT, CODE_MINUS_ONE, liar_codes, liar_sets, pow_elementwise
from .arith import TRIAL_LIMIT, euler_phi, factorize, is_prime, primitive_root, sigma
from .characters import CharacterGroup
from .errors import DomainError
from .witness import classify_all, least_witnesses, mr_decompose

PARTITION_N_MAX = 100_000
SUM_N_MAX = 10_000
SUM_K_MAX = 10
RAMANUJAN_N_MAX = 2_000
RAMANUJAN_K_MAX = 50
GAUSS_N_MAX = 500
DUAL_N_MAX = 300
DUAL_PAIRS = 20
BACH_N_MAX = 1_000_000
FIGURE_N = 1_056_331
FIGURE_BINS = 10_000
TREND_MAGNITUDES = (10**3, 10**4, 10**5, 10**6)
WEYL_SPARSE_N = 2_074_757  # 6 strong liars against 2,071,674 witnesses
IMPRIMITIVE_N_MAX = 300
IMPRIMITIVE_K_MAX = 20
RATIO_N_MAX = 100_000
RATIO_KS = (1, 2, 3)
RHO_SEMIPRIMES = 24

ORTHOGONALITY_TOL = 1e-9
MULTIPLICATIVITY_TOL = 1e-12

_RNG_SEED = 741101
_AGREEMENT_RULE = "within the error budgets of the values compared"


@dataclass
class SuiteResult:
    """One verdict of a suite.

    `ok` is set from `failures == 0` and stays a plain attribute.  `hard`
    (keyword only) is False for soft results, whose findings are not
    defects.  `elapsed_s` is the wall time of the suite function that
    produced the result, stamped by `run_suites`; 0.0 on a direct call.
    """

    name: str
    checked: int
    failures: int
    summary: str
    findings: list[dict] = field(default_factory=list)
    _: KW_ONLY
    hard: bool = True
    elapsed_s: float = 0.0
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = self.failures == 0

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"


PARTITION_PRIME_SAMPLE = 64
_RECHECK_BATCH = 1 << 18


def _partition_ok(scan, liars: np.ndarray, marks: np.ndarray) -> bool:
    """The partition facts of one n on the liar sets of `classify_all` and
    the mask built from them (liars: the sets concatenated; marks: a fresh
    n-byte array, 1 + the index of the set holding each residue, 0
    elsewhere).  Each set has its class or stage size in Monier's closed
    form; the marks fall on as many residues as the sets hold, so no
    residue is in two sets or twice in one, and on no multiple of a prime
    of n, so no liar is one.  The mask marks the liars and those
    multiples, and n - phi(n) + #liars residues in all, so it is exactly
    those.  Where the scan sorts its non-witnesses from the factorization
    instead (`ResidueScan.sparse`), they are the mask's residues."""
    mask = scan.mask
    return (
        [len(x) for x in scan.liars] == [scan.counts.dth_root, *scan.per_stage]
        and np.count_nonzero(marks) == len(liars)
        and mask[liars].all()
        and all(mask[::p].all() and not marks[::p].any() for p in scan.fac.primes)
        and np.count_nonzero(mask) == scan.counts.non_coprime + len(liars)
        and (not scan.sparse or np.array_equal(scan.nonwitnesses, np.flatnonzero(mask)))
    )


def _recheck_row(scan, liars: np.ndarray, marks: np.ndarray, composite: bool, rng) -> tuple:
    """The `_pow_recheck` row of one n: every liar of a composite, or 1,
    n - 1 and seeded others of a prime, each with the index of the set it
    came from (-1 for none); liars: the sets concatenated."""
    if composite or len(liars) <= PARTITION_PRIME_SAMPLE:
        sizes = [len(x) for x in scan.liars]
        return scan.n, scan.d, scan.s, liars, np.repeat(np.arange(len(sizes), dtype=np.int8), sizes)
    picked = rng.choice(len(liars), PARTITION_PRIME_SAMPLE - 2, replace=False)
    units = np.concatenate([[1, scan.n - 1], liars[picked]])
    return scan.n, scan.d, scan.s, units, marks[units] - 1


def _pow_recheck(batch: list[tuple]) -> set[int]:
    """Moduli where the pow route puts a liar in another class or stage
    than the set it came from.

    batch: (n, d, s, units, labels) rows, labels as in `_recheck_row`;
    all rows are evaluated in one `pow_elementwise` call with per-element
    modulus, so many small moduli cost one pass.
    """
    if not batch:
        return set()
    lengths = [len(row[3]) for row in batch]

    def column(i):
        return np.repeat(np.array([row[i] for row in batch], np.int64), lengths)

    n, s = column(0), column(2)
    x = pow_elementwise(np.concatenate([row[3] for row in batch]), column(1), n)  # units**d
    codes, stages = liar_codes(x, n, s)
    labels = np.concatenate([row[4] for row in batch])
    bad = (codes != np.where(labels == 0, CODE_DTH_ROOT, CODE_MINUS_ONE)) | (stages != labels - 1)
    return set(n[bad].tolist())


def suite_partition_rabin(n_max: int = PARTITION_N_MAX) -> list[SuiteResult]:
    """One scan, two verdicts.

    partition: for every odd n in [3, n_max] the liar sets of
    `classify_all` and the non-witness mask built from them are the true
    partition of [0, n).  `_partition_ok` checks them against
    Monier's closed form from the scan's own factorization (also the
    source of its counts) and against a fresh array of set marks; a
    vectorized pow re-check confirms that every liar of a composite, or
    1, n - 1 and a seeded sample of at most 64 liars of a prime (a full
    re-check would be the whole pow scan), has the class and stage of the
    set it came from.  Distinct units of the true class or stage, as many
    as the true set holds, are the true set, and the mask then leaves the
    witnesses, its unmarked residues, exact; odd primes have none.  Hard.

    rabin: for every odd composite n the strong liars number at most
    (n-1)/4, with equality exactly at n = 9.  Hard.  The coprime-witness
    count is also compared against 3(n-1)/4; shortfalls are findings, not
    failures.
    """
    rng = np.random.default_rng(_RNG_SEED)
    failed: set[int] = set()
    batch: list[tuple] = []
    batch_size = 0
    rabin_fail = 0
    checked = 0
    composites = 0
    findings: list[dict] = []
    equality_ns = []
    for n in range(3, n_max + 1, 2):
        scan = classify_all(n)
        c = scan.counts
        checked += 1
        liars = np.concatenate(scan.liars)
        marks = np.zeros(n, np.int8)  # set 0: d-th roots; set j + 1: stage j
        for label, idx in enumerate(scan.liars, 1):
            marks[idx] = label
        if not _partition_ok(scan, liars, marks):
            failed.add(n)
        composite = scan.fac.factors != ((n, 1),)
        batch.append(_recheck_row(scan, liars, marks, composite, rng))
        batch_size += len(batch[-1][3])
        if batch_size >= _RECHECK_BATCH:
            failed |= _pow_recheck(batch)
            batch, batch_size = [], 0
        if composite:
            composites += 1
            strong = c.strong_liars
            if 4 * strong > n - 1:
                rabin_fail += 1
            if 4 * strong == n - 1:
                equality_ns.append(n)
            if 4 * c.witness <= 3 * (n - 1):
                findings.append(
                    {
                        "n": n,
                        "witness_count": c.witness,
                        "required_more_than": 3 * (n - 1) / 4,
                        "strong_liar_count": strong,
                        "non_coprime_count": c.non_coprime,
                    }
                )
    if equality_ns != ([9] if n_max >= 9 else []):
        rabin_fail += 1
    failed |= _pow_recheck(batch)
    partition = SuiteResult(
        "partition",
        checked,
        len(failed),
        f"odd n in [3, {n_max}]: four classes partition [0, n); class and stage counts "
        "match Monier's closed form; liars re-checked by pow (every liar of a composite; "
        f"up to {PARTITION_PRIME_SAMPLE} units of a prime: 1, n-1 and seeded others)",
    )
    rabin = SuiteResult(
        "rabin",
        composites,
        rabin_fail,
        f"strong liars <= (n-1)/4 for all odd composite n <= {n_max}; "
        f"equality exactly at {equality_ns}; coprime-witness-count shortfalls: {len(findings)} findings",
        findings,
    )
    return [partition, rabin]


def suite_cancellation_additivity(
    n_max: int = SUM_N_MAX, k_max: int = SUM_K_MAX
) -> list[SuiteResult]:
    """For every odd composite n <= n_max and k = 1..k_max (n not dividing k),
    within the error budgets of the values compared: S + S_complement
    vanishes, and the complement sum equals the three class sums, with
    stage sets verified disjoint.  Both hard."""
    cancel_fail = 0
    add_fail = 0
    checked = 0
    worst_total = 0.0
    worst_partition = 0.0
    for n in range(9, n_max + 1, 2):
        if is_prime(n):
            continue
        ks = [k for k in range(1, k_max + 1) if k % n != 0]
        for rep in expsums.decomposition_reports(n, ks):
            checked += 1
            total = (rep.residual_total, rep.witness_sum, rep.nonwitness_sum)
            partition = (rep.residual_partition, rep.nonwitness_sum, rep.shared_factor_sum,
                         rep.dth_root_sum, rep.minus_one_sum)
            worst_total = max(worst_total, expsums.budget_ratio(*total))
            worst_partition = max(worst_partition, expsums.budget_ratio(*partition))
            cancel_fail += not expsums.agrees(*total)
            add_fail += not expsums.agrees(*partition) or rep.stage_duplicates != 0
    cancellation = (f"|S + S_complement| vanishes {_AGREEMENT_RULE}; "
                    f"worst residual/budget {worst_total:.3f}")
    additivity = (f"complement = shared-factor + root + minus-one sums {_AGREEMENT_RULE}; "
                  f"worst residual/budget {worst_partition:.3f}")
    return [SuiteResult("cancellation", checked, cancel_fail, cancellation),
            SuiteResult("additivity", checked, add_fail, additivity)]


def suite_ramanujan(n_max: int = RAMANUJAN_N_MAX, k_max: int = RAMANUJAN_K_MAX) -> list[SuiteResult]:
    """Closed form vs brute force within the brute sum's error budget (the
    closed form is exact) for all n <= n_max, k <= k_max, plus the
    divisor-sum envelope |closed| <= sigma(gcd(n, k)), from one table of
    `arith.sigma` to k_max (gcd(n, k) <= k).  Hard."""
    failures = 0
    checked = 0
    worst = 0.0
    sigmas = [0] + [sigma(g) for g in range(1, k_max + 1)]
    for n in range(1, n_max + 1):
        for r in expsums.ramanujan(n, range(1, k_max + 1)):
            worst = max(worst, expsums.budget_ratio(r.difference, r.brute))
            checked += 1
            failures += not r.agrees or abs(r.closed) > sigmas[math.gcd(n, r.k)]
    summary = (f"unit-sum closed form == brute {_AGREEMENT_RULE} "
               f"(worst residual/budget {worst:.3f}) and |sum| <= sigma(gcd(n, k))")
    return [SuiteResult("ramanujan", checked, failures, summary)]


def _first_coprime_ks(n: int, how_many: int) -> list[int]:
    return list(itertools.islice((k for k in itertools.count(1) if math.gcd(k, n) == 1), how_many))


def suite_gauss_primitive(n_max: int = GAUSS_N_MAX, k_count: int = 3) -> list[SuiteResult]:
    """|tau(chi, k)| = sqrt(n) within the FFT value's error budget for every
    primitive character mod n <= n_max, at the k_count smallest frequencies
    coprime to n, with every tau from the FFT route `expsums.gauss_sums`.
    Hard.  (For gcd(k, n) = 1 the magnitude is k-independent; several k are still
    checked rather than assumed.)"""
    failures = 0
    checked = 0
    worst = 0.0
    for n in range(3, n_max + 1):
        group = CharacterGroup(n)
        primitive = np.array([chi.is_primitive for chi in group.characters()])
        taus = np.array([expsums.gauss_sums(group, k)[primitive]
                         for k in _first_coprime_ks(n, k_count)])
        dev = np.abs(np.abs(taus) - math.sqrt(n))
        worst = max(worst, float(expsums.budget_ratio(dev, n).max(initial=0.0)))
        checked += dev.size
        failures += int(np.count_nonzero(~expsums.agrees(dev, n)))
    summary = (f"primitive Gauss sums have magnitude sqrt(n) {_AGREEMENT_RULE} "
               f"for n <= {n_max} (worst residual/budget {worst:.3f})")
    return [SuiteResult("gauss-primitive", checked, failures, summary)]


def suite_cancellation_dual(n_max: int = DUAL_N_MAX, pairs: int = DUAL_PAIRS) -> list[SuiteResult]:
    """Direct enumeration of the power-residue sum vs the
    character-orthogonality average (`expsums.cancellation_sum_dual`: pow
    enumeration against every Gauss sum from one FFT), within the error
    budgets of the values compared, for n <= n_max, alpha in {1, 2, 3, d(n)}
    and `pairs` seeded-random (b, k) pairs per n.  Hard."""
    failures = 0
    checked = 0
    worst = 0.0
    for n in range(3, n_max + 1):
        units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        rng = np.random.default_rng(_RNG_SEED + n)
        alphas = [1, 2, 3]
        if n % 2 == 1:
            alphas.append(mr_decompose(n).d)
        chosen = [
            (int(rng.choice(units)), int(rng.integers(1, 1001)))
            for _ in range(pairs)
        ]
        for alpha in alphas:
            for b, k in chosen:
                dual = expsums.cancellation_sum_dual(n, alpha, b, k)
                ratio = expsums.budget_ratio(dual.difference, dual.direct.total, dual.via_characters)
                worst = max(worst, ratio)
                checked += 1
                failures += not dual.agrees
    summary = (f"direct power-residue sums match the character-orthogonality route "
               f"{_AGREEMENT_RULE} (worst residual/budget {worst:.3f})")
    return [SuiteResult("cancel-dual", checked, failures, summary)]


def _prime_sieve(n_max: int) -> np.ndarray:
    """Primality of every integer in [0, n_max], by the sieve of Eratosthenes."""
    sieve = np.ones(n_max + 1, bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def suite_bach(n_max: int = BACH_N_MAX) -> list[SuiteResult]:
    """least witness <= 2 (ln n)^2 for every odd composite n <= n_max, the
    composites read off a sieve and their least witnesses found by
    `least_witnesses` in one batched call.
    Violations of this conditional bound are findings, not failures."""
    findings: list[dict] = []
    max_ratio = 0.0
    ns = np.flatnonzero(~_prime_sieve(n_max)[9::2]) * 2 + 9
    lws, _ = least_witnesses(ns)
    # np.log is within a few ulps of math.log, so only an n whose ratio
    # comes within 1e-9 of the largest, or of 1, can give the maximum or a
    # violation; those ratios are taken again with math.log.
    ratio = lws / (2.0 * np.log(ns) ** 2)
    near = ratio >= (1 - 1e-9) * min(ratio.max(initial=0.0), 1.0)
    for n, lw in zip(ns[near].tolist(), lws[near].tolist()):
        bound = 2.0 * math.log(n) ** 2
        max_ratio = max(max_ratio, lw / bound)
        if lw > bound:
            findings.append({"n": n, "least_witness": lw, "bound": bound})
    summary = (f"least witness <= 2 ln(n)^2 for odd composite n <= {n_max}: "
               f"{len(findings)} violations; max least witness {lws.max(initial=0)}, "
               f"max witness/bound ratio {max_ratio:.4f}")
    return [SuiteResult("bach", len(ns), 0, summary, findings, hard=False)]


def suite_figure_histogram(n: int = FIGURE_N, bins: int = FIGURE_BINS) -> list[SuiteResult]:
    """The 10000-bin witness histogram of n = 1056331: finishes under 60 s,
    conserves the witness count, and no bin is empty or twice the mean
    (max relative deviation < 1).  Hard; `checked` counts these three
    conditions."""
    t0 = time.perf_counter()
    report = equidist.histogram(n, bins)
    dt = time.perf_counter() - t0
    conserved = sum(report.counts) == report.total_witnesses
    conditions = [conserved, report.max_relative_deviation < 1.0, dt < 60.0]
    summary = (f"n={n} bins={bins}: witnesses={report.total_witnesses} mean={report.mean:.4f} "
               f"min_bin={min(report.counts)} max_bin={max(report.counts)} "
               f"max_rel_dev={report.max_relative_deviation:.12g} "
               f"chi2_like={report.chi_square_like:.6g}")
    return [SuiteResult("figure1", len(conditions), conditions.count(False), summary)]


def suite_trend(magnitudes=TREND_MAGNITUDES, k_max: int = 10) -> list[SuiteResult]:
    """Across the least odd composites >= 10^3, 10^4, 10^5, 10^6 both the
    star discrepancy and max_k |S_k|/#W must strictly decrease.  Hard;
    `checked` counts these two conditions.

    A soft consistency check rides along: between consecutive moduli where
    every frequency ratio shrinks by at least 2x, the discrepancy should
    not grow by more than 2x; exceptions are recorded for inspection, not
    failed.
    """
    rows = []
    for mag in magnitudes:
        n = equidist.least_odd_composite_at_least(mag)
        row = equidist.scan_row(n, k_max)
        rows.append(row)
    dstars = [r.star_discrepancy for r in rows]
    ratios = [max(r.weyl_ratios) for r in rows]
    decreasing_d = all(a > b for a, b in zip(dstars, dstars[1:]))
    decreasing_r = all(a > b for a, b in zip(ratios, ratios[1:]))
    conditions = [decreasing_d, decreasing_r]
    findings = [
        {
            "n": r.n,
            "witness_count": r.witness_count,
            "star_discrepancy": r.star_discrepancy,
            "max_weyl_ratio": max(r.weyl_ratios),
            "least_witness": r.least_witness,
        }
        for r in rows
    ]
    soft_notes = 0
    for prev, cur in zip(rows, rows[1:]):
        all_shrink = all(
            rk <= 0.5 * rp for rp, rk in zip(prev.weyl_ratios, cur.weyl_ratios)
        )
        if all_shrink and cur.star_discrepancy > 2 * prev.star_discrepancy:
            soft_notes += 1
            findings.append(
                {
                    "n": cur.n,
                    "note": "discrepancy grew >2x while all frequency ratios halved",
                    "star_discrepancy": cur.star_discrepancy,
                    "previous_star_discrepancy": prev.star_discrepancy,
                }
            )
    summary = (
        "star discrepancy "
        + (" > ".join(f"{d:.3e}" for d in dstars))
        + ("  (strictly decreasing)" if decreasing_d else "  (NOT decreasing)")
        + "; max weyl ratio "
        + (" > ".join(f"{r:.3e}" for r in ratios))
        + ("  (strictly decreasing)" if decreasing_r else "  (NOT decreasing)")
        + f"; soft discrepancy/ratio consistency notes: {soft_notes}"
    )
    return [SuiteResult("trend", len(conditions), conditions.count(False), summary, findings)]


def suite_weyl_routes(n_max: int = SUM_N_MAX, k_max: int = SUM_K_MAX, large=None) -> list[SuiteResult]:
    """S_k over the witnesses, k = 1..k_max, by two routes: the unit sum less
    the strong-liar sum that `weyl` and `scan` print (`equidist._weyl_sums`),
    and the term-by-term sum over the witness blocks.  They must agree
    within the error budgets of the values compared (n * 2**-50 for each
    phase sum; c_n(k) is exact) at every odd composite n <= n_max and at
    the large moduli: by default the trend moduli, FIGURE_N and
    WEYL_SPARSE_N.  Hard.

    Both routes read the same liar sets, which the partition suite checks
    against the pow route, so this checks the sums, not membership.  The
    summary gives the worst residual/budget and the fewest significant
    digits of |S_k| that the routes share, log10(|S_k| / residual).
    """
    if large is None:
        large = [equidist.least_odd_composite_at_least(m) for m in TREND_MAGNITUDES]
        large += [FIGURE_N, WEYL_SPARSE_N]
    ns = [n for n in range(9, n_max + 1, 2) if not is_prime(n)] + list(large)
    ks = range(1, k_max + 1)
    failures = 0
    worst, worst_at = 0.0, 0
    fewest, fewest_at = math.inf, (0, 0, 0.0)
    for n in ns:
        scan = classify_all(n)
        direct = expsums._phase_sums(scan.witness_block, ks, n, scan.counts.witness)
        for k, s, z in zip(ks, equidist._weyl_sums(scan, k_max), direct):
            diff = abs(s - z)
            values = (expsums._csum(s, scan.counts.strong_liars, n), expsums._csum(z, scan.counts.witness, n))
            failures += not expsums.agrees(diff, *values)
            ratio = expsums.budget_ratio(diff, *values)
            if ratio > worst:
                worst, worst_at = ratio, n
            if diff:  # the digits of |S_k| that the routes share
                digits = math.log10(abs(s) / diff) if s else 0.0
                if digits < fewest:
                    fewest, fewest_at = digits, (n, k, abs(s))
    n, k, mag = fewest_at
    summary = (f"|S_k| as c_n(k) minus the liar sum == the witness sum {_AGREEMENT_RULE}, "
               f"odd composite n <= {n_max} and {len(large)} large moduli, k <= {k_max}: "
               f"worst residual/budget {worst:.3f} (n = {worst_at}); fewest digits held "
               f"{fewest:.1f} (n = {n}, k = {k}, |S_k| = {mag:.3e})")
    return [SuiteResult("weyl-routes", len(ns) * len(ks), failures, summary)]


def suite_imprimitive(n_max: int = IMPRIMITIVE_N_MAX, k_max: int = IMPRIMITIVE_K_MAX) -> list[SuiteResult]:
    """Conductor-based reduction vs the unreduced sum for every nontrivial
    imprimitive character mod n <= n_max and k <= k_max, both sides from
    `expsums.gauss_sums` (one FFT per k mod n, one per (q, k/l) mod q).
    So that the FFT is never checked only against itself, one seeded
    character per modulus is also summed term by term at every k
    (`expsums.gauss_sum_brute`); a disagreement with the FFT is a hard
    failure, not counted in `checked`.  Every comparison here is judged
    within the error budgets of the values compared: n * 2**-50 for an FFT
    value mod n, l * q * 2**-50 for l times one mod q, none for 0.

    Hard requirement: whenever every prime of l = n/q divides q, so that
    the character vanishes exactly where the inducing one does, the
    reduction is exact on both paths: tau(chi, k) vanishes when l does not
    divide k, and equals l * tau(chi1, k/l) when it does.  All other
    disagreements are findings describing where the formula needs
    correction terms.
    """
    sample_failures = 0
    checked = 0
    worst = 0.0
    findings: list[dict] = []
    ks = range(1, k_max + 1)
    for n in range(3, n_max + 1):
        group = CharacterGroup(n)
        rad = math.prod(c.p for c in group.components)
        taus = {k: expsums.gauss_sums(group, k) for k in ks}
        sample = group.character_by_index(
            int(np.random.default_rng(_RNG_SEED + n).integers(group.total_order)))
        for k in ks:
            brute = expsums.gauss_sum_brute(sample, k)
            sample_failures += not expsums.agrees(abs(brute.value - taus[k][sample.index]), brute, n)
        reduced_taus: dict[tuple[int, int], np.ndarray] = {}
        for index, chi in enumerate(group.characters()):
            if chi.is_trivial:
                continue
            q, chi1 = chi.conductor()
            if q == n:
                continue
            length = n // q
            compatible = q % rad == 0  # every prime of n, so of n/q, divides q
            for k in ks:
                tau = complex(taus[k][index])
                if k % length == 0:
                    key = (q, k // length)
                    if key not in reduced_taus:
                        reduced_taus[key] = expsums.gauss_sums(chi1.group, k // length)
                    path, budgets = "reduced", (n, length * q)
                    claimed = length * complex(reduced_taus[key][chi1.index])
                else:
                    path, budgets, claimed = "vanishing", (n,), 0j
                diff = abs(claimed - tau)
                checked += 1
                if expsums.agrees(diff, *budgets):
                    worst = max(worst, expsums.budget_ratio(diff, *budgets))
                else:
                    findings.append(
                        {
                            "n": n,
                            "char_index": index,
                            "conductor": q,
                            "k": k,
                            "path": path,
                            "zero_sets_match": compatible,
                            "tau_re": tau.real,
                            "tau_im": tau.imag,
                            "claimed_re": claimed.real,
                            "claimed_im": claimed.imag,
                            "difference": diff,
                        }
                    )
    hard_failures = sum(f["zero_sets_match"] for f in findings)
    summary = (
        "reduction vs the unreduced FFT tau(chi, k) for imprimitive characters, "
        f"n <= {n_max}, k <= {k_max}: "
        f"{checked - len(findings)}/{checked} agree {_AGREEMENT_RULE} "
        f"(worst residual/budget {worst:.3f}); {len(findings)} disagreements recorded "
        f"({len(findings) - hard_failures} at characters where n/q has a prime outside the conductor); "
        f"hard check failures where every prime of n/q divides q: {hard_failures}"
    )
    if sample_failures:
        summary += f"; FFT off the term-by-term sum of a seeded character: {sample_failures}"
    failures = hard_failures + sample_failures
    return [SuiteResult("imprimitive", checked, failures, summary, findings)]


def suite_cancellation_ratio(n_max: int = RATIO_N_MAX) -> list[SuiteResult]:
    """Record max |S'| / sqrt(n) over the power-residue sums of every odd
    composite n <= n_max at k in RATIO_KS, and assert the generous envelope
    |S'| <= sigma(k) * sqrt(n) * tau(n).  Hard on the envelope only."""
    failures = 0
    checked = 0
    max_ratio = 0.0
    max_at = 0
    sigmas = [sigma(k) for k in RATIO_KS]
    for n in range(9, n_max + 1, 2):
        fac = factorize(n)
        if fac.factors == ((n, 1),):
            continue
        tau_n = math.prod(e + 1 for _, e in fac.factors)
        root_n = math.sqrt(n)
        for sols in liar_sets(n, mr_decompose(n).d, fac.factors):
            # ascending: the summation order fixes the printed floats
            for sigma_k, z in zip(sigmas, expsums._phase_sums(np.sort(sols), RATIO_KS, n)):
                mag = abs(z)
                checked += 1
                if mag / root_n > max_ratio:
                    max_ratio, max_at = mag / root_n, n
                failures += mag > sigma_k * root_n * tau_n
    summary = (f"power-residue sums over odd composite n <= {n_max}, k in {RATIO_KS}: "
               f"max |S'|/sqrt(n) = {max_ratio:.6f} at n = {max_at}; "
               f"envelope sigma(k) sqrt(n) tau(n) violated {failures} times")
    return [SuiteResult("cancel-ratio", checked, failures, summary)]


def suite_arith(
    phi_n_max: int = 10_000, roundtrip_n_max: int = 1_000_000
) -> list[SuiteResult]:
    """phi by brute count, primitive-root orders, the factorization round
    trip, its prime parts checked against a sieve, and seeded semiprimes
    p * q with both primes from that sieve past TRIAL_LIMIT, which only
    Brent's rho splits.  Hard."""
    failures = 0
    checked = 0
    for n in range(1, phi_n_max + 1):
        w = np.arange(n, dtype=np.int64)
        brute_phi = int(np.count_nonzero(np.gcd(w, n) == 1)) if n > 1 else 1
        checked += 1
        if euler_phi(n) != brute_phi:
            failures += 1
    for pe in range(3, phi_n_max + 1, 2):
        fac = factorize(pe).factors
        if len(fac) != 1:
            continue
        p, e = fac[0]
        gens = primitive_root(p, e)
        g, order = gens[0]
        checked += 1
        phi = euler_phi(pe)
        if order != phi or pow(g, phi, pe) != 1:
            failures += 1
        if any(pow(g, phi // q, pe) == 1 for q in factorize(phi).primes):
            failures += 1
    sieve = _prime_sieve(roundtrip_n_max)
    for n in range(1, roundtrip_n_max + 1):
        fac = factorize(n)
        checked += 1
        if fac.reconstruct() != n:
            failures += 1
            continue
        if list(fac.primes) != sorted(set(fac.primes)):
            failures += 1
        if any(e < 1 for _, e in fac.factors) or not all(sieve[p] for p in fac.primes):
            failures += 1
    big = np.flatnonzero(sieve[TRIAL_LIMIT + 1 :]) + TRIAL_LIMIT + 1
    pairs = np.random.default_rng(_RNG_SEED).choice(big, (RHO_SEMIPRIMES, 2)) if len(big) else []
    for p, q in (sorted(map(int, pair)) for pair in pairs):
        checked += 1
        if factorize(p * q).factors != (((p, 2),) if p == q else ((p, 1), (q, 1))):
            failures += 1
    summary = (f"phi brute-counted to {phi_n_max}, primitive-root orders, "
               f"factorization round trip to {roundtrip_n_max}, Brent rho on {len(pairs)} semiprimes")
    return [SuiteResult("arith", checked, failures, summary)]


def suite_characters(orth_n_max: int = 300, count_n_max: int = 1000) -> list[SuiteResult]:
    """Orthogonality, multiplicativity, induced-value identity, and
    character counts.  Hard."""
    failures = 0
    checked = 0
    for n in range(2, orth_n_max + 1):
        group = CharacterGroup(n)
        col = sum(chi.value_table() for chi in group.characters())
        expect = np.zeros(n, complex)
        expect[1] = group.total_order
        checked += 1
        if np.abs(col - expect).max() >= ORTHOGONALITY_TOL:
            failures += 1
    rng = np.random.default_rng(_RNG_SEED)
    for n in sorted(rng.integers(2, 10_001, size=25).tolist()) + [9973, 10_000]:
        group = CharacterGroup(int(n))
        units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        for _ in range(5):
            exps = tuple(int(rng.integers(0, m)) for m in group.orders)
            chi = group.character(exps)
            for _ in range(8):
                u = int(rng.choice(units))
                v = int(rng.choice(units))
                checked += 1
                if abs(chi(u * v % int(n)) - chi(u) * chi(v)) >= MULTIPLICATIVITY_TOL:
                    failures += 1
    for n in range(2, 61):
        group = CharacterGroup(n)
        units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
        for chi in group.characters():
            q, chi1 = chi.conductor()
            checked += 1
            if n % q != 0:
                failures += 1
            if chi.is_trivial and q != 1:
                failures += 1
            induced = np.abs(chi.value_table()[units] - chi1.value_table()[units % q])
            failures += bool(induced.max() >= MULTIPLICATIVITY_TOL)
    for n in range(2, count_n_max + 1):
        group = CharacterGroup(n)
        checked += 1
        if group.total_order != euler_phi(n):
            failures += 1
        if n <= 100:
            tables = {tuple(np.round(chi.value_table(), 9)) for chi in group.characters()}
            if len(tables) != group.total_order:
                failures += 1
    summary = (f"orthogonality to n <= {orth_n_max}, multiplicativity on random units, "
               f"induced values match on units, phi(n) distinct characters")
    return [SuiteResult("characters", checked, failures, summary)]


_REGISTRY = {
    "partition": suite_partition_rabin,
    "rabin": suite_partition_rabin,
    "cancellation": suite_cancellation_additivity,
    "additivity": suite_cancellation_additivity,
    "ramanujan": suite_ramanujan,
    "gauss-primitive": suite_gauss_primitive,
    "cancel-dual": suite_cancellation_dual,
    "bach": suite_bach,
    "figure1": suite_figure_histogram,
    "trend": suite_trend,
    "weyl-routes": suite_weyl_routes,
    "imprimitive": suite_imprimitive,
    "cancel-ratio": suite_cancellation_ratio,
    "arith": suite_arith,
    "characters": suite_characters,
}

SUITE_NAMES = tuple(_REGISTRY)


def run_suites(names=None) -> list[SuiteResult]:
    """Run the requested suites (all when names is None) and return their
    results in request order.  A suite function that yields several results
    runs once per call; each result's elapsed_s is that run's wall time."""
    if names is None:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise DomainError(f"unknown suite(s): {', '.join(unknown)}")
    ran: dict = {}
    out: list[SuiteResult] = []
    for name in dict.fromkeys(names):
        fn = _REGISTRY[name]
        if fn not in ran:
            t0 = time.perf_counter()
            results = fn()
            elapsed = time.perf_counter() - t0
            for r in results:
                r.elapsed_s = elapsed
            ran[fn] = {r.name: r for r in results}
        out.append(ran[fn][name])
    return out
