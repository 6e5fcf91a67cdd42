"""Exponential sums over witness classes, units, and power-residue sets.

All sums are of the shape sum of e(k*w/n) with e(x) = exp(2*pi*i*x), taken
over structured residue sets: a witness class, the units (Ramanujan sum),
a character-twisted full range (Gauss sum), or the solution set of
w**alpha = b mod n (the cancellation sum).  Wherever a closed form or a
reduction exists, it is computed alongside a term-by-term brute-force sum
and the two are compared, never assumed equal.

Each accumulated sum carries an error budget of modulus * 2**-50, a
deliberately generous cover for its rounding; two routes agree when they
differ by less than the error budgets of the values compared (`agrees`),
never by an ad-hoc tolerance.  The budget is empirical, not a worst-case
bound: the verification suites measure residuals of 0.03-0.31 of it.
Most of the rounding is the angle, not the pairwise sum: every term's
angle is fl(2*pi) * m / n, and the rounding of fl(2*pi) is shared by all
of them, so it moves a sum over N residues by up to about N * 2**-53.
Over the 2,071,674 witnesses of 2074757 the sum is off a long-double
reference by 4.8e-11 to 1.5e-10 at k = 1..10 (0.03-0.08 of the budget),
and the Weyl sums of `equidist`, from its 6 strong liars, by 6e-15.

Every term-by-term phase sum over a residue set runs through one kernel,
`_phase_sums`, for any list of frequencies k.  It works in blocks of at
most _LEAF residues whose boundaries are the nodes of numpy's own
pairwise-summation tree (`_pairwise_blocks`).  That tree depends only on
the number of terms, so adding the block sums back up it gives the
full-array `table[idx].sum()` bit for bit, while the index, scratch and
gathered arrays stay block-sized.  A call of at most n terms over all
its ks builds no table: each e(k*w/n) comes from `_roots`,
which builds the table too, so both leaves give the same bits.  That leaf
takes the ks in chunks of at most _LEAF terms, 24 B of scratch each, so
it holds at most 24 B * _LEAF per worker against the table's 16 n B.  A
block is a range [lo, hi) of ranks in the ascending set, and each leaf
builds its own residues from a block source: a slice of an array, or
`ResidueScan.witness_block`, which builds the witnesses of those ranks
from the sorted non-witnesses, so no n-sized witness list exists.  The
blocks are independent, so they run through `concurrency.ordered_map`, on
`thread_count()` workers from the main thread and inline from any other,
and their sums are added up the tree in the same order: the same bits for
any worker count.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._scan import _BATCH_LIMIT, _reduce, _roots, pow_all_numpy
from .arith import Factorization, factorize
from .characters import CharacterGroup, DirichletCharacter, character_group
from .concurrency import ordered_map
from .errors import DomainError
from .witness import classify_all

MAX_FREQUENCY = 10**6  # |k| beyond this is outside the supported desk scale
ROOT_TABLE_BYTES = 2**30  # e(m/n) table, 16 B per residue (n <= 2**26); cancellation power tables and candidates

BUDGET_SCALE = 2.0**-50


@dataclass(frozen=True)
class ComplexSum:
    real: float
    imag: float
    term_count: int
    error_budget: float

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)

    def magnitude(self) -> float:
        return math.hypot(self.real, self.imag)

    def scaled(self, factor: float) -> "ComplexSum":
        return ComplexSum(self.real * factor, self.imag * factor, self.term_count,
                          self.error_budget * abs(factor))


def _csum(z: complex, count: int, modulus: int) -> ComplexSum:
    return ComplexSum(float(z.real), float(z.imag), int(count), max(modulus, 1) * BUDGET_SCALE)


def _budget(values) -> float:
    """The error budgets of the values compared, summed: a ComplexSum counts
    its error_budget, an FFT value tau mod n (`gauss_sums`) is passed as n
    and counts n * BUDGET_SCALE, and exact values (closed forms, 0,
    sqrt(n)) count none: they are not passed, or come as a ComplexSum
    with error_budget 0."""
    total = 0.0
    for v in values:
        total += v.error_budget if isinstance(v, ComplexSum) else v * BUDGET_SCALE
    return total


def agrees(difference, *values):
    """Two routes agree when they differ by less than the error budgets of
    the values compared (`_budget`); elementwise on arrays."""
    return difference < _budget(values)


def budget_ratio(difference, *values):
    """difference as a fraction of the budget `agrees` compares it with."""
    return difference / _budget(values)


def _check_bytes(size: int, what: str) -> None:
    """DomainError when `what` (a subject and its verb) takes size bytes,
    past ROOT_TABLE_BYTES: asked before any of them is allocated."""
    if size > ROOT_TABLE_BYTES:
        raise DomainError(f"{what} {size} bytes, past the budget of {ROOT_TABLE_BYTES}")


def _check_root_table(n: int) -> None:
    """`_check_bytes` for the 16 B per residue of `_root_table(n)`: asked
    before any n-sized array of a phase sum."""
    _check_bytes(16 * n, f"the e(m/n) table of n = {n} needs")


@lru_cache(maxsize=8)
def _root_table(n: int) -> np.ndarray:
    """e(m/n) for m in [0, n), the bits of exp(2j*pi*arange(n)/n) built in
    place in the one complex array by `_roots`, with no int64 ramp beside
    it, after `_check_root_table`."""
    _check_root_table(n)
    return _roots(np.arange(n, dtype=np.complex128), n)


def _check_k(n: int, k: int) -> int:
    if k == 0:
        raise DomainError("frequency k must be nonzero")
    if abs(k) > MAX_FREQUENCY:
        raise DomainError(f"|k| is limited to {MAX_FREQUENCY}")
    return k % n


_LEAF = 2**15  # residues per block; at least numpy's 64-value pairwise leaf
# `_phase_sums` takes its own exps when terms * len(ks) <= n.  At n = 2000003 on
# a 2-CPU VM the exp costs 30-32 ns per term, the gather 9-11 ns and the table
# 24-25 ns per residue, so a pass over T terms that must build the table breaks
# even near T = 1.25 n: below n no single pass pays for a table it could do
# without.  Where the table is cached already, the exps waste up to 20 ns per
# residue of n.  Measured against the former rule, terms * len(ks) * 16 <= n:
# `sums --n 2074757 --k 3` 107-120 against 133-139 ms and 35 against 67 MB max
# RSS (no table); `suite_cancellation_ratio(30000)` 0.91-1.26 against 0.88-1.27 s.


def _pairwise(lo: int, hi: int, leaf):
    """leaf(lo, hi) over the blocks of numpy's pairwise-summation tree of
    the hi - lo complex values of ranks [lo, hi), added back up the same
    tree.

    numpy sums c complex values as the sum of its first (c - c % 8) // 2
    and the rest, recursively, down to leaves of at most 64 values that it
    adds in a fixed order (Higham 1993).  Any node of more than _LEAF
    values is therefore split where numpy splits it, and a block's own
    `.sum()` is numpy's sum of that node.
    """
    count = hi - lo
    if count <= _LEAF:
        return leaf(lo, hi)
    half = lo + (count - count % 8) // 2
    return _pairwise(lo, half, leaf) + _pairwise(half, hi, leaf)


def _pairwise_blocks(count: int, leaf):
    """`_pairwise(0, count, leaf)`, its blocks run through `ordered_map`.

    The block sums are added back up the same tree in the same order, so
    the result is the same bits for any worker count, and an error is the
    first in block order, as serially.
    """
    if count <= _LEAF:  # no thread count, no pool: the cost of one leaf
        return leaf(0, count)
    blocks = _pairwise(0, count, lambda lo, hi: [(lo, hi)])
    sums = iter(ordered_map(lambda block: leaf(*block), blocks))
    return _pairwise(0, count, lambda lo, hi: next(sums))


def _phase_sums(residues, ks, n: int, count: int | None = None) -> list[complex]:
    """[sum of e(k*w/n) over the residues w in [0, n) for k in ks], each
    equal bit for bit to the full-array `_root_table(n)[k*w % n].sum()`.

    residues is an array of them, or, with their count, a block source:
    residues(lo, hi) gives those of ranks [lo, hi) of the ascending set,
    as `ResidueScan.witness_block` does.  n must be below 2**31, so that
    every product (k mod n) * w is below n**2 < 2**62: each caller refuses
    larger n first.

    When count * len(ks) <= n, each leaf takes e(k*w/n) from `_roots`, on
    the len(ks) x block products (k mod n) * w mod n, in chunks of whole
    rows of at most _LEAF terms (one row when the block is longer):
    24 B * _LEAF of scratch per worker.  Each row's `.sum()` is the
    pairwise sum of that row alone, so the chunking leaves the bits as they
    are.  Otherwise it gathers.

    Within a block, the index k*w mod n of a k whose residue mod n is one
    more than the previous k's is carried from it: adding w < n to an
    index below n gives a sum t < 2n, and t mod n is the smaller of t and
    t - n read as unsigned, where t - n < 0 wraps above 2**63.  Any other
    k reduces (k mod n) * w afresh, which is below n**2 < 2**62, so the
    floor-divide reduction is exact and gives the same
    indices as `%`.  Each k then gathers the same table entries in the
    same order and sums them on the same tree.

    Each thread keeps one pair of index and scratch arrays for all the
    leaves it runs in the call.  A fresh pair per leaf (512 KiB at
    _LEAF) lets glibc return the freed heap top to the system and fault
    it back in for the next leaf: three 10-k witness sums at 2074757 (the
    gather leaf of `sums` and the weyl-routes suite), table cached, took
    2,765-3,682 minor page faults against 1,802-2,134 with the pair kept
    (glibc, Python 3.11, 2 workers on a 2-CPU VM).
    """
    if count is None:
        array, count = residues, len(residues)

        def residues(lo, hi):
            return array[lo:hi]

    krs = [k % n for k in ks]
    if count == 0 or not krs:
        return [0j] * len(krs)
    if count * len(krs) <= n:
        kcol = np.array(krs, np.int64)[:, None]

        def few(lo, hi):
            ws = residues(lo, hi)
            rows = max(1, _LEAF // len(ws))  # the ks of one chunk: at most _LEAF terms
            return np.concatenate([_roots((kcol[r : r + rows] * ws % n).astype(np.complex128), n).sum(axis=1)
                                   for r in range(0, len(krs), rows)])

        return _pairwise_blocks(count, few).tolist()
    table = _root_table(n)
    size = min(count, _LEAF)
    own = threading.local()

    def leaf(lo, hi):
        ws = residues(lo, hi)
        if not hasattr(own, "idx"):  # the first leaf of this thread
            own.idx, own.scratch = np.empty(size, np.int64), np.empty(size, np.int64)
        idx, scratch = own.idx[: len(ws)], own.scratch[: len(ws)]
        unsigned = idx.view(np.uint64)
        sums = np.empty(len(krs), np.complex128)
        prev = None
        for j, kr in enumerate(krs):
            if prev is not None and kr == (prev + 1) % n:
                idx += ws
                np.subtract(idx, n, out=scratch)
                np.minimum(unsigned, scratch.view(np.uint64), out=unsigned)
            else:
                np.multiply(ws, kr, out=idx)
                _reduce(idx, n, scratch)
            sums[j] = table[idx].sum()
            prev = kr
        return sums

    return _pairwise_blocks(count, leaf).tolist()


@dataclass(frozen=True)
class RamanujanSum:
    """Closed-form vs brute-force sum of e(k*w/n) over the units mod n.

    closed is the integer product of c_q(k) over the prime powers q || n
    (`ramanujan_closed`); brute is the term-by-term unit sum; complement
    negates brute and equals the sum over residues sharing a factor with n
    whenever n does not divide k.
    `agrees` reports whether closed and brute differ by less than the
    brute sum's error budget (the closed form is exact and counts none).
    """

    n: int
    k: int
    closed: int
    brute: ComplexSum
    complement: ComplexSum
    difference: float
    agrees: bool


def ramanujan(n: int, ks) -> list[RamanujanSum]:
    """One RamanujanSum per k of ks, from one unit set (by np.gcd), one
    `_phase_sums` call, and one factorization of n, which every closed
    form reads."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    _check_root_table(n)
    ks = list(ks)
    fac = factorize(n)
    units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)  # [0] at n = 1, where brute is 1
    out = []
    for k, z in zip(ks, _phase_sums(units, ks, n)):
        closed = ramanujan_closed(fac, k)
        brute = _csum(z, len(units), n)
        complement = _csum(-z if n > 1 else 0j, n - len(units), n)  # no non-unit at n = 1
        diff = abs(brute.value - closed)
        out.append(RamanujanSum(n, k, closed, brute, complement, diff, agrees(diff, brute)))
    return out


def gauss_sum_brute(chi: DirichletCharacter, k: int) -> ComplexSum:
    """Term-by-term sum of chi(w) * e(k*w/n) over all w in [0, n), in the
    blocks of `_pairwise_blocks`: the bits of the full-array sum, with
    block-sized temporaries and no n-sized residue range."""
    n = chi.modulus
    _check_root_table(n)
    vals = chi.value_table()  # refused by its own limits before it is built
    table = _root_table(n)
    kr = k % n

    def leaf(lo, hi):  # the residues of ranks [lo, hi) are lo..hi-1, their values a slice
        return (vals[lo:hi] * table[kr * np.arange(lo, hi, dtype=np.int64) % n]).sum()

    z = complex(_pairwise_blocks(n, leaf))
    return _csum(z, n, n)


@dataclass(frozen=True)
class GaussReduction:
    """The conductor-based evaluation of a Gauss sum, with its reality check.

    path is 'primitive' (conductor equals the modulus; value is the direct
    sum), 'vanishing' (conductor q < n, l = n/q does not divide k; claimed
    value 0), or 'reduced' (l divides k; claimed value l * tau(chi1, k/l)
    with chi1 the inducing primitive character mod q).  The claim is always
    compared against the brute-force sum; `agrees_with_brute` reports
    whether they agree within the error budgets of the values compared
    (the exact 0 of the vanishing path counts none) and is never assumed.
    """

    modulus: int
    k: int
    conductor: int
    path: str
    value: ComplexSum
    brute: ComplexSum
    difference: float
    agrees_with_brute: bool


def gauss_sum_reduced(chi: DirichletCharacter, k: int) -> GaussReduction:
    n = chi.modulus
    brute = gauss_sum_brute(chi, k)
    q, chi1 = chi.conductor()
    if q == n:
        path = "primitive"
        value = brute
    else:
        length = n // q
        if k % length != 0:
            path = "vanishing"
            value = ComplexSum(0.0, 0.0, 0, 0.0)
        else:
            path = "reduced"
            value = gauss_sum_brute(chi1, k // length).scaled(length)
    diff = abs(value.value - brute.value)
    return GaussReduction(n, k, q, path, value, brute, diff, agrees(diff, value, brute))


def _power_tables(fac: Factorization, e: int) -> list[tuple[int, np.ndarray]]:
    """(q, w**e mod q for every w in [0, q)) for each prime power q || n =
    fac.n, largest q first, by `pow_all_numpy`.  DomainError, before any
    is built, when they and a bool mask beside each (9 B per residue)
    exceed ROOT_TABLE_BYTES."""
    qs = sorted((p**a for p, a in fac.factors), reverse=True)
    _check_bytes(9 * sum(qs), f"the power tables mod the prime powers of n = {fac.n} need")
    return [(q, pow_all_numpy(q, e)) for q in qs]


def _solutions(n: int, tables) -> np.ndarray:
    """The w in [0, n), ascending, with mask[w % q] true for every (q, mask).

    tables: one (q, mask) per prime power q || n, largest q first, mask a
    bool array of length q; by CRT the set is their product.  Candidates
    w = r + q0 * t run over the members r of the largest component and all
    t < n / q0, laid out t-major so that they come ascending, and are
    sieved through the other components' masks.  DomainError, before they
    are built, when their 8 B each exceed ROOT_TABLE_BYTES.
    """
    q0, mask0 = tables[0]
    members = np.flatnonzero(mask0)
    _check_bytes(8 * (n // q0) * len(members), f"the candidate solutions mod n = {n} need")
    cand = (np.arange(0, n, q0, dtype=np.int64)[:, None] + members).ravel()
    for q, mask in tables[1:]:
        cand = cand[mask[cand % q]]
    return cand


@dataclass(frozen=True)
class CancellationSum:
    """Sum of e(k*w/n) over the units solving w**alpha = b mod n."""

    n: int
    alpha: int
    b: int
    k: int
    total: ComplexSum
    solution_count: int
    sqrt_n_ratio: float
    solutions: np.ndarray


def cancellation_sum(n: int, alpha: int, b: int, k: int) -> CancellationSum:
    """The solutions, ascending, are the CRT product of those mod each prime
    power q || n, found from w**alpha mod q for every residue of q
    (`_solutions`, which bounds their number).  Those tables are refused
    past their budget before any is built (`_power_tables`), and so
    is n >= 2**31, past the exact int64 products of `pow_all_numpy` and
    `_phase_sums`.  One k over at most n solutions takes the few-term leaf
    of `_phase_sums`, so no root table is built and none is checked: at
    2146654199 = 46327 * 46337, alpha = 2 has 4 solutions and is summed,
    and alpha = lambda(n), whose solutions are all the units, is refused
    before its candidates exist."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n >= _BATCH_LIMIT:
        raise DomainError(f"cancellation sums support n < 2**31, got {n}")
    if alpha < 1:
        raise DomainError(f"need alpha >= 1, got {alpha}")
    if math.gcd(b, n) != 1:
        raise DomainError(f"b = {b} is not a unit mod {n}")
    _check_k(n, k)
    sols = _solutions(n, [(q, x == b % q) for q, x in _power_tables(factorize(n), alpha)])
    (z,) = _phase_sums(sols, [k], n)
    total = _csum(z, len(sols), n)
    return CancellationSum(n, alpha, b, k, total, len(sols), total.magnitude() / math.sqrt(n), sols)


@dataclass(frozen=True)
class DualCancellation:
    """Direct enumeration vs character-orthogonality evaluation of the same sum.

    The orthogonality route averages chi(b^-1) * tau(chi^alpha, k) over all
    characters mod n, with every tau from one FFT (`gauss_sums`); it must
    agree with the direct route within the error budgets of the values
    compared.
    """

    direct: CancellationSum
    via_characters: ComplexSum
    difference: float
    agrees: bool


def gauss_sums(group: CharacterGroup, k: int) -> np.ndarray:
    """tau(chi, k) for every character of the group, in character-index
    order, from one FFT.

    In the exponents t, tau(chi_t, k) = sum over units w of
    e(sum_i t_i a_i(w) / m_i) e(k w / n) is an inverse DFT over the
    discrete-log grid of shape group.orders, on which each unit w sits at
    its log vector a(w), flat index `log_combination(group.strides)`:
    tau = phi(n) * ifftn(grid).
    """
    n = group.n
    _check_root_table(n)
    flat = group.log_combination(group.strides)
    units = np.flatnonzero(flat >= 0)
    grid = np.zeros(group.total_order, np.complex128)
    grid[flat[units]] = _root_table(n)[(k % n) * units % n]
    return group.total_order * np.fft.ifftn(grid.reshape(group.orders or (1,))).ravel()


def character_average(direct: CancellationSum) -> DualCancellation:
    """The direct sum set beside its character-orthogonality average.
    DomainError, before the character group is built, when the average's
    e(m/n) table is past ROOT_TABLE_BYTES."""
    n, alpha, b, k = direct.n, direct.alpha, direct.b, direct.k
    _check_root_table(n)
    group = character_group(n)
    taus = gauss_sums(group, k)
    chi_binv = group.values_at(pow(b, -1, n))
    z = complex((chi_binv * taus[group.power_indices(alpha)]).sum()) / group.total_order
    via = _csum(z, n, n)
    diff = float(abs(z - direct.total.value))
    return DualCancellation(direct, via, diff, agrees(diff, direct.total, via))


def cancellation_sum_dual(n: int, alpha: int, b: int, k: int) -> DualCancellation:
    return character_average(cancellation_sum(n, alpha, b, k))


@dataclass(frozen=True)
class DecompositionReport:
    """Every class sum for one (n, k), with the two identity residuals.

    witness_sum and nonwitness_sum come from the classification scan.
    shared_factor_sum is the negated Ramanujan closed form, exact, with
    error_budget 0; dth_root_sum and minus_one_sum come from power-residue
    solution sets, the latter attributed to the least stage hitting -1
    (stage sets are checked disjoint; duplicates are counted, never
    silently merged).
    residual_total is |witness_sum + nonwitness_sum| and
    residual_partition is |nonwitness_sum - (the three class sums)|.
    """

    n: int
    k: int
    witness_sum: ComplexSum
    nonwitness_sum: ComplexSum
    shared_factor_sum: ComplexSum
    dth_root_sum: ComplexSum
    minus_one_sum: ComplexSum
    per_stage_sums: tuple[ComplexSum, ...]
    stage_duplicates: int
    residual_total: float
    residual_partition: float


def decomposition_reports(n: int, ks) -> list[DecompositionReport]:
    """Reports for several frequencies sharing one classification scan.

    The witness sum is term by term over the witnesses, in the blocks of
    `ResidueScan.witness_block`, and the non-witness sum over the other
    residues, both from the scan.  The d-th-root and
    per-stage sets are solved per prime power q || n instead: w**d mod q
    for every residue of each component, squared once per stage, and the
    sets of n assembled by `_solutions`.  That route shares only the
    scan's factorization with the classifier (no generator, no CRT
    idempotent), so the partition residual compares two independent
    constructions, and costs O(sum of q) plus the candidates of the largest
    component rather than O(n) pow evaluations.  Every k is checked first;
    then each set is summed for all ks in one `_phase_sums` call.
    """
    scan = classify_all(n)
    ks = list(ks)
    for k in ks:
        if _check_k(n, k) == 0:
            raise DomainError(f"k = {k} is divisible by n = {n}; the cancellation identity needs n to not divide k")
    tables = _power_tables(scan.fac, scan.d)
    root_solutions = _solutions(n, [(q, x == 1) for q, x in tables])
    stage_sets: list[np.ndarray] = []
    duplicates = 0
    for j in range(scan.s):
        sols = _solutions(n, [(q, x == q - 1) for q, x in tables])
        dup = np.isin(sols, np.concatenate(stage_sets)) if stage_sets else np.zeros(len(sols), bool)
        duplicates += int(dup.sum())
        stage_sets.append(sols[~dup])
        if j + 1 < scan.s:
            for q, x in tables:
                x *= x
                _reduce(x, q, np.empty_like(x))

    def class_sums(residues, count=None):
        """The sum over the residues (an array, or a block source of count
        residues) for each k, from one kernel call."""
        terms = len(residues) if count is None else count
        return [_csum(z, terms, n) for z in _phase_sums(residues, ks, n, count)]

    witness_sums = class_sums(scan.witness_block, scan.counts.witness)
    per_k = zip(ks, witness_sums, class_sums(scan.nonwitnesses),
                class_sums(root_solutions), zip(*map(class_sums, stage_sets)))
    out = []
    for k, s_wit, s_non, s2, stage_sums in per_k:
        closed = ramanujan_closed(scan.fac, k)
        s1 = ComplexSum(float(-closed), 0.0, scan.counts.non_coprime, 0.0)
        z3 = sum((cs.value for cs in stage_sums), 0j)
        s3 = _csum(z3, sum(cs.term_count for cs in stage_sums), n)
        residual_total = abs(s_wit.value + s_non.value)
        residual_partition = abs(s_non.value - (s1.value + s2.value + s3.value))
        out.append(
            DecompositionReport(
                n=n,
                k=k,
                witness_sum=s_wit,
                nonwitness_sum=s_non,
                shared_factor_sum=s1,
                dth_root_sum=s2,
                minus_one_sum=s3,
                per_stage_sums=stage_sums,
                stage_duplicates=duplicates,
                residual_total=residual_total,
                residual_partition=residual_partition,
            )
        )
    return out


def ramanujan_closed(fac: Factorization, k: int) -> int:
    """Integer value of the unit sum c_n(k) of n = fac.n, as the product of
    c_q(k) over the prime powers q = p**e || n (Ramanujan 1918): 0 when
    p**(e-1) does not divide k, -p**(e-1) when it does but q does not,
    and phi(q) when q divides k."""
    out = 1
    for p, e in fac.factors:
        low = p ** (e - 1)
        if k % low:
            return 0
        out *= low * (p - 1) if k % (low * p) == 0 else -low
    return out
