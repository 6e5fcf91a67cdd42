"""Exponential sums over witness classes, units, and power-residue sets.

All sums are of the shape sum of e(k*w/n) with e(x) = exp(2*pi*i*x), taken
over structured residue sets: a witness class, the units (Ramanujan sum),
a character-twisted full range (Gauss sum), or the solution set of
w**alpha = b mod n (the cancellation sum).  Wherever a closed form or a
reduction exists, it is computed alongside a term-by-term brute-force sum
and the two are compared, never assumed equal.

Each accumulated sum carries an error budget of modulus * 2**-50, a
deliberately generous cover for pairwise-summation rounding; two routes
agree when they differ by less than the error budgets of the values
compared (`agrees`), never by an ad-hoc tolerance.  The budget is
empirical, not a worst-case bound: the verification suites measure
residuals of 0.03-0.31 of it.

Term-by-term phase sums over n-sized residue sets run through one
kernel, `_phase_sums`, for any list of frequencies k.  It works in blocks
of at most _LEAF residues whose boundaries are the nodes of numpy's own
pairwise-summation tree (`_pairwise_blocks`).  That tree depends only on
the number of terms, so adding the block sums back up it gives the
full-array `table[idx].sum()` bit for bit, while the index, scratch and
gathered arrays stay block-sized.  The blocks are independent, so they
run through `concurrency.ordered_map`, on `thread_count()` workers from
the main thread and inline from any other, and their sums are added up
the tree in the same order: the same bits for any worker count.
`gauss_sum_brute` walks the same blocks over the full range [0, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._scan import _BATCH_LIMIT, _reduce, pow_all_numpy
from .arith import Factorization, factorize
from .characters import CharacterGroup, DirichletCharacter, character_group
from .concurrency import ordered_map
from .errors import DomainError
from .witness import classify_all

MAX_FREQUENCY = 10**6  # |k| beyond this is outside the supported desk scale

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
    sqrt(n)) are not passed."""
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


@lru_cache(maxsize=8)
def _root_table(n: int) -> np.ndarray:
    """e(m/n) for m in [0, n), the bits of exp(2j*pi*arange(n)/n) built in place."""
    z = 2j * np.pi * np.arange(n)
    z /= n
    return np.exp(z, out=z)


def _check_k(n: int, k: int) -> int:
    if k == 0:
        raise DomainError("frequency k must be nonzero")
    if abs(k) > MAX_FREQUENCY:
        raise DomainError(f"|k| is limited to {MAX_FREQUENCY}")
    return k % n


_LEAF = 2**15  # residues per block; at least numpy's 64-value pairwise leaf


def _pairwise(residues: np.ndarray, leaf):
    """leaf(block) over the blocks of numpy's pairwise-summation tree of
    len(residues) complex values, added back up the same tree.

    numpy sums c complex values as the sum of its first (c - c % 8) // 2
    and the rest, recursively, down to leaves of at most 64 values that it
    adds in a fixed order (Higham 1993).  Any node of more than _LEAF
    values is therefore split where numpy splits it, and a block's own
    `.sum()` is numpy's sum of that node.
    """
    count = len(residues)
    if count <= _LEAF:
        return leaf(residues)
    half = (count - count % 8) // 2
    return _pairwise(residues[:half], leaf) + _pairwise(residues[half:], leaf)


def _pairwise_blocks(residues: np.ndarray, leaf):
    """`_pairwise(residues, leaf)`, its blocks run through `ordered_map`.

    The block sums are added back up the same tree in the same order, so
    the result is the same bits for any worker count, and an error is the
    first in block order, as serially.
    """
    if len(residues) <= _LEAF:  # no thread count, no pool: the cost of one leaf
        return leaf(residues)
    sums = iter(ordered_map(leaf, _pairwise(residues, lambda block: [block])))
    return _pairwise(residues, lambda block: next(sums))


def _phase_sums(residues: np.ndarray, ks, n: int) -> list[complex]:
    """[sum of e(k*w/n) over the residues w in [0, n) for k in ks], each
    equal bit for bit to the full-array `_root_table(n)[k*w % n].sum()`.

    Within a block, the index k*w mod n of a k whose residue mod n is one
    more than the previous k's is carried from it: adding w < n to an
    index below n gives a sum t < 2n, and t mod n is the smaller of t and
    t - n read as unsigned, where t - n < 0 wraps above 2**63.  Any other
    k reduces (k mod n) * w afresh, which is below n**2 < 2**62 for
    n < 2**31, so the floor-divide reduction is exact and gives the same
    indices as `%`.  Each k then gathers the same table entries in the
    same order and sums them on the same tree.
    """
    krs = [k % n for k in ks]
    if len(residues) == 0:
        return [0j] * len(krs)
    table = _root_table(n)

    def leaf(ws):
        idx = np.empty(len(ws), np.int64)
        scratch = np.empty_like(idx)
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

    return _pairwise_blocks(residues, leaf).tolist()


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
    if n >= _BATCH_LIMIT:
        raise DomainError(f"unit enumeration supports n < 2**31, got {n}")
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
    block-sized temporaries."""
    n = chi.modulus
    vals = chi.value_table()
    table = _root_table(n)
    kr = k % n

    def leaf(ws):  # consecutive residues: their values are a slice, not a gather
        return (vals[ws[0]:ws[0] + len(ws)] * table[kr * ws % n]).sum()

    z = complex(_pairwise_blocks(np.arange(n, dtype=np.int64), leaf))
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


def _components(fac) -> list[int]:
    """The prime powers q || n of the factorization of n, largest first."""
    return sorted((p**e for p, e in fac.factors), reverse=True)


def _solutions(n: int, tables) -> np.ndarray:
    """The w in [0, n), ascending, with mask[w % q] true for every (q, mask).

    tables: one (q, mask) per prime power q || n, largest q first, mask a
    bool array of length q; by CRT the set is their product.  Candidates
    w = r + q0 * t run over the members r of the largest component and all
    t < n / q0, laid out t-major so that they come ascending, and are
    sieved through the other components' masks.
    """
    q0, mask0 = tables[0]
    cand = (np.arange(0, n, q0, dtype=np.int64)[:, None] + np.flatnonzero(mask0)).ravel()
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
    (`_solutions`)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if alpha < 1:
        raise DomainError(f"need alpha >= 1, got {alpha}")
    if math.gcd(b, n) != 1:
        raise DomainError(f"b = {b} is not a unit mod {n}")
    _check_k(n, k)
    if n >= _BATCH_LIMIT:
        raise DomainError(f"solution enumeration supports n < 2**31, got {n}")
    sols = _solutions(n, [(q, pow_all_numpy(q, alpha) == b % q) for q in _components(factorize(n))])
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
    its log vector a(w), flat index `log_combination(strides)`:
    tau = phi(n) * ifftn(grid).
    """
    n = group.n
    flat = group.log_combination(math.prod(group.orders[i + 1 :]) for i in range(len(group.orders)))
    units = np.flatnonzero(flat >= 0)
    grid = np.zeros(group.total_order, np.complex128)
    grid[flat[units]] = _root_table(n)[(k % n) * units % n]
    return group.total_order * np.fft.ifftn(grid.reshape(group.orders or (1,))).ravel()


def cancellation_sum_dual(n: int, alpha: int, b: int, k: int) -> DualCancellation:
    direct = cancellation_sum(n, alpha, b, k)
    group = character_group(n)
    taus = gauss_sums(group, k)
    chi_binv = group.values_at(pow(b, -1, n))
    z = complex((chi_binv * taus[group.power_indices(alpha)]).sum()) / group.total_order
    via = _csum(z, n, n)
    diff = float(abs(z - direct.total.value))
    return DualCancellation(direct, via, diff, agrees(diff, direct.total, via))


@dataclass(frozen=True)
class DecompositionReport:
    """Every class sum for one (n, k), with the two identity residuals.

    witness_sum and nonwitness_sum come from the classification scan.
    shared_factor_sum is the negated Ramanujan closed form; dth_root_sum
    and minus_one_sum come from power-residue solution sets, the latter
    attributed to the least stage hitting -1 (stage sets are checked
    disjoint; duplicates are counted, never silently merged).
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

    The witness sum is term by term over the witnesses and the non-witness
    sum over the other residues, both from the scan.  The d-th-root and
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
    comps = _components(scan.fac)
    powers = [pow_all_numpy(q, scan.d) for q in comps]
    root_solutions = _solutions(n, [(q, x == 1) for q, x in zip(comps, powers)])
    stage_sets: list[np.ndarray] = []
    seen = np.zeros(n, bool)
    duplicates = 0
    for j in range(scan.s):
        sols = _solutions(n, [(q, x == q - 1) for q, x in zip(comps, powers)])
        dup = seen[sols]
        duplicates += int(dup.sum())
        stage_sets.append(sols[~dup])
        seen[sols] = True
        if j + 1 < scan.s:
            for q, x in zip(comps, powers):
                x *= x
                _reduce(x, q, np.empty_like(x))

    def class_sums(residues):
        """The sum over the residues for each k, from one kernel call."""
        return [_csum(z, len(residues), n) for z in _phase_sums(residues, ks, n)]

    per_k = zip(ks, class_sums(scan.witnesses), class_sums(scan.nonwitnesses),
                class_sums(root_solutions), zip(*map(class_sums, stage_sets)))
    out = []
    for k, s_wit, s_non, s2, stage_sums in per_k:
        closed = ramanujan_closed(scan.fac, k)
        s1 = _csum(complex(-closed, 0.0), scan.counts.non_coprime, n)
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
