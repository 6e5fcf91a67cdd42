"""Classification of residues by strong-compositeness evidence.

For odd n write n - 1 = d * 2**s with d odd.  A residue w in [0, n) lands
in exactly one of four classes:

* shares a factor with n (gcd(w, n) > 1; this is where 0 lives),
* d-th root of unity (gcd(w, n) = 1 and w**d = 1 mod n),
* reaches -1 at a stage (gcd(w, n) = 1, w**d != 1, and w**(d * 2**j) = -1
  mod n for some 0 <= j < s; the least such j is recorded),
* witness: none of the above, certifying n composite.

The last three conditions are checked in that order; the first two classes
together are exactly the bases on which the strong probable-prime test
passes ("strong liars").

`classify_all` does only the per-n work that every caller needs: the
factorization and Monier's class counts.  Its `ResidueScan` builds the liar
sets and each larger array the first time it is read, so a prime is
refused from its counts before its n - 1 liars exist.  The witness
statistics read only `nonwitnesses` and `witness_block`.  The
non-witnesses come from a sorted array built from the factorization and
the liar sets when Monier's counts say they are few, and from one bool
mask otherwise.  No witness list is built: `witness_block` builds the
witnesses of a range of ranks from the sorted non-witnesses, so a phase
sum over them holds one block at a time.  The per-residue `codes` and
`stages` come from the independent pow route, `_scan.scan_numpy`, and
only the tests and perfbench read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _scan
from ._scan import _BATCH_LIMIT, _POW_BLOCK, CODE_WITNESS, liar_codes, pow_elementwise
from .arith import _PSI, _STRONG_BASES, Factorization, _minus_one_stage, factorize, is_prime, mr_split
from .errors import DomainError


class WitnessClass(Enum):
    WITNESS = "witness"
    NON_COPRIME = "non-coprime"
    DTH_ROOT = "dth-root"
    MINUS_ONE = "minus-one"


@dataclass(frozen=True)
class MRDecomposition:
    """The unique writing n - 1 = d * 2**s with d odd."""

    n: int
    d: int
    s: int


def mr_decompose(n: int) -> MRDecomposition:
    if n < 3 or n % 2 == 0:
        raise DomainError(f"need odd n >= 3, got {n}")
    return MRDecomposition(n, *mr_split(n))


@dataclass(frozen=True)
class WitnessClassification:
    """Why residue w got its class; stage is the least j hitting -1."""

    w: int
    category: WitnessClass
    stage: int | None = None
    gcd_value: int | None = None


def classify(n: int, w: int) -> WitnessClassification:
    """Classify a single residue. Exact for any odd n >= 3 up to 2**63 and beyond."""
    dec = mr_decompose(n)
    if not 0 <= w < n:
        raise DomainError(f"residue {w} out of range [0, {n})")
    g = math.gcd(w, n)
    if g > 1:
        return WitnessClassification(w, WitnessClass.NON_COPRIME, gcd_value=g)
    x = pow(w, dec.d, n)
    if x == 1:
        return WitnessClassification(w, WitnessClass.DTH_ROOT)
    stage = _minus_one_stage(x, n, dec.s)
    if stage is not None:
        return WitnessClassification(w, WitnessClass.MINUS_ONE, stage=stage)
    return WitnessClassification(w, WitnessClass.WITNESS)


@dataclass(frozen=True)
class ClassCounts:
    witness: int
    non_coprime: int
    dth_root: int
    minus_one: int

    @property
    def total(self) -> int:
        return self.witness + self.non_coprime + self.dth_root + self.minus_one

    @property
    def strong_liars(self) -> int:
        """Units on which the strong probable-prime test passes."""
        return self.dth_root + self.minus_one


def monier_counts(fac, d: int, s: int) -> tuple[ClassCounts, list[int]]:
    """The class sizes of odd n = fac.n, n - 1 = d * 2**s, and the
    minus-one count per stage, from the factorization alone (Monier 1980).

    The d-th roots number prod gcd(p - 1, d) over the primes p of n;
    stage j holds 2**(j * omega) times that for j < min(s, min v2(p - 1)),
    with omega distinct primes; n - phi(n) residues share a factor with n, and
    the witnesses are the units left over.
    """
    primes, phi = fac.primes, fac.phi
    roots = math.prod([math.gcd(p - 1, d) for p in primes])
    levels = min([s] + [mr_split(p)[1] for p in primes])
    per_stage = [roots << (len(primes) * j) for j in range(levels)]
    minus_one = sum(per_stage)
    return ClassCounts(phi - roots - minus_one, fac.n - phi, roots, minus_one), per_stage


# The non-witnesses are sorted from the factorization when 16 * m <= n
# for their number m = n - #witnesses.  Against np.flatnonzero of the mask
# (mask included) the sort wins from n / m near 20 at n = 10**5, 10**6 and
# 2 * 10**7 on a 2-CPU VM, and costs 1.1-1.3 times as long at n / m from
# 16 to 19 (0.04 against 0.78 ms at 2074757, n / m = 673).  It peaks near
# 17 B per non-witness, against n + 8m B for the mask route.
_SPARSE_RATIO = 16


@dataclass(frozen=True)
class ResidueScan:
    """Classification of [0, n): class counts, the strong liars, and the
    arrays derived from them, each built the first time it is read.

    `fac` is the factorization of n; `counts` and `per_stage` (the
    minus-one count per stage) come from `monier_counts`, and `liars` holds
    the sets of `_scan.liar_sets`, [d-th roots, stage 0, ...] in CRT order,
    all built from it.  `mask`, True at the non-witnesses, is written by
    `_scan.nonwitness_mask`.  `nonwitnesses`, ascending, are the residues
    inside it: from `_scan.nonwitness_array`, with no n-sized array, when
    Monier's counts give at most n / _SPARSE_RATIO of them, else read off
    the mask.  `witness_block(lo, hi)` gives the witnesses of ranks
    [lo, hi), ascending, from the non-witnesses alone.  The
    per-residue `codes` (the integer codes of `_scan`) and `stages` (the
    least stage reaching -1, else -1) are the first two outputs of the pow
    route `_scan.scan_numpy`, which tests every residue by its pow
    conditions and reads no liar set; only the tests and perfbench read
    them.
    """

    n: int
    d: int
    s: int
    fac: Factorization
    counts: ClassCounts
    per_stage: list[int]

    @cached_property
    def liars(self) -> list[np.ndarray]:
        return _scan.liar_sets(self.n, self.d, self.fac.factors)

    @cached_property
    def mask(self) -> np.ndarray:
        return _scan.nonwitness_mask(self.n, self.fac.primes, self.liars)

    @property
    def sparse(self) -> bool:
        """Whether `nonwitnesses` come from `_scan.nonwitness_array`: at
        most n / _SPARSE_RATIO of them by Monier's counts."""
        return _SPARSE_RATIO * (self.n - self.counts.witness) <= self.n

    @cached_property
    def nonwitnesses(self) -> np.ndarray:
        """The residues of the other three classes, ascending: the few
        that witness-set statistics are computed from."""
        if self.sparse:
            return _scan.nonwitness_array(self.n, self.fac.primes, self.liars)
        return np.flatnonzero(self.mask)

    @cached_property
    def _witnesses_below(self) -> np.ndarray:
        """The number of witnesses below each non-witness, ascending."""
        nw = self.nonwitnesses
        return nw - np.arange(len(nw))

    def witness_block(self, lo: int, hi: int) -> np.ndarray:
        """The witnesses of ranks [lo, hi), ascending int64, for
        0 <= lo < hi <= counts.witness.

        The witness of rank r is r + c, c the number of non-witnesses below
        it: those with fewer than r + 1 witnesses below them.  The block
        is the run from the first witness to the last with the
        non-witnesses between them cleared, block-sized throughout.
        """
        nw, below = self.nonwitnesses, self._witnesses_below
        c0, c1 = below.searchsorted([lo, hi - 1], "right").tolist()
        first = lo + c0
        keep = np.ones(hi - lo + c1 - c0, bool)
        keep[nw[c0:c1] - first] = False
        out = np.flatnonzero(keep)
        out += first
        return out

    @cached_property
    def _pow_route(self) -> tuple[np.ndarray, np.ndarray]:
        return _scan.scan_numpy(self.n, self.d, self.s, self.fac.primes)[:2]

    @property
    def codes(self) -> np.ndarray:
        return self._pow_route[0]

    @property
    def stages(self) -> np.ndarray:
        return self._pow_route[1]


def classify_all(n: int) -> ResidueScan:
    """Classify every residue of [0, n): the class counts of
    `monier_counts`, from which the scan builds the strong liars of
    `_scan.liar_sets` and its arrays when they are read.  Its codes and
    stages come from the pow route instead, so the tests and perfbench
    check the liar sets against an independent route."""
    dec = mr_decompose(n)
    if n >= _BATCH_LIMIT:
        raise DomainError(f"full-residue scans support n < 2**31, got {n}")
    fac = factorize(n)
    counts, per_stage = monier_counts(fac, dec.d, dec.s)
    return ResidueScan(n, dec.d, dec.s, fac, counts, per_stage)


def least_witness(n: int) -> tuple[int, int]:
    """(least witness, least base failing the strong test) for odd composite n.

    The first element honors the coprimality condition in the witness
    definition; the second is the conventional notion that admits bases
    sharing a factor with n.
    """
    if is_prime(n):
        raise DomainError(f"{n} is prime: no witnesses exist")
    dec = mr_decompose(n)
    least_any = 0
    for a in range(2, n):
        x = pow(a, dec.d, n)
        if x != 1 and _minus_one_stage(x, n, dec.s) is None:  # base a fails the strong test
            if least_any == 0:
                least_any = a
            if math.gcd(a, n) == 1:
                return a, least_any
    raise ArithmeticError(f"no witness found for composite {n}")  # pragma: no cover


# Every base up to this one is tried before a modulus below 2**31 that
# none of them fails is called prime: the prime bases 2, 3, 5 and 7 decide
# primality below psi_4 = 3215031751 (`arith._PSI`).
_LAST_DECIDING_BASE = _STRONG_BASES[next(t for psi, t in _PSI if _BATCH_LIMIT <= psi) - 1]


def least_witnesses(ns) -> tuple[np.ndarray, np.ndarray]:
    """`least_witness` of every odd composite n < 2**31 in ns, as two int64
    arrays: the least witnesses and the least failing bases.

    Bases a = 2, 3, ... are tried in rounds over the moduli of a block of
    _POW_BLOCK that still lack a coprime witness: a**d mod n by
    `_scan.pow_elementwise`, then the stage rule of `_scan.liar_codes`, so
    every temporary is block-sized.  A modulus that no base up to 7 fails
    is prime (`_LAST_DECIDING_BASE`).  DomainError for an even, prime or
    too large modulus; `least_witness` serves one n, and every n past
    2**31.
    """
    ns = np.asarray(ns, np.int64)
    bad = ns[(ns < 3) | (ns % 2 == 0)]
    if len(bad):
        raise DomainError(f"need odd n >= 3, got {bad[0]}")
    if len(ns) and ns.max() >= _BATCH_LIMIT:
        raise DomainError(f"batched least witnesses support n < 2**31, got {ns.max()}")
    small = ns[ns <= _LAST_DECIDING_BASE]  # 3, 5 or 7, which the rounds would reach
    if len(small):
        raise DomainError(f"{small[0]} is prime: no witnesses exist")
    least = np.zeros_like(ns)
    least_any = np.zeros_like(ns)
    for lo in range(0, len(ns), _POW_BLOCK):
        n = ns[lo : lo + _POW_BLOCK]
        s = np.log2((n - 1) & -(n - 1)).astype(np.int64)  # exact at powers of 2
        d = (n - 1) >> s
        found, found_any = least[lo : lo + _POW_BLOCK], least_any[lo : lo + _POW_BLOCK]
        pending = np.arange(len(n))
        a = 2
        while len(pending):
            m = n[pending]
            fails = liar_codes(pow_elementwise(a, d[pending], m), m, s[pending])[0] == CODE_WITNESS
            found_any[pending[fails & (found_any[pending] == 0)]] = a
            coprime = fails & (np.gcd(a, m) == 1)
            found[pending[coprime]] = a
            pending = pending[~coprime]
            if a == _LAST_DECIDING_BASE:
                primes = n[pending[found_any[pending] == 0]]
                if len(primes):
                    raise DomainError(f"{primes[0]} is prime: no witnesses exist")
            a += 1
    return least, least_any


@dataclass(frozen=True)
class BoundReport:
    """Classical bound checks for one odd composite n.

    paper_witness_fraction is #witnesses / (n - 1) as an exact rational.
    rabin_ok_paper_def asks #witnesses > 3(n-1)/4 with coprime-only
    witnesses; rabin_ok_liar_def asks #strong liars <= (n-1)/4.
    bach_bound is 2 * (ln n)**2, with the base-2 variant alongside since
    the literature is usually quoted in natural logs.
    """

    n: int
    witness_count: int
    paper_witness_fraction: Fraction
    strong_liar_count: int
    rabin_ok_paper_def: bool
    rabin_ok_liar_def: bool
    least_witness: int
    least_failing_base: int
    bach_bound: float
    bach_bound_log2: float
    bach_ok: bool


def bound_report(n: int) -> BoundReport:
    dec = mr_decompose(n)
    lw, lf = least_witness(n)  # refuses primes
    counts, _ = monier_counts(factorize(n), dec.d, dec.s)
    liars = counts.strong_liars
    w_count = counts.witness
    bach = 2.0 * math.log(n) ** 2
    return BoundReport(
        n=n,
        witness_count=w_count,
        paper_witness_fraction=Fraction(w_count, n - 1),
        strong_liar_count=liars,
        rabin_ok_paper_def=4 * w_count > 3 * (n - 1),
        rabin_ok_liar_def=4 * liars <= n - 1,
        least_witness=lw,
        least_failing_base=lf,
        bach_bound=bach,
        bach_bound_log2=2.0 * math.log2(n) ** 2,
        bach_ok=lw <= bach,
    )
