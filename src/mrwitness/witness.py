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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _scan
from .arith import factorize, is_prime
from .errors import DomainError


class WitnessClass(Enum):
    WITNESS = "witness"
    NON_COPRIME = "non-coprime"
    DTH_ROOT = "dth-root"
    MINUS_ONE = "minus-one"


_CODE_TO_CLASS = {
    _scan.CODE_WITNESS: WitnessClass.WITNESS,
    _scan.CODE_NON_COPRIME: WitnessClass.NON_COPRIME,
    _scan.CODE_DTH_ROOT: WitnessClass.DTH_ROOT,
    _scan.CODE_MINUS_ONE: WitnessClass.MINUS_ONE,
}
CLASS_TO_CODE = {v: k for k, v in _CODE_TO_CLASS.items()}


@dataclass(frozen=True)
class MRDecomposition:
    """The unique writing n - 1 = d * 2**s with d odd."""

    n: int
    d: int
    s: int


def mr_decompose(n: int) -> MRDecomposition:
    if n < 3 or n % 2 == 0:
        raise DomainError(f"need odd n >= 3, got {n}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return MRDecomposition(n, d, s)


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
    for j in range(dec.s):
        if x == n - 1:
            return WitnessClassification(w, WitnessClass.MINUS_ONE, stage=j)
        x = x * x % n
        if x == 1:
            break
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


@dataclass(frozen=True)
class ResidueScan:
    """Full classification of [0, n): per-residue codes, stages, and totals.

    `codes` uses the integer codes of `_scan`; `stages[w]` is the least j
    with w**(d * 2**j) = -1 for code-3 residues and -1 elsewhere.
    `overlap` is the engine's own consistency count (writes of the subgroup
    engine that landed on an already written residue, or units meeting both
    predicates on the pow route); it is always 0.
    """

    n: int
    d: int
    s: int
    codes: np.ndarray
    stages: np.ndarray
    counts: ClassCounts
    overlap: int

    @cached_property
    def witnesses(self) -> np.ndarray:
        return np.nonzero(self.codes == _scan.CODE_WITNESS)[0]

    @cached_property
    def nonwitnesses(self) -> np.ndarray:
        """The residues of the other three classes, ascending: the few
        that witness-set statistics are computed from."""
        return np.flatnonzero(self.codes != _scan.CODE_WITNESS)

    def members(self, category: WitnessClass) -> np.ndarray:
        return np.nonzero(self.codes == CLASS_TO_CODE[category])[0]


_BATCH_LIMIT = 2**31  # int64 products stay exact below this modulus


def classify_all(n: int, engine: str = "auto") -> ResidueScan:
    """Classify every residue of [0, n).

    engine: "auto" builds the strong liars from their subgroups
    (`_scan.scan_subgroups`); "numpy" runs the independent pow route
    (`_scan.scan_numpy`), which evaluates w**d mod n for every w and is
    used as a cross-check.
    """
    dec = mr_decompose(n)
    if n >= _BATCH_LIMIT:
        raise DomainError(f"full-residue scans support n < 2**31, got {n}")
    fac = factorize(n)
    if engine == "auto":
        codes, stages, counts, overlap = _scan.scan_subgroups(n, dec.d, dec.s, fac.factors)
    elif engine == "numpy":
        codes, stages, _, counts, overlap = _scan.scan_numpy(n, dec.d, dec.s, fac.primes)
    else:
        raise DomainError(f"unknown engine {engine!r}; expected 'auto' or 'numpy'")
    cc = ClassCounts(*(int(c) for c in counts))
    return ResidueScan(n, dec.d, dec.s, codes, stages, cc, int(overlap))


def _strong_test_fails(n: int, d: int, s: int, a: int) -> bool:
    """True when base a proves n composite (no coprimality requirement)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
        if x == 1:
            return True
    return True


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
        if _strong_test_fails(n, dec.d, dec.s, a):
            if least_any == 0:
                least_any = a
            if math.gcd(a, n) == 1:
                return a, least_any
    raise ArithmeticError(f"no witness found for composite {n}")  # pragma: no cover


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
    if n < 3 or n % 2 == 0:
        raise DomainError(f"need odd n >= 3, got {n}")
    if is_prime(n):
        raise DomainError(f"{n} is prime: no witnesses exist")
    scan = classify_all(n)
    liars = scan.counts.strong_liars
    w_count = scan.counts.witness
    lw, lf = least_witness(n)
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
