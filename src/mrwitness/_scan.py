"""Batch residue classification for odd n < 2**31 and the modular kernels
it shares.

The non-witnesses are the multiples of each prime of n and the strong
liars that `liar_sets` builds instead of testing for them (Rabin 1980;
Monier 1980).  `nonwitness_mask` marks them in an n-byte mask;
`nonwitness_array` sorts them into an array of their size m alone, which
`witness.ResidueScan` reads when Monier's counts make m small.  Each
unit group mod p**e || n is cyclic with generator g, and there the level-t
set {x : x**(d * 2**t) = 1} is the subgroup of order
gcd(p - 1, d) * 2**min(t, v2(p - 1)).  A unit of n is a d-th root of unity
exactly when every component lies at level 0, and reaches -1 at stage j
exactly when every component lies at level j + 1 but not at level j: the
odd powers of the level-(j + 1) generator.  Such units exist only for
j < min v2(p_i - 1).  Both sets are CRT products of per-component power
tables, so the cost is the size of the liar set plus O(n) byte writes for
the mask or O(m log m) for the sorted array.  `witness.ResidueScan`
builds its witnesses a block at a time from the sorted non-witnesses,
never as one list.

`scan_numpy` is the independent pow route: w**d mod n for every w by
blocked, vectorized square-and-multiply, then the squaring stages.  It
gives the class codes and stages of `witness.ResidueScan`, which only the
tests and perfbench read to check the liar sets against it.

Class codes: 0 witness, 1 shares a factor with n, 2 d-th root of unity,
3 reaches -1 at some squaring stage.  The pow route also reports
`overlap`, the number of units satisfying both the root-of-unity and the
minus-one predicate, which must always be zero.

Shared kernels, each defined once here:

* `liar_sets`: the liar subgroups as residue arrays, the only builder of
  them (`witness.ResidueScan`, whose sets `nonwitness_mask` and
  `nonwitness_array` read, and the cancel-ratio suite's power-residue
  sets);
* `pow_elementwise`: base**exponent mod n with a modulus per element (the
  partition suite's batched pow re-check of each liar against the set it
  came from, and `witness.least_witnesses`);
* `liar_codes`: the stage rule on x = w**d, vectorized (`scan_numpy`, the
  same re-check, and `witness.least_witnesses`);
* `_powers`: the power table of one generator (the liar subgroups here,
  the discrete-log tables of `characters`, which invert it);
* `outer_sum`: one value per index vector, summed over components (the
  CRT products here, character values and power indices in `characters`);
* `_roots`: e(m/n) = exp(2*pi*i*m/n), the one source of those bits (the
  phase sums and root table of `expsums`, the character values of
  `characters`, which cannot import `expsums`).

The generators themselves come from the cached `arith.primitive_root`.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import mr_split, primitive_root
from .errors import DomainError

CODE_WITNESS = 0
CODE_NON_COPRIME = 1
CODE_DTH_ROOT = 2
CODE_MINUS_ONE = 3

_POW_BLOCK = 1 << 14  # residues per block of pow_all_numpy: 128 KiB per int64 buffer


def _powers(h: int, count: int, q: int) -> np.ndarray:
    """h**i mod q for i in [0, count): a short prefix in Python, then doubling."""
    head = [1]
    for _ in range(min(count, 64) - 1):
        head.append(head[-1] * h % q)
    if count == len(head):
        return np.array(head, np.int64)
    out = np.empty(count, np.int64)
    out[: len(head)] = head
    size, step = len(head), pow(h, len(head), q)  # step = h**size
    while size < count:
        k = min(size, count - size)
        np.multiply(out[:k], step, out=out[size : size + k])
        out[size : size + k] %= q
        size += k
        step = step * step % q
    return out


def outer_sum(parts) -> np.ndarray:
    """sum_i parts[i][t_i] for every index vector t, flat with the last
    index running fastest; [0] for no parts."""
    parts = list(parts) or [np.zeros(1, np.int64)]
    total = parts[0]
    for part in parts[1:]:
        total = np.add.outer(total, part)
    return total.ravel()


def liar_codes(x: np.ndarray, n, s) -> tuple[np.ndarray, np.ndarray]:
    """(codes, stages) of units with x = w**d mod n, n - 1 = d * 2**s.

    n and s are scalars or per-element arrays.  Code 2 where x = 1; code 3
    and stage j where j < s is least with x**(2**j) = -1; code 0 and stage
    -1 elsewhere.  x is never written into: one scratch copy of it is
    squared in place once per stage below max(s), reduced by `_reduce`, so
    the work arrays are two int64 copies of len(x) beside the codes and
    stages.  Products stay below n**2 < 2**62.
    """
    codes = np.where(x == 1, CODE_DTH_ROOT, CODE_WITNESS).astype(np.uint8)
    stages = np.full(len(x), -1, np.int8)
    y, quot = x.copy(), np.empty_like(x)
    for j in range(int(np.max(s))):
        if j:
            y *= y
            _reduce(y, n, quot)
        stages[(y == n - 1) & (stages < 0) & (j < s)] = j
    codes[stages >= 0] = CODE_MINUS_ONE
    return codes, stages


def liar_sets(n: int, d: int, factors) -> list[np.ndarray]:
    """The strong liars of odd n < 2**31, built from their subgroups:
    [d-th roots of unity, stage 0, ..., stage L - 1], L = min v2(p - 1).

    factors: the (p, e) pairs of n.  Each array holds distinct residues in
    CRT order, not sorted.
    """
    if n >= _BATCH_LIMIT:
        raise DomainError(f"liar-set construction supports n < 2**31, got {n}")
    levels = min(mr_split(p)[1] for p, _ in factors)
    tables = []
    for p, e in factors:
        q = p**e
        ((g, phi),) = primitive_root(p, e)
        order = math.gcd(p - 1, d) << levels  # the deepest level used
        cofactor = n // q
        idempotent = cofactor * pow(cofactor, -1, q) % n
        table = _powers(pow(g, phi // order, q), order, q)
        table *= idempotent  # < q * n < 2**62
        table %= n
        tables.append(table)

    # level 0 everywhere, then exact level j + 1
    components = [[t[:: 1 << levels] for t in tables]]
    for j in range(levels):
        step = 1 << (levels - j - 1)
        components.append([t[step :: 2 * step] for t in tables])
    sets = [outer_sum(parts) for parts in components]
    if len(tables) > 1:  # a sum of several components reaches len(tables) * n
        for idx in sets:
            idx %= n
    return sets


def nonwitness_mask(n: int, primes, sets) -> np.ndarray:
    """True at the non-witnesses of [0, n): the multiples of each prime of
    n and the liars in `sets` (from `liar_sets`).  `witness.ResidueScan`
    reads the non-witnesses from it when they are many."""
    mask = np.zeros(n, bool)
    for p in primes:
        mask[::p] = True
    for idx in sets:
        mask[idx] = True
    return mask


def nonwitness_array(n: int, primes, sets) -> np.ndarray:
    """The non-witnesses of [0, n), ascending int64, with no n-sized array:
    the multiples of each prime of n and the liars in `sets` (from
    `liar_sets`), sorted, with equal neighbours dropped.  The liar sets are
    disjoint units, so only multiples of two primes repeat.  Equals
    np.flatnonzero(nonwitness_mask(n, primes, sets)); the sort costs
    O(m log m) in their number m = n - phi(n) + #liars."""
    out = np.concatenate([np.arange(0, n, p, dtype=np.int64) for p in primes] + list(sets))
    out.sort()  # in place, the default kind: a stable sort took 8x as long
    keep = np.empty(len(out), bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _reduce(p: np.ndarray, n, quot: np.ndarray) -> None:
    """p -= (p // n) * n in place, using quot as scratch; n a scalar or an
    array of p's shape.

    Exact for 0 <= p < 2**63; numpy divides by a scalar through a
    precomputed multiplicative inverse (Granlund and Montgomery 1994),
    several times faster than `%`.
    """
    np.floor_divide(p, n, out=quot)
    quot *= n
    p -= quot


def _roots(z: np.ndarray, n: int) -> np.ndarray:
    """e(m/n) in place of each m of the complex array z: the one source of these bits."""
    z *= 2j * np.pi
    z /= n
    return np.exp(z, out=z)


_BATCH_LIMIT = 2**31  # int64 products stay exact below this modulus (pow_all_numpy)


def pow_all_numpy(n: int, exponent: int) -> np.ndarray:
    """w**exponent mod n for every w in [0, n), by vectorized left-to-right
    square-and-multiply.

    Requires 1 <= n < 2**31: every product of two residues is below
    2**62, so the floor-divide reduction is exact.  The residues are walked
    in blocks of _POW_BLOCK, every exponent bit applied to one block before
    the next, so the multiply-reduce passes touch three block-sized buffers
    that stay in cache instead of streaming n-sized arrays through memory
    once per bit.
    """
    out = np.empty(n, np.int64)
    if exponent == 0:
        out[:] = 1 % n
        return out
    bits = bin(exponent)[3:]  # after the leading 1, which sets out = w
    ramp = np.arange(min(n, _POW_BLOCK), dtype=np.int64)
    base = np.empty_like(ramp)
    quot = np.empty_like(ramp)
    for lo in range(0, n, _POW_BLOCK):
        m = min(_POW_BLOCK, n - lo)
        w, q, acc = base[:m], quot[:m], out[lo : lo + m]
        np.add(ramp[:m], lo, out=w)
        acc[:] = w
        for bit in bits:
            acc *= acc
            _reduce(acc, n, q)
            if bit == "1":
                acc *= w
                _reduce(acc, n, q)
    return out


def pow_elementwise(base, exponent, modulus) -> np.ndarray:
    """base**exponent mod modulus for each element: int64 arrays of one
    length, or scalars broadcast against them.

    Requires 1 <= modulus < 2**31 and exponent >= 0, so every product of
    two residues is below 2**62 and exact in int64.  Right-to-left
    square-and-multiply with per-element exponent and modulus, over blocks
    of _POW_BLOCK elements, so the temporaries are block-sized whatever
    the length.
    """
    base, exponent, modulus = np.broadcast_arrays(
        *(np.asarray(v, np.int64) for v in (base, exponent, modulus)))
    out = np.empty(base.shape, np.int64)
    for lo in range(0, len(out), _POW_BLOCK):
        n = modulus[lo : lo + _POW_BLOCK]
        b = base[lo : lo + _POW_BLOCK] % n
        e = exponent[lo : lo + _POW_BLOCK].copy()
        x = out[lo : lo + _POW_BLOCK]
        np.remainder(1, n, out=x)
        prod = np.empty_like(b)
        while True:
            np.multiply(x, b, out=prod)
            np.remainder(prod, n, out=prod)
            np.copyto(x, prod, where=(e & 1) == 1)
            e >>= 1
            if not e.any():
                break
            b *= b
            np.remainder(b, n, out=b)
    return out


def scan_numpy(n: int, d: int, s: int, prime_factors) -> tuple:
    """The pow route: evaluate both membership predicates for every unit.

    Returns (codes, stages, powd, counts, overlap), with powd[w] = w**d mod n.
    """
    powd = pow_all_numpy(n, d)
    codes, stages = liar_codes(powd, n, s)
    for p in prime_factors:
        codes[::p] = CODE_NON_COPRIME
    overlap = int(np.count_nonzero((powd == 1) & (stages >= 0)))
    counts = np.bincount(codes, minlength=4).astype(np.int64)
    return codes, stages, powd, counts, overlap
