"""Batch residue-classification engines.

Both engines classify every residue of [0, n) for odd n < 2**31.

`scan_subgroups` (the default) builds the strong liars instead of testing
for them (Rabin 1980; Monier 1980).  Each unit group mod p**e || n is
cyclic with generator g, and there the level-t set
{x : x**(d * 2**t) = 1} is the subgroup of order
gcd(p - 1, d) * 2**min(t, v2(p - 1)).  A unit of n is a d-th root of unity
exactly when every component lies at level 0, and reaches -1 at stage j
exactly when every component lies at level j + 1 but not at level j: the
odd powers of the level-(j + 1) generator.  Such units exist only for
j < min v2(p_i - 1).  Both sets are CRT products of per-component power
tables, so the cost is O(n) byte writes plus the size of the liar set.

`scan_numpy` is the independent pow route: w**d mod n for every w by
blocked, vectorized square-and-multiply, then the squaring stages.

Class codes: 0 witness, 1 shares a factor with n, 2 d-th root of unity,
3 reaches -1 at some squaring stage.  Each engine also reports `overlap`,
which must always be zero: for the subgroup engine the number of writes
that land on an already written residue, for the pow route the number of
units satisfying both the root-of-unity and the minus-one predicate.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import primitive_root

CODE_WITNESS = 0
CODE_NON_COPRIME = 1
CODE_DTH_ROOT = 2
CODE_MINUS_ONE = 3

_POW_BLOCK = 1 << 14  # residues per block of pow_all_numpy: 128 KiB per int64 buffer


@lru_cache(maxsize=1 << 14)
def _generator(p: int, e: int) -> tuple[int, int]:
    """(primitive root, group order) of the units mod p**e, p odd."""
    ((g, phi),) = primitive_root(p, e)
    return g, phi


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


def _crt_product(parts, n: int) -> np.ndarray:
    """Residues mod n whose CRT components run over `parts` (already scaled by
    their idempotents), as a flat index array."""
    acc = parts[0]
    for part in parts[1:]:
        acc = np.add.outer(acc, part).ravel()
        acc %= n
    return acc


def scan_subgroups(n: int, d: int, s: int, factors) -> tuple:
    """Classify [0, n) by constructing the liar subgroups of each p**e || n.

    factors: the (p, e) pairs of n.  Returns (codes, stages, counts, overlap).
    """
    codes = np.zeros(n, np.uint8)
    stages = np.full(n, -1, np.int8)
    for p, _ in factors:
        codes[::p] = CODE_NON_COPRIME

    levels = min(((p - 1) & -(p - 1)).bit_length() - 1 for p, _ in factors)
    tables = []
    for p, e in factors:
        q = p**e
        g, phi = _generator(p, e)
        order = math.gcd(p - 1, d) << levels  # the deepest level used
        cofactor = n // q
        idempotent = cofactor * pow(cofactor, -1, q) % n
        table = _powers(pow(g, phi // order, q), order, q)
        table *= idempotent  # < q * n < 2**62
        table %= n
        tables.append(table)

    # (code, stage, component sets): level 0 everywhere, then exact level j + 1
    liar_sets = [(CODE_DTH_ROOT, -1, [t[:: 1 << levels] for t in tables])]
    for j in range(levels):
        step = 1 << (levels - j - 1)
        liar_sets.append((CODE_MINUS_ONE, j, [t[step :: 2 * step] for t in tables]))
    written = np.count_nonzero(codes)
    for code, stage, parts in liar_sets:
        idx = _crt_product(parts, n)
        written += len(idx)
        codes[idx] = code
        if stage >= 0:
            stages[idx] = stage

    nonzero = np.count_nonzero(codes)
    overlap = written - nonzero
    counts = np.zeros(4, np.int64)
    counts[CODE_DTH_ROOT] = np.count_nonzero(codes == CODE_DTH_ROOT)
    counts[CODE_MINUS_ONE] = np.count_nonzero(codes == CODE_MINUS_ONE)
    counts[CODE_NON_COPRIME] = nonzero - counts[CODE_DTH_ROOT] - counts[CODE_MINUS_ONE]
    counts[CODE_WITNESS] = n - nonzero
    return codes, stages, counts, overlap


def _reduce(p: np.ndarray, n: int, quot: np.ndarray) -> None:
    """p -= (p // n) * n in place, using quot as scratch.

    Exact for 0 <= p < 2**63; numpy divides by a scalar through a
    precomputed multiplicative inverse (Granlund and Montgomery 1994),
    several times faster than `%`.
    """
    np.floor_divide(p, n, out=quot)
    quot *= n
    p -= quot


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


def scan_numpy(n: int, d: int, s: int, prime_factors) -> tuple:
    """The pow route: evaluate both membership predicates for every unit.

    Returns (codes, stages, powd, counts, overlap), with powd[w] = w**d mod n.
    """
    codes = np.zeros(n, np.uint8)
    coprime = np.ones(n, bool)
    coprime[0] = False
    for p in prime_factors:
        coprime[::p] = False
    codes[~coprime] = CODE_NON_COPRIME

    powd = pow_all_numpy(n, d)
    is_root = coprime & (powd == 1)
    stages = np.full(n, -1, np.int8)
    cur = powd.copy()
    alive = coprime.copy()
    overlap = 0
    for j in range(s):
        hit = alive & (cur == n - 1)
        stages[hit] = j
        overlap += int(np.count_nonzero(hit & is_root))
        alive &= ~hit
        if j + 1 < s and alive.any():
            idx = np.nonzero(alive)[0]
            sq = cur[idx] * cur[idx] % n
            cur[idx] = sq
            alive[idx[sq == 1]] = False

    hit_any = stages >= 0
    codes[is_root] = CODE_DTH_ROOT
    codes[coprime & hit_any & ~is_root] = CODE_MINUS_ONE
    stages[codes != CODE_MINUS_ONE] = -1
    counts = np.bincount(codes, minlength=4).astype(np.int64)
    return codes, stages, powd, counts, overlap
