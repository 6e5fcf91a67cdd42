"""Exact integer arithmetic and classical multiplicative functions.

Everything here is deterministic: primality is the strong test that
defines a witness (`mr_split` and the walk `_minus_one_stage`, shared with
`witness`) at the first t prime bases below the proven bound psi_t, exact
below psi_13 = 3317044064679887385961981
(about 3.3 * 10^24) and refused from there on; factorization combines
trial division with Brent's cycle-finding variant of the rho method using
a fixed parameter schedule.  No probabilistic verdicts are surfaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

# psi_t, the least odd composite that passes the strong test to each of the
# first t prime bases: below it those t bases decide primality exactly
# (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang and Deng
# 2014; Sorenson and Webster 2017).  psi_7 = psi_8 and psi_9 = psi_10 =
# psi_11, so each value is listed once, with the largest t it serves.
# psi_12 = 399165290221 * 798330580441 passes every base to 37.
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 8),
    (3825123056546413051, 11),
    (_PSI_12, 12),
    (_PSI_13, 13),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
TRIAL_LIMIT = 2400  # factorize trial-divides by the odd d below this before Brent's rho


def mr_split(n: int) -> tuple[int, int]:
    """(d, s) with n - 1 = d * 2**s and d odd, for n >= 2."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    return (n - 1) >> s, s


def _minus_one_stage(x: int, n: int, s: int) -> int | None:
    """The least j < s with x**(2**j) = -1 mod n, or None (x = w**d)."""
    for j in range(s):
        if x == n - 1:
            return j
        x = x * x % n
        if x == 1:
            return None
    return None


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < psi_13 (about 3.3e24).

    Trial division by the primes to 47, then strong tests to the first t
    prime bases for the least t with n < psi_t (`_PSI`): base 2 alone
    below 2047, bases 2 and 3 below 1373653, up to the 13 bases to 41;
    DomainError at or above psi_13, where no fixed base set is proven.
    """
    if n < 2:
        return False
    if n >= _PSI_13:
        raise DomainError(f"deterministic primality is proven only below {_PSI_13}, got {n}")
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = mr_split(n)
    t = next(t for psi, t in _PSI if n < psi)
    for a in _STRONG_BASES[:t]:
        x = pow(a, d, n)
        if x != 1 and x != n - 1 and _minus_one_stage(x, n, s) is None:  # a is a witness
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition: product of p**e over `factors` equals `n`."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def phi(self) -> int:
        """Euler's phi(n): the product of p**(e - 1) * (p - 1)."""
        return math.prod([p ** (e - 1) * (p - 1) for p, e in self.factors])

    def reconstruct(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n, deterministic parameter schedule."""
    if n % 2 == 0:
        return 2
    # (y0, c) pairs tried in order; for 64-bit inputs one of these always succeeds.
    for seed in range(1, 64):
        y, c, m = seed, seed, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1, primes ascending."""
    if n < 1:
        raise DomainError(f"cannot factor {n}; need n >= 1")
    out: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        # m has no prime factor up to 47, so below 53**2 it is prime
        if m < 53 * 53 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # composite with no factor <= 47: any divisor below 53**2 found by
        # stepping odd d from 49 is necessarily prime
        found = 0
        d = 49
        while d * d <= m and d < TRIAL_LIMIT:
            if m % d == 0:
                found = d
                break
            d += 2
        if not found:
            found = _brent_rho(m)
        stack.append(found)
        stack.append(m // found)
    return Factorization(n, tuple(sorted(out.items())))


def euler_phi(n: int) -> int:
    """Count of 1 <= w <= n with gcd(w, n) = 1."""
    return factorize(n).phi


def sigma(n: int) -> int:
    """Sum of the d >= 1 that divide n."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


@lru_cache(maxsize=1 << 14)
def primitive_root(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """Canonical generators of the unit group mod p**e, as (generator, order) pairs.

    Odd p: the single smallest primitive root g, order phi(p**e).
    p = 2: () for e = 1, ((3, 2),) for e = 2, and ((2**e - 1, 2), (5, 2**(e-2)))
    for e >= 3 (the classical -1, 5 pair).  Cached: the classifier and
    the character groups share one search per prime power.
    """
    if e < 1:
        raise DomainError(f"exponent must be >= 1, got {e}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        if e == 1:
            return ()
        if e == 2:
            return ((3, 2),)
        return ((2**e - 1, 2), (5, 2 ** (e - 2)))
    pe = p**e
    phi = pe // p * (p - 1)
    prime_divs = [q for q, _ in factorize(phi).factors]
    for g in range(2, pe):
        if g % p == 0:
            continue
        if all(pow(g, phi // q, pe) != 1 for q in prime_divs):
            return ((g, phi),)
    raise ArithmeticError(f"no primitive root mod {p}**{e}")  # pragma: no cover
