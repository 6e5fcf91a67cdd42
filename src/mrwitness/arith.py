"""Exact integer arithmetic and classical multiplicative functions.

Everything here is deterministic: primality is decided by a fixed-base
strong test that is exact for n below psi_13 = 3317044064679887385961981
(about 3.3 * 10^24) and refused at or above it, and factorization combines
trial division with Brent's cycle-finding variant of the rho method using
a fixed parameter schedule.  No probabilistic verdicts are surfaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import DomainError

# Strong pseudoprime bounds (Sorenson and Webster 2017): the prime bases
# up to 37 decide primality exactly below psi_12, and adding 41 extends that
# to psi_13.  psi_12 = 399165290221 * 798330580441 passes every base to 37.
_STRONG_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
_PSI_13 = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus without intermediate overflow.

    Supports moduli up to (and past) 2**63 thanks to Python integers.
    """
    if modulus < 2:
        raise DomainError(f"modulus must be >= 2, got {modulus}")
    if exponent < 0:
        raise DomainError(f"exponent must be >= 0, got {exponent}")
    return pow(base % modulus, exponent, modulus)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < psi_13 (about 3.3e24).

    Strong tests to the prime bases up to 37, plus base 41 from psi_12 on;
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
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _STRONG_BASES if n < _PSI_12 else _STRONG_BASES + (41,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        # composite with no factor <= 47: any divisor below 53**2 found by
        # stepping odd d from 49 is necessarily prime
        found = 0
        d = 49
        while d * d <= m and d < 2400:
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
    phi = 1
    for p, e in factorize(n).factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def mobius(n: int) -> int:
    """+1 / -1 for squarefree n with an even / odd number of prime factors, else 0."""
    fac = factorize(n)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n, sorted ascending."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def sigma(n: int) -> int:
    """Sum of the divisors of n."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


@dataclass(frozen=True)
class MultiplicativeFunctions:
    phi: int
    mobius: int
    divisors: tuple[int, ...]


def multiplicative_functions(n: int) -> MultiplicativeFunctions:
    """Euler phi, Mobius mu, and the sorted divisor list of n in one call."""
    return MultiplicativeFunctions(euler_phi(n), mobius(n), tuple(divisors(n)))


def primitive_root(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """Canonical generators of the unit group mod p**e, as (generator, order) pairs.

    Odd p: the single smallest primitive root g, order phi(p**e).
    p = 2: () for e = 1, ((3, 2),) for e = 2, and ((2**e - 1, 2), (5, 2**(e-2)))
    for e >= 3 (the classical -1, 5 pair).
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


def lcm_all(values) -> int:
    return reduce(math.lcm, values, 1)
