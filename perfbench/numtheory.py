"""Small exact number theory written for the benchmark alone.

Input generation and output checks use these routes instead of the
package's own, so that a check never confirms a result with the code that
produced it.  Everything here works by trial division and is meant for the
benchmark's moduli (below about 10**7).
"""

from __future__ import annotations

import math


def factor(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization of n >= 1 by trial division, primes ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == [(n, 1)]


def phi(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def divisor_count(n: int) -> int:
    return math.prod(e + 1 for _, e in factor(n))


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factor(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def v2(m: int) -> int:
    return (m & -m).bit_length() - 1


def primitive_character_count(n: int) -> int:
    """Number of primitive characters mod n: the Dirichlet convolution mu * phi,
    which is p - 2 on a prime p and p**(e-2) * (p-1)**2 on p**e with e >= 2."""
    out = 1
    for p, e in factor(n):
        out *= p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2
    return out


def class_counts(n: int) -> dict[str, int]:
    """Class sizes of [0, n) for odd n >= 3 by Monier's closed form.

    With n - 1 = d * 2**s and n = prod p_i**e_i over k distinct primes, the
    d-th roots of unity number prod gcd(d, p_i - 1), and the units reaching
    -1 first at stage j number 2**(j*k) times that product for
    j < min(s, min v2(p_i - 1)), and none beyond.
    """
    s = v2(n - 1)
    d = (n - 1) >> s
    fac = factor(n)
    roots = math.prod(math.gcd(d, p - 1) for p, _ in fac)
    levels = min(s, min(v2(p - 1) for p, _ in fac))
    minus_one = sum(2 ** (j * len(fac)) * roots for j in range(levels))
    units = phi(n)
    return {
        "witness": units - roots - minus_one,
        "non_coprime": n - units,
        "dth_root": roots,
        "minus_one": minus_one,
    }
