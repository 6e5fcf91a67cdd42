import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrwitness import arith
from mrwitness.errors import DomainError
from mrwitness.suites import _prime_sieve


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestIsPrime:
    PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
    PSI_13 = 3317044064679887385961981

    def test_psi_12_passes_every_base_to_37(self):
        # the regression: a strong pseudoprime to all of 2..37, caught by 41
        n = self.PSI_12
        assert 399165290221 * 798330580441 == n
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            assert x in (1, n - 1) or n - 1 in (pow(x, 2**j, n) for j in range(1, s))
        assert not arith.is_prime(n)
        assert arith.is_prime(399165290221) and arith.is_prime(798330580441)

    # (psi_t, t, its prime factors): the least odd composite that passes
    # the strong test to each of the first t prime bases; psi_7 = psi_8 and
    # psi_9 = psi_10 = psi_11 appear once, with the largest t
    PSI = [
        (2047, 1, (23, 89)),
        (1373653, 2, (829, 1657)),
        (25326001, 3, (2251, 11251)),
        (3215031751, 4, (151, 751, 28351)),
        (2152302898747, 5, (6763, 10627, 29947)),
        (3474749660383, 6, (1303, 16927, 157543)),
        (341550071728321, 8, (10670053, 32010157)),
        (3825123056546413051, 11, (149491, 747451, 34233211)),
        (PSI_12, 12, (399165290221, 798330580441)),
        (PSI_13, 13, (1287836182261, 2575672364521)),
    ]

    @pytest.mark.parametrize("psi,t,factors", PSI)
    def test_psi_t_is_a_composite_strong_liar_to_its_first_t_bases(self, psi, t, factors):
        """Composite by its factors, and a strong liar to the first t prime
        bases by Python's `pow` and this test's own walk, never by the
        strong test under test; `is_prime` uses exactly these bounds."""
        assert math.prod(factors) == psi and min(factors) > 1
        d, s = psi - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)[:t]:
            x = pow(a, d, psi)
            assert x in (1, psi - 1) or psi - 1 in (pow(x, 2**j, psi) for j in range(1, s)), a
        assert (psi, t) in arith._PSI
        assert arith._PSI == tuple((p, k) for p, k, _ in self.PSI)

    @pytest.mark.parametrize("psi,t,factors", PSI[:-1])
    def test_psi_t_is_caught_by_the_next_base(self, psi, t, factors):
        assert not arith.is_prime(psi)
        assert all(arith.is_prime(p) for p in factors)

    def test_refused_from_psi_13(self):
        for n in (self.PSI_13, self.PSI_13 + 2, 2**89 - 1):
            with pytest.raises(DomainError):
                arith.is_prime(n)
        assert not arith.is_prime(self.PSI_13 - 4)  # divisible by 3

    def test_matches_a_sieve_below_10_6(self):
        """Every n < 10**6 against Eratosthenes, which shares nothing with
        the strong test.  The range holds the base-2 strong pseudoprimes
        2047, 3277 and 4033, where a walk that misses -1 or stops early
        turns a verdict."""
        limit = 10**6
        sieve = _prime_sieve(limit - 1)
        for n in (2047, 3277, 4033):  # composite, and base 2 passes them
            d, s = n - 1, 0
            while d % 2 == 0:
                d, s = d // 2, s + 1
            assert not sieve[n]
            assert pow(2, d, n) == 1 or any(pow(2, d << j, n) == n - 1 for j in range(s))
        assert [n for n in range(limit) if arith.is_prime(n)] == sieve.nonzero()[0].tolist()

    def test_small_values(self):
        assert [n for n in range(-3, 50) if arith.is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        ]


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, ()),
            (9, ((3, 2),)),
            (2, ((2, 1),)),
            (360, ((2, 3), (3, 2), (5, 1))),
            (1056331, ((727, 1), (1453, 1))),  # trial-division oracle
        ],
    )
    def test_known(self, n, expected):
        assert arith.factorize(n).factors == expected

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            arith.factorize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_round_trip_and_primality(self, n):
        fac = arith.factorize(n)
        assert fac.reconstruct() == n
        assert list(fac.primes) == sorted(fac.primes)
        assert all(e >= 1 for _, e in fac.factors)
        assert all(arith.is_prime(p) for p in fac.primes)

    @given(st.integers(min_value=2, max_value=10**4))
    @settings(max_examples=120)
    def test_matches_trial_division(self, n):
        assert list(arith.factorize(n).factors) == trial_factor(n)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert arith.factorize(p * q).factors == ((p, 1), (q, 1))


class TestMultiplicativeFunctions:
    def test_examples(self):
        assert arith.euler_phi(9) == 6
        assert arith.euler_phi(1) == 1
        # phi by direct unit count: 8
        assert arith.euler_phi(15) == 8

    @given(st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=150)
    def test_phi_counts_units(self, n):
        brute = sum(1 for w in range(1, n + 1) if math.gcd(w, n) == 1)
        assert arith.euler_phi(n) == brute

    def test_sigma_is_the_divisor_sum(self):
        """sigma(n) against the sum of the divisors found by trial division
        up to sqrt(n), with no `factorize`, for n <= 3000."""
        for n in range(1, 3001):
            divisors = {x for d in range(1, math.isqrt(n) + 1) if n % d == 0 for x in (d, n // d)}
            assert arith.sigma(n) == sum(divisors), n


class TestPrimitiveRoot:
    def test_odd_prime_power(self):
        # 2^a mod 9 runs through all six units
        assert arith.primitive_root(3, 2) == ((2, 6),)
        assert arith.primitive_root(5, 1) == ((2, 4),)  # cycle 2,4,3,1

    def test_two_power_cases(self):
        assert arith.primitive_root(2, 1) == ()
        assert arith.primitive_root(2, 2) == ((3, 2),)
        assert arith.primitive_root(2, 5) == ((31, 2), (5, 8))

    def test_not_prime_rejected(self):
        with pytest.raises(DomainError):
            arith.primitive_root(9, 1)

    @pytest.mark.parametrize("pe", [(3, 1), (3, 3), (7, 2), (11, 1), (23, 2), (2, 6)])
    def test_generator_orders(self, pe):
        p, e = pe
        n = p**e
        gens = arith.primitive_root(p, e)
        group_order = arith.euler_phi(n)
        assert math.prod(m for _, m in gens) == group_order
        for g, m in gens:
            assert pow(g, m, n) == 1
            for q in arith.factorize(m).primes:
                assert pow(g, m // q, n) != 1

    def test_generators_generate(self):
        # every unit mod 9 is a power of 2; mod 32 every unit is (-1)^a 5^b
        assert sorted(pow(2, a, 9) for a in range(6)) == [1, 2, 4, 5, 7, 8]
        units = {(-1) ** a * pow(5, b, 32) % 32 for a in range(2) for b in range(8)}
        assert units == {w for w in range(32) if w % 2 == 1}
