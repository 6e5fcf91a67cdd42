import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrwitness import expsums
from mrwitness.arith import divisors, euler_phi, factorize, primitive_root
from mrwitness.characters import CharacterGroup, UnitGroupComponent, character_group
from mrwitness.errors import DomainError


class TestGroupStructure:
    def test_mod_9(self):
        g = character_group(9)
        assert g.total_order == 6
        assert g.components[0].generators == (2,)
        assert g.orders == (6,)
        assert len(list(g.characters())) == 6

    def test_mod_8(self):
        g = character_group(8)
        comp = g.components[0]
        assert comp.generators == (7, 5)  # -1 then 5
        assert comp.orders == (2, 2)
        assert g.total_order == 4

    def test_mod_15(self):
        g = character_group(15)
        assert [c.modulus for c in g.components] == [3, 5]
        assert g.orders == (2, 4)
        assert g.total_order == 8

    def test_small_moduli_rejected(self):
        with pytest.raises(DomainError):
            character_group(1)
        with pytest.raises(DomainError):
            character_group(0)

    @pytest.mark.parametrize("n", range(2, 200))
    def test_character_count_is_phi(self, n):
        assert character_group(n).total_order == euler_phi(n)

    @pytest.mark.parametrize("n", range(2, 101))
    def test_characters_distinct_by_value_table(self, n):
        g = character_group(n)
        tables = {tuple(np.round(chi.value_table(), 9)) for chi in g.characters()}
        assert len(tables) == g.total_order


class TestEvaluation:
    def test_trivial_character(self):
        g = character_group(12)
        for w in range(12):
            expected = 1.0 if math.gcd(w, 12) == 1 else 0.0
            assert g.character_by_index(0)(w) == pytest.approx(expected)

    def test_nonunit_is_zero(self):
        g = character_group(9)
        for chi in g.characters():
            assert chi(0) == 0 and chi(3) == 0 and chi(6) == 0

    def test_order_two_character_mod_9(self):
        chi = character_group(9).character((3,))
        assert chi(2) == pytest.approx(-1)  # e(3/6)

    @given(st.integers(min_value=2, max_value=400), st.data())
    @settings(max_examples=150, deadline=None)
    def test_complete_multiplicativity(self, n, data):
        g = character_group(n)
        exps = tuple(data.draw(st.integers(0, m - 1)) for m in g.orders)
        chi = g.character(exps)
        units = [w for w in range(1, n) if math.gcd(w, n) == 1]
        u = data.draw(st.sampled_from(units))
        v = data.draw(st.sampled_from(units))
        assert chi(u * v % n) == pytest.approx(chi(u) * chi(v), abs=1e-12)

    @given(st.integers(min_value=2, max_value=300))
    @settings(max_examples=80, deadline=None)
    def test_orthogonality(self, n):
        g = character_group(n)
        totals = sum(chi.value_table() for chi in g.characters())
        for w in range(n):
            expect = g.total_order if w == 1 else 0.0
            assert abs(totals[w] - expect) < 1e-9

    def test_value_table_matches_scalar(self):
        for n in (2, 3, 4, 8, 9, 16, 24, 45):
            g = character_group(n)
            for chi in g.characters():
                table = chi.value_table()
                for w in range(n):
                    assert table[w] == pytest.approx(chi(w), abs=1e-12)

    @pytest.mark.parametrize("n", [65521, 65537])
    def test_value_table_matches_scalar_past_int32(self, n):
        # t * a reaches 2**32, past the int32 log tables; at n = 65521 the
        # exponent M = 65520 does not divide 2**32, so a wrapped product
        # would also change the value mod M
        g = character_group(n)
        for t in (3, 40001, n - 2):
            chi = g.character((t,))
            table = chi.value_table()
            for w in range(n):
                assert abs(table[w] - chi(w)) < 1e-12

    def test_component_limit_before_any_n_sized_array(self):
        """The prime 10000019 is past the 10**7 log-table limit: refused
        before the 80 MB int64 array of its log sums is built."""
        g = character_group(10_000_019)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="components up to 10000000"):
                g.character_by_index(1).value_table()
            with pytest.raises(DomainError, match="components up to 10000000"):
                expsums.gauss_sums(g, 1)
            with pytest.raises(DomainError, match="components up to 10000000"):
                expsums.gauss_sum_reduced(g.character_by_index(0), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_log_combination_reads_the_tables_at_w_mod_q(self):
        """Against int64 sums of tab[w % q]: one weight at a time, which
        reads every table alone, then weights whose products pass 2**31;
        -1 exactly on the w with gcd(w, n) > 1."""
        for n in [*range(1, 401), 255_255]:
            g = CharacterGroup(n)
            w = np.arange(n)
            tabs = [tab[w % comp.modulus].astype(np.int64) for comp in g.components for tab in comp.log_tables()]
            units = np.gcd(w, n) == 1
            r = len(tabs)
            for weights in [*([int(i == j) for j in range(r)] for i in range(r)), [2**40 + i for i in range(r)]]:
                got = g.log_combination(weights)
                want = sum((c * tab for c, tab in zip(weights, tabs)), np.zeros(n, np.int64))
                assert got.dtype == np.int64, n
                assert np.array_equal(got[units], want[units]), (n, weights)
                assert np.array_equal(got < 0, ~units) and (got[~units] == -1).all(), n

    def test_value_table_builds_no_residue_range(self):
        """255255 = 3*5*7*11*13*17: six components, none of them all of n.
        With the component tables built, a value table peaks at its int64
        log sums and the complex table itself: no tiled table and no
        residue range."""
        n = 255_255
        g = CharacterGroup(n)
        for comp in g.components:
            comp.log_tables()
        g.roots()
        chi = g.character_by_index(50_000)
        tracemalloc.start()
        try:
            chi.value_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n + 2**20


class TestPower:
    def test_zero_power_is_trivial(self):
        g = character_group(9)
        chi = g.character((1,))
        assert (chi**0).is_trivial

    def test_order_power_is_trivial(self):
        g = character_group(40)
        for chi in g.characters():
            assert (chi ** chi.order).is_trivial

    def test_power_exponents_mod_9(self):
        g = character_group(9)
        assert (g.character((1,)) ** 3).exponents == (3,)

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=12), st.data())
    @settings(max_examples=120, deadline=None)
    def test_power_is_pointwise_power(self, n, alpha, data):
        g = character_group(n)
        exps = tuple(data.draw(st.integers(0, m - 1)) for m in g.orders)
        chi = g.character(exps)
        units = [w for w in range(1, n) if math.gcd(w, n) == 1]
        w = data.draw(st.sampled_from(units))
        assert (chi**alpha)(w) == pytest.approx(chi(w) ** alpha, abs=1e-10)


class TestConductor:
    def test_trivial_has_conductor_one(self):
        q, chi1 = character_group(9).character_by_index(0).conductor()
        assert q == 1
        assert chi1(5) == 1  # the trivial-group character is identically 1

    def test_order_two_mod_9_comes_from_mod_3(self):
        chi = character_group(9).character((3,))
        q, chi1 = chi.conductor()
        assert q == 3
        # chi agrees with chi1 on every unit mod 9
        for w in (1, 2, 4, 5, 7, 8):
            assert chi(w) == pytest.approx(chi1(w), abs=1e-12)

    def test_faithful_characters_mod_9_are_primitive(self):
        g = character_group(9)
        for t in (1, 2, 4, 5):
            assert g.character((t,)).conductor()[0] == 9

    @pytest.mark.parametrize("n", [12, 16, 24, 36, 40, 45, 60])
    def test_conductor_divides_and_induces(self, n):
        g = character_group(n)
        for chi in g.characters():
            q, chi1 = chi.conductor()
            assert n % q == 0
            assert chi.is_primitive == (q == n)
            for w in range(n):
                if math.gcd(w, n) == 1:
                    assert chi(w) == pytest.approx(chi1(w), abs=1e-12)
            # the inducing character is itself primitive
            assert chi1.conductor()[0] == q


def brute_conductors(n: int):
    """Divisor-search oracle for every character mod n, in index order:
    (q, exponents mod q), q the least divisor of n such that the character
    is 1 on every unit w = 1 (mod q), the exponents read from its phases at
    coprime lifts of the generators mod q (CRT: the generator on its own
    prime power, 1 on the rest of q)."""
    g = CharacterGroup(n)
    w = np.arange(n)
    logs = [tab[w % comp.modulus] for comp in g.components for tab in comp.log_tables()]
    mask = np.gcd(w, n) == 1
    M = g.exponent
    exps = np.array(list(itertools.product(*(range(m) for m in g.orders))), np.int64)
    weights = np.array([M // m for m in g.orders], np.int64)
    phases = (exps * weights).reshape(len(exps), -1) @ np.array(logs, np.int64).reshape(-1, n) % M
    conductor = np.zeros(len(exps), np.int64)
    for q in reversed(divisors(n)):
        ones = [w for w in range(1, n, q) if mask[w]]
        conductor[(phases[:, ones] == 0).all(axis=1)] = q
    out = []
    for i, q in enumerate(conductor.tolist()):
        sub = CharacterGroup(q)
        exps1 = []
        for comp in sub.components:
            rest = q // comp.modulus
            for gen, m in zip(comp.generators, comp.orders):
                r = next(x for x in range(q) if x % comp.modulus == gen and x % rest == 1 % rest)
                w = next(w for w in range(r, n + q, q) if math.gcd(w, n) == 1) % n
                t, rem = divmod(int(phases[i, w]) * m, M)
                assert rem == 0
                exps1.append(t)
        out.append((q, tuple(exps1)))
    return out


class TestClosedFormConductor:
    def test_matches_divisor_search(self):
        for n in range(2, 301):
            g = character_group(n)
            for chi, (q, exps1) in zip(g.characters(), brute_conductors(n), strict=True):
                got_q, chi1 = chi.conductor()
                assert (got_q, chi1.modulus, chi1.exponents) == (q, q, exps1), (n, chi.exponents)
                assert chi.is_primitive == (q == n)

    def test_divisor_groups_built_once(self):
        g = character_group(360)
        q, chi1 = g.character((1, 0, 3, 0)).conductor()
        assert q == 12 and chi1.group is g.divisor_group(12)
        assert g.divisor_group(360) is g
        assert g.divisor_group(45).components == g.components[1:]  # shared, not rebuilt
        with pytest.raises(DomainError):
            g.divisor_group(7)


class TestIndexing:
    def test_round_trip(self):
        g = character_group(120)
        for i in range(g.total_order):
            assert g.character_by_index(i).index == i

    def test_enumeration_matches_indices(self):
        g = character_group(45)
        for i, chi in enumerate(g.characters()):
            assert chi.index == i

    def test_bad_index(self):
        with pytest.raises(DomainError):
            character_group(9).character_by_index(6)


def _walked_log_tables(p: int, e: int) -> list[list[int]]:
    """Log tables by walking the generator's powers one residue at a time
    in Python, independent of `_scan._powers`."""
    pe = p**e
    gens = primitive_root(p, e)
    tabs = [[0] * pe for _ in gens]
    if p == 2 and e >= 3:
        x = 1
        for t in range(gens[1][1]):
            tabs[1][x] = tabs[1][pe - x] = t
            tabs[0][pe - x] = 1
            x = x * 5 % pe
    elif gens:
        (g, m), x = gens[0], 1
        for a in range(m):
            tabs[0][x] = a
            x = x * g % pe
    return tabs


def test_log_tables_match_the_walked_powers():
    prime_powers = [(p, e) for q in range(2, 4097) for (p, e) in [factorize(q).factors[0]]
                    if p**e == q]
    prime_powers += [(2, e) for e in range(13, 17)] + [(999983, 1)]
    for p, e in prime_powers:
        tabs = UnitGroupComponent(p, e).log_tables()
        assert all(t.dtype == np.int32 for t in tabs)
        assert [t.tolist() for t in tabs] == _walked_log_tables(p, e), (p, e)
