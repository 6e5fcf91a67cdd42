"""Dirichlet characters mod n as exponent vectors on canonical generators.

The unit group mod n splits over the prime powers dividing n.  Each odd
p**e block is cyclic with the smallest primitive root as generator; the
2**e block contributes no generator (e = 1), the single generator 3
(e = 2), or the pair (-1, 5) with orders (2, 2**(e-2)) for e >= 3.  A
character is one exponent per generator, and its value at a unit w is
e(sum_i t_i * a_i / m_i) where the a_i are componentwise discrete logs of
w.  Logs come from per-component int32 lookup tables built on first use
by scattering the indices of the generator's power table; they are the
only copy, and n-wide sums of logs read each one through an (n/q, q)
view of their output.  Every phase is an integer numerator over the
group exponent M, so equality tests (orthogonality, conductors) never
depend on floating-point tolerances, and value tables index one cached
table of e(j/M) per group.

The conductor is a product of per-component conductors read off the
exponents in closed form, and the inducing primitive character's
exponents are looked up in the component log tables; no divisor of n is
searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from ._scan import _BATCH_LIMIT, _powers, _roots, outer_sum
from .arith import factorize, primitive_root
from .errors import DomainError

_LOG_TABLE_LIMIT = 10**7


def _valuation(x: int, p: int) -> int:
    """Exponent of the prime p in x != 0."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class UnitGroupComponent:
    """Generators and discrete logs for the units of one prime power p**e."""

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.modulus = p**e
        gens = primitive_root(p, e)
        self.generators = tuple(g for g, _ in gens)
        self.orders = tuple(m for _, m in gens)
        self._logs: tuple[np.ndarray, ...] | None = None

    def log_tables(self) -> tuple[np.ndarray, ...]:
        """Per-generator exponent (int32) of every residue mod p**e; 0 on
        non-units, so callers test w mod p first.

        Idempotent build, safe to race: concurrent callers compute identical
        tables and the final assignment is atomic.
        """
        if self._logs is None:
            pe = self.modulus
            if pe > _LOG_TABLE_LIMIT:
                raise DomainError(
                    f"character evaluation supports prime-power components up to {_LOG_TABLE_LIMIT}"
                )
            tabs = [np.zeros(pe, np.int32) for _ in self.generators]
            if self.p == 2 and self.e >= 3:  # units are +-5**t
                m = self.orders[1]
                x = _powers(5, m, pe)
                tabs[1][x] = tabs[1][pe - x] = np.arange(m, dtype=np.int32)
                tabs[0][pe - x] = 1
            elif self.generators:  # the inverse of the generator's power table
                m = self.orders[0]
                tabs[0][_powers(self.generators[0], m, pe)] = np.arange(m, dtype=np.int32)
            self._logs = tuple(tabs)
        return self._logs

    def conductor_exponent(self, exps: tuple[int, ...]) -> int:
        """f with p**f the conductor of the component character that has
        these exponents on the generators.

        Odd p**e, exponent t: 0 when t = 0, else max(1, e - v_p(t)); 2**2
        follows the same rule.  2**e with e >= 3 and exponents (a, b) on
        (-1, 5): e - v_2(b) when b != 0, else 2 when a != 0, else 0.
        """
        if not any(exps):
            return 0
        if self.p == 2 and self.e >= 3:
            a, b = exps
            return self.e - _valuation(b, 2) if b else 2
        return max(1, self.e - _valuation(exps[0], self.p))

    def induced_exponents(self, exps: tuple[int, ...], sub: "UnitGroupComponent") -> list[int]:
        """Exponents on the generators of `sub` (the component mod p**f, f
        at least this character's conductor exponent) of the character mod
        p**f that induces the one with `exps` here.

        Its value at a generator g of `sub` is this character's value at g
        itself, a unit mod p**e congruent to g mod p**f; the phase of that
        value is read through the log tables as a numerator over the
        component exponent L.
        """
        L = math.lcm(*self.orders)
        tabs = self.log_tables()
        out = []
        for g, m in zip(sub.generators, sub.orders):
            num = sum(t * int(tab[g]) * (L // mi) for t, tab, mi in zip(exps, tabs, self.orders))
            t1, rem = divmod(num * m, L)
            if rem:  # pragma: no cover - the character does not factor through p**f
                raise ArithmeticError("conductor phase not a root of unity of the right order")
            out.append(t1 % m)
        return out


class CharacterGroup:
    """The full dual of (Z/nZ)*: exactly phi(n) characters, enumerated
    lexicographically over exponent vectors.

    `components` is for `divisor_group`, which passes the components it
    shares with a parent group; by default they are built from the
    factorization of n.
    """

    def __init__(self, n: int, components: tuple[UnitGroupComponent, ...] | None = None):
        if n < 1:
            raise DomainError(f"need modulus >= 1, got {n}")
        self.n = n
        if components is None:
            components = tuple(UnitGroupComponent(p, e) for p, e in factorize(n).factors) if n > 1 else ()
        self.components = components
        self.orders = tuple(m for c in self.components for m in c.orders)
        self.total_order = math.prod(self.orders)  # = phi(n)
        # a character's index is sum_i t_i * strides[i], the last exponent running fastest
        self.strides = tuple(math.prod(self.orders[i + 1 :]) for i in range(len(self.orders)))
        self.exponent = math.lcm(*self.orders)
        self._root_values: np.ndarray | None = None
        self._divisor_groups: dict[int, CharacterGroup] = {}

    def divisor_group(self, q: int) -> "CharacterGroup":
        """The character group mod a divisor q of n, built once per q.

        It shares every component whose prime power q keeps whole, log
        tables included, and factors nothing.
        """
        if q == self.n:
            return self
        sub = self._divisor_groups.get(q)
        if sub is None:
            if q < 1 or self.n % q:
                raise DomainError(f"{q} does not divide {self.n}")
            comps = []
            for comp in self.components:
                f = _valuation(q, comp.p)
                if f == comp.e:
                    comps.append(comp)
                elif f:
                    comps.append(UnitGroupComponent(comp.p, f))
            sub = self._divisor_groups[q] = CharacterGroup(q, tuple(comps))
        return sub

    def log_vector(self, w: int) -> tuple[int, ...] | None:
        """Discrete logs of w on every generator, or None when gcd(w, n) > 1."""
        out = []
        for comp in self.components:
            r = w % comp.modulus
            if r % comp.p == 0:  # non-unit; matters when the block has no generators
                return None
            out.extend(int(tab[r]) for tab in comp.log_tables())
        return tuple(out)

    def log_combination(self, weights) -> np.ndarray:
        """sum_i weights[i] * a_i(w) as int64 for every w in [0, n), one
        non-negative weight per generator; -1 on the non-units.

        Each component's table, times its weights, is added to the rows of
        an (n/q, q) view, which reads it at w mod q with no tiled copy and
        no residue range.
        """
        if self.n >= _BATCH_LIMIT:
            raise DomainError(f"character value tables support n < 2**31, got {self.n}")
        # each component meets its size limit here, before any n-sized array
        rows = [(comp.modulus, tab) for comp in self.components for tab in comp.log_tables()]
        out = np.zeros(self.n, np.int64)
        for (q, tab), c in zip(rows, weights, strict=True):
            if c:
                view = out.reshape(-1, q)
                view += np.multiply(tab, c, dtype=np.int64)  # widened first: c * a can pass 2**31
        for comp in self.components:
            out[:: comp.p] = -1
        return out

    def roots(self) -> np.ndarray:
        """e(j/M) for j in [0, M), M the group exponent, from `_scan._roots`; built once."""
        if self._root_values is None:
            self._root_values = _roots(np.arange(self.exponent, dtype=np.complex128), self.exponent)
        return self._root_values

    def character(self, exponents) -> "DirichletCharacter":
        exps = tuple(int(t) % m for t, m in zip(exponents, self.orders, strict=True))
        return DirichletCharacter(self, exps)

    def characters(self):
        """All phi(n) characters in lexicographic exponent order."""
        for exps in product(*(range(m) for m in self.orders)):
            yield DirichletCharacter(self, exps)

    def character_by_index(self, i: int) -> "DirichletCharacter":
        if not 0 <= i < self.total_order:
            raise DomainError(f"character index {i} out of range [0, {self.total_order})")
        return DirichletCharacter(self, tuple(i // s % m for s, m in zip(self.strides, self.orders)))

    def values_at(self, w: int) -> np.ndarray:
        """chi(w) for every character, in index order."""
        logs = self.log_vector(w % self.n)
        if logs is None:
            return np.zeros(self.total_order, np.complex128)
        M = self.exponent
        num = outer_sum(
            np.arange(m, dtype=np.int64) * a % m * (M // m) for a, m in zip(logs, self.orders)
        )
        return self.roots()[num % M]

    def power_indices(self, alpha: int) -> np.ndarray:
        """Index of chi**alpha for every character index."""
        return outer_sum(
            np.arange(m, dtype=np.int64) * alpha % m * s for m, s in zip(self.orders, self.strides)
        )


@lru_cache(maxsize=8)
def character_group(n: int) -> CharacterGroup:
    """The character group mod n >= 2, shared by callers of the same n while
    it stays among the 8 most recently used moduli."""
    if n < 2:
        raise DomainError(f"need modulus >= 2, got {n}")
    return CharacterGroup(n)


@dataclass(frozen=True)
class DirichletCharacter:
    group: CharacterGroup = field(repr=False)
    exponents: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.group.n

    @property
    def index(self) -> int:
        return sum(t * s for t, s in zip(self.exponents, self.group.strides))

    @property
    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)

    @property
    def order(self) -> int:
        return math.lcm(*(m // math.gcd(t, m) for t, m in zip(self.exponents, self.group.orders)))

    def __call__(self, w: int) -> complex:
        logs = self.group.log_vector(w % self.group.n)
        if logs is None:
            return 0j
        M = self.group.exponent
        num = sum(t * a * (M // m) for t, a, m in zip(self.exponents, logs, self.group.orders)) % M
        return complex(_roots(np.array([num], np.complex128), M)[0])  # the bits of roots()[num]

    def __pow__(self, alpha: int) -> "DirichletCharacter":
        if alpha < 0:
            raise DomainError("character powers take non-negative exponents")
        return DirichletCharacter(
            self.group,
            tuple(t * alpha % m for t, m in zip(self.exponents, self.group.orders)),
        )

    def value_table(self) -> np.ndarray:
        """Values at every w in [0, n), from `CharacterGroup.log_combination`."""
        M = self.group.exponent
        num = self.group.log_combination(t * (M // m) for t, m in zip(self.exponents, self.group.orders))
        num %= M
        vals = self.group.roots()[num]
        for comp in self.group.components:
            vals[:: comp.p] = 0
        return vals

    def _component_exponents(self):
        """(component, its exponents, its conductor exponent f) per component."""
        pos = 0
        for comp in self.group.components:
            exps = self.exponents[pos : pos + len(comp.orders)]
            pos += len(comp.orders)
            yield comp, exps, comp.conductor_exponent(exps)

    def conductor(self) -> tuple[int, "DirichletCharacter"]:
        """(q, primitive character mod q inducing this one).

        q is the product over the components p**e of their conductors p**f
        (`UnitGroupComponent.conductor_exponent`), O(#components).  The
        inducing character lives on `group.divisor_group(q)`; its exponents
        are this character's unchanged on components kept whole and
        `UnitGroupComponent.induced_exponents` on the others.  A primitive
        character returns itself; the trivial character returns q = 1 and
        the character of the trivial group.
        """
        parts = [part for part in self._component_exponents() if part[2]]
        q = math.prod(comp.p**f for comp, _, f in parts)
        if q == self.group.n:
            return q, self
        sub = self.group.divisor_group(q)
        exps1: list[int] = []
        for (comp, exps, _), comp1 in zip(parts, sub.components, strict=True):
            exps1 += exps if comp1 is comp else comp.induced_exponents(exps, comp1)
        return q, DirichletCharacter(sub, tuple(exps1))

    @property
    def is_primitive(self) -> bool:
        return all(f == comp.e for comp, _, f in self._component_exponents())
