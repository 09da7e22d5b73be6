"""Reduced integral homology as graded abelian groups.

A graded group is a map degree -> multiset of cyclic orders, with 0 coding
an infinite cyclic factor and every finite order a prime power.  That
primary-decomposed form makes isomorphism a plain equality of sorted
tuples.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from typing import Iterable, Mapping

from .arith import prime_powers
from .complexes import ElementaryComplex, Summand, WedgeComplex, unshifted

__all__ = ["GradedAbelianGroup", "integral_homology", "kunneth",
           "wedge_homology", "primary_factors", "cyclic_label",
           "group_label"]


def primary_factors(n: int) -> list[int]:
    """Prime-power factors of |Z/n| (n=0 stays as the single factor 0)."""
    if n == 0:
        return [0]
    return [p ** e for p, e in prime_powers(abs(n))]


def cyclic_label(q: int) -> str:
    return "Z" if q == 0 else f"Z/{q}"


def group_label(orders: Iterable[int]) -> str:
    """A direct sum of cyclic groups (order 0 is Z); "0" when empty."""
    return " ⊕ ".join(cyclic_label(q) for q in orders) or "0"


class GradedAbelianGroup:
    """Degree-indexed sums of cyclic groups in canonical form."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, Iterable[int]] = ()):
        canon: dict[int, tuple[int, ...]] = {}
        for d, orders in dict(components).items():
            factors: list[int] = []
            for q in orders:
                factors.extend(primary_factors(q))
            factors = [q for q in factors if q != 1]
            if factors:
                canon[d] = tuple(sorted(factors))
        self.components = canon

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedAbelianGroup) and \
            self.components == other.components

    def __hash__(self):
        return hash(tuple(sorted(self.components.items())))

    def __bool__(self):
        return bool(self.components)

    def __getitem__(self, d: int) -> tuple[int, ...]:
        return self.components.get(d, ())

    def degrees(self) -> list[int]:
        return sorted(self.components)

    def dim(self, d: int) -> int:
        """Number of cyclic factors in degree d."""
        return len(self[d])

    def shift(self, m: int) -> "GradedAbelianGroup":
        return GradedAbelianGroup({d + m: v for d, v in self.components.items()})

    def direct_sum(self, other: "GradedAbelianGroup") -> "GradedAbelianGroup":
        return wedge_homology((self, other))

    def __str__(self) -> str:
        if not self.components:
            return "0"
        parts = []
        for d in self.degrees():
            parts.append(f"H_{d} = " + " + ".join(cyclic_label(q) for q in self[d]))
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"GradedAbelianGroup({self.components!r})"


def _tensor(a: int, b: int) -> int:
    # Z x Z -> Z; Z x Z/b -> Z/b; Z/a x Z/b -> Z/gcd
    if a == 0:
        return b
    if b == 0:
        return a
    return gcd(a, b)


def _tor(a: int, b: int) -> int:
    # Tor vanishes against Z
    if a == 0 or b == 0:
        return 1
    return gcd(a, b)


def _from_factors(factors: Mapping[int, list[int]]) -> GradedAbelianGroup:
    """The group with these factors, each already 0 or a prime power (none
    is 1), in canonical form without factoring them again."""
    total = GradedAbelianGroup()
    total.components = {d: tuple(sorted(v)) for d, v in factors.items()}
    return total


def kunneth(A: GradedAbelianGroup, B: GradedAbelianGroup) -> GradedAbelianGroup:
    """Reduced homology of a smash from the factors: tensor terms in degree
    i+j plus torsion-product terms in degree i+j+1.  Each term is Z, or the
    gcd of two prime powers, so 1 or a prime power, and is kept as it is."""
    out: dict[int, list[int]] = {}
    for i, ai in A.components.items():
        for j, bj in B.components.items():
            for a in ai:
                for b in bj:
                    t = _tensor(a, b)
                    if t != 1:
                        out.setdefault(i + j, []).append(t)
                    t = _tor(a, b)
                    if t != 1:
                        out.setdefault(i + j + 1, []).append(t)
    return _from_factors(out)


def _elementary_homology(c: ElementaryComplex) -> GradedAbelianGroup:
    # each cell is a Z; an attaching map of degree q kills its source cell
    # and cuts its target cell down to Z/q
    orders = [0] * len(c.cells())
    for (a, b), q in c.boundary().items():
        orders[a], orders[b] = 1, q
    out: dict[int, list[int]] = {}
    for d, q in zip(c.cells(), orders):
        out.setdefault(d, []).append(q)
    return GradedAbelianGroup(out)


@cache
def _summand_homology(c: Summand) -> GradedAbelianGroup:
    """Homology of one summand, computed once per process and shared by
    every caller; an atom's suspension shifts the homology of its base pair."""
    if isinstance(c, ElementaryComplex):
        return _elementary_homology(c)
    if c.shift:
        return _summand_homology(unshifted(c)).shift(c.shift)
    return kunneth(_summand_homology(c.left), _summand_homology(c.right))


def wedge_homology(parts: Iterable[GradedAbelianGroup]) -> GradedAbelianGroup:
    """Direct sum of the parts in one pass.  Their factors are already
    prime powers, so the sum only merges and sorts them."""
    out: dict[int, list[int]] = {}
    for g in parts:
        for d, orders in g.components.items():
            out.setdefault(d, []).extend(orders)
    return _from_factors(out)


def integral_homology(x: Summand | WedgeComplex) -> GradedAbelianGroup:
    """Reduced integral homology; atoms go through the Kunneth formula.
    A single summand's homology, alone or as a one-summand wedge, is the
    memoised one, so callers must not mutate the result."""
    if isinstance(x, WedgeComplex) and len(x.summands) == 1:
        x = x.summands[0]
    if not isinstance(x, WedgeComplex):
        return _summand_homology(x)
    return wedge_homology(_summand_homology(c) for c in x.summands)
