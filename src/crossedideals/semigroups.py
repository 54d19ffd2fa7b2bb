"""Finite inverse semigroups as multiplication tables.

Elements are dense indices 0..size-1 with optional display names.  The
involution is part of the data; validation checks associativity, the
involutive anti-homomorphism laws, s s* s = s, and that idempotents
commute (which forces uniqueness of generalized inverses).  The table
is an exactlin.IndexTable, so associativity is its first_failure and the
generators are its generating set, each computed once on the one table
object and shared by every structure built on it.  The semigroup is
frozen, so its report is computed once and kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactlin import IndexTable
from .validation import ValidationReport


@dataclass(frozen=True)
class InverseSemigroup:
    mult: tuple
    star: tuple
    names: tuple | None = None

    def __post_init__(self):
        n = len(self.mult)
        object.__setattr__(self, "mult", IndexTable.of(self.mult))
        object.__setattr__(self, "star", tuple(self.star))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != n:
                raise ValueError("one name per element required")
        if len(self.star) != n or any(len(row) != n for row in self.mult):
            raise ValueError("malformed multiplication table")
        if not self.mult.entries.issubset(range(n)):
            for row in self.mult:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(f"product {v} out of range")
        for v in self.star:
            if not 0 <= v < n:
                raise ValueError(f"involution value {v} out of range")

    @property
    def size(self) -> int:
        return len(self.mult)

    def product(self, s: int, t: int) -> int:
        return self.mult[s][t]

    def inv(self, s: int) -> int:
        return self.star[s]

    def name(self, s: int) -> str:
        return self.names[s] if self.names else str(s)

    def element_index(self, token: str) -> int:
        """Look an element up by display name, falling back to its index."""
        if self.names and token in self.names:
            return self.names.index(token)
        if token.isdigit():
            i = int(token)
            if 0 <= i < self.size:
                return i
        raise ValueError(f"unknown semigroup element {token!r}")

    @cached_property
    def idempotents(self) -> tuple:
        return tuple(e for e in range(self.size) if self.mult[e][e] == e)

    @property
    def generators(self) -> tuple:
        """The table's IndexTable.generators: every element is a product of
        these."""
        return self.mult.generators

    @cached_property
    def _leq_pairs(self) -> frozenset:
        """Every (s, t) with s <= t, from one walk of t e over the
        idempotents e."""
        return frozenset((self.mult[t][e], t)
                         for t in range(self.size) for e in self.idempotents)

    def leq(self, s: int, t: int) -> bool:
        """Natural partial order: s <= t iff s = t e for some idempotent e."""
        return (s, t) in self._leq_pairs

    @cached_property
    def _order_pairs(self) -> tuple:
        return tuple(sorted((s, t) for s, t in self._leq_pairs if s != t))

    def order_pairs(self) -> tuple:
        """All strictly comparable pairs (s, t) with s <= t, s != t,
        computed once per semigroup."""
        return self._order_pairs

    def unitize(self) -> "InverseSemigroup":
        """Adjoin a fresh two-sided unit as the last element (always,
        even if the semigroup already has one)."""
        n = self.size
        mult = [list(row) + [s] for s, row in enumerate(self.mult)]
        mult.append(list(range(n)) + [n])
        star = list(self.star) + [n]
        names = (tuple(self.names) + ("1+",)) if self.names else None
        return InverseSemigroup(tuple(tuple(r) for r in mult), tuple(star), names)

    def validate(self) -> ValidationReport:
        """The first failing law with its witness, or a pass, kept after
        the first call."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        n = self.size
        failure = self.mult.first_failure
        mult, star = tuple(self.mult), self.star    # a plain tuple indexes faster
        if failure is not None:
            return ValidationReport.failed("associativity", map(self.name, failure))
        for s in range(n):
            if star[star[s]] != s:
                return ValidationReport.failed("involution", (self.name(s),))
        for s in range(n):
            for t in range(n):
                if star[mult[s][t]] != mult[star[t]][star[s]]:
                    return ValidationReport.failed(
                        "star-antihomomorphism", (self.name(s), self.name(t)))
        for s in range(n):
            if mult[mult[s][star[s]]][s] != s:
                return ValidationReport.failed("inverse-law", (self.name(s),))
        idem = [e for e in range(n) if mult[e][e] == e]
        for e in idem:
            for f in idem:
                if mult[e][f] != mult[f][e]:
                    return ValidationReport.failed(
                        "commuting-idempotents", (self.name(e), self.name(f)))
        return ValidationReport.passed()
