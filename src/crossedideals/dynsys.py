"""Finite ample dynamical systems: an inverse semigroup acting by partial
bijections on a finite set, plus the germ combinatorics living over it.

Two elements s, t acting around a point x have the same germ when some
idempotent e with x in its domain satisfies s e = t e; germs are stored by
their canonical representative (smallest element index).  Everything the
induction machinery needs (germ fibers, isotropy groups, orbits,
transversals) is computed here once and memoized.  A point or element
out of range raises ValueError, checked only where a table is built or a
lookup fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import Field, FiniteAlgebra, StructureError, first_nonassociative
from .semigroups import InverseSemigroup
from .validation import ValidationReport


class PartialBijection:
    """Injective partial map on {0..n-1}, composed like functions."""

    __slots__ = ("pairs", "_map")

    def __init__(self, mapping):
        if isinstance(mapping, dict):
            items = sorted(mapping.items())
        else:
            items = sorted((int(a), int(b)) for a, b in mapping)
        self._map = dict(items)
        if len(self._map) != len(items):
            raise ValueError("duplicate source point")
        if len(set(self._map.values())) != len(self._map):
            raise ValueError("not injective")
        self.pairs = tuple(items)

    @staticmethod
    def identity(points) -> "PartialBijection":
        return PartialBijection({x: x for x in points})

    @staticmethod
    def empty() -> "PartialBijection":
        return PartialBijection({})

    def domain(self) -> tuple:
        return tuple(a for a, _ in self.pairs)

    def image(self) -> tuple:
        return tuple(sorted(b for _, b in self.pairs))

    def defined_at(self, x: int) -> bool:
        return x in self._map

    def apply(self, x: int) -> int:
        return self._map[x]

    def get(self, x: int):
        return self._map.get(x)

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """self after other, on the largest domain where both act."""
        out = {}
        for x, y in other.pairs:
            z = self._map.get(y)
            if z is not None:
                out[x] = z
        return PartialBijection(out)

    def inverse(self) -> "PartialBijection":
        return PartialBijection({b: a for a, b in self.pairs})

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        body = ", ".join(f"{a}->{b}" for a, b in self.pairs)
        return f"PartialBijection({{{body}}})"


@dataclass(frozen=True)
class Germ:
    """Germ class of (element, point), stored by its canonical (minimal
    index) representative element."""

    element: int
    point: int


class AmpleSystem:
    """An inverse semigroup action by partial bijections on a finite set.

    The action must be a homomorphism for composition on largest domains,
    must intertwine the involution with partial-map inverses, and the
    domains must cover the whole space.
    """

    def __init__(self, semigroup: InverseSemigroup, space_size: int, theta,
                 point_names=None):
        if space_size < 1:
            raise ValueError("the space must be nonempty")
        self.semigroup = semigroup
        self.space_size = space_size
        self.theta = tuple(theta)
        if len(self.theta) != semigroup.size:
            raise ValueError("one partial bijection per semigroup element required")
        for pb in self.theta:
            for a, b in pb.pairs:
                if not (0 <= a < space_size and 0 <= b < space_size):
                    raise ValueError("partial bijection leaves the space")
        self.point_names = tuple(point_names) if point_names else None
        if self.point_names and len(self.point_names) != space_size:
            raise ValueError("one name per point required")
        self._germ_cache: dict = {}
        self._iso_cache: dict = {}
        self._report: ValidationReport | None = None

    # -- display -----------------------------------------------------------

    def point_name(self, x: int) -> str:
        return self.point_names[x] if self.point_names else str(x)

    def point_index(self, token: str) -> int:
        if self.point_names and token in self.point_names:
            return self.point_names.index(token)
        if token.isdigit():
            x = int(token)
            if 0 <= x < self.space_size:
                return x
        raise ValueError(f"unknown point {token!r}")

    def germ_name(self, g: Germ) -> str:
        return f"[{self.semigroup.name(g.element)}@{self.point_name(g.point)}]"

    # -- argument checks ---------------------------------------------------

    def require_point(self, x: int) -> None:
        if not 0 <= x < self.space_size:
            raise ValueError(f"no point {x} in a space of {self.space_size} points")

    def require_element(self, s: int) -> None:
        if not 0 <= s < self.semigroup.size:
            raise ValueError(f"no element {s} in a semigroup of {self.semigroup.size} elements")

    def require_function(self, f_vec) -> None:
        if len(f_vec) != self.space_size:
            raise ValueError(f"function of length {len(f_vec)} on a space of "
                             f"{self.space_size} points")

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The first failing axiom with its witness, or a pass.  The
        system cannot change after construction (theta is a tuple of
        partial bijections and the semigroup a frozen dataclass), so the
        axioms are walked once and the report is kept for every later
        call."""
        if self._report is None:
            self._report = self._check_axioms()
        return self._report

    def _check_axioms(self) -> ValidationReport:
        sg = self.semigroup
        inner = sg.validate()
        if not inner.ok:
            return inner
        for s in range(sg.size):
            for t in range(sg.size):
                compose = self.theta[s].compose(self.theta[t])
                target = self.theta[sg.product(s, t)]
                if compose != target:
                    got, want = set(compose.pairs), set(target.pairs)
                    diff = sorted(p for p, _ in got.symmetric_difference(want))
                    witness_pt = diff[0] if diff else -1
                    return ValidationReport.failed(
                        "action-homomorphism",
                        (sg.name(s), sg.name(t), self.point_name(witness_pt)))
        for s in range(sg.size):
            if self.theta[sg.inv(s)] != self.theta[s].inverse():
                return ValidationReport.failed("action-involution", (sg.name(s),))
        covered = set()
        for pb in self.theta:
            covered.update(pb.domain())
        for x in range(self.space_size):
            if x not in covered:
                return ValidationReport.failed("domain-cover", (self.point_name(x),))
        # warm the germ tables so later reads never mutate shared state
        for x in range(self.space_size):
            self._germ_table(x)
        return ValidationReport.passed()

    # -- germs -------------------------------------------------------------

    def elements_defined_at(self, x: int) -> tuple:
        self.require_point(x)
        return tuple(s for s in range(self.semigroup.size)
                     if self.theta[s].defined_at(x))

    def _germ_table(self, x: int) -> dict:
        """element -> canonical representative, for elements defined at x."""
        cached = self._germ_cache.get(x)
        if cached is not None:
            return cached
        sg = self.semigroup
        live = self.elements_defined_at(x)
        idem_at_x = [e for e in sg.idempotents if self.theta[e].defined_at(x)]
        table = {}
        for s in live:
            rep = s
            for t in live:
                if t >= rep:
                    break
                if any(sg.product(s, e) == sg.product(t, e) for e in idem_at_x):
                    rep = t
                    break
            # chase down: the first equivalent t found may itself reduce
            while table.get(rep, rep) != rep:
                rep = table[rep]
            table[s] = rep
        self._germ_cache[x] = table
        return table

    def germ_of(self, s: int, x: int) -> Germ:
        table = self._germ_table(x)
        if s not in table:
            self.require_element(s)
            raise ValueError(
                f"{self.semigroup.name(s)} is not defined at {self.point_name(x)}")
        return Germ(table[s], x)

    def same_germ(self, s: int, t: int, x: int) -> bool:
        return self.germ_of(s, x) == self.germ_of(t, x)

    def germs_at(self, x: int) -> tuple:
        """All germ classes with source x, sorted by representative."""
        table = self._germ_table(x)
        return tuple(Germ(r, x) for r in sorted(set(table.values())))

    def germ_target(self, g: Germ) -> int:
        return self.theta[g.element].apply(g.point)

    def isotropy_elements(self, x: int) -> tuple:
        return tuple(s for s in self.elements_defined_at(x)
                     if self.theta[s].apply(x) == x)

    def isotropy_group(self, x: int) -> "IsotropyGroup":
        cached = self._iso_cache.get(x)
        if cached is None:
            cached = IsotropyGroup.at(self, x)
            self._iso_cache[x] = cached
        return cached

    # -- orbits ------------------------------------------------------------

    def orbit(self, x: int) -> tuple:
        return tuple(sorted({self.theta[s].apply(x)
                             for s in self.elements_defined_at(x)}))

    def orbit_representatives(self) -> tuple:
        """Smallest point of each orbit, ascending."""
        seen = set()
        reps = []
        for x in range(self.space_size):
            if x not in seen:
                reps.append(x)
                seen.update(self.orbit(x))
        return tuple(reps)

    def orbit_transversal(self, x: int) -> tuple:
        """One germ [r] with target y for each orbit point y, aligned with
        orbit(x) and chosen with the smallest representative."""
        out = []
        for y in self.orbit(x):
            candidates = [g for g in self.germs_at(x) if self.germ_target(g) == y]
            if not candidates:
                raise StructureError("orbit-transversal",
                                     (self.point_name(x), self.point_name(y)),
                                     "orbit point without a germ reaching it")
            out.append(min(candidates, key=lambda g: g.element))
        return tuple(out)


class IsotropyGroup:
    """Group of germs at x fixing x, with its multiplication table."""

    def __init__(self, system: AmpleSystem, point: int, members, table, identity, inverse):
        self.system = system
        self.point = point
        self.members = tuple(members)
        self._index = {m: i for i, m in enumerate(self.members)}
        self.table = tuple(tuple(row) for row in table)
        self.identity = identity
        self.inverse = tuple(inverse)

    @staticmethod
    def at(system: AmpleSystem, x: int) -> "IsotropyGroup":
        system.require_point(x)
        sg = system.semigroup
        reps = sorted({system.germ_of(s, x).element
                       for s in system.isotropy_elements(x)})
        members = [Germ(r, x) for r in reps]
        index = {g.element: i for i, g in enumerate(members)}
        table = []
        for g in members:
            row = []
            for h in members:
                prod = system.germ_of(sg.product(g.element, h.element), x)
                row.append(index[prod.element])
            table.append(row)
        idem = next((e for e in sg.idempotents if system.theta[e].defined_at(x)), None)
        if idem is None:
            raise StructureError("domain-cover", (system.point_name(x),),
                                 f"no idempotent domain holds {system.point_name(x)}")
        identity = index[system.germ_of(idem, x).element]
        inverse = [index[system.germ_of(sg.inv(g.element), x).element] for g in members]
        grp = IsotropyGroup(system, x, members, table, identity, inverse)
        grp._check_group_laws()
        return grp

    @property
    def size(self) -> int:
        return len(self.members)

    def _check_group_laws(self):
        n = self.size
        e = self.identity
        name = [self.system.germ_name(g) for g in self.members]
        for i in range(n):
            if self.table[i][e] != i or self.table[e][i] != i:
                raise StructureError("isotropy-identity", (name[i],))
            if self.table[i][self.inverse[i]] != e or self.table[self.inverse[i]][i] != e:
                raise StructureError("isotropy-inverse", (name[i],))
        failure = first_nonassociative(self.table)
        if failure is not None:
            raise StructureError("isotropy-associativity", tuple(name[i] for i in failure))

    def member_index(self, g: Germ) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"{g} is not an isotropy germ here") from None

    def algebra(self, field: Field) -> FiniteAlgebra:
        """Group algebra on the isotropy germs."""
        labels = tuple(self.system.germ_name(g) for g in self.members)
        return FiniteAlgebra(field, labels, self.table)
