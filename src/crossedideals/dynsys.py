"""Finite ample dynamical systems: an inverse semigroup acting by partial
bijections on a finite set, plus the germ combinatorics living over it.

Two elements s, t acting around a point x have the same germ when some
idempotent e with x in its domain satisfies s e = t e; germs are stored by
their canonical representative (smallest element index).  Everything the
induction machinery needs (germ fibers, isotropy groups, orbits,
transversals) is computed here once and memoized.  Per point x, the germ
table germ_table(x)[s] is (position of [s@x] in germs_at(x), theta_s(x)),
or None where s is undefined at x, so that later layers read germs as
integers.  A point or element out of range raises ValueError, checked
only where a table is built or a lookup fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactlin import Field, FiniteAlgebra, IndexTable, StructureError
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


def composition_mismatch(ms: dict, mt: dict, mst: dict):
    """Compare ms after mt with mst, partial maps as dicts {x: y}: None when
    they agree, else (domains differ, x) for the smallest x in one domain
    only or in both with different values."""
    composite = {x: ms[y] for x, y in mt.items() if y in ms}
    if composite == mst:
        return None
    differ = composite.keys() ^ mst.keys()
    return bool(differ), min(differ.union(
        x for x in composite.keys() & mst.keys() if composite[x] != mst[x]))


def first_composition_mismatch(semigroup: InverseSemigroup, maps):
    """The first (s, t, mismatch) in (s, t) order at which maps[s] after
    maps[t] differs from maps[st], mismatch as in composition_mismatch, or
    None when the maps compose like the semigroup.

    On a semigroup that passes validation, pass or fail is decided with s
    over its generators only, for every t.  That suffices: T = {s :
    maps[s] maps[t] = maps[st] for all t} is closed under products, since
    for a, b in T and any t, maps[ab] maps[t] = maps[a] maps[b] maps[t] =
    maps[a] maps[bt] = maps[a(bt)] = maps[(ab)t] (partial maps compose
    associatively, and so does the semigroup), and every element is a
    product of generators.  The full scan runs only on a fail, or on a
    semigroup that fails validation, so the witness is that of the scan."""
    mult = semigroup.mult
    if semigroup.validate().ok and all(
            composition_mismatch(maps[a], mt, maps[mult[a][t]]) is None
            for a in semigroup.generators for t, mt in enumerate(maps)):
        return None
    return _composition_scan(mult, maps)


def _composition_scan(mult, maps):
    """first_composition_mismatch over every pair (s, t)."""
    for s, row in enumerate(mult):
        for t, st in enumerate(row):
            mismatch = composition_mismatch(maps[s], maps[t], maps[st])
            if mismatch is not None:
                return s, t, mismatch
    return None


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
        call.  A pass then builds every germ table, by the products with
        e_x that a valid system allows, so later reads never mutate
        shared state."""
        if self._report is None:
            self._report = self._check_axioms()
            if self._report.ok:
                for x in range(self.space_size):
                    self._germ_tables(x)
        return self._report

    def _check_axioms(self) -> ValidationReport:
        sg = self.semigroup
        inner = sg.validate()
        if not inner.ok:
            return inner
        failure = first_composition_mismatch(sg, [pb._map for pb in self.theta])
        if failure is not None:
            s, t, (_, x) = failure
            return ValidationReport.failed(
                "action-homomorphism", (sg.name(s), sg.name(t), self.point_name(x)))
        for s in range(sg.size):
            if self.theta[sg.inv(s)] != self.theta[s].inverse():
                return ValidationReport.failed("action-involution", (sg.name(s),))
        covered = set()
        for pb in self.theta:
            covered.update(pb.domain())
        for x in range(self.space_size):
            if x not in covered:
                return ValidationReport.failed("domain-cover", (self.point_name(x),))
        return ValidationReport.passed()

    # -- germs -------------------------------------------------------------

    def elements_defined_at(self, x: int) -> tuple:
        self.require_point(x)
        return tuple(s for s in range(self.semigroup.size)
                     if self.theta[s].defined_at(x))

    def _germ_tables(self, x: int) -> tuple:
        """(germs_at(x), germ_table(x)), built once per point: each element
        defined at x is sent to its canonical representative, the germs
        are the representatives in ascending order, and the table holds
        (position of the germ, theta_s(x)) for each element s, or None.

        Once the axioms have passed, s and t defined at x have one germ iff
        s e_x = t e_x, for e_x the product of the idempotents defined at x,
        so the representative of s is the least t with the same product,
        one product per element.  For if s e = t e with e idempotent and
        defined at x, then s e_x = s e e_x = t e e_x = t e_x, since the
        idempotents commute (a law of the semigroup) so that e e_x = e_x.
        And e_x is itself an idempotent defined at x: theta is a
        homomorphism, so theta_(e_x) is the composite of the partial
        identities theta_e, each defined at x.  Before a pass, or after a
        fail, the definition itself is applied, t against every smaller
        element and every idempotent defined at x."""
        cached = self._germ_cache.get(x)
        if cached is not None:
            return cached
        sg = self.semigroup
        live = self.elements_defined_at(x)
        idem_at_x = [e for e in sg.idempotents if self.theta[e].defined_at(x)]
        if self._report is not None and self._report.ok:
            e_x = idem_at_x[0]
            for e in idem_at_x[1:]:
                e_x = sg.mult[e_x][e]
            first = {}
            reps = {s: first.setdefault(sg.mult[s][e_x], s) for s in live}
        else:
            reps = self._germ_representatives(live, idem_at_x)
        order = sorted(set(reps.values()))
        position = {r: i for i, r in enumerate(order)}
        table = [None] * sg.size
        for s, rep in reps.items():
            table[s] = (position[rep], self.theta[s].apply(x))
        cached = self._germ_cache[x] = (tuple(Germ(r, x) for r in order), tuple(table))
        return cached

    def _germ_representatives(self, live, idem_at_x) -> dict:
        """The representative of each element of live, from the definition
        of a germ: the least t in live with s e = t e for some e in
        idem_at_x, and s itself when there is none."""
        sg = self.semigroup
        reps = {}
        for s in live:
            rep = s
            for t in live:
                if t >= rep:
                    break
                if any(sg.product(s, e) == sg.product(t, e) for e in idem_at_x):
                    rep = t
                    break
            # chase down: the first equivalent t found may itself reduce
            while reps.get(rep, rep) != rep:
                rep = reps[rep]
            reps[s] = rep
        return reps

    def germ_table(self, x: int) -> tuple:
        """For each element s, (position of [s@x] in germs_at(x),
        theta_s(x)), or None where s is undefined at x."""
        return self._germ_tables(x)[1]

    def germ_of(self, s: int, x: int) -> Germ:
        germs, table = self._germ_tables(x)
        entry = table[s] if 0 <= s < len(table) else None
        if entry is None:
            self.require_element(s)
            raise ValueError(
                f"{self.semigroup.name(s)} is not defined at {self.point_name(x)}")
        return germs[entry[0]]

    def same_germ(self, s: int, t: int, x: int) -> bool:
        return self.germ_of(s, x) == self.germ_of(t, x)

    def germs_at(self, x: int) -> tuple:
        """All germ classes with source x, sorted by representative."""
        return self._germ_tables(x)[0]

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
    """Group of germs at x fixing x, with its multiplication table, an
    exactlin.IndexTable that algebra passes on, checked once."""

    def __init__(self, system: AmpleSystem, point: int, members, table, identity, inverse):
        self.system = system
        self.point = point
        self.members = tuple(members)
        self._index = {m: i for i, m in enumerate(self.members)}
        self.table = IndexTable.of(table)
        self.identity = identity
        self.inverse = tuple(inverse)

    @staticmethod
    def at(system: AmpleSystem, x: int) -> "IsotropyGroup":
        """The isotropy group at x, read off the germ table at x: the
        members are the germs whose elements fix x, and each product,
        the identity and each inverse is the germ of one semigroup
        product, idempotent or star."""
        system.require_point(x)
        sg = system.semigroup
        germs, table = system.germs_at(x), system.germ_table(x)
        index = {p: i for i, p in enumerate(
            sorted({e[0] for e in table if e is not None and e[1] == x}))}
        members = [germs[p] for p in index]
        mult = sg.mult
        rows = [[index[table[row[h.element]][0]] for h in members]
                for row in (mult[g.element] for g in members)]
        idem = next((e for e in sg.idempotents if table[e] is not None), None)
        if idem is None:
            raise StructureError("domain-cover", (system.point_name(x),),
                                 f"no idempotent domain holds {system.point_name(x)}")
        identity = index[table[idem][0]]
        inverse = [index[table[sg.star[g.element]][0]] for g in members]
        grp = IsotropyGroup(system, x, members, rows, identity, inverse)
        grp._check_group_laws()
        return grp

    @cached_property
    def element_index(self) -> tuple:
        """For each semigroup element s, the member index of [s@x] when
        theta_s fixes x, else None."""
        x = self.point
        germs, table = self.system.germs_at(x), self.system.germ_table(x)
        by_position = [self._index.get(g) for g in germs]
        return tuple(None if e is None or e[1] != x else by_position[e[0]] for e in table)

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
        failure = self.table.first_failure
        if failure is not None:
            raise StructureError("isotropy-associativity", tuple(name[i] for i in failure))

    def member_index(self, g: Germ) -> int:
        try:
            return self._index[g]
        except KeyError:
            raise ValueError(f"{g} is not an isotropy germ here") from None

    def algebra(self, field: Field) -> FiniteAlgebra:
        """Group algebra on the isotropy germs, on the group's own table,
        whose associativity _check_group_laws has decided: FiniteAlgebra
        reads that verdict and checks nothing again."""
        labels = tuple(self.system.germ_name(g) for g in self.members)
        return FiniteAlgebra(field, labels, self.table)
