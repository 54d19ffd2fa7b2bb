"""Finite groupoids, germ groupoids of ample systems, their convolution
algebras on arrow indicators, and bisection semigroups.

Two bridges are built and verified exhaustively: the basis bijection
from a crossed product onto the convolution algebra of its germ
groupoid, and the reconstruction of the convolution algebra of any
finite groupoid as the crossed product of the intrinsic action of its
bisection inverse semigroup.  Both bridges send basis vectors to basis
vectors, so they are verified by index: multiplicativity compares
product indices in the two monomial tables, and the restriction
triangle compares the isotropy germ, if any, that each side assigns to
a basis vector.  A groupoid's composition, as one index table, is checked
by exactlin.first_nonassociative and is its convolution algebra's table.
"""

from __future__ import annotations

from functools import cached_property

from .bundles import CrossedProduct, crossed_product
from .dynsys import AmpleSystem, Germ, PartialBijection
from .exactlin import (
    Field,
    FiniteAlgebra,
    GuardError,
    StructureError,
    check_algebra_hom,
    first_nonassociative,
    lincomb,
    mat_from_columns,
    unit_vector,
)
from .induction import _fixed_germ
from .semigroups import InverseSemigroup
from .validation import ValidationReport


class FiniteGroupoid:
    """A finite groupoid given by source/target maps into a chosen unit
    set and a partial composition table."""

    def __init__(self, size: int, units, source, target, compose, names=None):
        self.size = size
        self.units = tuple(sorted(units))
        self.source = tuple(source)
        self.target = tuple(target)
        self.compose = dict(compose)
        self.names = tuple(names) if names is not None else None
        if len(self.source) != size or len(self.target) != size:
            raise ValueError("one source and one target per element required")
        if self.names is not None and len(self.names) != size:
            raise ValueError("one name per element required")
        if len(set(self.units)) != len(self.units):
            raise ValueError("repeated unit")
        for v in (*self.units, *self.source, *self.target):
            if not 0 <= v < size:
                raise ValueError(f"element {v} out of range")
        for (a, b), c in self.compose.items():
            if not (0 <= a < size and 0 <= b < size and 0 <= c < size):
                raise ValueError("composition table leaves the element set")

    def name(self, g: int) -> str:
        return self.names[g] if self.names else str(g)

    def composable(self, a: int, b: int) -> bool:
        return self.source[a] == self.target[b]

    def product(self, a: int, b: int) -> int:
        return self.compose[(a, b)]

    def inverse_of(self, g: int) -> int:
        candidates = [
            h for h in range(self.size)
            if self.source[h] == self.target[g] and self.target[h] == self.source[g]
            and self.compose.get((g, h)) == self.target[g]
            and self.compose.get((h, g)) == self.source[g]
        ]
        if len(candidates) != 1:
            raise StructureError("inverses", (self.name(g),),
                                 f"element {self.name(g)} lacks a unique inverse")
        return candidates[0]

    def table(self) -> list:
        """table[a][b] = ab, or None where a and b do not compose."""
        return [[self.compose.get((a, b)) for b in range(self.size)] for a in range(self.size)]

    def validate(self) -> ValidationReport:
        unit_set = set(self.units)
        for u in self.units:
            if self.source[u] != u or self.target[u] != u:
                return ValidationReport.failed("unit-maps", (self.name(u),))
        for g in range(self.size):
            if self.source[g] not in unit_set or self.target[g] not in unit_set:
                return ValidationReport.failed("source-target-range", (self.name(g),))
        for a in range(self.size):
            for b in range(self.size):
                defined = (a, b) in self.compose
                if defined != self.composable(a, b):
                    return ValidationReport.failed(
                        "composability", (self.name(a), self.name(b)))
        for (a, b), c in self.compose.items():
            if self.source[c] != self.source[b] or self.target[c] != self.target[a]:
                return ValidationReport.failed(
                    "composite-endpoints", (self.name(a), self.name(b)))
        for g in range(self.size):
            if self.compose[(g, self.source[g])] != g or \
                    self.compose[(self.target[g], g)] != g:
                return ValidationReport.failed("identity-laws", (self.name(g),))
        # by the rules above, (ab)c and a(bc) are each defined exactly when
        # ab and bc are, so only such triples can fail in the table
        failure = first_nonassociative(self.table())
        if failure is not None:
            return ValidationReport.failed("associativity", map(self.name, failure))
        for g in range(self.size):
            matches = [
                h for h in range(self.size)
                if self.compose.get((g, h)) == self.target[g]
                and self.compose.get((h, g)) == self.source[g]
            ]
            if len(matches) != 1:
                return ValidationReport.failed("inverses", (self.name(g),))
        return ValidationReport.passed()

    def to_json(self):
        return {
            "size": self.size,
            "names": [self.name(g) for g in range(self.size)],
            "units": [self.name(u) for u in self.units],
            "source": [self.name(self.source[g]) for g in range(self.size)],
            "target": [self.name(self.target[g]) for g in range(self.size)],
        }


# ---------------------------------------------------------------------------
# germ groupoids

class GermGroupoidModel:
    """The groupoid of germs of an ample system, with the dictionary
    between groupoid elements and germs."""

    def __init__(self, system: AmpleSystem):
        system.validate().require("ample system")
        self.system = system
        germs = []
        for x in range(system.space_size):
            germs.extend(system.germs_at(x))
        self.germs = tuple(germs)
        self.index = {g: i for i, g in enumerate(self.germs)}
        units = []
        for x in range(system.space_size):
            units.append(self.index[self._unit_germ(x)])
        self._unit_of_point = tuple(units)
        target_points = [system.germ_target(g) for g in self.germs]
        source = [self._unit_of_point[g.point] for g in self.germs]
        target = [self._unit_of_point[y] for y in target_points]
        # gi gj is defined when gj ends where gi starts; the pairs are
        # inserted in (i, j) order
        ending_at = [[] for _ in range(system.space_size)]
        for j, y in enumerate(target_points):
            ending_at[y].append(j)
        compose = {}
        for i, gi in enumerate(self.germs):
            for j in ending_at[gi.point]:
                gj = self.germs[j]
                prod = system.germ_of(
                    system.semigroup.product(gi.element, gj.element), gj.point)
                compose[(i, j)] = self.index[prod]
        names = tuple(system.germ_name(g) for g in self.germs)
        self.groupoid = FiniteGroupoid(
            len(self.germs), units, source, target, compose, names)
        self.groupoid.validate().require("germ groupoid")

    def _unit_germ(self, x: int) -> Germ:
        sg = self.system.semigroup
        for e in sg.idempotents:
            if self.system.theta[e].defined_at(x):
                return self.system.germ_of(e, x)
        raise StructureError("domain-cover", (self.system.point_name(x),),
                             f"no idempotent domain holds {self.system.point_name(x)}")

    def unit_of_point(self, x: int) -> int:
        return self._unit_of_point[x]

    def point_of_unit(self, u: int) -> int:
        return self.germs[u].point

    @property
    def size(self) -> int:
        return len(self.germs)


def germ_groupoid(system: AmpleSystem) -> GermGroupoidModel:
    return GermGroupoidModel(system)


def steinberg_algebra(groupoid: FiniteGroupoid, field: Field) -> FiniteAlgebra:
    """Convolution algebra on arrow indicators: delta_a delta_b is
    delta_{ab} when composable, else zero.  The groupoid is validated
    first."""
    groupoid.validate().require("groupoid")
    return _convolution_algebra(groupoid, field)


def _convolution_algebra(groupoid: FiniteGroupoid, field: Field) -> FiniteAlgebra:
    """steinberg_algebra of a groupoid its caller has validated."""
    labels = tuple(groupoid.name(g) for g in range(groupoid.size))
    return FiniteAlgebra(field, labels, groupoid.table())


def groupoid_restriction(model: GermGroupoidModel, x: int, vec,
                         field: Field) -> tuple:
    """Coefficients of a convolution-algebra element along the isotropy
    germs at x, in the isotropy group algebra basis."""
    if len(vec) != model.size:
        raise ValueError(
            f"vector of length {len(vec)} in a convolution algebra of dim {model.size}")
    iso = model.system.isotropy_group(x)
    out = [field.zero] * iso.size
    for i, c in enumerate(vec):
        g = model.germs[i]
        if g.point == x and model.system.germ_target(g) == x:
            out[iso.member_index(g)] = c
    return tuple(out)


class SteinbergIso:
    """Basis bijection from a crossed product onto the convolution
    algebra of its germ groupoid: the coset of delta_y at s maps to the
    indicator of the germ of s at the preimage of y."""

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.model = germ_groupoid(cp.system)
        self.algebra = _convolution_algebra(self.model.groupoid, cp.field)
        if self.model.size != cp.dim:
            raise StructureError("dimension", (self.model.size, cp.dim),
                                 "germ count differs from crossed product dimension")
        f = cp.field
        sys = cp.system
        targets = []
        for i in range(cp.dim):
            y, s = cp.basis_pair(i)
            x = sys.theta[s].inverse().apply(y)
            targets.append(self.model.index[sys.germ_of(s, x)])
        if len(set(targets)) != cp.dim:
            dup = next(t for t in targets if targets.count(t) > 1)
            raise StructureError("not-injective", (self.model.groupoid.name(dup),))
        self.targets = tuple(targets)
        self.images = tuple(unit_vector(f, cp.dim, t) for t in targets)
        self._verify()

    @cached_property
    def matrix(self) -> tuple:
        return mat_from_columns(self.cp.field, self.images, self.cp.dim)

    def apply(self, b) -> tuple:
        return lincomb(self.cp.field, b, self.images, self.cp.dim)

    def _verify(self):
        """Multiplicativity on every basis pair, then the restriction
        triangle at every (x, i): isotropy_restriction of e_i and
        groupoid_restriction of its image are each zero or one unit
        vector, so each is compared as the isotropy index it marks, or
        None.  On the crossed product side that is the germ [s@x] when
        e_i is delta_x at s and theta_s fixes x; on the groupoid side it
        is the germ e_i maps to, when that germ starts and ends at x."""
        cp, sys, germs = self.cp, self.cp.system, self.model.germs
        check_algebra_hom(cp.algebra, self.algebra, self.images, "not-multiplicative")
        for x in range(sys.space_size):
            iso = sys.isotropy_group(x)
            for i in range(cp.dim):
                y, s = cp.basis_pair(i)
                direct = _fixed_germ(cp, x, s) if y == x else None
                g = germs[self.targets[i]]
                through = iso.member_index(g) \
                    if g.point == x and sys.germ_target(g) == x else None
                if direct != through:
                    raise StructureError(
                        "restriction-triangle", (sys.point_name(x), cp.algebra.labels[i]))

    def to_json(self):
        return {
            "dimension": self.cp.dim,
            "basis_map": {
                self.cp.algebra.labels[i]: self.model.groupoid.name(self.targets[i])
                for i in range(self.cp.dim)
            },
        }


def steinberg_isomorphism(cp: CrossedProduct) -> SteinbergIso:
    return SteinbergIso(cp)


# ---------------------------------------------------------------------------
# bisections

def bisections(groupoid: FiniteGroupoid, guard: int = 12) -> tuple:
    """All subsets on which source and target are injective, the empty
    set included, in subset-mask order."""
    if groupoid.size > guard:
        raise GuardError(
            f"groupoid has {groupoid.size} elements, over the bisection guard {guard}")
    out = []
    for mask in range(1 << groupoid.size):
        subset = tuple(g for g in range(groupoid.size) if mask >> g & 1)
        sources = {groupoid.source[g] for g in subset}
        targets = {groupoid.target[g] for g in subset}
        if len(sources) == len(subset) and len(targets) == len(subset):
            out.append(subset)
    return tuple(out)


def bisection_name(groupoid: FiniteGroupoid, subset) -> str:
    return "{" + ",".join(groupoid.name(g) for g in subset) + "}"


def bisection_semigroup(groupoid: FiniteGroupoid, guard: int = 12):
    """The inverse semigroup of all bisections under setwise composition
    and inversion.  Returns (semigroup, bisection list) with aligned
    indices."""
    bis = bisections(groupoid, guard)
    index = {b: i for i, b in enumerate(bis)}
    size = len(bis)
    mult = []
    for u_set in bis:
        row = []
        for v_set in bis:
            prod = tuple(sorted(
                groupoid.compose[(u, v)]
                for u in u_set for v in v_set if groupoid.composable(u, v)))
            row.append(index[prod])
        mult.append(tuple(row))
    star = tuple(index[tuple(sorted(groupoid.inverse_of(u) for u in u_set))]
                 for u_set in bis)
    names = tuple(bisection_name(groupoid, b) for b in bis)
    sg = InverseSemigroup(tuple(mult), star, names)
    sg.validate().require("bisection semigroup")
    return sg, bis


class IntrinsicAction:
    """An ample system built from a family of bisections acting on the
    unit space by target-after-source-inverse."""

    def __init__(self, groupoid: FiniteGroupoid, semigroup: InverseSemigroup,
                 family, chosen=None):
        self.groupoid = groupoid
        if chosen is None:
            chosen = tuple(range(len(family)))
        self.chosen = tuple(chosen)
        self.family = tuple(family)
        self._check_hypotheses()
        sub_index = {old: new for new, old in enumerate(self.chosen)}
        mult = tuple(
            tuple(self._sub_image(semigroup.product(a, b), sub_index, semigroup)
                  for b in self.chosen)
            for a in self.chosen)
        star = tuple(self._sub_image(semigroup.inv(a), sub_index, semigroup)
                     for a in self.chosen)
        names = tuple(semigroup.name(a) for a in self.chosen)
        self.semigroup = InverseSemigroup(mult, star, names)
        units = groupoid.units
        self.unit_points = units
        point_of_unit = {u: i for i, u in enumerate(units)}
        theta = []
        for a in self.chosen:
            subset = self.family[a]
            theta.append(PartialBijection({
                point_of_unit[groupoid.source[u]]: point_of_unit[groupoid.target[u]]
                for u in subset}))
        self.system = AmpleSystem(
            self.semigroup, len(units), theta,
            point_names=tuple(groupoid.name(u) for u in units))
        self.system.validate().require("intrinsic action")

    def _sub_image(self, old: int, sub_index, semigroup) -> int:
        if old not in sub_index:
            raise StructureError(
                "family-not-closed", (semigroup.name(old),),
                "bisection family is not closed under products and inverses")
        return sub_index[old]

    def _check_hypotheses(self):
        g = self.groupoid
        covered = set()
        for a in self.chosen:
            covered.update(self.family[a])
        missing = [x for x in range(g.size) if x not in covered]
        if missing:
            raise StructureError("family-not-covering", (g.name(missing[0]),))
        sets = {a: set(self.family[a]) for a in self.chosen}
        for a in self.chosen:
            for b in self.chosen:
                meet = sets[a] & sets[b]
                for u in meet:
                    if not any(u in sets[c] and sets[c] <= meet for c in self.chosen):
                        raise StructureError(
                            "family-not-refined",
                            (bisection_name(g, self.family[a]),
                             bisection_name(g, self.family[b]), g.name(u)))


def intrinsic_action(groupoid: FiniteGroupoid, chosen=None,
                     guard: int = 12) -> IntrinsicAction:
    groupoid.validate().require("groupoid")
    sg, bis = bisection_semigroup(groupoid, guard)
    return IntrinsicAction(groupoid, sg, bis, chosen)


# ---------------------------------------------------------------------------
# the convolution algebra as a crossed product

class GroupoidModelIso:
    """Verified dictionary between the germ groupoid of an intrinsic
    action and the original groupoid: a germ of a bisection at a unit
    maps to the unique member of the bisection starting there."""

    def __init__(self, action: IntrinsicAction, model: GermGroupoidModel):
        self.action = action
        self.model = model
        g = action.groupoid
        mapping = []
        for germ in model.germs:
            mapping.append(self._member_over(germ.element, germ.point))
        self.mapping = tuple(mapping)
        self._verify()

    def _member_over(self, elem: int, point: int) -> int:
        g = self.action.groupoid
        unit = self.action.unit_points[point]
        subset = self.action.family[self.action.chosen[elem]]
        matches = [u for u in subset if g.source[u] == unit]
        if len(matches) != 1:
            raise StructureError("germ-map-ill-defined",
                                 (g.name(unit), bisection_name(g, subset)))
        return matches[0]

    def _verify(self):
        g = self.action.groupoid
        sys = self.model.system
        for i, germ in enumerate(self.model.germs):
            for other in sys.elements_defined_at(germ.point):
                if sys.germ_of(other, germ.point) == germ:
                    if self._member_over(other, germ.point) != self.mapping[i]:
                        raise StructureError(
                            "germ-map-ill-defined",
                            (sys.germ_name(germ), sys.semigroup.name(other)))
        if sorted(self.mapping) != list(range(g.size)):
            raise StructureError("germ-map-not-bijective", (len(self.mapping), g.size))
        gg = self.model.groupoid
        for i in range(gg.size):
            if g.source[self.mapping[i]] != self.mapping[gg.source[i]] or \
                    g.target[self.mapping[i]] != self.mapping[gg.target[i]]:
                raise StructureError("germ-map-endpoints", (gg.name(i),))
        for u in gg.units:
            if self.mapping[u] not in g.units:
                raise StructureError("germ-map-units", (gg.name(u),))
        for a in range(gg.size):
            for b in range(gg.size):
                ours = gg.compose.get((a, b))
                theirs = g.compose.get((self.mapping[a], self.mapping[b]))
                if (ours is None) != (theirs is None):
                    raise StructureError("germ-map-composability",
                                         (gg.name(a), gg.name(b)))
                if ours is not None and self.mapping[ours] != theirs:
                    raise StructureError("germ-map-composition",
                                         (gg.name(a), gg.name(b)))


class CrossedProductModel:
    """The convolution algebra of a finite groupoid realized as the
    crossed product of the intrinsic action of its bisections, with all
    dictionaries verified by table comparison."""

    def __init__(self, groupoid: FiniteGroupoid, field: Field, guard: int = 12):
        self.groupoid = groupoid
        self.field = field
        self.action = intrinsic_action(groupoid, guard=guard)
        self.cp = crossed_product(self.action.system, field)
        self.section_iso = steinberg_isomorphism(self.cp)
        self.model = self.section_iso.model
        self.groupoid_iso = GroupoidModelIso(self.action, self.model)
        # intrinsic_action has validated the groupoid
        self.algebra = _convolution_algebra(groupoid, field)
        perm = self.groupoid_iso.mapping
        self.targets = tuple(perm[t] for t in self.section_iso.targets)
        self.images = tuple(unit_vector(field, groupoid.size, t) for t in self.targets)
        self._verify()

    @cached_property
    def matrix(self) -> tuple:
        return mat_from_columns(self.field, self.images, self.groupoid.size)

    def apply(self, b) -> tuple:
        return lincomb(self.field, b, self.images, self.groupoid.size)

    def _verify(self):
        # the images are unit vectors, so their rank is the number of
        # distinct targets
        rank = len(set(self.targets))
        if rank != self.groupoid.size or self.cp.dim != self.groupoid.size:
            raise StructureError("model-dimension", (self.cp.dim, self.groupoid.size))
        check_algebra_hom(self.cp.algebra, self.algebra, self.images, "model-not-multiplicative")

    def to_json(self):
        return {
            "groupoid_size": self.groupoid.size,
            "bisections": len(self.action.family),
            "crossed_product_dim": self.cp.dim,
            "basis_map": {
                self.cp.algebra.labels[i]: self.groupoid.name(self.targets[i])
                for i in range(self.cp.dim)
            },
        }


def steinberg_as_crossed_product(groupoid: FiniteGroupoid, field: Field,
                                 guard: int = 12) -> CrossedProductModel:
    return CrossedProductModel(groupoid, field, guard)
