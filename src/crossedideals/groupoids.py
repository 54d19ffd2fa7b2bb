"""Finite groupoids, germ groupoids of ample systems, their convolution
algebras on arrow indicators, and bisection semigroups.

Two bridges are built and verified exhaustively: the basis bijection
from a crossed product onto the convolution algebra of its germ
groupoid, and the reconstruction of the convolution algebra of any
finite groupoid as the crossed product of the intrinsic action of its
bisection inverse semigroup.  Both send basis vectors to basis vectors,
so they are verified by index against the groupoid's one index table
(exactlin.check_permutation_hom), which is also its convolution
algebra's; the restriction triangle compares the isotropy germ, if any,
that each side assigns to a basis vector.  The convolution algebra is
built only when read, so validate alone checks a table's associativity.
"""

from __future__ import annotations

from functools import cached_property

from .bundles import CrossedProduct, crossed_product
from .dynsys import AmpleSystem, PartialBijection
from .exactlin import (
    Field,
    FiniteAlgebra,
    GuardError,
    HomomorphismError,
    IndexTable,
    StructureError,
    check_permutation_hom,
    lincomb,
    mat_from_columns,
    unit_vector,
)
from .semigroups import InverseSemigroup
from .validation import ValidationReport


class FiniteGroupoid:
    """A finite groupoid given by source/target maps into a chosen unit
    set and one composition table, table[a][b] the index of ab or None
    where a and b do not compose (its shape and indices checked here),
    held as an exactlin.IndexTable: validate reads its first_failure, and
    the convolution algebra holds the same object, so the table is checked
    for associativity once."""

    def __init__(self, size: int, units, source, target, table, names=None):
        self.size = size
        self.units = tuple(sorted(units))
        self.source = tuple(source)
        self.target = tuple(target)
        self.table = IndexTable.of(table)
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
        if len(self.table) != size or any(len(row) != size for row in self.table):
            raise ValueError(f"a table of {size} rows of {size} entries is required")
        if self.table.entries.difference(range(size), (None,)):
            raise ValueError("composition table leaves the element set")

    def name(self, g: int) -> str:
        return self.names[g] if self.names else str(g)

    def composable(self, a: int, b: int) -> bool:
        return self.table[a][b] is not None

    def product(self, a: int, b: int):
        """ab, or None where a and b do not compose."""
        return self.table[a][b]

    def _inverses(self, g: int) -> list:
        """Every h with gh = target(g) and hg = source(g)."""
        row, s = self.table[g], self.source[g]
        return [h for h, gh in enumerate(row)
                if gh == self.target[g] and self.table[h][g] == s]

    def inverse_of(self, g: int) -> int:
        candidates = self._inverses(g)
        if len(candidates) != 1:
            raise StructureError("inverses", (self.name(g),),
                                 f"element {self.name(g)} lacks a unique inverse")
        return candidates[0]

    def validate(self) -> ValidationReport:
        unit_set = set(self.units)
        for u in self.units:
            if self.source[u] != u or self.target[u] != u:
                return ValidationReport.failed("unit-maps", (self.name(u),))
        for g in range(self.size):
            if self.source[g] not in unit_set or self.target[g] not in unit_set:
                return ValidationReport.failed("source-target-range", (self.name(g),))
        for a, row in enumerate(self.table):
            for b, c in enumerate(row):
                if (c is not None) != (self.source[a] == self.target[b]):
                    return ValidationReport.failed(
                        "composability", (self.name(a), self.name(b)))
        for a, row in enumerate(self.table):
            for b, c in enumerate(row):
                if c is not None and (self.source[c] != self.source[b]
                                      or self.target[c] != self.target[a]):
                    return ValidationReport.failed(
                        "composite-endpoints", (self.name(a), self.name(b)))
        for g, row in enumerate(self.table):
            if row[self.source[g]] != g or self.table[self.target[g]][g] != g:
                return ValidationReport.failed("identity-laws", (self.name(g),))
        # by the rules above, (ab)c and a(bc) are each defined exactly when
        # ab and bc are, so only such triples can fail in the table
        failure = self.table.first_failure
        if failure is not None:
            return ValidationReport.failed("associativity", map(self.name, failure))
        for g in range(self.size):
            if len(self._inverses(g)) != 1:
                return ValidationReport.failed("inverses", (self.name(g),))
        return ValidationReport.passed()


# ---------------------------------------------------------------------------
# germ groupoids

class GermGroupoidModel:
    """The groupoid of germs of an ample system, with the dictionary
    between groupoid elements and germs: the germs at x are numbered from
    offset[x] on, in germs_at(x) order, so the germ of s at x has index
    offset[x] + germ_table(x)[s][0]."""

    def __init__(self, system: AmpleSystem):
        system.validate().require("ample system")
        self.system = system
        # the germs at x are numbered from offset[x] on, in germs_at(x) order
        germs, offset = [], []
        for x in range(system.space_size):
            offset.append(len(germs))
            germs.extend(system.germs_at(x))
        self.germs = tuple(germs)
        self.offset = tuple(offset)
        self.index = {g: i for i, g in enumerate(self.germs)}
        rows = [system.germ_table(x) for x in range(system.space_size)]
        units = [offset[x] + rows[x][self._unit_element(x)][0]
                 for x in range(system.space_size)]
        self._unit_of_point = tuple(units)
        target_points = [system.germ_target(g) for g in self.germs]
        source = [self._unit_of_point[g.point] for g in self.germs]
        target = [self._unit_of_point[y] for y in target_points]
        # gi gj is defined when gj ends where gi starts
        ending_at = [[] for _ in range(system.space_size)]
        for j, y in enumerate(target_points):
            ending_at[y].append(j)
        product = system.semigroup.product
        table = [[None] * len(self.germs) for _ in self.germs]
        for i, gi in enumerate(self.germs):
            for j in ending_at[gi.point]:
                gj = self.germs[j]
                st = product(gi.element, gj.element)
                entry = rows[gj.point][st]
                if entry is None:    # germ_of raises: s t is undefined there
                    system.germ_of(st, gj.point)
                table[i][j] = offset[gj.point] + entry[0]
        names = tuple(system.germ_name(g) for g in self.germs)
        self.groupoid = FiniteGroupoid(
            len(self.germs), units, source, target, table, names)
        self.groupoid.validate().require("germ groupoid")

    def _unit_element(self, x: int) -> int:
        """The first idempotent defined at x, whose germ is the unit at x."""
        sg = self.system.semigroup
        for e in sg.idempotents:
            if self.system.theta[e].defined_at(x):
                return e
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
    return FiniteAlgebra(field, labels, groupoid.table)


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
    indicator of the germ of s at the preimage x of y, read off the germ
    table at x by the model's offset.  The action is valid, so x is
    theta_(s*)(y), where s is defined."""

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.model = germ_groupoid(cp.system)
        if self.model.size != cp.dim:
            raise StructureError("dimension", (self.model.size, cp.dim),
                                 "germ count differs from crossed product dimension")
        f = cp.field
        sys = cp.system
        theta, star, offset = sys.theta, sys.semigroup.star, self.model.offset
        targets = []
        for i in range(cp.dim):
            y, s = cp.basis_pair(i)
            x = theta[star[s]].apply(y)
            targets.append(offset[x] + sys.germ_table(x)[s][0])
        if len(set(targets)) != cp.dim:
            dup = next(t for t in targets if targets.count(t) > 1)
            raise StructureError("not-injective", (self.model.groupoid.name(dup),))
        self.targets = tuple(targets)
        self.images = tuple(unit_vector(f, cp.dim, t) for t in targets)
        self._verify()

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        return _convolution_algebra(self.model.groupoid, self.cp.field)

    @cached_property
    def matrix(self) -> tuple:
        return mat_from_columns(self.cp.field, self.images, self.cp.dim)

    def apply(self, b) -> tuple:
        return lincomb(self.cp.field, b, self.images, self.cp.dim)

    def _verify(self):
        """Multiplicativity on every basis pair, by index, then the
        restriction triangle at every (x, i): isotropy_restriction of e_i and
        groupoid_restriction of its image are each zero or one unit
        vector, so each is compared as the isotropy index it marks, or
        None.  On the crossed product side that is the germ [s@x] when
        e_i is delta_x at s and theta_s fixes x; on the groupoid side it
        is the germ e_i maps to, when that germ starts and ends at x."""
        cp, sys, germs = self.cp, self.cp.system, self.model.germs
        check_permutation_hom(cp.algebra.table, self.model.groupoid.table, self.targets,
                              "not-multiplicative", cp.algebra.labels)
        for x in range(sys.space_size):
            iso = sys.isotropy_group(x)
            for i in range(cp.dim):
                y, s = cp.basis_pair(i)
                direct = iso.element_index[s] if y == x else None
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
                c for u in u_set for v in v_set
                if (c := groupoid.table[u][v]) is not None))
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
        self._check_composition()

    def _check_composition(self):
        """The mapping against both tables: a failing pair (a, b) is
        germ-map-composability where either product is None."""
        g, gg, perm = self.action.groupoid, self.model.groupoid, self.mapping
        try:
            check_permutation_hom(gg.table, g.table, perm, "germ-map-composition", gg.names)
        except HomomorphismError as err:
            a, b = err.indices
            if gg.product(a, b) is None or g.product(perm[a], perm[b]) is None:
                raise StructureError("germ-map-composability", err.witness) from None
            raise


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
        perm = self.groupoid_iso.mapping
        self.targets = tuple(perm[t] for t in self.section_iso.targets)
        self.images = tuple(unit_vector(field, groupoid.size, t) for t in self.targets)
        self._verify()

    @cached_property
    def algebra(self) -> FiniteAlgebra:
        # intrinsic_action has validated the groupoid
        return _convolution_algebra(self.groupoid, self.field)

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
        check_permutation_hom(self.cp.algebra.table, self.groupoid.table, self.targets,
                              "model-not-multiplicative", self.cp.algebra.labels)

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
