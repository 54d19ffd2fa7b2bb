"""Fell bundles over inverse semigroups, their cross-sectional algebras,
and crossed products of function algebras by ample systems.

A bundle carries one fiber per semigroup element, bilinear multiplication
maps mu_{s,t}: B_s x B_t -> B_{st}, and injective inclusion maps
j_{t,s}: B_s -> B_t for order pairs s <= t.  The cross-sectional algebra
is the direct sum of the fibers; dividing by the redundancy ideal N
(spanned by b - j(b) across order pairs) collapses the inclusions and
yields the algebra whose ideals the rest of the package studies.

The crossed product of the function algebra K^X by an ample system is the
cross-sectional algebra of the semidirect product bundle of the induced
action alpha_s(f) = f o theta_{s*}; its basis is labeled by pairs
(point y, element s) with y in the range of theta_s.

An AlgebraAction is held in index form: the algebra's basis is monomial
(e_p e_q a basis vector or zero, as for K^X), and each alpha_s is a
partial permutation of its basis, alpha_s(e_p) = e_q.  A
FellBundle is held in index form too: each mu constant and each inclusion
sends a basis vector to a basis vector (or, for mu, to zero).  So the
action rules, the semidirect bundle's constants and every bundle rule are
lookups.  Each generator of N is then e_{s,i} - e_{t,k}, so N is held as a
partition of the basis labels: its classes are the germs, and the
quotient's table, the check that N is two-sided and the coset of every
section are lookups too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .dynsys import AmpleSystem, PartialBijection
from .exactlin import (
    AssociativityError,
    Field,
    FiniteAlgebra,
    HomomorphismError,
    Representation,
    StructureError,
    Subspace,
    check_algebra_hom,
    lincomb,
    mat_from_columns,
    mat_lincomb,
    mat_mul,
    nonzero_entries,
    rref,
    unit_vector,
    zero_vector,
)
from .semigroups import InverseSemigroup
from .validation import ValidationReport

if TYPE_CHECKING:
    from .induction import InductionContext


class NotAFellBundle(StructureError):
    """Semidirect construction refused: a coefficient ideal is not
    idempotent, so no Fell bundle exists for this action."""

    def __init__(self, element: int, element_name: str, product_span: Subspace):
        self.element = element
        self.product_span = product_span
        super().__init__(
            "non-idempotent-ideal", (element_name,),
            f"ideal attached to {element_name} is not idempotent: its square spans "
            f"only {product_span.dim} of {product_span.ambient_dim} ambient dimensions "
            f"(need the full ideal back)")


class FellBundle:
    """Structure constants of a Fell bundle over an inverse semigroup, in
    index form, as for the semidirect product bundle of K^X: every product
    of basis vectors is a basis vector or zero, and every inclusion sends
    basis vectors to basis vectors.  mu[(s, t)] = {(i, j): k} means
    e_i e_j = e_k in B_st (omitted pairs multiply to zero), and
    order_maps[(t, s)] = (k_0, ...) means j_{t,s}(e_i) = e_{k_i}.

    The fibers are laid end to end in element order: fiber s starts at
    offsets[s] in the total space, and label_pairs[g] = (s, i) names the
    fiber and fiber index of the g-th total basis vector."""

    def __init__(self, semigroup: InverseSemigroup, field: Field, fiber_labels,
                 mu, order_maps):
        self.semigroup = semigroup
        self.field = field
        self.fiber_labels = tuple(tuple(lbls) for lbls in fiber_labels)
        if len(self.fiber_labels) != semigroup.size:
            raise ValueError("one fiber per semigroup element required")
        self.mu = {}
        for (s, t), entries in mu.items():
            st = semigroup.product(s, t)
            for (i, j), k in entries.items():
                if not (0 <= i < self.fiber_dim(s) and 0 <= j < self.fiber_dim(t)):
                    raise ValueError(f"mu index out of range at ({s},{t})")
                if not 0 <= k < self.fiber_dim(st):
                    raise ValueError(f"mu target out of range at ({s},{t})")
            if entries:
                self.mu[(s, t)] = dict(entries)
        order = set(semigroup.order_pairs())
        self.order_maps = {}
        for (t, s), positions in order_maps.items():
            if (s, t) not in order:
                raise ValueError(f"inclusion given for a non-order pair ({s},{t})")
            positions = tuple(positions)
            if len(positions) != self.fiber_dim(s):
                raise ValueError(f"inclusion shape mismatch at ({t},{s})")
            if not all(0 <= k < self.fiber_dim(t) for k in positions):
                raise ValueError(f"inclusion target out of range at ({t},{s})")
            self.order_maps[(t, s)] = positions
        for (s, t) in order:
            if (t, s) not in self.order_maps:
                raise ValueError(f"missing inclusion for order pair {s} <= {t}")
        self.label_pairs = tuple(
            (s, i) for s in range(semigroup.size) for i in range(self.fiber_dim(s)))
        offsets, acc = [], 0
        for s in range(semigroup.size):
            offsets.append(acc)
            acc += self.fiber_dim(s)
        self.offsets = tuple(offsets)

    def fiber_dim(self, s: int) -> int:
        return len(self.fiber_labels[s])

    @cached_property
    def total(self) -> FiniteAlgebra:
        """The direct sum of the fibers with the bundle multiplication: the
        mu constants placed at the fiber offsets.  Building it checks
        associativity, which raises AssociativityError on failure."""
        n = len(self.label_pairs)
        table = [[None] * n for _ in range(n)]
        offsets = self.offsets
        for (s, t), entries in self.mu.items():
            st = self.semigroup.product(s, t)
            for (i, j), k in entries.items():
                table[offsets[s] + i][offsets[t] + j] = offsets[st] + k
        labels = [lbl for per in self.fiber_labels for lbl in per]
        return FiniteAlgebra(self.field, labels, table)

    def validate(self) -> ValidationReport:
        """Check the bundle axioms in a fixed order, returning the first
        failure with its witness.  Every constant is a basis vector or
        zero, so each rule compares positions (None for a zero product).
        Fiber associativity is the associativity of the total algebra,
        checked by FiniteAlgebra when total is first built.  That check
        visits basis triples in (r, i, s, j, t, k) order; its first failing
        triple is mapped back by global index and reported as
        (r, s, t, i, j, k)."""
        sg = self.semigroup
        n = sg.size
        # inclusions are injective: no position repeats
        for (t, s), positions in self.order_maps.items():
            if len(set(positions)) != len(positions):
                return ValidationReport.failed("inclusion-injective", (sg.name(s), sg.name(t)))
        # multiplication is associative fiberwise
        try:
            self.total  # built once, with its associativity check
        except AssociativityError as err:
            (r, i), (s, j), (t, k) = (self.label_pairs[g] for g in err.indices)
            return ValidationReport.failed(
                "fiber-associativity", (sg.name(r), sg.name(s), sg.name(t), i, j, k))
        # B_s B_{s*} B_s spans B_s: (e_i e_j) e_k for basis vectors of
        # B_s, B_{s*} and B_s lies in B_{s s* s} = B_s, and is one basis
        # vector or zero, so the rank is the number of fiber indices reached
        table = self.total.table
        fibers = [range(o, o + self.fiber_dim(s)) for s, o in enumerate(self.offsets)]
        for s in range(n):
            fiber = fibers[s]
            reached = set()
            for gi in fiber:
                for gj in fibers[sg.inv(s)]:
                    mid = table[gi][gj]
                    if mid is not None:
                        reached.update(table[mid][gk] for gk in fiber)
            rank = len(reached.intersection(fiber))
            if rank != self.fiber_dim(s):
                return ValidationReport.failed("fiber-span", (sg.name(s), rank))
        # inclusions compose transitively, over the chains r < s < t of
        # strict order pairs in (r, s, t) order
        maps = self.order_maps
        above = [[] for _ in range(n)]
        for s, t in sg.order_pairs():
            above[s].append(t)
        for r in range(n):
            for s in above[r]:
                for t in above[s]:
                    if tuple(maps[(t, s)][k] for k in maps[(s, r)]) != maps[(t, r)]:
                        return ValidationReport.failed(
                            "inclusion-transitivity", (sg.name(r), sg.name(s), sg.name(t)))
        # inclusions are multiplicative against mu: j(e_i) j(e_j) = j(e_i e_j)
        pairs = _order_with_diagonal(sg)
        inclusions = {(s, s): range(self.fiber_dim(s)) for s in range(n)} | maps
        for (r, rp) in pairs:
            for (s, sp) in pairs:
                if r == rp and s == sp:
                    continue
                rs, rpsp = sg.product(r, s), sg.product(rp, sp)
                if rs != rpsp and not sg.leq(rs, rpsp):
                    return ValidationReport.failed(
                        "order-multiplication", (sg.name(r), sg.name(s)))
                up_r, up_s = inclusions[(rp, r)], inclusions[(sp, s)]
                down = inclusions[(rpsp, rs)]
                upper, lower = self.mu.get((rp, sp), {}), self.mu.get((r, s), {})
                for i in range(self.fiber_dim(r)):
                    for j in range(self.fiber_dim(s)):
                        k = lower.get((i, j))
                        if upper.get((up_r[i], up_s[j])) != (None if k is None else down[k]):
                            return ValidationReport.failed(
                                "inclusion-multiplicative",
                                (sg.name(r), sg.name(rp), sg.name(s), sg.name(sp)))
        return ValidationReport.passed()


def _order_with_diagonal(sg: InverseSemigroup):
    pairs = [(s, s) for s in range(sg.size)]
    pairs.extend(sg.order_pairs())
    return pairs


# ---------------------------------------------------------------------------
# algebra actions and the semidirect product bundle

class AlgebraAction:
    """Inverse semigroup action on an algebra (table[a][z] = c for
    e_a e_z = e_c, as for K^X) by partial permutations of its basis:
    moves[s] = {p: q} means alpha_s(e_p) = e_q, and dom(alpha_s) =
    span{e_p : p in moves[s]} is the ideal attached to s* s.  On a finite
    space the induced action alpha_s(f) = f o theta_{s*} has this form: it
    sends point masses to point masses."""

    def __init__(self, semigroup: InverseSemigroup, algebra: FiniteAlgebra, moves):
        self.semigroup = semigroup
        self.algebra = algebra
        self.moves = tuple(dict(move) for move in moves)
        if len(self.moves) != semigroup.size:
            raise ValueError("one map per element required")
        basis = range(algebra.dim)
        for s, move in enumerate(self.moves):
            if not all(p in basis and q in basis for p, q in move.items()):
                raise ValueError(f"map {s} moves an index outside the basis")

    def validate(self) -> ValidationReport:
        """Check the action axioms in a fixed order, returning the first
        failure with its witness.  Every domain is spanned by the unit
        vectors at its keys, so each rule is a lookup in the index maps
        and the algebra's table."""
        sg, moves = self.semigroup, self.moves
        table = self.algebra.table
        for s in range(sg.size):
            if moves[s].keys() != moves[sg.product(sg.inv(s), s)].keys():
                return ValidationReport.failed("domain-consistency", (sg.name(s),))
        # a product e_a e_z = e_c with a factor in the domain lands in it
        for e in sg.idempotents:
            domain = moves[e].keys()
            if any(c is not None and c not in domain for a, row in enumerate(table)
                   for z, c in enumerate(row) if a in domain or z in domain):
                return ValidationReport.failed("domain-ideal", (sg.name(e),))
        for s in range(sg.size):
            images = set(moves[s].values())
            if moves[sg.product(s, sg.inv(s))].keys() != images or len(images) != len(moves[s]):
                return ValidationReport.failed("map-bijection", (sg.name(s),))
        # alpha_s(e_p e_p') = alpha_s(e_p) alpha_s(e_p') on basis pairs of
        # the domain, which holds e_p e_p' by the ideal rule
        for s in range(sg.size):
            move = moves[s]
            if any(move.get(table[p][pp]) != table[q][qq]
                   for p, q in move.items() for pp, qq in move.items()):
                return ValidationReport.failed("map-multiplicative", (sg.name(s),))
        failure = self._composition_failure()
        if failure is not None:
            return failure
        covered = set().union(*(moves[e].keys() for e in sg.idempotents))
        if len(covered) != self.algebra.dim:
            return ValidationReport.failed("domain-span", (len(covered),))
        return ValidationReport.passed()

    def _composition_failure(self) -> ValidationReport | None:
        """The rules map-inverse, composition-domain and composition-values,
        in (s, t) order.  alpha_t* (dom s cap ran t) is spanned by the e_x
        with x in dom t and t(x) in dom s, once map-inverse has shown that
        moves[t*] inverts moves[t]."""
        sg, moves = self.semigroup, self.moves
        for s in range(sg.size):
            back = moves[sg.inv(s)]
            if any(back.get(q) != p for p, q in moves[s].items()):
                return ValidationReport.failed("map-inverse", (sg.name(s),))
        for s in range(sg.size):
            for t in range(sg.size):
                ms, mt, mst = moves[s], moves[t], moves[sg.product(s, t)]
                if mst.keys() != {x for x, y in mt.items() if y in ms}:
                    return ValidationReport.failed(
                        "composition-domain", (sg.name(s), sg.name(t)))
                if any(q != ms[mt[x]] for x, q in mst.items()):
                    return ValidationReport.failed(
                        "composition-values", (sg.name(s), sg.name(t)))
        return None


def semidirect_bundle(action: AlgebraAction,
                      labeler: Callable[[int, int], str] | None = None) -> FellBundle:
    """Semidirect product bundle of a validated algebra action.

    Exists iff every coefficient ideal is idempotent; a non-idempotent
    ideal raises NotAFellBundle naming the offending element and the
    deficient product span.  The resulting bundle is re-validated against
    the full axiom list before being returned.

    The fiber B_s is the coefficient ideal of s s*, with the unit vectors
    at its sorted indices as basis."""
    action.validate().require("algebra action")
    sg, alg, moves = action.semigroup, action.algebra, action.moves
    f, table = alg.field, alg.table
    pivots = [sorted(moves[sg.product(s, sg.inv(s))]) for s in range(sg.size)]
    for s, piv in enumerate(pivots):
        # the ideal is idempotent when every e_p in it is a product e_p' e_p''
        reached = {table[p][q] for p in piv for q in piv} - {None}
        if not reached >= set(piv):
            span = Subspace.span(f, alg.dim, [unit_vector(f, alg.dim, k) for k in reached])
            raise NotAFellBundle(s, sg.name(s), span)
    if labeler is None:
        labeler = lambda s, p: f"{alg.labels[p]}|{sg.name(s)}"
    fiber_labels = [tuple(labeler(s, p) for p in piv) for s, piv in enumerate(pivots)]
    mu, order_maps = _index_constants(action, pivots)
    bundle = FellBundle(sg, f, fiber_labels, mu, order_maps)
    bundle.validate().require("semidirect product bundle")
    return bundle


def _index_constants(action: AlgebraAction, pivots) -> tuple:
    """(mu, order_maps) of the semidirect bundle, read by lookup.  Each
    constant of e_y in B_s times e_z in B_t is alpha_s(alpha_s*(e_y) e_z):
    alpha_s*(e_y) = e_a with a = moves[s*][y], a nonzero e_a e_z = e_c
    gives alpha_s(e_c) = e_moves[s][c], and the constant is the position k
    of that index among the pivots of B_st.  The rules of a passed
    validate put every index met on the way in the map or fiber it is
    looked up in.  Constants are inserted in (s, t, i, j) order."""
    sg, moves, table = action.semigroup, action.moves, action.algebra.table
    position = [{p: k for k, p in enumerate(piv)} for piv in pivots]
    holders = [[] for _ in range(action.algebra.dim)]   # z -> [(t, j)]
    for t, piv in enumerate(pivots):
        for j, z in enumerate(piv):
            holders[z].append((t, j))
    mu = {}
    for s in range(sg.size):
        back, forth = moves[sg.inv(s)], moves[s]
        by_t = {}
        for i, y in enumerate(pivots[s]):
            for z, c in enumerate(table[back[y]]):
                if c is None:
                    continue
                for t, j in holders[z]:
                    by_t.setdefault(t, {})[(i, j)] = position[sg.product(s, t)][forth[c]]
        for t in sorted(by_t):
            mu[(s, t)] = dict(sorted(by_t[t].items()))
    order_maps = {(t, s): tuple(position[t][y] for y in pivots[s])
                  for (s, t) in sg.order_pairs()}
    return mu, order_maps


# ---------------------------------------------------------------------------
# cross-sectional algebra

class CrossSectionalAlgebra:
    """Direct sum of the fibers with the bundle multiplication (the
    bundle's own total algebra, built and checked once), the redundancy
    ideal N, and the quotient by N.

    N is spanned by the e_{s,i} - e_{t,k} with j_{t,s}(e_i) = e_k, so it is
    held as the partition of the basis labels that these pairs join, by
    union-find: each class is a germ, and its largest label is its root.
    coset_positions lists the roots in ascending order (the non-pivot
    positions of N's reduced basis), and coset_of[g] is the coset of e_g.
    When N is 0 the quotient is the total algebra itself."""

    def __init__(self, bundle: FellBundle):
        self.bundle = bundle
        self.offsets = bundle.offsets
        self.label_pairs = bundle.label_pairs
        self.total = total = bundle.total
        parent = list(range(total.dim))

        def root(g):
            while parent[g] != g:
                parent[g] = parent[parent[g]]
                g = parent[g]
            return g

        for (t, s), positions in bundle.order_maps.items():
            for i, k in enumerate(positions):
                a, b = root(self.offsets[s] + i), root(self.offsets[t] + k)
                parent[min(a, b)] = max(a, b)
        roots = [root(g) for g in range(total.dim)]
        self.coset_positions = tuple(g for g, r in enumerate(roots) if r == g)
        index = {g: a for a, g in enumerate(self.coset_positions)}
        self.coset_of = tuple(index[r] for r in roots)
        if len(self.coset_positions) == total.dim:
            self.quotient = total
            return
        labels = [total.labels[g] for g in self.coset_positions]
        self.quotient = FiniteAlgebra(bundle.field, labels, self._coset_table())

    def _coset_table(self) -> list:
        """The quotient's table, table[a][b] = c, read off the coset triples
        (a, b, c) of the total products e_g e_h = e_k.

        A vector lies in N iff its coefficients sum to zero over every
        class: N lies in that space, and both have dimension #labels -
        #classes, the e_g - e_root being a basis of N.  So e_k - e_k' lies
        in N iff k and k' share a class, and +-e_k never does.  Hence N is
        two-sided iff (e_g - e_g') e_h and e_h (e_g - e_g') lie in N for g,
        g' in one class, that is iff the coset of e_g e_h (None when zero)
        depends only on the cosets of g and h.  Each label pair over a x b
        then meets one triple (a, b, c), so every triple met must be met
        |a| |b| times, or this raises "redundancy-not-ideal"."""
        coset_of = self.coset_of
        hits = Counter((coset_of[g], coset_of[h], coset_of[k])
                       for g, row in enumerate(self.total.table)
                       for h, k in enumerate(row) if k is not None)
        sizes = Counter(coset_of)
        if any(m != sizes[a] * sizes[b] for (a, b, _), m in hits.items()):
            raise StructureError("redundancy-not-ideal", None,
                                 "the redundancy span fails to be two-sided")
        q = len(self.coset_positions)
        table = [[None] * q for _ in range(q)]
        for a, b, c in hits:
            table[a][b] = c
        return table

    def redundancy_pairs(self):
        """(g, root) for each non-root label g, in g order: N's basis e_g - e_root."""
        for g, a in enumerate(self.coset_of):
            if self.coset_positions[a] != g:
                yield g, self.coset_positions[a]

    @cached_property
    def redundancy(self) -> Subspace:
        """N in reduced form, one row e_g - e_root per redundancy pair: each
        pivot g lies below its root, and no root is a pivot."""
        f, n = self.bundle.field, self.total.dim
        minus_one = f.neg(f.one)
        return Subspace(f, n, tuple(
            tuple(f.one if c == g else minus_one if c == r else f.zero for c in range(n))
            for g, r in self.redundancy_pairs()))

    def global_index(self, s: int, i: int) -> int:
        return self.offsets[s] + i


# ---------------------------------------------------------------------------
# crossed products of K^X

def function_algebra(system: AmpleSystem, field: Field) -> FiniteAlgebra:
    """K^X with pointwise multiplication, labeled by point names."""
    labels = tuple(system.point_name(x) for x in range(system.space_size))
    table = [[x if x == y else None for y in range(system.space_size)]
             for x in range(system.space_size)]
    return FiniteAlgebra(field, labels, table)


def function_action(system: AmpleSystem, field: Field) -> AlgebraAction:
    """The induced action on K^X: alpha_s(f) = f o theta_{s*}, which sends
    the point mass at y to the point mass at theta_s(y)."""
    moves = [dict(pb.pairs) for pb in system.theta]
    return AlgebraAction(system.semigroup, function_algebra(system, field), moves)


def transport(system: AmpleSystem, field: Field, s: int, f_vec) -> tuple:
    """The zero-extended push-forward of a function along theta_s:
    (f o theta_{s*}) on the range of theta_s, zero elsewhere."""
    system.require_element(s)
    system.require_function(f_vec)
    pb = system.theta[s]
    out = [field.zero] * system.space_size
    for x, y in pb.pairs:
        out[y] = f_vec[x]
    return tuple(out)


class CrossedProduct:
    """The crossed product of K^X by an ample system: the quotient of the
    cross-sectional algebra of the semidirect bundle by the redundancy
    ideal.  Basis cosets are labeled "point:element"."""

    def __init__(self, system: AmpleSystem, field: Field):
        system.validate().require("ample system")
        self.system = system
        self.field = field
        labeler = lambda s, p: f"{system.point_name(p)}:{system.semigroup.name(s)}"
        self.bundle = semidirect_bundle(function_action(system, field), labeler)
        self.sections = CrossSectionalAlgebra(self.bundle)
        self.algebra = self.sections.quotient
        # fiber basis index -> point, per element
        self._fiber_points = tuple(self.system.theta[s].image()
                                   for s in range(system.semigroup.size))
        self.induction_contexts: dict[int, InductionContext] = {}

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def section_pair(self, g: int) -> tuple:
        """(point, element) of the section delta_y at s that is the g-th
        basis label of the cross-sectional algebra."""
        s, i = self.sections.label_pairs[g]
        return self._fiber_points[s][i], s

    def basis_pair(self, coset_index: int) -> tuple:
        """(point, element) of the canonical representative of a coset."""
        return self.section_pair(self.sections.coset_positions[coset_index])

    def term(self, y: int, s: int) -> tuple:
        """Coset coordinates of the single section delta_y at element s:
        the unit vector at the coset of its label."""
        self.system.require_point(y)
        self.system.require_element(s)
        points = self._fiber_points[s]
        if y not in points:
            raise ValueError(
                f"{self.system.point_name(y)} is outside the range of "
                f"{self.system.semigroup.name(s)}")
        g = self.sections.global_index(s, points.index(y))
        return unit_vector(self.field, self.dim, self.sections.coset_of[g])

    def indicator_term(self, s: int, points=None) -> tuple:
        self.system.require_element(s)
        points = self._fiber_points[s] if points is None else points
        return lincomb(self.field, [self.field.one] * len(points),
                       [self.term(y, s) for y in points], self.dim)

    def lift_terms(self, b):
        """Canonical lift of a coset vector, grouped per element:
        [(s, function vector over X)] with nonzero functions only, read
        by basis_pair: coset (y, s) holds the value at y of the one at s."""
        f = self.field
        if len(b) != self.dim:
            raise ValueError(f"vector of length {len(b)} in a crossed product of dim {self.dim}")
        per_elem = {}
        for a, c in nonzero_entries(f, b):
            y, s = self.basis_pair(a)
            per_elem.setdefault(s, [f.zero] * self.system.space_size)[y] = c
        return [(s, tuple(fn)) for s, fn in sorted(per_elem.items())]

    def embed(self, f_vec) -> tuple:
        """Embed a function on X, greedily partitioning its support by the
        idempotent domains in element order."""
        f = self.field
        self.system.require_function(f_vec)
        remaining = [y for y in range(self.system.space_size)
                     if not f.is_zero(f_vec[y])]
        coeffs, terms = [], []
        for e in self.system.semigroup.idempotents:
            if not remaining:
                break
            dom = set(self.system.theta[e].domain())
            for y in remaining:
                if y in dom:
                    coeffs.append(f_vec[y])
                    terms.append(self.term(y, e))
            remaining = [y for y in remaining if y not in dom]
        if remaining:
            raise StructureError("embed-cover", (remaining[0],),
                                 "support not covered by idempotent domains")
        return lincomb(f, coeffs, terms, self.dim)

    def transport(self, s: int, f_vec) -> tuple:
        return transport(self.system, self.field, s, f_vec)

    def local_unit(self, b) -> tuple:
        """An idempotent phi with phi*b = b = b*phi, built from the
        orthogonal cover of the supports of b's canonical lift."""
        f = self.field
        terms = self.lift_terms(b)
        if not terms:
            return zero_vector(f, self.dim)
        sg = self.system.semigroup
        support = {s: frozenset(y for y, c in enumerate(fn) if not f.is_zero(c))
                   for s, fn in terms}
        pulled = {s: frozenset(map(self.system.theta[sg.inv(s)].apply, supp))
                  for s, supp in support.items()}
        elems = sorted(support)
        space = frozenset(range(self.system.space_size))
        pieces = []
        for eps in _subsets(elems):
            for zeta in _subsets(elems):
                if not eps and not zeta:
                    continue
                region = space
                for s in elems:
                    region &= support[s] if s in eps else (space - support[s])
                for s in elems:
                    region &= pulled[s] if s in zeta else (space - pulled[s])
                if not region:
                    continue
                e = None
                for s in eps:
                    factor = sg.product(s, sg.inv(s))
                    e = factor if e is None else sg.product(e, factor)
                for s in zeta:
                    factor = sg.product(sg.inv(s), s)
                    e = factor if e is None else sg.product(e, factor)
                pieces += [self.term(y, e) for y in sorted(region)]
        phi = lincomb(f, [f.one] * len(pieces), pieces, self.dim)
        alg = self.algebra
        if alg.mul(phi, phi) != phi or alg.mul(phi, b) != b or alg.mul(b, phi) != b:
            raise StructureError("local-unit", None, "local unit construction failed")
        return phi


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def crossed_product(system: AmpleSystem, field: Field) -> CrossedProduct:
    return CrossedProduct(system, field)


# ---------------------------------------------------------------------------
# covariant representations

class CovariantRep:
    """A pair (pi, sigma): pi represents K^X, sigma represents the
    semigroup, tied by the covariance identities."""

    def __init__(self, system: AmpleSystem, field: Field, space_dim: int, pi, sigma):
        self.system = system
        self.field = field
        self.space_dim = space_dim
        self.pi = tuple(tuple(tuple(r) for r in m) for m in pi)
        self.sigma = tuple(tuple(tuple(r) for r in m) for m in sigma)
        if len(self.pi) != system.space_size:
            raise ValueError("one pi image per point required")
        if len(self.sigma) != system.semigroup.size:
            raise ValueError("one sigma image per element required")

    def validate(self) -> ValidationReport:
        sys, f, d = self.system, self.field, self.space_dim
        sg = sys.semigroup
        zero = tuple(zero_vector(f, d) for _ in range(d))
        for y in range(sys.space_size):
            for z in range(sys.space_size):
                prod = mat_mul(f, self.pi[y], self.pi[z])
                want = self.pi[y] if y == z else zero
                if prod != want:
                    return ValidationReport.failed(
                        "function-rep", (sys.point_name(y), sys.point_name(z)))
        cols = []
        for m in self.pi:
            for k in range(d):
                cols.append(tuple(m[r][k] for r in range(d)))
        _, rank = rref(f, cols)
        if rank != d:
            return ValidationReport.failed("nondegenerate", (rank, d))
        for s in range(sg.size):
            for t in range(sg.size):
                if mat_mul(f, self.sigma[s], self.sigma[t]) != self.sigma[sg.product(s, t)]:
                    return ValidationReport.failed(
                        "sigma-homomorphism", (sg.name(s), sg.name(t)))
        for s in range(sg.size):
            si = sg.inv(s)
            for z in sys.theta[s].domain():
                lhs = mat_mul(f, self.sigma[s], mat_mul(f, self.pi[z], self.sigma[si]))
                if lhs != self.pi[sys.theta[s].apply(z)]:
                    return ValidationReport.failed(
                        "covariance", (sg.name(s), sys.point_name(z)))
        for e in sg.idempotents:
            dom = sys.theta[e].domain()
            total = mat_lincomb(f, [f.one] * len(dom), [self.pi[y] for y in dom], d)
            if total != self.sigma[e]:
                return ValidationReport.failed("unit-condition", (sg.name(e),))
        return ValidationReport.passed()


def integrate(cp: CrossedProduct, cr: CovariantRep) -> Representation:
    """The integrated form pi(f) sigma_s on the crossed product basis.

    Beyond the structure-constant check inside Representation, each
    section delta_y at s is compared, in label order, with the root of its
    coset: the formula must kill the redundancy ideal."""
    sections = cp.sections
    per_label = [mat_mul(cp.field, cr.pi[y], cr.sigma[s])
                 for y, s in map(cp.section_pair, range(sections.total.dim))]
    images = [per_label[g] for g in sections.coset_positions]
    rep = Representation(cp.algebra, cr.space_dim, images)
    for g, root in sections.redundancy_pairs():
        if per_label[g] != per_label[root]:
            y, s = cp.section_pair(g)
            raise StructureError("integration-consistency",
                                 (cp.system.point_name(y), cp.system.semigroup.name(s)))
    return rep


def disintegrate(cp: CrossedProduct, rep: Representation) -> CovariantRep:
    """Recover the covariant pair from a non-degenerate representation:
    pi from the embedded functions, sigma_s as the image of the indicator
    section at s (the closed form available over a finite space)."""
    if rep.algebra is not cp.algebra:
        raise ValueError("representation is not over this crossed product")
    if not rep.is_nondegenerate():
        raise StructureError("degenerate-representation", None,
                             "disintegration needs a non-degenerate representation")
    f = cp.field
    pi = []
    for y in range(cp.system.space_size):
        one_at = unit_vector(f, cp.system.space_size, y)
        pi.append(rep.apply(cp.embed(one_at)))
    sigma = [rep.apply(cp.indicator_term(s))
             for s in range(cp.system.semigroup.size)]
    cr = CovariantRep(cp.system, f, rep.space_dim, pi, sigma)
    cr.validate().require("disintegrated pair")
    return cr


# ---------------------------------------------------------------------------
# extending fiberwise pre-representations, unitization

def extend_representation(sections: CrossSectionalAlgebra, target: FiniteAlgebra,
                          fiber_images) -> tuple:
    """Extend a fiberwise pre-representation pi_s: B_s -> target to the
    quotient algebra.

    fiber_images[s][i] is the target element assigned to the i-th basis
    vector of B_s.  Raises unless the family is multiplicative across mu
    and constant along the inclusions (exactly the condition for killing
    the redundancy ideal); returns the matrix of the induced map on the
    quotient basis and verifies it is a homomorphism, unless N = 0: the
    quotient is then the total algebra and the map is the
    pre-representation itself, already checked.  Multiplicativity
    across mu is a homomorphism check on the total algebra, which visits
    basis pairs in (s, i, t, j) order; its first failure is reported as
    (s, t, i, j)."""
    bundle = sections.bundle
    sg, f = bundle.semigroup, bundle.field
    fiber_images = tuple(tuple(tuple(v) for v in per) for per in fiber_images)
    for s in range(sg.size):
        if len(fiber_images[s]) != bundle.fiber_dim(s):
            raise ValueError(f"wrong number of images for fiber {sg.name(s)}")
    per_label = [fiber_images[s][i] for s, i in sections.label_pairs]
    try:
        check_algebra_hom(sections.total, target, per_label, "pre-representation")
    except HomomorphismError as err:
        (s, i), (t, j) = (sections.label_pairs[g] for g in err.indices)
        raise StructureError("pre-representation", (sg.name(s), sg.name(t), i, j)) from None
    for (s, t) in sg.order_pairs():
        for i, k in enumerate(bundle.order_maps[(t, s)]):
            if fiber_images[t][k] != fiber_images[s][i]:
                raise StructureError("inclusion-compatibility", (sg.name(s), sg.name(t), i))
    cols = [per_label[g] for g in sections.coset_positions]
    if sections.quotient is not sections.total:
        check_algebra_hom(sections.quotient, target, cols, "extension-multiplicative")
    return mat_from_columns(f, cols, target.dim)


@dataclass(frozen=True)
class UnitizationIso:
    plain: CrossedProduct
    unitized: CrossedProduct
    matrix: tuple


def unitization_isomorphism(system: AmpleSystem, field: Field) -> UnitizationIso:
    """The crossed product is unchanged by adjoining a unit acting as the
    identity on the whole space; returns the verified isomorphism."""
    cp = CrossedProduct(system, field)
    sg = system.semigroup
    unit_theta = PartialBijection.identity(range(system.space_size))
    bigger = AmpleSystem(sg.unitize(), system.space_size,
                         tuple(system.theta) + (unit_theta,), system.point_names)
    cpu = CrossedProduct(bigger, field)
    if cpu.dim != cp.dim:
        raise StructureError("unitization-dimension", (cp.dim, cpu.dim))
    cols = [cpu.term(*cp.basis_pair(idx)) for idx in range(cp.dim)]
    matrix = mat_from_columns(field, cols, cpu.dim)
    _, rank = rref(field, cols)
    if rank != cp.dim:
        raise StructureError("unitization-injective", (rank, cp.dim))
    check_algebra_hom(cp.algebra, cpu.algebra, cols, "unitization-multiplicative")
    return UnitizationIso(cp, cpu, matrix)
