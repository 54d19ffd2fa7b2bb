"""Ideal induction and reconstruction for crossed products.

For each base point x the crossed product acts on the free module over the
germs at x; the module carries a bilinear form valued in the isotropy
group algebra KG_x.  Reading coefficients along isotropy germs (the
restriction map) and inducing ideals back through the form are exact,
finite computations here, and every two-sided ideal J is certified to
equal the intersection of the ideals induced from its restrictions over
one point per orbit.

Discretization takes any non-degenerate representation, quotients it to
fibers over the points, and rebuilds it in block form; the equivalence
with the induced module of the isotropy fiber is produced as an explicit
intertwiner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import CrossedProduct, disintegrate
from .exactlin import (
    QuotientMap,
    Representation,
    StructureError,
    Subspace,
    intersect_all,
    is_ideal,
    left_regular_mod,
    mat_from_columns,
    mat_lincomb,
    mat_mul,
    mat_vec,
    nonzero_entries,
    nullspace,
    rref,
    unit_vector,
    vec_is_zero,
)


def isotropy_restriction(cp: CrossedProduct, x: int, b) -> tuple:
    """Coefficients of b along the isotropy germs at x, as a vector over
    the isotropy group algebra basis, read off b's coset coordinates."""
    cp.system.require_point(x)
    if len(b) != cp.dim:
        raise ValueError(f"vector of length {len(b)} in a crossed product of dim {cp.dim}")
    positions = cp.sections.coset_positions
    return _restrict(cp, x, [(positions[a], c) for a, c in nonzero_entries(cp.field, b)])


def _restrict(cp: CrossedProduct, x: int, terms) -> tuple:
    """The restriction rule over terms (g, c), each c times the g-th
    section label delta_y at s: it adds c at the germ [s@x] exactly when
    y = x and theta_s fixes x, and nothing otherwise."""
    f = cp.field
    out = [f.zero] * cp.system.isotropy_group(x).size
    for g, c in terms:
        y, s = cp.section_pair(g)
        idx = _fixed_germ(cp, x, s) if y == x else None
        if idx is not None:
            out[idx] = f.add(out[idx], c)
    return tuple(out)


def _fixed_germ(cp: CrossedProduct, x: int, s: int):
    """Isotropy index of the germ [s@x] when theta_s fixes x, else None."""
    pb = cp.system.theta[s]
    if pb.defined_at(x) and pb.apply(x) == x:
        return cp.system.isotropy_group(x).member_index(cp.system.germ_of(s, x))
    return None


def induction_context(cp: CrossedProduct, x: int) -> "InductionContext":
    """The induction context at x, built once per crossed product."""
    ctx = cp.induction_contexts.get(x)
    if ctx is None:
        ctx = cp.induction_contexts[x] = InductionContext(cp, x)
    return ctx


class InductionContext:
    """Everything anchored at one base point: the germ module, the
    bilinear form, the restriction map, induced ideals and modules.

    The germ module is held as an index map, built once per context.  A
    section delta_y at s sends a germ to one germ with coefficient one or
    to zero, so moves[i][l] is the germ that basis section i sends germ l
    to, or None.  The form sends a pair of germs to one isotropy germ or
    to zero, so pair_index[k][t] is the isotropy index of [k* t], or None.
    """

    def __init__(self, cp: CrossedProduct, x: int):
        cp.system.require_point(x)
        self.cp = cp
        self.point = x
        sys = cp.system
        self.system = sys
        self.field = cp.field
        self.germs = sys.germs_at(x)
        self.germ_index = {g: i for i, g in enumerate(self.germs)}
        self.iso = sys.isotropy_group(x)
        self.group_algebra = self.iso.algebra(cp.field)
        self.transversal = sys.orbit_transversal(x)
        self.orbit = sys.orbit(x)
        sections = cp.sections
        # one entry per basis label of the sections, i.e. per section (y, s)
        self._section_moves = tuple(self._moves(*cp.section_pair(g))
                                    for g in range(sections.total.dim))
        self.moves = tuple(self._section_moves[g] for g in sections.coset_positions)
        self.pair_index = tuple(
            tuple(self._pair_target(k, t) for t in range(self.module_dim))
            for k in range(self.module_dim))
        self._check_well_defined()

    # -- the germ module ----------------------------------------------------

    @property
    def module_dim(self) -> int:
        return len(self.germs)

    def _moves(self, y: int, s: int) -> tuple:
        """For each germ [t] at x, the index of the germ [s t] when the
        section delta_y at s moves it, else None."""
        sys, sg, x = self.system, self.system.semigroup, self.point
        out = []
        for germ in self.germs:
            st = sg.product(s, germ.element)
            pb = sys.theta[st]
            hit = pb.defined_at(x) and pb.apply(x) == y
            out.append(self.germ_index[sys.germ_of(st, x)] if hit else None)
        return tuple(out)

    def _pair_target(self, k: int, t: int):
        """Isotropy index of [k* t] when k* t fixes x, else None."""
        sg = self.system.semigroup
        kt = sg.product(sg.inv(self.germs[k].element), self.germs[t].element)
        return _fixed_germ(self.cp, self.point, kt)

    def act(self, b) -> tuple:
        """Matrix of b acting on the germ module."""
        f, n = self.field, self.module_dim
        out = [[f.zero] * n for _ in range(n)]
        for c, move in zip(b, self.moves, strict=True):
            if f.is_zero(c):
                continue
            for l, r in enumerate(move):
                if r is not None:
                    out[r][l] = f.add(out[r][l], c)
        return tuple(tuple(row) for row in out)

    def right_translate(self, germ_i: int, iso_i: int) -> int:
        """delta_[s] . delta_[g] = delta_[s g] for an isotropy germ g."""
        sg = self.system.semigroup
        s = self.germs[germ_i].element
        g = self.iso.members[iso_i].element
        return self.germ_index[self.system.germ_of(sg.product(s, g), self.point)]

    def pair(self, k: int, m_vec) -> tuple:
        """The KG_x-valued form <delta_[k], m> = sum [k* t isotropy] m_t delta_[k* t]."""
        if not 0 <= k < self.module_dim or len(m_vec) != self.module_dim:
            raise ValueError(f"germ {k} and vector of length {len(m_vec)} in a germ "
                             f"module of dim {self.module_dim}")
        f = self.field
        out = [f.zero] * self.iso.size
        for t, c in enumerate(m_vec):
            idx = None if f.is_zero(c) else self._pair_target(k, t)
            if idx is not None:
                out[idx] = f.add(out[idx], c)
        return tuple(out)

    def _check_well_defined(self):
        """The term-level formulas must kill every basis vector e_g - e_root
        of the redundancy ideal, in g order.  Each sends a label to a unit
        vector or zero, so it kills e_g - e_root iff g and root agree."""
        cp, one = self.cp, self.field.one
        for g, root in cp.sections.redundancy_pairs():
            if _restrict(cp, self.point, [(g, one)]) != _restrict(cp, self.point, [(root, one)]):
                raise StructureError("restriction-ill-defined", (self.point,))
            if self._section_moves[g] != self._section_moves[root]:
                raise StructureError("module-action-ill-defined", (self.point,))

    # -- restriction and induction ------------------------------------------

    def restrict(self, b) -> tuple:
        return isotropy_restriction(self.cp, self.point, b)

    def _restriction_span(self, ideal: Subspace) -> Subspace:
        return Subspace.span(self.field, self.iso.size,
                             [self.restrict(v) for v in ideal.basis])

    def gamma_image(self, ideal: Subspace) -> Subspace:
        """Image of an ideal under the restriction map; verified to be an
        ideal of the isotropy group algebra."""
        image = self._restriction_span(ideal)
        if not is_ideal(self.group_algebra, image):
            raise StructureError("restriction-image-not-ideal", (self.point,))
        return image

    def induced_ideal(self, ideal: Subspace) -> Subspace:
        """{b : <delta_[k], b delta_[l]> lies in the ideal for all germs k, l},
        by one exact kernel computation; verified two-sided.

        Every germ k is [r g] for the transversal germ r with the same
        target and an isotropy germ g, and <delta_[r g], m> = g^-1
        <delta_[r], m>.  An ideal is closed under left multiplication, so
        the rows for r in the transversal and every l have the whole
        kernel; that is why the input is verified to be an ideal."""
        if ideal.ambient_dim != self.iso.size:
            raise ValueError("ideal does not live in the isotropy group algebra")
        if not is_ideal(self.group_algebra, ideal):
            raise ValueError("subspace is not an ideal of the isotropy group algebra")
        return self._induce(ideal)

    def _induce(self, ideal: Subspace) -> Subspace:
        """The kernel behind induced_ideal, for an ideal of the isotropy
        group algebra that the caller has verified already."""
        f = self.field
        qm = QuotientMap.of(ideal)
        # entry (r, l, i) is the class of the isotropy unit at [r* s_i l]
        cols = [qm.project(unit_vector(f, self.iso.size, h)) for h in range(self.iso.size)]
        zero = (f.zero,) * qm.dim
        rows = []
        for r in self.transversal:
            by_germ = [zero if h is None else cols[h]
                       for h in self.pair_index[self.germ_index[r]]]
            for l in range(self.module_dim):
                images = [zero if move[l] is None else by_germ[move[l]] for move in self.moves]
                rows.extend(zip(*images))
        basis = nullspace(f, rows, self.cp.dim)
        out = Subspace(f, self.cp.dim, basis)
        if not is_ideal(self.cp.algebra, out):
            raise StructureError("induced-not-ideal", (self.point,))
        return out

    def admissible_hull(self, ideal: Subspace) -> Subspace:
        return self.gamma_image(self.induced_ideal(ideal))

    def is_admissible(self, ideal: Subspace) -> bool:
        return self.admissible_hull(ideal) == ideal

    # -- induced modules ------------------------------------------------------

    def induce(self, module: Representation) -> Representation:
        """Induce a KG_x-module up to the crossed product on the free
        module over the orbit transversal.

        Basis section i sends the a-th transversal germ l to the germ
        m = moves[i][l], or to zero.  When it is a germ, m ends at an orbit
        point, whose transversal germ r is in slot b, and the block of
        the isotropy germ [r* m], pair_index[r][m], goes at (b, a)."""
        if module.algebra is not self.group_algebra and (
                module.algebra.field != self.field
                or module.algebra.labels != self.group_algebra.labels):
            raise ValueError("module is not over this isotropy group algebra")
        f = self.field
        d = module.space_dim
        total = len(self.transversal) * d
        slot = {y: b for b, y in enumerate(self.orbit)}
        starts = [self.germ_index[r] for r in self.transversal]
        slot_of = [slot[self.system.germ_target(g)] for g in self.germs]
        images = []
        for move in self.moves:
            big = [[f.zero] * total for _ in range(total)]
            for a, l in enumerate(starts):
                m = move[l]
                if m is None:
                    continue
                target = slot_of[m]
                block = module.images[self.pair_index[starts[target]][m]]
                for r in range(d):
                    for c in range(d):
                        big[target * d + r][a * d + c] = block[r][c]
            images.append(tuple(tuple(row) for row in big))
        return Representation(self.cp.algebra, total, images)


# ---------------------------------------------------------------------------
# discretization

class Discretization:
    """Fiberwise quotient of a non-degenerate representation.

    For each point x the fiber V_x is the quotient of the space by the
    span of the images of functions vanishing at x; the representation is
    rebuilt block-by-block over the fibers and re-verified against the
    algebra's table."""

    def __init__(self, cp: CrossedProduct, rep: Representation):
        self.cp = cp
        self.rep = rep
        self.pair = disintegrate(cp, rep)
        f = cp.field
        v_dim = rep.space_dim
        sys = cp.system
        self.fibers = []
        for x in range(sys.space_size):
            vanish = []
            for y in range(sys.space_size):
                if y == x:
                    continue
                m = self.pair.pi[y]
                for k in range(v_dim):
                    vanish.append(tuple(m[r][k] for r in range(v_dim)))
            self.fibers.append(QuotientMap.of(Subspace.span(f, v_dim, vanish)))
        self.offsets = []
        acc = 0
        for qm in self.fibers:
            self.offsets.append(acc)
            acc += qm.dim
        self.total_dim = acc
        self._q_mats = tuple(self._projection_matrix(x) for x in range(sys.space_size))
        self._lift_mats = tuple(self._section_matrix(x) for x in range(sys.space_size))
        images = [self._block_image(i) for i in range(cp.dim)]
        self.block_rep = Representation(cp.algebra, self.total_dim, images)

    def fiber_dim(self, x: int) -> int:
        return self.fibers[x].dim

    def fiber_map(self, s: int, x: int) -> tuple:
        """Matrix of the map V_x -> V_{theta_s(x)} induced by sigma_s."""
        theta = self.cp.system.theta[s]
        if not theta.defined_at(x):
            raise ValueError(f"{self.cp.system.semigroup.name(s)} is not defined at "
                             f"{self.cp.system.point_name(x)}")
        f = self.cp.field
        move = mat_mul(f, self._q_mats[theta.apply(x)], self.pair.sigma[s])
        return mat_mul(f, move, self._lift_mats[x])

    def translation_block(self, s: int) -> tuple:
        """Matrix on the sum of fibers moving each fiber in the domain of
        theta_s to the fiber over its image."""
        f = self.cp.field
        big = [[f.zero] * self.total_dim for _ in range(self.total_dim)]
        for x in self.cp.system.theta[s].domain():
            tx = self.cp.system.theta[s].apply(x)
            block = self.fiber_map(s, x)
            for r in range(self.fibers[tx].dim):
                for c in range(self.fibers[x].dim):
                    big[self.offsets[tx] + r][self.offsets[x] + c] = block[r][c]
        return tuple(tuple(row) for row in big)

    def function_block(self, f_vec) -> tuple:
        """Block-diagonal matrix of a function on the sum of fibers; the
        block over x is the compression of the represented function."""
        f = self.cp.field
        pf = mat_lincomb(f, f_vec, self.pair.pi, self.rep.space_dim)
        big = [[f.zero] * self.total_dim for _ in range(self.total_dim)]
        for x in range(self.cp.system.space_size):
            block = mat_mul(f, self._q_mats[x], mat_mul(f, pf, self._lift_mats[x]))
            for r in range(self.fibers[x].dim):
                for c in range(self.fibers[x].dim):
                    big[self.offsets[x] + r][self.offsets[x] + c] = block[r][c]
        return tuple(tuple(row) for row in big)

    def _projection_matrix(self, x: int) -> tuple:
        f = self.cp.field
        v_dim = self.rep.space_dim
        cols = [self.fibers[x].project(unit_vector(f, v_dim, c)) for c in range(v_dim)]
        return mat_from_columns(f, cols, self.fibers[x].dim)

    def _section_matrix(self, x: int) -> tuple:
        f = self.cp.field
        qm = self.fibers[x]
        cols = [qm.lift(unit_vector(f, qm.dim, c)) for c in range(qm.dim)]
        return mat_from_columns(f, cols, self.rep.space_dim)

    def _block_image(self, i: int) -> tuple:
        """Block matrix of the i-th basis section on the sum of fibers,
        checking that each block is independent of the chosen lifts."""
        f = self.cp.field
        sys = self.cp.system
        y, s = self.cp.basis_pair(i)
        move = mat_mul(f, self.pair.pi[y], self.pair.sigma[s])
        big = [[f.zero] * self.total_dim for _ in range(self.total_dim)]
        for x in sys.theta[s].domain():
            tx = sys.theta[s].apply(x)
            for z in self.fibers[x].subspace.basis:
                if not vec_is_zero(f, mat_vec(f, self._q_mats[tx], mat_vec(f, move, z))):
                    raise StructureError("fiber-ill-defined",
                                         (sys.point_name(x), sys.point_name(y)))
            block = mat_mul(f, self._q_mats[tx], mat_mul(f, move, self._lift_mats[x]))
            for r in range(self.fibers[tx].dim):
                for c in range(self.fibers[x].dim):
                    big[self.offsets[tx] + r][self.offsets[x] + c] = block[r][c]
        return tuple(tuple(row) for row in big)

    # -- derived representations ---------------------------------------------

    def isotropy_module(self, ctx: InductionContext) -> Representation:
        """V_x as a module over the isotropy group algebra, with the
        germ-representative independence verified."""
        x = ctx.point
        f = self.cp.field
        q, lift = self._q_mats[x], self._lift_mats[x]
        images = []
        for g in ctx.iso.members:
            mats = set()
            for t in self.cp.system.isotropy_elements(x):
                if self.cp.system.germ_of(t, x) == g:
                    mats.add(mat_mul(f, q, mat_mul(f, self.pair.sigma[t], lift)))
            if len(mats) != 1:
                raise StructureError("isotropy-module-ill-defined",
                                     (self.cp.system.germ_name(g),))
            images.append(mats.pop())
        return Representation(ctx.group_algebra, self.fibers[x].dim, images)

    def orbit_block(self, x: int) -> Representation:
        """Restriction of the block representation to the fibers over the
        orbit of x."""
        f = self.cp.field
        points = self.cp.system.orbit(x)
        positions = []
        for y in points:
            positions.extend(range(self.offsets[y], self.offsets[y] + self.fibers[y].dim))
        images = []
        for m in self.block_rep.images:
            images.append(tuple(tuple(m[r][c] for c in positions) for r in positions))
        return Representation(self.cp.algebra, len(positions), images)


def discretize(cp: CrossedProduct, rep: Representation | None = None,
               ideal: Subspace | None = None) -> Discretization:
    """Discretize a representation (default: left regular modulo the
    given ideal, or modulo zero)."""
    if rep is None:
        if ideal is None:
            ideal = Subspace.zero(cp.field, cp.dim)
        rep = left_regular_mod(cp.algebra, ideal)
    return Discretization(cp, rep)


def induction_equivalence(disc: Discretization, ctx: InductionContext) -> tuple:
    """The intertwiner from the induced module of the isotropy fiber onto
    the orbit block: germ transversal slot (r, k) maps to the class of
    sigma_r applied to the k-th fiber basis vector.  Verified bijective
    and intertwining; returns its matrix."""
    x = ctx.point
    f = disc.cp.field
    module = disc.isotropy_module(ctx)
    induced = ctx.induce(module)
    block = disc.orbit_block(x)
    d = module.space_dim
    lift = disc._lift_mats[x]
    cols = []
    block_offsets = {}
    acc = 0
    for y in ctx.orbit:
        block_offsets[y] = acc
        acc += disc.fiber_dim(y)
    if acc != block.space_dim or induced.space_dim != acc:
        raise StructureError("equivalence-dimension", (induced.space_dim, acc))
    for r_germ in ctx.transversal:
        y = ctx.system.germ_target(r_germ)
        q_target = disc._q_mats[y]
        move = mat_mul(f, q_target, mat_mul(f, disc.pair.sigma[r_germ.element], lift))
        for k in range(d):
            col = [f.zero] * acc
            piece = mat_vec(f, move, unit_vector(f, d, k))
            for r, val in enumerate(piece):
                col[block_offsets[y] + r] = val
            cols.append(tuple(col))
    tau = mat_from_columns(f, cols, acc)
    _, rank = rref(f, cols)
    if rank != acc:
        raise StructureError("equivalence-not-bijective", (rank, acc))
    for i in range(disc.cp.dim):
        lhs = mat_mul(f, tau, induced.images[i])
        rhs = mat_mul(f, block.images[i], tau)
        if lhs != rhs:
            raise StructureError("equivalence-not-intertwining",
                                 (disc.cp.algebra.labels[i],))
    return tau


# ---------------------------------------------------------------------------
# the intersection certificate

@dataclass(frozen=True)
class PointCertificate:
    point: int
    gamma_ideal: Subspace
    admissible: bool
    induced: Subspace


@dataclass(frozen=True)
class IntersectionCertificate:
    ideal: Subspace
    points: tuple
    intersection: Subspace
    exact: bool

    def to_json(self, cp: CrossedProduct):
        return {
            "ideal": self.ideal.to_json(),
            "orbit_representatives": [
                cp.system.point_name(p.point) for p in self.points],
            "points": [
                {
                    "point": cp.system.point_name(p.point),
                    "gamma_ideal": p.gamma_ideal.to_json(),
                    "admissible": p.admissible,
                    "induced_ideal": p.induced.to_json(),
                }
                for p in self.points
            ],
            "intersection": self.intersection.to_json(),
            "exact": self.exact,
        }


def decompose_ideal(cp: CrossedProduct, ideal: Subspace) -> IntersectionCertificate:
    """Certify that the ideal equals the intersection, over one point per
    orbit, of the ideals induced from its isotropy restrictions.  Any
    failure aborts with the offending vector; success returns the full
    certificate."""
    if ideal.ambient_dim != cp.dim:
        raise ValueError("ideal does not live in this crossed product")
    if not is_ideal(cp.algebra, ideal):
        raise StructureError("not-two-sided", None, "input subspace is not an ideal")
    entries = []
    for x in cp.system.orbit_representatives():
        ctx = induction_context(cp, x)
        gamma = ctx.gamma_image(ideal)
        induced = ctx._induce(gamma)   # gamma_image verified gamma an ideal
        # a restriction equal to gamma is an ideal already verified; one
        # that differs is verified before it is reported as inadmissible
        admissible = ctx._restriction_span(induced) == gamma
        if not admissible:
            ctx.gamma_image(induced)
            raise StructureError("restriction-not-admissible",
                                 (cp.system.point_name(x),))
        if not induced.contains_space(ideal):
            witness = next(v for v in ideal.basis if not induced.contains(v))
            raise StructureError("induced-misses-ideal",
                                 (cp.system.point_name(x), witness))
        entries.append(PointCertificate(x, gamma, admissible, induced))
    intersection = intersect_all([e.induced for e in entries])
    if intersection != ideal:
        witness = next((v for v in intersection.basis if not ideal.contains(v)),
                       None)
        if witness is None:
            witness = next(v for v in ideal.basis if not intersection.contains(v))
        raise StructureError("intersection-mismatch", (witness,),
                             f"intersection has dim {intersection.dim}, "
                             f"ideal has dim {ideal.dim}")
    return IntersectionCertificate(ideal, tuple(entries), intersection, True)
