"""Shared constructions for the test suite."""

import itertools

from crossedideals import (
    AmpleSystem,
    FiniteAlgebra,
    InverseSemigroup,
    PartialBijection,
    QuotientMap,
    Representation,
    StructureError,
    Subspace,
    enumerate_subspaces,
    is_ideal,
    nullspace,
)
from crossedideals.exactlin import (
    lincomb,
    mat_from_columns,
    mat_vec,
    nonzero_entries,
    rref,
    subspace_intersect,
    unit_vector,
    zero_vector,
)
from crossedideals.fixtures import FIXTURES, brandt_system
from crossedideals.groupoids import groupoid_restriction
from crossedideals.validation import ValidationReport


def z2_semigroup() -> InverseSemigroup:
    return InverseSemigroup(((0, 1), (1, 0)), (0, 1), ("1", "g"))


def z2_algebra(field) -> FiniteAlgebra:
    """The group algebra K[Z/2] on the basis {1, g}."""
    return FiniteAlgebra(field, ("1", "g"), ((0, 1), (1, 0)))


MATRIX_UNIT_POSITIONS = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}


def matrix_units_table():
    """Monomial table of M_2: e_ab e_cd = e_ad when b = c, else zero."""
    table = [[None] * 4 for _ in range(4)]
    for (a, b), i in MATRIX_UNIT_POSITIONS.items():
        for (c, d), j in MATRIX_UNIT_POSITIONS.items():
            if b == c:
                table[i][j] = MATRIX_UNIT_POSITIONS[(a, d)]
    return table


def matrix_units_algebra(field) -> FiniteAlgebra:
    """M_2(K) on the matrix-unit basis e11, e12, e21, e22."""
    return FiniteAlgebra(field, ("e11", "e12", "e21", "e22"), matrix_units_table())


def dense_mul(field, table, u, v):
    """Reference product: every coordinate pair (i, j) of u and v against
    the index table (table[i][j] the index of e_i e_j, or None for zero)."""
    out = [field.zero] * len(table)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            k = table[i][j]
            if k is not None:
                out[k] = field.add(out[k], field.mul(a, b))
    return tuple(out)


def sparse_combination(field, scaled) -> dict:
    """sum c * terms over the (c, terms) pairs, where terms is a sparse
    vector ((k, coeff), ...), as {k: entry} with zero entries dropped."""
    acc = {}
    for c, terms in scaled:
        for k, d in terms:
            acc[k] = field.add(acc.get(k, field.zero), field.mul(c, d))
    return {k: a for k, a in acc.items() if not field.is_zero(a)}


def dense_check_associativity(field, labels, table):
    """Reference associativity check: (e_i e_j) e_k against e_i (e_j e_k)
    with dense_mul on every basis triple in (i, j, k) order.  Raises
    StructureError("associativity", labels of the triple) at the first
    triple that differs."""
    n = len(labels)
    basis = [tuple(field.one if j == i else field.zero for j in range(n))
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            pij = dense_mul(field, table, basis[i], basis[j])
            for k in range(n):
                left = dense_mul(field, table, pij, basis[k])
                right = dense_mul(field, table, basis[i],
                                  dense_mul(field, table, basis[j], basis[k]))
                if left != right:
                    raise StructureError("associativity", (labels[i], labels[j], labels[k]))


def reference_first_nonassociative(table):
    """Reference index-table check: the first (i, j, k) in (i, j, k) order
    at which (e_i e_j) e_k and e_i (e_j e_k) differ, where table[i][j] is
    the index of e_i e_j or None for zero; None if there is none."""
    n = len(table)

    def times(a, b):
        return None if a is None or b is None else table[a][b]

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if times(times(i, j), k) != times(i, times(j, k)):
                    return i, j, k
    return None


def reference_semigroup_associativity(sg):
    """The associativity loop of InverseSemigroup.validate before it
    called exactlin.first_nonassociative: the failed report at the first
    triple, or None."""
    n = sg.size
    mult = sg.mult
    for a in range(n):
        for b in range(n):
            ab = mult[a][b]
            for c in range(n):
                if mult[ab][c] != mult[a][mult[b][c]]:
                    return ValidationReport.failed(
                        "associativity", (sg.name(a), sg.name(b), sg.name(c)))
    return None


def reference_isotropy_associativity(group):
    """The associativity loop of IsotropyGroup._check_group_laws before it
    called exactlin.first_nonassociative: raises StructureError at the
    first triple."""
    n = group.size
    name = [group.system.germ_name(g) for g in group.members]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if group.table[group.table[i][j]][k] != group.table[i][group.table[j][k]]:
                    raise StructureError("isotropy-associativity", (name[i], name[j], name[k]))


def reference_groupoid_associativity(groupoid):
    """The associativity loop of FiniteGroupoid.validate before it called
    exactlin.first_nonassociative: the composable pairs (a, b) in the
    insertion order of compose, then c in index order.  Returns the failed
    report at the first triple, or None; meaningful only when the
    composability, endpoint and identity rules pass."""
    compose = groupoid.compose
    for (a, b) in compose:
        for c in range(groupoid.size):
            if groupoid.composable(b, c):
                if compose[(compose[(a, b)], c)] != compose[(a, compose[(b, c)])]:
                    return ValidationReport.failed(
                        "associativity",
                        (groupoid.name(a), groupoid.name(b), groupoid.name(c)))
    return None


def dense_check_algebra_hom(src, dst, images):
    """Reference homomorphism check: the first basis pair (i, j), in (i, j)
    order, at which the image of e_i e_j, a lincomb of the images,
    differs from images[i] images[j] formed with dense_mul; None if there
    is none."""
    f = src.field
    for i in range(src.dim):
        for j in range(src.dim):
            k = src.table[i][j]
            terms = () if k is None else ((k, f.one),)
            image = lincomb(f, [c for _, c in terms], [images[k] for k, _ in terms], dst.dim)
            if image != dense_mul(f, dst.table, images[i], images[j]):
                return i, j
    return None


def rotation_system(n: int, d: int) -> AmpleSystem:
    """Z/n acting on Z/d (d divides n) by x -> x + k."""
    sg = InverseSemigroup(
        tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
        tuple((-a) % n for a in range(n)),
        ["1"] + [f"g{k}" for k in range(1, n)])
    theta = [PartialBijection({x: (x + k) % d for x in range(d)}) for k in range(n)]
    return AmpleSystem(sg, d, theta, [f"p{x}" for x in range(d)])


def brandt_k_system(k: int) -> AmpleSystem:
    """Brandt B_k = {z} + {E_ij} on k points: E_ij E_jl = E_il, every other
    product z, and E_ij sends point j to point i.  Its crossed product has
    dimension k^2 and trivial isotropy."""
    units = [(i, j) for i in range(k) for j in range(k)]
    index = {u: 1 + t for t, u in enumerate(units)}
    mult = [[0] * (1 + len(units)) for _ in range(1 + len(units))]
    for (i, j) in units:
        for (a, b) in units:
            if j == a:
                mult[index[(i, j)]][index[(a, b)]] = index[(i, b)]
    sg = InverseSemigroup(tuple(map(tuple, mult)),
                          (0,) + tuple(index[(j, i)] for (i, j) in units),
                          ["z"] + [f"e{i}_{j}" for (i, j) in units])
    theta = [PartialBijection({})] + [PartialBijection({j: i}) for (i, j) in units]
    return AmpleSystem(sg, k, theta, [f"q{x}" for x in range(k)])


def unitized_brandt_system() -> AmpleSystem:
    """FIX-BRANDT with a unit acting as the identity on both points: its
    redundancy ideal has dim 2 and its one orbit has two points."""
    system = brandt_system()
    return AmpleSystem(system.semigroup.unitize(), system.space_size,
                       tuple(system.theta) + (PartialBijection.identity([0, 1]),),
                       system.point_names)


def klein_four_system() -> AmpleSystem:
    """Z/2 x Z/2 fixing one point; over F2 its crossed product, the group
    algebra, has an ideal that is not principal."""
    sg = InverseSemigroup(tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
                          (0, 1, 2, 3), ("1", "a", "b", "ab"))
    return AmpleSystem(sg, 1, [PartialBijection({0: 0})] * 4, ["x"])


def z2_times_z3_system() -> AmpleSystem:
    """Z/2 x Z/3, with (a, b) at index 3a + b, fixing one point; its
    crossed product is the group algebra on that table."""
    table = tuple(tuple(3 * ((a // 3 + b // 3) % 2) + (a + b) % 3 for b in range(6))
                  for a in range(6))
    star = tuple(3 * (a // 3) + (-a) % 3 for a in range(6))
    sg = InverseSemigroup(table, star, tuple(f"{a // 3}{a % 3}" for a in range(6)))
    return AmpleSystem(sg, 1, [PartialBijection({0: 0})] * 6, ["x"])


# The fixtures and small generated systems, with and without isotropy.
SMALL_SYSTEMS = {
    **FIXTURES,
    "rot4on2": lambda: rotation_system(4, 2),
    "rot3on3": lambda: rotation_system(3, 3),
    "brandt3": lambda: brandt_k_system(3),
    "klein": klein_four_system,
}


def basis_multiples_reference(algebra, v):
    """e_i v and v e_i for every basis index i, by dense_mul."""
    f, n = algebra.field, algebra.dim
    basis = [tuple(f.one if j == i else f.zero for j in range(n)) for i in range(n)]
    return ([dense_mul(f, algebra.table, e, v) for e in basis]
            + [dense_mul(f, algebra.table, v, e) for e in basis])


def reference_is_ideal(algebra, space) -> bool:
    """Closure of the basis of space under both multiplications by every
    basis element, with dense products."""
    return all(space.contains(w) for v in space.basis
               for w in basis_multiples_reference(algebra, v))


def brute_force_ideals(algebra):
    """Reference oracle: every subspace of K^n, filtered by the ideal
    test, in the order of enumerate_subspaces."""
    return [s for s in enumerate_subspaces(algebra.field, algebra.dim)
            if reference_is_ideal(algebra, s)]


def fixpoint_ideal_generate(algebra, generators) -> Subspace:
    """Reference ideal closure: span the generators and all their products
    with the basis on both sides, and repeat until the dimension stops
    growing."""
    current = Subspace.span(algebra.field, algebra.dim, generators)
    while True:
        vectors = list(current.basis)
        for v in current.basis:
            vectors += basis_multiples_reference(algebra, v)
        nxt = Subspace.span(algebra.field, algebra.dim, vectors)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def corrupt_hom_check(monkeypatch, module, rule):
    """Make the module's homomorphism check see images 0 and 1 swapped
    whenever it is called with the given rule."""
    check = module.check_algebra_hom

    def corrupted(src, dst, images, called_rule):
        if called_rule == rule:
            images = list(images)
            images[0], images[1] = images[1], images[0]
        return check(src, dst, images, called_rule)

    monkeypatch.setattr(module, "check_algebra_hom", corrupted)


def mu_terms(bundle, s, t, i, j) -> tuple:
    """The mu constant of e_i in B_s times e_j in B_t as terms: ((k, one),)
    for e_i e_j = e_k, () for a zero product."""
    k = bundle.mu.get((s, t), {}).get((i, j))
    return () if k is None else ((k, bundle.field.one),)


def dense_fiber_associativity(bundle, total_order: bool):
    """Reference fiber associativity: mu(mu(a, b), c) against mu(a, mu(b, c))
    on every triple of fiber basis vectors a in B_r, b in B_s, c in B_t,
    with dense products.  Triples are visited in (r, s, t, i, j, k) order,
    or in the total algebra's (r, i, s, j, t, k) order when total_order
    is set.  Returns (name r, name s, name t, i, j, k) for the first triple
    that differs, or None."""
    sg, f = bundle.semigroup, bundle.field

    def mul(s, t, u, v):
        out = [f.zero] * bundle.fiber_dim(sg.product(s, t))
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                for k, c in mu_terms(bundle, s, t, i, j):
                    out[k] = f.add(out[k], f.mul(f.mul(a, b), c))
        return tuple(out)

    def unit(s, i):
        return tuple(f.one if m == i else f.zero for m in range(bundle.fiber_dim(s)))

    triples = [
        (r, s, t, i, j, k)
        for r, s, t in itertools.product(range(sg.size), repeat=3)
        for i, j, k in itertools.product(range(bundle.fiber_dim(r)),
                                         range(bundle.fiber_dim(s)),
                                         range(bundle.fiber_dim(t)))
    ]
    if total_order:
        triples.sort(key=lambda x: (x[0], x[3], x[1], x[4], x[2], x[5]))
    for r, s, t, i, j, k in triples:
        a, b, c = unit(r, i), unit(s, j), unit(t, k)
        left = mul(sg.product(r, s), t, mul(r, s, a, b), c)
        right = mul(r, sg.product(s, t), a, mul(s, t, b, c))
        if left != right:
            return (sg.name(r), sg.name(s), sg.name(t), i, j, k)
    return None


def dense_pre_representation(bundle, target, fiber_images, total_order: bool):
    """Reference pre-representation check: the image of mu_{s,t}(a, b)
    against image(a) image(b), formed with dense_mul, for every pair of
    fiber basis vectors a = e_i in B_s and b = e_j in B_t.  Pairs are
    visited in (s, t, i, j) order, or in the total algebra's (s, i, t, j)
    order when total_order is set.  Returns (name s, name t, i, j) for the
    first pair that differs, or None."""
    sg, f = bundle.semigroup, bundle.field
    pairs = [
        (s, t, i, j)
        for s, t in itertools.product(range(sg.size), repeat=2)
        for i, j in itertools.product(range(bundle.fiber_dim(s)), range(bundle.fiber_dim(t)))
    ]
    if total_order:
        pairs.sort(key=lambda x: (x[0], x[2], x[1], x[3]))
    for s, t, i, j in pairs:
        st = sg.product(s, t)
        image = [f.zero] * target.dim
        for k, c in mu_terms(bundle, s, t, i, j):
            for m, a in enumerate(fiber_images[st][k]):
                image[m] = f.add(image[m], f.mul(c, a))
        product = dense_mul(f, target.table, fiber_images[s][i], fiber_images[t][j])
        if tuple(image) != product:
            return (sg.name(s), sg.name(t), i, j)
    return None


def dense_lift_terms(cp, b):
    """CrossedProduct.lift_terms by the round trip through the total
    space: lift b to its canonical representative (its coordinates placed
    at the coset positions), then regroup the nonzero entries into one
    function on X per element."""
    f, sys = cp.field, cp.system
    lift = [f.zero] * cp.sections.total.dim
    for g, c in zip(cp.sections.coset_positions, b, strict=True):
        lift[g] = c
    per_elem = {}
    for g, c in enumerate(lift):
        if f.is_zero(c):
            continue
        s, i = cp.sections.label_pairs[g]
        fn = per_elem.setdefault(s, [f.zero] * sys.space_size)
        y = sys.theta[s].image()[i]
        fn[y] = f.add(fn[y], c)
    return [(s, tuple(fn)) for s, fn in sorted(per_elem.items())
            if any(not f.is_zero(c) for c in fn)]


def dense_isotropy_restriction(cp, x, b) -> tuple:
    """isotropy_restriction by the round trip: read every per-element
    function of the lift at x, keeping the elements whose theta fixes x."""
    f, sys = cp.field, cp.system
    iso = sys.isotropy_group(x)
    out = [f.zero] * iso.size
    for s, fn in dense_lift_terms(cp, b):
        pb = sys.theta[s]
        if pb.defined_at(x) and pb.apply(x) == x and not f.is_zero(fn[x]):
            idx = iso.member_index(sys.germ_of(s, x))
            out[idx] = f.add(out[idx], fn[x])
    return tuple(out)


def dense_restriction_triangle(iso):
    """Reference restriction triangle of a SteinbergIso: at every (x, i),
    in (x, i) order, dense_isotropy_restriction of the basis vector e_i
    against groupoid_restriction of iso.apply(e_i), both dense vectors.
    Returns (point name, label of e_i) at the first pair that differs, or
    None."""
    cp, f = iso.cp, iso.cp.field
    for x in range(cp.system.space_size):
        for i in range(cp.dim):
            b = unit_vector(f, cp.dim, i)
            direct = dense_isotropy_restriction(cp, x, b)
            if direct != groupoid_restriction(iso.model, x, iso.apply(b), f):
                return cp.system.point_name(x), cp.algebra.labels[i]
    return None


def dense_fiber_span(bundle):
    """Reference "fiber-span" rule: for each s in element order, the rank
    of the B_s coordinates of (e_i e_j) e_k over the basis vectors e_i,
    e_k of B_s and e_j of B_s*, formed with dense_mul on the mu
    constants placed at the fiber offsets and ranked with rref.  Returns
    (name s, rank) at the first fiber that the products do not span, or
    None."""
    sg, f = bundle.semigroup, bundle.field
    n = len(bundle.label_pairs)
    table = [[None] * n for _ in range(n)]
    for (s, t), entries in bundle.mu.items():
        for (i, j), k in entries.items():
            table[bundle.offsets[s] + i][bundle.offsets[t] + j] = \
                bundle.offsets[sg.product(s, t)] + k

    def fiber(s):
        return range(bundle.offsets[s], bundle.offsets[s] + bundle.fiber_dim(s))

    for s in range(sg.size):
        vectors = []
        for gi in fiber(s):
            for gj in fiber(sg.inv(s)):
                mid = dense_mul(f, table, unit_vector(f, n, gi), unit_vector(f, n, gj))
                for gk in fiber(s):
                    prod = dense_mul(f, table, mid, unit_vector(f, n, gk))
                    vectors.append(tuple(prod[g] for g in fiber(s)))
        _, rank = rref(f, vectors)
        if rank != bundle.fiber_dim(s):
            return sg.name(s), rank
    return None


def dense_bundle_validate(bundle):
    """Reference FellBundle.validate: every rule in the library's order,
    on the index bundle read as 0/1 inclusion matrices and mu terms
    ((k, one),).  Injectivity is an rref rank, fiber associativity and
    fiber span are dense_fiber_associativity (in the total algebra's
    order) and dense_fiber_span, and transitivity and multiplicativity
    apply the matrices to unit vectors and sum mu terms."""
    sg, f = bundle.semigroup, bundle.field
    n, dim = sg.size, bundle.fiber_dim
    matrices = {(t, s): mat_from_columns(f, [unit_vector(f, dim(t), k) for k in ks], dim(t))
                for (t, s), ks in bundle.order_maps.items()}

    def include(t, s, v):
        return tuple(v) if s == t else mat_vec(f, matrices[(t, s)], v)

    for (t, s), m in matrices.items():
        cols = [tuple(row[c] for row in m) for c in range(dim(s))]
        if rref(f, cols)[1] != dim(s):
            return ValidationReport.failed("inclusion-injective", (sg.name(s), sg.name(t)))
    witness = dense_fiber_associativity(bundle, total_order=True)
    if witness is not None:
        return ValidationReport.failed("fiber-associativity", witness)
    witness = dense_fiber_span(bundle)
    if witness is not None:
        return ValidationReport.failed("fiber-span", witness)
    above = [[] for _ in range(n)]
    for s, t in sg.order_pairs():
        above[s].append(t)
    for r in range(n):
        for s in above[r]:
            for t in above[s]:
                for i in range(dim(r)):
                    e = unit_vector(f, dim(r), i)
                    if include(t, s, include(s, r, e)) != include(t, r, e):
                        return ValidationReport.failed(
                            "inclusion-transitivity", (sg.name(r), sg.name(s), sg.name(t)))
    pairs = [(s, s) for s in range(n)] + list(sg.order_pairs())
    columns = {(t, s): [nonzero_entries(f, include(t, s, unit_vector(f, dim(s), i)))
                        for i in range(dim(s))] for (s, t) in pairs}
    for (r, rp) in pairs:
        for (s, sp) in pairs:
            if r == rp and s == sp:
                continue
            rs, rpsp = sg.product(r, s), sg.product(rp, sp)
            if rs != rpsp and not sg.leq(rs, rpsp):
                return ValidationReport.failed("order-multiplication", (sg.name(r), sg.name(s)))
            up_r, up_s, down = columns[(rp, r)], columns[(sp, s)], columns[(rpsp, rs)]
            for i in range(dim(r)):
                for j in range(dim(s)):
                    upper = sparse_combination(
                        f, [(f.mul(a, b), mu_terms(bundle, rp, sp, x, y))
                            for x, a in up_r[i] for y, b in up_s[j]])
                    lower = sparse_combination(
                        f, [(c, down[m]) for m, c in mu_terms(bundle, r, s, i, j)])
                    if upper != lower:
                        return ValidationReport.failed(
                            "inclusion-multiplicative",
                            (sg.name(r), sg.name(rp), sg.name(s), sg.name(sp)))
    return ValidationReport.passed()


def dense_action_matrix(ctx, i):
    """The matrix of basis section i on the germ module at ctx.point, built
    from the system: for the basis pair (y, s), column l has a one at the
    germ [s t] when the section delta_y at s moves the germ [t] = germ l,
    that is when s t is defined at the point and sends it to y."""
    sys, f, x, n = ctx.system, ctx.field, ctx.point, ctx.module_dim
    y, s = ctx.cp.basis_pair(i)
    m = [[f.zero] * n for _ in range(n)]
    for l, germ in enumerate(ctx.germs):
        st = sys.semigroup.product(s, germ.element)
        pb = sys.theta[st]
        if pb.defined_at(x) and pb.apply(x) == y:
            m[ctx.germ_index[sys.germ_of(st, x)]][l] = f.one
    return tuple(tuple(row) for row in m)


def dense_induced_ideal(ctx, ideal) -> Subspace:
    """Reference induced ideal: the kernel of the rows of
    project(<delta_[k], column l of the matrix of b_i>) over every pair of
    germs k, l and every basis section b_i, from dense action matrices,
    InductionContext.pair and the quotient map.  No transversal is used
    and the result is not checked to be an ideal."""
    f, n, dim = ctx.field, ctx.module_dim, ctx.cp.dim
    qm = QuotientMap.of(ideal)
    mats = [dense_action_matrix(ctx, i) for i in range(dim)]
    rows = []
    for k in range(n):
        for l in range(n):
            images = [qm.project(ctx.pair(k, tuple(m[r][l] for r in range(n))))
                      for m in mats]
            for coord in range(qm.dim):
                rows.append(tuple(img[coord] for img in images))
    return Subspace(f, dim, nullspace(f, rows, dim))


def dense_induce(ctx, module) -> Representation:
    """Reference induced module: InductionContext.induce before it read
    moves and pair_index, recomputing for every basis section delta_y at s
    and transversal germ [r] the product s r, its partial bijection and
    the isotropy germ of r'* s r."""
    f = ctx.field
    sg = ctx.system.semigroup
    d = module.space_dim
    total = len(ctx.transversal) * d
    slot = {ctx.orbit[a]: a for a in range(len(ctx.orbit))}
    images = []
    for i in range(ctx.cp.dim):
        y, s = ctx.cp.basis_pair(i)
        big = [[f.zero] * total for _ in range(total)]
        for a, r_germ in enumerate(ctx.transversal):
            st = sg.product(s, r_germ.element)
            pb = ctx.system.theta[st]
            if not pb.defined_at(ctx.point) or pb.apply(ctx.point) != y:
                continue
            target = slot[y]
            landing = ctx.transversal[target]
            h = sg.product(sg.inv(landing.element), st)
            iso_idx = ctx.iso.member_index(ctx.system.germ_of(h, ctx.point))
            block = module.images[iso_idx]
            for r in range(d):
                for c in range(d):
                    big[target * d + r][a * d + c] = block[r][c]
        images.append(tuple(tuple(row) for row in big))
    return Representation(ctx.cp.algebra, total, images)


class DenseAction:
    """An index-form AlgebraAction read densely: domains[s] is the span of
    the unit vectors at the keys of moves[s], maps[s] lists the images of
    its RREF basis rows, and apply goes through Subspace.coordinates, so a
    vector outside the domain raises ValueError."""

    def __init__(self, action):
        f, n = action.algebra.field, action.algebra.dim
        self.semigroup, self.algebra = action.semigroup, action.algebra
        self.domains = [Subspace.span(f, n, [unit_vector(f, n, p) for p in move])
                        for move in action.moves]
        self.maps = [[unit_vector(f, n, move[p]) for p in domain.pivots]
                     for move, domain in zip(action.moves, self.domains)]

    def apply(self, s, v):
        return lincomb(self.algebra.field, self.domains[s].coordinates(v),
                       self.maps[s], self.algebra.dim)

    def range_space(self, s):
        return Subspace.span(self.algebra.field, self.algebra.dim, self.maps[s])


def dense_semidirect_bundle(action):
    """Reference structure constants of the semidirect bundle: (mu,
    order_maps), with each mu constant of e_i in B_s times e_j in B_t the
    B_st coordinates of alpha_s(alpha_s*(e_i) e_j), formed with dense
    products, DenseAction.apply and Subspace.coordinates, and inserted in
    (s, t, i, j) order."""
    action = DenseAction(action)
    sg, alg = action.semigroup, action.algebra
    f = alg.field
    coeff = [action.domains[sg.product(s, sg.inv(s))] for s in range(sg.size)]
    mu = {}
    for s in range(sg.size):
        for t in range(sg.size):
            st = sg.product(s, t)
            entries = {}
            for i, u in enumerate(coeff[s].basis):
                pulled = action.apply(sg.inv(s), u)
                for j, v in enumerate(coeff[t].basis):
                    w = action.apply(s, dense_mul(f, alg.table, pulled, v))
                    terms = nonzero_entries(f, coeff[st].coordinates(w))
                    if terms:
                        entries[(i, j)] = terms
            if entries:
                mu[(s, t)] = entries
    order_maps = {}
    for (s, t) in sg.order_pairs():
        cols = [coeff[t].coordinates(u) for u in coeff[s].basis]
        order_maps[(t, s)] = mat_from_columns(f, cols, coeff[t].dim)
    return mu, order_maps


def dense_action_validate(action):
    """Reference AlgebraAction.validate: every rule in the library's order,
    each by dense products, DenseAction.apply and subspace arithmetic."""
    action = DenseAction(action)
    sg, alg = action.semigroup, action.algebra
    f, n = alg.field, alg.dim
    domains = action.domains
    for s in range(sg.size):
        if domains[s] != domains[sg.product(sg.inv(s), s)]:
            return ValidationReport.failed("domain-consistency", (sg.name(s),))
    for e in sg.idempotents:
        if not is_ideal(alg, domains[e]):
            return ValidationReport.failed("domain-ideal", (sg.name(e),))
    ranges = [action.range_space(s) for s in range(sg.size)]
    for s in range(sg.size):
        if ranges[s] != domains[sg.product(s, sg.inv(s))] or ranges[s].dim != domains[s].dim:
            return ValidationReport.failed("map-bijection", (sg.name(s),))
    for s in range(sg.size):
        for u in domains[s].basis:
            for v in domains[s].basis:
                lhs = action.apply(s, dense_mul(f, alg.table, u, v))
                rhs = dense_mul(f, alg.table, action.apply(s, u), action.apply(s, v))
                if lhs != rhs:
                    return ValidationReport.failed("map-multiplicative", (sg.name(s),))
    for s in range(sg.size):
        for u in domains[s].basis:
            if action.apply(sg.inv(s), action.apply(s, u)) != u:
                return ValidationReport.failed("map-inverse", (sg.name(s),))
    for s in range(sg.size):
        for t in range(sg.size):
            st = sg.product(s, t)
            overlap = subspace_intersect(domains[s], ranges[t])
            pulled = Subspace.span(f, n, [action.apply(sg.inv(t), v) for v in overlap.basis])
            if pulled != domains[st]:
                return ValidationReport.failed("composition-domain", (sg.name(s), sg.name(t)))
            for v in domains[st].basis:
                if action.apply(st, v) != action.apply(s, action.apply(t, v)):
                    return ValidationReport.failed("composition-values", (sg.name(s), sg.name(t)))
    total = Subspace.span(f, n, [v for e in sg.idempotents for v in domains[e].basis])
    if total.dim != n:
        return ValidationReport.failed("domain-span", (total.dim,))
    return ValidationReport.passed()


def dense_sections(bundle):
    """Reference CrossSectionalAlgebra: N spanned by one dense vector
    e_{s,i} - e_{t,k} per inclusion entry j_{t,s}(e_i) = e_k and reduced
    with rref, checked two-sided with is_ideal, and the quotient table
    formed by projecting every product of coset representatives through
    QuotientMap, each projection required to be a basis vector or zero.
    Returns (N, its QuotientMap, the quotient algebra), the
    quotient being the total algebra when N = 0; raises AssociativityError
    or StructureError("redundancy-not-ideal") as the library does."""
    f, total = bundle.field, bundle.total
    gens = []
    for (s, t) in bundle.semigroup.order_pairs():
        for i, k in enumerate(bundle.order_maps[(t, s)]):
            v = list(zero_vector(f, total.dim))
            v[bundle.offsets[s] + i] = f.one
            v[bundle.offsets[t] + k] = f.neg(f.one)
            gens.append(tuple(v))
    span = Subspace.span(f, total.dim, gens)
    if not is_ideal(total, span):
        raise StructureError("redundancy-not-ideal", None,
                             "the redundancy span fails to be two-sided")
    qmap = QuotientMap.of(span)
    if span.dim == 0:
        return span, qmap, total
    qtable = [[None] * qmap.dim for _ in range(qmap.dim)]
    for a, ga in enumerate(qmap.coset_positions):
        for b, gb in enumerate(qmap.coset_positions):
            terms = nonzero_entries(f, qmap.project(total.basis_product(ga, gb)))
            if terms:
                [(c, coeff)] = terms
                if coeff != f.one:
                    raise ValueError(f"quotient product {terms} is not a basis vector")
                qtable[a][b] = c
    labels = tuple(total.labels[g] for g in qmap.coset_positions)
    return span, qmap, FiniteAlgebra(f, labels, qtable)
