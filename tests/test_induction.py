"""Induction contexts, discretization, and the ideal-intersection
certificates anchored at orbit representatives."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedideals import (
    GF,
    QQ,
    FiniteAlgebra,
    QuotientMap,
    Representation,
    StructureError,
    Subspace,
    crossed_product,
    decompose_ideal,
    discretize,
    enumerate_ideals,
    ideal_generate,
    induction_context,
    induction_equivalence,
    intersect_all,
    left_regular_mod,
)
from crossedideals.exactlin import lincomb, mat_lincomb, mat_mul, nullspace, rref, unit_vector
from crossedideals.fixtures import FIXTURES, brandt_system, flip_system, semilattice_system
from crossedideals import induction
from crossedideals.induction import InductionContext, isotropy_restriction

from util import (
    brandt_k_system,
    dense_action_matrix,
    dense_induce,
    dense_induced_ideal,
    dense_isotropy_restriction,
    dense_lift_terms,
    klein_four_system,
    rotation_system,
    unitized_brandt_system,
)

F2 = GF(2)
F3 = GF(3)

# every fixture, rotations with orbits of two and three points and
# nontrivial isotropy, and the Klein four group on a point
SYSTEMS = {
    **FIXTURES,
    "rot4on2": lambda: rotation_system(4, 2),
    "rot6on2": lambda: rotation_system(6, 2),
    "rot6on3": lambda: rotation_system(6, 3),
    "rot8on2": lambda: rotation_system(8, 2),
    "klein4": klein_four_system,
}


@functools.cache
def system_product(name, field):
    return crossed_product(SYSTEMS[name](), field)


def fixture_products():
    return {name: crossed_product(make(), F2) for name, make in FIXTURES.items()}


# SYSTEMS and the Brandt semigroups B_2 and B_3, whose crossed products
# have trivial isotropy and no redundancy
RESTRICTION_SYSTEMS = {
    **SYSTEMS,
    "brandt2": lambda: brandt_k_system(2),
    "brandt3": lambda: brandt_k_system(3),
}


# ---------------------------------------------------------------------------
# the restriction map

def test_restriction_reads_isotropy_coefficients():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    b = tuple(F2.add(u, v) for u, v in zip(cp.indicator_term(0),
                                           cp.indicator_term(1)))
    assert ctx.restrict(b) == (F2.one, F2.one)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
@pytest.mark.parametrize("name", sorted(RESTRICTION_SYSTEMS))
def test_restriction_by_basis_pair_matches_the_lift_round_trip(name, field):
    """Direct reads of the coset coordinates against the reference that
    lifts to the total space and regroups per element, on every basis
    vector and on seeded random vectors, at every point."""
    cp = crossed_product(RESTRICTION_SYSTEMS[name](), field)
    rng = random.Random(f"{name}/{field}")
    values = [field.of(k) for k in (-2, -1, 0, 0, 1, 2, 3)]
    vectors = [cp.algebra.basis_vector(i) for i in range(cp.dim)]
    vectors += [tuple(rng.choice(values) for _ in range(cp.dim)) for _ in range(8)]
    for b in vectors:
        assert cp.lift_terms(b) == dense_lift_terms(cp, b)
        for x in range(cp.system.space_size):
            assert isotropy_restriction(cp, x, b) == dense_isotropy_restriction(cp, x, b)


def test_restriction_rejects_a_vector_of_the_wrong_length():
    cp = crossed_product(flip_system(), F2)
    for b in ((1, 0, 0, 0, 1), (1,)):
        with pytest.raises(ValueError, match="length") as info:
            isotropy_restriction(cp, 0, b)
        assert not isinstance(info.value, StructureError)


def test_induction_contexts_are_built_once_per_point():
    cp = crossed_product(flip_system(), F2)
    ctx = induction_context(cp, 0)
    assert induction_context(cp, 0) is ctx
    assert cp.induction_contexts == {0: ctx}


def test_sections_moving_every_point_restrict_to_zero():
    cp = crossed_product(flip_system(), F2)
    b = cp.term(1, 1)  # delta_b at the flip
    for x in range(2):
        assert induction_context(cp, x).restrict(b) == (F2.zero,)


def test_sections_off_the_base_point_restrict_to_zero():
    cp = crossed_product(FIXTURES["FIX-BRANDT"](), F2)
    s = cp.system.semigroup.element_index("s")
    b = cp.term(1, s)
    for x in range(2):
        assert induction_context(cp, x).restrict(b) == (F2.zero,)


# ---------------------------------------------------------------------------
# induced ideals

def test_inducing_the_full_group_algebra_gives_everything():
    for cp in fixture_products().values():
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            full = Subspace.full(F2, ctx.iso.size)
            assert ctx.induced_ideal(full) == Subspace.full(F2, cp.dim)


def test_inducing_zero_through_trivial_isotropy_gives_zero():
    cp = crossed_product(flip_system(), F2)
    ctx = induction_context(cp, 0)
    assert ctx.induced_ideal(Subspace.zero(F2, 1)).dim == 0


def test_induction_over_a_one_point_space_is_the_identity():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    for ideal in enumerate_ideals(ctx.group_algebra):
        assert ctx.induced_ideal(ideal).basis == ideal.basis


def test_induced_ideal_rejects_a_foreign_ambient_space():
    cp = crossed_product(flip_system(), F2)
    ctx = induction_context(cp, 0)
    with pytest.raises(ValueError):
        ctx.induced_ideal(Subspace.zero(F2, 5))


def test_ideals_over_another_field_are_refused():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    with pytest.raises(ValueError, match="does not live"):
        decompose_ideal(cp, Subspace.zero(F3, cp.dim))
    with pytest.raises(ValueError, match="does not live"):
        ctx.induced_ideal(Subspace.full(F3, ctx.iso.size))


@pytest.mark.parametrize("k, m_vec", [(0, (1,)), (0, (1, 0, 0)), (99, (1, 0)), (-1, (1, 0))],
                         ids=["short", "long", "germ", "negative-germ"])
def test_pair_refuses_a_bad_germ_or_vector(k, m_vec):
    # FIX-FLIP: two germs at a
    ctx = induction_context(crossed_product(flip_system(), F2), 0)
    assert ctx.module_dim == 2
    with pytest.raises(ValueError, match="germ module of dim 2"):
        ctx.pair(k, m_vec)


def test_induction_is_monotone_and_meets_intersections():
    for cp in fixture_products().values():
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            ideals = enumerate_ideals(ctx.group_algebra)
            induced = [ctx.induced_ideal(i) for i in ideals]
            for a, ia in enumerate(ideals):
                for b, ib in enumerate(ideals):
                    if ib.contains_space(ia):
                        assert induced[b].contains_space(induced[a])
                    meet = intersect_all([ia, ib])
                    assert ctx.induced_ideal(meet) == intersect_all(
                        [induced[a], induced[b]])


# ---------------------------------------------------------------------------
# the module, its bilinear form, and the restriction identities

def test_reconstruction_from_transversal_brackets():
    for cp in fixture_products().values():
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            for m in range(ctx.module_dim):
                m_vec = unit_vector(F2, ctx.module_dim, m)
                total = [F2.zero] * ctx.module_dim
                for r_germ in ctx.transversal:
                    k = ctx.germ_index[r_germ]
                    for t, c in enumerate(ctx.pair(k, m_vec)):
                        if not F2.is_zero(c):
                            pos = ctx.right_translate(k, t)
                            total[pos] = F2.add(total[pos], c)
                assert tuple(total) == m_vec


def test_bilinear_form_is_balanced_over_the_isotropy_algebra():
    for cp in fixture_products().values():
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            ga = ctx.group_algebra
            for m in range(ctx.module_dim):
                for n in range(ctx.module_dim):
                    n_vec = unit_vector(F2, ctx.module_dim, n)
                    for a in range(ga.dim):
                        translated = unit_vector(
                            F2, ctx.module_dim, ctx.right_translate(n, a))
                        lhs = ctx.pair(m, translated)
                        rhs = ga.mul(ctx.pair(m, n_vec), ga.basis_vector(a))
                        assert lhs == rhs


def test_restriction_is_quasi_multiplicative():
    for cp in fixture_products().values():
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            ga = ctx.group_algebra
            for t in cp.system.isotropy_elements(x):
                for y in cp.system.theta[t].image():
                    a = cp.term(y, t)
                    ga_a = ctx.restrict(a)
                    for i in range(cp.dim):
                        b = cp.algebra.basis_vector(i)
                        lhs = ctx.restrict(cp.algebra.mul(a, b))
                        assert lhs == ga.mul(ga_a, ctx.restrict(b))


def test_bracket_bridge_between_restriction_and_module_action():
    for cp in fixture_products().values():
        sg = cp.system.semigroup
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            for k in range(ctx.module_dim):
                k_el = ctx.germs[k].element
                u_k_star = cp.term(x, sg.inv(k_el))
                for l in range(ctx.module_dim):
                    l_el = ctx.germs[l].element
                    u_l = cp.term(cp.system.germ_target(ctx.germs[l]), l_el)
                    for i in range(cp.dim):
                        b = cp.algebra.basis_vector(i)
                        sandwich = cp.algebra.mul(
                            u_k_star, cp.algebra.mul(b, u_l))
                        acted = ctx.act(b)
                        col = tuple(acted[r][l] for r in range(ctx.module_dim))
                        assert ctx.restrict(sandwich) == ctx.pair(k, col)


def test_both_induced_ideal_definitions_agree():
    for field, make in itertools.product([F2, F3], FIXTURES.values()):
        cp = crossed_product(make(), field)
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for ideal in enumerate_ideals(ctx.group_algebra):
                qm = QuotientMap.of(ideal)
                rows = []
                for a in range(cp.dim):
                    ea = cp.algebra.basis_vector(a)
                    for c in range(cp.dim):
                        ec = cp.algebra.basis_vector(c)
                        images = [
                            qm.project(ctx.restrict(cp.algebra.mul(
                                ea, cp.algebra.mul(cp.algebra.basis_vector(b), ec))))
                            for b in range(cp.dim)]
                        for coord in range(qm.dim):
                            rows.append(tuple(images[b][coord]
                                              for b in range(cp.dim)))
                brute = Subspace.span(field, cp.dim, nullspace(field, rows, cp.dim))
                assert brute == ctx.induced_ideal(ideal)


# ---------------------------------------------------------------------------
# the germ module as an index map, against the dense reference

@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_induced_ideal_matches_the_dense_row_system(name, field):
    cp = system_product(name, field)
    for x in range(cp.system.space_size):
        ctx = induction_context(cp, x)
        for ideal in enumerate_ideals(ctx.group_algebra):
            assert ctx.induced_ideal(ideal) == dense_induced_ideal(ctx, ideal)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_induced_ideal_matches_the_dense_row_system_over_q(data):
    cp = system_product(data.draw(st.sampled_from(sorted(SYSTEMS))), QQ)
    ctx = induction_context(cp, data.draw(st.integers(0, cp.system.space_size - 1)))
    coeffs = st.integers(-2, 2).map(QQ.of)
    gens = data.draw(st.lists(st.tuples(*[coeffs] * ctx.iso.size), max_size=2))
    ideal = ideal_generate(ctx.group_algebra, gens)
    assert ctx.induced_ideal(ideal) == dense_induced_ideal(ctx, ideal)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_module_action_matches_the_dense_matrices(field):
    rng = random.Random(7)
    for name in sorted(SYSTEMS):
        cp = system_product(name, field)
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            n = ctx.module_dim
            mats = [dense_action_matrix(ctx, i) for i in range(cp.dim)]
            for i in range(cp.dim):
                assert ctx.act(cp.algebra.basis_vector(i)) == mats[i]
            for _ in range(3):
                b = tuple(field.of(rng.randint(-2, 2)) for _ in range(cp.dim))
                got, want = ctx.act(b), mat_lincomb(field, b, mats, n)
                assert got == want
                assert [type(a) for row in got for a in row] == \
                    [type(a) for row in want for a in row]
            with pytest.raises(ValueError):
                ctx.act(b + (field.one,))


def test_pair_index_agrees_with_the_form():
    for name in sorted(SYSTEMS):
        cp = system_product(name, F3)
        for x in range(cp.system.space_size):
            ctx = induction_context(cp, x)
            n = ctx.module_dim
            for k in range(n):
                for t in range(n):
                    h = ctx.pair_index[k][t]
                    want = (F3.zero,) * ctx.iso.size if h is None \
                        else unit_vector(F3, ctx.iso.size, h)
                    assert ctx.pair(k, unit_vector(F3, n, t)) == want


def test_induced_ideal_rejects_a_subspace_that_is_not_an_ideal():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    with pytest.raises(ValueError, match="not an ideal"):
        ctx.induced_ideal(Subspace.span(F2, 2, [(F2.one, F2.zero)]))


@pytest.mark.parametrize("n, d", [(7, 1), (14, 2)])
@pytest.mark.parametrize("taps", [(0, 1, 3), (0, 2, 3)])
def test_induced_ideal_tells_an_ideal_from_its_antipode(n, d, taps):
    # x^7 - 1 = (x + 1)(x^3 + x + 1)(x^3 + x^2 + 1) over F2, and g -> g^-1
    # swaps the two cubic factors, so reading [t* k] for [k* t] would
    # induce from the other ideal; every smaller test group has ideals
    # fixed by g -> g^-1
    cp = crossed_product(rotation_system(n, d), F2)
    ctx = induction_context(cp, 0)
    assert ctx.iso.size == 7
    ideal = ideal_generate(ctx.group_algebra,
                           [tuple(F2.one if h in taps else F2.zero for h in range(7))])
    assert ideal.dim == 4
    induced = ctx.induced_ideal(ideal)
    assert induced == dense_induced_ideal(ctx, ideal)
    assert ctx.gamma_image(induced) == ideal


def test_decompose_reads_the_row_system_without_the_form(monkeypatch):
    cp = crossed_product(rotation_system(12, 1), F3)
    ideal = ideal_generate(cp.algebra, [lincomb(F3, [F3.one, F3.of(-1)],
                                               [cp.term(0, 0), cp.term(0, 4)], cp.dim)])
    assert 0 < ideal.dim < cp.dim
    with monkeypatch.context() as m:
        m.setattr(InductionContext, "_induce", dense_induced_ideal)
        want = decompose_ideal(cp, ideal)

    def no_pair(self, k, m_vec):
        raise AssertionError("induced_ideal evaluated the form")

    projections = [0]
    per_call = []
    project = QuotientMap.project
    induce = InductionContext._induce

    def counted_project(self, v):
        projections[0] += 1
        return project(self, v)

    def counted_induce(self, ideal):
        before = projections[0]
        out = induce(self, ideal)
        per_call.append(projections[0] - before)
        return out

    cp.induction_contexts.clear()  # build the context under the patches too
    monkeypatch.setattr(InductionContext, "pair", no_pair)
    monkeypatch.setattr(QuotientMap, "project", counted_project)
    monkeypatch.setattr(InductionContext, "_induce", counted_induce)
    got = decompose_ideal(cp, ideal)
    assert got == want
    assert got.exact and got.intersection == ideal
    size = induction_context(cp, 0).iso.size
    assert len(per_call) == 1 and per_call[0] <= size


# ---------------------------------------------------------------------------
# well-definedness on the redundancy ideal, fail-closed

def merged_cosets(sections, g, h):
    """coset_of with the class of label g merged into the class of label
    h: the partition of a subspace that holds N and e_g - e_h."""
    a, b = sections.coset_of[g], sections.coset_of[h]
    assert a != b   # e_g - e_h lies outside N
    return tuple(b if c == a else c for c in sections.coset_of)


def test_restriction_must_vanish_on_the_redundancy_ideal(monkeypatch):
    # FIX-SEMILAT has the classes {x:1, x:e} and {y:1}; merged, delta_x at
    # e restricts to [e@x] at x and delta_y at 1 to [1@y] at y, and the
    # other side of each pair to zero, so each point fails
    cp = crossed_product(semilattice_system(), F3)
    labels = cp.sections.total.labels
    assert cp.sections.redundancy.dim == 1
    monkeypatch.setattr(cp.sections, "coset_of", merged_cosets(
        cp.sections, labels.index("y:1"), labels.index("x:e")))
    for x in (0, 1):
        with pytest.raises(StructureError) as err:
            InductionContext(cp, x)
        assert err.value.rule == "restriction-ill-defined"
        assert err.value.witness == (x,)


@pytest.mark.parametrize("x, moving, unit", [(0, "b:s", "b:1+"), (1, "a:s*", "a:1+")])
def test_module_action_must_vanish_on_the_redundancy_ideal(monkeypatch, x, moving, unit):
    # in FIX-SEMILAT every section that moves a germ at x also restricts
    # to x, so the restriction rule would fire first there.  Here
    # delta_moving - delta_unit restricts to zero at x, and both sections
    # move a germ at x onto the same germ, from different germs.
    cp = crossed_product(unitized_brandt_system(), F3)
    labels = cp.sections.total.labels
    assert cp.sections.redundancy.dim == 2
    monkeypatch.setattr(cp.sections, "coset_of", merged_cosets(
        cp.sections, labels.index(moving), labels.index(unit)))
    with pytest.raises(StructureError) as err:
        InductionContext(cp, x)
    assert err.value.rule == "module-action-ill-defined"
    assert err.value.witness == (x,)


# ---------------------------------------------------------------------------
# points, elements and functions out of range

@pytest.mark.parametrize("call, message", [
    (lambda cp: cp.embed((1,)), "function of length 1"),
    (lambda cp: cp.transport(0, (1,)), "function of length 1"),
    (lambda cp: cp.transport(0, (1, 2, 0)), "function of length 3"),
    (lambda cp: cp.transport(2, (1, 0)), "no element 2"),
    (lambda cp: cp.term(99, 0), "no point 99"),
    (lambda cp: cp.term(-1, 0), "no point -1"),
    (lambda cp: cp.term(0, 99), "no element 99"),
    (lambda cp: cp.indicator_term(99), "no element 99"),
    (lambda cp: isotropy_restriction(cp, 99, (F2.zero,) * cp.dim), "no point 99"),
    (lambda cp: induction_context(cp, 5), "no point 5"),
    (lambda cp: induction_context(cp, -1), "no point -1"),
], ids=["embed-short", "transport-short", "transport-long", "transport-element",
        "term-point", "term-negative-point", "term-element", "indicator-element",
        "restriction-point", "context-point", "context-negative-point"])
def test_bad_points_elements_and_functions_raise_value_error(call, message):
    # FIX-FLIP: two points a, b and the elements 1, g
    cp = crossed_product(flip_system(), F2)
    with pytest.raises(ValueError, match=message):
        call(cp)
    assert cp.induction_contexts == {}


# ---------------------------------------------------------------------------
# lattice facts and admissibility

def test_every_ideal_lies_under_its_induced_restriction():
    for cp in fixture_products().values():
        ideals = enumerate_ideals(cp.algebra)
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for j in ideals:
                hull = ctx.induced_ideal(ctx.gamma_image(j))
                assert hull.contains_space(j)


def test_induced_ideals_are_the_largest_with_small_restriction():
    for cp in fixture_products().values():
        cp_ideals = enumerate_ideals(cp.algebra)
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for i in enumerate_ideals(ctx.group_algebra):
                induced = ctx.induced_ideal(i)
                assert i.contains_space(ctx.gamma_image(induced))
                for l in cp_ideals:
                    if i.contains_space(ctx.gamma_image(l)):
                        assert induced.contains_space(l)


def test_admissible_hull_keeps_the_induced_ideal():
    for cp in fixture_products().values():
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for i in enumerate_ideals(ctx.group_algebra):
                hull = ctx.admissible_hull(i)
                assert i.contains_space(hull)
                assert ctx.induced_ideal(hull) == ctx.induced_ideal(i)
                assert ctx.is_admissible(hull)


def test_trivial_ideals_are_admissible():
    for cp in fixture_products().values():
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            assert ctx.is_admissible(Subspace.zero(F2, ctx.iso.size))
            assert ctx.is_admissible(Subspace.full(F2, ctx.iso.size))


def test_augmentation_ideal_is_admissible_in_the_group_fixture():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    aug = Subspace.span(F2, 2, [(F2.one, F2.one)])
    assert ctx.admissible_hull(aug) == aug
    assert ctx.is_admissible(aug)


def test_admissible_ideals_induce_injectively():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    admissible = [i for i in enumerate_ideals(ctx.group_algebra)
                  if ctx.is_admissible(i)]
    assert len(admissible) == 3
    induced = [ctx.induced_ideal(i) for i in admissible]
    for a in range(len(induced)):
        for b in range(a + 1, len(induced)):
            assert induced[a] != induced[b]


def test_restrictions_of_ideals_are_admissible():
    for cp in fixture_products().values():
        ideals = enumerate_ideals(cp.algebra)
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for j in ideals:
                assert ctx.is_admissible(ctx.gamma_image(j))


# ---------------------------------------------------------------------------
# discretization

def test_point_fixture_discretizes_to_itself():
    cp = crossed_product(FIXTURES["FIX-TRIV"](), F2)
    disc = discretize(cp)
    assert disc.fiber_dim(0) == 1
    assert disc.translation_block(0) == ((F2.one,),)
    assert disc.block_rep.images == disc.rep.images


def test_fiber_map_outside_the_domain_is_rejected():
    disc = discretize(crossed_product(semilattice_system(), F2))
    assert disc.fiber_map(1, 0) == ((F2.one,),)
    with pytest.raises(ValueError, match="e is not defined at y"):
        disc.fiber_map(1, 1)


def test_flip_discretization_swaps_two_plane_fibers():
    cp = crossed_product(flip_system(), F2)
    disc = discretize(cp)
    assert [disc.fiber_dim(x) for x in range(2)] == [2, 2]
    u_g = disc.translation_block(1)
    for r in range(2):
        for c in range(2):
            assert F2.is_zero(u_g[r][c])
            assert F2.is_zero(u_g[2 + r][2 + c])
    ident = tuple(tuple(F2.one if r == c else F2.zero for c in range(4))
                  for r in range(4))
    assert mat_mul(F2, u_g, u_g) == ident
    assert disc.translation_block(0) == ident


def test_group_fixture_mod_augmentation_has_a_line_fiber():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    aug = Subspace.span(F2, 2, [(F2.one, F2.one)])
    disc = discretize(cp, ideal=aug)
    assert disc.total_dim == 1
    assert disc.fiber_dim(0) == 1


def test_full_ideal_discretizes_to_nothing():
    cp = crossed_product(FIXTURES["FIX-SEMILAT"](), F2)
    disc = discretize(cp, ideal=Subspace.full(F2, cp.dim))
    assert disc.total_dim == 0
    assert all(disc.fiber_dim(x) == 0 for x in range(2))


def test_functions_act_as_scalars_on_each_fiber():
    for cp in fixture_products().values():
        disc = discretize(cp)
        for y in range(cp.system.space_size):
            fb = disc.function_block(unit_vector(F2, cp.system.space_size, y))
            for x in range(cp.system.space_size):
                off, d = disc.offsets[x], disc.fiber_dim(x)
                for r in range(d):
                    for c in range(d):
                        want = F2.one if (x == y and r == c) else F2.zero
                        assert fb[off + r][off + c] == want


def test_idempotent_fiber_maps_are_identities():
    for cp in fixture_products().values():
        disc = discretize(cp)
        for e in cp.system.semigroup.idempotents:
            for x in cp.system.theta[e].domain():
                block = disc.fiber_map(e, x)
                d = disc.fiber_dim(x)
                assert block == tuple(
                    tuple(F2.one if r == c else F2.zero for c in range(d))
                    for r in range(d))


def test_fiber_maps_compose_along_the_action():
    for cp in fixture_products().values():
        disc = discretize(cp)
        sg = cp.system.semigroup
        for s in range(sg.size):
            for t in range(sg.size):
                ts = sg.product(t, s)
                for x in cp.system.theta[s].domain():
                    mid = cp.system.theta[s].apply(x)
                    if not cp.system.theta[t].defined_at(mid):
                        continue
                    assert mat_mul(F2, disc.fiber_map(t, mid),
                                   disc.fiber_map(s, x)) == disc.fiber_map(ts, x)


def test_fiber_maps_are_bijections_between_fibers():
    for cp in fixture_products().values():
        disc = discretize(cp)
        for s in range(cp.system.semigroup.size):
            for x in cp.system.theta[s].domain():
                tx = cp.system.theta[s].apply(x)
                assert disc.fiber_dim(tx) == disc.fiber_dim(x)
                _, rank = rref(F2, [tuple(r) for r in disc.fiber_map(s, x)])
                assert rank == disc.fiber_dim(x)


def test_translations_compose_like_the_semigroup():
    for cp in fixture_products().values():
        disc = discretize(cp)
        sg = cp.system.semigroup
        for s in range(sg.size):
            for t in range(sg.size):
                assert mat_mul(F2, disc.translation_block(t),
                               disc.translation_block(s)) == \
                    disc.translation_block(sg.product(t, s))


def test_blocks_factor_into_function_times_translation():
    for cp in fixture_products().values():
        disc = discretize(cp)
        for i in range(cp.dim):
            y, s = cp.basis_pair(i)
            fb = disc.function_block(unit_vector(F2, cp.system.space_size, y))
            assert mat_mul(F2, fb, disc.translation_block(s)) == \
                disc.block_rep.images[i]


# ---------------------------------------------------------------------------
# orbit blocks and the kernel chain

def test_flip_orbit_block_is_the_whole_representation():
    cp = crossed_product(flip_system(), F2)
    disc = discretize(cp)
    block = disc.orbit_block(0)
    assert block.space_dim == 4
    assert block.kernel().dim == 0


def test_semilattice_splits_into_two_orbit_blocks():
    cp = crossed_product(FIXTURES["FIX-SEMILAT"](), F2)
    disc = discretize(cp)
    reps = cp.system.orbit_representatives()
    assert [disc.orbit_block(x).space_dim for x in reps] == [1, 1]


def test_kernel_chain_through_the_discretization():
    for cp in fixture_products().values():
        for ideal in enumerate_ideals(cp.algebra):
            rep = left_regular_mod(cp.algebra, ideal)
            assert rep.kernel() == ideal
            disc = discretize(cp, rep)
            assert disc.block_rep.kernel() == ideal
            blocks = [disc.orbit_block(x).kernel()
                      for x in cp.system.orbit_representatives()]
            assert intersect_all(blocks) == ideal


def test_isotropy_fiber_module_of_the_group_fixture():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    disc = discretize(cp)
    ctx = induction_context(cp, 0)
    module = disc.isotropy_module(ctx)
    assert module.images[1] == ((F2.zero, F2.one), (F2.one, F2.zero))


# ---------------------------------------------------------------------------
# equivalence with the induced module

def test_point_fixture_equivalence_is_the_scalar_identity():
    cp = crossed_product(FIXTURES["FIX-TRIV"](), F2)
    disc = discretize(cp)
    tau = induction_equivalence(disc, induction_context(cp, 0))
    assert tau == ((F2.one,),)


def test_equivalences_exist_for_every_fixture_and_orbit():
    for cp in fixture_products().values():
        disc = discretize(cp)
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            tau = induction_equivalence(disc, ctx)
            assert len(tau) == disc.orbit_block(x).space_dim


def test_equivalence_survives_a_zero_dimensional_quotient():
    cp = crossed_product(flip_system(), F2)
    disc = discretize(cp, ideal=Subspace.full(F2, cp.dim))
    tau = induction_equivalence(disc, induction_context(cp, 0))
    assert tau == ()


# ---------------------------------------------------------------------------
# induced modules and annihilators

def test_zero_module_induces_the_zero_representation():
    cp = crossed_product(flip_system(), F2)
    ctx = induction_context(cp, 0)
    zero_module = Representation(ctx.group_algebra, 0, ((),))
    induced = ctx.induce(zero_module)
    assert induced.space_dim == 0
    assert induced.kernel() == Subspace.full(F2, cp.dim)


def test_trivial_module_induces_a_faithful_flip_representation():
    cp = crossed_product(flip_system(), F2)
    ctx = induction_context(cp, 0)
    trivial = Representation(ctx.group_algebra, 1, (((F2.one,),),))
    induced = ctx.induce(trivial)
    assert induced.space_dim == 2
    assert induced.kernel().dim == 0


def test_sign_collapsed_module_annihilator_is_the_induced_ideal():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    collapsed = Representation(ctx.group_algebra, 1,
                               (((F2.one,),), ((F2.one,),)))
    induced = ctx.induce(collapsed)
    aug = Subspace.span(F2, 2, [(F2.one, F2.one)])
    assert induced.kernel() == aug
    assert induced.kernel() == ctx.induced_ideal(aug)


def test_modules_over_another_field_are_refused():
    # FIX-Z2FIX over F2: K G_x = K[Z/2] at the fixed point; the F3 copy of
    # it has the same labels and table
    ctx = induction_context(crossed_product(FIXTURES["FIX-Z2FIX"](), F2), 0)
    group = ctx.group_algebra
    over_f3 = FiniteAlgebra(F3, group.labels, group.table)
    sign = tuple((((F3.one if i == ctx.iso.identity else F3.neg(F3.one)),),)
                 for i in range(group.dim))
    for module in (left_regular_mod(over_f3, Subspace.zero(F3, group.dim)),
                   Representation(over_f3, 1, sign)):
        with pytest.raises(ValueError, match="not over this isotropy group algebra") as info:
            ctx.induce(module)
        assert not isinstance(info.value, StructureError)


def group_algebra_ideals(algebra):
    """Every ideal over a prime field; over Q, the ideals generated by 0,
    by e_0 + e_i and e_0 - e_i for each i, and by the sum of the basis."""
    if algebra.field != QQ:
        return enumerate_ideals(algebra)
    n, one = algebra.dim, QQ.one
    gens = [(QQ.zero,) * n, (one,) * n]
    for i in range(1, n):
        for c in (one, -one):
            gens.append(tuple(one if m == 0 else c if m == i else QQ.zero for m in range(n)))
    return {ideal_generate(algebra, [v]) for v in gens}


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_induced_modules_match_the_dense_reference(name, field):
    cp = system_product(name, field)
    for x in range(cp.system.space_size):
        ctx = induction_context(cp, x)
        for ideal in group_algebra_ideals(ctx.group_algebra):
            module = left_regular_mod(ctx.group_algebra, ideal)
            assert ctx.induce(module).images == dense_induce(ctx, module).images


def test_induced_module_annihilators_match_induced_ideals():
    for cp in fixture_products().values():
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            for ideal in enumerate_ideals(ctx.group_algebra):
                module = left_regular_mod(ctx.group_algebra, ideal)
                induced = ctx.induce(module)
                assert induced.kernel() == ctx.induced_ideal(ideal)


# ---------------------------------------------------------------------------
# decomposition certificates

def test_zero_ideal_certificate_on_the_flip():
    cp = crossed_product(flip_system(), F2)
    cert = decompose_ideal(cp, Subspace.zero(F2, cp.dim))
    assert cert.exact
    assert len(cert.points) == 1
    assert cert.points[0].gamma_ideal.dim == 0
    assert cert.points[0].admissible
    assert cert.intersection.dim == 0


def test_group_fixture_certificate_round_trips():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    j = Subspace.span(F2, 2, [(F2.one, F2.one)])
    cert = decompose_ideal(cp, j)
    assert cert.exact
    assert cert.points[0].gamma_ideal == j
    assert cert.points[0].induced == j
    assert cert.intersection == j


def test_every_semilattice_ideal_decomposes():
    cp = crossed_product(FIXTURES["FIX-SEMILAT"](), F2)
    for ideal in enumerate_ideals(cp.algebra):
        cert = decompose_ideal(cp, ideal)
        assert cert.exact
        assert cert.intersection == ideal


def test_decompose_induces_once_per_orbit_representative(monkeypatch):
    calls = []
    induce = InductionContext._induce

    def counted(self, ideal):
        calls.append(self.point)
        return induce(self, ideal)

    monkeypatch.setattr(InductionContext, "_induce", counted)
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        for ideal in enumerate_ideals(cp.algebra):
            calls.clear()
            decompose_ideal(cp, ideal)
            assert sorted(calls) == sorted(cp.system.orbit_representatives())


def test_non_ideal_subspaces_are_rejected():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    bad = Subspace.span(F2, 2, [(F2.one, F2.zero)])
    with pytest.raises(StructureError) as err:
        decompose_ideal(cp, bad)
    assert err.value.rule == "not-two-sided"


def test_foreign_ambient_ideals_are_rejected():
    cp = crossed_product(flip_system(), F2)
    with pytest.raises(ValueError):
        decompose_ideal(cp, Subspace.zero(F2, 3))


def test_decompose_verifies_each_isotropy_subspace_once(monkeypatch):
    # gamma_image(ideal) verifies gamma, and decompose induces from it with
    # the kernel behind induced_ideal; the restriction of the induced ideal
    # equals gamma and is not re-verified
    cp = crossed_product(rotation_system(12, 1), F3)
    ideal = ideal_generate(cp.algebra, [lincomb(F3, [F3.one, F3.of(-1)],
                                               [cp.term(0, 0), cp.term(0, 4)], cp.dim)])
    group_algebra = induction_context(cp, 0).group_algebra
    checked = []
    is_ideal = induction.is_ideal

    def counted(algebra, space):
        if algebra is group_algebra:
            checked.append(space)
        return is_ideal(algebra, space)

    monkeypatch.setattr(induction, "is_ideal", counted)
    cert = decompose_ideal(cp, ideal)
    assert cert.exact
    assert checked == [cert.points[0].gamma_ideal]
    # the public induced_ideal still verifies its input
    induction_context(cp, 0).induced_ideal(cert.points[0].gamma_ideal)
    assert checked == [cert.points[0].gamma_ideal] * 2


@pytest.mark.parametrize("name, system", [
    ("semilattice", semilattice_system()), ("brandt", brandt_system()),
    ("rot4on2", rotation_system(4, 2)), ("klein", klein_four_system())])
def test_decompose_checks_one_isotropy_ideal_per_orbit_point(monkeypatch, name, system):
    cp = crossed_product(system, F2)
    reps = cp.system.orbit_representatives()
    algebras = {id(induction_context(cp, x).group_algebra): x for x in reps}
    is_ideal = induction.is_ideal
    for ideal in enumerate_ideals(cp.algebra, dim_limit=8):
        points = []

        def counted(algebra, space):
            if id(algebra) in algebras:
                points.append(algebras[id(algebra)])
            return is_ideal(algebra, space)

        monkeypatch.setattr(induction, "is_ideal", counted)
        decompose_ideal(cp, ideal)
        monkeypatch.undo()
        assert points == list(reps), name


@pytest.mark.parametrize("induced_basis, rule, witness", [
    ([(1, 0)], "restriction-image-not-ideal", (0,)),  # span{1} is not an ideal
    ([(1, 1)], "restriction-not-admissible", ("x",)),  # span{1 + g} is, but is not gamma
    ([(1, 0), (0, 1)], "restriction-not-admissible", ("x",)),
])
def test_inadmissible_restrictions_keep_their_rule_order(monkeypatch, induced_basis,
                                                         rule, witness):
    # the zero ideal of F2[Z/2] restricts to gamma = 0; an induced ideal whose
    # restriction differs is checked to be an ideal before it is reported
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    monkeypatch.setattr(InductionContext, "_induce",
                        lambda self, ideal: Subspace.span(F2, cp.dim, induced_basis))
    with pytest.raises(StructureError) as err:
        decompose_ideal(cp, Subspace.zero(F2, cp.dim))
    assert (err.value.rule, err.value.witness) == (rule, witness)


def test_certificates_serialize_with_named_points():
    cp = crossed_product(FIXTURES["FIX-SEMILAT"](), F2)
    cert = decompose_ideal(cp, Subspace.zero(F2, cp.dim))
    data = cert.to_json(cp)
    assert set(data) == {"ideal", "orbit_representatives", "points",
                         "intersection", "exact"}
    assert data["orbit_representatives"] == ["x", "y"]
    assert data["exact"] is True
    for entry in data["points"]:
        assert set(entry) == {"point", "gamma_ideal", "admissible",
                              "induced_ideal"}
