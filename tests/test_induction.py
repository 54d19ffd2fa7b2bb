"""Induction contexts, discretization, and the ideal-intersection
certificates anchored at orbit representatives."""

import pytest

from crossedideals import (
    GF,
    Representation,
    StructureError,
    Subspace,
    crossed_product,
    decompose_ideal,
    discretize,
    enumerate_ideals,
    induction_context,
    induction_equivalence,
    intersect_all,
    left_regular_mod,
)
from crossedideals.exactlin import mat_mul, rref, unit_vector, zero_vector
from crossedideals.fixtures import FIXTURES, flip_system, semilattice_system
from crossedideals.induction import InductionContext

F2 = GF(2)


def fixture_products():
    return {name: crossed_product(make(), F2) for name, make in FIXTURES.items()}


# ---------------------------------------------------------------------------
# the restriction map

def test_restriction_reads_isotropy_coefficients():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    b = tuple(F2.add(u, v) for u, v in zip(cp.indicator_term(0),
                                           cp.indicator_term(1)))
    assert ctx.restrict(b) == (F2.one, F2.one)


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
    from crossedideals.exactlin import QuotientMap, nullspace
    for cp in fixture_products().values():
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
                brute = Subspace.span(F2, cp.dim, nullspace(F2, rows, cp.dim))
                assert brute == ctx.induced_ideal(ideal)


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
    induced_ideal = InductionContext.induced_ideal

    def counted(self, ideal):
        calls.append(self.point)
        return induced_ideal(self, ideal)

    monkeypatch.setattr(InductionContext, "induced_ideal", counted)
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
