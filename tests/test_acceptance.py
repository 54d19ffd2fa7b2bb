"""Acceptance suite: the eight headline guarantees of the library, checked
in exact arithmetic by exhaustive sweeps (prime fields) and seeded random
sweeps (the rationals).  One test per guarantee; each prints a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pass/fail verdicts.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from crossedideals import (
    GF,
    QQ,
    NotAFellBundle,
    crossed_product,
    decompose_ideal,
    discretize,
    disintegrate,
    enumerate_ideals,
    function_action,
    ideal_generate,
    induction_context,
    induction_equivalence,
    left_regular_mod,
    semidirect_bundle,
    steinberg_as_crossed_product,
    steinberg_isomorphism,
    unitization_isomorphism,
)
from crossedideals.exactlin import Subspace, mat_mul, rref, unit_vector
from crossedideals.fixtures import FIXTURES, nilpotent_action
from crossedideals.groupoids import FiniteGroupoid

F2 = GF(2)
F3 = GF(3)


def all_fixture_products(field):
    return {name: crossed_product(make(), field)
            for name, make in FIXTURES.items()}


def random_vector(rng, field, n):
    if field is QQ:
        return tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                     for _ in range(n))
    return tuple(rng.randrange(field.p) for _ in range(n))


def test_criterion_1_every_ideal_is_an_intersection_of_induced_ideals():
    checked = 0
    for name, cp in all_fixture_products(F2).items():
        ideals = enumerate_ideals(cp.algebra, dim_limit=6)
        assert len(ideals) >= 2  # at least the zero and full ideals
        for ideal in ideals:
            cert = decompose_ideal(cp, ideal)
            assert cert.exact
            assert cert.intersection == ideal
            checked += 1
    for field in (F3, QQ):
        for name, make in FIXTURES.items():
            cp = crossed_product(make(), field)
            rng = random.Random(f"{name}:{field}")
            for _ in range(50):
                generators = [random_vector(rng, field, cp.dim)
                              for _ in range(rng.randrange(1, 3))]
                ideal = ideal_generate(cp.algebra, generators)
                cert = decompose_ideal(cp, ideal)
                assert cert.exact
                assert cert.intersection == ideal
                checked += 1
    print(f"\ncriterion 1: {checked} ideals across all fixtures over F2, F3, "
          "and Q each equal the intersection of their induced ideals: PASS")


def test_criterion_2_crossed_product_matches_germ_groupoid_algebra():
    for field in (F2, F3, QQ):
        for name, make in FIXTURES.items():
            system = make()
            cp = crossed_product(system, field)
            iso = steinberg_isomorphism(cp)
            germ_count = sum(len(system.germs_at(x))
                             for x in range(system.space_size))
            assert cp.dim == germ_count == iso.algebra.dim
            assert sorted(iso.targets) == list(range(cp.dim))  # bijective
            for i in range(cp.dim):
                for j in range(cp.dim):
                    lhs = iso.apply(cp.algebra.basis_product(i, j))
                    rhs = iso.algebra.mul(
                        iso.apply(cp.algebra.basis_vector(i)),
                        iso.apply(cp.algebra.basis_vector(j)))
                    assert lhs == rhs
    print("\ncriterion 2: crossed product == germ groupoid algebra "
          "(bijective, multiplicative, dimension = germ count) on every "
          "fixture over F2, F3, and Q: PASS")


def test_criterion_3_groupoid_algebras_are_bisection_crossed_products():
    one_unit = FiniteGroupoid(1, (0,), (0,), (0,), ((0,),), ("u",))
    order_two = FiniteGroupoid(2, (0,), (0, 0), (0, 0), ((0, 1), (1, 0)), ("1", "g"))
    pair = FiniteGroupoid(
        4, (0, 1), (0, 1, 0, 1), (0, 1, 1, 0),
        ((0, None, None, 3),
         (None, 1, 2, None),
         (2, None, None, 1),
         (None, 3, 0, None)),
        ("ua", "ub", "p", "q"))
    for groupoid in (one_unit, order_two, pair):
        model = steinberg_as_crossed_product(groupoid, F2)
        assert model.cp.dim == groupoid.size
        # the germ groupoid of the bisection action reproduces the original
        # composition table under the verified dictionary
        mapping = model.groupoid_iso.mapping
        germs = model.model.groupoid
        assert sorted(mapping) == list(range(groupoid.size))
        assert {mapping[u] for u in germs.units} == set(groupoid.units)
        for g in range(germs.size):
            assert groupoid.source[mapping[g]] == mapping[germs.source[g]]
            assert groupoid.target[mapping[g]] == mapping[germs.target[g]]
        for a in range(germs.size):
            for b in range(germs.size):
                ours = germs.product(a, b)
                theirs = groupoid.product(mapping[a], mapping[b])
                if ours is None:
                    assert theirs is None
                else:
                    assert theirs == mapping[ours]
    print("\ncriterion 3: the one-unit, order-two, and pair groupoid "
          "algebras are crossed products of their bisection actions, with "
          "the germ groupoid matching the original table: PASS")


def test_criterion_4_function_actions_give_bundles_nilpotents_do_not():
    for field in (F2, F3, QQ):
        for name, make in FIXTURES.items():
            bundle = semidirect_bundle(function_action(make(), field))
            assert bundle.validate().ok
    with pytest.raises(NotAFellBundle) as err:
        semidirect_bundle(nilpotent_action(F2))
    assert err.value.rule == "non-idempotent-ideal"
    assert err.value.witness == ("e",)
    assert err.value.product_span.dim == 0
    print("\ncriterion 4: every function action yields a validated bundle; "
          "the nilpotent coefficient action is rejected with the "
          "idempotency witness: PASS")


def test_criterion_5_regular_and_block_representations_share_kernels():
    checked = 0
    for name, cp in all_fixture_products(F2).items():
        for ideal in enumerate_ideals(cp.algebra):
            rep = left_regular_mod(cp.algebra, ideal)
            assert rep.kernel() == ideal
            disc = discretize(cp, rep)
            assert disc.block_rep.kernel() == ideal
            checked += 1
    print(f"\ncriterion 5: for all {checked} enumerated F2 ideals, the "
          "regular representation mod the ideal and its point-block form "
          "both have exactly that kernel: PASS")


def test_criterion_6_induced_modules_match_block_restrictions():
    intertwiners = 0
    for name, cp in all_fixture_products(F2).items():
        for ideal in enumerate_ideals(cp.algebra):
            rep = left_regular_mod(cp.algebra, ideal)
            disc = discretize(cp, rep)
            for x in cp.system.orbit_representatives():
                ctx = induction_context(cp, x)
                tau = induction_equivalence(disc, ctx)  # verified on build
                assert isinstance(tau, tuple)
                module = disc.isotropy_module(ctx)
                induced = ctx.induce(module)
                assert induced.kernel() == ctx.induced_ideal(module.kernel())
                intertwiners += 1
    print(f"\ncriterion 6: {intertwiners} verified intertwiners between "
          "orbit blocks and induced modules, with annihilators matching "
          "induced ideals: PASS")


def test_criterion_7_admissible_ideals_classify_induction():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), F2)
    ctx = induction_context(cp, 0)
    group_ideals = enumerate_ideals(ctx.group_algebra)
    cp_ideals = enumerate_ideals(cp.algebra)
    assert len(group_ideals) == len(cp_ideals) == 3
    for ideal in group_ideals:
        hull = ctx.admissible_hull(ideal)
        assert ideal.contains_space(hull)
        assert ctx.induced_ideal(hull) == ctx.induced_ideal(ideal)
        assert ctx.is_admissible(hull)
    admissible = [i for i in group_ideals if ctx.is_admissible(i)]
    for first, second in product(admissible, admissible):
        if ctx.induced_ideal(first) == ctx.induced_ideal(second):
            assert first == second  # the admissible inducer is unique
    for ideal in cp_ideals:
        gamma = ctx.gamma_image(ideal)
        assert ctx.is_admissible(gamma)
        assert ctx.induced_ideal(gamma).contains_space(ideal)
    # the induced ideal is the largest one restricting into the inducer
    for inducer in group_ideals:
        induced = ctx.induced_ideal(inducer)
        for ideal in cp_ideals:
            inside = inducer.contains_space(ctx.gamma_image(ideal))
            assert inside == induced.contains_space(ideal)
    print("\ncriterion 7: on the order-two fixed-point fixture, admissible "
          "hulls, unique admissible inducers, admissible restrictions, and "
          "maximality of induced ideals all verified exhaustively: PASS")


def test_criterion_8_structural_identities_hold_exhaustively():
    for name, make in FIXTURES.items():
        system = make()
        cp = crossed_product(system, F2)
        semigroup = system.semigroup

        # elements are recovered from their transversal brackets
        for x in range(system.space_size):
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

        # the bilinear form is balanced over the isotropy algebra
        for x in range(system.space_size):
            ctx = induction_context(cp, x)
            algebra = ctx.group_algebra
            for m in range(ctx.module_dim):
                for n in range(ctx.module_dim):
                    n_vec = unit_vector(F2, ctx.module_dim, n)
                    for a in range(algebra.dim):
                        translated = unit_vector(
                            F2, ctx.module_dim, ctx.right_translate(n, a))
                        assert ctx.pair(m, translated) == algebra.mul(
                            ctx.pair(m, n_vec), algebra.basis_vector(a))

        # smaller elements act as restrictions of larger ones
        for s, t in semigroup.order_pairs():
            for x in system.theta[s].domain():
                assert system.theta[t].defined_at(x)
                assert system.same_germ(s, t, x)
                assert system.theta[s].apply(x) == system.theta[t].apply(x)

        # covariance: idempotents act as units locally, and conjugation
        # by sigma moves functions along the action
        regular = left_regular_mod(cp.algebra, Subspace.zero(F2, cp.dim))
        pair = disintegrate(cp, regular)
        for e in semigroup.idempotents:
            for x in system.theta[e].domain():
                pf = pair.pi[x]
                assert mat_mul(F2, pair.sigma[e], pf) == pf
                assert mat_mul(F2, pf, pair.sigma[e]) == pf
        for s in range(semigroup.size):
            for x in range(system.space_size):
                f_vec = unit_vector(F2, system.space_size, x)
                moved = cp.transport(s, f_vec)
                lhs = mat_mul(F2, pair.sigma[s], pair.pi[x])
                pi_moved = [[F2.zero] * regular.space_dim
                            for _ in range(regular.space_dim)]
                for y, c in enumerate(moved):
                    if not F2.is_zero(c):
                        for r in range(regular.space_dim):
                            for col in range(regular.space_dim):
                                pi_moved[r][col] = F2.add(
                                    pi_moved[r][col],
                                    F2.mul(c, pair.pi[y][r][col]))
                rhs = mat_mul(F2, tuple(tuple(row) for row in pi_moved),
                              pair.sigma[s])
                assert lhs == rhs

        # every element has a local unit
        elements = [cp.algebra.basis_vector(i) for i in range(cp.dim)]
        elements.append(tuple(F2.one for _ in range(cp.dim)))
        for b in elements:
            phi = cp.local_unit(b)
            assert cp.algebra.mul(phi, phi) == phi
            assert cp.algebra.mul(phi, b) == b
            assert cp.algebra.mul(b, phi) == b

        # adjoining a unit to the semigroup does not change the algebra
        iso = unitization_isomorphism(make(), F2)
        assert iso.plain.dim == iso.unitized.dim == cp.dim
        _, rank = rref(F2, [tuple(row) for row in iso.matrix])
        assert rank == cp.dim
    print("\ncriterion 8: reconstruction, balanced brackets, hereditary "
          "restriction, covariance, local units, and unitization verified "
          "over every fixture basis: PASS")
