"""Fell bundles, cross-sectional algebras, crossed products, covariant pairs."""

import random

import pytest

from crossedideals import (
    GF,
    QQ,
    CovariantRep,
    FellBundle,
    NotAFellBundle,
    Representation,
    StructureError,
    Subspace,
    crossed_product,
    disintegrate,
    enumerate_ideals,
    extend_representation,
    function_action,
    integrate,
    left_regular_mod,
    nullspace,
    semidirect_bundle,
    transport,
    unitization_isomorphism,
)
from crossedideals import bundles
from crossedideals.exactlin import mat_mul, unit_vector, zero_vector
from crossedideals.fixtures import (
    FIXTURES,
    brandt_system,
    flip_system,
    nilpotent_action,
    semilattice_system,
    trivial_system,
)

from util import corrupt_hom_check

F2 = GF(2)


def flip_bundle(field=F2):
    return semidirect_bundle(function_action(flip_system(), field))


# ---------------------------------------------------------------------------
# the semidirect product bundle

def test_semidirect_bundle_of_flip_validates():
    bundle = flip_bundle()
    assert bundle.validate().ok
    assert [bundle.fiber_dim(s) for s in range(2)] == [2, 2]


def test_brandt_fiber_dimensions_count_ranges():
    bundle = semidirect_bundle(function_action(brandt_system(), F2))
    assert [bundle.fiber_dim(s) for s in range(5)] == [0, 1, 1, 1, 1]


def test_nilpotent_coefficient_ideal_is_rejected():
    with pytest.raises(NotAFellBundle) as err:
        semidirect_bundle(nilpotent_action(F2))
    assert err.value.rule == "non-idempotent-ideal"
    assert err.value.witness == ("e",)
    assert err.value.product_span.dim == 0


def test_zero_inclusion_map_fails_injectivity():
    action = function_action(semilattice_system(), F2)
    bundle = semidirect_bundle(action)
    (key,) = bundle.order_maps  # only e <= 1
    zero_map = tuple(tuple(F2.zero for _ in row) for row in bundle.order_maps[key])
    corrupted = FellBundle(bundle.semigroup, F2, bundle.fiber_labels,
                           bundle.mu, {key: zero_map})
    report = corrupted.validate()
    assert not report.ok
    assert report.rule == "inclusion-injective"
    assert report.witness == ("e", "1")


# ---------------------------------------------------------------------------
# cross-sectional algebras and crossed product dimensions

def test_semilattice_sections_collapse_one_dimension():
    cp = crossed_product(semilattice_system(), F2)
    assert cp.sections.total.dim == 3
    assert cp.sections.redundancy.dim == 1
    assert cp.dim == 2


def test_group_actions_have_no_redundancy():
    cp = crossed_product(flip_system(), F2)
    assert cp.sections.total.dim == 4
    assert cp.sections.redundancy.dim == 0
    assert cp.dim == 4


def test_dimension_audit_over_all_fixtures():
    for make in FIXTURES.values():
        sys = make()
        cp = crossed_product(sys, F2)
        ranges = sum(len(sys.theta[s].image()) for s in range(sys.semigroup.size))
        assert cp.sections.total.dim == ranges
        assert cp.dim == ranges - cp.sections.redundancy.dim


def test_crossed_product_dimensions_and_ideal_counts():
    expected = {
        "FIX-TRIV": (1, 2),
        "FIX-FLIP": (4, 2),       # isomorphic to M_2, simple
        "FIX-Z2FIX": (2, 3),      # the group algebra of Z/2
        "FIX-BRANDT": (4, 2),
        "FIX-SEMILAT": (2, 4),    # K x K
    }
    for name, (dim, n_ideals) in expected.items():
        cp = crossed_product(FIXTURES[name](), F2)
        assert cp.dim == dim, name
        assert len(enumerate_ideals(cp.algebra)) == n_ideals, name


# ---------------------------------------------------------------------------
# transported functions

def test_transport_by_an_idempotent_restricts():
    sys = semilattice_system()
    assert transport(sys, F2, 1, (1, 1)) == (1, 0)


def test_transport_moves_point_masses():
    sys = flip_system()
    assert transport(sys, F2, 1, (1, 0)) == (0, 1)


def test_transport_kills_functions_off_the_domain():
    sys = brandt_system()
    s = sys.semigroup.element_index("s")  # domain {a}
    assert transport(sys, F2, s, (0, 1)) == (0, 0)


# ---------------------------------------------------------------------------
# embedding functions

def test_embed_zero_is_zero():
    cp = crossed_product(semilattice_system(), F2)
    assert cp.embed((0, 0)) == zero_vector(F2, 2)


def test_embed_is_decomposition_independent():
    cp = crossed_product(semilattice_system(), F2)
    delta_x = cp.embed((1, 0))
    assert delta_x == cp.term(0, 0)  # delta_x at the top element
    assert delta_x == cp.term(0, 1)  # delta_x at e: the same coset


def test_embedded_constant_is_the_unit_of_the_flip_algebra():
    cp = crossed_product(flip_system(), F2)
    one = cp.embed((1, 1))
    for i in range(cp.dim):
        e = cp.algebra.basis_vector(i)
        assert cp.algebra.mul(one, e) == e
        assert cp.algebra.mul(e, one) == e


def test_embed_is_multiplicative_and_injective():
    for make in FIXTURES.values():
        sys = make()
        cp = crossed_product(sys, F2)
        points = range(sys.space_size)
        images = [cp.embed(unit_vector(F2, sys.space_size, y)) for y in points]
        span = Subspace.span(F2, cp.dim, images)
        assert span.dim == sys.space_size
        for y in points:
            for z in points:
                prod = cp.algebra.mul(images[y], images[z])
                assert prod == (images[y] if y == z else zero_vector(F2, cp.dim))


# ---------------------------------------------------------------------------
# local units

def test_local_unit_of_zero_is_zero():
    cp = crossed_product(flip_system(), F2)
    assert cp.local_unit(zero_vector(F2, 4)) == zero_vector(F2, 4)


def test_local_units_exist_for_every_basis_element():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        for i in range(cp.dim):
            b = cp.algebra.basis_vector(i)
            phi = cp.local_unit(b)
            assert cp.algebra.mul(phi, phi) == phi
            assert cp.algebra.mul(phi, b) == b
            assert cp.algebra.mul(b, phi) == b


def test_local_units_of_random_elements_over_f3():
    rng = random.Random(0)
    f3 = GF(3)
    for make in FIXTURES.values():
        cp = crossed_product(make(), f3)
        for _ in range(10):
            b = tuple(rng.randrange(3) for _ in range(cp.dim))
            phi = cp.local_unit(b)
            assert cp.algebra.mul(phi, phi) == phi
            assert cp.algebra.mul(phi, b) == b == cp.algebra.mul(b, phi)


def test_local_unit_of_a_mixed_element():
    cp = crossed_product(brandt_system(), F2)
    b = tuple(F2.add(x, y) for x, y in zip(cp.algebra.basis_vector(0),
                                           cp.algebra.basis_vector(2)))
    phi = cp.local_unit(b)
    assert cp.algebra.mul(phi, b) == b
    assert cp.algebra.mul(b, phi) == b


# ---------------------------------------------------------------------------
# covariant representations

def test_disintegrate_integrate_round_trip():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        regular = left_regular_mod(cp.algebra, Subspace.zero(F2, cp.dim))
        pair = disintegrate(cp, regular)
        assert pair.validate().ok
        back = integrate(cp, pair)
        assert back.images == regular.images


def test_sigma_acts_trivially_on_the_augmentation_quotient():
    sys = FIXTURES["FIX-Z2FIX"]()
    cp = crossed_product(sys, F2)
    aug = Subspace.span(F2, 2, [(1, 1)])
    rep = left_regular_mod(cp.algebra, aug)
    pair = disintegrate(cp, rep)
    assert pair.sigma[1] == pair.sigma[0] == ((1,),)


def test_disintegrate_rejects_degenerate_representations():
    cp = crossed_product(flip_system(), F2)
    zero_mat = ((0,),)
    rep = Representation(cp.algebra, 1, (zero_mat,) * cp.dim)
    with pytest.raises(StructureError) as err:
        disintegrate(cp, rep)
    assert err.value.rule == "degenerate-representation"


def test_non_covariant_pair_is_reported():
    cp = crossed_product(flip_system(), F2)
    regular = left_regular_mod(cp.algebra, Subspace.zero(F2, cp.dim))
    pair = disintegrate(cp, regular)
    ident = tuple(tuple(F2.one if r == c else F2.zero for c in range(4))
                  for r in range(4))
    broken = CovariantRep(cp.system, F2, 4, pair.pi, (pair.sigma[0], ident))
    report = broken.validate()
    assert not report.ok
    assert report.rule == "covariance"


def test_covariance_lemmas_hold_for_every_pair_point_element():
    for make in FIXTURES.values():
        sys = make()
        cp = crossed_product(sys, F2)
        regular = left_regular_mod(cp.algebra, Subspace.zero(F2, cp.dim))
        pair = disintegrate(cp, regular)
        for e in sys.semigroup.idempotents:
            for x in sys.theta[e].domain():
                pf = pair.pi[x]
                assert mat_mul(F2, pair.sigma[e], pf) == pf
                assert mat_mul(F2, pf, pair.sigma[e]) == pf
        for s in range(sys.semigroup.size):
            for x in range(sys.space_size):
                f_vec = unit_vector(F2, sys.space_size, x)
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
                rhs = mat_mul(F2, tuple(tuple(r) for r in pi_moved), pair.sigma[s])
                assert lhs == rhs


# ---------------------------------------------------------------------------
# extending fiberwise pre-representations

def universal_images(cp):
    sections = cp.sections
    out = []
    for s in range(cp.system.semigroup.size):
        per = []
        for i in range(sections.bundle.fiber_dim(s)):
            g = sections.global_index(s, i)
            per.append(sections.project(
                unit_vector(cp.field, sections.total.dim, g)))
        out.append(tuple(per))
    return tuple(out)


def test_extending_the_universal_images_gives_the_identity():
    cp = crossed_product(semilattice_system(), F2)
    matrix = extend_representation(cp.sections, cp.algebra, universal_images(cp))
    ident = tuple(tuple(F2.one if r == c else F2.zero for c in range(cp.dim))
                  for r in range(cp.dim))
    assert matrix == ident


def test_extending_zero_images_gives_the_zero_map():
    cp = crossed_product(semilattice_system(), F2)
    zero = zero_vector(F2, cp.dim)
    images = tuple(
        tuple(zero for _ in range(cp.sections.bundle.fiber_dim(s)))
        for s in range(cp.system.semigroup.size))
    matrix = extend_representation(cp.sections, cp.algebra, images)
    assert all(all(F2.is_zero(a) for a in row) for row in matrix)


def test_images_ignoring_an_inclusion_are_rejected():
    cp = crossed_product(semilattice_system(), F2)
    images = list(universal_images(cp))
    images[1] = (zero_vector(F2, cp.dim),)  # zero out B_e but not B_1
    with pytest.raises(StructureError) as err:
        extend_representation(cp.sections, cp.algebra, tuple(images))
    assert err.value.rule == "inclusion-compatibility"


def test_section_terms_form_a_conforming_family():
    cp = crossed_product(flip_system(), F2)
    images = tuple(
        tuple(cp.term(y, s) for y in cp.system.theta[s].image())
        for s in range(2))
    matrix = extend_representation(cp.sections, cp.algebra, images)
    ident = tuple(tuple(F2.one if r == c else F2.zero for c in range(cp.dim))
                  for r in range(cp.dim))
    assert matrix == ident


def test_extension_reports_a_non_multiplicative_image_list(monkeypatch):
    corrupt_hom_check(monkeypatch, bundles, "extension-multiplicative")
    cp = crossed_product(flip_system(), F2)
    images = tuple(
        tuple(cp.term(y, s) for y in cp.system.theta[s].image())
        for s in range(2))
    with pytest.raises(StructureError) as err:
        extend_representation(cp.sections, cp.algebra, images)
    assert err.value.rule == "extension-multiplicative"
    left, right = err.value.witness
    assert left in cp.sections.quotient.labels and right in cp.sections.quotient.labels


# ---------------------------------------------------------------------------
# the redundancy ideal is the kernel of every integrated pair

def test_redundancy_equals_kernel_of_the_regular_integrated_form():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        regular = left_regular_mod(cp.algebra, Subspace.zero(F2, cp.dim))
        pair = disintegrate(cp, regular)
        integrated = integrate(cp, pair)
        sections = cp.sections
        rows = []
        images = []
        for g in range(sections.total.dim):
            coset = sections.project(unit_vector(F2, sections.total.dim, g))
            images.append(integrated.apply(coset))
        d = integrated.space_dim
        for r in range(d):
            for c in range(d):
                rows.append(tuple(images[g][r][c]
                                  for g in range(sections.total.dim)))
        kernel = Subspace.span(F2, sections.total.dim,
                               nullspace(F2, rows, sections.total.dim))
        assert kernel == sections.redundancy


# ---------------------------------------------------------------------------
# unitization

def test_unitization_preserves_dimensions():
    for name in ("FIX-TRIV", "FIX-BRANDT", "FIX-FLIP"):
        iso = unitization_isomorphism(FIXTURES[name](), F2)
        assert iso.plain.dim == iso.unitized.dim


def test_unitization_works_over_the_rationals():
    iso = unitization_isomorphism(semilattice_system(), QQ)
    assert iso.plain.dim == iso.unitized.dim == 2


def test_unitization_reports_a_non_multiplicative_image_list(monkeypatch):
    corrupt_hom_check(monkeypatch, bundles, "unitization-multiplicative")
    with pytest.raises(StructureError) as err:
        unitization_isomorphism(flip_system(), F2)
    assert err.value.rule == "unitization-multiplicative"
    plain = crossed_product(flip_system(), F2)
    assert set(err.value.witness) <= set(plain.algebra.labels)
