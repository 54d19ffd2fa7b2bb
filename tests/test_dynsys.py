"""Ample systems: validation, germs, orbits, isotropy groups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedideals import (
    GF,
    QQ,
    AmpleSystem,
    Germ,
    InverseSemigroup,
    IsotropyGroup,
    PartialBijection,
    StructureError,
)
from crossedideals.fixtures import (
    FIXTURES,
    brandt_system,
    fixed_point_system,
    flip_system,
    semilattice_system,
    trivial_system,
)

from util import (
    GERM_SYSTEMS,
    brandt_k_system,
    chain_system,
    record_table_results,
    reference_germ_table,
    reference_isotropy_at,
    rotation_system,
    z2_semigroup,
)

F2 = GF(2)


# ---------------------------------------------------------------------------
# partial bijections

def test_partial_bijection_must_be_injective():
    with pytest.raises(ValueError):
        PartialBijection({0: 1, 1: 1})


def test_composition_uses_the_largest_domain():
    shift = PartialBijection({0: 1})
    back = shift.inverse()
    assert back.compose(shift) == PartialBijection.identity([0])
    assert shift.compose(shift) == PartialBijection.empty()
    assert shift.compose(PartialBijection.identity([0, 1])) == shift


def test_inverse_round_trip():
    pb = PartialBijection({0: 2, 1: 0})
    assert pb.inverse().inverse() == pb
    assert pb.inverse().apply(2) == 0


# ---------------------------------------------------------------------------
# system validation

def test_all_fixtures_validate():
    for make in FIXTURES.values():
        assert make().validate().ok


def test_truncated_flip_fails_the_homomorphism_law():
    sg = z2_semigroup()
    theta = (PartialBijection.identity([0, 1]), PartialBijection({0: 1}))
    bad = AmpleSystem(sg, 2, theta, ("a", "b"))
    report = bad.validate()
    assert not report.ok
    assert report.rule == "action-homomorphism"
    assert report.witness[:2] == ("g", "g")


def test_non_involutive_flip_map_is_rejected():
    sg = z2_semigroup()
    theta = (PartialBijection.identity([0, 1, 2]), PartialBijection({0: 1, 1: 2, 2: 0}))
    bad = AmpleSystem(sg, 3, theta)
    report = bad.validate()
    assert not report.ok
    assert report.rule == "action-homomorphism"
    assert report.witness[:2] == ("g", "g")


def test_domains_must_cover_the_space():
    sg = trivial_system().semigroup
    bad = AmpleSystem(sg, 2, (PartialBijection.identity([0]),), ("x", "y"))
    report = bad.validate()
    assert not report.ok
    assert report.rule == "domain-cover"
    assert report.witness == ("y",)


def test_isotropy_group_at_an_uncovered_point_names_it():
    # {e} with theta_e = {0: 0} on two points: no idempotent domain holds y
    sg = trivial_system().semigroup
    bad = AmpleSystem(sg, 2, (PartialBijection({0: 0}),), ("x", "y"))
    with pytest.raises(StructureError) as err:
        bad.isotropy_group(1)
    assert (err.value.rule, err.value.witness) == ("domain-cover", ("y",))


# ---------------------------------------------------------------------------
# germs

def test_semilattice_germs_collapse_where_both_act():
    sys = semilattice_system()
    one, e = 0, 1
    x, y = 0, 1
    assert sys.germ_of(one, x) == sys.germ_of(e, x)
    assert sys.germs_at(y) == (Germ(one, y),)


def test_flip_germs_stay_separate():
    sys = flip_system()
    assert sys.germ_of(0, 0) != sys.germ_of(1, 0)
    assert len(sys.germs_at(0)) == 2


def test_germ_of_requires_the_point_in_the_domain():
    sys = brandt_system()
    e = sys.semigroup.element_index("e")  # identity on b only
    with pytest.raises(ValueError):
        sys.germ_of(e, 0)


@pytest.mark.parametrize("call, message", [
    (lambda s: s.isotropy_group(-1), "no point -1"),
    (lambda s: s.isotropy_group(99), "no point 99"),
    (lambda s: IsotropyGroup.at(s, 2), "no point 2"),
    (lambda s: s.germ_of(0, 99), "no point 99"),
    (lambda s: s.germ_of(99, 0), "no element 99"),
    (lambda s: s.germ_of(-1, 0), "no element -1"),
    (lambda s: s.orbit(99), "no point 99"),
    (lambda s: s.germs_at(99), "no point 99"),
    (lambda s: s.orbit_transversal(99), "no point 99"),
    (lambda s: s.elements_defined_at(99), "no point 99"),
    (lambda s: s.elements_defined_at(-1), "no point -1"),
    (lambda s: s.isotropy_elements(99), "no point 99"),
    (lambda s: s.isotropy_elements(-1), "no point -1"),
], ids=["isotropy-negative-point", "isotropy-point", "isotropy-at-point", "germ-point",
        "germ-element", "germ-negative-element", "orbit-point", "germs-at-point",
        "transversal-point", "defined-at-point", "defined-at-negative-point",
        "isotropy-elements-point", "isotropy-elements-negative-point"])
def test_bad_points_and_elements_raise_value_error(call, message):
    # FIX-BRANDT: two points a, b and five elements
    sys = brandt_system()
    assert sys.validate().ok
    with pytest.raises(ValueError, match=message) as info:
        call(sys)
    assert not isinstance(info.value, StructureError)


def test_germ_canonical_representative_is_minimal():
    sys = semilattice_system()
    g = sys.germ_of(1, 0)  # the germ of e at x collapses onto 1
    assert g.element == 0


# ---------------------------------------------------------------------------
# L_x, isotropy, orbits

def test_flip_local_germs_and_trivial_isotropy():
    sys = flip_system()
    a = 0
    assert [sys.germ_name(g) for g in sys.germs_at(a)] == ["[1@a]", "[g@a]"]
    assert sys.isotropy_group(a).size == 1
    assert sys.orbit(a) == (0, 1)


def test_fixed_point_isotropy_is_z2():
    sys = fixed_point_system()
    iso = sys.isotropy_group(0)
    assert iso.size == 2
    assert sys.orbit(0) == (0,)
    g = iso.members[1]
    assert iso.table[1][1] == iso.identity
    assert iso.inverse[1] == 1
    assert sys.germ_name(g) == "[g@x]"


def test_broken_isotropy_table_is_rejected_without_assert():
    sys = fixed_point_system()
    iso = sys.isotropy_group(0)
    broken = IsotropyGroup(sys, 0, iso.members, ((0, 1), (1, 1)), iso.identity, iso.inverse)
    with pytest.raises(StructureError) as err:
        broken._check_group_laws()
    assert (err.value.rule, err.value.witness) == ("isotropy-inverse", ("[g@x]",))


def test_brandt_local_germs():
    sys = brandt_system()
    a, b = 0, 1
    assert [sys.germ_name(g) for g in sys.germs_at(a)] == ["[f@a]", "[s@a]"]
    assert [sys.germ_name(g) for g in sys.germs_at(b)] == ["[e@b]", "[s*@b]"]
    assert sys.isotropy_group(a).size == 1
    assert sys.orbit(a) == (0, 1)


def test_orbit_representatives():
    assert flip_system().orbit_representatives() == (0,)
    assert trivial_system().orbit_representatives() == (0,)
    assert semilattice_system().orbit_representatives() == (0, 1)
    assert brandt_system().orbit_representatives() == (0,)


def test_orbits_partition_the_space():
    for make in FIXTURES.values():
        sys = make()
        seen = []
        for x in range(sys.space_size):
            orb = sys.orbit(x)
            assert x in orb
            for y in orb:
                assert sys.orbit(y) == orb
            seen.extend(orb if x == min(orb) else ())
        assert sorted(seen) == list(range(sys.space_size))


def test_orbit_transversal_aligns_with_the_orbit():
    for make in FIXTURES.values():
        sys = make()
        for x in range(sys.space_size):
            germs = sys.orbit_transversal(x)
            assert [sys.germ_target(g) for g in germs] == list(sys.orbit(x))
            assert all(g.point == x for g in germs)


# ---------------------------------------------------------------------------
# isotropy group algebras

def test_isotropy_algebra_dimensions():
    assert flip_system().isotropy_group(0).algebra(F2).dim == 1
    alg = fixed_point_system().isotropy_group(0).algebra(F2)
    assert alg.dim == 2
    # g * g = identity in the group algebra
    assert alg.basis_product(1, 1) == alg.basis_vector(0)
    assert fixed_point_system().isotropy_group(0).algebra(QQ).dim == 2


# ---------------------------------------------------------------------------
# structural invariants

def test_hereditariness_along_the_natural_order():
    for make in FIXTURES.values():
        sys = make()
        sg = sys.semigroup
        for s, t in sg.order_pairs():
            for x in sys.theta[s].domain():
                assert sys.theta[t].defined_at(x)
                assert sys.same_germ(s, t, x)
                assert sys.theta[s].apply(x) == sys.theta[t].apply(x)


def equivalent_elements(sys, s, x):
    return [t for t in sys.elements_defined_at(x)
            if sys.same_germ(s, t, x)]


def test_germ_composition_is_representative_independent():
    for make in FIXTURES.values():
        sys = make()
        sg = sys.semigroup
        for y in range(sys.space_size):
            for t in sys.elements_defined_at(y):
                x = sys.theta[t].apply(y)
                for s in sys.elements_defined_at(x):
                    expected = sys.germ_of(sg.product(s, t), y)
                    for s2 in equivalent_elements(sys, s, x):
                        for t2 in equivalent_elements(sys, t, y):
                            assert sys.germ_of(sg.product(s2, t2), y) == expected


def test_isotropy_inverse_is_the_starred_germ():
    for make in FIXTURES.values():
        sys = make()
        sg = sys.semigroup
        for x in range(sys.space_size):
            iso = sys.isotropy_group(x)
            for i, g in enumerate(iso.members):
                starred = sys.germ_of(sg.inv(g.element), x)
                assert iso.members[iso.inverse[i]] == starred


def test_identity_germ_is_shared_by_all_idempotents():
    for make in FIXTURES.values():
        sys = make()
        for x in range(sys.space_size):
            live = [e for e in sys.semigroup.idempotents
                    if sys.theta[e].defined_at(x)]
            germs = {sys.germ_of(e, x) for e in live}
            assert len(germs) == 1
            iso = sys.isotropy_group(x)
            assert iso.members[iso.identity] == germs.pop()


def test_member_index_finds_every_isotropy_germ_and_rejects_others():
    for make in FIXTURES.values():
        sys = make()
        for x in range(sys.space_size):
            iso = sys.isotropy_group(x)
            for i, g in enumerate(iso.members):
                assert iso.member_index(g) == i
            outside = [Germ(s, y) for s in range(sys.semigroup.size)
                       for y in range(sys.space_size)
                       if Germ(s, y) not in iso.members]
            for g in outside:
                with pytest.raises(ValueError):
                    iso.member_index(g)


# ---------------------------------------------------------------------------
# germ tables

@pytest.mark.parametrize("name", sorted(GERM_SYSTEMS))
def test_germ_tables_hold_each_germ_position_and_target(name):
    sys = GERM_SYSTEMS[name]()
    assert sys.validate().ok
    for x in range(sys.space_size):
        table, germs = sys.germ_table(x), sys.germs_at(x)
        assert len(table) == sys.semigroup.size
        assert table == reference_germ_table(sys, x)
        for s, entry in enumerate(table):
            if sys.theta[s].defined_at(x):
                assert entry == (germs.index(sys.germ_of(s, x)), sys.theta[s].apply(x))
            else:
                assert entry is None
                with pytest.raises(ValueError, match="is not defined at"):
                    sys.germ_of(s, x)


@pytest.mark.parametrize("name", sorted(GERM_SYSTEMS))
def test_isotropy_groups_match_the_germ_of_reference(name):
    sys = GERM_SYSTEMS[name]()
    assert sys.validate().ok
    for x in range(sys.space_size):
        iso = sys.isotropy_group(x)
        assert (iso.members, iso.table, iso.identity, iso.inverse) == \
            reference_isotropy_at(sys, x)
        fixing = set(sys.isotropy_elements(x))
        assert iso.element_index == tuple(
            iso.member_index(sys.germ_of(s, x)) if s in fixing else None
            for s in range(sys.semigroup.size))


@st.composite
def generated_systems(draw):
    """A valid system with its elements and points renamed at random: one
    of GERM_SYSTEMS, Z/n rotating Z/d, a chain of k idempotents, or the
    Brandt B_k, so that the representatives of the germs move."""
    kind = draw(st.sampled_from(("named", "rotation", "chain", "brandt")))
    if kind == "named":
        system = GERM_SYSTEMS[draw(st.sampled_from(sorted(GERM_SYSTEMS)))]()
    elif kind == "rotation":
        n = draw(st.integers(1, 8))
        system = rotation_system(n, draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0])))
    elif kind == "chain":
        system = chain_system(draw(st.integers(1, 6)))
    else:
        system = brandt_k_system(draw(st.integers(1, 4)))
    sg = system.semigroup
    perm = draw(st.permutations(range(sg.size)))
    moved = draw(st.permutations(range(system.space_size)))
    old = sorted(range(sg.size), key=perm.__getitem__)    # old[perm[s]] = s
    mult = [[perm[sg.mult[old[a]][old[b]]] for b in range(sg.size)] for a in range(sg.size)]
    theta = [PartialBijection({moved[x]: moved[y] for x, y in system.theta[old[a]].pairs})
             for a in range(sg.size)]
    return AmpleSystem(InverseSemigroup(mult, [perm[sg.star[s]] for s in old]),
                       system.space_size, theta)


@settings(max_examples=150, deadline=None)
@given(generated_systems())
def test_germ_tables_after_validation_match_the_definition(system):
    """After a pass each representative is read off the one product
    s e_x; before validation the definition itself is applied.  Both give
    reference_germ_table, and the validated system never applies the
    definition."""
    before = [system.germ_table(x) for x in range(system.space_size)]
    fresh = AmpleSystem(system.semigroup, system.space_size, system.theta)
    with pytest.MonkeyPatch.context() as mp:
        scans = []
        mp.setattr(AmpleSystem, "_germ_representatives",
                   lambda self, live, idem: scans.append(1))
        assert fresh.validate().ok
        after = [fresh.germ_table(x) for x in range(fresh.space_size)]
    assert scans == []
    assert before == after == [reference_germ_table(system, x)
                               for x in range(system.space_size)]


def test_the_isotropy_algebra_reads_the_group_verdict(monkeypatch):
    system = rotation_system(8, 2)
    assert system.validate().ok
    group = system.isotropy_group(0)
    verdicts = record_table_results(monkeypatch, "first_failure")
    algebra = group.algebra(F2)
    assert algebra.table is group.table and algebra.dim == 4
    assert verdicts == []
