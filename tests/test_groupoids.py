"""Germ groupoids, convolution algebras, bisections, and the two
isomorphism theorems tying them to crossed products."""

import copy
import functools
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossedideals
from crossedideals import cli, groupoids
from crossedideals import (
    GF,
    QQ,
    AmpleSystem,
    FiniteAlgebra,
    FiniteGroupoid,
    InverseSemigroup,
    PartialBijection,
    StructureError,
    Subspace,
    bisection_semigroup,
    bisections,
    crossed_product,
    enumerate_ideals,
    germ_groupoid,
    groupoid_restriction,
    induction_context,
    intrinsic_action,
    is_ideal,
    isotropy_restriction,
    steinberg_algebra,
    steinberg_as_crossed_product,
    steinberg_isomorphism,
)
from crossedideals.exactlin import mat_from_columns, mat_vec, rref, unit_vector, zero_vector
from crossedideals.fixtures import FIXTURES, flip_system, semilattice_system
from crossedideals.validation import ValidationReport

from util import (
    MATRIX_UNIT_POSITIONS,
    SMALL_SYSTEMS,
    brandt_k_system,
    corrupt_hom_check,
    dense_check_algebra_hom,
    dense_restriction_triangle,
    matrix_units_algebra,
    rotation_system,
    z2_algebra,
)

F2 = GF(2)
F3 = GF(3)

DATA = Path(crossedideals.__file__).parent / "data"


def one_unit_groupoid():
    return FiniteGroupoid(1, (0,), (0,), (0,), {(0, 0): 0}, ("u",))


def pair_groupoid():
    """Two units and one arrow each way between them."""
    return FiniteGroupoid(
        4, (0, 1), (0, 1, 0, 1), (0, 1, 1, 0),
        {(0, 0): 0, (0, 3): 3, (1, 1): 1, (1, 2): 2,
         (2, 0): 2, (2, 3): 1, (3, 1): 3, (3, 2): 0},
        ("ua", "ub", "p", "q"))


def z2_groupoid():
    return FiniteGroupoid(
        2, (0,), (0, 0), (0, 0),
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, ("1", "g"))


# ---------------------------------------------------------------------------
# groupoid validation

def test_reference_groupoids_validate():
    for g in (one_unit_groupoid(), pair_groupoid(), z2_groupoid()):
        assert g.validate().ok


def test_unit_with_wrong_source_is_rejected():
    g = FiniteGroupoid(2, (0,), (1, 0), (0, 0),
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, ("1", "g"))
    report = g.validate()
    assert (report.rule, report.witness) == ("unit-maps", ("1",))


def test_source_outside_the_unit_space_is_rejected():
    g = FiniteGroupoid(2, (0,), (0, 1), (0, 0),
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, ("1", "g"))
    report = g.validate()
    assert (report.rule, report.witness) == ("source-target-range", ("g",))


def test_composing_non_composable_arrows_is_rejected():
    g = pair_groupoid()
    table = dict(g.compose)
    table[(2, 2)] = 0
    report = FiniteGroupoid(4, g.units, g.source, g.target, table, g.names).validate()
    assert (report.rule, report.witness) == ("composability", ("p", "p"))


def test_composite_with_wrong_endpoints_is_rejected():
    g = pair_groupoid()
    table = dict(g.compose)
    table[(2, 3)] = 0  # p after q should end at ub, not ua
    report = FiniteGroupoid(4, g.units, g.source, g.target, table, g.names).validate()
    assert report.rule == "composite-endpoints"
    assert report.witness == ("p", "q")


def test_broken_identity_law_is_rejected():
    g = z2_groupoid()
    table = dict(g.compose)
    table[(1, 0)] = 0
    report = FiniteGroupoid(2, g.units, g.source, g.target, table, g.names).validate()
    assert (report.rule, report.witness) == ("identity-laws", ("g",))


def test_non_associative_table_is_rejected():
    table = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    table[(1, 2)] = 1
    g = FiniteGroupoid(3, (0,), (0,) * 3, (0,) * 3, table, ("0", "1", "2"))
    assert g.validate().rule == "associativity"


def test_repeated_units_are_refused():
    # parse_groupoid refuses the same list with a ParseError
    with pytest.raises(ValueError, match="repeated unit"):
        FiniteGroupoid(1, (0, 0), (0,), (0,), {(0, 0): 0})


def test_element_without_an_inverse_is_rejected():
    g = FiniteGroupoid(2, (0,), (0, 0), (0, 0),
                       {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, ("1", "g"))
    report = g.validate()
    assert (report.rule, report.witness) == ("inverses", ("g",))
    with pytest.raises(StructureError) as err:
        g.inverse_of(1)
    assert (err.value.rule, err.value.witness) == ("inverses", ("g",))


def test_missing_inverse_is_reported_under_python_optimize():
    src = str(Path(crossedideals.__file__).resolve().parent.parent)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from crossedideals import FiniteGroupoid, StructureError\n"
        "g = FiniteGroupoid(2, (0,), (0, 0), (0, 0),\n"
        "                   {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})\n"
        "try:\n"
        "    print('answer', g.inverse_of(1))\n"
        "except StructureError as exc:\n"
        "    print('StructureError', exc.rule)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script, src],
                          capture_output=True, text=True)
    assert proc.stdout == "StructureError inverses\n", proc.stderr


# ---------------------------------------------------------------------------
# germ groupoids of the fixtures

def test_flip_germs_form_the_pair_groupoid():
    model = germ_groupoid(flip_system())
    g = model.groupoid
    assert g.names == ("[1@a]", "[g@a]", "[1@b]", "[g@b]")
    assert g.units == (0, 2)
    assert g.source[1] == 0 and g.target[1] == 2
    assert g.compose[(3, 1)] == 0  # the flip squares to the unit at a
    assert g.inverse_of(1) == 3


def test_semilattice_germs_collapse_to_the_unit_space():
    model = germ_groupoid(semilattice_system())
    g = model.groupoid
    assert g.names == ("[1@x]", "[1@y]")
    assert g.units == (0, 1)
    assert set(g.compose) == {(0, 0), (1, 1)}


def test_brandt_germs_form_the_pair_groupoid():
    model = germ_groupoid(FIXTURES["FIX-BRANDT"]())
    g = model.groupoid
    assert g.size == 4
    assert g.names == ("[f@a]", "[s@a]", "[e@b]", "[s*@b]")
    assert g.units == (0, 2)
    assert g.inverse_of(1) == 3


def test_an_uncovered_point_has_no_unit_germ(monkeypatch):
    # AmpleSystem.validate names the point first; past it, the germ model
    # still reports the point as a StructureError the CLI can print
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    system = AmpleSystem(sg, 2, (PartialBijection.identity([0]),), ("x", "y"))
    assert system.validate().rule == "domain-cover"
    monkeypatch.setattr(AmpleSystem, "validate", lambda self: ValidationReport.passed())
    with pytest.raises(StructureError) as err:
        germ_groupoid(system)
    assert (err.value.rule, err.value.witness) == ("domain-cover", ("y",))


@pytest.mark.parametrize("name", sorted(SMALL_SYSTEMS))
def test_germ_composition_is_tabled_in_pair_order(name):
    # the reference: every pair (i, j) tested for composability
    model = germ_groupoid(SMALL_SYSTEMS[name]())
    sys = model.system
    want = [((i, j), model.index[sys.germ_of(
                sys.semigroup.product(gi.element, gj.element), gj.point)])
            for i, gi in enumerate(model.germs) for j, gj in enumerate(model.germs)
            if gi.point == sys.germ_target(gj)]
    assert list(model.groupoid.compose.items()) == want


def test_unit_point_dictionary_round_trips():
    for make in FIXTURES.values():
        model = germ_groupoid(make())
        for x in range(model.system.space_size):
            assert model.point_of_unit(model.unit_of_point(x)) == x


# ---------------------------------------------------------------------------
# convolution algebras

def test_one_unit_convolution_algebra_is_the_ground_field():
    alg = steinberg_algebra(one_unit_groupoid(), QQ)
    assert alg.dim == 1
    assert alg.mul((QQ.one,), (QQ.one,)) == (QQ.one,)


def test_pair_groupoid_convolution_matches_matrix_units():
    g = pair_groupoid()
    alg = steinberg_algebra(g, F2)
    m2 = matrix_units_algebra(F2)
    to_unit = {u: i for i, u in enumerate(g.units)}
    spot = [MATRIX_UNIT_POSITIONS[(to_unit[g.target[a]], to_unit[g.source[a]])]
            for a in range(4)]
    for a in range(4):
        for b in range(4):
            conv = alg.basis_product(a, b)
            moved = [F2.zero] * 4
            for k, c in enumerate(conv):
                moved[spot[k]] = c
            assert tuple(moved) == m2.mul(m2.basis_vector(spot[a]),
                                          m2.basis_vector(spot[b]))


def test_group_viewed_as_groupoid_gives_the_group_algebra():
    alg = steinberg_algebra(z2_groupoid(), F2)
    assert alg.table == z2_algebra(F2).table


def test_convolution_algebras_check_associativity_without_products(monkeypatch):
    def product(self, u, v):
        raise RuntimeError("FiniteAlgebra.mul called")

    monkeypatch.setattr(FiniteAlgebra, "mul", product)
    assert steinberg_algebra(pair_groupoid(), F2).dim == 4


@pytest.mark.parametrize("field", (F2, GF(3), QQ), ids=str)
def test_monomial_algebras_build_without_field_arithmetic(monkeypatch, field):
    def arithmetic(self, a, b):
        raise RuntimeError("field arithmetic called")

    # a monomial table is checked for associativity as a table of indices
    group = rotation_system(12, 1).isotropy_group(0)
    monkeypatch.setattr(type(field), "add", arithmetic)
    monkeypatch.setattr(type(field), "mul", arithmetic)
    assert group.algebra(field).dim == 12
    assert steinberg_algebra(pair_groupoid(), field).dim == 4


# ---------------------------------------------------------------------------
# the crossed product / convolution algebra isomorphism

def test_point_fixture_isomorphism_is_the_identity_scalar():
    iso = steinberg_isomorphism(crossed_product(FIXTURES["FIX-TRIV"](), F2))
    assert iso.matrix == ((F2.one,),)


def test_flip_section_at_b_maps_to_the_germ_at_a():
    cp = crossed_product(flip_system(), F2)
    iso = steinberg_isomorphism(cp)
    image = iso.apply(cp.term(1, 1))  # delta_b at the flip
    target = iso.model.groupoid.names.index("[g@a]")
    assert image == unit_vector(F2, 4, target)


def test_isomorphism_dimension_matches_the_germ_count():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        iso = steinberg_isomorphism(cp)
        assert iso.model.size == cp.dim
        assert sorted(iso.targets) == list(range(cp.dim))


def test_isomorphism_reports_a_non_multiplicative_image_list(monkeypatch):
    corrupt_hom_check(monkeypatch, groupoids, "not-multiplicative")
    cp = crossed_product(flip_system(), F2)
    with pytest.raises(StructureError) as err:
        steinberg_isomorphism(cp)
    assert err.value.rule == "not-multiplicative"
    assert set(err.value.witness) <= set(cp.algebra.labels)


@pytest.mark.parametrize("system", [rotation_system(6, 6), brandt_k_system(6)],
                         ids=["rot6on6", "brandt6"])
def test_isomorphism_is_verified_without_dense_products(monkeypatch, system):
    cp = crossed_product(system, F2)

    def dense_mul_called(self, u, v):
        raise AssertionError("dense FiniteAlgebra.mul called")

    def combination_called(*args):
        raise AssertionError("lincomb called")

    monkeypatch.setattr(FiniteAlgebra, "mul", dense_mul_called)
    for name, module in list(sys.modules.items()):
        if name.startswith("crossedideals.") and hasattr(module, "lincomb"):
            monkeypatch.setattr(module, "lincomb", combination_called)
    iso = steinberg_isomorphism(cp)
    assert cp.dim == 36 and sorted(iso.targets) == list(range(36))


def test_restrictions_commute_with_the_isomorphism():
    cp = crossed_product(flip_system(), F2)
    iso = steinberg_isomorphism(cp)
    for x in range(2):
        for i in range(cp.dim):
            b = cp.algebra.basis_vector(i)
            assert isotropy_restriction(cp, x, b) == groupoid_restriction(
                iso.model, x, iso.apply(b), F2)


def test_isomorphism_apply_is_the_permutation_matrix_product():
    rng = random.Random(0)
    for field in (F2, GF(3)):
        for make in FIXTURES.values():
            iso = steinberg_isomorphism(crossed_product(make(), field))
            for _ in range(10):
                b = tuple(rng.randrange(field.p) for _ in range(iso.cp.dim))
                assert iso.apply(b) == mat_vec(field, iso.matrix, b)


@functools.lru_cache(maxsize=None)
def bridge(name, field):
    return steinberg_isomorphism(crossed_product(SMALL_SYSTEMS[name](), field))


def rerouted(bridge_map, targets):
    """A copy of a verified bridge sending e_i to e_targets[i] instead."""
    bad = copy.copy(bridge_map)
    bad.targets = tuple(targets)
    bad.images = tuple(unit_vector(bad.algebra.field, bad.algebra.dim, t) for t in targets)
    return bad


def verify_outcome(bridge_map):
    try:
        bridge_map._verify()
    except StructureError as err:
        return err.rule, err.witness
    return None


@pytest.mark.parametrize("field", (F2, F3), ids=str)
@pytest.mark.parametrize("name", sorted(SMALL_SYSTEMS))
def test_verified_bridges_pass_the_dense_references(name, field):
    iso = bridge(name, field)
    assert dense_check_algebra_hom(iso.cp.algebra, iso.algebra, iso.images) is None
    assert dense_restriction_triangle(iso) is None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rerouted_bridges_fail_at_the_dense_reference_witness(data):
    iso = bridge(data.draw(st.sampled_from(sorted(SMALL_SYSTEMS))),
                 data.draw(st.sampled_from((F2, F3))))
    n = iso.cp.dim
    targets = list(iso.targets)
    if data.draw(st.booleans()):
        targets = data.draw(st.permutations(targets))
    for _ in range(data.draw(st.integers(0, 2))):  # not injective, or not moved
        targets[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    bad = rerouted(iso, targets)
    pair = dense_check_algebra_hom(bad.cp.algebra, bad.algebra, bad.images)
    triangle = dense_restriction_triangle(bad)
    if pair is not None:
        labels = bad.cp.algebra.labels
        assert verify_outcome(bad) == ("not-multiplicative", (labels[pair[0]], labels[pair[1]]))
    else:
        assert verify_outcome(bad) == (triangle and ("restriction-triangle", triangle))
    with pytest.MonkeyPatch.context() as mp:  # the triangle alone
        mp.setattr(groupoids, "check_algebra_hom", lambda *args: None)
        assert verify_outcome(bad) == (triangle and ("restriction-triangle", triangle))


def test_groupoid_restriction_rejects_vectors_of_the_wrong_length():
    model = germ_groupoid(FIXTURES["FIX-BRANDT"]())
    assert model.size == 4
    for length in (1, 5):
        with pytest.raises(ValueError, match="length"):
            groupoid_restriction(model, 0, (F2.one,) * length, F2)


def count_walks(monkeypatch):
    """Record each walk of the AmpleSystem axioms and each
    FiniteGroupoid.validate call, in order."""
    walks = []
    check_axioms, validate = AmpleSystem._check_axioms, FiniteGroupoid.validate

    def system_walk(self):
        walks.append("system")
        return check_axioms(self)

    def groupoid_walk(self):
        walks.append("groupoid")
        return validate(self)

    monkeypatch.setattr(AmpleSystem, "_check_axioms", system_walk)
    monkeypatch.setattr(FiniteGroupoid, "validate", groupoid_walk)
    return walks


def test_one_isocheck_walks_each_axiom_list_once(monkeypatch, capsys):
    walks = count_walks(monkeypatch)
    assert cli.main(["isocheck", str(DATA / "matrix_units.system")]) == 0
    assert walks == ["system", "groupoid"]
    walks.clear()
    steinberg_isomorphism(crossed_product(brandt_k_system(3), F2))
    assert walks == ["system", "groupoid"]


def test_one_bisect_walks_each_groupoid_and_system_once(monkeypatch):
    # the given groupoid, the intrinsic action, then its germ groupoid
    walks = count_walks(monkeypatch)
    steinberg_as_crossed_product(pair_groupoid(), F2)
    assert walks == ["groupoid", "system", "groupoid"]


def test_a_failing_system_keeps_its_report(monkeypatch):
    sg = InverseSemigroup(((0, 1), (1, 0)), (0, 1), ("1", "g"))
    system = AmpleSystem(sg, 2, (PartialBijection.identity([0, 1]),
                                 PartialBijection.identity([0])))
    walks = count_walks(monkeypatch)
    first, second = system.validate(), system.validate()
    assert (first.rule, first.witness) == ("action-homomorphism", ("g", "g", "1"))
    assert second is first
    assert walks == ["system"]
    with pytest.raises(StructureError) as err:
        crossed_product(system, F2)
    assert err.value.rule == "action-homomorphism"
    assert walks == ["system"]


# ---------------------------------------------------------------------------
# bisections

def test_one_unit_groupoid_has_two_bisections():
    g = one_unit_groupoid()
    assert bisections(g) == ((), (0,))
    sg, bis = bisection_semigroup(g)
    assert sg.size == 2
    assert sg.product(1, 1) == 1 and sg.product(0, 1) == 0


def test_pair_groupoid_has_seven_bisections():
    bis = bisections(pair_groupoid())
    assert len(bis) == 7
    assert set(bis) == {(), (0,), (1,), (2,), (3,), (0, 1), (2, 3)}


def test_group_bisections_form_the_group_with_zero():
    g = z2_groupoid()
    sg, bis = bisection_semigroup(g)
    assert bis == ((), (0,), (1,))
    assert sg.product(2, 2) == 1
    assert sg.product(1, 2) == 2
    assert sg.inv(2) == 2
    assert all(sg.product(0, i) == 0 for i in range(3))


def test_bisection_idempotents_are_the_unit_subsets():
    for g in (one_unit_groupoid(), pair_groupoid(), z2_groupoid()):
        sg, bis = bisection_semigroup(g)
        unit_subsets = {i for i, b in enumerate(bis)
                        if all(u in g.units for u in b)}
        assert set(sg.idempotents) == unit_subsets


# ---------------------------------------------------------------------------
# intrinsic actions

def test_full_bisection_family_acts_on_the_unit_space():
    g = pair_groupoid()
    action = intrinsic_action(g)
    assert action.system.validate().ok
    sg, bis = bisection_semigroup(g)
    arrow = bis.index((2,))  # the singleton at p: ua -> ub
    theta = action.system.theta[arrow]
    assert theta.domain() == (0,)
    assert theta.apply(0) == 1


def test_family_missing_the_arrows_fails_covering():
    g = pair_groupoid()
    bis = bisections(g)
    chosen = (bis.index(()), bis.index((0, 1)))
    with pytest.raises(StructureError) as err:
        intrinsic_action(g, chosen=chosen)
    assert err.value.rule == "family-not-covering"
    assert err.value.witness == ("p",)


def test_family_without_refined_intersections_is_rejected():
    g = FiniteGroupoid(
        3, (0, 2), (0, 0, 2), (0, 0, 2),
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0, (2, 2): 2},
        ("u", "g", "w"))
    assert g.validate().ok
    bis = bisections(g)
    chosen = (bis.index((0, 2)), bis.index((1, 2)))
    with pytest.raises(StructureError) as err:
        intrinsic_action(g, chosen=chosen)
    assert err.value.rule == "family-not-refined"
    assert err.value.witness == ("{u,w}", "{g,w}", "w")


def test_family_not_closed_under_products_is_rejected():
    g = pair_groupoid()
    bis = bisections(g)
    chosen = tuple(bis.index(b) for b in ((0,), (1,), (2,), (3,), (0, 1)))
    with pytest.raises(StructureError) as err:
        intrinsic_action(g, chosen=chosen)
    assert err.value.rule == "family-not-closed"


# ---------------------------------------------------------------------------
# convolution algebras as crossed products

def test_one_unit_convolution_algebra_as_crossed_product():
    model = steinberg_as_crossed_product(one_unit_groupoid(), F2)
    assert model.cp.dim == 1
    assert model.matrix == ((F2.one,),)


def test_pair_groupoid_model_recovers_the_matrix_algebra():
    model = steinberg_as_crossed_product(pair_groupoid(), F2)
    assert model.cp.dim == 4
    report = model.to_json()
    assert report["bisections"] == 7
    assert sorted(model.groupoid_iso.mapping) == [0, 1, 2, 3]


def test_group_model_over_the_rationals():
    model = steinberg_as_crossed_product(z2_groupoid(), QQ)
    assert model.cp.dim == 2
    assert sorted(model.groupoid_iso.mapping) == [0, 1]


def test_model_reports_a_non_multiplicative_image_list(monkeypatch):
    corrupt_hom_check(monkeypatch, groupoids, "model-not-multiplicative")
    with pytest.raises(StructureError) as err:
        steinberg_as_crossed_product(pair_groupoid(), F2)
    assert err.value.rule == "model-not-multiplicative"
    assert len(err.value.witness) == 2


def test_model_dimension_counts_the_distinct_targets():
    # every map of the four basis vectors of the pair groupoid model, with
    # the rank of its matrix as the reference
    model = steinberg_as_crossed_product(pair_groupoid(), F2)
    for targets in itertools.product(range(4), repeat=4):
        bad = rerouted(model, targets)
        _, rank = rref(F2, mat_from_columns(F2, bad.images, 4))
        outcome = verify_outcome(bad)
        if rank != 4:
            assert outcome == ("model-dimension", (4, 4))
        else:
            assert outcome is None or outcome[0] == "model-not-multiplicative"


def test_model_apply_is_the_permutation_matrix_product():
    rng = random.Random(0)
    for groupoid in (one_unit_groupoid(), pair_groupoid(), z2_groupoid()):
        model = steinberg_as_crossed_product(groupoid, GF(3))
        for _ in range(10):
            b = tuple(rng.randrange(3) for _ in range(groupoid.size))
            assert model.apply(b) == mat_vec(model.field, model.matrix, b)


def test_germ_groupoid_of_a_fixture_round_trips():
    g = germ_groupoid(flip_system()).groupoid
    model = steinberg_as_crossed_product(g, F2)
    assert model.cp.dim == g.size == 4


# ---------------------------------------------------------------------------
# the module action, restriction maps, and ideals on the groupoid side

def test_transported_module_action_is_groupoid_convolution():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        iso = steinberg_isomorphism(cp)
        model = iso.model
        g = model.groupoid
        for x in cp.system.orbit_representatives():
            ctx = induction_context(cp, x)
            arrows = [model.index[germ] for germ in ctx.germs]
            for i in range(cp.dim):
                b = cp.algebra.basis_vector(i)
                f_vec = iso.apply(b)
                acted = ctx.act(b)
                for r, gr in enumerate(arrows):
                    for c, gc in enumerate(arrows):
                        composite = g.compose[(gr, g.inverse_of(gc))]
                        assert acted[r][c] == f_vec[composite]


def test_restriction_multiplies_along_bisections_meeting_the_isotropy():
    for make in FIXTURES.values():
        cp = crossed_product(make(), F2)
        iso = steinberg_isomorphism(cp)
        model, g = iso.model, iso.model.groupoid
        for x in range(cp.system.space_size):
            unit = model.unit_of_point(x)
            ga = cp.system.isotropy_group(x).algebra(F2)
            for subset in bisections(g):
                if not any(g.source[a] == unit and g.target[a] == unit
                           for a in subset):
                    continue
                u_vec = [F2.zero] * g.size
                for a in subset:
                    u_vec[a] = F2.one
                u_vec = tuple(u_vec)
                gamma_u = groupoid_restriction(model, x, u_vec, F2)
                alg = steinberg_algebra(g, F2)
                for i in range(g.size):
                    f_vec = alg.basis_vector(i)
                    gamma_f = groupoid_restriction(model, x, f_vec, F2)
                    left = groupoid_restriction(model, x, alg.mul(u_vec, f_vec), F2)
                    right = groupoid_restriction(model, x, alg.mul(f_vec, u_vec), F2)
                    assert left == ga.mul(gamma_u, gamma_f)
                    assert right == ga.mul(gamma_f, gamma_u)


def test_restriction_sends_ideals_to_ideals():
    for make in FIXTURES.values():
        sys = make()
        model = germ_groupoid(sys)
        alg = steinberg_algebra(model.groupoid, F2)
        for x in sys.orbit_representatives():
            ga = sys.isotropy_group(x).algebra(F2)
            for ideal in enumerate_ideals(alg):
                image = Subspace.span(F2, ga.dim, [
                    groupoid_restriction(model, x, v, F2) for v in ideal.basis])
                assert is_ideal(ga, image)
