"""Inverse semigroup validation, idempotents, the natural order, unitization."""

import pytest

from crossedideals import InverseSemigroup
from crossedideals.exactlin import generating_indices
from crossedideals.fixtures import FIXTURES, brandt_system

from util import brandt_k_system, record_table_results, z2_semigroup


def brandt_semigroup() -> InverseSemigroup:
    return brandt_system().semigroup


def all_fixture_semigroups():
    return [make().semigroup for make in FIXTURES.values()]


# ---------------------------------------------------------------------------
# validation

def test_group_with_identity_involution_is_valid():
    assert z2_semigroup().validate().ok


def test_brandt_semigroup_is_valid():
    sg = brandt_semigroup()
    assert sg.size == 5
    assert sg.validate().ok


def test_the_report_and_generators_are_computed_once(monkeypatch):
    checked = record_table_results(monkeypatch, "first_failure")
    sg = brandt_k_system(3).semigroup
    report = sg.validate()
    assert sg.validate() is report and report.ok
    assert len(checked) == 1 and checked[0] is sg.mult
    assert sg.generators is sg.generators
    assert sg.generators == generating_indices(sg.mult)


def test_swapped_involution_fails_antihomomorphism():
    bad = InverseSemigroup(((0, 1), (1, 0)), (1, 0), ("1", "g"))
    report = bad.validate()
    assert not report.ok
    assert report.rule == "star-antihomomorphism"

    def violates(s, t):
        return bad.inv(bad.product(s, t)) != bad.product(bad.inv(t), bad.inv(s))

    witness = tuple(("1", "g").index(n) for n in report.witness)
    assert violates(*witness)
    assert violates(1, 1)  # (gg)* = g while g* g* = 1


def test_malformed_tables_are_rejected_at_construction():
    with pytest.raises(ValueError):
        InverseSemigroup(((0, 1),), (0, 1))
    with pytest.raises(ValueError):
        InverseSemigroup(((0, 2), (1, 0)), (0, 1))


# ---------------------------------------------------------------------------
# idempotents

def test_group_has_only_the_identity_idempotent():
    assert z2_semigroup().idempotents == (0,)


def test_brandt_idempotents_are_zero_e_f():
    sg = brandt_semigroup()
    assert sg.idempotents == tuple(sg.element_index(n) for n in ("0", "e", "f"))


def test_semilattice_is_all_idempotent():
    sg = FIXTURES["FIX-SEMILAT"]().semigroup
    assert sg.idempotents == (0, 1)


def test_products_with_inverses_are_idempotent():
    for sg in all_fixture_semigroups():
        for s in range(sg.size):
            for e in (sg.product(s, sg.inv(s)), sg.product(sg.inv(s), s)):
                assert sg.product(e, e) == e


def test_idempotents_form_a_commutative_semilattice():
    for sg in all_fixture_semigroups():
        idem = sg.idempotents
        for e in idem:
            for f in idem:
                ef = sg.product(e, f)
                assert ef in idem
                assert ef == sg.product(f, e)


# ---------------------------------------------------------------------------
# the natural partial order

def test_leq_is_reflexive():
    for sg in all_fixture_semigroups():
        for s in range(sg.size):
            assert sg.leq(s, s)


def test_brandt_zero_lies_below_everything():
    sg = brandt_semigroup()
    zero = sg.element_index("0")
    for t in range(sg.size):
        assert sg.leq(zero, t)


def test_brandt_s_is_not_below_e():
    sg = brandt_semigroup()
    assert not sg.leq(sg.element_index("s"), sg.element_index("e"))


def test_leq_is_antisymmetric_and_transitive():
    for sg in all_fixture_semigroups():
        for s in range(sg.size):
            for t in range(sg.size):
                if sg.leq(s, t) and sg.leq(t, s):
                    assert s == t
                for u in range(sg.size):
                    if sg.leq(s, t) and sg.leq(t, u):
                        assert sg.leq(s, u)


def test_leq_and_order_pairs_follow_the_definition():
    semigroups = all_fixture_semigroups() + [brandt_k_system(3).semigroup]
    semigroups += [sg.unitize() for sg in semigroups]
    for sg in semigroups:
        strict = []
        for s in range(sg.size):
            for t in range(sg.size):
                below = any(sg.mult[t][e] == s for e in range(sg.size) if sg.mult[e][e] == e)
                assert sg.leq(s, t) == below
                if below and s != t:
                    strict.append((s, t))
        assert sg.order_pairs() == tuple(strict)


def test_order_is_compatible_with_involution():
    for sg in all_fixture_semigroups():
        for s in range(sg.size):
            for t in range(sg.size):
                if sg.leq(s, t):
                    assert sg.leq(sg.inv(s), sg.inv(t))


def test_order_pairs_lists_strict_comparabilities():
    sg = brandt_semigroup()
    zero = sg.element_index("0")
    pairs = sg.order_pairs()
    assert all(s != t for s, t in pairs)
    assert set(pairs) == {(zero, t) for t in range(sg.size) if t != zero}


# ---------------------------------------------------------------------------
# unitization

def test_unitize_singleton_semilattice():
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    up = sg.unitize()
    assert up.size == 2
    assert up.validate().ok
    assert up.leq(0, 1)
    assert up.idempotents == (0, 1)


def test_unitize_brandt_adds_a_maximum():
    sg = brandt_semigroup()
    up = sg.unitize()
    assert up.size == 6
    assert up.validate().ok
    unit = up.size - 1
    for s in range(up.size):
        assert up.product(s, unit) == s
        assert up.product(unit, s) == s
    # the new unit is a maximal element but sits above only the idempotents
    below = [s for s in range(up.size) if up.leq(s, unit)]
    assert unit in below
    assert set(below) == set(up.idempotents)


def test_unitize_group_adds_a_formal_unit_unconditionally():
    up = z2_semigroup().unitize()
    assert up.size == 3
    assert up.validate().ok
    assert up.inv(2) == 2
    assert up.product(1, 2) == 1


def test_element_index_resolves_names_and_numbers():
    sg = brandt_semigroup()
    assert sg.element_index("s*") == 4
    assert sg.element_index("3") == 3
    with pytest.raises(ValueError):
        sg.element_index("q")
