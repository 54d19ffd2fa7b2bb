"""Fell bundles, cross-sectional algebras, crossed products, covariant pairs."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedideals import (
    GF,
    QQ,
    AlgebraAction,
    AmpleSystem,
    CovariantRep,
    CrossSectionalAlgebra,
    FellBundle,
    FiniteAlgebra,
    InductionContext,
    InverseSemigroup,
    NotAFellBundle,
    PartialBijection,
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
from crossedideals import bundles, induction
from crossedideals.exactlin import lincomb, mat_mul, unit_vector, zero_vector
from crossedideals.fixtures import (
    FIXTURES,
    brandt_system,
    flip_system,
    nilpotent_action,
    semilattice_system,
    trivial_system,
)
from crossedideals.validation import ValidationReport

from util import (
    SMALL_SYSTEMS,
    brandt_k_system,
    corrupt_hom_check,
    dense_action_validate,
    dense_bundle_validate,
    dense_fiber_associativity,
    dense_fiber_span,
    dense_pre_representation,
    dense_sections,
    dense_semidirect_bundle,
    klein_four_system,
    matrix_units_algebra,
    rotation_system,
    unitized_brandt_system,
)

F2 = GF(2)
F3 = GF(3)


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


def test_collapsed_inclusion_map_fails_injectivity():
    # j_{1,e} of the wide semilattice sends both basis vectors of B_e to x|1
    bundle = semidirect_bundle(function_action(wide_semilattice_system(), F2))
    assert bundle.order_maps == {(0, 1): (0, 1)}
    corrupted = corrupted_bundle(bundle, order_maps={(0, 1): (0, 0)})
    report = corrupted.validate()
    assert (report.ok, report.rule, report.witness) == (False, "inclusion-injective", ("e", "1"))
    assert dense_bundle_validate(corrupted) == report


@pytest.mark.parametrize("mu, order_maps, message", [
    ({(0, 0): {(3, 0): 0}}, {(0, 1): (0, 1)}, "mu index out of range"),
    ({(0, 0): {(0, 0): 3}}, {(0, 1): (0, 1)}, "mu target out of range"),
    ({}, {(0, 1): (0,)}, "shape mismatch"),
    ({}, {(0, 1): (0, 3)}, "inclusion target out of range"),
    ({}, {(0, 1): (0, 1), (1, 0): (0, 1, 2)}, "non-order pair"),
    ({}, {}, "missing inclusion"),
], ids=["mu-index", "mu-target", "shape", "inclusion-target", "non-order-pair", "missing"])
def test_bundle_constructor_rejects_malformed_index_constants(mu, order_maps, message):
    bundle = semidirect_bundle(function_action(wide_semilattice_system(), F2))
    with pytest.raises(ValueError, match=message):
        FellBundle(bundle.semigroup, F2, bundle.fiber_labels, mu, order_maps)


# ---------------------------------------------------------------------------
# every bundle and action rule fails closed on a corrupted input

def corrupted_bundle(bundle, mu_changes=(), order_maps=None, fiber_labels=None):
    """A copy of the bundle with mu[(s, t)][(i, j)] set to the given
    position (None removes the constant), and optionally new inclusions
    or labels."""
    mu = {key: dict(entries) for key, entries in bundle.mu.items()}
    for (s, t, i, j), k in mu_changes:
        if k is None:
            mu.get((s, t), {}).pop((i, j), None)
        else:
            mu.setdefault((s, t), {})[(i, j)] = k
    return FellBundle(bundle.semigroup, bundle.field,
                      fiber_labels or bundle.fiber_labels, mu,
                      {**bundle.order_maps, **(order_maps or {})})


# Two fibers of dimension 2: the bundle's (r, s, t, i, j, k) order and the
# total algebra's (r, i, s, j, t, k) order find different first triples.
# The witness is the total algebra's, mapped back to (r, s, t, i, j, k).
FLIP_ASSOCIATIVITY_CORRUPTIONS = [
    # b|g a|1 = 0
    pytest.param((1, 0, 1, 0), None, ("g", "g", "1", 0, 1, 0), ("g", "1", "g", 1, 0, 0),
                 id="deleted"),
    # a|1 b|1 = b|1 added
    pytest.param((0, 0, 0, 1), 1, ("1", "1", "g", 0, 1, 1), ("1", "1", "1", 1, 0, 1),
                 id="added"),
]


@pytest.mark.parametrize("change, k, witness, bundle_order_witness",
                         FLIP_ASSOCIATIVITY_CORRUPTIONS)
def test_fiber_associativity_witness_follows_the_total_algebra(
        change, k, witness, bundle_order_witness):
    bundle = corrupted_bundle(flip_bundle(F3), [(change, k)])
    report = bundle.validate()
    assert (report.ok, report.rule, report.witness) == (False, "fiber-associativity", witness)
    assert dense_fiber_associativity(bundle, total_order=True) == witness
    assert dense_fiber_associativity(bundle, total_order=False) == bundle_order_witness
    assert dense_bundle_validate(bundle) == report


def test_fiber_associativity_witness_is_mapped_back_by_index():
    change, k, witness, _ = FLIP_ASSOCIATIVITY_CORRUPTIONS[0].values
    bundle = corrupted_bundle(flip_bundle(F3), [(change, k)],
                              fiber_labels=[("x", "x"), ("x", "x")])
    report = bundle.validate()
    assert (report.rule, report.witness) == ("fiber-associativity", witness)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_bundles_fail_at_the_reference_triple(data):
    field = data.draw(st.sampled_from((F2, F3)))
    system = data.draw(st.sampled_from(sorted(FIXTURES)))
    bundle = semidirect_bundle(function_action(FIXTURES[system](), field))
    sg = bundle.semigroup
    changes = []
    for _ in range(data.draw(st.integers(1, 2))):
        s, t = data.draw(st.integers(0, sg.size - 1)), data.draw(st.integers(0, sg.size - 1))
        dims = bundle.fiber_dim(s), bundle.fiber_dim(t), bundle.fiber_dim(sg.product(s, t))
        if 0 in dims:
            continue
        i, j = data.draw(st.integers(0, dims[0] - 1)), data.draw(st.integers(0, dims[1] - 1))
        changes.append(((s, t, i, j), data.draw(st.none() | st.integers(0, dims[2] - 1))))
    corrupted = corrupted_bundle(bundle, changes)
    report = corrupted.validate()
    expected = dense_fiber_associativity(corrupted, total_order=True)
    if expected is None:
        assert report.rule != "fiber-associativity"
    else:
        assert (report.rule, report.witness) == ("fiber-associativity", expected)


def test_fiber_span_failure_names_the_deficient_fiber():
    # y|1 y|1 = 0 leaves B_1 B_1 B_1 = span{x|1}, rank 1 of 2
    bundle = corrupted_bundle(semidirect_bundle(function_action(semilattice_system(), F2)),
                              [((0, 0, 1, 1), None)])
    report = bundle.validate()
    assert (report.ok, report.rule, report.witness) == (False, "fiber-span", ("1", 1))
    assert dense_bundle_validate(bundle) == report


def test_products_outside_the_fiber_do_not_span_it():
    # a table that breaks s s* s = s: B_s B_s* B_s lands in B_z, so it
    # spans none of B_s (FellBundle does not validate its semigroup)
    sg = InverseSemigroup(((0, 0), (0, 0)), (0, 1), ("z", "s"))
    mu = {(s, t): {(0, 0): 0} for s in range(2) for t in range(2)}
    bundle = FellBundle(sg, F2, (("a",), ("b",)), mu, {(1, 0): (0,)})
    report = bundle.validate()
    assert (report.rule, report.witness) == ("fiber-span", ("s", 0)) == (
        "fiber-span", dense_fiber_span(bundle))
    assert dense_bundle_validate(bundle) == report


@functools.lru_cache(maxsize=None)
def span_bundle(name, field):
    return semidirect_bundle(function_action(SMALL_SYSTEMS[name](), field))


def fiber_span_outcome(bundle):
    """The bundle's verdict and the dense reference's, when validate gets
    as far as "fiber-span"; None when it stops before."""
    report = bundle.validate()
    if report.rule in ("inclusion-injective", "fiber-associativity"):
        return None
    got = (report.rule, report.witness) if report.rule == "fiber-span" else None
    want = dense_fiber_span(bundle)
    return got, want and ("fiber-span", want)


@pytest.mark.parametrize("field", (F2, F3), ids=str)
def test_every_single_deletion_spans_like_the_dense_reference(field):
    failures = 0
    for name in SMALL_SYSTEMS:
        bundle = span_bundle(name, field)
        assert fiber_span_outcome(bundle) == (None, None)
        for (s, t), entries in bundle.mu.items():
            for i, j in entries:
                corrupted = corrupted_bundle(bundle, [((s, t, i, j), None)])
                outcome = fiber_span_outcome(corrupted)
                if outcome is not None:
                    got, want = outcome
                    assert got == want
                    failures += got is not None
    assert failures


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_corrupted_bundles_span_like_the_dense_reference(data):
    field = data.draw(st.sampled_from((F2, F3)))
    bundle = span_bundle(data.draw(st.sampled_from(sorted(SMALL_SYSTEMS))), field)
    keys = sorted((s, t, i, j) for (s, t), entries in bundle.mu.items() for i, j in entries)
    changes = []
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        s, t, _, _ = key
        target = st.integers(0, bundle.fiber_dim(bundle.semigroup.product(s, t)) - 1)
        changes.append((key, data.draw(st.none() | target)))   # deleted or redirected
    outcome = fiber_span_outcome(corrupted_bundle(bundle, changes))
    if outcome is not None:
        got, want = outcome
        assert got == want


def test_inclusion_multiplicative_failure_names_both_order_pairs():
    # j_{1,e}(x|e) = y|1 for e <= 1: injective, but x|1 j(x|e) = x|1 y|1 = 0
    # while j(x|1 x|e) = j(x|e) = y|1, at the pairs 1 <= 1 and e <= 1
    bundle = semidirect_bundle(function_action(semilattice_system(), F3))
    assert bundle.order_maps == {(0, 1): (0,)}
    corrupted = corrupted_bundle(bundle, order_maps={(0, 1): (1,)})
    report = corrupted.validate()
    assert (report.ok, report.rule, report.witness) == (
        False, "inclusion-multiplicative", ("1", "1", "e", "1"))
    assert dense_bundle_validate(corrupted) == report


def chain_system():
    """The chain 1 > e > f > z of idempotents restricting four points to
    their first 4, 3, 2 and 1."""
    sg = InverseSemigroup(tuple(tuple(max(a, b) for b in range(4)) for a in range(4)),
                          range(4), ("1", "e", "f", "z"))
    theta = [PartialBijection.identity(range(4 - a)) for a in range(4)]
    return AmpleSystem(sg, 4, theta)


def test_inclusion_transitivity_failure_names_the_first_chain():
    # j_{1,z} retargeted: the chains z < e < 1 and z < f < 1 both fail,
    # and the first in (r, s, t) element order is reported
    bundle = semidirect_bundle(function_action(chain_system(), F2))
    assert bundle.validate().ok
    assert bundle.order_maps[(0, 3)] == (0,)
    corrupted = corrupted_bundle(bundle, order_maps={(0, 3): (1,)})
    report = corrupted.validate()
    assert (report.ok, report.rule, report.witness) == (
        False, "inclusion-transitivity", ("z", "e", "1"))
    assert dense_bundle_validate(corrupted) == report


def test_action_composition_domain_failure():
    # e and f restrict K^{x, y} to x and to y; their product z must then
    # act on dom(e) cap dom(f) = 0, but is given dom(z) = span{x}
    sg = InverseSemigroup(((0, 2, 2), (2, 1, 2), (2, 2, 2)), (0, 1, 2), ("e", "f", "z"))
    assert sg.validate().ok
    algebra = FiniteAlgebra(F3, ("x", "y"), ((0, None), (None, 1)))
    report = AlgebraAction(sg, algebra, ({0: 0}, {1: 1}, {0: 0})).validate()
    assert (report.ok, report.rule, report.witness) == (False, "composition-domain", ("e", "f"))


def rebased_bundle(bundle, rng):
    """The same bundle in a new basis of every fiber: a random permutation
    of its basis vectors, the change of basis that keeps constants and
    inclusions sending basis vectors to basis vectors.  New basis vector a
    of B_s is old basis vector order[s][a]."""
    sg = bundle.semigroup
    order = [rng.sample(range(bundle.fiber_dim(s)), bundle.fiber_dim(s)) for s in range(sg.size)]
    new = [{old: a for a, old in enumerate(per)} for per in order]
    mu = {(s, t): {(new[s][i], new[t][j]): new[sg.product(s, t)][k]
                   for (i, j), k in entries.items()}
          for (s, t), entries in bundle.mu.items()}
    order_maps = {(t, s): tuple(new[t][ks[old]] for old in order[s])
                  for (t, s), ks in bundle.order_maps.items()}
    labels = [tuple(bundle.fiber_labels[s][old] for old in per) for s, per in enumerate(order)]
    return FellBundle(sg, bundle.field, labels, mu, order_maps)


def wide_semilattice_system():
    """{1, e} on three points, e restricting to two: B_e has dimension 2."""
    sg = InverseSemigroup(((0, 1), (1, 1)), (0, 1), ("1", "e"))
    theta = (PartialBijection.identity([0, 1, 2]), PartialBijection.identity([0, 1]))
    return AmpleSystem(sg, 3, theta, ("x", "y", "z"))


REBASED_SYSTEMS = {**FIXTURES, "wide-semilattice": wide_semilattice_system}


@pytest.mark.parametrize("system", sorted(REBASED_SYSTEMS))
def test_rebased_bundles_validate_and_fail_closed(system):
    bundle = rebased_bundle(
        semidirect_bundle(function_action(REBASED_SYSTEMS[system](), F3)),
        random.Random(system))
    assert bundle.validate().ok
    # an inclusion moved to a position it did not reach stays injective
    for (t, s), ks in bundle.order_maps.items():
        free = sorted(set(range(bundle.fiber_dim(t))) - set(ks))
        if ks and free:
            moved = corrupted_bundle(bundle, order_maps={(t, s): (free[0],) + ks[1:]})
            report = moved.validate()
            assert report.rule in ("inclusion-transitivity", "inclusion-multiplicative")
            assert dense_bundle_validate(moved) == report


# ---------------------------------------------------------------------------
# corrupted index bundles against the dense reference

CORRUPTION_SYSTEMS = {**SMALL_SYSTEMS, "chain": chain_system,
                      "wide-semilattice": wide_semilattice_system}


@functools.lru_cache(maxsize=None)
def index_bundle(name, field):
    return semidirect_bundle(function_action(CORRUPTION_SYSTEMS[name](), field))


def single_corruptions(bundle):
    """Every bundle one change away: each mu constant deleted or redirected
    to another position of its fiber, and each inclusion position moved to
    another position of its fiber (collapsed when that position is taken)."""
    sg = bundle.semigroup
    for (s, t), entries in bundle.mu.items():
        for (i, j), k in entries.items():
            yield corrupted_bundle(bundle, [((s, t, i, j), None)])
            for other in range(bundle.fiber_dim(sg.product(s, t))):
                if other != k:
                    yield corrupted_bundle(bundle, [((s, t, i, j), other)])
    for (t, s), ks in bundle.order_maps.items():
        for i, k in enumerate(ks):
            for other in range(bundle.fiber_dim(t)):
                if other != k:
                    moved = ks[:i] + (other,) + ks[i + 1:]
                    yield corrupted_bundle(bundle, order_maps={(t, s): moved})


def test_every_single_corruption_validates_like_the_dense_reference():
    rules = set()
    for name in sorted(CORRUPTION_SYSTEMS):
        bundle = index_bundle(name, F2)
        assert bundle.validate() == dense_bundle_validate(bundle) == ValidationReport.passed()
        for corrupted in single_corruptions(bundle):
            report = corrupted.validate()
            assert report == dense_bundle_validate(corrupted), name
            rules.add(report.rule)
    # every single change is caught, and each index rule catches one
    assert rules == {"inclusion-injective", "fiber-associativity", "fiber-span",
                     "inclusion-transitivity", "inclusion-multiplicative"}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_corrupted_index_bundles_validate_like_the_dense_reference(data):
    field = data.draw(st.sampled_from((F2, F3)))
    bundle = index_bundle(data.draw(st.sampled_from(sorted(CORRUPTION_SYSTEMS))), field)
    sg = bundle.semigroup
    constants = sorted((s, t, i, j) for (s, t), entries in bundle.mu.items() for i, j in entries)
    mu_changes = []
    for key in data.draw(st.lists(st.sampled_from(constants), max_size=2, unique=True)):
        target = st.integers(0, bundle.fiber_dim(sg.product(key[0], key[1])) - 1)
        mu_changes.append((key, data.draw(st.none() | target)))   # deleted or redirected
    inclusions = sorted(key for key, ks in bundle.order_maps.items() if ks)
    order_maps = {}
    for key in data.draw(st.lists(st.sampled_from(inclusions), max_size=2, unique=True)
                         if inclusions else st.just([])):
        ks = list(bundle.order_maps[key])
        i = data.draw(st.integers(0, len(ks) - 1))
        ks[i] = data.draw(st.sampled_from(ks)                                # collapsed
                          | st.integers(0, bundle.fiber_dim(key[0]) - 1))   # redirected
        order_maps[key] = tuple(ks)
    corrupted = corrupted_bundle(bundle, mu_changes, order_maps)
    report = corrupted.validate()
    assert report == dense_bundle_validate(corrupted)


# ---------------------------------------------------------------------------
# the redundancy ideal as a partition, against the dense reference

def library_sections(bundle):
    """(N, coset positions, coset coordinates of every basis label,
    quotient) from CrossSectionalAlgebra."""
    sections = CrossSectionalAlgebra(bundle)
    positions = sections.coset_positions
    cosets = [unit_vector(bundle.field, len(positions), a) for a in sections.coset_of]
    return sections.redundancy, positions, cosets, sections.quotient


def reference_sections(bundle):
    """The same four from the dense reference."""
    span, qmap, quotient = dense_sections(bundle)
    n = span.ambient_dim
    cosets = [qmap.project(unit_vector(bundle.field, n, g)) for g in range(n)]
    return span, qmap.coset_positions, cosets, quotient


def sections_outcome(build, bundle):
    """The error a build raises, or N's basis, the coset positions and
    coordinates, the quotient's labels and table,
    and whether the quotient is the total algebra."""
    try:
        span, positions, cosets, quotient = build(bundle)
    except StructureError as err:
        return type(err).__name__, err.rule, err.witness
    return ("built", span.basis, positions, cosets, quotient.labels,
            quotient.table, quotient is bundle.total)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_every_single_corruption_gives_the_dense_sections(field):
    verdicts = set()
    for name in sorted(CORRUPTION_SYSTEMS):
        bundle = index_bundle(name, field)
        for corrupted in itertools.chain([bundle], single_corruptions(bundle)):
            outcome = sections_outcome(library_sections, corrupted)
            assert outcome == sections_outcome(reference_sections, corrupted), name
            verdicts.add(outcome[:2] if outcome[0] != "built" else ("built", bool(outcome[1])))
    assert verdicts == {("built", False), ("built", True), ("AssociativityError", "associativity"),
                        ("StructureError", "redundancy-not-ideal")}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_bundles_give_the_dense_sections(data):
    field = data.draw(st.sampled_from((F2, F3, QQ)))
    bundle = index_bundle(data.draw(st.sampled_from(sorted(CORRUPTION_SYSTEMS))), field)
    sg = bundle.semigroup
    constants = sorted((s, t, i, j) for (s, t), entries in bundle.mu.items() for i, j in entries)
    mu_changes = []
    for key in data.draw(st.lists(st.sampled_from(constants), max_size=3, unique=True)):
        target = st.integers(0, bundle.fiber_dim(sg.product(key[0], key[1])) - 1)
        mu_changes.append((key, data.draw(st.none() | target)))   # deleted or redirected
    corrupted = corrupted_bundle(bundle, mu_changes)
    assert sections_outcome(library_sections, corrupted) == sections_outcome(reference_sections, corrupted)


def test_a_redundancy_span_that_is_not_two_sided_is_reported_by_name():
    # FIX-SEMILAT with x:e x:e = 0 removed from mu: the total algebra stays
    # associative, but (x:1 - x:e) x:e = x:e lies outside N
    bundle = semidirect_bundle(function_action(semilattice_system(), F3))
    corrupted = corrupted_bundle(bundle, [((1, 1, 0, 0), None)])
    assert corrupted.total.dim == 3
    with pytest.raises(StructureError) as err:
        CrossSectionalAlgebra(corrupted)
    assert (err.value.rule, err.value.witness) == ("redundancy-not-ideal", None)
    assert sections_outcome(reference_sections, corrupted) == \
        ("StructureError", "redundancy-not-ideal", None)


def test_action_map_multiplicative_failure_on_a_noncommutative_algebra():
    # transposition of M_2 is a bijection that reverses products
    algebra = matrix_units_algebra(F3)
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    action = AlgebraAction(sg, algebra, ({0: 0, 1: 2, 2: 1, 3: 3},))
    report = action.validate()
    assert (report.ok, report.rule, report.witness) == (False, "map-multiplicative", ("e",))


# ---------------------------------------------------------------------------
# the index-form action against the dense references

INDEX_SYSTEMS = {
    **FIXTURES,
    "wide-semilattice": wide_semilattice_system,
    "klein-four": klein_four_system,
    **{f"rot{n}on{d}": functools.partial(rotation_system, n, d)
       for n, d in ((3, 1), (4, 2), (3, 3), (4, 4))},
    **{f"brandt{k}": functools.partial(brandt_k_system, k) for k in (2, 3)},
}


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
@pytest.mark.parametrize("name", sorted(INDEX_SYSTEMS))
def test_index_constants_match_the_dense_loop(name, field):
    action = function_action(INDEX_SYSTEMS[name](), field)
    bundle = semidirect_bundle(action)
    mu, order_maps = dense_semidirect_bundle(action)
    f = action.algebra.field
    # every dense constant is one basis vector, every inclusion column a unit vector
    assert all(len(terms) == 1 and terms[0][1] == f.one
               for entries in mu.values() for terms in entries.values())
    positions = {}
    for key, m in order_maps.items():
        columns = [[r for r, row in enumerate(m) if not f.is_zero(row[c])]
                   for c in range(len(m[0]) if m else 0)]
        assert all(len(rows) == 1 and m[rows[0]][c] == f.one for c, rows in enumerate(columns))
        positions[key] = tuple(rows[0] for rows in columns)
    assert [(key, list(entries.items())) for key, entries in bundle.mu.items()] == \
        [(key, [(ij, terms[0][0]) for ij, terms in entries.items()]) for key, entries in mu.items()]
    assert bundle.order_maps == positions


def corrupted_thetas(pb, n):
    """Every partial bijection one cell of pb's 0/1 matrix away, then every
    one with the images of two points of pb swapped."""
    cells = set(pb.pairs)
    for cell in itertools.product(range(n), repeat=2):
        try:
            yield PartialBijection(sorted(cells ^ {cell}))
        except ValueError:
            pass
    for (x, y), (z, w) in itertools.combinations(pb.pairs, 2):
        yield PartialBijection({**dict(pb.pairs), x: w, z: y})


def test_index_composition_witnesses_match_the_dense_reference():
    rules = set()
    for name in ("FIX-FLIP", "FIX-SEMILAT", "FIX-BRANDT", "rot3on3"):
        system = INDEX_SYSTEMS[name]()
        for s, pb in enumerate(system.theta):
            for corrupted in corrupted_thetas(pb, system.space_size):
                theta = list(system.theta)
                theta[s] = corrupted
                action = function_action(
                    AmpleSystem(system.semigroup, system.space_size, theta), F2)
                report = action.validate()
                assert report == dense_action_validate(action), (name, s, corrupted)
                rules.add(report.rule)
    assert {"map-inverse", "composition-domain", "composition-values"} <= rules
    # K^X is commutative with every subset an ideal, so these are the
    # other rules a corrupted theta can reach
    assert {"domain-consistency", "map-bijection", "domain-span"} <= rules


def test_every_index_map_on_m2_matches_the_dense_reference():
    # every partial map of the matrix-unit basis of M_2 under the one-element
    # semigroup: sub-ideal domains, repeated images, the transpose and the
    # other permutations of the full basis
    algebra = matrix_units_algebra(F3)
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    rules = set()
    for k in range(5):
        for keys in itertools.combinations(range(4), k):
            for values in itertools.product(range(4), repeat=k):
                action = AlgebraAction(sg, algebra, (dict(zip(keys, values)),))
                report = action.validate()
                assert report == dense_action_validate(action), (keys, values)
                rules.add(report.rule)
    assert {"domain-ideal", "map-bijection", "map-multiplicative", "domain-span"} <= rules


@pytest.mark.parametrize("algebra, moves, message", [
    (matrix_units_algebra(F3), ({0: 0}, {0: 0}), "one map per element"),
    (matrix_units_algebra(F3), ({4: 0},), "outside the basis"),
    (matrix_units_algebra(F3), ({0: -1},), "outside the basis"),
], ids=["two-maps", "key-out-of-range", "value-out-of-range"])
def test_action_constructor_rejects_malformed_index_maps(algebra, moves, message):
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    with pytest.raises(ValueError, match=message):
        AlgebraAction(sg, algebra, moves)


GUARD_SYSTEMS = {
    "rot6on6": functools.partial(rotation_system, 6, 6),
    "brandt6": functools.partial(brandt_k_system, 6),
    "FIX-SEMILAT": semilattice_system,
    "chain": chain_system,
    "unitized-brandt": unitized_brandt_system,
}


def test_crossed_products_build_without_apply_or_coordinates(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense coordinates, dense N or dense bundle arithmetic taken")

    want = {name: crossed_product(make(), F2).algebra.table
            for name, make in GUARD_SYSTEMS.items()}
    for name in ("coordinates", "span", "reduce"):
        monkeypatch.setattr(Subspace, name, refuse)
    for module in (bundles, induction):
        for name in ("rref", "mat_vec", "is_ideal", "QuotientMap"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for name, make in GUARD_SYSTEMS.items():
        cp = crossed_product(make(), F2)
        assert cp.algebra.table == want[name], name
        assert cp.bundle.validate().ok
        for x in range(cp.system.space_size):
            InductionContext(cp, x)
        assert "redundancy" not in vars(cp.sections), name   # N never formed densely


# ---------------------------------------------------------------------------
# one associativity check per algebra

@pytest.fixture
def checked_algebras(monkeypatch):
    """Every FiniteAlgebra whose associativity is checked, in order."""
    checked = []
    check = FiniteAlgebra._check_associativity

    def recording(self):
        checked.append(self)
        return check(self)

    monkeypatch.setattr(FiniteAlgebra, "_check_associativity", recording)
    return checked


def test_crossed_product_checks_associativity_once_per_algebra(checked_algebras):
    # N = 0: the quotient is the checked total algebra itself
    cp = crossed_product(flip_system(), F2)
    assert cp.sections.redundancy.dim == 0
    assert [alg.dim for alg in checked_algebras] == [2, 4]
    function_alg, total = checked_algebras
    assert function_alg.labels == ("a", "b")
    assert total is cp.bundle.total is cp.sections.total
    assert cp.algebra is cp.sections.quotient is cp.sections.total
    assert cp.bundle.validate().ok
    assert len(checked_algebras) == 2  # a second validate reuses the checked total


def test_a_nonzero_redundancy_ideal_builds_and_checks_the_quotient(checked_algebras):
    cp = crossed_product(semilattice_system(), F2)
    assert cp.sections.redundancy.dim == 1
    assert [alg.dim for alg in checked_algebras] == [2, 3, 2]
    function_alg, total, quotient = checked_algebras
    assert function_alg.labels == ("x", "y")
    assert total is cp.bundle.total is cp.sections.total
    assert quotient is cp.algebra is cp.sections.quotient
    assert quotient is not total
    assert quotient.labels == ("y:1", "x:e")


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


def test_algebra_mul_rejects_vectors_of_the_wrong_length():
    alg = crossed_product(flip_system(), F2).algebra
    assert alg.dim == 4
    for u, v in [((1, 0, 0, 0, 1), (1, 0, 0, 0)), ((1, 0), (1, 0, 0, 0)),
                 ((1, 0, 0, 0), (1, 0, 0, 0, 0))]:
        with pytest.raises(ValueError, match="length"):
            alg.mul(u, v)
    assert alg.mul((1, 0, 0, 0), (1, 0, 0, 0)) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# local units

def test_local_unit_of_zero_is_zero():
    cp = crossed_product(flip_system(), F2)
    assert cp.local_unit(zero_vector(F2, 4)) == zero_vector(F2, 4)


@pytest.mark.parametrize("b", [(1, 0, 0, 0, 1), (1,)])
def test_lift_terms_and_local_unit_reject_a_vector_of_the_wrong_length(b):
    cp = crossed_product(flip_system(), F2)
    for read in (cp.lift_terms, cp.local_unit):
        with pytest.raises(ValueError, match="length") as info:
            read(b)
        assert not isinstance(info.value, StructureError)


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


def test_integration_checks_every_section_against_its_coset_root():
    # FIX-SEMILAT: x:1 and x:e share a coset.  pi_x = E11, pi_y = E22,
    # sigma_1 = 0 and sigma_e = E11 give a representation of the quotient
    # K x K on the roots y:1 and x:e, but pi_x sigma_1 = 0 is not pi_x sigma_e
    cp = crossed_product(semilattice_system(), F2)
    o, l = F2.zero, F2.one
    e11, e22, zero = ((l, o), (o, o)), ((o, o), (o, l)), ((o, o), (o, o))
    pair = CovariantRep(cp.system, F2, 2, (e11, e22), (zero, e11))
    assert not pair.validate().ok
    with pytest.raises(StructureError) as err:
        integrate(cp, pair)
    assert (err.value.rule, err.value.witness) == ("integration-consistency", ("x", "1"))


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
            per.append(unit_vector(cp.field, cp.dim, sections.coset_of[g]))
        out.append(tuple(per))
    return tuple(out)


@pytest.mark.parametrize("name, rules", [
    ("FIX-FLIP", ["pre-representation"]),
    ("FIX-SEMILAT", ["pre-representation", "extension-multiplicative"]),
])
def test_extension_checks_the_quotient_only_when_n_is_nonzero(monkeypatch, name, rules):
    # N = 0 on FIX-FLIP: the quotient is the total algebra and the
    # extension is the pre-representation itself
    cp = crossed_product(FIXTURES[name](), F2)
    assert (cp.sections.redundancy.dim == 0) == (name == "FIX-FLIP")
    check, seen = bundles.check_algebra_hom, []

    def recording(src, dst, images, rule):
        seen.append(rule)
        return check(src, dst, images, rule)

    monkeypatch.setattr(bundles, "check_algebra_hom", recording)
    extend_representation(cp.sections, cp.algebra, universal_images(cp))
    assert seen == rules


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


def summed_images(cp, target, source):
    """The universal images with the image of basis vector source = (t, j)
    added to that of target = (s, i)."""
    images = [list(per) for per in universal_images(cp)]
    (s, i), (t, j) = target, source
    images[s][i] = tuple(cp.field.add(a, b) for a, b in zip(images[s][i], images[t][j]))
    return tuple(map(tuple, images))


EXTENSION_SYSTEMS = {"FIX-SEMILAT": semilattice_system, "chain": chain_system,
                     "unitized-brandt": unitized_brandt_system}


@functools.cache
def extension_product(name):
    return crossed_product(EXTENSION_SYSTEMS[name](), F3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_images_pass_inclusion_compatibility_iff_they_kill_the_redundancy_ideal(data):
    # N is spanned by the e_{s,i} - e_{t,k} that "inclusion-compatibility"
    # compares, so no separate check that N is killed is needed
    cp = extension_product(data.draw(st.sampled_from(sorted(EXTENSION_SYSTEMS))))
    sections, f = cp.sections, cp.field
    vectors = st.tuples(*[st.sampled_from((f.zero, f.one, f.of(2)))] * cp.dim)
    by_coset = [data.draw(vectors) for _ in sections.coset_positions]
    per_label = [by_coset[a] for a in sections.coset_of]
    for g in data.draw(st.lists(st.integers(0, len(per_label) - 1), max_size=2, unique=True)):
        per_label[g] = data.draw(vectors)
    images = tuple(tuple(per_label[sections.global_index(s, i)]
                         for i in range(sections.bundle.fiber_dim(s)))
                   for s in range(cp.system.semigroup.size))
    killed = all(all(f.is_zero(c) for c in lincomb(f, v, per_label, cp.dim))
                 for v in sections.redundancy.basis)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bundles, "check_algebra_hom", lambda *args: None)   # rules on products
        try:
            extend_representation(sections, cp.algebra, images)
            compatible = True
        except StructureError as err:
            assert err.rule == "inclusion-compatibility"
            compatible = False
    assert compatible == killed


@pytest.mark.parametrize("name", ["FIX-FLIP", "FIX-BRANDT"])
def test_pre_representation_fails_at_the_reference_pair(name):
    cp = crossed_product(FIXTURES[name](), F3)
    bundle = cp.sections.bundle
    assert dense_pre_representation(bundle, cp.algebra, universal_images(cp), True) is None
    slots = [(s, i) for s in range(cp.system.semigroup.size)
             for i in range(bundle.fiber_dim(s))]
    for target, source in itertools.permutations(slots, 2):
        images = summed_images(cp, target, source)
        want = dense_pre_representation(bundle, cp.algebra, images, True)
        assert want is not None
        with pytest.raises(StructureError) as err:
            extend_representation(cp.sections, cp.algebra, images)
        assert (err.value.rule, err.value.witness) == ("pre-representation", want)


def test_pre_representation_witness_follows_the_total_algebra_order():
    # B_1 and B_g of FIX-FLIP have dimension 2, so the total algebra's
    # (s, i, t, j) order and the fiberwise (s, t, i, j) order part ways
    cp = crossed_product(flip_system(), F3)
    images = summed_images(cp, (0, 0), (1, 1))
    with pytest.raises(StructureError) as err:
        extend_representation(cp.sections, cp.algebra, images)
    assert (err.value.rule, err.value.witness) == ("pre-representation", ("1", "g", 0, 0))
    fiberwise = dense_pre_representation(cp.sections.bundle, cp.algebra, images, False)
    assert fiberwise == ("1", "1", 1, 0)


def test_extension_reports_a_non_multiplicative_image_list(monkeypatch):
    # the flip with a unit adjoined: N is nonzero and the quotient is M_2
    corrupt_hom_check(monkeypatch, bundles, "extension-multiplicative")
    cp = unitization_isomorphism(flip_system(), F2).unitized
    assert cp.sections.redundancy.dim > 0
    images = universal_images(cp)
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
            coset = unit_vector(F2, cp.dim, sections.coset_of[g])
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
