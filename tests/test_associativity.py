"""The one associativity check for index tables, exactlin.first_nonassociative,
against the loops it replaced, through each of its callers."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedideals import (
    GF,
    QQ,
    FellBundle,
    FiniteAlgebra,
    FiniteGroupoid,
    Germ,
    InverseSemigroup,
    IsotropyGroup,
    StructureError,
    exactlin,
    function_action,
    semidirect_bundle,
)
from crossedideals.exactlin import AssociativityError, first_nonassociative, generating_indices
from crossedideals.fixtures import flip_system
from crossedideals.validation import ValidationReport

from util import (
    dense_check_associativity,
    matrix_units_table,
    reference_first_nonassociative,
    reference_groupoid_associativity,
    reference_isotropy_associativity,
    reference_semigroup_associativity,
    rotation_system,
    z2_semigroup,
)

F2 = GF(2)
F3 = GF(3)


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_three():
    """S_3 as the permutations of (0, 1, 2), composed as functions."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def disjoint_union(a, b):
    """The tables side by side, products across them zero."""
    n = len(a)
    out = [list(row) + [None] * len(b) for row in a]
    out += [[None] * n + [None if k is None else k + n for k in row] for row in b]
    return out


GROUP_TABLES = (
    *(cyclic(n) for n in range(1, 6)),
    [[a ^ b for b in range(4)] for a in range(4)],    # Z/2 x Z/2
    symmetric_three(),
)

# every product defined: groups and semigroups
FULL_TABLES = (
    *GROUP_TABLES,
    [[a] * 3 for a in range(3)],                          # left zero
    [[0] * 3 for _ in range(3)],                          # null, zero at 0
    [[min(a, b) for b in range(4)] for a in range(4)],    # chain semilattice
)

# some products zero: groupoids and monomial algebras
PARTIAL_TABLES = (
    [[None]],                                             # zero algebra
    [[0, 1], [1, None]],                                  # K[x]/(x^2)
    matrix_units_table(),                                 # pair groupoid
    disjoint_union(cyclic(2), matrix_units_table()),      # Z/2 and a pair groupoid
)


def relabelled(table, perm):
    """The table with index i renamed perm[i]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = table[i][j]
            out[perm[i]][perm[j]] = None if k is None else perm[k]
    return out


@st.composite
def index_tables(draw, zeros):
    """A random table on 1-5 indices, or an associative table above with
    its indices permuted; then 0-3 entries set at random.  With zeros,
    entries may be None."""
    def entry(n):
        values = st.integers(0, n - 1)
        return st.one_of(st.none(), values) if zeros else values

    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        table = [[draw(entry(n)) for _ in range(n)] for _ in range(n)]
    else:
        source = draw(st.sampled_from(FULL_TABLES + PARTIAL_TABLES if zeros else FULL_TABLES))
        n = len(source)
        table = relabelled(source, draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(entry(n))
    return table


def outcome(check):
    """(rule, witness) of the StructureError that check raises or of the
    failed report it returns; None for a pass."""
    try:
        report = check()
    except StructureError as err:
        return err.rule, err.witness
    if isinstance(report, ValidationReport) and not report.ok:
        return report.rule, report.witness
    return None


# ---------------------------------------------------------------------------
# the kernel

@pytest.mark.parametrize("zeros", [False, True], ids=["full", "zeros"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_returns_the_first_failing_triple(zeros, data):
    table = data.draw(index_tables(zeros))
    assert first_nonassociative(table) == reference_first_nonassociative(table)


@pytest.mark.parametrize("table", FULL_TABLES + PARTIAL_TABLES, ids=len)
def test_associative_tables_pass(table):
    assert reference_first_nonassociative(table) is None
    assert first_nonassociative(table) is None
    assert first_nonassociative(tuple(map(tuple, table))) is None


def test_a_product_off_the_support_of_row_j_fails():
    # e_1 e_0 = e_1 and e_0 e_0 = 0: (e_1 e_0) e_0 = e_1, e_1 (e_0 e_0) = 0,
    # although row 0 has no nonzero entry to compare at
    table = [[None, None], [1, None]]
    assert first_nonassociative(table) == reference_first_nonassociative(table) == (1, 0, 0)


# ---------------------------------------------------------------------------
# the generating set behind the kernel's pass or fail

def product_closure(table, indices):
    """Every index reached from indices by products of reached indices,
    in any bracketing."""
    reached = set(indices)
    while True:
        grown = reached | {table[a][b] for a in reached for b in reached} - {None}
        if grown == reached:
            return reached
        reached = grown


# Tables in which few products reach new indices, so that most indices are
# generators: semilattices, left zero and null semigroups, and a rectangular
# band, alone and beside a group.
MANY_GENERATOR_TABLES = (
    [[min(a, b) for b in range(7)] for a in range(7)],    # chain semilattice
    [[a & b for b in range(8)] for a in range(8)],        # Boolean semilattice
    [[a] * 6 for a in range(6)],                          # left zero
    [[0] * 7 for _ in range(7)],                          # null, zero at 0
    [[3 * (a // 3) + b % 3 for b in range(6)] for a in range(6)],  # 2 x 3 rectangular band
    disjoint_union([[min(a, b) for b in range(4)] for a in range(4)], cyclic(3)),
)


@pytest.mark.parametrize("zeros", [False, True], ids=["full", "zeros"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_generators_reach_every_index(zeros, data):
    table = data.draw(index_tables(zeros))
    generators = generating_indices(table)
    assert list(generators) == sorted(set(generators))
    assert generators[0] == 0
    assert product_closure(table, generators) == set(range(len(table)))


@pytest.mark.parametrize("table", MANY_GENERATOR_TABLES, ids=len)
def test_tables_with_many_generators_pass(table):
    generators = generating_indices(table)
    assert len(generators) >= len(table) // 2
    assert product_closure(table, generators) == set(range(len(table)))
    assert reference_first_nonassociative(table) is None
    assert first_nonassociative(table) is None


def test_cyclic_groups_are_generated_by_the_unit_and_one_generator():
    assert generating_indices([]) == ()
    assert generating_indices(cyclic(1)) == (0,)
    for n in range(2, 25):
        assert generating_indices(cyclic(n)) == (0, 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_reference_on_tables_with_many_generators(data):
    source = data.draw(st.sampled_from(MANY_GENERATOR_TABLES))
    n = len(source)
    table = relabelled(source, data.draw(st.permutations(range(n))))
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[i][j] = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    assert product_closure(table, generating_indices(table)) == set(range(n))
    assert first_nonassociative(table) == reference_first_nonassociative(table)


# ---------------------------------------------------------------------------
# the callers, against the loops they replaced

@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_semigroup_validate_fails_at_the_reference_triple(data):
    table = data.draw(index_tables(False))
    n = len(table)
    sg = InverseSemigroup(table, range(n), [f"s{i}" for i in range(n)])
    expected = reference_semigroup_associativity(sg)
    report = sg.validate()
    if expected is None:
        assert report.ok or report.rule != "associativity"
    else:
        assert report == expected


@st.composite
def group_law_tables(draw):
    """(table, identity, inverse) obeying the identity and inverse laws: a
    group above, or a random table with identity 0 and inverses paired by
    an involution; indices permuted, then 0-3 entries set at random away
    from the identity's row and column and the inverse positions."""
    if draw(st.booleans()):
        table = draw(st.sampled_from(GROUP_TABLES))
        n = len(table)
        inverse = [row.index(0) for row in table]
    else:
        n = draw(st.integers(1, 5))
        order = draw(st.permutations(range(1, n)))
        inverse = list(range(n))
        for a, b in zip(order[::2], order[1::2]):
            inverse[a], inverse[b] = b, a
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            table[0][i] = table[i][0] = i
            table[i][inverse[i]] = 0
    perm = draw(st.permutations(range(n)))
    table = relabelled(table, perm)
    identity = perm[0]
    relabelled_inverse = [None] * n
    for i in range(n):
        relabelled_inverse[perm[i]] = perm[inverse[i]]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if identity not in (i, j) and j != relabelled_inverse[i]:
            table[i][j] = draw(st.integers(0, n - 1))
    return table, identity, relabelled_inverse


@settings(max_examples=100, deadline=None)
@given(group_law_tables())
def test_isotropy_group_laws_fail_at_the_reference_triple(drawn):
    table, identity, inverse = drawn
    system = rotation_system(6, 1)   # names the germs [1@p0], [g1@p0], ...
    members = [Germ(r, 0) for r in range(len(table))]
    group = IsotropyGroup(system, 0, members, table, identity, inverse)
    expected = outcome(lambda: reference_isotropy_associativity(group))
    assert outcome(group._check_group_laws) == expected


@st.composite
def groupoid_tables(draw):
    """A groupoid-shaped table on 1-3 units: units in random components,
    one or two arrows x -> y for each pair of units x, y in a component,
    labelled by Z/m; the composite of x -> y labelled h and y -> z
    labelled g is x -> z, labelled g + h, or a random arrow x -> z; units
    compose as identities.  Then 0-3 composites of non-units are reset to
    a random arrow with the same endpoints.  Returns the number of units,
    the arrows (source, target, label), units first, and the composition
    in (a, b) order."""
    units = draw(st.integers(1, 3))
    component = [draw(st.integers(0, units - 1)) for _ in range(units)]
    m = draw(st.integers(1, 2))
    arrows = [(x, x, 0) for x in range(units)]
    arrows += [(x, y, g) for x in range(units) for y in range(units) for g in range(m)
               if component[x] == component[y] and (x != y or g != 0)]
    between = {}
    for a, (x, y, _) in enumerate(arrows):
        between.setdefault((x, y), []).append(a)
    index = {arrow: a for a, arrow in enumerate(arrows)}
    associative = draw(st.booleans())
    compose = {}
    for a, (y, z, g) in enumerate(arrows):
        for b, (x, y2, h) in enumerate(arrows):
            if y != y2:
                continue
            if b < units:
                compose[(a, b)] = a
            elif a < units:
                compose[(a, b)] = b
            elif associative:
                compose[(a, b)] = index[(x, z, (g + h) % m)]
            else:
                compose[(a, b)] = draw(st.sampled_from(between[(x, z)]))
    non_units = [pair for pair in compose if min(pair) >= units]
    for _ in range(draw(st.integers(0, 3)) if non_units else 0):
        a, b = draw(st.sampled_from(non_units))
        compose[(a, b)] = draw(st.sampled_from(between[(arrows[b][0], arrows[a][1])]))
    return units, arrows, compose


@settings(max_examples=100, deadline=None)
@given(groupoid_tables(), st.data())
def test_groupoid_validate_fails_at_the_reference_triple(drawn, data):
    units, arrows, compose = drawn
    g = FiniteGroupoid(len(arrows), range(units), [x for x, _, _ in arrows],
                       [y for _, y, _ in arrows], compose,
                       [f"a{i}" for i in range(len(arrows))])
    report = g.validate()
    # only associativity and inverses can fail on these tables
    assert report.ok or report.rule in ("associativity", "inverses")
    expected = reference_groupoid_associativity(g)   # compose is in (a, b) order
    if expected is None:
        assert report.ok or report.rule != "associativity"
    else:
        assert report == expected
    # the witness does not depend on the insertion order of compose
    shuffled = dict(data.draw(st.permutations(list(compose.items()))))
    assert FiniteGroupoid(g.size, g.units, g.source, g.target, shuffled,
                          g.names).validate() == report


def test_groupoid_witness_is_the_first_triple_whatever_the_insertion_order():
    # Z/3 with 1 + 2 = 1: (1, 1, 1) and (2, 2, 2) both fail; the loop over
    # compose in insertion order reported (2, 2, 2) for this reversed dict
    table = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    table[(1, 2)] = 1
    reversed_table = dict(reversed(list(table.items())))
    g = FiniteGroupoid(3, (0,), (0,) * 3, (0,) * 3, reversed_table, ("0", "1", "2"))
    assert reference_groupoid_associativity(g) == \
        ValidationReport.failed("associativity", ("2", "2", "2"))
    assert g.validate() == ValidationReport.failed("associativity", ("1", "1", "1"))


@pytest.mark.parametrize("field", (F2, F3, QQ), ids=str)
@pytest.mark.parametrize("zeros", [False, True], ids=["full", "zeros"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_monomial_algebras_fail_at_the_reference_triple(field, zeros, data):
    table = data.draw(index_tables(zeros))
    labels = tuple(f"b{i}" for i in range(len(table)))
    expected = outcome(lambda: dense_check_associativity(field, labels, table))
    assert outcome(lambda: FiniteAlgebra(field, labels, table)) == expected


# ---------------------------------------------------------------------------
# a guard against hand-written loops

def test_every_index_table_check_goes_through_the_kernel(monkeypatch):
    """With the kernel patched to fail at (1, 0, 1), every caller reports
    that triple under its own rule."""
    semigroup = z2_semigroup()
    system = rotation_system(2, 1)
    z2_groupoid = FiniteGroupoid(2, (0,), (0, 0), (0, 0),
                                 {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}, ("1", "g"))
    built = semidirect_bundle(function_action(flip_system(), F2))
    bundle = FellBundle(built.semigroup, built.field, built.fiber_labels,
                        built.mu, built.order_maps)
    tables = []

    def fixed(table):
        tables.append(len(table))
        return 1, 0, 1

    kernel = exactlin.first_nonassociative
    for module in list(sys.modules.values()):
        if module.__name__.startswith("crossedideals") and \
                getattr(module, "first_nonassociative", None) is kernel:
            monkeypatch.setattr(module, "first_nonassociative", fixed)

    assert semigroup.validate() == ValidationReport.failed("associativity", ("g", "1", "g"))
    with pytest.raises(StructureError) as err:
        IsotropyGroup.at(system, 0)
    assert (err.value.rule, err.value.witness) == (
        "isotropy-associativity", ("[g1@p0]", "[1@p0]", "[g1@p0]"))
    assert z2_groupoid.validate() == ValidationReport.failed("associativity", ("g", "1", "g"))
    with pytest.raises(AssociativityError) as err:
        FiniteAlgebra(F2, ("1", "g"), ((0, 1), (1, 0)))
    assert (err.value.indices, err.value.witness) == ((1, 0, 1), ("g", "1", "g"))
    # total labels 0..3 are (1, a), (1, b), (g, a), (g, b): fiber 1 at
    # indices 1, 0, 1
    assert bundle.validate() == ValidationReport.failed(
        "fiber-associativity", ("1", "1", "1", 1, 0, 1))
    assert tables == [2, 2, 2, 2, 4]
