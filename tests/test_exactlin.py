"""Exact fields, canonical subspaces, finite algebras, ideals, representations."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossedideals import (
    FIXTURES,
    GF,
    QQ,
    FiniteAlgebra,
    GuardError,
    QuotientMap,
    Representation,
    StructureError,
    Subspace,
    enumerate_ideals,
    enumerate_subspaces,
    ideal_generate,
    intersect_all,
    is_ideal,
    left_regular_mod,
    rref,
    subspace_intersect,
    subspace_sum,
)
from crossedideals import crossed_product, exactlin
from crossedideals.exactlin import (
    HomomorphismError,
    check_algebra_hom,
    lincomb,
    mat_from_columns,
    mat_lincomb,
    nonzero_entries,
    nullspace,
    unit_vector,
    vec_add,
    vec_is_zero,
    zero_vector,
)

from util import (
    MATRIX_UNIT_POSITIONS,
    basis_multiples_reference,
    brute_force_ideals,
    count_calls,
    dense_check_algebra_hom,
    dense_check_associativity,
    dense_mul,
    fixpoint_ideal_generate,
    klein_four_system,
    matrix_units_algebra,
    matrix_units_table,
    reference_ideal_generate,
    reference_is_ideal,
    reference_reduce,
    reference_rref,
    rotation_system,
    z2_algebra,
    z2_times_z3_system,
)

F2 = GF(2)
F3 = GF(3)


# ---------------------------------------------------------------------------
# fields

def test_prime_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_primality_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if exactlin._is_prime(n)] == \
        [n for n in range(-3, 5000) if trial(n)]
    # the least strong pseudoprimes to the bases 2, 2..3, 2..5, 2..7, 2..11, 2..13,
    # 2..17 and 2..23, and two Carmichael numbers
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 561, 1105):
        assert not exactlin._is_prime(n)


def test_large_prime_characteristics_are_decided_quickly():
    start = time.perf_counter()
    for p in (10 ** 18 + 3, 2 ** 61 - 1):
        assert GF(p).mul(GF(p).inv(2), 2) == 1
    with pytest.raises(ValueError, match="not prime"):
        GF(10 ** 18 + 1)  # (10^6 + 1)(10^12 - 10^6 + 1)
    assert time.perf_counter() - start < 5  # trial division takes minutes
    for too_large in (exactlin._PRIME_TEST_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(too_large)


def test_prime_field_arithmetic_is_modular():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.of(-1) == 2
    assert F3.neg(1) == 2
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_rational_field_is_exact():
    third = QQ.of(Fraction(1, 3))
    assert QQ.mul(third, QQ.of(3)) == QQ.one
    assert QQ.add(third, third) == Fraction(2, 3)
    assert QQ.inv(Fraction(2, 5)) == Fraction(5, 2)


# ---------------------------------------------------------------------------
# rref

def test_rref_identity_is_fixed():
    ident = ((1, 0), (0, 1))
    reduced, rank = rref(F2, ident)
    assert reduced == ident
    assert rank == 2


def test_rref_zero_matrix_has_rank_zero():
    reduced, rank = rref(F3, ((0, 0, 0),) * 3)
    assert rank == 0
    assert reduced == ()


def test_rref_collapses_repeated_rows():
    reduced, rank = rref(F2, ((1, 1), (1, 1)))
    assert reduced == ((1, 1),)
    assert rank == 1


def small_matrices(field, p):
    entry = st.integers(min_value=0, max_value=p - 1)
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(small_matrices(F2, 2))
def test_rref_is_idempotent_and_preserves_row_space(rows):
    reduced, rank = rref(F2, rows)
    again, rank2 = rref(F2, reduced)
    assert again == reduced and rank2 == rank
    n = len(rows[0])
    assert Subspace.span(F2, n, rows) == Subspace.span(F2, n, reduced)


@settings(max_examples=60, deadline=None)
@given(small_matrices(F3, 3))
def test_rref_pivots_normalized_over_f3(rows):
    reduced, _ = rref(F3, rows)
    for row in reduced:
        lead = next(a for a in row if a != 0)
        assert lead == 1


# ---------------------------------------------------------------------------
# subspaces

def test_sum_and_intersection_of_coordinate_lines():
    a = Subspace.span(F2, 2, [(1, 0)])
    b = Subspace.span(F2, 2, [(0, 1)])
    assert subspace_sum(a, b) == Subspace.full(F2, 2)
    assert subspace_intersect(a, b) == Subspace.zero(F2, 2)


def test_sum_and_intersection_of_equal_subspaces():
    a = Subspace.span(F2, 3, [(1, 1, 0)])
    assert subspace_sum(a, a) == a
    assert subspace_intersect(a, a) == a


def test_skew_lines_in_three_space():
    a = Subspace.span(F2, 3, [(1, 1, 0)])
    b = Subspace.span(F2, 3, [(0, 1, 1)])
    assert subspace_intersect(a, b) == Subspace.zero(F2, 3)
    assert subspace_sum(a, b).dim == 2


def test_ambient_mismatch_is_rejected():
    a = Subspace.span(F2, 2, [(1, 0)])
    b = Subspace.span(F2, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersect(a, b)


def test_equal_spans_have_identical_bases():
    a = Subspace.span(F2, 3, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.span(F2, 3, [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    assert a == b
    assert a.basis == b.basis


def subspace_pairs(field, p, n):
    vec = st.lists(st.integers(min_value=0, max_value=p - 1),
                   min_size=n, max_size=n)
    vecs = st.lists(vec, min_size=0, max_size=4)
    return st.tuples(vecs, vecs).map(
        lambda ab: (Subspace.span(field, n, ab[0]), Subspace.span(field, n, ab[1])))


@settings(max_examples=80, deadline=None)
@given(subspace_pairs(F2, 2, 4))
def test_dimension_modular_law(pair):
    a, b = pair
    total = subspace_sum(a, b)
    meet = subspace_intersect(a, b)
    assert a.dim + b.dim == total.dim + meet.dim
    assert total.contains_space(a) and total.contains_space(b)
    assert a.contains_space(meet) and b.contains_space(meet)


def test_coordinates_round_trip_and_reject_outsiders():
    a = Subspace.span(F3, 3, [(1, 0, 2), (0, 1, 1)])
    v = tuple(F3.add(x, y) for x, y in zip((1, 0, 2), (0, 2, 2)))
    assert a.contains(v)
    coords = a.coordinates(v)
    rebuilt = zero_vector(F3, 3)
    for c, row in zip(coords, a.basis):
        rebuilt = tuple(F3.add(r, F3.mul(c, e)) for r, e in zip(rebuilt, row))
    assert rebuilt == v
    with pytest.raises(ValueError):
        a.coordinates((1, 1, 1))


def test_intersect_all_folds_and_rejects_empty():
    spaces = [
        Subspace.span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.span(F2, 3, [(0, 1, 0), (0, 0, 1)]),
    ]
    assert intersect_all(spaces) == Subspace.span(F2, 3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        intersect_all([])


def test_quotient_map_sections_the_projection():
    w = Subspace.span(F2, 3, [(1, 1, 0)])
    qm = QuotientMap.of(w)
    assert qm.dim == 2
    for k in range(qm.dim):
        e = unit_vector(F2, qm.dim, k)
        assert qm.project(qm.lift(e)) == e
    assert qm.project((1, 1, 0)) == (0, 0)


def test_quotient_map_lift_rejects_a_coset_vector_of_the_wrong_length():
    qm = QuotientMap.of(Subspace.span(F2, 3, [(1, 1, 0)]))
    for w in ((1,), (1, 0, 1)):
        with pytest.raises(ValueError, match="length"):
            qm.lift(w)


# ---------------------------------------------------------------------------
# algebras and ideals

def test_ideal_generated_by_nothing_is_zero():
    alg = z2_algebra(F2)
    assert ideal_generate(alg, []) == Subspace.zero(F2, 2)


def test_augmentation_ideal_of_group_algebra():
    alg = z2_algebra(F2)
    ideal = ideal_generate(alg, [(1, 1)])
    assert ideal == Subspace.span(F2, 2, [(1, 1)])
    assert is_ideal(alg, ideal)


def test_one_matrix_unit_generates_everything():
    alg = matrix_units_algebra(F2)
    ideal = ideal_generate(alg, [unit_vector(F2, 4, 0)])
    assert ideal == Subspace.full(F2, 4)


def test_is_ideal_on_trivial_and_non_ideals():
    alg = matrix_units_algebra(F2)
    assert is_ideal(alg, Subspace.zero(F2, 4))
    assert is_ideal(alg, Subspace.full(F2, 4))
    assert not is_ideal(alg, Subspace.span(F2, 4, [unit_vector(F2, 4, 0)]))


def test_one_sided_ideals_are_not_two_sided():
    alg = matrix_units_algebra(F3)
    first_column = Subspace.span(F3, 4, [unit_vector(F3, 4, 0), unit_vector(F3, 4, 2)])
    first_row = Subspace.span(F3, 4, [unit_vector(F3, 4, 0), unit_vector(F3, 4, 1)])
    assert not is_ideal(alg, first_column)
    assert not is_ideal(alg, first_row)


def test_associativity_check_rejects_corrupted_table(monkeypatch):
    def product(self, u, v):
        raise RuntimeError("FiniteAlgebra.mul called")

    # the check walks the table, with no product per triple
    monkeypatch.setattr(FiniteAlgebra, "mul", product)
    table = matrix_units_table()
    table[1][2] = 3  # e12 e21 = e22 breaks (e12 e21) e11 = e12 (e21 e11)
    with pytest.raises(StructureError) as err:
        FiniteAlgebra(F2, ("e11", "e12", "e21", "e22"), table)
    assert err.value.rule == "associativity"
    assert err.value.witness == ("e11", "e12", "e21")


# ---------------------------------------------------------------------------
# the product kernel and the associativity check against the dense
# references in util

SCALAR_FIELDS = (F2, F3, QQ)


def scalars(field):
    if field is QQ:
        return st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.integers(0, field.p - 1)


def _cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _brandt_two():
    """B_2 with zero 0 and e11, e12, e21, e22 at 1..4."""
    table = [[0] * 5 for _ in range(5)]
    for (a, b), i in MATRIX_UNIT_POSITIONS.items():
        for (c, d), j in MATRIX_UNIT_POSITIONS.items():
            if b == c:
                table[i + 1][j + 1] = MATRIX_UNIT_POSITIONS[(a, d)] + 1
    return table


def _z2_and_pair_groupoid():
    """The disjoint union of Z/2 (at 0, 1) and the pair groupoid on two
    points (matrix units at 2..5): a partial table."""
    table = [[None] * 6 for _ in range(6)]
    for a in range(2):
        for b in range(2):
            table[a][b] = a ^ b
    for i, row in enumerate(matrix_units_table()):
        for j, k in enumerate(row):
            if k is not None:
                table[i + 2][j + 2] = k + 2
    return table


# Semigroup tables (every product defined) and groupoid tables (partial).
ASSOCIATIVE_INDEX_TABLES = (
    *(_cyclic(n) for n in range(1, 5)),
    [[a] * 3 for a in range(3)],                        # left zero
    [[0] * 3 for _ in range(3)],                        # null, zero at 0
    [[min(a, b) for b in range(4)] for a in range(4)],  # chain semilattice
    [[a ^ b for b in range(4)] for a in range(4)],      # Z/2 x Z/2
    _brandt_two(),
    matrix_units_table(),                               # pair groupoid
    _z2_and_pair_groupoid(),
)


def relabelled_table(table, perm):
    """The index table with basis index i renamed perm[i]."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            k = table[i][j]
            out[perm[i]][perm[j]] = None if k is None else perm[k]
    return out


@st.composite
def index_tables(draw):
    """A random partial index table on 1-4 elements, or an associative
    table above with its basis permuted, perturbed at one entry or not."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        entry = st.one_of(st.none(), st.integers(0, n - 1))
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    source = draw(st.sampled_from(ASSOCIATIVE_INDEX_TABLES))
    n = len(source)
    table = relabelled_table(source, draw(st.permutations(range(n))))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return table


@st.composite
def relabelled_algebras(draw, field, tables=ASSOCIATIVE_INDEX_TABLES + (((None,),),)):
    """The algebra on one of the tables (by default an associative table
    above or the zero algebra on K) with its basis permuted."""
    source = draw(st.sampled_from(tables))
    n = len(source)
    table = relabelled_table(source, draw(st.permutations(range(n))))
    return FiniteAlgebra(field, tuple(f"b{i}" for i in range(n)), table)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associative_tables_multiply_like_the_reference(field, data):
    alg = data.draw(relabelled_algebras(field))
    vectors = st.tuples(*[scalars(field)] * alg.dim)
    u, v = data.draw(vectors), data.draw(vectors)
    want = dense_mul(field, alg.table, u, v)
    assert alg.mul(u, v) == want
    assert alg.sparse_mul(nonzero_entries(field, u), nonzero_entries(field, v)) \
        == dict(nonzero_entries(field, want))


def associativity_outcome(check):
    try:
        check()
    except StructureError as err:
        return err.rule, err.witness
    return None


def kernel_outcome(field, table):
    """The verdict of FiniteAlgebra's associativity check on the table,
    with field add and mul raising."""
    def arithmetic(self, a, b):
        raise RuntimeError("field arithmetic called")

    labels = tuple(f"b{i}" for i in range(len(table)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(field), "add", arithmetic)
        mp.setattr(type(field), "mul", arithmetic)
        return associativity_outcome(lambda: FiniteAlgebra(field, labels, table))


def reference_outcome(field, table):
    labels = tuple(f"b{i}" for i in range(len(table)))
    return associativity_outcome(lambda: dense_check_associativity(field, labels, table))


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_index_tables_are_checked_without_arithmetic_at_the_reference_witness(field, data):
    table = data.draw(index_tables())
    assert kernel_outcome(field, table) == reference_outcome(field, table)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@pytest.mark.parametrize("table", ASSOCIATIVE_INDEX_TABLES, ids=len)
def test_semigroup_and_groupoid_tables_are_associative(field, table):
    assert reference_outcome(field, table) is None
    assert kernel_outcome(field, table) is None


# ---------------------------------------------------------------------------
# the row kernels against the per-scalar references in util

KERNEL_FIELDS = (F2, F3, GF(5), QQ)


@st.composite
def kernel_matrices(draw, field, ncols=None):
    """(ncols, rows): 1-6 rows of ncols columns (by default 1-6), each
    drawn at random (half of its entries zero on average), or zero, or a
    repeat or a multiple of an earlier row."""
    n = ncols or draw(st.integers(1, 6))
    entry = st.one_of(st.just(field.zero), scalars(field))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("random", "zero", "repeat", "multiple")))
        if kind == "zero":
            rows.append((field.zero,) * n)
        elif kind != "random" and rows:
            row = draw(st.sampled_from(rows))
            c = draw(scalars(field))
            rows.append(row if kind == "repeat" else tuple(field.mul(c, a) for a in row))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    return n, rows


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v, strict=True):
        acc = field.add(acc, field.mul(a, b))
    return acc


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_and_nullspace_match_the_per_scalar_reference(field, data):
    n, rows = data.draw(kernel_matrices(field))
    reduced, rank = rref(field, rows)
    assert (reduced, rank) == reference_rref(field, rows)
    kernel = nullspace(field, rows, n)
    assert reference_rref(field, kernel) == (kernel, n - rank)
    assert all(field.is_zero(_dot(field, row, v)) for row in rows for v in kernel)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reduce_and_contains_match_the_per_scalar_reference(field, data):
    n, rows = data.draw(kernel_matrices(field))
    space = Subspace.span(field, n, rows)
    _, probes = data.draw(kernel_matrices(field, n))
    for v in [*rows, *probes, *space.basis]:
        residue = reference_reduce(space, v)
        assert space.reduce(v) == residue
        assert space.contains(v) == all(field.is_zero(a) for a in residue)
    for v in rows:
        assert space.contains(v)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ideal_generate_matches_the_per_scalar_reference(field, data):
    alg = data.draw(relabelled_algebras(field, ASSOCIATIVE_INDEX_TABLES + NON_PRINCIPAL_TABLES))
    _, generators = data.draw(kernel_matrices(field, alg.dim))
    assert ideal_generate(alg, generators) == reference_ideal_generate(alg, generators)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_operations_match_the_field_operations(field, data):
    n, rows = data.draw(kernel_matrices(field))
    u, v = rows[0], rows[-1]
    c = data.draw(scalars(field))
    assert field.row_scale(c, u) == [field.mul(c, a) for a in u]
    w = list(u)
    field.row_sub_at(w, c, nonzero_entries(field, v))
    assert w == [field.sub(a, field.mul(c, b)) for a, b in zip(u, v)]
    assert vec_is_zero(field, w) == all(field.is_zero(a) for a in w)
    assert nonzero_entries(field, w) == tuple(
        (j, a) for j, a in enumerate(w) if not field.is_zero(a))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_ragged_rows_raise_value_error(field):
    one, zero = field.one, field.zero
    for ragged in ([(one, zero), (one,)], [(zero,), (one, one)], [(), (one,)]):
        for kernel in (rref, reference_rref):
            with pytest.raises(ValueError, match="ragged"):
                kernel(field, ragged)
        with pytest.raises(ValueError):
            nullspace(field, ragged, 2)
        with pytest.raises(ValueError):
            Subspace.span(field, 2, ragged)


# ---------------------------------------------------------------------------
# representations

def test_left_regular_mod_full_ideal_is_zero_dimensional():
    alg = z2_algebra(F2)
    rep = left_regular_mod(alg, Subspace.full(F2, 2))
    assert rep.space_dim == 0
    assert rep.kernel() == Subspace.full(F2, 2)


def test_left_regular_mod_zero_ideal_is_faithful():
    alg = z2_algebra(F2)
    rep = left_regular_mod(alg, Subspace.zero(F2, 2))
    assert rep.space_dim == 2
    assert rep.kernel() == Subspace.zero(F2, 2)
    assert rep.is_nondegenerate()


def test_left_regular_mod_augmentation_quotient():
    alg = z2_algebra(F2)
    aug = Subspace.span(F2, 2, [(1, 1)])
    rep = left_regular_mod(alg, aug)
    assert rep.space_dim == 1
    assert rep.kernel() == aug
    # g acts as 1 on the one-dimensional quotient
    assert rep.images[1] == rep.images[0]


def test_left_regular_mod_rejects_non_ideal():
    alg = matrix_units_algebra(F2)
    with pytest.raises(StructureError):
        left_regular_mod(alg, Subspace.span(F2, 4, [unit_vector(F2, 4, 0)]))


def test_zero_representation_kernel_is_everything():
    alg = z2_algebra(F2)
    zero_mat = ((0,),)
    rep = Representation(alg, 1, (zero_mat, zero_mat))
    assert rep.kernel() == Subspace.full(F2, 2)
    assert not rep.is_nondegenerate()


def test_representation_rejects_non_multiplicative_images():
    alg = z2_algebra(F3)
    ident = ((1, 0), (0, 1))
    shear = ((1, 1), (0, 1))  # order 3, cannot represent an involution
    with pytest.raises(StructureError) as err:
        Representation(alg, 2, (ident, shear))
    assert err.value.rule == "representation-multiplicativity"
    assert err.value.witness == ("g", "g")


# ---------------------------------------------------------------------------
# linear combinations and the homomorphism check

def test_lincomb_skips_zero_coefficients_and_scales_the_rest():
    vectors = [(1, 2, 0), (0, 1, 1), (2, 2, 2)]
    assert lincomb(F3, [2, 0, 1], vectors, 3) == (1, 0, 2)
    assert lincomb(F3, [], [], 3) == (0, 0, 0)


def test_lincomb_rejects_misaligned_or_misshapen_input():
    with pytest.raises(ValueError):
        lincomb(F3, [1, 1], [(1, 0)], 2)
    with pytest.raises(ValueError):
        lincomb(F3, [1], [(1, 0, 0)], 2)


def test_mat_lincomb_combines_square_matrices():
    a = ((1, 0), (0, 1))
    b = ((0, 1), (1, 0))
    assert mat_lincomb(F3, [2, 1], [a, b], 2) == ((2, 1), (1, 2))
    assert mat_lincomb(F3, [0, 0], [a, b], 2) == ((0, 0), (0, 0))


def test_length_checks_survive_without_assert():
    with pytest.raises(ValueError):
        vec_add(F2, (1, 0), (1,))
    with pytest.raises(ValueError):
        mat_from_columns(F2, [(1, 0), (1,)], 2)
    # FiniteAlgebra tables: a row per label, an entry per label, and every
    # target a basis index
    for table in (((0, 1),), ((0, 1), (1,)), ((0, 1), (1, 2)), ((0, -1), (1, 0))):
        with pytest.raises(ValueError):
            FiniteAlgebra(F2, ("1", "g"), table)


def test_identity_on_matrix_units_is_a_homomorphism():
    alg = matrix_units_algebra(F3)
    check_algebra_hom(alg, alg, [alg.basis_vector(i) for i in range(alg.dim)], "any-rule")


def test_transpose_on_matrix_units_is_rejected_with_the_callers_rule():
    alg = matrix_units_algebra(F3)
    transpose = [alg.basis_vector(i) for i in (0, 2, 1, 3)]  # e12 <-> e21
    with pytest.raises(StructureError) as err:
        check_algebra_hom(alg, alg, transpose, "my-bridge-multiplicative")
    assert err.value.rule == "my-bridge-multiplicative"
    assert err.value.witness == ("e11", "e12")
    assert err.value.indices == (0, 1)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_homomorphism_check_fails_at_the_reference_pair(field, data):
    alg = data.draw(relabelled_algebras(field))
    n, labels = alg.dim, alg.labels
    images = [list(alg.basis_vector(i)) for i in range(n)]
    for _ in range(data.draw(st.integers(0, 2))):  # perturb a few images
        k = data.draw(st.integers(0, n - 1))
        w = data.draw(st.tuples(*[scalars(field)] * n))
        images[k] = [field.add(a, b) for a, b in zip(images[k], w)]
    images = [tuple(v) for v in images]
    want = dense_check_algebra_hom(alg, alg, images)
    if want is None:
        check_algebra_hom(alg, alg, images, "r")
        return
    with pytest.raises(HomomorphismError) as err:
        check_algebra_hom(alg, alg, images, "r")
    assert err.value.rule == "r"
    assert err.value.indices == want
    assert err.value.witness == (labels[want[0]], labels[want[1]])


@st.composite
def basis_maps(draw, field):
    """(src, dst, perm): monomial algebras on relabelled associative index
    tables and a basis map e_i -> e_perm[i].  Either dst is src relabelled
    and perm the relabelling (an isomorphism), or dst is any such algebra
    and perm any map, injective or not; either way one value of perm may
    then be redirected."""
    def relabelled(table):
        return relabelled_table(table, draw(st.permutations(range(len(table)))))

    src_table = relabelled(draw(st.sampled_from(ASSOCIATIVE_INDEX_TABLES)))
    n = len(src_table)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        dst_table = relabelled_table(src_table, perm)
    else:
        dst_table = relabelled(draw(st.sampled_from(ASSOCIATIVE_INDEX_TABLES)))
        perm = draw(st.lists(st.integers(0, len(dst_table) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        perm[draw(st.integers(0, n - 1))] = draw(st.integers(0, len(dst_table) - 1))
    src = FiniteAlgebra(field, tuple(f"b{i}" for i in range(n)), src_table)
    dst = FiniteAlgebra(field, tuple(f"c{i}" for i in range(len(dst_table))), dst_table)
    return src, dst, perm


def hom_outcome(src, dst, images, *, no_arithmetic=False):
    """(failing pair or None, whether the basis-map branch ran) of
    check_algebra_hom; with no_arithmetic, field add and mul raise."""
    branch = []
    check = exactlin.check_permutation_hom

    def spy(*args):
        branch.append(True)
        return check(*args)

    def arithmetic(self, a, b):
        raise RuntimeError("field arithmetic called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "check_permutation_hom", spy)
        if no_arithmetic:
            mp.setattr(type(src.field), "add", arithmetic)
            mp.setattr(type(src.field), "mul", arithmetic)
        try:
            check_algebra_hom(src, dst, images, "r")
        except HomomorphismError as err:
            i, j = err.indices
            assert (err.rule, err.witness) == ("r", (src.labels[i], src.labels[j]))
            return err.indices, bool(branch)
    return None, bool(branch)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_basis_maps_are_checked_by_index_at_the_reference_pair(field, data):
    src, dst, perm = data.draw(basis_maps(field))
    images = [unit_vector(field, dst.dim, p) for p in perm]
    verdict, basis_branch = hom_outcome(src, dst, images, no_arithmetic=True)
    assert basis_branch
    assert verdict == dense_check_algebra_hom(src, dst, images)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_images_off_the_basis_take_the_general_branch(field, data):
    src, dst, perm = data.draw(basis_maps(field))
    images = [unit_vector(field, dst.dim, p) for p in perm]
    k = data.draw(st.integers(0, src.dim - 1))
    other = unit_vector(field, dst.dim, data.draw(st.integers(0, dst.dim - 1)))
    images[k] = data.draw(st.sampled_from((
        zero_vector(field, dst.dim),
        lincomb(field, [field.of(2)], [images[k]], dst.dim),
        vec_add(field, images[k], other),
    )))
    verdict, basis_branch = hom_outcome(src, dst, images)
    assert not basis_branch
    assert verdict == dense_check_algebra_hom(src, dst, images)


def test_homomorphism_check_rejects_wrong_image_shapes():
    alg = matrix_units_algebra(F2)
    with pytest.raises(ValueError):
        check_algebra_hom(alg, alg, [alg.basis_vector(0)], "r")
    with pytest.raises(ValueError):
        check_algebra_hom(alg, z2_algebra(F2), [alg.basis_vector(0)] * 4, "r")


# ---------------------------------------------------------------------------
# the brute-force ideal oracle

def test_enumerate_subspaces_counts():
    assert len(list(enumerate_subspaces(F2, 2))) == 5
    assert len(list(enumerate_subspaces(F3, 2))) == 6


def test_enumerate_ideals_of_the_field_itself():
    alg = FiniteAlgebra(F2, ("u",), ((0,),))
    ideals = enumerate_ideals(alg)
    assert [i.dim for i in ideals] == [0, 1]


def test_enumerate_ideals_of_group_algebra():
    alg = z2_algebra(F2)
    ideals = enumerate_ideals(alg)
    assert [i.dim for i in ideals] == [0, 1, 2]
    assert ideals[1] == Subspace.span(F2, 2, [(1, 1)])


def test_matrix_algebra_is_simple():
    alg = matrix_units_algebra(F2)
    ideals = enumerate_ideals(alg)
    assert [i.dim for i in ideals] == [0, 4]


def test_enumeration_guards():
    with pytest.raises(GuardError):
        enumerate_ideals(matrix_units_algebra(F2), dim_limit=3)
    with pytest.raises(GuardError):
        enumerate_ideals(z2_algebra(QQ))
    assert exactlin.LINE_LIMIT < 10008
    with pytest.raises(GuardError, match="10008"):  # p + 1 lines of K^2
        enumerate_ideals(z2_algebra(GF(10007)))
    with pytest.raises(GuardError):
        list(enumerate_subspaces(QQ, 2))


# ---------------------------------------------------------------------------
# the principal-ideal oracle and the ideal closure against the references

def random_vectors(data, field, n, max_size):
    return data.draw(st.lists(st.tuples(*[scalars(field)] * n), max_size=max_size))


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_basis_multiples_and_is_ideal_match_dense_products(field, data):
    """generator_multiples gives e_a v and then v e_a for each generating a,
    in that order, once per distinct map j -> e_a e_j or j -> e_j e_a and
    without the identity map; every multiple it leaves out is v itself or
    one it gives."""
    alg = data.draw(relabelled_algebras(field))
    n = alg.dim
    v = data.draw(st.tuples(*[scalars(field)] * n))
    generators = alg.generating_indices
    reference = basis_multiples_reference(alg, v)
    maps = ([alg.table[a] for a in generators]
            + [tuple(row[a] for row in alg.table) for a in generators])
    multiples = [reference[a] for a in generators] + [reference[n + a] for a in generators]
    expected, seen = [], {tuple(range(n))}
    for pi, w in zip(maps, multiples):
        if pi not in seen:
            seen.add(pi)
            expected.append(w)
    assert alg.generator_multiples(v) == expected
    assert all(w == tuple(v) or w in expected for w in multiples)
    space = Subspace.span(field, n, random_vectors(data, field, n, 3))
    assert is_ideal(alg, space) == reference_is_ideal(alg, space)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ideals_over_generators_match_all_basis_multiples(field, data):
    """On monomial algebras, whose generators are often fewer than the
    basis, is_ideal and ideal_generate agree with the references that use
    every basis multiple, on ideals and on random subspaces."""
    alg = data.draw(relabelled_algebras(field, ASSOCIATIVE_INDEX_TABLES + (_cyclic(6),)))
    n = alg.dim
    generators = random_vectors(data, field, n, 2)
    ideal = ideal_generate(alg, generators)
    assert ideal == fixpoint_ideal_generate(alg, generators)
    assert is_ideal(alg, ideal) and reference_is_ideal(alg, ideal)
    for extra in (random_vectors(data, field, n, 2), random_vectors(data, field, n, 2)):
        space = Subspace.span(field, n, list(ideal.basis) + extra)
        assert is_ideal(alg, space) == reference_is_ideal(alg, space)


def test_generating_indices_of_monomial_algebras():
    for field in SCALAR_FIELDS:
        assert FiniteAlgebra(
            field, tuple(range(24)), _cyclic(24)).generating_indices == (0, 1)
    for n in (6, 12):
        cp = crossed_product(rotation_system(n, 2), F3)
        assert cp.algebra.generating_indices == (0, 1, 2, 3)


def test_is_ideal_on_a_cyclic_group_algebra_forms_only_generator_multiples(monkeypatch):
    """K[Z/24] is generated by e_0 and e_1, so is_ideal forms and tests one
    multiple per basis vector of the subspace, not 2 * 24: e_0 is the unit,
    whose maps are the identity, and e_1 commutes, so e_1 v = v e_1."""
    alg = FiniteAlgebra(F3, tuple(range(24)), _cyclic(24))
    augmentation = ideal_generate(alg, [(1, 2) + (0,) * 22])
    line = Subspace.span(F3, 24, [(1, 2) + (0,) * 22])
    tested = count_calls(monkeypatch, Subspace, "contains")
    assert augmentation.dim == 23
    assert is_ideal(alg, augmentation)
    assert len(tested) == 23
    tested.clear()
    assert not is_ideal(alg, line)
    assert len(tested) == 1


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ideal_generate_matches_the_fixpoint_reference(field, data):
    alg = data.draw(relabelled_algebras(field, ASSOCIATIVE_INDEX_TABLES + NON_PRINCIPAL_TABLES))
    n = alg.dim
    generators = random_vectors(data, field, n, 3)
    ideal = ideal_generate(alg, generators)
    assert ideal == fixpoint_ideal_generate(alg, generators)
    assert is_ideal(alg, ideal)


def test_ideal_generate_edge_cases():
    for field in SCALAR_FIELDS:
        empty = FiniteAlgebra(field, (), ())
        assert ideal_generate(empty, []) == Subspace.zero(field, 0) == Subspace.full(field, 0)
        assert ideal_generate(empty, [()]) == Subspace.zero(field, 0)
        alg = matrix_units_algebra(field)
        assert ideal_generate(alg, []) == Subspace.zero(field, 4)
        assert ideal_generate(alg, [zero_vector(field, 4)]) == Subspace.zero(field, 4)
        with pytest.raises(ValueError):
            ideal_generate(alg, [unit_vector(field, 4, 0), (field.one,) * 3])
        with pytest.raises(ValueError):
            alg.generator_multiples(())


def upper_triangular_algebra(field) -> FiniteAlgebra:
    """T_2: upper triangular 2 x 2 matrices on e11, e12, e22."""
    return FiniteAlgebra(
        field, ("e11", "e12", "e22"),
        ((0, 1, None), (None, None, 1), (None, None, 2)))


@pytest.mark.parametrize("field", (F2, F3), ids=str)
def test_upper_triangular_ideals_match_brute_force(field):
    alg = upper_triangular_algebra(field)
    ideals = enumerate_ideals(alg)
    assert ideals == brute_force_ideals(alg)
    assert [i.basis for i in ideals] == [
        (), ((0, 1, 0),), ((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


S3_ELEMENTS = list(itertools.permutations(range(3)))
S3_TABLE = tuple(tuple(S3_ELEMENTS.index(tuple(g[h[k]] for k in range(3))) for h in S3_ELEMENTS)
                 for g in S3_ELEMENTS)
# the monoid {1, g, z}, g^2 = 1 and z absorbing: g permutes the basis, z does not
ONE_G_Z_TABLE = ((0, 1, 2), (1, 0, 2), (2, 2, 2))


def test_noncommutative_group_algebra_ideals_match_brute_force():
    alg = FiniteAlgebra(F2, tuple(map(str, S3_ELEMENTS)), S3_TABLE)
    ideals = enumerate_ideals(alg)
    assert ideals == brute_force_ideals(alg)
    assert [i.dim for i in ideals] == [0, 1, 2, 4, 5, 6]


ORACLE_SYSTEMS = {f"rot{n}on{d}": (lambda n=n, d=d: rotation_system(n, d))
                  for n, d in ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2))}
ORACLE_SYSTEMS.update(FIXTURES)
ORACLE_SYSTEMS["klein4on1"] = klein_four_system
ORACLE_SYSTEMS["z2xz3on1"] = z2_times_z3_system
# name -> the algebra over a given field: the crossed product of each
# system, and a monoid algebra, which no crossed product's basis gives
ORACLE_ALGEBRAS = {name: (lambda field, system=system: crossed_product(system(), field).algebra)
                   for name, system in ORACLE_SYSTEMS.items()}
ORACLE_ALGEBRAS["monoid1gz"] = lambda field: FiniteAlgebra(
    field, ("1", "g", "z"), ONE_G_Z_TABLE)


# K[x, y]/(x, y)^2, K[Z/2 x Z/2] and the zero algebra on K^2 have ideals
# that are not principal, such as (x, y); the oracle reaches them as sums
NON_PRINCIPAL_TABLES = (
    ((0, 1, 2), (1, None, None), (2, None, None)),
    tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
    ((None, None), (None, None)),
)


def test_sums_of_principal_ideals_are_enumerated():
    alg = FiniteAlgebra(F3, ("1", "x", "y"), NON_PRINCIPAL_TABLES[0])
    ideals = enumerate_ideals(alg)
    maximal = Subspace.span(F3, 3, [(0, 1, 0), (0, 0, 1)])
    assert maximal in ideals
    assert all(ideal_generate(alg, [v]) != maximal
               for v in itertools.product(F3.elements(), repeat=3))
    # 0, the four lines of (x, y), (x, y) itself and the whole algebra
    assert len(ideals) == 7 and ideals == brute_force_ideals(alg)


# T_3, upper triangular 3 x 3 matrices on the e_ij with i <= j
T3_UNITS = [(i, j) for i in range(3) for j in range(i, 3)]
T3_TABLE = tuple(tuple(T3_UNITS.index((a, d)) if b == c else None for c, d in T3_UNITS)
                 for a, b in T3_UNITS)
SUM_LATTICE_TABLES = {"T3": T3_TABLE, "zero3": ((None,) * 3,) * 3,
                      **{f"nonprincipal{i}": t for i, t in enumerate(NON_PRINCIPAL_TABLES)}}


@pytest.mark.parametrize("name, p", [(name, p) for p in (2, 3) for name in SUM_LATTICE_TABLES
                                     if (name, p) != ("T3", 3)])
def test_ideals_that_need_sums_match_brute_force(name, p):
    """Lattices with principal ideals nested several deep, or with ideals
    that are no principal ideal, where the oracle's rule skips most sums
    or must still form them all."""
    table = SUM_LATTICE_TABLES[name]
    alg = FiniteAlgebra(GF(p), tuple(f"b{i}" for i in range(len(table))), table)
    assert enumerate_ideals(alg) == brute_force_ideals(alg)


# the brute force runs through dim 6 over F2 and dim 5 over F3
@pytest.mark.parametrize("name, p", [(name, p) for p in (2, 3) for name in sorted(ORACLE_ALGEBRAS)
                                     if (name, p) not in {("rot6on1", 3), ("z2xz3on1", 3)}])
def test_principal_ideal_oracle_lists_the_brute_force_ideals_in_order(name, p):
    alg = ORACLE_ALGEBRAS[name](GF(p))
    assert enumerate_ideals(alg) == brute_force_ideals(alg)


LEMMA_TABLES = (*(_cyclic(n) for n in range(1, 7)), S3_TABLE,
                z2_times_z3_system().semigroup.mult, ONE_G_Z_TABLE)


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_basis_permutations_keep_the_principal_ideal(field, data):
    """Each map the oracle takes orbits under is multiplication by a basis
    element on one side, and sends v to a generator of the same ideal."""
    table = data.draw(st.sampled_from(LEMMA_TABLES))
    n = len(table)
    alg = FiniteAlgebra(field, tuple(f"b{i}" for i in range(n)), table)
    v = data.draw(st.tuples(*[scalars(field)] * n))
    basis = [alg.basis_vector(a) for a in range(n)]
    multiples = {alg.mul(e, v) for e in basis} | {alg.mul(v, e) for e in basis}
    perms = exactlin._basis_permutations(alg)
    assert perms or n == 1
    for perm in perms:
        assert perm(v) in multiples
        assert ideal_generate(alg, [perm(v)]) == ideal_generate(alg, [v])


def test_f3_cyclic_six_oracle_uses_principal_ideals_only(monkeypatch):
    calls = {name: count_calls(monkeypatch, exactlin, name)
             for name in ("ideal_generate", "is_ideal", "subspace_sum")}
    table = tuple(tuple((a + b) % 6 for b in range(6)) for a in range(6))
    alg = FiniteAlgebra(F3, tuple(f"g{k}" for k in range(6)), table)
    ideals = enumerate_ideals(alg)
    # one ideal_generate per orbit of the lines of F3^6 under the shift
    # g_k -> g_(k+1), which is multiplication by g1
    lines, orbits = {v for v in itertools.product(range(3), repeat=6) if any(v)}, 0
    while lines:
        v = lines.pop()
        lines -= {tuple(c * x % 3 for x in v[k:] + v[:k]) for k in range(6) for c in (1, 2)}
        orbits += 1
    assert orbits == 67
    # the sums: J + P only where P is not in J and every principal ideal
    # strictly inside P is
    assert {name: len(args) for name, args in calls.items()} == \
        {"ideal_generate": orbits, "is_ideal": 0, "subspace_sum": 22}
    # F3[Z/6] = F3[x]/((x - 1)^3 (x + 1)^3): the ideals are generated by
    # (x - 1)^a (x + 1)^b for 0 <= a, b <= 3
    one, x = alg.basis_vector(0), alg.basis_vector(1)
    minus, plus = lincomb(F3, [1, 2], [x, one], 6), lincomb(F3, [1, 1], [x, one], 6)
    generators = []
    for a in range(4):
        for b in range(4):
            g = one
            for factor in [minus] * a + [plus] * b:
                g = alg.mul(g, factor)
            generators.append(g)
    assert set(ideals) == {ideal_generate(alg, [g]) for g in generators}
    assert [i.dim for i in ideals] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6]
