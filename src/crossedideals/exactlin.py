"""Exact linear algebra over prime fields and the rationals.

Everything downstream (ideal lattices, induced ideals, intersection
certificates) reduces to subspace comparisons, so subspaces are kept in
canonical reduced row echelon form: two subspaces are equal iff their basis
matrices are equal, with no tolerances anywhere.

Scalars are plain ints in [0, p) for prime fields and fractions.Fraction
for the rationals.  Matrices are tuples of row tuples; vectors are tuples.

Every algebra here has a monomial basis, so FiniteAlgebra(field, labels,
table) holds one index table, table[i][j] the index of e_i e_j or None
for zero; its elements, subspaces and homomorphism images are arbitrary
vectors.  first_nonassociative is the one associativity check for tables
of indices: semigroups, isotropy groups, groupoids and algebras.  It and
the ideal tests is_ideal and ideal_generate work over a generating set of
the table (generating_indices) rather than every basis element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence


class StructureError(ValueError):
    """An algebraic axiom failed.  Carries the rule name and a witness."""

    def __init__(self, rule, witness=None, message=None):
        self.rule = rule
        self.witness = witness
        super().__init__(message or f"{rule}: witness {witness!r}")


class AssociativityError(StructureError):
    """An associativity failure at the basis triple indices = (i, j, k).
    The witness holds the labels of the triple; the indices stay exact
    where labels repeat."""

    def __init__(self, indices: tuple, labels: Sequence):
        self.indices = indices
        super().__init__("associativity", tuple(labels[m] for m in indices))


class HomomorphismError(StructureError):
    """A multiplicativity failure at the source basis pair indices = (i, j),
    with the labels of the pair as the witness."""

    def __init__(self, rule: str, indices: tuple, labels: Sequence):
        self.indices = indices
        super().__init__(rule, tuple(labels[m] for m in indices))


class GuardError(ValueError):
    """A size guard was exceeded; the offending size is in the message."""


_PRIME_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_TEST_BOUND = 318665857834031151167461  # least strong pseudoprime to them all


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the witnesses 2, ..., 37, which is exact below
    _PRIME_TEST_BOUND; raises ValueError from there on."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"characteristic {n} is too large: primality is decided "
                         f"exactly only below {_PRIME_TEST_BOUND}")
    if n < 2 or any(n % a == 0 for a in _PRIME_WITNESSES):
        return n in _PRIME_WITNESSES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_WITNESSES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** m, n) != n - 1 for m in range(r)):
            return False
    return True


class Field:
    """Exact field arithmetic on plain scalars."""

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def of(self, x):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def to_text(self, a) -> str:
        raise NotImplementedError

    def to_json(self, a):
        raise NotImplementedError

    def elements(self):
        raise GuardError(f"cannot enumerate the elements of {self}")


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    zero = 0

    @property
    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def of(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator % self.p) * self.inv(den) % self.p
        return int(x) % self.p

    def to_text(self, a) -> str:
        return str(a % self.p)

    def to_json(self, a):
        return a % self.p

    def elements(self):
        return range(self.p)

    def __str__(self):
        return f"F{self.p}"


@dataclass(frozen=True)
class RationalField(Field):
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def of(self, x):
        return Fraction(x)

    def to_text(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def to_json(self, a):
        a = Fraction(a)
        return f"{a.numerator}/{a.denominator}"

    def __str__(self):
        return "Q"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(text: str) -> Field:
    """Parse a field description such as "Q", "F 2" or "F3"."""
    t = text.strip()
    if t in ("Q", "QQ", "q"):
        return QQ
    if t and t[0] in "Ff":
        body = t[1:].strip()
        if body.isdigit():
            return PrimeField(int(body))
    raise ValueError(f"unrecognized field {text!r}")


# ---------------------------------------------------------------------------
# vectors and matrices (tuples of scalars / tuples of row tuples)

def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def unit_vector(field: Field, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(field: Field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v, strict=True))


def vec_is_zero(field: Field, v) -> bool:
    return all(field.is_zero(a) for a in v)


def nonzero_entries(field: Field, v) -> tuple:
    """The nonzero entries of v as ((index, entry), ...), in index order."""
    return tuple((j, a) for j, a in enumerate(v) if not field.is_zero(a))


def lincomb(field: Field, coeffs, vectors, dim: int) -> tuple:
    """The sum of c * v over aligned coefficients and vectors of length
    dim, skipping zero coefficients and zero entries."""
    out = [field.zero] * dim
    for c, v in zip(coeffs, vectors, strict=True):
        if field.is_zero(c):
            continue
        if len(v) != dim:
            raise ValueError(f"vector of length {len(v)} in a combination of length {dim}")
        for j, a in enumerate(v):
            if not field.is_zero(a):
                out[j] = field.add(out[j], field.mul(c, a))
    return tuple(out)


def mat_lincomb(field: Field, coeffs, matrices, dim: int) -> tuple:
    """The sum of c * m over aligned coefficients and dim x dim matrices,
    formed row by row with lincomb."""
    live = [(c, m) for c, m in zip(coeffs, matrices, strict=True) if not field.is_zero(c)]
    scalars = [c for c, _ in live]
    return tuple(lincomb(field, scalars, [m[r] for _, m in live], dim) for r in range(dim))


def mat_vec(field: Field, m, v):
    """m applied to a column vector v (rows of m dot v)."""
    return tuple(
        _dot(field, row, v)
        for row in m
    )


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        if not (field.is_zero(a) or field.is_zero(b)):
            acc = field.add(acc, field.mul(a, b))
    return acc


def mat_mul(field: Field, a, b):
    if not a:
        return ()
    bt = tuple(zip(*b)) if b else ()
    out = []
    for row in a:
        if bt:
            out.append(tuple(_dot(field, row, col) for col in bt))
        else:
            out.append(())
    return tuple(out)


def mat_from_columns(field: Field, cols: Sequence, nrows: int):
    if not cols:
        return tuple(() for _ in range(nrows))
    for c in cols:
        if len(c) != nrows:
            raise ValueError(f"column of length {len(c)} in a matrix with {nrows} rows")
    return tuple(tuple(c[r] for c in cols) for r in range(nrows))


def identity_matrix(field: Field, n: int):
    return tuple(unit_vector(field, n, i) for i in range(n))


def rref(field: Field, rows: Iterable[Sequence]):
    """Canonical reduced row echelon form.

    Returns (matrix, rank).  Zero rows are dropped, pivots are normalized
    to 1 and are the only nonzero entries in their columns, so the result
    is the unique canonical basis of the row space.
    """
    work = [list(r) for r in rows]
    if not work:
        return (), 0
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    lead = 0
    for col in range(ncols):
        pivot = None
        for r in range(lead, len(work)):
            if not field.is_zero(work[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        inv = field.inv(work[lead][col])
        work[lead] = [field.mul(inv, a) for a in work[lead]]
        for r in range(len(work)):
            if r != lead and not field.is_zero(work[r][col]):
                c = work[r][col]
                work[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(work[r], work[lead])]
        lead += 1
        if lead == len(work):
            break
    out = tuple(tuple(r) for r in work[:lead])
    return out, lead


def row_pivots(field: Field, reduced) -> tuple:
    """Pivot column of each row of an RREF matrix."""
    pivots = []
    for row in reduced:
        for j, a in enumerate(row):
            if not field.is_zero(a):
                pivots.append(j)
                break
    return tuple(pivots)


def nullspace(field: Field, rows, ncols: int):
    """Canonical basis of {v : rows . v = 0} as an RREF matrix."""
    reduced, _ = rref(field, rows)
    pivots = row_pivots(field, reduced)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for row, p in zip(reduced, pivots):
            v[p] = field.neg(row[free])
        basis.append(v)
    out, _ = rref(field, basis)
    return out


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as a canonical RREF basis (no zero rows)."""

    field: Field
    ambient_dim: int
    basis: tuple

    @staticmethod
    def span(field: Field, ambient_dim: int, vectors: Iterable) -> "Subspace":
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError(f"vector of length {len(v)} in ambient dim {ambient_dim}")
        reduced, _ = rref(field, vectors)
        return Subspace(field, ambient_dim, reduced)

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, identity_matrix(field, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _sparse_rows(self) -> tuple:
        """Each basis row as its ((column, entry), ...) nonzero entries;
        the first entry sits at the row's pivot."""
        return tuple(nonzero_entries(self.field, row) for row in self.basis)

    @cached_property
    def pivots(self) -> tuple:
        return tuple(entries[0][0] for entries in self._sparse_rows)

    def reduce(self, v) -> tuple:
        """Residue of v after eliminating every pivot coordinate."""
        f = self.field
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for entries in self._sparse_rows:
            c = v[entries[0][0]]
            if not f.is_zero(c):
                for j, a in entries:
                    v[j] = f.sub(v[j], f.mul(c, a))
        return tuple(v)

    def contains(self, v) -> bool:
        return vec_is_zero(self.field, self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, v) -> tuple:
        """Coefficients of v in the RREF basis; raises if v is outside."""
        if not self.contains(v):
            raise ValueError("vector not in subspace")
        return tuple(v[p] for p in self.pivots)

    def to_json(self):
        f = self.field
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "basis": [[f.to_json(a) for a in row] for row in self.basis],
        }


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace.span(a.field, a.ambient_dim, list(a.basis) + list(b.basis))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: reduce [[A|A],[B|0]]; rows with zero left half carry the
    intersection in their right half."""
    _check_same_ambient(a, b)
    f, n = a.field, a.ambient_dim
    stacked = [tuple(row) + tuple(row) for row in a.basis]
    stacked += [tuple(row) + zero_vector(f, n) for row in b.basis]
    reduced, _ = rref(f, stacked)
    inter = [row[n:] for row in reduced if vec_is_zero(f, row[:n])]
    return Subspace.span(f, n, inter)


def intersect_all(spaces: Sequence[Subspace]) -> Subspace:
    if not spaces:
        raise ValueError("empty intersection")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = subspace_intersect(acc, s)
    return acc


# ---------------------------------------------------------------------------
# quotients of K^n by a subspace

@dataclass(frozen=True)
class QuotientMap:
    """K^n -> K^n / W with the canonical complement basis.

    Coset coordinates are read off at the non-pivot positions of W's RREF
    basis; lifting places them back at those positions (the canonical
    coset representative).
    """

    subspace: Subspace
    coset_positions: tuple

    @staticmethod
    def of(subspace: Subspace) -> "QuotientMap":
        pivots = set(subspace.pivots)
        positions = tuple(j for j in range(subspace.ambient_dim) if j not in pivots)
        return QuotientMap(subspace, positions)

    @property
    def dim(self) -> int:
        return len(self.coset_positions)

    def project(self, v) -> tuple:
        r = self.subspace.reduce(v)
        return tuple(r[j] for j in self.coset_positions)

    def lift(self, w) -> tuple:
        if len(w) != self.dim:
            raise ValueError(f"coset vector of length {len(w)} in a quotient of dim {self.dim}")
        f = self.subspace.field
        v = [f.zero] * self.subspace.ambient_dim
        for j, c in zip(self.coset_positions, w):
            v[j] = c
        return tuple(v)


# ---------------------------------------------------------------------------
# finite-dimensional associative algebras

class FiniteAlgebra:
    """Associative algebra over an exact field with a monomial basis: the
    product of two basis vectors is a basis vector or zero, as for K^X,
    group, groupoid and crossed-product algebras.

    table[i][j] is the index k of e_i e_j = e_k, or None for zero.  The
    table's shape and indices are checked at construction, and then its
    associativity by first_nonassociative; a failure raises
    AssociativityError, which carries the failing triple by index as well
    as by label.  Elements, images and subspaces are arbitrary vectors.
    """

    def __init__(self, field: Field, labels: Sequence, table):
        self.field = field
        self.labels = tuple(labels)
        self.table = tuple(map(tuple, table))
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError(f"a table of {n} rows of {n} entries is required")
        bad = set().union(*self.table) - set(range(n)) - {None}
        if bad:
            raise ValueError(f"table target out of range: {min(bad, key=repr)!r}")
        self._check_associativity()

    @property
    def dim(self) -> int:
        return len(self.labels)

    def basis_vector(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def basis_product(self, i: int, j: int) -> tuple:
        k = self.table[i][j]
        return zero_vector(self.field, self.dim) if k is None else self.basis_vector(k)

    def sparse_mul(self, u, v) -> dict:
        """u v for vectors given by their nonzero entries ((index, entry),
        ...), as {k: entry} with zero entries dropped: the one product
        kernel, over the nonzero entries and the table alone."""
        f, table = self.field, self.table
        acc = {}
        for i, a in u:
            row = table[i]
            for j, b in v:
                k = row[j]
                if k is not None:
                    acc[k] = f.add(acc.get(k, f.zero), f.mul(a, b))
        return {k: c for k, c in acc.items() if not f.is_zero(c)}

    def mul(self, u, v) -> tuple:
        """u v for dense vectors, by sparse_mul."""
        f = self.field
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"vector lengths {len(u)}, {len(v)} in an algebra of dim {self.dim}")
        prod = self.sparse_mul(nonzero_entries(f, u), nonzero_entries(f, v))
        return tuple(prod.get(k, f.zero) for k in range(self.dim))

    @cached_property
    def _generator_maps(self) -> list:
        """For each a in generating_indices the row j -> e_a e_j of the
        table, and then for each a the column j -> e_j e_a."""
        gens, table = self.generating_indices, self.table
        return [table[a] for a in gens] + [tuple(row[a] for row in table) for a in gens]

    def generator_multiples(self, v) -> list:
        """e_a v and then v e_a for every a in generating_indices, as dense
        vectors, from one walk of the nonzero entries of v each."""
        f, n = self.field, self.dim
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} in an algebra of dim {n}")
        entries = nonzero_entries(f, v)
        multiples = []
        for targets in self._generator_maps:
            w = [f.zero] * n
            for j, b in entries:
                k = targets[j]
                if k is not None:
                    w[k] = f.add(w[k], b)
            multiples.append(tuple(w))
        return multiples

    def element_to_text(self, v) -> str:
        f = self.field
        terms = [
            f"{f.to_text(c)}*{self.labels[k]}"
            for k, c in enumerate(v)
            if not f.is_zero(c)
        ]
        return " + ".join(terms) if terms else "0"

    @cached_property
    def generating_indices(self) -> tuple:
        """Basis indices whose products generate the algebra, by
        exactlin.generating_indices on the table."""
        return generating_indices(self.table)

    def _check_associativity(self):
        """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple: each side
        is zero or a single basis vector, so the table of indices goes to
        first_nonassociative, with no field arithmetic."""
        failure = first_nonassociative(self.table)
        if failure is not None:
            raise AssociativityError(failure, self.labels)


def generating_indices(table) -> tuple:
    """A generating set of an index table (table[i][j] the index of
    e_i e_j, or None for zero), by greedy closure: the smallest index not
    yet reached becomes a generator, and the reached indices are closed
    under products with the generators on both sides.  Every index is
    reached by the end.  The closure multiplies only indices already
    reached, so it holds in any magma, associative or not; each reached
    index is a product of generators under some bracketing."""
    n = len(table)
    reached = [False] * n
    found, generators = [], []
    for g in range(n):
        if reached[g]:
            continue
        generators.append(g)
        row_g = table[g]
        queue = [g]
        for r in found:
            queue += (table[r][g], row_g[r])
        while queue:
            r = queue.pop()
            if r is None or reached[r]:
                continue
            reached[r] = True
            found.append(r)
            row_r = table[r]
            for a in generators:
                queue += (row_r[a], table[a][r])
    return tuple(generators)


def first_nonassociative(table):
    """The first (i, j, k) in lexicographic order at which (e_i e_j) e_k
    and e_i (e_j e_k) differ, or None.  table[i][j] is the index of e_i e_j,
    or None for zero.

    Pass or fail is Light's test over generating_indices(table) (Clifford
    and Preston, The Algebraic Theory of Semigroups I, 1.2): for each
    generator a and every x, the row of x a equals x times the row of a.
    That suffices: T = {a : (x a) y = x (a y) for all x, y} holds zero and
    is closed under products, since for a, b in T
    (x (a b)) y = ((x a) b) y = (x a)(b y) = x (a (b y)) = x ((a b) y),
    and every index is a product of generators.

    Only a fail runs the full scan for the first failing triple:
    e_i (e_j e_*) is row i read at the entries of row j, one list,
    compared with row ij: whole when row j has no zero; else at row j's
    nonzero positions and by the number of nonzero entries, both sides
    being zero where e_j e_k is.  Only a mismatch scans for k."""
    n = len(table)
    padded = [tuple(row) + (None,) for row in table]    # index n reads zero
    padded_zero = (None,) * (n + 1)

    def light_passes(a):
        """x (a y) == (x a) y for every x and y, one row per x."""
        times_row_a = itemgetter(*[n if c is None else c for c in table[a]], n)
        return list(map(times_row_a, padded)) == \
            [padded_zero if row[a] is None else padded[row[a]] for row in table]

    if all(light_passes(a) for a in generating_indices(table)):
        return None
    rows = [list(row) for row in table]
    keys = [[k for k, c in enumerate(row) if c is not None] for row in rows]
    values = [[row[k] for k in ks] for row, ks in zip(rows, keys)]
    zero = [None] * n
    for i, row_i in enumerate(rows):
        for j, ij in enumerate(row_i):
            row_ij = zero if ij is None else rows[ij]
            right = [row_i[c] for c in values[j]]
            if len(right) == n:
                if right == row_ij:
                    continue
            elif right == [row_ij[k] for k in keys[j]] and \
                    len(right) - right.count(None) == (0 if ij is None else len(keys[ij])):
                continue
            return next((i, j, k) for k, jk in enumerate(rows[j])
                        if row_ij[k] != (None if jk is None else row_i[jk]))
    return None


def check_algebra_hom(src: FiniteAlgebra, dst: FiniteAlgebra, images: Sequence, rule: str):
    """Verify that the linear map sending the i-th basis vector of src to
    images[i] is multiplicative: for every basis pair (i, j), in (i, j)
    order, the image of e_i e_j (images[k] for e_i e_j = e_k, or zero) must
    equal images[i] * images[j] in dst.  Both sides are formed from the
    nonzero entries of the images alone.  Raises
    HomomorphismError(rule, (i, j), src.labels), whose witness is
    (label_i, label_j), at the first pair that fails.

    When every image is a single basis vector with coefficient one (a
    basis map, as for the groupoid bridges), the same pairs are compared
    as basis indices with no field arithmetic."""
    f = src.field
    if dst.field != f:
        raise ValueError("algebras over different fields")
    if len(images) != src.dim or any(len(v) != dst.dim for v in images):
        raise ValueError("one image of length dst.dim per basis element required")
    entries = [nonzero_entries(f, v) for v in images]
    if all(len(e) == 1 and e[0][1] == f.one for e in entries):
        _check_permutation_hom(src.table, dst.table, [e[0][0] for e in entries],
                               rule, src.labels)
        return
    for i, row in enumerate(src.table):
        for j, k in enumerate(row):
            lhs = {} if k is None else dict(entries[k])
            if lhs != dst.sparse_mul(entries[i], entries[j]):
                raise HomomorphismError(rule, (i, j), src.labels)


def _check_permutation_hom(src_table, dst_table, perm, rule: str, labels):
    """The basis-map branch: images[i] = e_perm[i].  The image of e_i e_j
    is e_perm[k] for k = src_table[i][j], or zero, and images[i] images[j]
    is e_k' for k' = dst_table[perm[i]][perm[j]], or zero, so each pair is
    compared as an index or None, in the general branch's (i, j) order.
    perm need not be injective."""
    for i, row in enumerate(src_table):
        dst_row = dst_table[perm[i]]
        for j, pj in enumerate(perm):
            k = row[j]
            if (None if k is None else perm[k]) != dst_row[pj]:
                raise HomomorphismError(rule, (i, j), labels)


def is_ideal(algebra: FiniteAlgebra, space: Subspace) -> bool:
    """True iff the subspace is a two-sided ideal, tested by its closure
    under both multiplications by the generating basis elements alone.
    That suffices: the algebra was checked associative when built, so
    {x : x V <= V} is a subalgebra, and so is {x : V x <= V}; each holds
    the generating basis elements, whose products reach every basis
    element, and so is the whole algebra."""
    if space.field != algebra.field or space.ambient_dim != algebra.dim:
        raise ValueError("subspace does not live in the algebra")
    return all(space.contains(w) for v in space.basis
               for w in algebra.generator_multiples(v))


def ideal_generate(algebra: FiniteAlgebra, generators: Iterable) -> Subspace:
    """Smallest two-sided ideal containing the generators, by a worklist
    closure: each queued vector is reduced against the echelon rows found
    so far, and one that adds a row queues its generator_multiples.  The
    rows then span a subspace holding the generators and closed under
    both multiplications by the generating basis elements, an ideal by the
    argument of is_ideal, and every row lies in any ideal holding the
    generators."""
    f, n = algebra.field, algebra.dim
    queue = [tuple(v) for v in generators]
    for v in queue:
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} in ambient dim {n}")
    seen = set(queue)
    rows = {}    # pivot -> (row scaled to 1 there, its nonzero (column, entry))
    while queue and len(rows) < n:
        v = list(queue.pop())
        for p in sorted(rows):
            c = v[p]
            if not f.is_zero(c):
                for j, a in rows[p][1]:
                    v[j] = f.sub(v[j], f.mul(c, a))
        lead = next((j for j, a in enumerate(v) if not f.is_zero(a)), None)
        if lead is None:
            continue
        inv = f.inv(v[lead])
        row = tuple(f.mul(inv, a) for a in v)
        rows[lead] = (row, nonzero_entries(f, row))
        for w in algebra.generator_multiples(row):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(rows) == n:
        return Subspace.full(f, n)
    return Subspace.span(f, n, [row for row, _ in rows.values()])


# ---------------------------------------------------------------------------
# representations

class Representation:
    """Algebra homomorphism into matrices acting on column vectors.

    images[i] is the matrix of the i-th basis element; multiplicativity
    against the algebra's table is checked on every basis pair.
    """

    def __init__(self, algebra: FiniteAlgebra, space_dim: int, images: Sequence):
        self.algebra = algebra
        self.space_dim = space_dim
        self.images = tuple(tuple(tuple(row) for row in m) for m in images)
        if len(self.images) != algebra.dim:
            raise ValueError("one image per basis element required")
        for m in self.images:
            if len(m) != space_dim or any(len(row) != space_dim for row in m):
                raise ValueError("image has wrong shape")
        self._check_multiplicative()

    def _check_multiplicative(self):
        """images[i] images[j] against the image of e_i e_j (images[k] for
        e_i e_j = e_k, or the zero matrix) on every basis pair.  This stays
        a loop of its own rather than a check_algebra_hom into M_d(K): the
        product here is a d x d matrix product, d reaches the dimension of
        the algebra (left_regular_mod), and realising M_d(K) as a
        FiniteAlgebra would take d^2 basis elements and an associativity
        check over them."""
        f, d = self.algebra.field, self.space_dim
        zero = tuple(zero_vector(f, d) for _ in range(d))
        for i, row in enumerate(self.algebra.table):
            for j, k in enumerate(row):
                expected = zero if k is None else self.images[k]
                if mat_mul(f, self.images[i], self.images[j]) != expected:
                    raise StructureError(
                        "representation-multiplicativity",
                        (self.algebra.labels[i], self.algebra.labels[j]),
                    )

    def apply(self, coords) -> tuple:
        return mat_lincomb(self.algebra.field, coords, self.images, self.space_dim)

    def kernel(self) -> Subspace:
        """{a : image(a) = 0}, by one exact nullspace computation."""
        f = self.algebra.field
        n = self.algebra.dim
        rows = []
        for r in range(self.space_dim):
            for c in range(self.space_dim):
                rows.append(tuple(self.images[i][r][c] for i in range(n)))
        basis = nullspace(f, rows, n)
        return Subspace(f, n, basis)

    def is_nondegenerate(self) -> bool:
        """span{image(a) xi} is the whole space."""
        f = self.algebra.field
        cols = []
        for m in self.images:
            for k in range(self.space_dim):
                cols.append(tuple(m[r][k] for r in range(self.space_dim)))
        _, rank = rref(f, cols)
        return rank == self.space_dim


def left_regular_mod(algebra: FiniteAlgebra, ideal: Subspace) -> Representation:
    """Left multiplication on algebra/ideal.

    Requires the ideal to be two-sided and the algebra to admit local
    units (crossed products and Steinberg algebras always do); under that
    hypothesis the kernel is exactly the ideal and the representation is
    non-degenerate, both of which are verified here.
    """
    if not is_ideal(algebra, ideal):
        raise StructureError("quotient-by-non-ideal", None, "not a two-sided ideal")
    f = algebra.field
    qm = QuotientMap.of(ideal)
    lifted = [qm.lift(unit_vector(f, qm.dim, k)) for k in range(qm.dim)]
    images = []
    for i in range(algebra.dim):
        e = algebra.basis_vector(i)
        cols = [qm.project(algebra.mul(e, w)) for w in lifted]
        images.append(mat_from_columns(f, cols, qm.dim))
    rep = Representation(algebra, qm.dim, images)
    if rep.kernel() != ideal:
        raise StructureError("left-regular-kernel", None,
                             "kernel of the quotient action differs from the ideal "
                             "(the algebra lacks local units)")
    if not rep.is_nondegenerate():
        raise StructureError("left-regular-degenerate", None,
                             "quotient action is degenerate (no local units)")
    return rep


# ---------------------------------------------------------------------------
# exhaustive ideal oracle

def enumerate_subspaces(field: Field, n: int):
    """All subspaces of K^n for a prime field, one canonical RREF each,
    ordered by dimension then lexicographic pivot choice."""
    if not isinstance(field, PrimeField):
        raise GuardError("subspace enumeration needs a prime field")
    scalars = list(field.elements())
    for r in range(n + 1):
        for pivot_cols in itertools.combinations(range(n), r):
            free_slots = []
            for row_i, p in enumerate(pivot_cols):
                for col in range(p + 1, n):
                    if col not in pivot_cols:
                        free_slots.append((row_i, col))
            for assignment in itertools.product(scalars, repeat=len(free_slots)):
                rows = [[field.zero] * n for _ in range(r)]
                for row_i, p in enumerate(pivot_cols):
                    rows[row_i][p] = field.one
                for (row_i, col), val in zip(free_slots, assignment):
                    rows[row_i][col] = val
                yield Subspace(field, n, tuple(tuple(row) for row in rows))


# The oracle visits every line of K^n, making at most one ideal_generate
# each.  This caps their number, (p^n - 1)/(p - 1), so that a large
# characteristic is refused at once instead of running for hours; the cap
# admits F5 at dim 6 (3,906 lines), F3 at dim 9 and F2 at dim 13.
LINE_LIMIT = 10_000


def _basis_permutations(algebra: FiniteAlgebra) -> list:
    """The maps v -> e_a v, v -> v e_a that permute the basis, e_a generating."""
    n = algebra.dim
    perms = dict.fromkeys(pi for pi in algebra._generator_maps if set(pi) == set(range(n)))
    perms.pop(tuple(range(n)), None)
    return [itemgetter(*sorted(range(n), key=pi.__getitem__)) for pi in perms]


def enumerate_ideals(algebra: FiniteAlgebra, dim_limit: int = 6):
    """Exhaustive oracle: every two-sided ideal, in the order of
    enumerate_subspaces (by dimension, then pivot columns, then basis
    entries).  An ideal is the sum of the principal ideals of its basis
    vectors, so the ideals are the principal ideals <v> of the lines of
    K^n, the first subspaces enumerate_subspaces yields, closed under
    sums.  If e_a e_j = e_pi(j) for all j, pi a permutation of order m,
    then <e_a v> = <v>: e_a v lies in <v>, and v, e_a applied m - 1 times
    to e_a v, lies in <e_a v>; so too on the right, using no unit and no
    associativity.  So <v> is formed once per orbit of lines under
    _basis_permutations, and <v> lies in an ideal J iff v does.  The work
    is one ideal_generate per orbit, one reduce per (ideal, principal
    ideal) pair and one span per sum: far less than filtering every
    subspace when the ideal lattice is small, as for the crossed products
    the oracle runs on, but more when most subspaces are ideals (zero
    multiplication, each line its own orbit and principal ideal).
    Guarded to small prime-field algebras: to dim <= dim_limit and to at
    most LINE_LIMIT lines."""
    f, n = algebra.field, algebra.dim
    if not isinstance(f, PrimeField):
        raise GuardError("ideal enumeration needs a prime field")
    if n > dim_limit:
        raise GuardError(
            f"ideal enumeration guarded to dim <= {dim_limit}, got dim {n}")
    count = (f.p ** n - 1) // (f.p - 1)
    if count > LINE_LIMIT:
        raise GuardError(
            f"ideal enumeration guarded to {LINE_LIMIT} lines, got {count} "
            f"(p = {f.p}, dim {n})")
    perms = _basis_permutations(algebra)
    principal, marked = {}, set()    # principal ideal -> a line generating it
    for line in itertools.islice(enumerate_subspaces(f, n), 1, count + 1):
        v = line.basis[0]
        if v in marked:
            continue
        principal.setdefault(ideal_generate(algebra, [v]), v)
        orbit = [v]
        for u in (perm(w) for w in orbit for perm in perms):    # orbit grows
            if u not in marked:
                marked.update(tuple(f.mul(c, x) for x in u) for c in range(1, f.p))
                orbit.append(u)
    found = {Subspace.zero(f, n), *principal}
    frontier = list(principal)
    while frontier:
        ideal = frontier.pop()
        for p, v in principal.items():
            if not ideal.contains(v):
                total = subspace_sum(ideal, p)
                if total not in found:
                    found.add(total)
                    frontier.append(total)
    return sorted(found, key=lambda s: (s.dim, s.pivots, s.basis))
