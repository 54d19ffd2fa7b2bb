"""Exact linear algebra over prime fields and the rationals.

Everything downstream (ideal lattices, induced ideals, intersection
certificates) reduces to subspace comparisons, so subspaces are kept in
canonical reduced row echelon form: two subspaces are equal iff their basis
matrices are equal, with no tolerances anywhere.

Scalars are plain ints in [0, p) for prime fields and fractions.Fraction
for the rationals.  Matrices are tuples of row tuples; vectors are tuples.
Every scalar is kept canonical (an int reduced into [0, p), or a Fraction),
so a scalar is zero iff it is falsy: the elimination kernels test bool(a)
instead of calling Field.is_zero.  Their row operations are the field's
own, in native arithmetic: Field.row_scale (c * row) and Field.row_sub_at
(v_j -= c * a at the nonzero entries (j, a) of a row, in place), one % p
per entry touched for F_p.

Every algebra here has a monomial basis, so FiniteAlgebra(field, labels,
table) holds one index table, table[i][j] the index of e_i e_j or None
for zero; its elements, subspaces and homomorphism images are arbitrary
vectors.  An IndexTable is such a table, frozen, with its generating set
and its first failing triple kept on it: semigroups, isotropy groups,
groupoids and algebras each hold one and pass the same object on, so a
table is checked once.  Its associativity check is Light's test over the
generating set, each generator compared by whole rows or at its nonzero
entries only, whichever a rule fitted to measured times says is cheaper,
and the ideal tests is_ideal and ideal_generate too work over the
generating set rather than every basis element.  first_nonassociative
and generating_indices are the same two results for plain rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import is_not, itemgetter, ne
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

    def row_scale(self, c, row) -> list:
        """c * row, entry by entry."""
        raise NotImplementedError

    def row_sub_at(self, v: list, c, entries) -> None:
        """v_j -= c * a for each (j, a) in entries, in place."""
        raise NotImplementedError

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

    def row_scale(self, c, row) -> list:
        p = self.p
        return [c * a % p for a in row]

    def row_sub_at(self, v: list, c, entries) -> None:
        p = self.p
        for j, a in entries:
            v[j] = (v[j] - c * a) % p

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

    def row_scale(self, c, row) -> list:
        return [c * a for a in row]

    def row_sub_at(self, v: list, c, entries) -> None:
        for j, a in entries:
            v[j] -= c * a

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
    return not any(v)


def nonzero_entries(field: Field, v) -> tuple:
    """The nonzero entries of v as ((index, entry), ...), in index order."""
    return tuple((j, a) for j, a in enumerate(v) if a)


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
        pivot = next((r for r in range(lead, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[lead], work[pivot] = work[pivot], work[lead]
        work[lead] = field.row_scale(field.inv(work[lead][col]), work[lead])
        entries = nonzero_entries(field, work[lead])
        for r, row in enumerate(work):
            if r != lead and row[col]:
                field.row_sub_at(row, row[col], entries)
        lead += 1
        if lead == len(work):
            break
    out = tuple(tuple(r) for r in work[:lead])
    return out, lead


def row_pivots(field: Field, reduced) -> tuple:
    """Pivot column of each row of an RREF matrix."""
    return tuple(next(j for j, a in enumerate(row) if a) for row in reduced)


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
        sub_at = self.field.row_sub_at
        v = list(v)
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        for entries in self._sparse_rows:
            c = v[entries[0][0]]
            if c:
                sub_at(v, c, entries)
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
# index tables

class _kept:
    """functools.cached_property without its lock, which Python 3.11 takes
    at every first read (0.4 us of the 5 us that checking a 2 x 2 table
    takes).  The first read computes the value and stores it in the
    instance's __dict__, where every later read finds it."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


def _sparse_reads_pay(n: int, r: int, c: int) -> bool:
    """Whether Light's test on an n x n table compares a generator whose
    row holds r nonzero entries and whose column holds c at those entries
    only (_passes_at_nonzero: r c reads and O(n + c) bookkeeping) rather
    than by whole rows (about n^2 reads).  The rule is fitted to the
    per-generator times of both comparisons on CPython 3.11 (x86-64): 100
    generators of 81 tables of 2-96 indices, group, pair-groupoid,
    Brandt, chain, diagonal and crossed-product tables.  Its pick was at
    most 5.2 % slower than the other, at the crossover, the 16- and
    17-index tables of B_4 (whole rows 7.0-7.7 us, nonzero entries
    7.2-7.3 us); it reads the nonzero entries of B_5's tables (25 and 26
    indices: 14.0 -> 9.1 us) and of B_6's (36: 24.8 -> 10.6 us), and
    whole rows that are half full up to about 40 indices (Z/12 rotating
    two points, 24: 13.7 us, against 16.3 us).  It never picks the
    nonzero entries below 10 indices."""
    return 2 * (r * c + 16 * c + 3 * n + 16) < n * n


def _passes_at_nonzero(table, zero, zeros, row_a, col_a, in_row, in_col) -> bool:
    """Light's test at one generator a of an n x n table, read at the
    nonzero entries only: row_a and col_a are row and column a, with
    in_row and in_col nonzero entries, zeros the numbers of zero entries
    of each row and of each column.  The sides are compared at the x with
    x a nonzero and the y with a y nonzero, and everywhere else one side
    is zero, (x a) y or x (a y), so the other must be zero too, which
    counts of zero entries decide.  Off the y compared, (x a) y is zero
    iff the compared part of row x a holds every nonzero entry of that
    row; off the x compared, x (a y) is zero iff the compared part of the
    columns a y holds every nonzero entry of those columns.  Each compared
    part holds at most that many, so one comparison of sums decides
    each."""
    n = len(table)
    live = is_not if zero is None else ne
    live_x = list(map(live, col_a, itertools.repeat(zero)))
    xa = list(itertools.compress(col_a, live_x))
    if in_row == n:
        ay, at = row_a, None
    else:
        live_y = list(map(live, row_a, itertools.repeat(zero)))
        ay = list(itertools.compress(row_a, live_y))
        at = list(itertools.compress(range(n), live_y))
    nonzero_xa = n * len(xa) - sum(map(zeros[0].__getitem__, xa))
    if not ay:
        return not nonzero_xa
    lefts = list(map(itemgetter(*ay), itertools.compress(table, live_x)))
    rights = list(map(table.__getitem__, xa))
    if at is not None:
        rights = list(map(itemgetter(*at), rights))
    if lefts != rights:
        return False
    met = len(lefts) - lefts.count(zero) if len(ay) == 1 else \
        len(ay) * len(lefts) - sum(map(tuple.count, lefts, itertools.repeat(zero)))
    if at is not None and met != nonzero_xa:
        return False
    return in_col == n or met == n * len(ay) - sum(map(zeros[1].__getitem__, ay))


class IndexTable(tuple):
    """A square table of basis indices, table[i][j] the index of e_i e_j or
    None for zero, held as a tuple of row tuples: indexing, == and hashing
    are the tuple's, and IndexTable(rows) makes each row a tuple.  It is
    frozen, and it keeps the two results read off it, the generating set
    (generators) and the first failing triple (first_failure).
    InverseSemigroup.mult, FiniteGroupoid.table, IsotropyGroup.table and
    FiniteAlgebra.table each hold one and pass the same object on, so a
    table shared by several structures is walked and checked once."""

    def __new__(cls, rows=()):
        return tuple.__new__(cls, map(tuple, rows))

    @staticmethod
    def of(rows) -> "IndexTable":
        """rows itself when it is an IndexTable, else IndexTable(rows)."""
        return rows if isinstance(rows, IndexTable) else IndexTable(rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"an IndexTable is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"an IndexTable is frozen: cannot delete {name!r}")

    @_kept
    def generators(self) -> tuple:
        """A generating set, by greedy closure: the smallest index not yet
        reached becomes a generator, and the reached indices are closed
        under products with the generators on both sides.  Every index is
        reached by the end.  The closure multiplies only indices already
        reached, so it holds in any magma, associative or not; each
        reached index is a product of generators under some bracketing."""
        table = tuple(self)    # a plain tuple indexes faster
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

    @_kept
    def first_failure(self):
        """The first (i, j, k) in lexicographic order at which (e_i e_j) e_k
        and e_i (e_j e_k) differ, or None.  Pass or fail is _light_passes;
        only a fail runs _first_failing_triple, the full scan."""
        return None if self._light_passes() else self._first_failing_triple()

    @_kept
    def entries(self) -> frozenset:
        """Every entry of the table, None among them when a product is
        zero."""
        return frozenset().union(*self)

    def _zero(self, table):
        """The index z with z x = x z = z for every x, when there is one and
        no entry is None; else None.  A left fold of every index ends at
        such a z, which absorbs from its own step on, so only the fold's
        result is tested, by its row and its column, before entries is
        read for None."""
        n = len(table)
        z = 0
        for i in range(1, n):
            z = table[z][i]
            if z is None:
                return None
        if table[z].count(z) != n or [row[z] for row in table].count(z) != n \
                or None in self.entries:
            return None
        return z

    def _light_passes(self) -> bool:
        """Light's test over generators (Clifford and Preston, The
        Algebraic Theory of Semigroups I, 1.2): for each generator a and
        every x and y, x (a y) == (x a) y.  That suffices: T = {a : (x a) y
        = x (a y) for all x, y} holds zero and is closed under products,
        since for a, b in T (x (a b)) y = ((x a) b) y = (x a)(b y) =
        x (a (b y)) = x ((a b) y), and every index is a product of
        generators.  A 1 x 1 table always passes: both sides are e_0, or
        both zero.

        Each generator a is compared by whole rows, row x a against row x
        read at row a for every x, a None read as the padding index n
        whose row is all None, or at its nonzero entries by
        _passes_at_nonzero, as _sparse_reads_pay decides.  A table too
        small for the second to pay at any generator, of at most 9
        indices, takes whole padded rows throughout.  On a larger one the
        zero entries are None, or the entries equal to _zero's z when it
        finds one: z is then an index like any other, and no triple
        through z can fail, since z absorbs every product.  A two-sided
        unit passes at once, and whole rows are padded only where row a or
        column a holds None."""
        table = tuple(self)    # a plain tuple indexes faster
        n = len(table)
        if n < 2:
            return True
        if not _sparse_reads_pay(n, 0, 0):
            padded = [row + (None,) for row in table]
            blank = (None,) * (n + 1)
            for a in self.generators:
                read = itemgetter(*[n if c is None else c for c in table[a]], n)
                if list(map(read, padded)) != \
                        [blank if row[a] is None else padded[row[a]] for row in table]:
                    return False
            return True
        zero = self._zero(table)
        padded = zeros = None
        for a in self.generators:
            row_a = table[a]
            col_a = [row[a] for row in table]
            in_row, in_col = n - row_a.count(zero), n - col_a.count(zero)
            if in_row == in_col == n and col_a == list(range(n)) and row_a == tuple(range(n)):
                continue
            if _sparse_reads_pay(n, in_row, in_col):
                if zeros is None:    # the zero entries of each row and column
                    zeros = (list(map(tuple.count, table, itertools.repeat(zero))),
                             list(map(tuple.count, zip(*table), itertools.repeat(zero))))
                if not _passes_at_nonzero(table, zero, zeros, row_a, col_a, in_row, in_col):
                    return False
            elif zero is None and (in_row < n or in_col < n):
                if padded is None:
                    padded = [row + (None,) for row in table]
                    blank = (None,) * (n + 1)
                read = itemgetter(*[n if c is None else c for c in row_a], n)
                if list(map(read, padded)) != [blank if c is None else padded[c] for c in col_a]:
                    return False
            elif list(map(itemgetter(*row_a), table)) != list(map(table.__getitem__, col_a)):
                return False
        return True

    def _first_failing_triple(self):
        """The full scan: e_i (e_j e_*) is row i read at the entries of row
        j, one list, compared with row ij: whole when row j has no zero;
        else at row j's nonzero positions and by the number of nonzero
        entries, both sides being zero where e_j e_k is.  Only a mismatch
        scans for k."""
        n = len(self)
        rows = [list(row) for row in self]
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


def generating_indices(table) -> tuple:
    """IndexTable.generators of the table."""
    return IndexTable.of(table).generators


def first_nonassociative(table):
    """IndexTable.first_failure of the table."""
    return IndexTable.of(table).first_failure


# ---------------------------------------------------------------------------
# finite-dimensional associative algebras

class FiniteAlgebra:
    """Associative algebra over an exact field with a monomial basis: the
    product of two basis vectors is a basis vector or zero, as for K^X,
    group, groupoid and crossed-product algebras.

    table[i][j] is the index k of e_i e_j = e_k, or None for zero, held as
    an IndexTable (plain rows are wrapped, an IndexTable is kept as given).
    The table's shape and indices are checked at construction, and then
    its associativity by IndexTable.first_failure; a failure raises
    AssociativityError, which carries the failing triple by index as well
    as by label.  Elements, images and subspaces are arbitrary vectors.
    """

    def __init__(self, field: Field, labels: Sequence, table):
        self.field = field
        self.labels = tuple(labels)
        self.table = IndexTable.of(table)
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError(f"a table of {n} rows of {n} entries is required")
        bad = self.table.entries.difference(range(n), (None,))
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
    def _generator_maps(self) -> tuple:
        """The distinct maps among, for each a in generating_indices, the
        row j -> e_a e_j of the table and then for each a the column
        j -> e_j e_a, each kept at its first occurrence, without the
        identity map (e_a a one-sided unit, e_a v = v or v e_a = v)."""
        gens, table = self.generating_indices, self.table
        maps = dict.fromkeys([table[a] for a in gens]
                             + [tuple(row[a] for row in table) for a in gens])
        maps.pop(tuple(range(self.dim)), None)
        return tuple(maps)

    def generator_multiples(self, v) -> list:
        """The images of v under _generator_maps, as dense vectors, from one
        walk of the nonzero entries of v each: e_a v and v e_a for every a
        in generating_indices, less the multiples equal to v (the identity
        map) and the repeats of a map already applied.  A subspace holds
        every e_a v and v e_a iff it holds these, so is_ideal and
        ideal_generate read them alone."""
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

    @property
    def generating_indices(self) -> tuple:
        """Basis indices whose products generate the algebra: the table's
        IndexTable.generators."""
        return self.table.generators

    def _check_associativity(self):
        """(e_i e_j) e_k == e_i (e_j e_k) on every basis triple: each side
        is zero or a single basis vector, so this is the table's
        IndexTable.first_failure, with no field arithmetic, and a verdict
        already computed on the same table object is read, not redone."""
        failure = self.table.first_failure
        if failure is not None:
            raise AssociativityError(failure, self.labels)


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
        check_permutation_hom(src.table, dst.table, [e[0][0] for e in entries],
                              rule, src.labels)
        return
    for i, row in enumerate(src.table):
        for j, k in enumerate(row):
            lhs = {} if k is None else dict(entries[k])
            if lhs != dst.sparse_mul(entries[i], entries[j]):
                raise HomomorphismError(rule, (i, j), src.labels)


def check_permutation_hom(src_table, dst_table, perm, rule: str, labels):
    """The basis-map branch of check_algebra_hom, images[i] = e_perm[i], on
    index tables alone (a groupoid's will do): e_i e_j maps to e_perm[k] for
    k = src_table[i][j], or zero, and images[i] images[j] is e_k' for
    k' = dst_table[perm[i]][perm[j]], or zero, so each pair is compared as
    an index or None, in (i, j) order.  perm need not be injective."""
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
    element, and so is the whole algebra.  generator_multiples leaves out
    the identity map and repeated maps, which cannot change the verdict:
    the identity sends V into V, and a repeated map gives the same
    vectors."""
    if space.field != algebra.field or space.ambient_dim != algebra.dim:
        raise ValueError("subspace does not live in the algebra")
    return all(space.contains(w) for v in space.basis
               for w in algebra.generator_multiples(v))


def ideal_generate(algebra: FiniteAlgebra, generators: Iterable) -> Subspace:
    """Smallest two-sided ideal containing the generators, by a worklist
    closure: each queued vector is reduced against the echelon rows found
    so far, and one that adds a row queues its generator_multiples.  The
    rows then span a subspace holding the generators and closed under
    both multiplications by the generating basis elements (the identity
    and repeated maps that generator_multiples leaves out add no vector),
    an ideal by the argument of is_ideal, and every row lies in any ideal
    holding the generators."""
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
            if c:
                f.row_sub_at(v, c, rows[p][1])
        lead = next((j for j, a in enumerate(v) if a), None)
        if lead is None:
            continue
        row = tuple(f.row_scale(f.inv(v[lead]), v))
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

def first_nonmultiplicative(field: Field, table, images: Sequence, d: int):
    """The first (i, j), in (i, j) order, at which the d x d matrices
    images[i] images[j] and images[table[i][j]] (zero where table[i][j]
    is None) differ, or None: representations and covariant pairs."""
    zero = tuple(zero_vector(field, d) for _ in range(d))
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            if mat_mul(field, images[i], images[j]) != (zero if k is None else images[k]):
                return i, j
    return None


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
        """first_nonmultiplicative over the algebra's table, rather than a
        check_algebra_hom into M_d(K): d reaches the dimension of the
        algebra (left_regular_mod), and realising M_d(K) as a FiniteAlgebra
        would take d^2 basis elements and an associativity check."""
        alg = self.algebra
        failure = first_nonmultiplicative(alg.field, alg.table, self.images, self.space_dim)
        if failure is not None:
            raise StructureError("representation-multiplicativity",
                                 tuple(alg.labels[m] for m in failure))

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
    """The maps v -> e_a v, v -> v e_a that permute the basis, e_a generating,
    each once and without the identity, as _generator_maps keeps them."""
    n = algebra.dim
    return [itemgetter(*sorted(range(n), key=pi.__getitem__))
            for pi in algebra._generator_maps if set(pi) == set(range(n))]


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
    _basis_permutations, and <v> lies in an ideal J iff v does.

    Each ideal J gets its mask, the indices k of the distinct principal
    ideals P_k = <v_k> that it holds (v_k in J), tested once when J is
    found; the mask of a sum holds the masks of its two terms untested.
    J + P_k is formed only when k is not in J's mask and every principal
    ideal strictly inside P_k is.  That reaches every ideal I: list the
    principal ideals inside I by dimension, P_k1, P_k2, ...; their sum is
    I, and each P_ki's strictly smaller principal ideals lie in I and have
    smaller dimension, so they come earlier in the list and lie in the
    partial sum before it.  Each partial sum is then P_k1, or the last
    one, or the last one plus P_ki by a sum the rule allows.  The work is
    one ideal_generate per orbit, at most one reduce per (ideal, principal
    ideal) pair and one span per allowed sum: far less than filtering
    every subspace when the ideal lattice is small, as for the crossed
    products the oracle runs on, but more when most subspaces are ideals
    (zero multiplication, each line its own orbit and principal ideal).
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
                marked.update(tuple(f.row_scale(c, u)) for c in range(1, f.p))
                orbit.append(u)
    lines = tuple(principal.values())

    def mask(space: Subspace, known: int) -> int:
        for k, v in enumerate(lines):
            if not known >> k & 1 and space.contains(v):
                known |= 1 << k
        return known

    masks = {p: mask(p, 1 << k) for k, p in enumerate(principal)}
    # (P_k, bit k, the mask of the principal ideals strictly inside P_k)
    terms = [(p, 1 << k, m & ~(1 << k)) for k, (p, m) in enumerate(masks.items())]
    frontier = list(masks.items())
    while frontier:
        ideal, held = frontier.pop()
        for p, bit, below in terms:
            if not held & bit and held & below == below:
                total = subspace_sum(ideal, p)
                if total not in masks:
                    masks[total] = mask(total, held | bit | below)
                    frontier.append((total, masks[total]))
    found = [Subspace.zero(f, n), *masks]
    return sorted(found, key=lambda s: (s.dim, s.pivots, s.basis))
