"""Shared constructions for the test suite."""

from crossedideals import FiniteAlgebra, InverseSemigroup, StructureError


def z2_semigroup() -> InverseSemigroup:
    return InverseSemigroup(((0, 1), (1, 0)), (0, 1), ("1", "g"))


def z2_algebra(field) -> FiniteAlgebra:
    """The group algebra K[Z/2] on the basis {1, g}."""
    return FiniteAlgebra.from_monomial_table(field, ("1", "g"), ((0, 1), (1, 0)))


MATRIX_UNIT_POSITIONS = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}


def matrix_units_table():
    """Monomial table of M_2: e_ab e_cd = e_ad when b = c, else zero."""
    table = [[None] * 4 for _ in range(4)]
    for (a, b), i in MATRIX_UNIT_POSITIONS.items():
        for (c, d), j in MATRIX_UNIT_POSITIONS.items():
            if b == c:
                table[i][j] = MATRIX_UNIT_POSITIONS[(a, d)]
    return table


def matrix_units_algebra(field) -> FiniteAlgebra:
    """M_2(K) on the matrix-unit basis e11, e12, e21, e22."""
    return FiniteAlgebra.from_monomial_table(
        field, ("e11", "e12", "e21", "e22"), matrix_units_table())


def dense_mul(field, products, dim, u, v):
    """Reference product: every coordinate pair (i, j) of u and v against
    the raw structure constants {(i, j): ((k, coeff), ...)}."""
    out = [field.zero] * dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            for k, c in products.get((i, j), ()):
                out[k] = field.add(out[k], field.mul(field.mul(a, b), c))
    return tuple(out)


def dense_check_associativity(field, labels, products):
    """Reference associativity check: (e_i e_j) e_k against e_i (e_j e_k)
    with dense_mul on every basis triple in (i, j, k) order.  Raises
    StructureError("associativity", labels of the triple) at the first
    triple that differs."""
    n = len(labels)
    basis = [tuple(field.one if j == i else field.zero for j in range(n))
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            pij = dense_mul(field, products, n, basis[i], basis[j])
            for k in range(n):
                left = dense_mul(field, products, n, pij, basis[k])
                right = dense_mul(field, products, n, basis[i],
                                  dense_mul(field, products, n, basis[j], basis[k]))
                if left != right:
                    raise StructureError("associativity", (labels[i], labels[j], labels[k]))


def corrupt_hom_check(monkeypatch, module, rule):
    """Make the module's homomorphism check see images 0 and 1 swapped
    whenever it is called with the given rule."""
    check = module.check_algebra_hom

    def corrupted(src, dst, images, called_rule):
        if called_rule == rule:
            images = list(images)
            images[0], images[1] = images[1], images[0]
        return check(src, dst, images, called_rule)

    monkeypatch.setattr(module, "check_algebra_hom", corrupted)
