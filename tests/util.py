"""Shared constructions for the test suite."""

from crossedideals import FiniteAlgebra, InverseSemigroup


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
