"""Built-in example systems exercised by the test suite and the CLI.

FIX-TRIV    one element acting on one point
FIX-FLIP    Z/2 swapping two points
FIX-Z2FIX   Z/2 fixing a single point (pure isotropy)
FIX-BRANDT  the five-element Brandt semigroup shifting a to b
FIX-SEMILAT the two-element meet semilattice restricting to a subset
FIX-NILP    a nilpotent one-dimensional algebra action (not an ample
            system; exists to be rejected by the semidirect construction)
"""

from __future__ import annotations

from .bundles import AlgebraAction
from .dynsys import AmpleSystem, PartialBijection
from .exactlin import Field, FiniteAlgebra
from .semigroups import InverseSemigroup


def trivial_system() -> AmpleSystem:
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    theta = (PartialBijection.identity([0]),)
    return AmpleSystem(sg, 1, theta, ("x0",))


def flip_system() -> AmpleSystem:
    sg = InverseSemigroup(((0, 1), (1, 0)), (0, 1), ("1", "g"))
    theta = (
        PartialBijection.identity([0, 1]),
        PartialBijection({0: 1, 1: 0}),
    )
    return AmpleSystem(sg, 2, theta, ("a", "b"))


def fixed_point_system() -> AmpleSystem:
    sg = InverseSemigroup(((0, 1), (1, 0)), (0, 1), ("1", "g"))
    theta = (
        PartialBijection.identity([0]),
        PartialBijection.identity([0]),
    )
    return AmpleSystem(sg, 1, theta, ("x",))


def brandt_system() -> AmpleSystem:
    """B_2 = {0, e, f, s, s*} acting on {a, b} with theta_s: a -> b.

    Multiplication follows the matrix-unit picture e = E11, f = E22,
    s = E12, s* = E21."""
    z, e, f, s, t = range(5)
    mult = [[z] * 5 for _ in range(5)]
    mult[e][e] = e
    mult[f][f] = f
    mult[e][s] = s
    mult[s][f] = s
    mult[f][t] = t
    mult[t][e] = t
    mult[s][t] = e
    mult[t][s] = f
    star = (z, e, f, t, s)
    sg = InverseSemigroup(tuple(tuple(r) for r in mult), star,
                          ("0", "e", "f", "s", "s*"))
    theta = (
        PartialBijection.empty(),
        PartialBijection.identity([1]),
        PartialBijection.identity([0]),
        PartialBijection({0: 1}),
        PartialBijection({1: 0}),
    )
    return AmpleSystem(sg, 2, theta, ("a", "b"))


def semilattice_system() -> AmpleSystem:
    sg = InverseSemigroup(((0, 1), (1, 1)), (0, 1), ("1", "e"))
    theta = (
        PartialBijection.identity([0, 1]),
        PartialBijection.identity([0]),
    )
    return AmpleSystem(sg, 2, theta, ("x", "y"))


def nilpotent_action(field: Field) -> AlgebraAction:
    """The trivial semigroup acting identically on span{n} with n^2 = 0.

    The single coefficient ideal squares to zero, so no semidirect
    product bundle exists over it."""
    algebra = FiniteAlgebra(field, ("n",), [[None]])
    sg = InverseSemigroup(((0,),), (0,), ("e",))
    return AlgebraAction(sg, algebra, ({0: 0},))


FIXTURES = {
    "FIX-TRIV": trivial_system,
    "FIX-FLIP": flip_system,
    "FIX-Z2FIX": fixed_point_system,
    "FIX-BRANDT": brandt_system,
    "FIX-SEMILAT": semilattice_system,
}
