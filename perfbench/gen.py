"""Seeded inputs for the benchmark: systems, ideal generators and the
answers each job must produce.

The system-size ladder of every workload, and the ideal each decompose
job generates, are fixed here.  The seed picks the presentation of each
system (the rotation step of Z/n, the point labels of a Brandt
semigroup), the generator written for each ideal and the job order, so
every seed does nearly the same work.

The expected answers are computed by this file from the raw tables, never
by the library:

* the germ count of Z/n rotating Z/d is n*d, and of Brandt B_k is k*k;
* the ideals of a finite groupoid algebra K[G] follow from the block
  decomposition K[G] = (+)_orbits M_|O|(K G_x) (Steinberg,
  arXiv:0903.3456), so their number is the product over orbits of the
  ideal count of K G_x.  For K = F_p and G_x = Z/m with m = p^a * m',
  p not dividing m', that count is (p^a + 1)^r with
  r = sum over e | m' of phi(e) / ord_e(p), the number of irreducible
  factors of x^m' - 1 over F_p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from crossedideals import FIXTURES, GF, AmpleSystem, InverseSemigroup, PartialBijection
from crossedideals.formats import serialize_system

WORKLOADS = ("isocheck-free", "decompose-f3", "oracle-small")

# (n, d): Z/n rotating Z/d.  Free actions have d == n.
ISOCHECK_ROTATIONS = ((4, 4), (5, 5), (6, 6))
ISOCHECK_BRANDT = (4, 5, 6)
DECOMPOSE_F3 = ((12, 1), (16, 1), (20, 1), (24, 1), (6, 2), (8, 2), (10, 2), (12, 2))
ORACLE_ROTATIONS = ((2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2))
ORACLE_BRANDT = (2,)
ORACLE_PRIMES = (2, 3)


@dataclass(frozen=True)
class Job:
    """One CLI command: `verb file generators...` plus what it must report."""

    key: str
    verb: str
    text: str
    generators: tuple = ()
    germs: int = 0
    ideals: int = 0


# ---------------------------------------------------------------------------
# systems

def cyclic_names(n: int) -> list:
    return ["1"] + [f"g{k}" for k in range(1, n)]


def rotation_system(n: int, d: int, step: int = 1) -> AmpleSystem:
    """Z/n acting on Z/d by x -> x + step*k; needs d | n and gcd(step, d) == 1."""
    if n % d or gcd(step, d) != 1:
        raise ValueError(f"no rotation action of Z/{n} on Z/{d} with step {step}")
    sg = InverseSemigroup(
        tuple(tuple((a + b) % n for b in range(n)) for a in range(n)),
        tuple((-a) % n for a in range(n)),
        cyclic_names(n))
    theta = [PartialBijection({x: (x + step * k) % d for x in range(d)}) for k in range(n)]
    points = ["x"] if d == 1 else [f"p{x}" for x in range(d)]
    return AmpleSystem(sg, d, theta, points)


def brandt_system(k: int, perm=None) -> AmpleSystem:
    """Brandt B_k = {z} + {E_ij}: E_ij E_jl = E_il, other products z; E_ij
    sends point perm[j] to perm[i]."""
    perm = list(range(k)) if perm is None else list(perm)
    units = [(i, j) for i in range(k) for j in range(k)]
    index = {u: 1 + t for t, u in enumerate(units)}
    size = 1 + len(units)
    mult = [[0] * size for _ in range(size)]
    for (i, j) in units:
        for (a, b) in units:
            if j == a:
                mult[index[(i, j)]][index[(a, b)]] = index[(i, b)]
    star = [0] + [index[(j, i)] for (i, j) in units]
    names = ["z"] + [f"e{i}_{j}" for (i, j) in units]
    theta = [PartialBijection({})] + [PartialBijection({perm[j]: perm[i]}) for (i, j) in units]
    sg = InverseSemigroup(tuple(tuple(r) for r in mult), tuple(star), names)
    return AmpleSystem(sg, k, theta, [f"q{x}" for x in range(k)])


# ---------------------------------------------------------------------------
# answers computed from the raw tables

def germ_structure(system: AmpleSystem) -> list:
    """(orbit size, isotropy order) for each orbit, from the tables alone."""
    mult = system.semigroup.mult
    size = len(mult)
    maps = [dict(pb.pairs) for pb in system.theta]
    idempotents = [e for e in range(size) if mult[e][e] == e]

    def same_germ(s, t, x):
        return any(x in maps[e] and mult[s][e] == mult[t][e] for e in idempotents)

    seen, out = set(), []
    for x in range(system.space_size):
        if x in seen:
            continue
        orbit = {maps[s][x] for s in range(size) if x in maps[s]}
        seen |= orbit
        fixing = [s for s in range(size) if maps[s].get(x) == x]
        classes = []
        for s in fixing:
            if not any(same_germ(s, t, x) for t in classes):
                classes.append(s)
        out.append((len(orbit), len(classes)))
    return out


def germ_count(system: AmpleSystem) -> int:
    """|germ groupoid| = sum over orbits of |O|^2 |G_x|."""
    return sum(o * o * m for o, m in germ_structure(system))


def _phi(e: int) -> int:
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


def _order_mod(p: int, e: int) -> int:
    k, x = 1, p % e
    while x != 1 % e:
        x, k = x * p % e, k + 1
    return k


def cyclic_ideal_count(p: int, m: int) -> int:
    """Number of ideals of F_p[Z/m]."""
    a = 0
    while m % p == 0:
        m, a = m // p, a + 1
    factors = sum(_phi(e) // _order_mod(p, e) for e in range(1, m + 1) if m % e == 0)
    return (p ** a + 1) ** factors


def oracle_ideal_count(system: AmpleSystem, p: int) -> int:
    """Ideal count of F_p[G] for a germ groupoid G with cyclic isotropy."""
    count = 1
    for _, m in germ_structure(system):
        count *= cyclic_ideal_count(p, m)
    return count


# ---------------------------------------------------------------------------
# ideal generators for Z/n rotating Z/d, written with bare element names
# (u_k = the indicator section of g^k over the whole space)

def _group_ring_mul(n: int, a: dict, b: dict, reduce) -> dict:
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = (i + j) % n
            out[k] = reduce(out.get(k, 0) + x * y)
    return {k: c for k, c in out.items() if c != 0}


def _generator_text(n: int, elem: dict, field) -> str:
    names = cyclic_names(n)
    return " + ".join(f"{field.to_text(field.of(c))}·{names[k]}" for k, c in sorted(elem.items()))


def rung_ideal(i: int, n: int, d: int) -> tuple:
    """The ideal kind of rung i: norms and differences alternate along the
    ladder, each over the middle subgroup of H, so every round costs the
    same whatever the seed."""
    subgroups = [m for m in range(1, n // d) if (n // d) % m == 0]
    if not subgroups:
        raise ValueError("proper generators need nontrivial isotropy")
    return ("norm", "difference")[i % 2], subgroups[len(subgroups) // 2]


def proper_generator(rng: random.Random, n: int, d: int, field, kind) -> str:
    """A seeded generator of a proper ideal of Z/n rotating Z/d.

    Elements u_h with h in the isotropy subgroup H = <g^d> are central, so
    for a nontrivial subgroup L = <g^(d m)> of H the norm N_L and 1 - u_l
    (l generating L) each generate a proper ideal: N_L (1 - u_l) = 0.
    The seed picks l and a unit multiple c u_a, which leave the ideal
    unchanged.
    """
    family, m = kind
    order = n // (d * m)
    if family == "norm":
        base = {(d * m * j) % n: 1 for j in range(order)}
    else:
        j = rng.choice([j for j in range(1, order) if gcd(j, order) == 1])
        base = {0: 1, (d * m * j) % n: -1}
    unit = {rng.randrange(n): rng.randrange(1, field.p)}
    reduce = lambda x: x % field.p
    base = {k: reduce(c) for k, c in base.items()}
    return _generator_text(n, _group_ring_mul(n, unit, base, reduce), field)


# ---------------------------------------------------------------------------
# workloads

VARIANTS = 4


def _units(n: int) -> list:
    return [u for u in range(1, max(n, 2)) if gcd(u, n) == 1]


def _system_file(system: AmpleSystem, field) -> str:
    report = system.validate()
    if not report.ok:
        raise ValueError(f"generated system is invalid: {report.rule}")
    return serialize_system(system, field)


def workload_jobs(workload: str, seed: int) -> list:
    """The job pool: every rung of the ladder in VARIANTS seeded variants.
    Variant v of each rung runs in round v mod VARIANTS."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for v in range(VARIANTS):
        if workload == "isocheck-free":
            for n, d in ISOCHECK_ROTATIONS:
                system = rotation_system(n, d, rng.choice(_units(n)))
                jobs.append(Job(f"v{v}/rot{n}on{d}", "isocheck",
                                _system_file(system, GF(2)), germs=n * d))
            for k in ISOCHECK_BRANDT:
                system = brandt_system(k, rng.sample(range(k), k))
                jobs.append(Job(f"v{v}/brandt{k}", "isocheck",
                                _system_file(system, GF(2)), germs=k * k))
        elif workload == "decompose-f3":
            for i, (n, d) in enumerate(DECOMPOSE_F3):
                system = rotation_system(n, d, rng.choice(_units(d)))
                gen = proper_generator(rng, n, d, GF(3), rung_ideal(i, n, d))
                jobs.append(Job(f"v{v}/rot{n}on{d}", "decompose",
                                _system_file(system, GF(3)), (gen,)))
        else:
            systems = [(f"rot{n}on{d}", rotation_system(n, d, rng.choice(_units(d))))
                       for n, d in ORACLE_ROTATIONS]
            systems += [(f"brandt{k}", brandt_system(k, rng.sample(range(k), k)))
                        for k in ORACLE_BRANDT]
            systems += [(name, make()) for name, make in sorted(FIXTURES.items())]
            for p in ORACLE_PRIMES:
                for name, system in systems:
                    jobs.append(Job(f"v{v}/{name}/F{p}", "oracle",
                                    _system_file(system, GF(p)),
                                    ideals=oracle_ideal_count(system, p)))
    return jobs


def round_order(jobs: list, seed: int, round_index: int) -> list:
    """The jobs of one round (one variant of every rung) in seeded order."""
    variant = f"v{round_index % VARIANTS}/"
    chosen = [j for j in jobs if j.key.startswith(variant)]
    random.Random(f"order/{seed}/{round_index}").shuffle(chosen)
    return chosen
