"""Shared fixtures and generators for the test suite."""

import math
import random

from toric_spectrum import Generators, Tower

# quadrant semigroup with a doubled x-axis generator: p,q >= 0, p even when q=0
EVEN_AXIS = Generators(2, ((2, 0), (0, 1), (1, 1)))

# open upper half lattice over the standard quadrant on its boundary plane
HALFSPACE_TOWER = Tower(3, (0, 0, 1), Generators(2, ((1, 0), (0, 1))))

# numerical semigroup <2, 3>: all nonnegative integers except 1
GAP_NUMERIC = Generators(1, ((2,), (3,)))

# the nonnegative integers
HALF_LINE = Generators(1, ((1,),))

# the full integer line
FULL_LINE = Generators(1, ((1,), (-1,)))

FIXTURES = (EVEN_AXIS, HALFSPACE_TOWER, GAP_NUMERIC, HALF_LINE, FULL_LINE)


def random_generators(rng: random.Random, max_rank: int = 4, max_gens: int = 8,
                      coord: int = 3) -> Generators:
    n = rng.randint(1, max_rank)
    m = rng.randint(1, max_gens)
    gens = tuple(tuple(rng.randint(-coord, coord) for _ in range(n))
                 for _ in range(m))
    return Generators(n, gens)


def random_pointed_generators(rng: random.Random, max_rank: int = 3,
                              max_gens: int = 5, coord: int = 3) -> Generators:
    from toric_spectrum import asymptotic_cone, is_pointed
    while True:
        spec = random_generators(rng, max_rank, max_gens, coord)
        if is_pointed(asymptotic_cone(spec)):
            return spec


def skew_normal(rng, n):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if math.gcd(*v) == 1:
            return v


TORSION_BASES = (Generators(1, ((2,),)), EVEN_AXIS, Generators(2, ((4, 2), (0, 3))),
                 Generators(1, ((3,), (-3,))))


def random_tower(rng, depth, bases=TORSION_BASES):
    spec = rng.choice(bases)
    for _ in range(depth):
        n = spec.ambient_rank + 1
        spec = Tower(n, skew_normal(rng, n), spec)
    return spec
