"""The character algebra on integer numerators against the Fraction formulas
of helpers.py: restriction matrices solved on every call, sums taken in
Fractions, vanishing read off the rays and lineality of each face.

Characters are seeded on every face of five atlases of the kind the
benchmark's ``chars`` workload uses and of random towers over torsion bases,
rank-0 faces among them.  Results must agree in ``repr``, so every entry is
a Fraction of the same value.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from toric_spectrum import (
    Character,
    Generators,
    Ray,
    chain_of_rays,
    contains,
    enumerate_faces,
    evaluate,
    identity_character,
    make_character,
    multiply,
    ray_limit,
    ray_point,
)

from helpers import (
    EVEN_AXIS,
    coordinate_table,
    leq_table,
    random_tower,
    ref_chain,
    ref_evaluate,
    ref_multiply,
    ref_ray_limit,
)

# a cone over a cube, a cone over a pentagon, a skewed simplicial cone with
# torsion 28, a cone with lineality and the even-axis quadrant
CHARS_SPECS = (
    Generators(4, tuple((1,) + v for v in product((-1, 1), repeat=3))),
    Generators(3, ((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -2, 1))),
    Generators(4, ((2, 1, 0, 0), (0, 3, 1, 0), (0, 0, 1, 2), (1, 0, 0, 5))),
    Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2))),
    EVEN_AXIS,
)


def seeded_character(rng, atlas, face_id, ints):
    """Angles and a point of the dual cone: Fractions, or ints throughout,
    angles not reduced mod 1."""
    face = atlas.faces[face_id]
    dual = face.dual_cone_local
    if ints:
        theta = tuple(rng.randint(-2, 2) for _ in range(face.rank))
        weight = lambda: rng.randint(0, 3)  # noqa: E731
    else:
        q = rng.choice((2, 3, 4, 6))
        theta = tuple(F(rng.randrange(-q, 2 * q), q) for _ in range(face.rank))
        weight = lambda: F(rng.randint(0, 3), rng.choice((1, 2, 3)))  # noqa: E731
    lam = [0 if ints else F(0)] * face.rank
    for r in dual.rays:
        c = weight()
        lam = [a + c * b for a, b in zip(lam, r)]
    for line in dual.lineality:
        c = rng.randint(-1, 1)
        lam = [a + c * b for a, b in zip(lam, line)]
    return Character(face_id, theta, tuple(lam))


def combination(rng, gens, n):
    """A sum of the generators with coefficients 0-2."""
    x = [0] * n
    for g in gens:
        c = rng.randint(0, 2)
        x = [a + c * b for a, b in zip(x, g)]
    return tuple(x)


def sample_members(rng, spec, count=12):
    """Sums of generators, or points of a box that the tower contains."""
    if isinstance(spec, Generators):
        return [combination(rng, spec.generators, spec.ambient_rank) for _ in range(count)]
    points = [tuple(rng.randint(-2, 3) for _ in range(spec.ambient_rank))
              for _ in range(4 * count)]
    return [x for x in points if contains(spec, x)][:count]


def atlases():
    rng = random.Random(12)
    towers = [random_tower(rng, depth) for depth in (1, 2, 3, 4) for _ in range(2)]
    return [enumerate_faces(spec) for spec in CHARS_SPECS + tuple(towers)]


def test_integer_algebra_matches_fraction_formulas():
    rng = random.Random(3)
    ranks = set()
    for atlas in atlases():
        faces = range(len(atlas.faces))
        leq, coords = leq_table(atlas), coordinate_table(atlas)
        chars = [seeded_character(rng, atlas, j, ints) for j in faces for ints in (False, True)]
        ranks.update(atlas.faces[j].rank for j in faces)
        for a in chars:
            for b in rng.sample(chars, min(4, len(chars))):
                assert repr(multiply(atlas, a, b)) == repr(ref_multiply(atlas, a, b)), (a, b)
        members = sample_members(rng, atlas.spec) + [atlas.interior_member]
        for chi in chars:
            # a member of the character's own face, where its value is not 0
            gens = atlas.faces[chi.face_id].member_generators
            own = [combination(rng, gens, atlas.spec.ambient_rank)] if gens else []
            for x in rng.sample(members, min(3, len(members))) + own:
                assert repr(evaluate(atlas, chi, x)) == repr(ref_evaluate(atlas, chi, x)), (chi, x)
            ray = Ray(chi.face_id, chi.lam)
            assert ray_limit(atlas, ray) == ref_ray_limit(atlas, leq, coords, ray), ray
        pairs = [(k, j) for j in faces for k in faces if atlas.leq(j, k)]
        for k, j in rng.sample(pairs, min(15, len(pairs))):
            assert repr(chain_of_rays(atlas, k, j)) == repr(ref_chain(atlas, leq, coords, k, j)), (k, j)
    assert 0 in ranks


def test_restriction_table_holds_one_entry_per_queried_pair():
    atlas = enumerate_faces(CHARS_SPECS[0])
    rng = random.Random(1)
    chars = [seeded_character(rng, atlas, j, False) for j in range(len(atlas.faces))]
    for _ in range(3):
        for a in chars:
            for b in chars:
                multiply(atlas, a, b)
    size = len(atlas._restrictions)
    assert 0 < size <= len(atlas.faces) ** 2
    for a in chars:
        multiply(atlas, a, chars[-1])
    assert len(atlas._restrictions) == size


def test_float_entries_raise_type_error():
    atlas = enumerate_faces(EVEN_AXIS)
    one = identity_character(atlas)
    for bad in (Character(0, (0.5, F(0)), (F(1), F(1))),
                Character(0, (F(0), F(0)), (1.0, 0))):
        for call in (lambda: multiply(atlas, one, bad), lambda: multiply(atlas, bad, one),
                     lambda: evaluate(atlas, bad, (1, 1))):
            with pytest.raises(TypeError):
                call()
    for call in (lambda: make_character(atlas, 0, [0.5, 0], [1, 0]),
                 lambda: make_character(atlas, 0, [0, 0], [F(1), 0.25]),
                 lambda: ray_limit(atlas, Ray(0, (1.0, 0))),
                 lambda: ray_point(atlas, Ray(0, (1.0, 0)), 1),
                 lambda: ray_point(atlas, Ray(0, (1, 0)), 0.5)):
        with pytest.raises(TypeError):
            call()
