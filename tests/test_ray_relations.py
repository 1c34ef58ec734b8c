"""Metamorphic relations of ``ray_limit`` at sizes the reference scans of
``test_face_order.py`` cannot reach: the rank-8 cube (2,188 faces), the
nested tower of depth 60 and the rank-6 spec of 30 seeded generators
(1,012 faces).

For decays λ and μ in the dual cone of a base face, the limit depends only
on where the decay vanishes, so a positive multiple has the same limit, the
limit of λ + μ is the meet of the two limits (both are >= 0 on the base's
cone, so their sum vanishes exactly where both do), and the zero decay
stays at the base.
"""

import random
from fractions import Fraction as F

import pytest

from toric_spectrum import Ray, enumerate_faces, ray_limit

from helpers import cube, nested_tower, seeded_spec

SPECS = {"cube8": cube(8), "nested60": nested_tower(60), "r6g30": seeded_spec(630, 6, 30)}


def dual_point(rng, face):
    """A point of the dual cone of a face: a few of its rays, or none, with
    positive rational weights, plus a random integer combination of its
    lineality."""
    dual = face.dual_cone_local
    lam = [F(0)] * face.rank
    for r in rng.sample(dual.rays, min(len(dual.rays), rng.randint(0, 3))):
        c = F(rng.randint(1, 5), rng.randint(1, 3))
        lam = [a + c * b for a, b in zip(lam, r)]
    for line in dual.lineality:
        c = rng.randint(-2, 2)
        lam = [a + c * b for a, b in zip(lam, line)]
    return tuple(lam)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_ray_limit_relations_at_sampled_bases(name):
    rng = random.Random(f"ray-relations:{name}")
    atlas = enumerate_faces(SPECS[name])
    bases = [0] + rng.sample(range(1, len(atlas.faces)), 6)
    limits = set()
    for base in bases:
        face = atlas.faces[base]
        assert ray_limit(atlas, Ray(base, (0,) * face.rank)) == base
        for _ in range(5):
            lam, mu = dual_point(rng, face), dual_point(rng, face)
            limit = ray_limit(atlas, Ray(base, lam))
            c = F(rng.randint(1, 9), rng.randint(1, 4))
            assert ray_limit(atlas, Ray(base, tuple(c * a for a in lam))) == limit
            both = tuple(a + b for a, b in zip(lam, mu))
            assert ray_limit(atlas, Ray(base, both)) == \
                atlas.meet(limit, ray_limit(atlas, Ray(base, mu)))
            limits.add(limit)
    # the draws reach limits other than the bases themselves
    assert len(limits - set(bases)) >= 3
