"""A tower's half spaces read off the flag, projections modulo a span by
rank-one Gram-Schmidt steps, and member generators read off masks, each
checked against the generic or per-vector construction it replaces
(``helpers.finalize_face``, ``helpers.reduce_mod_span`` and
``helpers.ref_project``, and the vanishing of every tight inequality).
"""

import random

import pytest

from toric_spectrum import Generators, Tower, enumerate_faces, semigroups
from toric_spectrum.cones import _project
from toric_spectrum.intlinalg import dot, hnf, int_kernel
from toric_spectrum.oracle import _orank

from helpers import (
    EVEN_AXIS,
    FIXTURES,
    TORSION_BASES,
    finalize_face,
    gram_solve,
    random_generators,
    random_tower,
    reduce_mod_span,
    ref_is_separating,
    ref_project,
    scaled_coordinates,
    scaled_solutions,
)


@pytest.mark.parametrize("depth", range(1, 7))
def test_half_spaces_match_the_generic_finalisation(depth):
    for i in range(6):
        spec = random_tower(random.Random(f"half:{depth}:{i}"), depth, TORSION_BASES)
        halves = [f for f in enumerate_faces(spec).faces if f.member_generators is None]
        assert len(halves) == depth
        for face in halves:
            assert (face.torsion, face.cone_local, face.dual_cone_local) == \
                finalize_face(face.cone, face.lattice, face.dim)
            # the canonical half space: one ray, equal to its one inequality
            (a,) = face.cone_local.rays
            assert face.cone_local.inequalities == (a,) and not face.torsion


def spans(rng, n):
    """Independent rows of every rank from 0 to n: the empty span, a
    coordinate axis, and HNF bases of random rows of each rank."""
    out = [(), hnf([(1,) + (0,) * (n - 1)], n).basis]
    for rank in range(1, n + 1):
        while True:
            rows = hnf([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)], n).basis
            if len(rows) == rank:
                out.append(rows)
                break
    return out


def test_one_gram_elimination_equals_one_per_vector():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        vecs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        vecs.append((0,) * n)
        for rows in spans(rng, n):
            assert _project(vecs, rows) == [reduce_mod_span(v, rows) for v in vecs]
            assert _project(vecs, rows) == ref_project(vecs, rows)
            # the part in the span is the part modulo the orthogonal complement
            assert ref_project(vecs, rows, onto=True) == _project(vecs, int_kernel(rows, n).basis)
            if rows:
                rhs = [[dot(r, v) for r in rows] for v in vecs]
                ys, d = gram_solve(rows, rhs)
                gram = [[dot(u, v) for v in rows] for u in rows]
                for y, b in zip(ys, rhs):
                    assert scaled_coordinates(gram, b) == (y, d)


def test_several_right_hand_sides_share_one_denominator():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        basis = hnf(basis, n).basis
        xs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        solved = scaled_solutions(basis, xs)
        if any(_orank(list(basis) + [x]) > len(basis) for x in xs):
            assert solved is None
            continue
        ys, d = solved
        assert d > 0 and len(ys) == len(xs)
        for y, x in zip(ys, xs):
            assert [sum(c * b[j] for c, b in zip(y, basis)) for j in range(n)] == \
                [d * a for a in x]


def member_specs():
    rng = random.Random(17)
    specs = list(FIXTURES) + list(TORSION_BASES)
    for _ in range(60):
        spec = random_generators(rng, max_rank=4, max_gens=6)
        gens = list(spec.generators)
        gens += [(0,) * spec.ambient_rank, rng.choice(gens), rng.choice(gens)]
        rng.shuffle(gens)
        specs.append(Generators(spec.ambient_rank, tuple(gens)))
    repeated = Generators(2, ((2, 0), (0, 0), (1, 1), (2, 0), (0, 1)))
    specs += [random_tower(random.Random(f"members:{depth}"), depth, TORSION_BASES + (repeated,))
              for depth in range(1, 5)]
    return specs


@pytest.mark.parametrize("spec", member_specs())
def test_members_from_masks_match_vanishing_inequalities(spec):
    base = semigroups._flatten(spec)[1]
    atlas = enumerate_faces(base)
    for face in atlas.faces:
        tight = [atlas.ambient_cone.inequalities[i] for i in face.tight_set]
        assert face.member_generators == tuple(
            g for g in base.generators if all(dot(a, g) == 0 for a in tight))
    if isinstance(spec, Tower):
        # a tower's generated faces are those of its embedded base
        assert {(f.cone, f.member_generators) for f in enumerate_faces(spec).faces
                if f.member_generators is not None} == \
            {(f.cone, f.member_generators) for f in atlas.faces}


def test_separating_read_off_face_zero():
    rng = random.Random(23)
    specs = list(FIXTURES) + list(TORSION_BASES) + \
        [random_generators(rng, max_rank=4, max_gens=5) for _ in range(150)] + \
        [random_tower(rng, rng.randint(1, 4)) for _ in range(30)] + \
        [Generators(2, ((2, 0),)), Generators(2, ((4, 2), (0, 6))), Generators(0, ()),
         Tower(3, (1, 2, -3), EVEN_AXIS)]
    for spec in specs:
        assert enumerate_faces(spec).separating == ref_is_separating(spec), spec
