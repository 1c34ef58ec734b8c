"""Facet normals carried down the face lattice and torsion read off the
kernel's triangulation, checked against the per-face route they replace
(``helpers.ref_generator_faces``: a Gram elimination per face, then the
Smith form), plus the completeness of the face lattice that projecting
from a face's first cover relies on: every face below the top has a cover
above it, and the lattice is Eulerian and has the diamond property.
"""

import gc
import itertools
import random
from collections import Counter

import pytest

from toric_spectrum import Generators, cones, enumerate_faces, intlinalg, semigroups
from toric_spectrum.cones import face_lattice
from toric_spectrum.intlinalg import (
    basis_torsion,
    hnf,
    int_kernel,
    kernel_and_torsion,
)

from helpers import (
    EVEN_AXIS,
    SOLVER_NAMES,
    TORSION_BASES,
    atlas_spec,
    package_definitions,
    random_tower,
    ref_generator_faces,
    tower_chain,
)


def cube(n):
    """The cone over the (n-1)-cube, of rank n: 3^(n-1) + 1 faces."""
    return Generators(n, tuple((1, *s) for s in itertools.product((-1, 1), repeat=n - 1)))


def generated_spec(rng, n):
    """Generators of rank n: pointed or with a line, scaled by 2 or 3 for
    torsion, with a duplicate or a zero generator thrown in at random."""
    gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n + 3))]
    if n and rng.random() < 0.3:
        line = tuple(rng.randint(-2, 2) for _ in range(n))
        gens += [line, tuple(-a for a in line)]
    if gens and rng.random() < 0.3:
        scale = rng.choice((2, 3))
        gens = [tuple(scale * a for a in g) for g in gens]
    if gens and rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.3:
        gens.append((0,) * n)
    rng.shuffle(gens)
    return Generators(n, tuple(gens))


GENERATED = ([generated_spec(random.Random(f"tables:{n}:{i}"), n)
              for n in range(7) for i in range(12)]
             + [atlas_spec(random.Random(f"tables:{kind}:{i}"), kind)
                for kind in ("r3.5", "r3l", "r4.6", "r4l", "r5.5") for i in range(4)])
CUBES = [cube(n) for n in (2, 3, 4, 5, 6)]
def seeded_spec(seed, n, m):
    """m generators of rank n drawn one by one from ``random.Random(seed)``:
    the first coordinate in 1..4, the others in -3..3."""
    rng = random.Random(seed)
    return Generators(n, tuple((rng.randint(1, 4), *(rng.randint(-3, 3) for _ in range(n - 1)))
                               for _ in range(m)))


# 150 facets and 1,012 faces: each face reads a small share of the cone's
# inequalities projected onto its span
MANY_FACETS = seeded_spec(630, 6, 30)
TOWERS = ([random_tower(random.Random(f"tables:tower:{d}:{i}"), d, TORSION_BASES)
           for d in range(1, 5) for i in range(6)]
          + [tower_chain(random.Random(f"tables:chain:{d}"), d) for d in range(1, 6)])


def generated_part(spec):
    """The atlas's faces below its half spaces and the reference's faces of
    its flattened base."""
    half_spaces, base, ambient = semigroups._flatten(spec)
    depth = len(half_spaces)
    return enumerate_faces(spec).faces[depth:], ref_generator_faces(base, ambient, depth)


@pytest.mark.parametrize("spec", GENERATED + CUBES + TOWERS + [MANY_FACETS])
def test_faces_equal_the_per_face_route(spec):
    faces, reference = generated_part(spec)
    assert list(faces) == reference


def test_the_rank_7_cube_equals_the_per_face_route():
    faces, reference = generated_part(cube(7))
    assert len(faces) == 730
    assert list(faces) == reference


def test_facet_normals_are_projected_only_when_read(counted):
    # one rank-one step per projection some face reads, not one per face
    # and inequality not tight on it (146,850 steps here)
    calls, count = counted
    semigroups._flatten(MANY_FACETS)  # the double description, cached
    count(semigroups, "_reduce")
    atlas = enumerate_faces(MANY_FACETS)
    assert len(atlas.faces) == 1012 and len(atlas.faces[0].cone.inequalities) == 150
    assert calls["_reduce"] <= 10_000


def test_the_atlas_leaves_no_reference_cycles():
    enumerate_faces(MANY_FACETS)  # warm caches
    gc.collect()
    gc.disable()
    try:
        enumerate_faces(MANY_FACETS)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernel_and_torsion_equal_the_kernel_and_the_smith_form():
    rng = random.Random(28)
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [tuple(rng.choice((0, 1, -2, 3, 4, -6)) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        kernel, torsion = kernel_and_torsion(rows, n)
        assert kernel == int_kernel(rows, n)
        assert torsion == basis_torsion(hnf(rows, n).basis)


@pytest.mark.parametrize("spec", [atlas_spec(random.Random("tables:gram"), "r5.5"), cube(5)])
def test_pointed_full_dimensional_atlas_runs_no_gram_solve(counted, spec):
    # no module has a rational solver to call, and a face's normals and
    # local rays take no conversion: the atlas runs no double description
    assert package_definitions(SOLVER_NAMES) == []
    calls, count = counted
    semigroups._flatten(spec)  # the double description, cached
    face_lattice.cache_clear()
    count(cones, "_double_description")
    atlas = enumerate_faces(spec)
    assert len(atlas.faces) >= 32
    assert calls["_double_description"] == 0


def test_face_0_runs_no_kernel(counted):
    # face 0 holds every generator, so its equations are the cone's and its
    # torsion comes from its basis alone; every other face runs one kernel
    calls, count = counted
    spec = atlas_spec(random.Random("tables:face0"), "r5.5")
    semigroups._flatten(spec)  # the double description and its kernels, cached
    count(intlinalg, "_kernel")
    atlas = enumerate_faces(spec)
    assert len(atlas.faces) == 32
    assert calls["_kernel"] == 31


def test_unimodular_faces_run_no_smith_form(counted):
    calls, count = counted
    count(intlinalg, "_smith_diagonal")
    orthant = Generators(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    atlas = enumerate_faces(orthant)
    assert len(atlas.faces) == 16 and not any(f.torsion for f in atlas.faces)
    assert calls["_smith_diagonal"] == 0
    # faces whose members span a sublattice of index 2 or 4 still have their torsion
    assert [f.torsion for f in enumerate_faces(EVEN_AXIS).faces] == [(), (), (2,), ()]
    assert enumerate_faces(Generators(2, ((2, 0), (0, 2)))).faces[0].torsion == (2, 2)


def check_completeness(faces, covers):
    """Every face but the first has a cover above it; the lattice is
    Eulerian (Euler's relation) unless it is a single face; every interval
    of length 2 holds exactly four faces (Ziegler 1995, Thm 2.7)."""
    ids = [f.face_id for f in faces]
    above = {j for _, j in covers}
    assert above == set(ids[1:])
    least = min(f.dim for f in faces)
    euler = sum((-1) ** (f.dim - least) for f in faces)
    assert euler == (1 if len(faces) == 1 else 0)
    below = {k: [j for a, j in covers if a == k] for k in ids}
    between = Counter((k, i) for k in ids for j in below[k] for i in below[j])
    assert set(between.values()) <= {2}


@pytest.mark.parametrize("spec", [s for s in GENERATED if 2 <= s.ambient_rank <= 6] + CUBES)
def test_generated_atlases_are_complete(spec):
    atlas = enumerate_faces(spec)
    check_completeness(atlas.faces, atlas.covers)


@pytest.mark.parametrize("spec", TOWERS)
def test_generated_part_of_towers_is_complete(spec):
    atlas = enumerate_faces(spec)
    depth = sum(f.member_generators is None for f in atlas.faces)
    check_completeness(atlas.faces[depth:], [(a, b) for a, b in atlas.covers if a >= depth])
