"""The local lineality of a face with a line, and the specs with lineality
that the oracle's agreement and a change of basis check.

A face's local lineality is the integer kernel of its local facet normals,
one kernel and no HNF per face, the rule of every cone of the package; it
is checked against the earlier route of ``helpers.finalize_face``, the HNF
of the lineality's coordinates saturated by two more kernels.  A
restriction matrix of the character algebra is one back-substitution for
all its rows, and a ray query one per base for a point of every face below
it, with no restriction matrix.  The oracle's faces and the numeric
homomorphism check cover specs with a line, and a unimodular change of
basis keeps every invariant of the atlas and of membership.
"""

import random
from collections import Counter
from itertools import product

import pytest

from toric_spectrum import (
    Generators,
    Ray,
    chain_of_rays,
    characters,
    contains,
    enumerate_faces,
    face_members_in_box,
    ray_limit,
    semigroups,
)
from toric_spectrum.oracle import BoxSpec, brute_force_faces, numeric_homomorphism_check

from helpers import CHARS_SPECS, atlas_spec, finalize_face, nested_tower

# a line through a plane with torsion Z/2: the CI spec of plane.json
PLANE = Generators(3, ((1, 1, 0), (-1, -1, 0), (0, 2, 2), (1, 3, 2)))

WITH_LINE = [atlas_spec(random.Random(f"lineality:{kind}:{i}"), kind)
             for kind in ("r3l", "r4l", "r5l") for i in range(3)] + [PLANE]


def scoped_counts(monkeypatch, scope, names):
    """Count the calls of ``semigroups`` functions made inside the function
    ``scope`` of the same module, and the calls of ``scope`` itself."""
    calls, depth = Counter(), [0]
    original = getattr(semigroups, scope)

    def scoped(*args, **kwargs):
        calls[scope] += 1
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counter(name, function):
        def wrapper(*args, **kwargs):
            if depth[0]:
                calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(semigroups, scope, scoped)
    for name in names:
        monkeypatch.setattr(semigroups, name, counter(name, getattr(semigroups, name)))
    return calls


@pytest.mark.parametrize("spec", WITH_LINE)
def test_a_local_lineality_is_one_kernel_of_the_local_normals(monkeypatch, spec):
    calls = scoped_counts(monkeypatch, "_finalize_face", ("hnf", "int_kernel"))
    atlas = enumerate_faces(spec)
    assert calls["_finalize_face"] == len(atlas.faces)
    assert calls["hnf"] == 0
    lined = sum(bool(face.cone.lineality) for face in atlas.faces)
    assert lined == len(atlas.faces) and calls["int_kernel"] == lined
    for face in atlas.faces:
        _, cone_local, dual_local = finalize_face(face.cone, face.lattice, face.dim)
        assert (face.cone_local, face.dual_cone_local) == (cone_local, dual_local)
        assert len(face.cone_local.lineality) == len(face.cone.lineality)


@pytest.mark.parametrize("spec", WITH_LINE)
def test_a_restriction_is_one_back_substitution(counted, spec):
    calls, count = counted
    count(characters, "hnf_coordinates")
    atlas = enumerate_faces(spec)
    pairs = [(j, k) for j in range(len(atlas.faces)) for k in range(len(atlas.faces))
             if atlas.leq(j, k)]
    for built, (j, k) in enumerate(pairs, 1):
        rows = characters._restriction(atlas, j, k)
        assert len(rows) == atlas.faces[j].rank
        assert calls["hnf_coordinates"] == built
        assert characters._restriction(atlas, j, k) is rows
        assert calls["hnf_coordinates"] == built


def test_a_ray_query_solves_one_point_per_face_below_its_base(monkeypatch):
    solved = Counter()
    original = characters.hnf_coordinates

    def counting(basis, xs):
        solved["calls"] += 1
        solved["vectors"] += len(xs)
        return original(basis, xs)

    monkeypatch.setattr(characters, "hnf_coordinates", counting)
    # 62 faces in a chain: one call per step's base, on the faces below it
    atlas = enumerate_faces(nested_tower(60))
    assert len(chain_of_rays(atlas, 0, 61)) == 61
    assert solved["calls"] <= 61 and solved["vectors"] <= 1952
    assert not any(isinstance(key, tuple) for key in atlas._restrictions)
    for spec in CHARS_SPECS:
        atlas = enumerate_faces(spec)
        for j, face in enumerate(atlas.faces):
            for lam in [(0,) * face.rank, *face.dual_cone_local.rays]:
                ray_limit(atlas, Ray(j, lam))
        assert not any(isinstance(key, tuple) for key in atlas._restrictions)


@pytest.mark.parametrize("spec", WITH_LINE[:2] + WITH_LINE[3:5] + [PLANE])
def test_the_oracle_agrees_on_specs_with_a_line(spec):
    atlas = enumerate_faces(spec)
    face_sets = face_members_in_box(atlas, 4)
    assert brute_force_faces(spec, BoxSpec(4)) == set(face_sets)
    members = sorted(face_sets[0])
    assert numeric_homomorphism_check(atlas, members, 200, seed=3) <= 1e-9


def unimodular(rng, n):
    """A random unimodular integer matrix: the identity under a signed
    permutation and a few elementary row operations."""
    rows = [[int(i == j) * rng.choice((-1, 1)) for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[j] = [b + c * a for a, b in zip(rows[i], rows[j])]
    return rows


def times(x, u):
    """The row vector x times the matrix u."""
    return tuple(sum(a * row[j] for a, row in zip(x, u)) for j in range(len(u)))


def lineality_and_torsion_spec(rng):
    """Pointed generators of rank 2 to 4 plus a line, scaled by 2 or 3, for
    torsion, two times in three."""
    spec = atlas_spec(rng, rng.choice(("r2l", "r3l", "r4l")))
    scale = rng.choice((1, 2, 3))
    return Generators(spec.ambient_rank, tuple(tuple(scale * a for a in g)
                                               for g in spec.generators))


def face_invariants(face):
    local = face.cone_local
    return (face.dim, face.rank, face.torsion,
            len(local.lineality), len(local.rays), len(local.inequalities))


@pytest.mark.parametrize("seed", range(30))
def test_a_unimodular_change_of_basis_keeps_the_atlas_and_membership(seed):
    rng = random.Random(f"lineality:unimodular:{seed}")
    spec = PLANE if seed == 0 else lineality_and_torsion_spec(rng)
    n = spec.ambient_rank
    u = unimodular(rng, n)
    image = Generators(n, tuple(times(g, u) for g in spec.generators))
    atlas, mapped = enumerate_faces(spec), enumerate_faces(image)
    assert len(mapped.faces) == len(atlas.faces)
    # a face of a generated semigroup is fixed by its member generators
    ids = {frozenset(f.member_generators): f.face_id for f in mapped.faces}
    match = [ids[frozenset(times(g, u) for g in f.member_generators)] for f in atlas.faces]
    for face, j in zip(atlas.faces, match):
        assert face_invariants(face) == face_invariants(mapped.faces[j])
    assert {(match[a], match[b]) for a, b in atlas.covers} == set(mapped.covers)
    assert (mapped.antisymmetric, mapped.separating) == (atlas.antisymmetric, atlas.separating)
    assert any(face.cone_local.lineality for face in atlas.faces)
    for x in product(range(-2, 3), repeat=n):
        assert contains(spec, x) == contains(image, times(x, u))
