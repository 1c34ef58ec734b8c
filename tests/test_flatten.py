"""A tower read as its half spaces plus its innermost generators embedded
into Z^n: the atlas and membership both work on this one flattening."""

import hashlib
import io
import json
import random

import pytest

from toric_spectrum import (
    Generators,
    Tower,
    asymptotic_cone,
    contains,
    enumerate_faces,
    face_lattice,
    lattice_contains,
    validate_atlas,
)
from toric_spectrum import cones, semigroups
from toric_spectrum.cli import main, spec_document
from toric_spectrum.intlinalg import Lattice, dot
from toric_spectrum.semigroups import boundary_basis, embed_point

from helpers import (
    EVEN_AXIS,
    FULL_LINE,
    HALFSPACE_TOWER,
    atlas_spec,
    lattice_coordinates,
    random_tower,
    skew_normal,
    tower_chain,
)

POINT = Generators(0, ((),))
SKEWED = Tower(5, (1, 2, 0, -1, 3), Tower(4, (2, -1, 1, 1), Tower(3, (1, 1, -2), EVEN_AXIS)))


def innermost_embedding(spec):
    """Rows in Z^n of the innermost boundary basis, and the innermost spec."""
    n = spec.ambient_rank
    embedding = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    while isinstance(spec, Tower):
        embedding = tuple(embed_point(embedding, b, n) for b in boundary_basis(spec))
        spec = spec.inner
    return embedding, spec


def recursive_contains(spec, x):
    """Membership by the tower's own definition, level by level."""
    if isinstance(spec, Generators):
        return contains(spec, x)
    height = dot(spec.normal, x)
    if height:
        return height > 0
    coords = lattice_coordinates(Lattice(spec.ambient_rank, boundary_basis(spec)), x)
    return recursive_contains(spec.inner, coords)


@pytest.mark.parametrize("spec", [Tower(1, (1,), POINT), Tower(2, (2, -1), Tower(1, (1,), POINT))])
def test_rank_zero_base_members_are_zero_vectors(spec):
    atlas = enumerate_faces(spec)
    n = spec.ambient_rank
    base = atlas.faces[atlas.minimal_id]
    assert base.member_generators == ((0,) * n,)
    assert base.rank == 0 and base.lattice == Lattice(n, ())
    assert [f.member_generators for f in atlas.faces if f is not base] == [None] * n
    for g in base.member_generators:
        assert base.cone.contains(g) and lattice_contains(base.lattice, g)
    assert validate_atlas(atlas) == []


def test_contains_matches_recursive_definition():
    rng = random.Random(7)
    specs = [random_tower(random.Random(f"member:{i}"), 1 + i % 4) for i in range(40)] + \
        [random_tower(random.Random(f"point:{i}"), 1 + i % 4, (POINT, Generators(0, ())))
         for i in range(8)]
    for spec in specs:
        n = spec.ambient_rank
        embedding, _ = innermost_embedding(spec)
        for _ in range(30):
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            # and a point on the innermost boundary, where every height is 0
            y = embed_point(embedding, [rng.randint(-4, 4) for _ in embedding], n)
            for point in (x, y):
                assert contains(spec, point) == recursive_contains(spec, point), (spec, point)


def test_repeated_queries_compute_each_boundary_basis_once(monkeypatch):
    embedding, base = innermost_embedding(SKEWED)
    calls = []
    original = semigroups.boundary_basis

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(semigroups, "boundary_basis", counted)
    semigroups._membership_data.cache_clear()
    rng = random.Random(3)
    for _ in range(100):
        y = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert contains(SKEWED, embed_point(embedding, y, 5)) == contains(base, y)
    assert len(calls) <= 3


def order_corpus():
    """Seeded benchmark-style atlas specs (rank 3-5, a third with a line),
    tower chains of depth 1-12, rank-0 bases and specs with lineality."""
    rng = random.Random("order")
    kinds = ("r3.4", "r5.5", "r3l", "r3.5", "r3.6", "r4.5", "r4l")
    specs = [atlas_spec(rng, kinds[i % len(kinds)]) for i in range(70)]
    specs += [tower_chain(rng, depth) for depth in range(1, 13) for _ in range(2)]
    specs += [POINT, Generators(0, ()), Tower(1, (1,), POINT), Tower(2, (2, -1), Tower(1, (1,), POINT)),
              FULL_LINE, HALFSPACE_TOWER, Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 2))),
              Tower(4, (1, 0, 2, -1), Generators(3, ((1, 1, 0), (-1, -1, 0), (0, 0, 1))))]
    specs += [random_tower(random.Random(f"order:{i}"), 1 + i % 4,
                           (POINT, Generators(0, ()), FULL_LINE, Generators(2, ((1, 0), (-1, 0)))))
              for i in range(12)]
    return specs


def test_atlas_is_the_half_spaces_then_the_face_lattice():
    # ids: one half space per level, by level, then the face lattice of the
    # embedded base in its own order offset by the depth; covers: the chain
    # of half spaces, then the lattice covers offset by the depth
    for spec in order_corpus():
        n = spec.ambient_rank
        embedding, inner = innermost_embedding(spec)
        depth = n - inner.ambient_rank
        ambient = asymptotic_cone(
            Generators(n, tuple(embed_point(embedding, g, n) for g in inner.generators)))
        lattice = face_lattice(ambient)
        atlas = enumerate_faces(spec)
        assert len(atlas.faces) == depth + len(lattice.faces), spec
        assert [f.face_id for f in atlas.faces] == list(range(len(atlas.faces)))
        for level, face in enumerate(atlas.faces[:depth]):
            assert (face.dim, face.rank, face.member_generators) == (n - level, n - level, None)
        for handle, ray_set, face in zip(lattice.faces, lattice.ray_sets, atlas.faces[depth:]):
            assert face.dim == handle.dim, spec
            assert face.cone.rays == tuple(ambient.rays[j] for j in ray_set), spec
            assert face.cone.lineality == ambient.lineality, spec
        assert atlas.covers == tuple([(k, k + 1) for k in range(depth)] +
                                     [(depth + a, depth + b) for a, b in lattice.covers]), spec


def test_caches_stay_bounded():
    cones.face_lattice.cache_clear()
    semigroups._flatten.cache_clear()
    semigroups._membership_data.cache_clear()
    for i in range(300):
        spec = Generators(2, ((1, 0), (i, 1)))
        enumerate_faces(spec)
        contains(Tower(3, skew_normal(random.Random(i), 3), spec), (0, 0, 0))
    for cache in (cones.face_lattice, semigroups._flatten, semigroups._membership_data):
        info = cache.cache_info()
        assert info.maxsize == cones.CACHE_SIZE < 300
        assert info.currsize <= info.maxsize


# sha256 of `analyze --json` on seeded chains deeper than the benchmark's
# digests reach, frozen before the flag was walked in one pass and the
# double description moved to the span's rank
DEEP_DIGESTS = {
    8: "763a5eb90de16328b70708a23f4ffbd77691dfc4cdf31f6b3eaf333d40b224cd",
    16: "a067484f75e9b37d5fd772f5b5a2925a28ed06a87fdda0ee63e9a211f7769371",
    24: "6e6d18b4c15559336f2ec3a64349b7e3167f5c123d08261330dd6b2ca473e91d",
}


@pytest.mark.parametrize("depth", sorted(DEEP_DIGESTS))
def test_deep_tower_report_is_unchanged(tmp_path, depth):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(spec_document(random_tower(random.Random(f"deep:{depth}"), depth))),
                    encoding="utf-8")
    out = io.StringIO()
    assert main(["analyze", "--json", str(path)], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEEP_DIGESTS[depth]
