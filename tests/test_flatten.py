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
    contains,
    enumerate_faces,
    lattice_contains,
    validate_atlas,
)
from toric_spectrum import cones, semigroups
from toric_spectrum.cli import main, spec_document
from toric_spectrum.intlinalg import Lattice, dot, lattice_coordinates
from toric_spectrum.semigroups import boundary_basis, embed_point

from helpers import EVEN_AXIS, random_tower, skew_normal

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


def test_caches_stay_bounded():
    cones.face_lattice.cache_clear()
    semigroups._membership_data.cache_clear()
    for i in range(300):
        spec = Generators(2, ((1, 0), (i, 1)))
        enumerate_faces(spec)
        contains(Tower(3, skew_normal(random.Random(i), 3), spec), (0, 0, 0))
    for cache in (cones.face_lattice, semigroups._membership_data):
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
