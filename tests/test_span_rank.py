"""The double description runs in the rank of the cone's linear span: the
span's equations are eliminated once, and the cone is converted on the
coordinates of a saturated basis of its span."""

import random

import pytest

from toric_spectrum import Generators, cone_from_inequalities, cone_from_rays, enumerate_faces
from toric_spectrum import cones
from toric_spectrum.oracle import _orank

from helpers import EVEN_AXIS, random_tower, two_pass_cone


@pytest.fixture
def dd_ranks(monkeypatch):
    """The ambient rank of every double description run."""
    ranks = []
    original = cones._double_description

    def recorded(inequalities, equations, ambient_rank):
        ranks.append(ambient_rank)
        return original(inequalities, equations, ambient_rank)

    monkeypatch.setattr(cones, "_double_description", recorded)
    cones.face_lattice.cache_clear()
    yield ranks
    cones.face_lattice.cache_clear()


@pytest.mark.parametrize("depth", range(1, 7))
def test_tower_base_runs_in_the_rank_of_its_span(dd_ranks, depth):
    spec = random_tower(random.Random(f"span:{depth}"), depth, (EVEN_AXIS,))
    atlas = enumerate_faces(spec)
    assert spec.ambient_rank == depth + 2
    assert dd_ranks == [2], f"{len(atlas.faces)} faces"


@pytest.mark.parametrize("generators", [
    ((1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0)),   # a plane in Z^4
    ((2, 0, 2), (-1, 0, -1)),                      # a line, both directions
    ((0, 0, 0), (3, 6, 9)),                        # a ray and the zero vector
    ((0, 0),),                                     # the zero cone
])
def test_generators_in_a_subspace_run_in_its_rank(dd_ranks, generators):
    n = len(generators[0])
    atlas = enumerate_faces(Generators(n, generators))
    assert dd_ranks == [_orank(generators)]
    assert atlas.ambient_cone.dim() == _orank(generators)


def lower_rank_input(rng):
    """Rays and lineality generators in a random proper subspace of Z^n,
    with zero vectors among them."""
    n = rng.randint(1, 6)
    span = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n - 1))]

    def point():
        out = [0] * n
        for row in span:
            c = rng.randint(-2, 2)
            out = [a + c * b for a, b in zip(out, row)]
        return tuple(out)

    rays = [point() for _ in range(rng.randint(0, 6))] + [(0,) * n] * rng.randint(0, 1)
    lineality = [point() for _ in range(rng.randint(0, 2))]
    return rays, lineality, n


def test_span_rank_route_matches_the_ambient_route():
    rng = random.Random(2006)
    lower = 0
    for _ in range(200):
        rays, lineality, n = lower_rank_input(rng)
        lower += _orank(rays + lineality) < n
        expected = two_pass_cone(rays, lineality, n)
        assert cone_from_rays(rays, lineality, n) == expected, (rays, lineality)
        assert cone_from_inequalities(rays, lineality, n) == cones.dual_cone(expected)
    assert lower == 200
