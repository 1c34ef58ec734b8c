"""The double description runs in the rank of the cone's linear span: the
span's equations are eliminated once, and the cone is converted on the
pairings of its generators with a saturated basis of its span.  Checked
against the two-pass reference and against the Gram-lift conversion it
replaces (``helpers.ref_cone_from_rays``)."""

import random

import pytest

from toric_spectrum import Generators, cone_from_inequalities, cone_from_rays, enumerate_faces
from toric_spectrum import cones
from toric_spectrum.intlinalg import hnf
from toric_spectrum.oracle import _orank

from helpers import EVEN_AXIS, random_tower, ref_cone_from_rays, two_pass_cone


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


def subspace_input(rng):
    """Rays and lineality generators in a random proper subspace of Z^n of
    rank 0 to n - 1, with lines (a ray and its negative), zero and
    duplicate generators among them."""
    n = rng.randint(1, 6)
    span = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n - 1))]

    def point():
        coeffs = [rng.randint(-2, 2) for _ in span]
        return tuple(sum(c * row[j] for c, row in zip(coeffs, span)) for j in range(n))

    rays = [point() for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.3:
        line = point()
        rays += [line, tuple(-a for a in line)]
    if rays and rng.random() < 0.3:
        rays.append(rng.choice(rays))
    rays += [(0,) * n] * rng.randint(0, 1)
    rng.shuffle(rays)
    return rays, [point() for _ in range(rng.randint(0, 2))], n


# one or two rays over a lineality of rank 3 in a proper subspace of Z^6:
# mapped back out of the span's coordinates, the lineality's kernel basis
# is no longer in HNF
UNREDUCED_LINEALITY = [
    ([(1, -5, 1, -1, -2, 0)],
     [(-3, 0, -10, 7, 1, 8), (-11, -14, -8, -3, -3, -1), (-2, -8, -4, 10, -20, 0)]),
    ([(0, -7, 1, 11, 1, -5), (-7, 0, 7, -8, 7, 13)],
     [(-6, 1, 5, -9, 4, 11), (9, 7, -7, 1, -5, -9), (-6, 0, 0, -8, 8, 8)]),
]


@pytest.mark.parametrize("rays, lineality", UNREDUCED_LINEALITY)
def test_lineality_mapped_out_of_the_span_is_in_hnf(rays, lineality):
    cone = cone_from_rays(rays, lineality, 6)
    assert cone.equations and len(cone.lineality) == 3
    assert cone == ref_cone_from_rays(rays, lineality, 6)
    assert cone.lineality == hnf(cone.lineality, 6).basis


def test_pairing_route_equals_the_gram_lift():
    rng = random.Random(30)
    seen = {"rank 0": 0, "line": 0, "lineality": 0}
    for _ in range(700):
        rays, lineality, n = subspace_input(rng)
        expected = ref_cone_from_rays(rays, lineality, n)
        assert expected.equations
        assert cone_from_rays(rays, lineality, n) == expected, (rays, lineality)
        assert cone_from_inequalities(rays, lineality, n) == cones.dual_cone(expected)
        seen["rank 0"] += expected.dim() == 0
        seen["line"] += any(tuple(-a for a in r) in rays for r in rays if any(r))
        seen["lineality"] += bool(expected.lineality)
    assert min(seen.values()) >= 50, seen
