import importlib
import pkgutil
import random

import pytest

import toric_spectrum
from toric_spectrum import cones
from toric_spectrum.cones import (
    cone_from_inequalities,
    cone_from_rays,
    dual_cone,
    face_lattice,
)
from toric_spectrum.intlinalg import InvariantViolation, dot, vec_neg
from toric_spectrum.oracle import BoxSpec, _orank, dd_cross_check

from helpers import pointed_generators, random_generators, two_pass_cone, two_pass_cone_from_rays

QUADRANT = cone_from_rays([(2, 0), (0, 1), (1, 1)])
HALFSPACE3 = cone_from_inequalities([(0, 0, 1)])
OCTANT = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def random_cone(rng, max_rank=4):
    spec = random_generators(rng, max_rank=max_rank, max_gens=6, coord=3)
    if rng.random() < 0.5:
        return cone_from_rays(spec.generators, (), spec.ambient_rank)
    return cone_from_inequalities(spec.generators, (), spec.ambient_rank)


def test_convert_redundant_rays_to_quadrant():
    assert QUADRANT.rays == ((0, 1), (1, 0))
    assert QUADRANT.inequalities == ((0, 1), (1, 0))
    assert QUADRANT.lineality == ()
    assert QUADRANT.equations == ()


def test_convert_halfspace():
    # brute oracle: every primitive direction in a small box lies on the
    # correct side of both representations
    assert HALFSPACE3.lineality == ((1, 0, 0), (0, 1, 0))
    assert HALFSPACE3.rays == ((0, 0, 1),)
    report = dd_cross_check(HALFSPACE3, BoxSpec(3))
    assert report.mismatches == ()


def test_convert_no_inequalities_is_full_space():
    cone = cone_from_inequalities([], [], 2)
    assert cone.rays == () and cone.inequalities == ()
    assert cone.lineality == ((1, 0), (0, 1)) and cone.equations == ()


def test_convert_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        cone_from_rays([(1, 0), (1, 0, 0)])


def test_dual_examples():
    assert dual_cone(QUADRANT) == QUADRANT
    ray = cone_from_rays([(1, 0)], ambient_rank=2)
    halfplane = dual_cone(ray)
    assert halfplane.rays == ((1, 0),) and halfplane.lineality == ((0, 1),)
    zero = cone_from_rays([], [], 2)
    assert dual_cone(zero) == cone_from_inequalities([], [], 2)


def test_dual_is_involution_on_random_cones():
    rng = random.Random(4242)
    for _ in range(40):
        cone = random_cone(rng, max_rank=4)
        assert dual_cone(dual_cone(cone)) == cone


def test_face_lattice_counts():
    assert len(face_lattice(QUADRANT).faces) == 4
    assert len(face_lattice(HALFSPACE3).faces) == 2
    assert len(face_lattice(OCTANT).faces) == 8


def test_face_lattice_quadrant_structure():
    lattice = face_lattice(QUADRANT)
    assert [(f.id, f.dim, f.tight_set) for f in lattice.faces] == [
        (0, 2, ()), (1, 1, (1,)), (2, 1, (0,)), (3, 0, (0, 1))]
    assert lattice.covers == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_face_lattice_closed_under_meet():
    rng = random.Random(77)
    for _ in range(25):
        cone = random_cone(rng, max_rank=3)
        lattice = face_lattice(cone)
        sets = [frozenset(rs) for rs in lattice.ray_sets]
        for a in sets:
            for b in sets:
                assert (a & b) in sets
        # the lineality face is below everything
        bottom = min(sets, key=len)
        assert all(bottom <= s for s in sets)


def test_representation_consistency_random():
    rng = random.Random(1331)
    for _ in range(30):
        cone = random_cone(rng, max_rank=4)
        for r in cone.rays:
            assert cone.contains(r)
            for e in cone.equations:
                assert dot(e, r) == 0
        for l in cone.lineality:
            assert cone.contains(l) and cone.contains(vec_neg(l))
        d = cone.dim()
        assert d == _orank(list(cone.rays) + list(cone.lineality))
        for a in cone.inequalities:
            tight = [r for r in cone.rays if dot(a, r) == 0]
            assert _orank(tight + list(cone.lineality)) == d - 1
        report = dd_cross_check(cone, BoxSpec(2))
        assert report.mismatches == ()


def test_zero_rank_cone():
    cone = cone_from_rays([], [], 0)
    assert cone.rays == () and cone.contains(())
    assert len(face_lattice(cone).faces) == 1


def reference_face_lattice(cone):
    """Faces as the pairwise intersection closure of the facet ray sets and
    the whole cone, covers as the transitive reduction of strict inclusion,
    dimensions by rank."""
    m = len(cone.rays)
    sets = {frozenset(range(m))} | {
        frozenset(j for j in range(m) if dot(a, cone.rays[j]) == 0) for a in cone.inequalities}
    while True:
        meets = {a & b for a in sets for b in sets} - sets
        if not meets:
            break
        sets |= meets
    entries = sorted(
        ((_orank([cone.rays[j] for j in rs] + list(cone.lineality)),
          tuple(i for i, a in enumerate(cone.inequalities)
                if all(dot(a, cone.rays[j]) == 0 for j in rs)), rs) for rs in sets),
        key=lambda t: (-t[0], sorted(t[2])))
    ordered = [rs for _, _, rs in entries]
    covers = sorted((i, j) for i, a in enumerate(ordered) for j, b in enumerate(ordered)
                    if b < a and not any(b < c < a for c in ordered))
    return ([(d, tight) for d, tight, _ in entries], covers,
            [tuple(sorted(rs)) for rs in ordered])


def test_face_lattice_matches_intersection_closure():
    rng = random.Random(2002)
    for _ in range(150):
        cone = random_cone(rng, max_rank=5)
        for c in (cone, dual_cone(cone)):
            lattice = face_lattice(c)
            handles, covers, ray_sets = reference_face_lattice(c)
            assert [(h.dim, h.tight_set) for h in lattice.faces] == handles
            assert [h.id for h in lattice.faces] == list(range(len(handles)))
            assert list(lattice.covers) == covers
            assert list(lattice.ray_sets) == ray_sets


def test_cone_from_inequalities_is_dual_of_generated_cone():
    rng = random.Random(1968)
    for _ in range(200):
        n = rng.randint(1, 5)
        ineqs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n + 2))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        cone = cone_from_inequalities(ineqs, eqs, n)
        # convert to normals, canonicalise, convert back, canonicalise, swap sides
        assert cone == dual_cone(two_pass_cone(ineqs, eqs, n))
        assert cone_from_inequalities(cone.inequalities, cone.equations, n) == cone


def reference_input(rng):
    """Generators of rank 0-6, in Z^n or in a random proper subspace, with
    zero, duplicate and redundant rays and lineality generators mixed in."""
    n = rng.randint(0, 6)
    proper = n > 0 and rng.random() < 0.5
    basis = ([tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n - 1))]
             if proper else [tuple(int(i == j) for j in range(n)) for i in range(n)])

    def point():
        out = [0] * n
        for row in basis:
            c = rng.randint(-3, 3)
            out = [a + c * b for a, b in zip(out, row)]
        return tuple(out)

    rays = [point() for _ in range(rng.randint(0, 8))]
    if len(rays) > 1:
        rays.append(tuple(a + b for a, b in zip(rays[0], rays[1])))  # redundant
        rays.append(tuple(2 * a for a in rng.choice(rays)))           # duplicate ray
        rays.append(rng.choice(rays))                                 # duplicate vector
    if rng.random() < 0.3:
        rays.append((0,) * n)
    lineality = [point() for _ in range(rng.randint(1, 2))] if rng.random() < 0.4 else []
    rng.shuffle(rays)
    return rays, lineality, n, proper


def reference_corpus():
    """The seeded inputs of the one-pass conversion tests, with counts of
    the kinds they cover."""
    rng = random.Random(1996)
    seen = {"proper": 0, "full": 0, "lineality": 0, "zero": 0, "ranks": set()}
    corpus = []
    for _ in range(600):
        rays, lineality, n, proper = reference_input(rng)
        seen["proper" if proper else "full"] += 1
        seen["lineality"] += bool(lineality)
        seen["zero"] += (0,) * n in rays
        seen["ranks"].add(n)
        corpus.append((rays, lineality, n))
    return corpus, seen


# a cone over the cyclic 4-polytope with 12 vertices: 54 facets
CYCLIC = [tuple(t ** k for k in range(5)) for t in range(12)]
# a rank-5 cone on 60 seeded generators: 48 facets
SIXTY = pointed_generators(random.Random(5), 5, 60)


def test_one_pass_conversion_matches_the_two_pass_reference():
    corpus, seen = reference_corpus()
    # cones in a proper subspace with lineality: only these read their
    # lineality in the span's rank, off the kernel of the local normals
    seen["proper with lineality"] = 0
    for rays, lineality, n in corpus:
        expected = two_pass_cone_from_rays(rays, lineality, n)
        assert cone_from_rays(rays, lineality, n) == expected, (rays, lineality, n)
        assert cone_from_inequalities(rays, lineality, n) == dual_cone(expected)
        seen["proper with lineality"] += bool(expected.equations and expected.lineality)
    assert seen["ranks"] == set(range(7))
    assert min(seen["proper"], seen["full"], seen["lineality"], seen["zero"],
               seen["proper with lineality"]) >= 50, seen
    for gens, facets in ((CYCLIC, 54), (SIXTY, 48)):
        cone = cone_from_rays(gens)
        assert len(cone.inequalities) == facets
        assert cone == two_pass_cone_from_rays(gens, (), 5)
        assert cone_from_inequalities(gens) == dual_cone(cone)


def test_conversion_takes_no_rank():
    """Adjacency and extreme rays are read off tight-set bitmasks, and a
    canonical cone's dimension off its equations: no module of the package
    defines or imports a rank helper."""
    names = [info.name for info in pkgutil.iter_modules(toric_spectrum.__path__)]
    assert {"cones", "intlinalg", "semigroups"} <= set(names)
    assert not hasattr(toric_spectrum, "rank_of_rows")
    for name in names:
        module = importlib.import_module(f"toric_spectrum.{name}")
        assert not hasattr(module, "rank_of_rows"), name


def test_double_description_refuses_constraints_that_do_not_span():
    # x_1 >= 0 leaves the x_2 axis as lineality: the pass runs only on
    # constraints that span, so it has no lineality to return
    with pytest.raises(InvariantViolation):
        cones._double_description([(1, 0)], [], 2)
