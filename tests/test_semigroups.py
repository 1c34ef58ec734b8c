import random
from fractions import Fraction
from itertools import product

import pytest

from toric_spectrum import (
    Generators,
    Tower,
    asymptotic_cone,
    cone_from_rays,
    contains,
    dual_cone,
    enumerate_faces,
    face_lattice,
    hull_contains,
    members_in_box,
    validate_atlas,
    zero_face,
)
from toric_spectrum.semigroups import boundary_basis, embed_point

from helpers import (
    EVEN_AXIS,
    FULL_LINE,
    GAP_NUMERIC,
    HALF_LINE,
    HALFSPACE_TOWER,
    FIXTURES,
    random_generators,
    ref_is_antisymmetric,
    ref_is_separating,
)


def find_face(atlas, rays, lineality=()):
    matches = [f for f in atlas.faces
               if f.cone.rays == tuple(rays) and f.cone.lineality == tuple(lineality)]
    assert len(matches) == 1, f"no unique face with rays {rays}"
    return matches[0]


def test_asymptotic_cone_examples():
    quad = asymptotic_cone(EVEN_AXIS)
    assert quad.rays == ((0, 1), (1, 0)) and quad.inequalities == ((0, 1), (1, 0))
    half = asymptotic_cone(HALFSPACE_TOWER)
    assert half.inequalities == ((0, 0, 1),) and half.rays == ((0, 0, 1),)
    plane = asymptotic_cone(Generators(2, ((1, 0), (-1, 0), (0, 1), (0, -1))))
    assert plane.lineality == ((1, 0), (0, 1)) and plane.rays == ()


def test_bidual_identity_random():
    rng = random.Random(808)
    for _ in range(40):
        spec = random_generators(rng)
        direct = asymptotic_cone(spec)
        bidual = dual_cone(dual_cone(cone_from_rays(spec.generators, (),
                                                    spec.ambient_rank)))
        assert direct == bidual


def test_enumerate_faces_counts():
    assert len(enumerate_faces(EVEN_AXIS).faces) == 4
    assert len(enumerate_faces(HALFSPACE_TOWER).faces) == 5
    assert len(enumerate_faces(HALF_LINE).faces) == 2
    assert len(enumerate_faces(FULL_LINE).faces) == 1


def test_tower_face_dimensions():
    atlas = enumerate_faces(HALFSPACE_TOWER)
    assert sorted(f.dim for f in atlas.faces) == [0, 1, 1, 2, 3]


def test_face_expansion_stabilizes_after_one_round():
    # for generated semigroups the faces of the asymptotic cone already give
    # every face, so a second expansion round adds nothing
    for spec in (EVEN_AXIS, GAP_NUMERIC, HALF_LINE, FULL_LINE):
        cone = asymptotic_cone(spec)
        lattice = face_lattice(cone)
        round_one = set()
        for handle in lattice.faces:
            tight = [cone.inequalities[i] for i in handle.tight_set]
            members = frozenset(g for g in spec.generators
                                if all(sum(a * b for a, b in zip(t, g)) == 0
                                       for t in tight))
            round_one.add(members)
        atlas = enumerate_faces(spec)
        assert len(round_one) == len(atlas.faces)


def test_face_completeness_matches_cone_faces():
    rng = random.Random(515)
    for _ in range(20):
        spec = random_generators(rng, max_rank=3, max_gens=5)
        atlas = enumerate_faces(spec)
        assert len(atlas.faces) == len(face_lattice(asymptotic_cone(spec)).faces)


def test_face_groups_even_axis():
    atlas = enumerate_faces(EVEN_AXIS)
    x_axis = find_face(atlas, [(1, 0)])
    y_axis = find_face(atlas, [(0, 1)])
    assert x_axis.lattice.basis == ((2, 0),)
    assert x_axis.torsion == (2,)
    assert y_axis.lattice.basis == ((0, 1),)
    assert atlas.faces[0].lattice.basis == ((1, 0), (0, 1))
    assert x_axis.member_generators == ((2, 0),)


def test_dual_face_cones_even_axis():
    atlas = enumerate_faces(EVEN_AXIS)
    assert atlas.faces[0].dual_cone_local.rays == ((0, 1), (1, 0))
    x_axis = find_face(atlas, [(1, 0)])
    assert x_axis.dual_cone_local.rays == ((1,),)
    origin = find_face(atlas, [])
    assert origin.dual_cone_local.ambient_rank == 0


def test_public_names_resolve_and_pruned_names_are_gone():
    import toric_spectrum
    from toric_spectrum import cli, cones, intlinalg, semigroups

    namespace = {}
    exec("from toric_spectrum import *", namespace)  # a stale entry raises here
    assert set(toric_spectrum.__all__) <= set(namespace)
    pruned = {
        toric_spectrum: ("face_group", "dual_face_cone", "is_antisymmetric", "is_separating",
                         "is_pointed", "full_cone", "zero_cone", "quotient_invariants",
                         "saturation_index"),
        semigroups: ("face_group", "dual_face_cone", "_local_coordinates", "is_antisymmetric",
                     "is_separating"),
        semigroups.SpectrumAtlas: ("leq_table", "top_id"),
        intlinalg: ("rank_of_rows", "vec_add", "vec_sub", "quotient_invariants",
                    "saturation_index"),
        cones: ("_infer_rank", "is_pointed", "full_cone", "zero_cone"),
        cli: ("_default_box",),
    }
    for owner, names in pruned.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in toric_spectrum.__all__


def test_antisymmetry_examples():
    for spec, expected in ((EVEN_AXIS, True), (FULL_LINE, False), (HALFSPACE_TOWER, True)):
        assert enumerate_faces(spec).antisymmetric == ref_is_antisymmetric(spec) == expected


def test_separating_examples():
    for spec, expected in ((EVEN_AXIS, True), (Generators(2, ((2, 0),)), False),
                           (GAP_NUMERIC, True), (HALFSPACE_TOWER, True)):
        assert enumerate_faces(spec).separating == ref_is_separating(spec) == expected


def test_contains_examples():
    assert not contains(EVEN_AXIS, (1, 0))
    assert contains(EVEN_AXIS, (1, 1))
    assert contains(EVEN_AXIS, (0, 0))
    assert contains(HALFSPACE_TOWER, (-7, 3, 2))
    assert contains(HALFSPACE_TOWER, (4, 0, 0))
    assert not contains(HALFSPACE_TOWER, (-1, 2, 0))
    assert not contains(HALFSPACE_TOWER, (0, 0, -1))
    assert contains(FULL_LINE, (-9,))
    assert not contains(GAP_NUMERIC, (1,))
    assert contains(GAP_NUMERIC, (7,))


def test_contains_agrees_with_additive_closure():
    # every box member plus every generator stays a member
    for spec in (EVEN_AXIS, GAP_NUMERIC):
        members = set(members_in_box(spec, 6))
        for x in members:
            for g in spec.generators:
                y = tuple(a + b for a, b in zip(x, g))
                if all(abs(c) <= 6 for c in y):
                    assert y in members


def test_hull_examples():
    atlas = enumerate_faces(GAP_NUMERIC)
    assert hull_contains(atlas, (1,)) and not contains(GAP_NUMERIC, (1,))
    assert not hull_contains(atlas, (-1,))
    assert hull_contains(atlas, (0,))
    even = enumerate_faces(EVEN_AXIS)
    assert not hull_contains(even, (1, 0))


def test_hull_extensive_and_closed_on_box():
    for spec in (EVEN_AXIS, GAP_NUMERIC, HALF_LINE):
        atlas = enumerate_faces(spec)
        box = 6
        hull_points = set()
        for raw in product(range(-box, box + 1), repeat=spec.ambient_rank):
            if contains(spec, raw):
                assert hull_contains(atlas, raw)
            if hull_contains(atlas, raw):
                hull_points.add(raw)
        for x in hull_points:
            for y in hull_points:
                s = tuple(a + b for a, b in zip(x, y))
                if all(abs(c) <= box for c in s):
                    assert s in hull_points


def test_face_soundness_on_box():
    # every face is a subsemigroup and its complement absorbs, inside the box
    box = 8
    for spec in (EVEN_AXIS, GAP_NUMERIC):
        atlas = enumerate_faces(spec)
        members = set(members_in_box(spec, box))
        for face in atlas.faces:
            inside = {x for x in members if face.cone.contains(x)}
            outside = members - inside
            for x in inside:
                for y in inside:
                    s = tuple(a + b for a, b in zip(x, y))
                    if all(abs(c) <= box for c in s):
                        assert s in inside
            for x in outside:
                for y in members:
                    s = tuple(a + b for a, b in zip(x, y))
                    if all(abs(c) <= box for c in s):
                        assert s not in inside


def test_monotone_face_data():
    rng = random.Random(616)
    specs = list(FIXTURES) + [random_generators(rng, max_rank=3, max_gens=5)
                              for _ in range(10)]
    for spec in specs:
        atlas = enumerate_faces(spec)
        for j in range(len(atlas.faces)):
            for k in range(len(atlas.faces)):
                if atlas.leq(j, k):
                    assert atlas.faces[j].rank <= atlas.faces[k].rank
                    for row in atlas.faces[j].lattice.basis:
                        from toric_spectrum import lattice_contains
                        assert lattice_contains(atlas.faces[k].lattice, row)


def test_validate_atlas_fixtures():
    for spec in FIXTURES:
        assert validate_atlas(enumerate_faces(spec)) == []


def test_zero_face():
    assert zero_face(enumerate_faces(EVEN_AXIS)) is not None
    assert zero_face(enumerate_faces(FULL_LINE)) is None
    assert zero_face(enumerate_faces(HALFSPACE_TOWER)) is not None


def test_antisymmetric_iff_pointed_for_generators():
    rng = random.Random(99)
    for _ in range(30):
        spec = random_generators(rng)
        assert enumerate_faces(spec).antisymmetric == (not asymptotic_cone(spec).lineality)


def test_tower_boundary_embedding_roundtrip():
    basis = boundary_basis(HALFSPACE_TOWER)
    assert basis == ((1, 0, 0), (0, 1, 0))
    assert embed_point(basis, (3, -2), 3) == (3, -2, 0)
    assert embed_point((), (), 3) == (0, 0, 0)


def test_nested_tower():
    # rank-2 tower over the half line: either q > 0, or q = 0 and p >= 0
    nested = Tower(2, (0, 1), HALF_LINE)
    atlas = enumerate_faces(nested)
    assert len(atlas.faces) == 3
    assert contains(nested, (-5, 1))
    assert contains(nested, (3, 0))
    assert not contains(nested, (-1, 0))
    assert atlas.antisymmetric and ref_is_antisymmetric(nested)
    assert validate_atlas(atlas) == []


def test_skew_tower():
    # boundary lattice along (1,-1); inner half line embeds onto it
    skew = Tower(2, (1, 1), HALF_LINE)
    atlas = enumerate_faces(skew)
    ray_face = [f for f in atlas.faces if f.dim == 1]
    assert len(ray_face) == 1 and ray_face[0].cone.rays == ((1, -1),)
    assert contains(skew, (2, -2)) and contains(skew, (5, -4))
    assert not contains(skew, (-1, -1)) and not contains(skew, (-1, 1))
    assert validate_atlas(atlas) == []


def test_tower_over_torsion_boundary():
    # boundary semigroup 2N leaves an index-2 lattice on the axis face
    twist = Tower(2, (0, 1), Generators(1, ((2,),)))
    atlas = enumerate_faces(twist)
    axis = [f for f in atlas.faces if f.dim == 1]
    assert len(axis) == 1
    assert axis[0].lattice.basis == ((2, 0),) and axis[0].torsion == (2,)
    assert not hull_contains(atlas, (1, 0))
    assert hull_contains(atlas, (2, 0))
    assert hull_contains(atlas, (1, 3))


def test_doubly_nested_tower():
    spec = Tower(3, (0, 0, 1), Tower(2, (0, 1), HALF_LINE))
    atlas = enumerate_faces(spec)
    assert sorted(f.dim for f in atlas.faces) == [0, 1, 2, 3]
    assert contains(spec, (-3, 1, 0)) and contains(spec, (4, 0, 0))
    assert not contains(spec, (-1, 0, 0))
    assert validate_atlas(atlas) == []


def test_membership_budget_raises_instead_of_guessing():
    from toric_spectrum import MembershipUndecided
    with pytest.raises(MembershipUndecided):
        contains(EVEN_AXIS, (5, 0), max_nodes=0)
    # a generous budget settles the same query
    assert contains(EVEN_AXIS, (5, 0), max_nodes=10_000) is False


def test_contains_refuses_rationals():
    # int() would truncate (5/2, 0) to the member (2, 0)
    for x in ((Fraction(5, 2), 0), (2.5, 0)):
        with pytest.raises(TypeError):
            contains(EVEN_AXIS, x)


def test_hull_contains_refuses_rationals():
    atlas = enumerate_faces(EVEN_AXIS)
    for x in ((Fraction(5, 2), 0), (2.5, 0)):
        with pytest.raises(TypeError):
            hull_contains(atlas, x)


def test_spec_validation():
    with pytest.raises(ValueError):
        Generators(2, ((1, 0, 0),))
    with pytest.raises(ValueError):
        Tower(2, (2, 4), HALF_LINE)
    with pytest.raises(ValueError):
        Tower(2, (0, 0), HALF_LINE)
    with pytest.raises(ValueError):
        Tower(3, (0, 0, 1), HALF_LINE)


def test_trivial_semigroup():
    trivial = Generators(2, ())
    atlas = enumerate_faces(trivial)
    assert len(atlas.faces) == 1
    assert contains(trivial, (0, 0)) and not contains(trivial, (1, 0))
    assert hull_contains(atlas, (0, 0)) and not hull_contains(atlas, (0, 1))
