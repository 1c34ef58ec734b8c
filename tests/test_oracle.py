import random
import tracemalloc
from itertools import product

import pytest

from toric_spectrum import (
    Generators,
    Tower,
    cone_from_inequalities,
    cone_from_rays,
    enumerate_faces,
    face_members_in_box,
    members_in_box,
)
from toric_spectrum import oracle
from toric_spectrum.oracle import (
    BoxSpec,
    OracleBudgetExceeded,
    brute_force_faces,
    dd_cross_check,
    numeric_homomorphism_check,
    oracle_members,
)

from helpers import (
    EVEN_AXIS,
    GAP_NUMERIC,
    HALF_LINE,
    HALFSPACE_TOWER,
    FULL_LINE,
    random_generators,
    random_pointed_generators,
    TORSION_BASES,
    random_tower,
    ref_face_candidates,
)


def cube(n):
    """The cone over the (n - 1)-cube: the generators {1} x {-1, 1}^(n - 1)."""
    return Generators(n, tuple((1,) + signs for signs in product((-1, 1), repeat=n - 1)))


# the rank-4 cone of the 57 generators (2, a, b, c), a, b, c in [-2, 2] with
# |a| + |b| + |c| <= 3: its facets need C(57, 3) = 29,260 subsets
GEN57 = Generators(4, tuple((2,) + abc for abc in product(range(-2, 3), repeat=3)
                            if sum(map(abs, abc)) <= 3))

TOWER2 = Tower(4, (1, 2, -3, 1), Tower(3, (2, -1, 1), EVEN_AXIS))


def test_oracle_members_match_main_membership():
    # membership modulo a group of units: the two lines have torsion in Z^n
    rng = random.Random(808)
    cases = [(EVEN_AXIS, 6), (GAP_NUMERIC, 10), (FULL_LINE, 8), (HALFSPACE_TOWER, 4),
             (Generators(2, ((2, 0), (-2, 0), (1, 1))), 6),
             (Generators(3, ((4, 2, 0), (-4, -2, 0), (1, 1, 1), (0, 0, 1), (3, 0, 5))), 4)]
    cases += [(random_generators(rng, max_rank=3, max_gens=5, coord=2), 4 + i % 3)
              for i in range(12)]
    # numerical semigroups, which membership reads off their Apery tables:
    # the member workload's four and the multiples 4, 6, 10 of a ray in Z^3
    cases += [(Generators(1, ((7,), (11,))), 80),
              (Generators(1, ((11,), (13,), (17,), (23,))), 100),
              (Generators(1, tuple((g,) for g in (31, 37, 41, 43, 47, 53, 59))), 200),
              (Generators(1, ((12,), (21,), (27,))), 120),
              (Generators(3, ((4, 8, -4), (6, 12, -6), (10, 20, -10))), 12)]
    for spec, radius in cases:
        assert oracle_members(spec, BoxSpec(radius)) == frozenset(
            members_in_box(spec, radius)), spec


def test_brute_force_faces_fixture_counts():
    assert len(brute_force_faces(EVEN_AXIS, BoxSpec(6))) == 4
    assert len(brute_force_faces(HALF_LINE, BoxSpec(10))) == 2
    assert len(brute_force_faces(HALFSPACE_TOWER, BoxSpec(4))) == 5
    assert len(brute_force_faces(FULL_LINE, BoxSpec(6))) == 1


def test_brute_force_faces_match_atlas():
    for spec, radius in ((EVEN_AXIS, 6), (GAP_NUMERIC, 8), (HALF_LINE, 6),
                         (HALFSPACE_TOWER, 4), (FULL_LINE, 6)):
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, BoxSpec(radius)) == set(
            face_members_in_box(atlas, radius))


def test_brute_force_faces_random_pointed():
    rng = random.Random(654)
    for _ in range(8):
        spec = random_pointed_generators(rng)
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, BoxSpec(6)) == set(
            face_members_in_box(atlas, 6)), spec


def test_brute_force_faces_random_mixed_pointedness():
    from helpers import random_generators
    rng = random.Random(2025)
    for _ in range(12):
        spec = random_generators(rng, max_rank=3, max_gens=5, coord=2)
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, BoxSpec(4)) == set(
            face_members_in_box(atlas, 4)), spec


def test_brute_force_faces_random_towers():
    from toric_spectrum import Generators, Tower
    from toric_spectrum.intlinalg import is_zero_vector, primitive_vector
    rng = random.Random(4100)
    for _ in range(5):
        while True:
            normal = tuple(rng.randint(-2, 2) for _ in range(3))
            if not is_zero_vector(normal) and primitive_vector(normal) == normal:
                break
        inner = Generators(2, tuple(tuple(rng.randint(-2, 2) for _ in range(2))
                                    for _ in range(rng.randint(1, 3))))
        spec = Tower(3, normal, inner)
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, BoxSpec(3)) == set(
            face_members_in_box(atlas, 3)), spec


@pytest.mark.parametrize("depth", (2, 3))
def test_oracle_matches_the_library_on_deeper_towers(depth):
    # ambient rank at most 4: a box of radius 2 in rank 5 holds about 1,500
    # members, past the pair budget of brute_force_faces
    bases = [b for b in TORSION_BASES if b.ambient_rank + depth <= 4]
    for i in range(6):
        spec = random_tower(random.Random(f"oracle:{depth}:{i}"), depth, bases)
        atlas = enumerate_faces(spec)
        assert oracle_members(spec, BoxSpec(2)) == frozenset(members_in_box(spec, 2)), spec
        assert brute_force_faces(spec, BoxSpec(2)) == set(face_members_in_box(atlas, 2)), spec


def test_oracle_members_solve_each_tower_level_once(monkeypatch):
    # one elimination per level finds its height functional; every box
    # point's height is then a dot product
    spec = TOWER2
    calls = []
    original = oracle._orref
    monkeypatch.setattr(oracle, "_orref", lambda *args: calls.append(args) or original(*args))
    members = oracle_members(spec, BoxSpec(2))
    assert len(calls) <= 2
    assert members == frozenset(members_in_box(spec, 2))


def test_dd_cross_check_examples():
    quadrant = cone_from_rays([(2, 0), (0, 1), (1, 1)])
    report = dd_cross_check(quadrant, BoxSpec(5))
    assert report.points_checked == 121 and report.mismatches == ()
    halfspace = cone_from_inequalities([(0, 0, 1)])
    assert dd_cross_check(halfspace, BoxSpec(3)).mismatches == ()
    zero = cone_from_rays([], [], 2)
    report = dd_cross_check(zero, BoxSpec(2))
    assert report.mismatches == ()


def test_numeric_homomorphism_check_is_tiny():
    atlas = enumerate_faces(EVEN_AXIS)
    members = members_in_box(EVEN_AXIS, 4)
    deviation = numeric_homomorphism_check(atlas, members, 300, seed=5)
    assert deviation <= 1e-9
    # identity-only sanity run
    nat = enumerate_faces(HALF_LINE)
    assert numeric_homomorphism_check(nat, [(0,), (1,)], 50, seed=0) <= 1e-9


def test_numeric_check_is_deterministic():
    atlas = enumerate_faces(EVEN_AXIS)
    members = members_in_box(EVEN_AXIS, 3)
    a = numeric_homomorphism_check(atlas, members, 100, seed=9)
    b = numeric_homomorphism_check(atlas, members, 100, seed=9)
    assert a == b


def test_membership_closure_stops_at_its_point_budget(monkeypatch):
    # the box of radius 2 over the quadrant widens to the window [0, 4]^2
    quadrant = Generators(2, ((1, 0), (0, 1)))
    monkeypatch.setattr(oracle, "MAX_ORACLE_POINTS", 25)
    assert len(oracle_members(quadrant, BoxSpec(2))) == 9
    monkeypatch.setattr(oracle, "MAX_ORACLE_POINTS", 24)
    with pytest.raises(OracleBudgetExceeded):
        oracle_members(quadrant, BoxSpec(2))


def test_oracle_refuses_a_box_over_the_point_budget_before_building_it():
    # 13^6 points in the default box of rank 6
    orthant = Generators(6, tuple(tuple(int(i == j) for j in range(6)) for i in range(6)))
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetExceeded, match="box of radius 6 in rank 6"):
            brute_force_faces(orthant, BoxSpec(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_membership_closure_refuses_a_huge_window_before_walking():
    # the multiples of (0, 1) alone outnumber the point budget in the window
    # widened by the 23-digit entry, so nothing is walked
    huge = Generators(2, ((99999999999999999999999, 1), (0, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetExceeded):
            brute_force_faces(huge, BoxSpec(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_cross_check_stops_at_its_subset_budget_before_trying_one(monkeypatch):
    # a square pyramid in rank 3: each facet is spanned by 2 of its 4 rays,
    # C(4, 2) = 6 subsets
    pyramid = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    monkeypatch.setattr(oracle, "MAX_ORACLE_SUBSETS", 6)
    report = dd_cross_check(pyramid, BoxSpec(2))
    assert (report.points_checked, report.mismatches) == (125, ())
    monkeypatch.setattr(oracle, "MAX_ORACLE_SUBSETS", 5)
    nullspaces = []
    original = oracle._onullspace
    monkeypatch.setattr(oracle, "_onullspace",
                        lambda rows, n: nullspaces.append(rows) or original(rows, n))
    with pytest.raises(OracleBudgetExceeded,
                       match="4 generators in rank 3 need 6 subsets, over 5"):
        dd_cross_check(pyramid, BoxSpec(2))
    # only the span's equations were computed, no subset's hyperplane
    assert nullspaces == [list(pyramid.rays)]


@pytest.mark.parametrize("spec, radius", ((cube(5), 1), (TOWER2, 2)))
def test_face_check_enumerates_the_supporting_hyperplanes_once(monkeypatch, spec, radius):
    # every face is cut from the one facet set of the base generators
    calls = []
    original = oracle._supporting
    monkeypatch.setattr(oracle, "_supporting",
                        lambda *args: calls.append(args) or original(*args))
    faces = brute_force_faces(spec, BoxSpec(radius))
    assert len(calls) == 1
    assert faces == set(face_members_in_box(enumerate_faces(spec), radius))


def test_face_check_meets_the_subset_budget_before_walking(monkeypatch):
    assert len(GEN57.generators) == 57

    def walk(*args):
        raise AssertionError("the membership closure was walked")

    monkeypatch.setattr(oracle, "_reachable", walk)
    with pytest.raises(OracleBudgetExceeded,
                       match="57 generators in rank 4 need 29260 subsets, over 5000"):
        brute_force_faces(GEN57, BoxSpec(6))


def test_face_candidates_match_the_recursion_down_the_face_lattice():
    cases = [(spec, 3) for spec in TORSION_BASES]
    cases += [(Generators(2, ((2, 0), (-2, 0), (1, 1))), 3),
              (Generators(3, ((4, 2, 0), (-4, -2, 0), (1, 1, 1), (0, 0, 1), (3, 0, 5))), 2),
              (Tower(3, (0, 1, 1), Generators(2, ((1, 0), (-1, 0), (0, 0)))), 2)]
    cases += [(random_tower(random.Random(f"candidates:{depth}:{i}"), depth,
                            [b for b in TORSION_BASES if b.ambient_rank + depth <= 4]), 2)
              for depth in (1, 2, 3) for i in range(2)]
    cases += [(cube(4), 1), (cube(4), 2)]
    # at radius 1 the box holds no point of level 1's plane off its boundary,
    # so the base members, a half line, are level 1's members, and still cut
    quadrant = Generators(2, ((1, 0), (0, 1)))
    cases.append((Tower(4, (-2, -4, -4, -1), Tower(3, (2, -1, -1), quadrant)), 1))
    for spec, radius in cases:
        n = spec.ambient_rank
        functionals, gens = view = oracle._view(spec)
        members = oracle._view_members(view, oracle._domain(spec, BoxSpec(radius)))
        normals = oracle._supporting(gens, n)[1]
        assert oracle._view_face_sets(functionals, normals, members) == \
            ref_face_candidates(view, members, n), spec
