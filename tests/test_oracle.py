import random
import tracemalloc

import pytest

from toric_spectrum import (
    Generators,
    cone_from_inequalities,
    cone_from_rays,
    enumerate_faces,
    face_members_in_box,
    members_in_box,
    zero_cone,
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
)


def test_oracle_members_match_main_membership():
    # membership modulo a group of units: the two lines have torsion in Z^n
    rng = random.Random(808)
    cases = [(EVEN_AXIS, 6), (GAP_NUMERIC, 10), (FULL_LINE, 8), (HALFSPACE_TOWER, 4),
             (Generators(2, ((2, 0), (-2, 0), (1, 1))), 6),
             (Generators(3, ((4, 2, 0), (-4, -2, 0), (1, 1, 1), (0, 0, 1), (3, 0, 5))), 4)]
    cases += [(random_generators(rng, max_rank=3, max_gens=5, coord=2), 4 + i % 3)
              for i in range(12)]
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


def test_dd_cross_check_examples():
    quadrant = cone_from_rays([(2, 0), (0, 1), (1, 1)])
    report = dd_cross_check(quadrant, BoxSpec(5))
    assert report.points_checked == 121 and report.mismatches == ()
    halfspace = cone_from_inequalities([(0, 0, 1)])
    assert dd_cross_check(halfspace, BoxSpec(3)).mismatches == ()
    zero = zero_cone(2)
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
