"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with ``pytest -s``); a failing
assertion marks the criterion red.  Tolerances are written into the
assertions themselves: set comparisons and rational identities are exact,
float renderings are bounded by 1e-9, and the stated runtime budgets are
enforced with wall clocks.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import product

from toric_spectrum import (
    asymptotic_cone,
    chain_of_rays,
    classify,
    cone_from_rays,
    contains,
    dual_cone,
    enumerate_faces,
    evaluate,
    face_members_in_box,
    hull_contains,
    idempotent,
    make_character,
    members_in_box,
    multiply,
    multiply_values,
    involute,
    polar_decompose,
    ray_limit,
    validate_atlas,
    zero_character,
)
from toric_spectrum.intlinalg import is_zero_vector
from toric_spectrum.oracle import BoxSpec, brute_force_faces, random_character

from helpers import (
    EVEN_AXIS,
    FULL_LINE,
    GAP_NUMERIC,
    HALF_LINE,
    HALFSPACE_TOWER,
    FIXTURES,
    random_generators,
    random_pointed_generators,
)


def report(n, message):
    print(f"criterion {n}: PASS - {message}")


def test_criterion_01_even_axis_fixture():
    start = time.perf_counter()
    atlas = enumerate_faces(EVEN_AXIS)
    assert len(atlas.faces) == 4
    x_axis = [f for f in atlas.faces if f.cone.rays == ((1, 0),)]
    assert len(x_axis) == 1 and x_axis[0].torsion == (2,)
    assert len(atlas.covers) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"4 faces, x-axis torsion [2], 4 covers, {elapsed:.3f}s")


def test_criterion_02_tower_fixture():
    start = time.perf_counter()
    atlas = enumerate_faces(HALFSPACE_TOWER)
    assert len(atlas.faces) == 5
    assert sorted(f.dim for f in atlas.faces) == [0, 1, 1, 2, 3]
    interior_lambda = make_character(atlas, 0, [F(0)] * 3, [F(0), F(0), F(1)])
    assert classify(atlas, interior_lambda)["full_support"]
    quadrant_face = [f for f in atlas.faces if f.dim == 2]
    assert len(quadrant_face) == 1
    kappa = idempotent(atlas, quadrant_face[0].face_id)
    assert not classify(atlas, kappa)["full_support"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"5 faces with dims (3,2,1,1,0), openness flags consistent, "
              f"{elapsed:.3f}s")


def test_criterion_03_hull_fixtures():
    gap = enumerate_faces(GAP_NUMERIC)
    for value in range(-10, 11):
        assert hull_contains(gap, (value,)) == (value >= 0)
    even = enumerate_faces(EVEN_AXIS)
    for point in product(range(-8, 9), repeat=2):
        assert hull_contains(even, point) == contains(EVEN_AXIS, point)
    report(3, "hull of <2,3> equals the half line on [-10,10]; even-axis hull "
              "equals the semigroup on [-8,8]^2")


def test_criterion_04_antisymmetry_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240401)
    for trial in range(200):
        spec = random_generators(rng, max_rank=4, max_gens=8)
        pointed = not asymptotic_cone(spec).lineality
        atlas = enumerate_faces(spec)
        has_zero = zero_character(atlas) is not None
        # membership-level test: a nontrivial symmetric pair exists exactly
        # when some nonzero generator has its negative in the semigroup
        witness = any(not is_zero_vector(g)
                      and contains(spec, tuple(-a for a in g))
                      for g in spec.generators)
        trivial_symmetric_part = not witness
        assert trivial_symmetric_part == pointed == has_zero == atlas.antisymmetric, (trial, spec)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"200 random specs: symmetric part trivial <=> pointed <=> zero "
              f"character, {elapsed:.1f}s")


def test_criterion_05_bidual_identity():
    rng = random.Random(20240401)
    for _ in range(200):
        spec = random_generators(rng, max_rank=4, max_gens=8)
        generated = cone_from_rays(spec.generators, (), spec.ambient_rank)
        assert asymptotic_cone(spec) == dual_cone(dual_cone(generated))
    report(5, "asymptotic cone equals the double dual on 200 random specs")


def test_criterion_06_character_algebra():
    samples = ((EVEN_AXIS, 5), (HALFSPACE_TOWER, 3), (GAP_NUMERIC, 8),
               (HALF_LINE, 8), (FULL_LINE, 8))
    for spec, radius in samples:
        atlas = enumerate_faces(spec)
        members = members_in_box(spec, radius)
        rng = random.Random(606060)
        worst = 0.0
        for _ in range(1000):
            a = random_character(atlas, rng)
            b = random_character(atlas, rng)
            x = members[rng.randrange(len(members))]
            product_value = evaluate(atlas, multiply(atlas, a, b), x)
            split_value = multiply_values(evaluate(atlas, a, x),
                                          evaluate(atlas, b, x))
            assert product_value == split_value  # exact, zero deviation
            worst = max(worst, abs(
                product_value.to_complex()
                - evaluate(atlas, a, x).to_complex()
                * evaluate(atlas, b, x).to_complex()))
            assert involute(atlas, involute(atlas, a)) == a
            assert involute(atlas, multiply(atlas, a, b)) == multiply(
                atlas, involute(atlas, b), involute(atlas, a))
            unitary, radial = polar_decompose(atlas, a)
            assert multiply(atlas, unitary, radial) == a
        assert worst <= 1e-9
    report(6, "5000 seeded triples: exact product identity, float deviation "
              "<= 1e-9, involution and polar roundtrips exact")


def test_criterion_07_oracle_equivalence():
    box = BoxSpec(6)
    for spec in FIXTURES:
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, box) == set(
            face_members_in_box(atlas, box.radius)), spec
    rng = random.Random(777)
    for trial in range(50):
        spec = random_pointed_generators(rng, max_rank=3, max_gens=5)
        atlas = enumerate_faces(spec)
        assert brute_force_faces(spec, box) == set(
            face_members_in_box(atlas, box.radius)), (trial, spec)
    report(7, "brute-force faces equal atlas faces on all fixtures and 50 "
              "random pointed specs at box 6")


def test_criterion_08_chain_bounds():
    for spec in FIXTURES:
        atlas = enumerate_faces(spec)
        for j in range(len(atlas.faces)):
            for k in range(len(atlas.faces)):
                if not atlas.leq(j, k):
                    continue
                chain = chain_of_rays(atlas, k, j)
                assert len(chain) <= atlas.faces[k].rank - atlas.faces[j].rank
                current = k
                for ray in chain:
                    assert ray.base_face_id == current
                    current = ray_limit(atlas, ray)
                assert idempotent(atlas, current) == idempotent(atlas, j)
    report(8, "chains exist for every comparable pair with length within the "
              "rank difference and correct composed limit")


def test_criterion_09_structure_validation():
    rng = random.Random(909090)
    specs = list(FIXTURES) + [random_generators(rng, max_rank=3, max_gens=6)
                              for _ in range(20)]
    for spec in specs:
        assert validate_atlas(enumerate_faces(spec)) == [], spec
    report(9, "nesting, facet containment and lattice monotonicity hold on "
              "all fixtures and 20 random atlases")


def test_criterion_10_determinism(tmp_path):
    documents = {
        "even_axis.json": {"kind": "generators", "ambient_rank": 2,
                           "generators": [[2, 0], [0, 1], [1, 1]]},
        "tower.json": {"kind": "tower", "ambient_rank": 3, "normal": [0, 0, 1],
                       "inner": {"kind": "generators", "ambient_rank": 2,
                                 "generators": [[1, 0], [0, 1]]}},
        "gap.json": {"kind": "generators", "ambient_rank": 1,
                     "generators": [[2], [3]]},
    }
    for name, document in documents.items():
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        runs = []
        for _ in range(2):
            analyze = subprocess.run(
                [sys.executable, "-m", "toric_spectrum.cli", "analyze", str(path),
                 "--json"], capture_output=True, check=True)
            dot = subprocess.run(
                [sys.executable, "-m", "toric_spectrum.cli", "dot", str(path)],
                capture_output=True, check=True)
            runs.append(analyze.stdout + dot.stdout)
        assert runs[0] == runs[1]
    report(10, "analyze and dot outputs are byte-identical across repeated "
               "runs (single-threaded driver)")
