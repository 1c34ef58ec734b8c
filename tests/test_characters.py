import random
from fractions import Fraction as F

import pytest

from toric_spectrum import (
    Generators,
    Ray,
    chain_of_rays,
    classify,
    enumerate_faces,
    evaluate,
    idempotent,
    idempotent_lattice_ops,
    identity_character,
    involute,
    make_character,
    members_in_box,
    multiply,
    multiply_values,
    polar_decompose,
    ray_limit,
    ray_point,
    zero_character,
)
from toric_spectrum.oracle import random_character

from helpers import EVEN_AXIS, FULL_LINE, GAP_NUMERIC, HALF_LINE, HALFSPACE_TOWER

ATLAS = enumerate_faces(EVEN_AXIS)
NAT = enumerate_faces(HALF_LINE)
QUADRANT_ATLAS = enumerate_faces(Generators(2, ((1, 0), (0, 1))))


def face_with_rays(atlas, rays):
    matches = [f.face_id for f in atlas.faces if f.cone.rays == tuple(rays)]
    assert len(matches) == 1
    return matches[0]


X_AXIS = face_with_rays(ATLAS, [(1, 0)])
Y_AXIS = face_with_rays(ATLAS, [(0, 1)])
ORIGIN = face_with_rays(ATLAS, [])


def test_idempotent_values():
    one = identity_character(ATLAS)
    assert evaluate(ATLAS, one, (1, 1)) == evaluate(ATLAS, one, (2, 0))
    assert not evaluate(ATLAS, one, (1, 1)).zero
    assert evaluate(ATLAS, one, (1, 1)).angle == 0
    kx = idempotent(ATLAS, X_AXIS)
    assert evaluate(ATLAS, kx, (2, 0)).exponent == 0
    assert evaluate(ATLAS, kx, (1, 1)).zero
    zero = zero_character(ATLAS)
    assert zero is not None
    assert evaluate(ATLAS, zero, (0, 0)).angle == 0
    assert evaluate(ATLAS, zero, (1, 1)).zero


def test_evaluate_disc_point():
    chi = make_character(NAT, 0, [F(1, 2)], [F(1)])
    value = evaluate(NAT, chi, (1,))
    assert value.angle == F(1, 2) and value.exponent == 1
    approx = value.to_complex()
    from math import exp
    assert abs(approx - complex(-exp(-1), 0)) < 1e-12


def test_evaluate_requires_membership():
    chi = identity_character(ATLAS)
    with pytest.raises(ValueError):
        evaluate(ATLAS, chi, (1, 0))


def test_evaluate_refuses_rationals():
    chi = identity_character(ATLAS)
    for x in ((F(5, 2), 0), (2.5, 0)):
        with pytest.raises(TypeError):
            evaluate(ATLAS, chi, x)


def test_multiply_disc_points():
    a = make_character(NAT, 0, [F(1, 4)], [F(1)])
    b = make_character(NAT, 0, [F(1, 2)], [F(2)])
    ab = multiply(NAT, a, b)
    assert ab.theta == (F(3, 4),) and ab.lam == (F(3),)


def test_multiply_identity_and_idempotents():
    chi = make_character(ATLAS, 0, [F(1, 3), F(1, 5)], [F(1), F(2)])
    assert multiply(ATLAS, identity_character(ATLAS), chi) == chi
    kx = idempotent(ATLAS, X_AXIS)
    ky = idempotent(ATLAS, Y_AXIS)
    assert multiply(ATLAS, kx, ky) == idempotent(ATLAS, ORIGIN)
    assert multiply(ATLAS, kx, kx) == kx


def test_involution():
    a = make_character(NAT, 0, [F(1, 4)], [F(1)])
    assert involute(NAT, a).theta == (F(3, 4),)
    assert involute(NAT, involute(NAT, a)) == a
    kx = idempotent(ATLAS, X_AXIS)
    assert involute(ATLAS, kx) == kx


def test_involution_is_antiautomorphism():
    rng = random.Random(2718)
    for _ in range(200):
        a = random_character(ATLAS, rng)
        b = random_character(ATLAS, rng)
        lhs = involute(ATLAS, multiply(ATLAS, a, b))
        rhs = multiply(ATLAS, involute(ATLAS, b), involute(ATLAS, a))
        assert lhs == rhs
        assert multiply(ATLAS, a, b) == multiply(ATLAS, b, a)


def test_polar_examples():
    chi = make_character(NAT, 0, [F(1, 3)], [F(2)])
    unitary, radial = polar_decompose(NAT, chi)
    assert unitary.theta == (F(1, 3),) and unitary.lam == (F(0),)
    assert radial.theta == (F(0),) and radial.lam == (F(2),)
    assert multiply(NAT, unitary, radial) == chi
    kx = idempotent(ATLAS, X_AXIS)
    assert polar_decompose(ATLAS, kx) == (kx, kx)
    symmetric = make_character(ATLAS, 0, [F(0), F(0)], [F(1), F(1)])
    assert polar_decompose(ATLAS, symmetric)[0] == idempotent(ATLAS, 0)


def test_polar_roundtrip_and_radial_uniqueness():
    rng = random.Random(31415)
    members = members_in_box(EVEN_AXIS, 5)
    for _ in range(100):
        chi = random_character(ATLAS, rng)
        unitary, radial = polar_decompose(ATLAS, chi)
        assert multiply(ATLAS, unitary, radial) == chi
        other = make_character(ATLAS, chi.face_id,
                               [F(rng.randrange(0, 8), 8) for _ in chi.theta],
                               chi.lam)
        assert polar_decompose(ATLAS, other)[1] == radial
        for x in members[:10]:
            va = evaluate(ATLAS, chi, x)
            vb = evaluate(ATLAS, other, x)
            assert va.zero == vb.zero
            if not va.zero:
                assert va.exponent == vb.exponent


def test_ray_point_and_limits():
    ray = Ray(0, (F(1), F(0)))
    assert ray_point(QUADRANT_ATLAS, ray, 0) == idempotent(QUADRANT_ATLAS, 0)
    limit = ray_limit(QUADRANT_ATLAS, ray)
    assert QUADRANT_ATLAS.faces[limit].cone.rays == ((0, 1),)
    strict = Ray(0, (F(1), F(2)))
    assert ray_limit(QUADRANT_ATLAS, strict) == QUADRANT_ATLAS.minimal_id
    assert ray_limit(QUADRANT_ATLAS, Ray(0, (F(0), F(0)))) == 0
    with pytest.raises(ValueError):
        ray_point(QUADRANT_ATLAS, Ray(0, (F(-1), F(0))), 1)


def test_ray_limit_on_tower():
    atlas = enumerate_faces(HALFSPACE_TOWER)
    # decay along the tower normal collapses onto the boundary face, whose
    # cone is the quadrant rather than the whole boundary plane
    ray = Ray(0, (F(0), F(0), F(1)))
    limit = ray_limit(atlas, ray)
    assert atlas.faces[limit].dim == 2


def test_ray_semigroup_law():
    rng = random.Random(100)
    for _ in range(50):
        face_id = rng.randrange(len(ATLAS.faces))
        face = ATLAS.faces[face_id]
        lam = [F(0)] * face.rank
        for r in face.dual_cone_local.rays:
            c = F(rng.randrange(0, 5), 2)
            lam = [a + c * b for a, b in zip(lam, r)]
        ray = Ray(face_id, tuple(lam))
        s = F(rng.randrange(0, 9), 4)
        t = F(rng.randrange(0, 9), 4)
        assert ray_point(ATLAS, ray, s + t) == multiply(
            ATLAS, ray_point(ATLAS, ray, s), ray_point(ATLAS, ray, t))


def test_idempotent_lattice_ops():
    assert idempotent_lattice_ops(ATLAS, [X_AXIS, Y_AXIS]) == (ORIGIN, 0)
    assert idempotent_lattice_ops(ATLAS, [X_AXIS]) == (X_AXIS, X_AXIS)
    ids = [f.face_id for f in ATLAS.faces]
    assert idempotent_lattice_ops(ATLAS, ids) == (ORIGIN, 0)
    assert ATLAS.faces[ORIGIN].rank == 0  # the zero element of a pointed atlas


def test_chain_of_rays_even_axis():
    chain = chain_of_rays(ATLAS, 0, ORIGIN)
    assert len(chain) == 2
    current = 0
    for ray in chain:
        assert ray.base_face_id == current
        current = ray_limit(ATLAS, ray)
    assert current == ORIGIN
    single = chain_of_rays(ATLAS, 0, X_AXIS)
    assert len(single) == 1
    assert ray_limit(ATLAS, single[0]) == X_AXIS
    assert chain_of_rays(ATLAS, X_AXIS, X_AXIS) == []
    with pytest.raises(ValueError):
        chain_of_rays(ATLAS, X_AXIS, Y_AXIS)


def test_chain_bound_everywhere():
    for spec in (EVEN_AXIS, HALFSPACE_TOWER, GAP_NUMERIC, FULL_LINE):
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
                    nxt = ray_limit(atlas, ray)
                    assert atlas.faces[nxt].rank < atlas.faces[current].rank
                    current = nxt
                assert current == j


def test_classify():
    one = identity_character(ATLAS)
    flags = classify(ATLAS, one)
    assert flags == {"is_idempotent": True, "is_symmetric": True,
                     "is_nonnegative": True, "full_support": True}
    heavy = make_character(ATLAS, 0, [F(0), F(0)], [F(50), F(99)])
    assert classify(ATLAS, heavy)["full_support"]
    kx = idempotent(ATLAS, X_AXIS)
    assert not classify(ATLAS, kx)["full_support"]
    half = make_character(ATLAS, 0, [F(1, 2), F(0)], [F(0), F(0)])
    assert classify(ATLAS, half)["is_symmetric"]
    assert not classify(ATLAS, half)["is_nonnegative"]


def test_idempotents_are_exactly_the_squares():
    rng = random.Random(7)
    for _ in range(200):
        chi = random_character(ATLAS, rng)
        if multiply(ATLAS, chi, chi) == chi:
            assert chi == idempotent(ATLAS, chi.face_id)
            assert classify(ATLAS, chi)["is_idempotent"]
        else:
            assert not classify(ATLAS, chi)["is_idempotent"]


def test_zero_character_iff_antisymmetric():
    from helpers import random_generators, ref_is_antisymmetric
    rng = random.Random(11)
    specs = [EVEN_AXIS, FULL_LINE, HALFSPACE_TOWER] + \
        [random_generators(rng, max_rank=3, max_gens=5) for _ in range(15)]
    for spec in specs:
        atlas = enumerate_faces(spec)
        zero = zero_character(atlas)
        assert (zero is not None) == atlas.antisymmetric == ref_is_antisymmetric(spec)
        if zero is not None:
            for fid in range(len(atlas.faces)):
                assert multiply(atlas, zero, idempotent(atlas, fid)) == zero


def test_exact_homomorphism_on_random_triples():
    from helpers import random_generators
    rng = random.Random(424242)
    atlases = [(ATLAS, members_in_box(EVEN_AXIS, 4))]
    for _ in range(3):
        spec = random_generators(rng, max_rank=3, max_gens=4, coord=2)
        atlases.append((enumerate_faces(spec), members_in_box(spec, 3)))
    for atlas, members in atlases:
        for _ in range(300):
            a = random_character(atlas, rng)
            b = random_character(atlas, rng)
            x = members[rng.randrange(len(members))]
            lhs = evaluate(atlas, multiply(atlas, a, b), x)
            rhs = multiply_values(evaluate(atlas, a, x), evaluate(atlas, b, x))
            assert lhs == rhs
            assert abs(lhs.to_complex()
                       - evaluate(atlas, a, x).to_complex()
                       * evaluate(atlas, b, x).to_complex()) <= 1e-9


def test_make_character_validation():
    with pytest.raises(ValueError):
        make_character(ATLAS, 99, [], [])
    with pytest.raises(ValueError):
        make_character(ATLAS, 0, [F(1, 2)], [F(0), F(0)])
    with pytest.raises(ValueError):
        make_character(ATLAS, 0, [F(0), F(0)], [F(-1), F(0)])
    wrapped = make_character(ATLAS, 0, [F(5, 4), F(-1, 4)], [F(0), F(0)])
    assert wrapped.theta == (F(1, 4), F(3, 4))


def test_to_complex_of_a_huge_exponent_is_zero():
    # float(10**400) overflows; exp(-800) already underflows to 0.0
    from toric_spectrum.characters import ExactValue
    assert ExactValue(False, F(0), F(10 ** 400)).to_complex() == 0j
    assert ExactValue(False, F(1, 3), F(801)).to_complex() == 0j
    assert ExactValue(False, F(0), F(700)).to_complex() != 0j
