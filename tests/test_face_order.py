"""The face-order queries of an atlas against O(F^2) scans of ``leq``.

The scans below, and those of the ray limit and the chain of rays in
helpers.py, are the reference: each reads the order one entry at a time
from a table of ``leq``, built once per atlas, and raises
InvariantViolation when the element it looks for is not unique.
The atlas answers the same queries from its down-set and up-set bitmasks.
On real atlases both must agree everywhere; on tampered orders that are
partial orders but not lattices, both must give the same answer or both
raise.

The order itself, the closure of the covers, is checked against cone
containment, which reads no mask.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from toric_spectrum import semigroups
from toric_spectrum import (
    Character,
    Generators,
    InvariantViolation,
    Lattice,
    Ray,
    Tower,
    chain_of_rays,
    classify,
    cone_contains_cone,
    cone_from_rays,
    enumerate_faces,
    evaluate,
    idempotent_lattice_ops,
    identity_character,
    involute,
    lattice_contains,
    multiply,
    polar_decompose,
    ray_limit,
    validate_atlas,
)
from toric_spectrum.intlinalg import dot

from helpers import (
    FIXTURES,
    TORSION_BASES,
    coordinate_table,
    leq_table,
    random_generators,
    random_tower,
    ref_chain,
    ref_ray_limit,
)

CUBE6 = Generators(6, tuple((1,) + v for v in product((-1, 1), repeat=5)))


# ---------------------------------------------------------------------------
# reference scans


def ref_minimal(leq):
    for j, row in enumerate(leq):
        if all(row):
            return j
    raise InvariantViolation("no least face")


def ref_meet(leq, j, k):
    lower = [f for f in range(len(leq)) if leq[f][j] and leq[f][k]]
    tops = [f for f in lower if all(leq[g][f] for g in lower)]
    if len(tops) != 1:
        raise InvariantViolation("face meet is not unique")
    return tops[0]


def ref_join(leq, j, k):
    upper = [f for f in range(len(leq)) if leq[j][f] and leq[k][f]]
    bottoms = [f for f in upper if all(leq[f][g] for g in upper)]
    if len(bottoms) != 1:
        raise InvariantViolation("face join is not unique")
    return bottoms[0]


def ref_lattice_ops(leq, ids):
    inf = sup = ids[0]
    for j in ids[1:]:
        inf = ref_meet(leq, inf, j)
        sup = ref_join(leq, sup, j)
    return inf, sup


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    """The value of a call, or the class of the InvariantViolation it raised."""
    try:
        return fn(*args)
    except InvariantViolation:
        return InvariantViolation


def corpus():
    """Generator specs of rank 1-6, with lineality and torsion among them,
    towers of depth 1-5 over torsion bases, the fixtures and the rank-6
    cube."""
    rng = random.Random(2026)
    specs = list(FIXTURES) + list(TORSION_BASES)
    specs += [random_generators(rng, max_rank=6, max_gens=7) for _ in range(24)]
    specs += [Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 2, 0), (1, 1, 2))),
              Generators(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2),
                             (0, 0, 0, 1), (0, 0, 0, -1)))]
    specs += [random_tower(rng, depth) for depth in range(1, 6) for _ in range(2)]
    return specs


def decays(rng, face):
    """Points of the dual cone of a face: zero, each dual ray, their sum and
    a few random combinations."""
    rays = [tuple(map(F, r)) for r in face.dual_cone_local.rays]
    zero = tuple(F(0) for _ in range(face.rank))
    out = [zero] + rays
    if rays:
        out.append(tuple(map(sum, zip(*rays))))
    for _ in range(2):
        lam = list(zero)
        for r in rays:
            c = rng.randint(0, 2)
            lam = [a + c * b for a, b in zip(lam, r)]
        out.append(tuple(lam))
    return out


def at_most(rng, items, sample):
    items = list(items)
    return items if sample is None or len(items) <= sample else rng.sample(items, sample)


def check_against_scans(atlas, rng, sample=None, raw=False):
    """Every order query against its scan: meet and join on all pairs, the
    rest on ``sample`` bases or pairs at most.  ``raw`` compares outcomes, so
    that an order that is not a lattice must raise on both sides alike."""
    same = (lambda fn, ref, *args: outcome(fn, *args) == outcome(ref, *args)) if raw \
        else (lambda fn, ref, *args: fn(*args) == ref(*args))
    ids = range(len(atlas.faces))
    leq, coords = leq_table(atlas), coordinate_table(atlas)
    assert same(lambda a: a.minimal_id, lambda a: ref_minimal(leq), atlas)
    for j in ids:
        for k in ids:
            assert same(atlas.meet, lambda j, k: ref_meet(leq, j, k), j, k), (j, k)
            assert same(atlas.join, lambda j, k: ref_join(leq, j, k), j, k), (j, k)
    for j in at_most(rng, ids, sample):
        for lam in decays(rng, atlas.faces[j]):
            ray = Ray(j, lam)
            assert same(lambda r: ray_limit(atlas, r),
                        lambda r: ref_ray_limit(atlas, leq, coords, r), ray), ray
    for _ in range(20):
        chosen = rng.sample(ids, rng.randint(1, min(4, len(ids))))
        ops = outcome(idempotent_lattice_ops, atlas, chosen)
        # a fold of pairwise meets can fail on a non-lattice order where the
        # meet of the whole set exists; where the fold succeeds, both agree
        assert ops == outcome(ref_lattice_ops, leq, chosen) or \
            raw and outcome(ref_lattice_ops, leq, chosen) is InvariantViolation, chosen
    pairs = [(k, j) for j in ids for k in ids if leq[j][k]]
    for k, j in at_most(rng, pairs, sample):
        assert same(lambda a, b: chain_of_rays(atlas, a, b),
                    lambda a, b: ref_chain(atlas, leq, coords, a, b), k, j), (k, j)


def test_order_queries_match_scans_on_seeded_corpus():
    rng = random.Random(9)
    for spec in corpus():
        atlas = enumerate_faces(spec)
        assert validate_atlas(atlas) == [], spec
        check_against_scans(atlas, rng, sample=60)


def test_order_is_cone_containment_on_seeded_corpus():
    """j <= k iff face j's cone lies in face k's, and the covers are the Hasse
    reduction of that containment."""
    for spec in corpus():
        atlas = enumerate_faces(spec)
        cones = [face.cone for face in atlas.faces]
        m = len(cones)
        inside = [[cone_contains_cone(a, b) for b in cones] for a in cones]
        assert leq_table(atlas) == inside, spec
        reduction = sorted(
            (a, b) for a in range(m) for b in range(m)
            if a != b and inside[b][a]
            and not any(c not in (a, b) and inside[b][c] and inside[c][a] for c in range(m)))
        assert list(atlas.covers) == reduction, spec


def test_order_queries_match_scans_on_the_rank_6_cube():
    atlas = enumerate_faces(CUBE6)
    assert len(atlas.faces) == 244
    check_against_scans(atlas, random.Random(6), sample=30)


def tampered(atlas, rng, extra, drop_least):
    """A partial order on the atlas's faces that need not be a lattice: the
    face order plus ``extra`` random relations from a face to one of larger
    dimension, closed transitively, optionally with the least face cut off
    from every other face.  Dimension still drops strictly along it, so each
    strict pair (k, j), face j below face k, has k < j by id; the pairs go
    in as the covers, whose closure they already are."""
    m = len(atlas.faces)
    leq = leq_table(atlas)
    for _ in range(extra):
        j, k = rng.randrange(m), rng.randrange(m)
        if atlas.faces[j].dim < atlas.faces[k].dim:
            leq[j][k] = True
    for mid in range(m):
        for i in range(m):
            if leq[i][mid]:
                for k in range(m):
                    leq[i][k] = leq[i][k] or leq[mid][k]
    if drop_least:
        least = atlas.minimal_id
        for k in range(m):
            leq[least][k] = k == least
    pairs = sorted((k, j) for j in range(m) for k in range(m) if j != k and leq[j][k])
    return replace(atlas, covers=tuple(pairs))


def test_non_lattice_orders_raise_where_the_scans_raised():
    rng = random.Random(3)
    specs = (Generators(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))),
             Generators(3, ((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -2, 1))),
             Tower(3, (0, 0, 1), Generators(2, ((1, 0), (0, 1)))))
    raised = set()
    for spec in specs:
        atlas = enumerate_faces(spec)
        for extra, drop_least in ((3, False), (6, False), (2, True)):
            broken = tampered(atlas, rng, extra, drop_least)
            check_against_scans(broken, rng, raw=True)
            leq = leq_table(broken)
            for j in range(len(atlas.faces)):
                for k in range(len(atlas.faces)):
                    if outcome(ref_meet, leq, j, k) is InvariantViolation:
                        raised.add("meet")
                    if outcome(ref_join, leq, j, k) is InvariantViolation:
                        raised.add("join")
            if outcome(ref_minimal, leq) is InvariantViolation:
                raised.add("minimal")
    # the tampered orders do reach the raising branches
    assert raised == {"meet", "join", "minimal"}


def test_validate_atlas_reports_dimension_order():
    atlas = enumerate_faces(Generators(2, ((1, 0), (0, 1))))
    assert validate_atlas(atlas) == []
    # the least face claims the top dimension: ids no longer run by
    # decreasing dimension, and it is no longer below its covers in dimension
    least = atlas.minimal_id
    faces = tuple(replace(f, dim=3) if f.face_id == least else f for f in atlas.faces)
    problems = validate_atlas(replace(atlas, faces=faces))
    assert "face ids do not run by decreasing dimension" in problems
    assert f"face {least} < face 1 but its dimension does not drop" in problems


def test_validate_atlas_reports_covers_the_order_cannot_close():
    atlas = enumerate_faces(Generators(2, ((1, 0), (0, 1))))
    swapped = replace(atlas, covers=tuple(sorted((b, a) for a, b in atlas.covers)))
    assert "cover (1, 0) does not run to a later, smaller face" in validate_atlas(swapped)
    backwards = replace(atlas, covers=atlas.covers[::-1])
    assert "covers are not sorted" in validate_atlas(backwards)
    level = replace(atlas, covers=tuple(sorted(atlas.covers + ((1, 2),))))
    assert "cover (1, 2) does not run to a later, smaller face" in validate_atlas(level)
    outside = replace(atlas, covers=atlas.covers + ((3, 4),))
    assert validate_atlas(outside) == ["cover (3, 4) does not run to a later, smaller face"]
    # a cover may drop more than one dimension: a half space over a ray
    tower = enumerate_faces(Tower(3, (0, 0, 1), Generators(2, ((1, 0),))))
    assert tower.covers == ((0, 1), (1, 2)) and tower.faces[1].dim == 1
    assert validate_atlas(tower) == []


def test_validate_atlas_reports_a_lattice_that_does_not_span_its_cone():
    def with_lattice(atlas, face_id, basis):
        lattice = Lattice(atlas.spec.ambient_rank, basis)
        return replace(atlas, faces=tuple(replace(f, lattice=lattice) if f.face_id == face_id
                                          else f for f in atlas.faces))

    quadrant = enumerate_faces(Generators(2, ((1, 0), (0, 1))))
    # the whole quadrant over a rank-deficient lattice: its rays leave the span
    assert "face 0: cone leaves the span of its lattice" in \
        validate_atlas(with_lattice(quadrant, 0, ((1, 0),)))
    # a ray over a lattice of the right rank on the other axis
    ray = next(f.face_id for f in quadrant.faces if f.cone.rays == ((1, 0),))
    assert validate_atlas(with_lattice(quadrant, ray, ((0, 1),))) == \
        [f"face {ray}: cone leaves the span of its lattice"]
    # a line, the lineality of a half plane, over the other axis
    half_plane = enumerate_faces(Generators(2, ((1, 0), (-1, 0), (0, 1))))
    line = half_plane.minimal_id
    assert half_plane.faces[line].cone.lineality == ((1, 0),)
    assert validate_atlas(with_lattice(half_plane, line, ((0, 1),))) == \
        [f"face {line}: cone leaves the span of its lattice"]


QUADRANT = enumerate_faces(Generators(2, ((1, 0), (0, 1))))


@pytest.mark.parametrize("call", [
    lambda a: a.meet(-1, 0),
    lambda a: a.meet(0, 4),
    lambda a: a.join(0, -1),
    lambda a: a.join(4, 0),
])
def test_meet_and_join_reject_unknown_faces(call):
    with pytest.raises(ValueError, match="unknown face"):
        call(QUADRANT)


def test_ray_limit_rejects_unknown_faces():
    for face in (-1, 4):
        with pytest.raises(ValueError, match="unknown face"):
            ray_limit(QUADRANT, Ray(face, ()))


def test_multiply_rejects_unknown_faces():
    one = identity_character(QUADRANT)
    for face in (-1, 4):
        with pytest.raises(ValueError, match="unknown face"):
            multiply(QUADRANT, one, Character(face, (), ()))


@pytest.mark.parametrize("call", [
    lambda a, chi: evaluate(a, chi, (1, 1)),
    polar_decompose,
    involute,
    classify,
])
def test_character_map_rejects_unknown_faces(call):
    for face in (-1, len(QUADRANT.faces)):
        with pytest.raises(ValueError, match="unknown face"):
            call(QUADRANT, Character(face, (), ()))


def test_idempotent_lattice_ops_rejects_unknown_faces():
    for ids in ([-1], [0, -1], [4, 0]):
        with pytest.raises(ValueError, match="unknown face"):
            idempotent_lattice_ops(QUADRANT, ids)


def test_chain_of_rays_rejects_unknown_faces():
    for pair in ((0, -1), (-1, 3), (4, 3), (0, 4)):
        with pytest.raises(ValueError, match="unknown face"):
            chain_of_rays(QUADRANT, *pair)


# ---------------------------------------------------------------------------
# validate_atlas at the covers


def with_face(atlas, face_id, **fields):
    return replace(atlas, faces=tuple(replace(f, **fields) if f.face_id == face_id else f
                                      for f in atlas.faces))


X_RAY = next(f.face_id for f in QUADRANT.faces if f.cone.rays == ((1, 0),))


def test_validate_atlas_tests_each_cover_once_and_reads_no_order(monkeypatch):
    atlas = replace(enumerate_faces(CUBE6))  # a copy with no order cached
    calls = []

    def counted(inner, outer):
        calls.append((inner, outer))
        return cone_contains_cone(inner, outer)

    monkeypatch.setattr(semigroups, "cone_contains_cone", counted)
    assert validate_atlas(atlas) == []
    assert len(calls) == len(atlas.covers)
    assert "order" not in atlas.__dict__


def test_validate_atlas_rejects_a_cone_that_leaves_its_parent():
    # the ray of (1, 0) turned to (-1, 0): still on a facet line of the
    # quadrant, but outside it
    broken = with_face(QUADRANT, X_RAY, cone=cone_from_rays([(-1, 0)], ambient_rank=2))
    assert validate_atlas(broken) == [f"face {X_RAY} < face 0 but its cone lies in no proper face"]


def test_validate_atlas_rejects_a_cone_inside_its_parent_on_no_facet():
    # the diagonal ray, over its own lattice, runs through the quadrant's interior
    broken = with_face(QUADRANT, X_RAY, cone=cone_from_rays([(1, 1)], ambient_rank=2),
                       lattice=Lattice(2, ((1, 1),)))
    assert validate_atlas(broken) == [f"face {X_RAY} < face 0 but its cone lies in no proper face"]


def test_validate_atlas_rejects_a_lattice_that_is_not_nested():
    broken = with_face(QUADRANT, 0, lattice=Lattice(2, ((2, 0), (0, 2))))
    assert validate_atlas(broken) == [f"lattice of face {j} is not contained in lattice of face 0"
                                      for j in (1, 2)]


def test_validate_atlas_names_a_basis_that_is_not_in_hnf():
    # a basis of Z^2 out of Hermite normal form: the lattice still spans the
    # cone and holds its faces' lattices, so the basis is the one defect
    unreduced = with_face(QUADRANT, 0, lattice=Lattice(2, ((1, 1), (1, 0))))
    assert validate_atlas(unreduced) == ["face 0: lattice basis is not in Hermite normal form"]
    # an index-2 lattice in HNF: its basis is canonical, its faces' lattices leave it
    index_2 = with_face(QUADRANT, 0, lattice=Lattice(2, ((1, 1), (0, 2))))
    assert validate_atlas(index_2) == [f"lattice of face {j} is not contained in lattice of face 0"
                                       for j in (1, 2)]


def pairwise_problems(atlas):
    """The comparable pairs (j, k), face j below face k, at which the
    dimension does not drop, j's cone is on no inequality of k's cone, or
    j's lattice is not in k's: the conditions of validate_atlas on every
    pair, read from a table of ``leq``, with no cone containment."""
    faces, leq = atlas.faces, leq_table(atlas)
    return [(j, k) for j, inner in enumerate(faces) for k, outer in enumerate(faces)
            if j != k and leq[j][k]
            and (inner.dim >= outer.dim
                 or not any(all(dot(a, v) == 0 for v in inner.cone.rays + inner.cone.lineality)
                            for a in outer.cone.inequalities)
                 or not all(lattice_contains(outer.lattice, b) for b in inner.lattice.basis))]


def test_covers_reject_every_atlas_the_pairwise_check_rejects():
    """One face takes the cone, lattice or dimension of another.  Whenever
    that breaks a comparable pair, it breaks a cover: cones, lattices and
    dimensions nest along the chain of covers that joins the pair."""
    rng = random.Random(22)
    rejected = 0
    for spec in corpus():
        atlas = enumerate_faces(spec)
        m = len(atlas.faces)
        if m > 40:
            continue
        for _ in range(6):
            j, other = rng.randrange(m), rng.randrange(m)
            field = rng.choice(("cone", "lattice", "dim"))
            broken = with_face(atlas, j, **{field: getattr(atlas.faces[other], field)})
            if pairwise_problems(broken):
                rejected += 1
                assert validate_atlas(broken), (spec, j, other, field)
    assert rejected >= 100
