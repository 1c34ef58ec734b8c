"""Shared fixtures and generators for the test suite."""

import functools
import math
import operator
import random
from fractions import Fraction

from toric_spectrum import (
    Character,
    Cone,
    ExactValue,
    Generators,
    InvariantViolation,
    Ray,
    Tower,
    cones,
)
from toric_spectrum.intlinalg import (
    Lattice,
    dot,
    hnf,
    hnf_coordinates,
    int_kernel,
    is_zero_vector,
    lattice_coordinates,
    primitive_vector,
    quotient_invariants,
    saturate,
    scaled_solutions,
    vec_neg,
)
from toric_spectrum.oracle import _orank

# quadrant semigroup with a doubled x-axis generator: p,q >= 0, p even when q=0
EVEN_AXIS = Generators(2, ((2, 0), (0, 1), (1, 1)))

# open upper half lattice over the standard quadrant on its boundary plane
HALFSPACE_TOWER = Tower(3, (0, 0, 1), Generators(2, ((1, 0), (0, 1))))

# numerical semigroup <2, 3>: all nonnegative integers except 1
GAP_NUMERIC = Generators(1, ((2,), (3,)))

# the nonnegative integers
HALF_LINE = Generators(1, ((1,),))

# the full integer line
FULL_LINE = Generators(1, ((1,), (-1,)))

FIXTURES = (EVEN_AXIS, HALFSPACE_TOWER, GAP_NUMERIC, HALF_LINE, FULL_LINE)


def random_generators(rng: random.Random, max_rank: int = 4, max_gens: int = 8,
                      coord: int = 3) -> Generators:
    n = rng.randint(1, max_rank)
    m = rng.randint(1, max_gens)
    gens = tuple(tuple(rng.randint(-coord, coord) for _ in range(n))
                 for _ in range(m))
    return Generators(n, gens)


def random_pointed_generators(rng: random.Random, max_rank: int = 3,
                              max_gens: int = 5, coord: int = 3) -> Generators:
    from toric_spectrum import asymptotic_cone, is_pointed
    while True:
        spec = random_generators(rng, max_rank, max_gens, coord)
        if is_pointed(asymptotic_cone(spec)):
            return spec


def skew_normal(rng, n):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if math.gcd(*v) == 1:
            return v


TORSION_BASES = (Generators(1, ((2,),)), EVEN_AXIS, Generators(2, ((4, 2), (0, 3))),
                 Generators(1, ((3,), (-3,))))


def random_tower(rng, depth, bases=TORSION_BASES):
    spec = rng.choice(bases)
    for _ in range(depth):
        n = spec.ambient_rank + 1
        spec = Tower(n, skew_normal(rng, n), spec)
    return spec


def scaled_coordinates(basis, x):
    """Integers ``(y, d)`` with ``d > 0`` and ``sum(y_i * basis_i) == d * x``,
    or None if x is not in the rational row span: ``scaled_solutions`` for
    one x.  The basis rows must be linearly independent."""
    solved = scaled_solutions(basis, [x])
    return None if solved is None else (solved[0][0], solved[1])


def rational_coordinates(basis, x):
    """Reference: the coefficients c, as Fractions, with
    ``sum(c_i * basis_i) == x``, or None if x is not in the rational row
    span.  The basis rows must be linearly independent."""
    solved = scaled_coordinates(basis, x)
    if solved is None:
        return None
    y, d = solved
    return tuple(Fraction(c, d) for c in y)


def reduce_mod_span(vec, span_rows):
    """Reference: the primitive integer vector on the projection of one
    direction onto the orthogonal complement of the span, from its own Gram
    elimination, ``d x - R^T y`` with ``(R R^T) y = d R x``."""
    vec = primitive_vector(vec)
    if not span_rows:
        return vec
    gram = [[dot(u, v) for v in span_rows] for u in span_rows]
    y, d = scaled_coordinates(gram, [dot(r, vec) for r in span_rows])
    return primitive_vector([d * a - dot(y, column) for a, column in zip(vec, zip(*span_rows))])


def finalize_face(n, cone, lattice, dim):
    """Reference: torsion, local cone and dual local cone of any face, by
    the generic path that once served the half spaces of a tower too.  The
    torsion comes from the Smith form, the lineality from the coordinates of
    the cone's lineality on the lattice basis B (saturated when there is
    torsion), the rays from their coordinates taken modulo it, and the
    inequalities as ``primitive(B a)``."""
    if lattice.rank != dim:
        raise InvariantViolation("face lattice does not span its cone")
    torsion = quotient_invariants(n, lattice)[1]
    basis = lattice.basis

    def local(v):
        solved = hnf_coordinates(basis, [v])
        if solved is None:
            raise InvariantViolation("face cone leaves the span of its lattice")
        return primitive_vector(solved[0][0])

    lineality = hnf([local(v) for v in cone.lineality], dim)
    lineality = (saturate(lineality) if torsion and lineality.basis else lineality).basis
    rays = tuple(sorted(reduce_mod_span(local(r), lineality) for r in cone.rays))
    inequalities = tuple(sorted({primitive_vector([dot(b, a) for b in basis])
                                 for a in cone.inequalities}))
    cone_local = Cone(dim, rays, inequalities, lineality, ())
    return torsion, cone_local, cones.dual_cone(cone_local)


def canonical_sides(ray_gens, lin_gens, n):
    """Canonical (rays, lineality) from arbitrary generating data: the
    lineality saturated, each ray reduced modulo it, deduplicated, sorted."""
    # saturate takes any generating rows, in HNF or not
    lin_rows = saturate(Lattice(n, tuple(lin_gens))).basis if lin_gens else ()
    rays = dict.fromkeys(r for r in (reduce_mod_span(v, lin_rows) for v in ray_gens)
                         if not is_zero_vector(r))
    return tuple(sorted(rays)), lin_rows


def _adjacent(p, q, constraints, ambient_rank, lineality_dim):
    """Rank test: two extreme rays are adjacent iff the constraints tight at
    both span a space of rank n - dim(lineality) - 2."""
    tight = [c for c in constraints if dot(c, p) == 0 and dot(c, q) == 0]
    needed = ambient_rank - lineality_dim - 2
    if needed < 0:
        return True
    return _orank(tight) == needed


def ref_double_description(inequalities, equations, ambient_rank):
    """Reference: the double description with the rank-based adjacency test
    in place of the tight-set bitmasks of ``cones._double_description``;
    extreme rays and lineality basis of
    ``{x : <a, x> >= 0 for a in inequalities, <e, x> = 0 for e in equations}``.

    Incremental DD: lineality starts as the full space and shrinks; rays are
    kept canonical modulo the current lineality.  Non-integer entries are
    rejected (TypeError).
    """
    n = ambient_rank
    todo = []
    for e in equations:
        e = tuple(map(operator.index, e))
        if len(e) != n:
            raise ValueError("equation length does not match ambient rank")
        if not is_zero_vector(e):
            todo.append(e)
            todo.append(vec_neg(e))
    for a in inequalities:
        a = tuple(map(operator.index, a))
        if len(a) != n:
            raise ValueError("inequality length does not match ambient rank")
        if not is_zero_vector(a):
            todo.append(a)

    lin = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    rays = []
    constraints = []

    for a in todo:
        lin_vals = [dot(a, l) for l in lin]
        if any(v != 0 for v in lin_vals):
            j0 = next(i for i, v in enumerate(lin_vals) if v != 0)
            l0 = lin[j0] if lin_vals[j0] > 0 else vec_neg(lin[j0])
            w0 = abs(lin_vals[j0])
            new_lin = []
            for i, l in enumerate(lin):
                if i == j0:
                    continue
                new_lin.append(primitive_vector([w0 * c - lin_vals[i] * d
                                                 for c, d in zip(l, l0)]))
            lin = new_lin
            new_rays = []
            for r in rays:
                v = dot(a, r)
                new_rays.append(tuple(w0 * c - v * d for c, d in zip(r, l0)))
            new_rays.append(l0)
            rays = list(dict.fromkeys(
                rr for rr in cones._project(new_rays, lin) if not is_zero_vector(rr)))
            constraints.append(a)
            continue
        values = [dot(a, r) for r in rays]
        plus = [(r, v) for r, v in zip(rays, values) if v > 0]
        minus = [(r, v) for r, v in zip(rays, values) if v < 0]
        if minus:
            new_rays = [r for r, v in zip(rays, values) if v == 0] + [p for p, _ in plus]
            for p, vp in plus:
                for q, vq in minus:
                    if not _adjacent(p, q, constraints, n, len(lin)):
                        continue
                    # p and q are orthogonal to the lineality, so their
                    # combination is already its own representative
                    combo = primitive_vector([vp * c - vq * d for c, d in zip(q, p)])
                    if not is_zero_vector(combo):
                        new_rays.append(combo)
            rays = list(dict.fromkeys(new_rays))
        constraints.append(a)

    return rays, hnf(lin, n).basis


def two_pass_cone(gens, lins, n):
    """Reference conversion in rank n: one double description to the facet
    normals, a second one back to the rays, each side made canonical."""
    normals, eqs = canonical_sides(*ref_double_description(gens, lins, n), n)
    rays, lin = canonical_sides(*ref_double_description(normals, eqs, n), n)
    return Cone(n, rays, normals, lin, eqs)


def two_pass_cone_from_rays(rays, lineality, n):
    """Reference for ``cone_from_rays``: both passes run on the coordinates
    of a saturated basis B of the span; rays and lineality go back as
    ``B^T y`` and facet normals by the Gram lift ``B^T (B B^T)^{-1} a``."""
    gens = [tuple(r) for r in rays]
    lins = [tuple(l) for l in lineality]
    equations = int_kernel(gens + lins, n).basis
    if not equations:
        return two_pass_cone(gens, lins, n)
    span = int_kernel(equations, n)
    columns = list(zip(*span.basis))

    def lift(y):
        return tuple(dot(y, c) for c in columns)

    local = two_pass_cone([lattice_coordinates(span, v) for v in gens],
                          [lattice_coordinates(span, v) for v in lins], span.rank)
    rays_c, lin_c = canonical_sides([lift(y) for y in local.rays],
                                    [lift(y) for y in local.lineality], n)
    gram = [[dot(u, v) for v in span.basis] for u in span.basis]
    normals = {primitive_vector(lift(scaled_coordinates(gram, a)[0]))
               for a in local.inequalities}
    return Cone(n, rays_c, tuple(sorted(normals)), lin_c, equations)


# ---------------------------------------------------------------------------
# Fraction references of the character algebra: restriction matrices solved
# per call, every sum taken in Fractions, vanishing read on the rays


def coordinate_table(atlas):
    """``coords(base_id, face_id)``: the coordinates on the base face's
    lattice basis of every ray and lineality vector of a face below it, None
    for a vector that leaves the span; solved once per pair of the atlas for
    the reference scans."""
    @functools.cache
    def coords(base_id, face_id):
        basis = atlas.faces[base_id].lattice.basis
        cone = atlas.faces[face_id].cone
        return tuple(rational_coordinates(basis, v) for v in cone.rays + cone.lineality)
    return coords


def vanishes_on_face(coords, lam, base_id, face_id):
    """Whether ``lam`` on the base face lattice is zero at the coordinates
    of every ray and lineality vector of a face below the base, read from
    the ``coordinate_table`` ``coords``."""
    for c in coords(base_id, face_id):
        if c is None:
            raise InvariantViolation("face cone leaves the span of the base lattice")
        if dot(lam, c) != 0:
            return False
    return True


def face_coordinates(atlas, face_id, x):
    coords = rational_coordinates(atlas.faces[face_id].lattice.basis, x)
    if coords is None or any(c.denominator != 1 for c in coords):
        raise InvariantViolation(f"{x} must lie in the lattice of face {face_id}")
    return tuple(int(c) for c in coords)


def restriction_matrix(atlas, sub_face, face):
    return [face_coordinates(atlas, face, b) for b in atlas.faces[sub_face].lattice.basis]


def restrict(vec, matrix):
    return tuple(sum((Fraction(m) * v for m, v in zip(row, vec)), Fraction(0))
                 for row in matrix)


def ref_multiply(atlas, a, b):
    meet = atlas.meet(a.face_id, b.face_id)
    ma = restriction_matrix(atlas, meet, a.face_id)
    mb = restriction_matrix(atlas, meet, b.face_id)
    theta = tuple((ta + tb) % 1 for ta, tb in zip(restrict(a.theta, ma),
                                                  restrict(b.theta, mb)))
    lam = tuple(la + lb for la, lb in zip(restrict(a.lam, ma), restrict(b.lam, mb)))
    return Character(meet, theta, lam)


def ref_evaluate(atlas, chi, x):
    """The value at a semigroup member x."""
    if not atlas.faces[chi.face_id].cone.contains(x):
        return ExactValue(True)
    coords = face_coordinates(atlas, chi.face_id, x)
    angle = sum((t * c for t, c in zip(chi.theta, coords)), Fraction(0)) % 1
    exponent = sum((v * c for v, c in zip(chi.lam, coords)), Fraction(0))
    return ExactValue(False, angle, exponent)


def leq_table(atlas):
    """The face order as a table, ``leq[j][k]`` for face j <= face k, read
    from ``atlas.leq`` once per atlas for the reference scans."""
    ids = range(len(atlas.faces))
    return [[atlas.leq(j, k) for k in ids] for j in ids]


def ref_ray_limit(atlas, leq, coords, ray):
    """The largest face below the base on which the decay vanishes, by a
    scan of the order table ``leq`` and the coordinate table ``coords``."""
    lam = tuple(Fraction(v) for v in ray.lam)
    candidates = [f.face_id for f in atlas.faces
                  if leq[f.face_id][ray.base_face_id]
                  and vanishes_on_face(coords, lam, ray.base_face_id, f.face_id)]
    best = [j for j in candidates if all(leq[k][j] for k in candidates)]
    if len(best) != 1:
        raise InvariantViolation("limit face is not unique")
    return best[0]


def ref_chain(atlas, leq, coords, from_face, to_face):
    """Chain of rays from one face down to another, each step to the least
    id among the maximal faces strictly between, by scans of the order
    table ``leq`` and the coordinate table ``coords``."""
    if not leq[to_face][from_face]:
        raise ValueError(f"face {to_face} is not below face {from_face}")
    chain = []
    current = from_face
    while current != to_face:
        below = [j for j in range(len(atlas.faces))
                 if leq[to_face][j] and leq[j][current] and j != current]
        step = [j for j in below if not any(k != j and leq[j][k] for k in below)]
        target = min(step)
        face = atlas.faces[current]
        normals = [a for a in face.cone_local.inequalities
                   if vanishes_on_face(coords, a, current, target)]
        if not normals:
            raise InvariantViolation("a strictly smaller face lies on at least one facet")
        lam = tuple(sum(Fraction(a[i]) for a in normals) for i in range(face.rank))
        ray = Ray(current, lam)
        landed = ref_ray_limit(atlas, leq, coords, ray)
        if landed != target or atlas.faces[landed].rank >= face.rank:
            raise InvariantViolation("ray does not land on the chosen face")
        chain.append(ray)
        current = landed
    return chain
