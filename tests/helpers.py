"""Shared fixtures and generators for the test suite."""

import functools
import importlib
import operator
import pkgutil
import random
import sys
from fractions import Fraction
from pathlib import Path

import toric_spectrum

from toric_spectrum import (
    Character,
    Cone,
    ExactValue,
    FaceData,
    Generators,
    InvariantViolation,
    Ray,
    Tower,
    cones,
)
from toric_spectrum.intlinalg import (
    Lattice,
    basis_torsion,
    dot,
    full_lattice,
    hnf,
    hnf_coordinates,
    int_kernel,
    is_zero_vector,
    lattice_residue,
    primitive_vector,
    vec_neg,
)
from toric_spectrum.oracle import _orank, _orref, _supporting
from toric_spectrum.semigroups import boundary_basis, embed_point

# the benchmark's seeded draws, shared with the tests that reproduce its inputs
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from workloads import pointed_generators, skew_normal  # noqa: E402,F401

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
    from toric_spectrum import asymptotic_cone
    while True:
        spec = random_generators(rng, max_rank, max_gens, coord)
        if not asymptotic_cone(spec).lineality:
            return spec


def ref_is_antisymmetric(spec) -> bool:
    """Reference for ``SpectrumAtlas.antisymmetric``: whether
    ``S intersect (-S) == {0}``, by another route than the atlas's least
    face.  A generated semigroup is antisymmetric iff its asymptotic cone is
    pointed; a tower iff its boundary semigroup is, as the open side never
    meets its own negative."""
    from toric_spectrum import asymptotic_cone
    if isinstance(spec, Tower):
        return ref_is_antisymmetric(spec.inner)
    return not asymptotic_cone(spec).lineality


def ref_is_separating(spec) -> bool:
    """Reference for ``SpectrumAtlas.separating``: whether S generates Z^n,
    from the HNF of the generators rather than face 0.  A tower's open half
    lattice alone generates Z^n."""
    if isinstance(spec, Tower):
        return True
    return hnf(spec.generators, spec.ambient_rank) == full_lattice(spec.ambient_rank)


TORSION_BASES = (Generators(1, ((2,),)), EVEN_AXIS, Generators(2, ((4, 2), (0, 3))),
                 Generators(1, ((3,), (-3,))))


def random_tower(rng, depth, bases=TORSION_BASES):
    spec = rng.choice(bases)
    for _ in range(depth):
        n = spec.ambient_rank + 1
        spec = Tower(n, skew_normal(rng, n), spec)
    return spec


def atlas_spec(rng, kind):
    """The benchmark's atlas specs (``workloads.atlas_spec``): ``r<n>.<m>``
    is m pointed generators of rank n, ``r<n>l`` n pointed generators plus a
    line."""
    return workloads.build(toric_spectrum, workloads.atlas_spec(rng, kind))


def tower_chain(rng, depth):
    """The benchmark's tower chains (``workloads.tower_chain``): skewed
    normals over the even-axis boundary."""
    return workloads.build(toric_spectrum, workloads.tower_chain(rng, depth))


# ---------------------------------------------------------------------------
# Lattice helpers the package no longer needs: a face's lineality is the
# kernel of its normals, and a lattice's coordinates one back-substitution.


def saturate(lattice):
    """Saturation, (Q-span of the lattice) intersected with Z^n: two
    integer kernels."""
    ker = int_kernel(lattice.basis, lattice.ambient_rank)
    return int_kernel(ker.basis, lattice.ambient_rank)


def lattice_coordinates(lattice, x):
    """Integer coefficients c with ``sum(c_i * basis_i) == x`` on the lattice
    basis, or None if x is not in the lattice: the ``hnf_coordinates`` of
    ``[x]`` that need no denominator."""
    solved = hnf_coordinates(lattice.basis, [x])
    return solved[0][0] if solved is not None and solved[0][1] == 1 else None


# ---------------------------------------------------------------------------
# References on the oracle's Fraction Gauss-Jordan elimination: a solve and a
# cofactor determinant, which no code of the package needs.


def _osolve(basis_rows, x):
    """Coefficients c with sum(c_i * basis_i) = x, as Fractions, basis rows
    independent; None when x leaves their span."""
    k = len(basis_rows)
    reduced, pivots = _orref([[b[j] for b in basis_rows] + [a] for j, a in enumerate(x)],
                             k + 1)
    if pivots != list(range(k)):
        return None
    return tuple(row[k] for row in reduced)


def _det(mat) -> int:
    """Cofactor determinant."""
    k = len(mat)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# The rational solver the package no longer has: a Bareiss elimination, the
# Gram systems solved on it, and the projections and conversion built on
# those.  The references below use it, so they share no arithmetic with the
# rank-one Gram-Schmidt steps of ``cones._project``.


def echelon(rows):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns the nonzero echelon rows and their pivot columns.  After the
    k-th pivot every entry below it is a (k+1) x (k+1) minor of the row
    permuted input, so the division by the previous pivot is exact and no
    entry ever leaves the integers.  Non-integer entries are rejected
    (TypeError) rather than floor-divided.
    """
    mat = [list(map(operator.index, r)) for r in rows]
    pivots = []
    prev = 1
    for j in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][j] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        p = mat[r][j]
        for i in range(r + 1, len(mat)):
            a = mat[i][j]
            mat[i] = [(p * x - a * y) // prev for x, y in zip(mat[i], mat[r])]
        prev = p
        pivots.append(j)
        if r + 1 == len(mat):
            break
    return mat[:len(pivots)], pivots


def scaled_solutions(basis, xs):
    """Integers ``(ys, d)`` with ``d > 0`` and ``sum(y_i * basis_i) == d * x``
    for the x of ``xs`` in turn, one ``y`` each, or None if some x is not in
    the rational row span.  The basis rows must be linearly independent.

    One elimination of ``[basis^T | x_1 ... x_m]`` serves every x: the pivots
    of the basis columns depend on those columns alone, and some x is
    outside the span exactly when a pivot falls right of them.  Otherwise
    ``d`` is the last pivot (the determinant of the pivot rows, up to sign)
    and, by Cramer's rule, back-substitution on each ``d * x`` stays in the
    integers.
    """
    k = len(basis)
    n = len(xs[0]) if xs else len(basis[0]) if basis else 0
    rows, pivots = echelon([[b[j] for b in basis] + [x[j] for x in xs] for j in range(n)])
    if pivots and pivots[-1] >= k:
        return None
    d = rows[-1][k - 1] if k else 1
    ys = []
    for column in range(k, k + len(xs)):
        y = [0] * k
        for i in reversed(range(k)):
            row = rows[i]
            y[i] = (d * row[column] - sum(row[t] * y[t] for t in range(i + 1, k))) // row[i]
        ys.append(tuple(y) if d > 0 else tuple(-c for c in y))
    return tuple(ys), abs(d)


def gram_solve(rows, rhs):
    """Integers ``(ys, d)`` with ``d > 0`` and ``(R R^T) y = d b`` for each
    right-hand side b, one y each: a single elimination of the Gram system
    ``[R R^T | b_1 ... b_m]`` of the independent rows R."""
    return scaled_solutions([[dot(u, v) for v in rows] for u in rows], rhs)


SOLVER_NAMES = ("_gram_solve", "scaled_solutions", "_echelon")


def package_definitions(names):
    """The ``module.name`` of every given name that a module of the package
    defines."""
    found = []
    for info in pkgutil.iter_modules(toric_spectrum.__path__):
        module = importlib.import_module(f"toric_spectrum.{info.name}")
        found += [f"{info.name}.{name}" for name in names if hasattr(module, name)]
    return found


def ref_project(vecs, rows, onto=False):
    """Reference for ``cones._project``: canonical representatives of
    directions modulo the span of independent rows R, or, with ``onto``,
    their parts in it, from one Gram elimination for every direction.  The
    part of x in the span is ``R^T c`` with ``(R R^T) c = R x``; with
    ``c = y / d`` the two projections are ``R^T y`` and ``d x - R^T y`` up
    to the positive factor ``d``."""
    vecs = [primitive_vector(v) for v in vecs]
    if not rows or not vecs:
        return [tuple(0 for _ in v) for v in vecs] if onto else vecs
    ys, d = gram_solve(rows, [[dot(r, v) for r in rows] for v in vecs])
    columns = list(zip(*rows))
    parts = ([dot(y, c) for c in columns] for y in ys)
    if onto:
        return [primitive_vector(p) for p in parts]
    return [primitive_vector([d * a - b for a, b in zip(v, p)]) for v, p in zip(vecs, parts)]


def ref_cone_from_rays(rays, lineality, n):
    """Reference for ``cones.cone_from_rays``: the Gram-lift conversion.  A
    cone in a proper subspace runs its double description on the lattice
    coordinates of its generators on a saturated basis B of its span, and a
    facet normal a goes back as the Gram lift ``B^T (B B^T)^{-1} a``; its
    lineality is the kernel of the local normals mapped through B; its rays
    are the input modulo the lineality by ``ref_project``."""
    gens = [tuple(map(operator.index, r)) for r in rays]
    lins = [tuple(map(operator.index, l)) for l in lineality]
    equations = int_kernel(gens + lins, n).basis
    if equations:
        span = int_kernel(equations, n)
        columns = list(zip(*span.basis))
        local = cones._double_description([lattice_coordinates(span, v) for v in gens],
                                          [lattice_coordinates(span, v) for v in lins],
                                          span.rank)
        normals = [tuple(dot(y, c) for c in columns) for y in gram_solve(span.basis, local)[0]]
        lin = hnf([[dot(y, c) for c in columns] for y in int_kernel(local, span.rank).basis],
                  n).basis
    else:
        normals = cones._double_description(gens, lins, n)
        lin = int_kernel(normals, n).basis
    normals = tuple(sorted({primitive_vector(a) for a in normals}))
    tight = {r: sum(1 << i for i, a in enumerate(normals) if dot(a, r) == 0)
             for r in ref_project(gens, lin) if not is_zero_vector(r)}
    extreme = (r for r, m in tight.items()
               if not any(o != m and o & m == m for o in tight.values()))
    return Cone(n, tuple(sorted(extreme)), normals, lin, equations)


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


def finalize_face(cone, lattice, dim):
    """Reference: torsion, local cone and dual local cone of any face, by
    the generic path that once served the half spaces of a tower too.  The
    torsion comes from the Smith form, the lineality from the coordinates of
    the cone's lineality on the lattice basis B (saturated when there is
    torsion), the rays from their coordinates taken modulo it, and the
    inequalities as ``primitive(B a)``."""
    if lattice.rank != dim:
        raise InvariantViolation("face lattice does not span its cone")
    torsion = basis_torsion(lattice.basis)
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


def ref_generator_faces(base, ambient, depth):
    """Reference: the faces of a generated semigroup by the per-face route
    that the projection tables replace.  Each face's equations are the
    ``int_kernel`` of its rays and lineality, its facet normals the cone
    inequalities tight on a facet but not on it, projected onto its span by
    one Gram elimination (``ref_project``) on the smaller side, its
    members' lattice basis or its equations, and its torsion and local cones
    come from ``finalize_face``, with the torsion from the Smith form."""
    n = base.ambient_rank
    lattice = cones.face_lattice(ambient)
    handles = lattice.faces
    facets = [[] for _ in handles]
    for larger, smaller in lattice.covers:
        facets[larger].append(smaller)
    faces = []
    for handle, ray_set in zip(handles, lattice.ray_sets):
        rays = tuple(ambient.rays[j] for j in ray_set)
        equations = int_kernel(rays + ambient.lineality, n).basis
        members = tuple(g for g in base.generators
                        if all(dot(ambient.inequalities[i], g) == 0 for i in handle.tight_set))
        span = hnf(members, n)
        normals = [ambient.inequalities[next(i for i in handles[f].tight_set
                                             if i not in handle.tight_set)]
                   for f in facets[handle.id]]
        onto = span.rank < len(equations)
        normals = ref_project(normals, span.basis if onto else equations, onto)
        cone = Cone(n, rays, tuple(sorted(set(normals))), ambient.lineality, equations)
        faces.append(FaceData(depth + handle.id, handle.dim, cone, span,
                              *finalize_face(cone, span, handle.dim), members,
                              (0,) if depth else handle.tight_set))
    return faces


def ref_flatten(spec):
    """Reference: the flattening by the per-level route that reading the
    rays off the flag replaces.  Each level's ray is ``E^T normal`` taken
    modulo its lineality by one Gram elimination (``ref_project``) on the
    smaller side, the next level's equations or the lineality, and the base
    cone is ``cone_from_rays`` on the embedded generators."""
    n = spec.ambient_rank
    half_spaces = []
    lattice = full_lattice(n)
    embedding, equations = lattice.basis, ()
    while isinstance(spec, Tower):
        inner = tuple(embed_point(embedding, b, n) for b in boundary_basis(spec))
        lineality = hnf(inner, n)
        below = int_kernel(inner, n).basis if isinstance(spec.inner, Tower) else None
        direction = embed_point(embedding, spec.normal, n)
        onto = below is not None and len(below) < lineality.rank
        (normal,) = ref_project([direction], below if onto else lineality.basis, onto)
        half_spaces.append((Cone(n, (normal,), (normal,), lineality.basis, equations), lattice))
        embedding, spec = inner, spec.inner
        lattice, equations = lineality, below
    if half_spaces:
        spec = Generators(n, tuple(embed_point(embedding, g, n) for g in spec.generators))
    return tuple(half_spaces), spec, cones.cone_from_rays(spec.generators, (), n)


def nested_tower(depth):
    """The tower of the given depth with normal e_1 at every level over the
    half line."""
    spec = HALF_LINE
    for n in range(2, depth + 2):
        spec = Tower(n, (1,) + (0,) * (n - 1), spec)
    return spec


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
                rr for rr in ref_project(new_rays, lin) if not is_zero_vector(rr)))
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


def ref_contains(spec, x):
    """Reference membership by the weight-range search.  A tower decides at
    its first level of nonzero height; at height zero the innermost
    generators are searched depth first, each non-unit generator g in turn
    (by falling weight) with coefficients from ``<w, rem> // <w, g>`` down
    to 0, w the sum of the cone's inequalities, on remainders taken modulo
    the group of units; every state is tested against the cone, and a state
    whose children all fail is memoised as dead."""
    from toric_spectrum import semigroups
    x = tuple(x)
    half_spaces, base, cone = semigroups._flatten(spec)
    for half, _ in half_spaces:
        height = dot(half.inequalities[0], x)
        if height:
            return height > 0
    gens = [g for g in dict.fromkeys(base.generators) if not is_zero_vector(g)]
    units = hnf([g for g in gens if cone.contains(vec_neg(g))], spec.ambient_rank)
    weight = tuple(map(sum, zip(*cone.inequalities)))
    rest = sorted(((dot(weight, g), g) for g in gens if not cone.contains(vec_neg(g))),
                  key=lambda pair: (-pair[0], pair[1]))
    dead = set()

    def reaches_zero(idx, rem):
        if not any(rem):
            return True
        if idx == len(rest) or (idx, rem) in dead or not cone.contains(rem):
            return False
        w, g = rest[idx]
        for c in range(dot(weight, rem) // w, -1, -1):
            if reaches_zero(idx + 1, lattice_residue(units, [a - c * b for a, b in zip(rem, g)])):
                return True
        dead.add((idx, rem))
        return False

    return cone.contains(x) and reaches_zero(0, lattice_residue(units, x))


def ref_face_candidates(view, points, n):
    """The oracle's candidate faces by recursion down the face lattice: each
    tower level's points, then at every base face the cuts by the supporting
    hyperplanes of its own generators, descending into each proper cut."""
    functionals, gens = view
    out = set()
    for w in functionals:
        out.add(points)
        points = frozenset(x for x in points if dot(w, x) == 0)

    def descend(gens, points):
        found = {points}
        for w in sorted(_supporting(gens, n)[1]):
            cut = frozenset(x for x in points if dot(w, x) == 0)
            if cut != points:
                found |= descend([g for g in gens if dot(w, g) == 0], cut)
        return found

    return out | descend(list(gens), points)
