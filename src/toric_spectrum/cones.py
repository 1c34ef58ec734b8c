"""Rational polyhedral cones with exact double description.

A :class:`Cone` stores both representations in canonical form:

* V-side: extreme ``rays`` taken modulo the lineality space (each ray is the
  primitive integer vector on its orthogonal representative) plus the
  ``lineality`` lattice (saturated, HNF rows).
* H-side: facet ``inequalities`` (primitive normals, taken modulo the
  orthogonal complement of the span) plus ``equations`` cutting out the span
  (saturated, HNF rows).

The H-side of a cone is literally the V-side of its dual, so dualising is an
exact involution by construction.  A conversion runs the double
description method once, with integer pivots and a combinatorial adjacency
test on tight-set bitmasks; no floating point and no rank is used.  That
pass gives the facet normals, in the rank of the cone's linear span: a cone
that does not span Q^n is converted on the pairings of its generators with
a saturated basis B of its span, and a normal a maps back as
``primitive(B^T a)``, which already lies in the span.  The lineality is the
integer kernel of the normals in that same rank, mapped back through B^T,
and the extreme rays are read off the normals and the input by the same
bitmask rule.  One body does the conversion, given the span's equations
and saturated basis (:func:`_cone_in_span`): :func:`cone_from_rays` finds
those as two integer kernels, and the base of a tower takes them off its
flag (``semigroups._flatten``), as does a generated spec that spans Z^n,
which has no equations.

:func:`face_lattice` walks the faces on bitmasks too: each ray set, of a
face or of a facet, is an integer bitmask over the cone's rays.

Projections modulo a span run no solver: the span's rows are made pairwise
orthogonal once, and each vector then takes one rank-one Gram-Schmidt step
``(r.r) v - (v.r) r`` per row (:func:`_reduce`, :func:`_project`).  They
serve the rays of a conversion and of a face's local cone, modulo their
lineality; the facet normals of a face and the tower rays of
:mod:`toric_spectrum.semigroups` take the same step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .intlinalg import (
    IntVector,
    InvariantViolation,
    Lattice,
    _check_rows,
    dot,
    hnf,
    identity_rows,
    int_kernel,
    is_zero_vector,
    primitive_vector,
    vec_neg,
)

# Entries kept by the face lattice, flattening (``semigroups._flatten``) and
# membership caches; the least recently used is dropped, so a long run holds a
# bounded number of cones.
CACHE_SIZE = 128


@dataclass(frozen=True)
class Cone:
    ambient_rank: int
    rays: tuple[IntVector, ...]
    inequalities: tuple[IntVector, ...]
    lineality: tuple[IntVector, ...]
    equations: tuple[IntVector, ...]

    def dim(self) -> int:
        """The dimension of the span, cut out by the independent equations
        of a canonical cone."""
        return self.ambient_rank - len(self.equations)

    def contains(self, x: Sequence) -> bool:
        """H-side membership test; exact for int or Fraction entries."""
        if len(x) != self.ambient_rank:
            raise ValueError("point length does not match ambient rank")
        return (all(dot(e, x) == 0 for e in self.equations)
                and all(dot(a, x) >= 0 for a in self.inequalities))

    def relative_interior_contains(self, x: Sequence) -> bool:
        if len(x) != self.ambient_rank:
            raise ValueError("point length does not match ambient rank")
        return (all(dot(e, x) == 0 for e in self.equations)
                and all(dot(a, x) > 0 for a in self.inequalities))


def _reduce(v: IntVector, basis: Sequence[tuple[IntVector, int]]) -> IntVector:
    """For a primitive v, the primitive integer vector on the part of v
    orthogonal to pairwise orthogonal rows, given as ``(r, r.r)`` pairs: one
    rank-one Gram-Schmidt step ``(r.r) v - (v.r) r`` per row r, skipped
    where ``v.r = 0``.  Each step scales by ``r.r > 0``, and rows orthogonal
    to one another leave the later pairings unchanged, so the result is on
    the line of the orthogonal projection, with its orientation."""
    for r, rr in basis:
        vr = dot(v, r)
        if vr:
            v = primitive_vector([rr * a - vr * b for a, b in zip(v, r)])
    return v


def _project(vecs: Sequence[Sequence], rows: Sequence[IntVector]) -> list[IntVector]:
    """Canonical representatives of directions modulo the span of
    independent rows R: each the primitive integer vector of the orthogonal
    projection onto the complement of ``span(R)``.

    A direction may be rational; clearing its denominators first is a
    positive rescale.  The rows are made pairwise orthogonal once, each
    reduced against those before it (:func:`_reduce`), which keeps their
    span; then each direction takes one rank-one step per row, all in
    integers.
    """
    basis: list[tuple[IntVector, int]] = []
    for r in rows:
        r = _reduce(r, basis)
        basis.append((r, dot(r, r)))
    return [_reduce(primitive_vector(v), basis) for v in vecs]


def _double_description(inequalities: Sequence[IntVector], equations: Sequence[IntVector],
                        ambient_rank: int) -> list[IntVector]:
    """Extreme rays, as primitive vectors, of the pointed cone
    ``{x : <a, x> >= 0 for a in inequalities, <e, x> = 0 for e in equations}``.

    Incremental DD: lineality starts as the full space and shrinks; each ray
    carries the bitmask of the processed constraints tight on it (bit k for
    the k-th).  Two rays are adjacent iff their common tight set is large
    enough for a two-dimensional face and no third ray is tight on all of it
    (Fukuda & Prodon 1996), so no rank is taken.

    The rows are integer vectors of length ``ambient_rank`` that span the
    space, as :func:`cone_from_rays` gives them, so the cone is pointed and
    the pass ends with no lineality; any left is an :class:`InvariantViolation`.
    Mid-pass a ray is any primitive representative of its class modulo the
    lineality, and no projection runs: a ray is read only through its mask
    and the signs of constraints that vanish on the lineality, a lineality
    step maps every representative of a class into one class of the smaller
    lineality, and at the end each class is a single vector.
    """
    n = ambient_rank
    todo = [c for e in equations if not is_zero_vector(e) for c in (e, vec_neg(e))]
    todo += [a for a in inequalities if not is_zero_vector(a)]
    lin = identity_rows(n)
    rays: dict[IntVector, int] = {}

    for k, a in enumerate(todo):
        bit = 1 << k
        lin_vals = [dot(a, l) for l in lin]
        j0 = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if j0 is not None:
            l0 = lin[j0] if lin_vals[j0] > 0 else vec_neg(lin[j0])
            w0 = abs(lin_vals[j0])
            lin = [primitive_vector([w0 * x - v * y for x, y in zip(l, l0)])
                   for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != j0]
            # every ray moves onto a = 0 and becomes tight on it; l0 is tight
            # on every earlier constraint, as they all vanish on the old lineality
            rays = {primitive_vector([w0 * x - dot(a, r) * y for x, y in zip(r, l0)]): m | bit
                    for r, m in rays.items()} | {l0: bit - 1}
            continue
        needed = n - len(lin) - 2
        signed = [(r, m, dot(a, r)) for r, m in rays.items()]
        minus = [t for t in signed if t[2] < 0]
        new_rays = {r: m | bit if v == 0 else m for r, m, v in signed if v >= 0}
        for p, mp, vp in (t for t in signed if t[2] > 0):
            for q, mq, vq in minus:
                common = mp & mq
                if (common.bit_count() >= needed
                        and sum(m & common == common for m in rays.values()) == 2):
                    combo = primitive_vector([vp * x - vq * y for x, y in zip(q, p)])
                    new_rays[combo] = common | bit
        rays = new_rays

    if lin:
        raise InvariantViolation("double description ends with a lineality")
    return list(rays)


def cone_from_rays(rays: Sequence[Sequence[int]], lineality: Sequence[Sequence[int]] = (),
                   ambient_rank: Optional[int] = None) -> Cone:
    """Cone generated by the given rays plus a lineality space.

    The input may be redundant; the stored data is canonical.  The span's
    equations are found once, as the integer kernel of the input, and the
    saturated basis of the span as the kernel of those, which is Z^n when
    there are none; the conversion itself is :func:`_cone_in_span`.
    """
    n = _check_rows([*rays, *lineality], ambient_rank)
    gens = [tuple(map(operator.index, r)) for r in rays]
    lins = [tuple(map(operator.index, l)) for l in lineality]
    equations = int_kernel(gens + lins, n).basis
    return _cone_in_span(gens, lins, equations, int_kernel(equations, n))


def _cone_in_span(gens: Sequence[IntVector], lins: Sequence[IntVector],
                  equations: tuple[IntVector, ...], span: Lattice) -> Cone:
    """The cone of integer rays and lineality generators, given the HNF
    ``equations`` of their linear span and the saturated lattice ``span``
    of its integer points, which a caller that knows them passes in
    (:func:`cone_from_rays`, and ``semigroups._flatten`` for the base of a
    tower and for a generated spec that spans Z^n).

    One double description turns the generators into facet normals.  It
    runs in the rank of the span, after Fukuda & Prodon (1996): each
    generator x is written as its pairings ``B x`` with the rows of the
    saturated basis B of the span.  As x -> Bx is injective on the span, the
    cone computed there is full dimensional, so its dual has no lineality.
    A facet normal a goes back to Z^n as ``primitive(B^T a)``, which lies in
    the span and pairs with x as a pairs with ``B x``; B^T is injective, so
    the normals stay distinct, and they are only sorted.  The lineality is
    the integer kernel of the normals, taken in the same rank: for a cone in a
    proper subspace it is the kernel in Z^d of the rows ``B v`` over the
    normals v, mapped back by B^T, which is saturated because B is, and put
    in HNF.  The rays are read off the input: the nonzero generators, taken
    modulo the lineality, whose set of vanishing normals lies strictly
    inside no other generator's.
    """
    n = span.ambient_rank
    if equations:
        basis, columns = span.basis, list(zip(*span.basis))

        def pairings(vecs):
            return [tuple(dot(b, x) for b in basis) for x in vecs]

        local = _double_description(pairings(gens), pairings(lins), span.rank)
        normals = [primitive_vector([dot(a, c) for c in columns]) for a in local]
        lin = hnf([[dot(y, c) for c in columns]
                   for y in int_kernel(pairings(normals), span.rank).basis], n).basis
    else:
        normals = _double_description(gens, lins, n)
        lin = int_kernel(normals, n).basis
    normals = tuple(sorted(normals))
    tight = {r: sum(1 << i for i, a in enumerate(normals) if dot(a, r) == 0)
             for r in _project(gens, lin) if not is_zero_vector(r)}
    extreme = (r for r, m in tight.items()
               if not any(o != m and o & m == m for o in tight.values()))
    return Cone(n, tuple(sorted(extreme)), normals, lin, equations)


def cone_from_inequalities(inequalities: Sequence[Sequence[int]],
                           equations: Sequence[Sequence[int]] = (),
                           ambient_rank: Optional[int] = None) -> Cone:
    """Solution cone of ``<a, x> >= 0`` and ``<e, x> = 0`` constraints: the
    dual of the cone the constraints generate."""
    return dual_cone(cone_from_rays(inequalities, equations, ambient_rank))


def dual_cone(cone: Cone) -> Cone:
    """Dual cone ``{y : <x, y> >= 0 for all x in C}``.

    The stored sides swap, so ``dual_cone(dual_cone(C)) == C`` exactly.
    """
    return Cone(cone.ambient_rank, cone.inequalities, cone.rays,
                cone.equations, cone.lineality)


def cone_contains_cone(inner: Cone, outer: Cone) -> bool:
    """Exact set containment ``inner <= outer``.  On the face cones of an
    atlas it is the face order, read off no mask."""
    if inner.ambient_rank != outer.ambient_rank:
        raise ValueError("ambient rank mismatch")
    for r in inner.rays:
        if not outer.contains(r):
            return False
    for l in inner.lineality:
        if not (outer.contains(l) and outer.contains(vec_neg(l))):
            return False
    return True


@dataclass(frozen=True)
class FaceHandle:
    id: int
    tight_set: tuple[int, ...]
    dim: int


@dataclass(frozen=True)
class FaceLattice:
    """The faces of a cone as :func:`face_lattice` lists them: a handle
    each, the (larger, smaller) id pairs of the covers, and each face's ray
    set as indices into the cone's rays; the cone itself stays the
    caller's."""

    faces: tuple[FaceHandle, ...]
    covers: tuple[tuple[int, int], ...]
    ray_sets: tuple[tuple[int, ...], ...]


# perfbench/run.py calls cache_clear and cache_info: a prune waits on the harness (ROADMAP)
@lru_cache(maxsize=CACHE_SIZE)
def face_lattice(cone: Cone) -> FaceLattice:
    """All closed faces of the cone with their Hasse cover relations.

    The minimal face is the lineality space, the maximal face the cone
    itself.  Each face is given by its ray set (indices into ``cone.rays``)
    and its tight set (indices into ``cone.inequalities``), which is all it
    takes to read the face off the cone without a further double
    description: :func:`toric_spectrum.semigroups.enumerate_faces` builds a
    whole atlas from the single lattice of its asymptotic cone.  Ids run by
    decreasing dimension, then by sorted ray set: the cone's rays are
    sorted, so this is the order of the faces' ray tuples, the atlas order.
    Face 0 is the cone itself; ``covers`` lists sorted (larger, smaller) id
    pairs.

    One worklist walks down from the whole cone, each ray set and each
    facet a bitmask over the rays (bit j for ray j): the faces a face covers
    are the maximal proper intersections of its ray set with the facet ray
    sets (Kaibel & Pfetsch 2002), each one dimension lower.  The ray and
    tight sets are written as index tuples once, at the end.
    """
    facets = [sum(1 << j for j, r in enumerate(cone.rays) if dot(a, r) == 0)
              for a in cone.inequalities]
    top = (1 << len(cone.rays)) - 1
    dims = {top: cone.dim()}
    below = {}
    work = [top]
    for rs in work:
        meets = {rs & f for f in facets if rs & f != rs}
        below[rs] = [g for g in meets if not any(g != h and g & h == g for h in meets)]
        for g in below[rs]:
            if g not in dims:
                dims[g] = dims[rs] - 1
                work.append(g)
    entries = sorted((-dims[rs], tuple(i for i, c in enumerate(bin(rs)[:1:-1]) if c == "1"), rs)
                     for rs in work)
    handles = tuple(FaceHandle(i, tuple(k for k, f in enumerate(facets) if rs & f == rs), -d)
                    for i, (d, _, rs) in enumerate(entries))
    index = {rs: i for i, (_, _, rs) in enumerate(entries)}
    covers = sorted((index[rs], index[g]) for rs in work for g in below[rs])
    return FaceLattice(handles, tuple(covers), tuple(ray_set for _, ray_set, _ in entries))
