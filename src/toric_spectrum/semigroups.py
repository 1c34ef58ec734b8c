"""Finitely described semigroups in Z^n and their face atlases.

Two descriptions are supported:

* :class:`Generators` - the semigroup of all nonnegative integer combinations
  of a finite generator list (the zero vector always belongs).
* :class:`Tower` - an open half lattice plus a recursively described
  semigroup on its boundary hyperplane:
  ``S = {x : <normal, x> > 0}  union  embed(inner)`` where the boundary
  lattice ``normal^perp intersect Z^n`` carries its canonical HNF basis and
  ``inner`` is a spec of rank ``n - 1`` written in those coordinates.

The atlas lists every face (a subsemigroup whose complement is an ideal)
together with its asymptotic cone, the subgroup of Z^n generated by its
points, the torsion of the ambient quotient, and the dual cone written in
face-lattice coordinates.

The atlas is computed from one face lattice.  The faces of a generated
semigroup are the faces of its asymptotic cone, so one double description
(for that cone) and one :func:`~toric_spectrum.cones.face_lattice` give
them all: each face cone is read off the lattice (a subset of the rays, the
cone's inequalities tight on its facets), its local cone is the face cone
written on its lattice basis, its id is its lattice id, and the face order
is the closure of the lattice's covers.

A face's member generators are read off bitmasks: each generator's mask of
the cone inequalities that vanish on it is found once per atlas, and a face
holds the generators whose mask contains its tight set.  One triangulation
of its members' lattice basis gives its equations and its torsion, with no
Smith form for a face without torsion.  Its facet normals are cone
inequalities projected onto its span, each computed when first read and
memoised: one rank-one Gram-Schmidt step applied to the projection onto
the span of its first cover.  Face 0 is the asymptotic cone itself: it
holds every generator, so its equations are the cone's and its torsion
comes from its basis alone.

A tower is flattened once into Z^n (:func:`_flatten`): one half space per
level, then its innermost generators embedded as a generated spec of rank n.
The flag is walked with a right inverse of each level's embedding, so no
level takes an integer kernel: the inverse image of a level's normal gives
the next level's equations and, by rank-one Gram-Schmidt steps against the
rays above it, the level's ray, with no Gram system solved.  A base that
spans its rank is converted on the last level's lattice and equations.  The
atlas is the half spaces above the faces of that generated spec.  A half
space's local cone is read off the flag with no Smith form and no solve
(:func:`_half_space_local`); only the generated faces are finalised
(:func:`_finalize_face`).  Membership reads the half spaces' functionals
level by level and searches the generators only at height zero on every
level.  The flattening is cached with the base's asymptotic cone, so an
atlas and a membership search on one spec share one double description.  A
generated spec is flattened as a tower of depth zero: no half space, no
embedding, and its generators as the base, whose asymptotic cone is the
spec's.

When that cone is a single ray with no lineality, the generators are
multiples of its primitive ray and the search is the money-changing
problem.  Membership then keeps the Apery table of the multiples, the least
member of each residue class modulo the least multiple, built once by the
round-robin algorithm of Bocker and Liptak and bounded by
:data:`APERY_MAX_MODULUS` and :data:`APERY_MAX_WORK`, and answers each query
with one lookup.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import product
from math import gcd
from typing import Optional, Sequence, Union

from .cones import (
    CACHE_SIZE,
    Cone,
    _cone_in_span,
    _project,
    _reduce,
    cone_contains_cone,
    cone_from_rays,
    dual_cone,
    face_lattice,
)
from .intlinalg import (
    IntVector,
    InvariantViolation,
    Lattice,
    _one_row_kernel,
    basis_torsion,
    dot,
    full_lattice,
    hnf,
    hnf_coordinates,
    int_kernel,
    is_zero_vector,
    kernel_and_torsion,
    lattice_contains,
    lattice_residue,
    primitive_vector,
    vec_neg,
)


class MembershipUndecided(Exception):
    """Raised when an explicit search budget runs out before the membership
    question is settled.  Never silently reported as False."""


@dataclass(frozen=True)
class Generators:
    ambient_rank: int
    generators: tuple[IntVector, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ValueError("generator length does not match ambient rank")


@dataclass(frozen=True)
class Tower:
    ambient_rank: int
    normal: IntVector
    inner: "SemigroupSpec"

    def __post_init__(self):
        if len(self.normal) != self.ambient_rank:
            raise ValueError("normal length does not match ambient rank")
        if is_zero_vector(self.normal):
            raise ValueError("tower normal must be nonzero")
        if primitive_vector(self.normal) != self.normal:
            raise ValueError("tower normal must be primitive")
        if self.inner.ambient_rank != self.ambient_rank - 1:
            raise ValueError("inner spec must have ambient rank n - 1")


SemigroupSpec = Union[Generators, Tower]


def boundary_basis(spec: Tower) -> tuple[IntVector, ...]:
    """Canonical HNF basis of ``normal^perp intersect Z^n``; the inner spec
    coordinates refer to these rows."""
    return int_kernel([spec.normal], spec.ambient_rank).basis


def embed_point(basis: Sequence[IntVector], y: Sequence[int], ambient_rank: int) -> IntVector:
    """The point ``sum y_i basis_i`` of Z^n; zero when the basis is empty.
    Zero coefficients are skipped: a boundary basis is mostly unit vectors,
    so a deep tower embeds rows that are mostly zero."""
    out = [0] * ambient_rank
    for c, row in zip(y, basis):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def asymptotic_cone(spec: SemigroupSpec) -> Cone:
    """Closed cone of all limit directions of the semigroup.

    Generators case: the cone hull of the generators (which equals the
    double dual of the generating data), the cone :func:`_flatten` converts
    and keeps.  Tower case: the closed half space of the defining normal,
    written down in canonical form: the primitive normal is its only ray and
    its only facet normal, and the boundary lattice is its lineality.
    """
    if isinstance(spec, Generators):
        return _flatten(spec)[2]
    return _half_space(spec.normal, spec.ambient_rank)


def _half_space(normal: IntVector, n: int) -> Cone:
    """The closed half space of a primitive normal in canonical form: the
    normal is its only ray and its only inequality, and the integer kernel
    of the normal is its lineality."""
    return Cone(n, (normal,), (normal,), int_kernel([normal], n).basis, ())


# ---------------------------------------------------------------------------
# membership


# Bounds of a numerical semigroup's Apery table (:func:`_apery_table`): its
# modulus a, the least generator as a multiple of the ray, and its build work
# a*k over the k non-unit generators.  A build takes O(a*k) steps, about
# 0.15 s at the bound on a 2-core host with Python 3.11, and a table holds at
# most 2^14 entries of 8 bytes, so the CACHE_SIZE entries of the membership
# cache hold at most 16 MiB of tables.  Above either bound, or where an entry
# could pass 8 bytes, the search runs.
APERY_MAX_MODULUS = 1 << 14
APERY_MAX_WORK = 1 << 20


def _apery_table(steps: Sequence[int]) -> Sequence[int]:
    """The Apery table of ``<steps>``, sorted least first, for its least
    element a, by the round-robin algorithm of Bocker and Liptak
    (*Algorithmica*, 2007): entry r is the least element congruent to r
    modulo a, or -1 where none is.  Each further generator c walks the
    gcd(a, c) cycles of residues ``r -> r + c mod a`` once, from the least
    entry of each cycle, so the build takes O(a k) steps for k generators.
    Its entries are ints of 8 bytes: a least element is a sum of fewer than
    a generators, so the caller's bound ``(a - 1) max(steps) < 2^63`` keeps
    it in range."""
    # an extension module: loaded only by a process that builds a table
    from array import array

    a = steps[0]
    table = [0] + [-1] * (a - 1)
    for c in steps[1:]:
        d = gcd(a, c)
        for p in range(d):
            # the cycle through 0 starts at its entry 0, the least there is
            n = min((v for v in table[p::d] if v >= 0), default=-1) if p else 0
            if n < 0:
                continue
            for _ in range(a // d - 1):
                n += c
                r = n % a
                if 0 <= table[r] < n:
                    n = table[r]
                table[r] = n
    return array("q", table)


@lru_cache(maxsize=CACHE_SIZE)
def _membership_data(spec: SemigroupSpec):
    """Level functionals and search data for membership.

    A tower contributes one functional per level, the inequality of its half
    space in Z^n; the search runs on its innermost generators embedded into
    Z^n.  There, the generators in the lineality of the asymptotic cone
    generate a group of units L, and the search keeps its remainder as its
    residue modulo L (:func:`~toric_spectrum.intlinalg.lattice_residue`).
    L lies in the cone's lineality, on which every inequality vanishes, so
    the cone's inequalities read a residue exactly as its remainder.  The
    cone is the one :func:`_flatten` converted, which an atlas of the same
    spec reads too.  Every other generator g is kept with the pairs ``(a,
    <a, g>)`` over the inequalities a with ``<a, g> > 0``, by falling weight,
    the sum of the inequalities (positive on g, so the pairs are never
    empty).  When the cone is one primitive ray rho with no lineality, every
    generator is ``c rho``, the semigroup is the numerical semigroup of the
    multiples c, and it is kept as its Apery table (:func:`_apery_table`)
    with the cone's one inequality a and ``<a, rho>``, which read a point
    ``m rho`` as m; above :data:`APERY_MAX_MODULUS` or
    :data:`APERY_MAX_WORK`, or past 8-byte entries, there is no table.
    Returns ``(functionals, (cone, L, ((g, pairs), ...), table))``, the
    table ``(a, <a, rho>, Apery table)`` or None.
    """
    half_spaces, base, cone = _flatten(spec)
    n = base.ambient_rank
    gens = [g for g in dict.fromkeys(base.generators) if not is_zero_vector(g)]
    units = hnf([g for g in gens if cone.contains(vec_neg(g))], n)
    weight = tuple(map(sum, zip(*cone.inequalities)))
    rest = sorted(((dot(weight, g), g) for g in gens if not cone.contains(vec_neg(g))),
                  key=lambda pair: (-pair[0], pair[1]))
    if any(w <= 0 for w, _ in rest):
        raise InvariantViolation("pointed part admits a strictly positive functional")
    rest = tuple((g, tuple((a, dot(a, g)) for a in cone.inequalities if dot(a, g) > 0))
                 for _, g in rest)
    functionals = tuple(half.inequalities[0] for half, _ in half_spaces)
    table = None
    if len(cone.rays) == 1 and not cone.lineality:
        a = cone.inequalities[0]
        ar = dot(a, cone.rays[0])
        steps = sorted(dot(a, g) // ar for g, _ in rest)
        if (steps[0] <= APERY_MAX_MODULUS and steps[0] * len(steps) <= APERY_MAX_WORK
                and (steps[0] - 1) * steps[-1] < 1 << 63):
            table = (a, ar, _apery_table(steps))
    return functionals, (cone, units, rest, table)


def contains(spec: SemigroupSpec, x: Sequence[int], max_nodes: Optional[int] = None) -> bool:
    """Exact membership ``x in S``.

    Always decided exactly; the optional ``max_nodes`` budget turns a
    pathologically large search into an explicit
    :class:`MembershipUndecided` instead of a wrong answer.  One node is one
    state of the generator search expanded, the closed-form check of the
    last generator included; a state already known dead costs none.  An
    expanded node adds at most one state to the dead set, so ``max_nodes``
    bounds the search's memory as well as its time, though one node walks
    its whole coefficient range, whose dead children cost no node.  A
    numerical semigroup with an Apery table answers with one lookup of the
    table, which is one node too.  A tower decides at its first level where
    x has nonzero height; a point of height zero on every level lies in the
    innermost boundary, where the generators decide.  Non-integer
    coordinates are rejected (TypeError).
    """
    x = tuple(map(operator.index, x))
    if len(x) != spec.ambient_rank:
        raise ValueError("point length does not match ambient rank")
    functionals, search = _membership_data(spec)
    for a in functionals:
        height = dot(a, x)
        if height:
            return height > 0
    return _generators_contains(search, x, max_nodes)


def _generators_contains(search, x: IntVector, max_nodes: Optional[int]) -> bool:
    if is_zero_vector(x):
        return True
    cone, units, gens, table = search
    if not cone.contains(x):
        return False
    budget = max_nodes
    if table:
        # x = m rho is a member iff m is at least the least member of its
        # residue class modulo the least generator
        if budget is not None and budget < 1:
            raise MembershipUndecided(f"membership search budget exhausted for {x}")
        a, ar, apery = table
        m = dot(a, x) // ar
        return 0 <= apery[m % len(apery)] <= m
    last = len(gens) - 1
    dead: set = set()
    # Depth first over the coefficient of each generator g in turn, largest
    # first, on an explicit stack: the depth grows with the generator count,
    # which the call stack could not hold.  A state is the next generator's
    # index and the remainder's residue modulo the units; every state stays
    # in the cone, tested once at the root.  Its coefficients run from
    # min <a, rem> // <a, g> over g's pairs down to 0, exactly those that
    # keep rem - c g in the cone, and each frame holds them as a lazy range,
    # so memory stays linear in the depth.  The last generator needs no
    # loop: rem - c g lies in the units, inside the lineality where g is
    # not, for at most one c, read off g's first pair.  A state whose
    # children all fail is memoised as dead.  In a pointed cone the units
    # are zero and a remainder is its own residue.  Every remainder is built
    # here at length n, so its pairings need no length check.
    residue = partial(lattice_residue, units) if units.basis else tuple
    stack: list = []
    state = (0, residue(x))
    while True:
        if state is not None:
            idx, rem = state
            if not any(rem):
                return True
            if idx <= last and state not in dead:
                if budget is not None:
                    budget -= 1
                    if budget < 0:
                        raise MembershipUndecided(f"membership search budget exhausted for {x}")
                g, pairs = gens[idx]
                if idx < last:
                    top = min(sum(map(operator.mul, a, rem)) // ag for a, ag in pairs)
                    stack.append((state, iter(range(top, -1, -1))))
                else:
                    a, ag = pairs[0]
                    c, r = divmod(sum(map(operator.mul, a, rem)), ag)
                    if not (r or any(residue([u - c * v for u, v in zip(rem, g)]))):
                        return True
                    dead.add(state)
        if not stack:
            return False
        parent, coefficients = stack[-1]
        c = next(coefficients, None)
        if c is None:
            stack.pop()
            dead.add(parent)
            state = None
            continue
        idx, rem = parent
        state = (idx + 1, residue([a - c * b for a, b in zip(rem, gens[idx][0])]))


# ---------------------------------------------------------------------------
# face atlas


@dataclass(frozen=True)
class FaceData:
    face_id: int
    dim: int
    cone: Cone
    lattice: Lattice
    torsion: tuple[int, ...]
    cone_local: Cone
    dual_cone_local: Cone
    member_generators: Optional[tuple[IntVector, ...]]
    tight_set: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.lattice.rank


@dataclass(frozen=True)
class SpectrumAtlas:
    spec: SemigroupSpec
    ambient_cone: Cone
    faces: tuple[FaceData, ...]
    covers: tuple[tuple[int, int], ...]
    antisymmetric: bool
    separating: bool
    interior_member: IntVector

    @property
    def minimal_id(self) -> int:
        """The least face, the meet of all faces."""
        return self.meet_of(range(len(self.faces)))

    @cached_property
    def order(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The face order as two bitmask tables, bit i standing for face i:
        ``down[j]`` holds the faces below face j and ``up[j]`` the faces
        above it, both including face j.  The order is the reflexive and
        transitive closure of its Hasse diagram ``covers`` (Kaibel & Pfetsch
        2002).  Ids run by decreasing dimension, so every cover ``(a, b)``
        has ``a < b`` and the sorted covers close in one pass each: from the
        last cover the down-sets, from the first the up-sets.  Built once per
        atlas; every order query is a lookup in these tables."""
        down = [1 << j for j in range(len(self.faces))]
        up = down.copy()
        for a, b in reversed(self.covers):
            down[a] |= down[b]
        for a, b in self.covers:
            up[b] |= up[a]
        return tuple(down), tuple(up)

    @cached_property
    def _restrictions(self) -> dict:
        """The character algebra's tables, filled on first query by
        :mod:`~toric_spectrum.characters`: restriction matrices by
        ``(sub_face, face)``, at most one entry per pair of faces, and by a
        base face id the relative interior points of the faces below it, at
        most one entry per face."""
        return {}

    def face(self, face_id: int) -> FaceData:
        """The face with this id; ValueError for an id outside the atlas."""
        if not 0 <= face_id < len(self.faces):
            raise ValueError(f"unknown face {face_id}")
        return self.faces[face_id]

    def _bound(self, side: int, face_ids) -> int:
        masks, mask = self.order[side], -1
        for j in face_ids:
            # the check of face() inline: a meet is one lookup, and a call
            # per id would double its cost
            if not 0 <= j < len(masks):
                raise ValueError(f"unknown face {j}")
            mask &= masks[j]
        # every cover runs from a lower id to a higher one, so a down-set's
        # face is its lowest bit and an up-set's face its highest
        face = (mask & -mask if side == 0 else mask).bit_length() - 1
        if mask <= 0 or masks[face] != mask:
            raise InvariantViolation(f"face {('meet', 'join')[side]} does not exist")
        return face

    def meet_of(self, face_ids) -> int:
        """Largest face below every one of the given faces, one or more: the
        face whose down-set is the intersection of theirs."""
        return self._bound(0, face_ids)

    def join_of(self, face_ids) -> int:
        """Smallest face above every one of the given faces, one or more: the
        face whose up-set is the intersection of theirs."""
        return self._bound(1, face_ids)

    def leq(self, j: int, k: int) -> bool:
        """Face order: j <= k iff the j-th face is contained in the k-th."""
        return self.order[1][j] >> k & 1 == 1

    # perfbench/tracing.py wraps meet and join by name; join has no caller in the
    # package, and its prune waits on the harness (ROADMAP)
    def meet(self, j: int, k: int) -> int:
        return self._bound(0, (j, k))

    def join(self, j: int, k: int) -> int:
        return self._bound(1, (j, k))


def _projected(projected: dict, steps: dict, face: int, i: int) -> IntVector:
    """Cone inequality i projected onto the span of a face, memoised in
    ``projected`` by ``(face, i)``: the rank-one step of the face,
    ``steps[face]``, applied to the entry of its first cover.  Each call
    climbs one cover, so the depth is at most the cone's dimension less its
    lineality's."""
    if (face, i) not in projected:
        up, step = steps[face]
        projected[face, i] = _reduce(_projected(projected, steps, up, i), step)
    return projected[face, i]


def _generator_faces(base: Generators, ambient: Cone, depth: int):
    """Faces of a generated semigroup, read off the face lattice of its
    asymptotic cone ``ambient``, below ``depth`` half spaces.

    A lattice face keeps the cone's rays in its ray set and the cone's
    lineality.  Its facets are the faces it covers, and a cone inequality
    tight on a facet but not on the face is, projected onto the face's span,
    the normal of that facet.  The member generators are those on which the
    tight inequalities vanish: those whose mask of vanishing inequalities,
    found once per atlas, holds the face's tight set.  The members span the
    face, so one triangulation of their lattice basis gives its equations
    and its torsion (:func:`~toric_spectrum.intlinalg.kernel_and_torsion`).

    A facet normal is the projection of a cone inequality onto the face's
    span, computed the first time it is read and memoised
    (:func:`_projected`), so only the projections some face reads are ever
    made.  The sorted covers are walked once, before the faces: each reads
    the normal of its smaller face in its larger one, and a face's first
    cover also gives its step.  Face 0 is ``ambient`` itself and its
    projections are the cone's inequalities; it holds every generator, so
    its equations are the cone's and its torsion needs the triangulation of
    its basis's transpose alone
    (:func:`~toric_spectrum.intlinalg.basis_torsion`), with no kernel.  A
    face F projects from the face G of its first cover: with b the
    projection onto span G of an inequality tight on F but not on G, span F
    is span G cut by b^perp, so ``(b.b) x - (x.b) b`` is a positive
    multiple of the projection onto span F of G's projection x (one
    rank-one Gram-Schmidt step, :func:`~toric_spectrum.cones._reduce`) and
    its primitive vector is the canonical normal.  The lattice order is the
    atlas order, so a face's id is its lattice id plus ``depth``, and every
    cover comes before the faces it covers.  Inside a tower every face's
    tight set is ``(0,)``: the level-0 normal vanishes on it.
    Returns the faces and the lattice's covers, both offset by ``depth``.
    """
    n = base.ambient_rank
    lattice = face_lattice(ambient)
    handles = lattice.faces
    vanishing = [sum(1 << i for i, a in enumerate(ambient.inequalities) if dot(a, g) == 0)
                 for g in base.generators]
    tights = [sum(1 << i for i in handle.tight_set) for handle in handles]

    def dropped(f: int, g: int) -> int:  # an inequality tight on face f but not on face g
        extra = tights[f] & ~tights[g]
        return (extra & -extra).bit_length() - 1

    projected = {(0, i): a for i, a in enumerate(ambient.inequalities)}
    normals: list[set[IntVector]] = [set() for _ in handles]
    steps: dict[int, tuple] = {}
    for larger, smaller in lattice.covers:  # sorted, so every face above has its step
        b = _projected(projected, steps, larger, dropped(smaller, larger))
        normals[larger].add(b)
        steps.setdefault(smaller, (larger, ((b, dot(b, b)),)))
    faces = []
    for handle, ray_set, tight in zip(handles, lattice.ray_sets, tights):
        members = tuple(g for g, mask in zip(base.generators, vanishing) if mask & tight == tight)
        span = hnf(members, n)
        cone = ambient
        if not handle.id:  # face 0 holds every generator: its equations are the cone's
            torsion = basis_torsion(span.basis)
        else:
            equations, torsion = kernel_and_torsion(span.basis, n)
            cone = Cone(n, tuple(ambient.rays[j] for j in ray_set),
                        tuple(sorted(normals[handle.id])), ambient.lineality, equations.basis)
        faces.append(FaceData(depth + handle.id, handle.dim, cone, span, torsion,
                              *_finalize_face(cone, span, handle.dim), members,
                              (0,) if depth else handle.tight_set))
    return faces, [(depth + a, depth + b) for a, b in lattice.covers]


@lru_cache(maxsize=CACHE_SIZE)
def _flatten(spec: SemigroupSpec):
    """A spec as its half spaces, one per tower level, plus its innermost
    generators, all in Z^n.

    Level k's span is the image of its embedding E, the product of the
    boundary bases above it (the identity at the top).  Its lineality is the
    image of the next level's embedding ``B E``, B the level's boundary
    basis; its single ray, which is also its single inequality, is
    ``E^T normal`` taken modulo that lineality.  The flag is walked in one
    pass, with a right inverse D of the embedding (``E D = I``, the
    identity at the top) in place of a kernel per level.  ``v = D normal``
    lies in the kernel of ``B E``, as B kills the normal, and pairs with
    ``E^T normal`` to ``|normal|^2``, which is checked.  Any x in that
    kernel is ``x - D E x`` in the kernel of E plus ``D E x``, a multiple
    of v, since ``E x`` is killed by B and the normal is primitive.  So the
    next level's equations are ``hnf`` of this level's and v, and its
    inverse is ``D C``, C the right inverse of B that the closed form of
    the normal's kernel gives with B
    (:func:`~toric_spectrum.intlinalg._one_row_kernel`); a level's
    lineality, ``hnf`` of the next embedding, is the next level's lattice.
    The rays of the levels above are pairwise orthogonal, span this level's
    equations and are orthogonal to ``E^T normal``, so the ray is v after
    one rank-one Gram-Schmidt step ``(r.r) v - (v.r) r`` per ray r above
    (:func:`~toric_spectrum.cones._reduce`): on the line of the ray and
    positive on ``E^T normal``; no Gram system is solved.  The innermost
    generators are embedded once, into a :class:`Generators` spec of rank
    n, and their asymptotic cone is the one double description of the
    spec, shared by its atlas, its membership data and, for a generated
    spec, :func:`asymptotic_cone`.  When they span their own rank, their
    span is the last level's lattice and its equations the last level's, so
    the cone is converted on those
    (:func:`~toric_spectrum.cones._cone_in_span`); otherwise by
    :func:`~toric_spectrum.cones.cone_from_rays`.  A generated spec is a
    tower of depth zero: no level, no embedding and no inverse, its
    generators the base as given, the lattice Z^n and the equations none,
    and a spec whose generators span Z^n is converted on Z^n.  Returns
    ``(half spaces, base, base cone)``, each half space a ``(cone,
    lattice)`` pair; the last :data:`~toric_spectrum.cones.CACHE_SIZE`
    specs are kept.
    """
    n = spec.ambient_rank
    half_spaces, rays = [], []
    lattice, equations = full_lattice(n), ()
    embedding = inverse = None  # the identity: the top level's embedding and its inverse
    while isinstance(spec, Tower):
        boundary, columns = _one_row_kernel(spec.normal, spec.ambient_rank)
        inner, direction, v = boundary.basis, spec.normal, spec.normal
        if embedding is not None:
            inner = tuple(embed_point(embedding, b, n) for b in inner)
            direction, v = embed_point(embedding, v, n), embed_point(inverse, v, n)
            if isinstance(spec.inner, Tower):  # the last level's inverse has no reader
                columns = tuple(embed_point(inverse, c, n) for c in columns)
        if dot(v, direction) != dot(spec.normal, spec.normal):
            raise InvariantViolation("the flag's inverse does not invert its embedding")
        lineality, below = hnf(inner, n), hnf(equations + (v,), n).basis
        normal = _reduce(primitive_vector(v), rays)
        rays.append((normal, dot(normal, normal)))
        half_spaces.append((Cone(n, (normal,), (normal,), lineality.basis, equations), lattice))
        embedding, inverse, spec = inner, columns, spec.inner
        lattice, equations = lineality, below
    gens = spec.generators
    if half_spaces:
        gens = tuple(embed_point(embedding, g, n) for g in spec.generators)
    spans = hnf(spec.generators, spec.ambient_rank).rank == spec.ambient_rank
    cone = _cone_in_span(gens, (), equations, lattice) if spans else cone_from_rays(gens, (), n)
    return tuple(half_spaces), Generators(n, gens), cone


def _half_space_local(cone: Cone, lattice: Lattice):
    """Torsion, local cone and dual local cone of a tower level's half
    space, read off the flag.

    The level's lattice L is a direct summand of Z^n (each boundary basis
    with a unit vector of its normal is unimodular), so it has no torsion,
    and the next level, L intersected with the hyperplane of the half
    space's normal v, is saturated in L.  On the basis B of L the half space
    is therefore the half space of the primitive ``a = B v``
    (:func:`_half_space`), the form :func:`asymptotic_cone` writes for a
    :class:`Tower`.
    """
    a = primitive_vector([dot(row, cone.inequalities[0]) for row in lattice.basis])
    cone_local = _half_space(a, lattice.rank)
    return (), cone_local, dual_cone(cone_local)


def _finalize_face(cone: Cone, lattice: Lattice, dim: int):
    """Local cone and dual local cone of a generated face
    (:func:`_generator_faces`); a tower's half spaces read theirs off the
    flag (:func:`_half_space_local`).

    The face lattice spans the face, so on the lattice basis B the cone is
    full dimensional: its facet normals are ``B a`` for the face's normals
    ``a``, and no double description runs.  Its lineality is the integer
    kernel of those normals, as for every cone of the package, saturated
    and in HNF, and none when the face cone has none.  Rays and lineality
    are written on B by one back-substitution on its HNF pivots, which
    checks that they lie in its span; the rays' coordinates are taken
    modulo the lineality and made primitive by
    :func:`~toric_spectrum.cones._project`.
    """
    if lattice.rank != dim:
        raise InvariantViolation("face lattice does not span its cone")
    basis = lattice.basis
    solved = hnf_coordinates(basis, cone.lineality + cone.rays)
    if solved is None:
        raise InvariantViolation("face cone leaves the span of its lattice")
    inequalities = tuple(sorted({primitive_vector([dot(b, a) for b in basis])
                                 for a in cone.inequalities}))
    lineality = int_kernel(inequalities, dim).basis if cone.lineality else ()
    rays = tuple(sorted(_project([y for y, _ in solved[len(cone.lineality):]], lineality)))
    cone_local = Cone(dim, rays, inequalities, lineality, ())
    return cone_local, dual_cone(cone_local)


def _interior_member(spec: SemigroupSpec) -> IntVector:
    """A semigroup member in the relative interior of the asymptotic cone.
    A tower's normal has height |normal|^2 > 0, so it lies in the open half
    space."""
    if isinstance(spec, Tower):
        return spec.normal
    return tuple(map(sum, zip((0,) * spec.ambient_rank, *spec.generators)))


def enumerate_faces(spec: SemigroupSpec) -> SpectrumAtlas:
    """Complete face atlas of the semigroup.

    Faces are exactly the subsemigroups whose complement is an ideal.  For a
    generated semigroup they correspond one-to-one with the closed faces of
    the asymptotic cone, so the atlas comes from one double description (the
    asymptotic cone) and one :func:`face_lattice`: every face cone, its
    lattice and its local cone are read off that lattice, and the covers
    are its covers; the order is their closure (:attr:`SpectrumAtlas.order`).
    A tower contributes one half space per level above the faces of its
    innermost generators embedded into Z^n (:func:`_flatten`), and each
    half space covers the next level, the last one the whole base.  Face 0
    is the whole semigroup.  Ids run by decreasing dimension, then by ray
    set: the half spaces in level order, then the face lattice's own order
    (:func:`face_lattice`), so no face is sorted or renumbered here.  A
    tight set indexes the inequalities of face 0's cone; a tower's level-0
    normal vanishes on every face but the first.
    """
    n = spec.ambient_rank
    half_spaces, base, ambient = _flatten(spec)
    depth = len(half_spaces)
    faces = [FaceData(level, lattice.rank, cone, lattice, *_half_space_local(cone, lattice),
                      None, (0,) if level else ())
             for level, (cone, lattice) in enumerate(half_spaces)]
    base_faces, base_covers = _generator_faces(base, ambient, depth)
    faces += base_faces
    covers = tuple([(level, level + 1) for level in range(depth)] + base_covers)
    # ids run by decreasing dimension, so a least face, the group of units
    # S intersect (-S), is the last one; S generates Z^n iff the lattice of
    # face 0, the whole semigroup, is Z^n
    separating = faces[0].rank == n and not faces[0].torsion
    atlas = SpectrumAtlas(spec, faces[0].cone, tuple(faces), covers, faces[-1].dim == 0,
                          separating, _interior_member(spec))
    if atlas.minimal_id != len(faces) - 1 or atlas.join_of(range(len(faces))) != 0:
        raise InvariantViolation("face order is not bounded")
    return atlas


def hull_contains(atlas: SpectrumAtlas, x: Sequence[int]) -> bool:
    """Membership in the hull, the largest semigroup with the same atlas:
    true iff some face has x in the relative interior of its cone and in its
    lattice.  Non-integer coordinates are rejected (TypeError)."""
    x = tuple(map(operator.index, x))
    return any(face.cone.relative_interior_contains(x)
               and lattice_contains(face.lattice, x)
               for face in atlas.faces)


def zero_face(atlas: SpectrumAtlas) -> Optional[int]:
    """Face whose idempotent is the zero element, if one exists."""
    j = atlas.minimal_id
    return j if atlas.faces[j].rank == 0 else None


def validate_atlas(atlas: SpectrumAtlas) -> list[str]:
    """Check the structural conditions every atlas must satisfy.

    Face ids must run by decreasing dimension, which the chain of rays
    relies on; the covers must be sorted, each from a face to a later one of
    smaller dimension, which the closure of the order relies on; every face
    cone must be generated by its own lattice points.  At each cover (k, j),
    face j inside face k, the dimension must drop, j's cone must lie in a
    proper face of k's cone (inside it, on an inequality of it) and j's
    lattice in k's.  Every lattice basis must be in Hermite normal form, as
    :class:`~toric_spectrum.intlinalg.Lattice` promises; the lattice checks
    read each face's own HNF of its basis, so a basis that is not in HNF is
    reported as that and not as a lattice that fails to nest.

    The order is checked at its covers alone, one cover at a time.  Any
    comparable pair j < k is joined by a chain of covers, along which cones,
    lattices and dimensions nest; an inequality of the top cone that
    vanishes on the second face vanishes on every face below it.  So every
    comparable pair passes when every cover does.  Returns human readable
    violations (expected: none).
    """
    problems = []
    faces = atlas.faces
    bases = [hnf(f.lattice.basis, f.lattice.ambient_rank).basis for f in faces]
    if any(a.dim < b.dim for a, b in zip(faces, faces[1:])):
        problems.append("face ids do not run by decreasing dimension")
    if list(atlas.covers) != sorted(atlas.covers):
        problems.append("covers are not sorted")
    for k, j in atlas.covers:
        in_range = 0 <= k < j < len(faces)
        if not (in_range and faces[k].dim > faces[j].dim):
            problems.append(f"cover ({k}, {j}) does not run to a later, smaller face")
        if not in_range:
            continue
        outer, inner = faces[k], faces[j]
        if inner.dim >= outer.dim:
            problems.append(f"face {j} < face {k} but its dimension does not drop")
        vecs = inner.cone.rays + inner.cone.lineality
        if not (cone_contains_cone(inner.cone, outer.cone) and any(
                all(dot(a, v) == 0 for v in vecs) for a in outer.cone.inequalities)):
            problems.append(f"face {j} < face {k} but its cone lies in no proper face")
        solved = hnf_coordinates(bases[k], bases[j])
        if solved is None or any(d != 1 for _, d in solved):
            problems.append(f"lattice of face {j} is not contained in lattice of face {k}")
    for j, (face, basis) in enumerate(zip(faces, bases)):
        if basis != face.lattice.basis:
            problems.append(f"face {j}: lattice basis is not in Hermite normal form")
        if hnf_coordinates(basis, face.cone.lineality + face.cone.rays) is None:
            problems.append(f"face {j}: cone leaves the span of its lattice")
    return problems


def members_in_box(spec: SemigroupSpec, radius: int) -> list[IntVector]:
    """All semigroup members with coordinates in [-radius, radius]."""
    return [tuple(raw) for raw in product(range(-radius, radius + 1),
                                          repeat=spec.ambient_rank)
            if contains(spec, raw)]


def face_members_in_box(atlas: SpectrumAtlas, radius: int) -> list[frozenset]:
    """Every face restricted to the box, as point sets (atlas face order)."""
    members = members_in_box(atlas.spec, radius)
    return [frozenset(x for x in members if face.cone.contains(x))
            for face in atlas.faces]
