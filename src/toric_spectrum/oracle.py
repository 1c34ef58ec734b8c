"""Brute-force oracles for acceptance and property testing.

Everything here recomputes answers from first principles: membership by
breadth-first closure over a widened window (a sum of small vectors can be
reordered so that every partial sum stays within the target norm plus
``dimension * max step``), faces by cutting with hyperplanes spanned by
generator subsets and checking the defining subsemigroup/ideal conditions
extensionally, and cone representations by exhaustive lattice scans against
the same supporting hyperplanes of the generator side.  The only shared
vocabulary with the main modules is the plain tuple-of-ints vector type and
the public dataclasses being validated; all linear algebra is reimplemented
locally, nothing is imported from ``intlinalg``.  It has one Gauss-Jordan
elimination over ``Fraction`` (``_orref``), from which rank, nullspaces and
each tower level's height functional are read; one Euclid HNF for lattices
(``_ohnf``), which also gives the kernel of a tower normal from its Koszul
generators (``_okernel_lattice``); and one enumeration of supporting
hyperplanes (``_supporting``) for the face check and the cross-check.  The references that only the tests
use, a solve on ``_orref`` and a cofactor determinant, are kept with the
tests (``tests/helpers.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from typing import Sequence

from .characters import evaluate, make_character, multiply
from .cones import Cone
from .semigroups import SemigroupSpec, SpectrumAtlas, Tower


# Points a box, or the membership closure of a box, may hold.  The closure's
# window is the box widened by n times the largest generator entry, so a
# generator far outside the box would make it astronomically large; past this
# count the oracle stops with OracleBudgetExceeded.
MAX_ORACLE_POINTS = 10**6

# Candidate face sets times box members squared that the pair check of
# brute_force_faces may cost; each candidate tests up to two passes over
# pairs of members.  The largest product over the test suite, the
# benchmark's smoke test and the CI steps is 5.65M.
MAX_ORACLE_PAIRS = 10**7

# Generator subsets one enumeration of supporting hyperplanes may try: the
# C(m, d - 1 - l) subsets of m generators that, with a lineality of rank l,
# may span a facet of a cone of dimension d.  One subset costs about 0.3 ms
# in rank 4 and 0.5 ms in rank 5, so an enumeration at the cap takes 1.5 to
# 2.5 s.  Apart from the 57 generators of rank 4 that test the refusal, the
# largest count over the test suite, the benchmark's smoke test and the CI
# steps is 2,024, for a rank-4 cone of 24 rays; the next is 15.
MAX_ORACLE_SUBSETS = 5000


class OracleBudgetExceeded(RuntimeError):
    """A brute-force oracle outgrew ``MAX_ORACLE_POINTS``,
    ``MAX_ORACLE_PAIRS`` or ``MAX_ORACLE_SUBSETS``."""


@dataclass(frozen=True)
class BoxSpec:
    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("box radius must be at least 1")


# ---------------------------------------------------------------------------
# local exact linear algebra (deliberately separate from intlinalg)


def _odot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _oprimitive(vec) -> tuple[int, ...]:
    fracs = [Fraction(a) for a in vec]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints) or 1
    return tuple(a // g for a in ints)


def _orref(rows, width):
    """Reduced row echelon form over the rationals by Gauss-Jordan: the
    nonzero reduced rows, each with pivot 1 and every other entry of its
    pivot column 0, and their pivot columns in increasing order."""
    work = [[Fraction(a) for a in r] for r in rows if any(r)]
    pivots = []
    for j in range(width):
        if len(pivots) == len(work):
            break
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        row = work[piv]
        work[piv], work[r] = work[r], [a / row[j] for a in row]
        for i in range(len(work)):
            if i != r and work[i][j] != 0:
                f = work[i][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(j)
    return work[:len(pivots)], pivots


def _orank(rows) -> int:
    return len(_orref(rows, len(rows[0]) if rows else 0)[1])


def _onullspace(rows, n) -> list[tuple[int, ...]]:
    """Primitive integer basis of {w : <row, w> = 0 for all rows}."""
    reduced, pivots = _orref(rows, n)
    basis = []
    for j in (j for j in range(n) if j not in pivots):
        vec = [Fraction(int(t == j)) for t in range(n)]
        for row, p in zip(reduced, pivots):
            vec[p] = -row[j]
        basis.append(_oprimitive(vec))
    return basis


def _ohnf(rows, n) -> list[tuple[int, ...]]:
    mat = [list(r) for r in rows]
    r = 0
    for j in range(n):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][j]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, len(mat)):
                if mat[i][j] != 0:
                    q = mat[i][j] // mat[r][j]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        if r < len(mat) and mat[r][j] != 0:
            if mat[r][j] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][j] // mat[r][j]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return [tuple(row) for row in mat[:r]]


def _okernel_lattice(v, n) -> list[tuple[int, ...]]:
    """HNF basis of the integer kernel {x in Z^n : <v, x> = 0} of one
    primitive row v.  The Koszul complex of a unimodular row is exact
    (Eisenbud, *Commutative Algebra*, 1995, ch. 17), so the vectors
    ``v_j e_i - v_i e_j`` for i < j generate that kernel, and their HNF is
    its basis."""
    return _ohnf([tuple(v[j] if t == i else -v[i] if t == j else 0 for t in range(n))
                  for i, j in combinations(range(n), 2)], n)


# ---------------------------------------------------------------------------
# spec views in ambient coordinates


def _embed(basis_rows, y):
    n = len(basis_rows[0]) if basis_rows else 0
    out = [0] * n
    for c, row in zip(y, basis_rows):
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def _view(spec: SemigroupSpec):
    """A spec in ambient coordinates: one height functional per tower level,
    then the innermost generators embedded into Z^n, each once and zero
    dropped.

    Level k's lattice has the basis B, the boundary bases above it embedded
    (the identity at the top), and its inner spec reads coordinates c on B.
    A point x = B^T c has height <normal, c> = <w, x> for any w with B w =
    normal, so each level solves that system once and keeps the primitive w,
    a positive multiple, which reads every height with its sign.  Raises
    AssertionError when the w found does not reproduce the normal on B.
    """
    n = spec.ambient_rank
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    functionals = []
    while isinstance(spec, Tower):
        reduced, pivots = _orref([b + (a,) for b, a in zip(basis, spec.normal)], n + 1)
        # a pivot in the last column would mean no solution: it is dropped,
        # and the check below raises
        w = [Fraction(0)] * (n + 1)
        for row, p in zip(reduced, pivots):
            w[p] = row[n]
        w = _oprimitive(w[:n])
        if _oprimitive([_odot(b, w) for b in basis]) != spec.normal:
            raise AssertionError("a tower level's functional misses its normal")
        functionals.append(w)
        basis = [_embed(basis, row) for row in _okernel_lattice(spec.normal, spec.ambient_rank)]
        spec = spec.inner
    embedded = (_embed(basis, g) for g in spec.generators)
    return tuple(functionals), tuple(dict.fromkeys(g for g in embedded if any(g)))


def _reachable(gens, window: int, n: int) -> set:
    """All sums of the generators whose greedy partial sums stay inside the
    window; by the rearrangement bound this covers every semigroup member of
    sup-norm at most ``window - n * max_step``.  The generators must be
    nonzero.  Raises OracleBudgetExceeded rather than hold more than
    ``MAX_ORACLE_POINTS``, before the walk when the multiples of one
    generator in the window already outnumber it."""
    exceeded = OracleBudgetExceeded(f"the membership closure exceeds {MAX_ORACLE_POINTS} "
                                    f"points in a window of radius {window}")
    # the multiples of a generator inside the window are all in the closure
    if any(1 + window // max(map(abs, g)) > MAX_ORACLE_POINTS for g in gens):
        raise exceeded
    start = tuple([0] * n)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(a + b for a, b in zip(x, g))
                if y not in seen and all(abs(c) <= window for c in y):
                    if len(seen) == MAX_ORACLE_POINTS:
                        raise exceeded
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _view_members(view, domain: frozenset) -> frozenset:
    functionals, gens = view
    above = set()
    for w in functionals:
        above.update(x for x in domain if _odot(w, x) > 0)
        domain = frozenset(x for x in domain if _odot(w, x) == 0)
    if not gens:
        return frozenset(above.union(x for x in domain if not any(x)))
    n = len(gens[0])
    bound = max((max(abs(c) for c in x) for x in domain), default=0)
    step = max(max(abs(c) for c in g) for g in gens)
    reach = _reachable(gens, bound + n * step, n)
    return frozenset(above.union(x for x in domain if x in reach))


def _domain(spec: SemigroupSpec, box: BoxSpec) -> frozenset:
    """The points of the box, refused before they are built when there are
    more than ``MAX_ORACLE_POINTS``."""
    if (2 * box.radius + 1) ** spec.ambient_rank > MAX_ORACLE_POINTS:
        raise OracleBudgetExceeded(f"the box of radius {box.radius} in rank "
                                   f"{spec.ambient_rank} exceeds {MAX_ORACLE_POINTS} points")
    return frozenset(product(range(-box.radius, box.radius + 1), repeat=spec.ambient_rank))


def oracle_members(spec: SemigroupSpec, box: BoxSpec) -> frozenset:
    """Box-restricted membership recomputed from the raw description."""
    return _view_members(_view(spec), _domain(spec, box))


# ---------------------------------------------------------------------------
# face enumeration


def _supporting(gens, n: int, lineality=()):
    """The equations of the span of the generators and the lineality rows,
    and the normals of their cone's facets, each oriented >= 0 on every
    generator.  A facet of a cone of dimension d is spanned by its lineality,
    of rank l, and d - 1 - l generators (Minkowski-Weyl), so the normals are
    the hyperplanes of the span that such a subset spans and that support
    every generator.  Raises OracleBudgetExceeded before trying any subset
    when there are more than ``MAX_ORACLE_SUBSETS``."""
    equations = _onullspace(list(gens) + list(lineality), n)
    d = n - len(equations)
    # a linear space tries the empty subset, which spans no hyperplane
    size = max(d - 1 - _orank(lineality), 0)
    count = comb(len(gens), size)
    if count > MAX_ORACLE_SUBSETS:
        raise OracleBudgetExceeded(f"the supporting hyperplanes of {len(gens)} generators in "
                                   f"rank {d} need {count} subsets, over {MAX_ORACLE_SUBSETS}")
    normals = set()
    for u in combinations(gens, size):
        space = _onullspace(list(lineality) + list(u) + equations, n)
        if len(space) != 1:
            continue
        w = space[0]
        for signed in (w, tuple(-a for a in w)):
            if all(_odot(signed, g) >= 0 for g in gens):
                normals.add(signed)
    return equations, normals


def _view_face_sets(functionals, normals, points: frozenset) -> set:
    """The candidate faces: each tower level's points, then the closure of
    the base members under the cut by one facet normal.  Every face of a
    cone is the intersection of the facets that hold it (Ziegler,
    *Lectures on Polytopes*, Thm 2.7), so the cuts are exactly the box
    restrictions of the base faces."""
    out = set()
    for w in functionals:
        out.add(points)
        points = frozenset(x for x in points if _odot(w, x) == 0)
    # the cuts keep a set of their own: base points equal to a level's are
    # still cut
    cuts, todo = {points}, [points]
    while todo:
        face = todo.pop()
        for w in normals:
            cut = frozenset(x for x in face if _odot(w, x) == 0)
            if cut not in cuts:
                cuts.add(cut)
                todo.append(cut)
    return out | cuts


def _face_conditions_hold(candidate: frozenset, members: frozenset, domain: frozenset,
                          shift: int) -> bool:
    """The defining test: a face is a subsemigroup whose complement is an
    ideal, checked on every pair that stays inside the domain.  The points
    are integer codes, and ``a + b - shift`` is the code of the sum of the
    points coded a and b; ``shift`` is the code of zero."""
    if shift not in candidate:
        return False
    holes = domain - candidate
    return (all(holes.isdisjoint(map((a - shift).__add__, candidate)) for a in candidate)
            and all(candidate.isdisjoint(map((a - shift).__add__, members))
                    for a in members - candidate))


def brute_force_faces(spec: SemigroupSpec, box: BoxSpec) -> set:
    """All box restrictions of faces, recomputed extensionally.

    One enumeration by ``_supporting`` finds the facet normals of the base
    generators' cone; the candidate subsets are each tower level's members
    and the cuts of the base members by those normals, and each one must
    pass the subsemigroup plus complement-ideal test inside the box before
    being reported.  Raises OracleBudgetExceeded when the generator subsets
    exceed ``MAX_ORACLE_SUBSETS``, which is met before the membership
    closure is walked, and before the test when the candidates times the
    members squared exceed ``MAX_ORACLE_PAIRS``.

    The test runs on integer codes: the point x of the box of radius r has
    the code sum((x_i + r) * (4r + 1)**i).  The sum of two codes less the
    code of zero has the digits x_i + y_i + r of x + y, all in [-r, 3r], a
    window of 4r + 1 values with no carry, so it is the code of x + y, and
    it lies among the box's codes exactly when x + y lies in the box.
    """
    domain = _domain(spec, box)
    functionals, gens = view = _view(spec)
    normals = _supporting(gens, spec.ambient_rank)[1]
    members = _view_members(view, domain)
    sets = _view_face_sets(functionals, normals, members)
    if len(sets) * len(members) ** 2 > MAX_ORACLE_PAIRS:
        raise OracleBudgetExceeded(f"the pair check of {len(sets)} candidate faces over "
                                   f"{len(members)} box members exceeds {MAX_ORACLE_PAIRS} "
                                   "pair tests")
    r = box.radius
    code = {x: sum((a + r) * (4 * r + 1) ** i for i, a in enumerate(x)) for x in domain}
    coded = lambda points: frozenset(map(code.__getitem__, points))
    shift, domain, members = code[(0,) * spec.ambient_rank], coded(domain), coded(members)
    return {P for P in sets if _face_conditions_hold(coded(P), members, domain, shift)}


# ---------------------------------------------------------------------------
# double description cross-check


def _membership_tester(rays, lineality, n):
    """Exact test for ``x in cone(rays) + span(lineality)``: x satisfies the
    equations of the span and lies on the nonnegative side of every facet
    normal from ``_supporting``.  The lineality is held fixed, so the
    enumeration tries C(r, d - 1 - l) subsets of the r rays, and refuses
    them past ``MAX_ORACLE_SUBSETS``."""
    equations, normals = _supporting(rays, n, lineality)
    return lambda x: (not any(_odot(e, x) for e in equations)
                      and all(_odot(w, x) >= 0 for w in normals))


@dataclass(frozen=True)
class CrossCheckReport:
    points_checked: int
    mismatches: tuple


def dd_cross_check(cone: Cone, box: BoxSpec) -> CrossCheckReport:
    """Scan every lattice point of the box and compare membership computed
    from the inequality side against the generator side."""
    mismatches = []
    count = 0
    by_v = _membership_tester(cone.rays, cone.lineality, cone.ambient_rank)
    for raw in product(range(-box.radius, box.radius + 1), repeat=cone.ambient_rank):
        count += 1
        by_h = cone.contains(raw)
        if by_h != by_v(raw):
            mismatches.append((raw, by_h, not by_h))
    return CrossCheckReport(count, tuple(mismatches))


# ---------------------------------------------------------------------------
# numeric cross-check of the character algebra


def random_character(atlas: SpectrumAtlas, rng: random.Random):
    face_id = rng.randrange(len(atlas.faces))
    face = atlas.faces[face_id]
    theta = [Fraction(rng.randrange(0, 24), 24) for _ in range(face.rank)]
    lam = [Fraction(0)] * face.rank
    for ray in face.dual_cone_local.rays:
        c = Fraction(rng.randrange(0, 7), 3)
        lam = [a + c * b for a, b in zip(lam, ray)]
    return make_character(atlas, face_id, theta, lam)


def numeric_homomorphism_check(atlas: SpectrumAtlas, members: Sequence,
                               trials: int, seed: int) -> float:
    """Max float deviation of evaluate(a*b, x) from evaluate(a, x) *
    evaluate(b, x) over seeded random triples."""
    rng = random.Random(seed)
    worst = 0.0
    members = list(members)
    for _ in range(trials):
        a = random_character(atlas, rng)
        b = random_character(atlas, rng)
        x = members[rng.randrange(len(members))]
        lhs = evaluate(atlas, multiply(atlas, a, b), x).to_complex()
        rhs = evaluate(atlas, a, x).to_complex() * evaluate(atlas, b, x).to_complex()
        worst = max(worst, abs(lhs - rhs))
    return worst
