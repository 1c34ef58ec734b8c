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
solves are read; one Euclid HNF for lattices (``_ohnf``); one enumeration of
supporting hyperplanes (``_supporting``) for the face check and the
cross-check; and cofactor determinants (``_det``), kept as a reference for
the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from typing import Optional, Sequence

from .characters import evaluate, make_character, multiply
from .cones import Cone
from .semigroups import Generators, SemigroupSpec, SpectrumAtlas


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
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
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


def _osolve(basis_rows, x) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c with sum(c_i * basis_i) = x, basis rows independent;
    None when x leaves their span."""
    k = len(basis_rows)
    reduced, pivots = _orref([[b[j] for b in basis_rows] + [a] for j, a in enumerate(x)],
                             k + 1)
    if pivots != list(range(k)):
        return None
    return tuple(row[k] for row in reduced)


def _det(mat) -> int:
    """Cofactor determinant, a reference for the tests."""
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


def _okernel_lattice(rows, n) -> list[tuple[int, ...]]:
    """HNF basis of the integer kernel {x in Z^n : <row, x> = 0}."""
    m = len(rows)
    aug = [tuple(rows[i][j] for i in range(m)) + tuple(1 if t == j else 0 for t in range(n))
           for j in range(n)]
    reduced = _ohnf(aug, m + n)
    return _ohnf([row[m:] for row in reduced if all(a == 0 for a in row[:m])], n)


# ---------------------------------------------------------------------------
# spec views in ambient coordinates


def _embed(basis_rows, y):
    n = len(basis_rows[0]) if basis_rows else 0
    out = [0] * n
    for c, row in zip(y, basis_rows):
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def _view(spec: SemigroupSpec, basis_rows):
    if isinstance(spec, Generators):
        return ("gens", tuple(_embed(basis_rows, g) for g in spec.generators))
    sub_local = _okernel_lattice([spec.normal], spec.ambient_rank)
    sub_ambient = tuple(_embed(basis_rows, row) for row in sub_local)
    return ("tower", tuple(basis_rows), spec.normal, _view(spec.inner, sub_ambient))


def _top_view(spec: SemigroupSpec):
    n = spec.ambient_rank
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return _view(spec, identity)


def _height(view, x) -> int:
    _, basis_rows, normal, _ = view
    coords = _osolve(basis_rows, x)
    if coords is None or any(c.denominator != 1 for c in coords):
        raise AssertionError("tower point leaves its level lattice")
    return int(_odot(normal, [int(c) for c in coords]))


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
    if view[0] == "gens":
        gens = [g for g in view[1] if any(g)]
        if not gens:
            return frozenset(x for x in domain if not any(x))
        n = len(gens[0])
        bound = max((max(abs(c) for c in x) for x in domain), default=0)
        step = max(max(abs(c) for c in g) for g in gens)
        reach = _reachable(gens, bound + n * step, n)
        return frozenset(x for x in domain if x in reach)
    boundary = frozenset(x for x in domain if _height(view, x) == 0)
    above = frozenset(x for x in domain if _height(view, x) > 0)
    return above | _view_members(view[3], boundary)


def _domain(spec: SemigroupSpec, box: BoxSpec) -> frozenset:
    """The points of the box, refused before they are built when there are
    more than ``MAX_ORACLE_POINTS``."""
    if (2 * box.radius + 1) ** spec.ambient_rank > MAX_ORACLE_POINTS:
        raise OracleBudgetExceeded(f"the box of radius {box.radius} in rank "
                                   f"{spec.ambient_rank} exceeds {MAX_ORACLE_POINTS} points")
    return frozenset(product(range(-box.radius, box.radius + 1), repeat=spec.ambient_rank))


def oracle_members(spec: SemigroupSpec, box: BoxSpec) -> frozenset:
    """Box-restricted membership recomputed from the raw description."""
    return _view_members(_top_view(spec), _domain(spec, box))


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


def _gen_face_sets(gens, points: frozenset, n: int) -> set:
    out = {points}
    gens = [g for g in dict.fromkeys(gens) if any(g)]
    for w in sorted(_supporting(gens, n)[1]):
        cut = frozenset(x for x in points if _odot(w, x) == 0)
        if cut != points:
            sub_gens = [g for g in gens if _odot(w, g) == 0]
            out |= _gen_face_sets(sub_gens, cut, n)
    return out


def _view_face_sets(view, points: frozenset, n: int) -> set:
    if view[0] == "gens":
        return _gen_face_sets(list(view[1]), points, n)
    boundary = frozenset(x for x in points if _height(view, x) == 0)
    return {points} | _view_face_sets(view[3], boundary, n)


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

    Candidate subsets come from the cuts by the supporting hyperplanes that
    ``_supporting`` finds for each face's generators; each one must pass the
    subsemigroup plus complement-ideal test inside the box before being
    reported.  Raises OracleBudgetExceeded when a face's generator subsets
    exceed ``MAX_ORACLE_SUBSETS``, and before that test when the candidates
    times the members squared exceed ``MAX_ORACLE_PAIRS``.

    The test runs on integer codes: the point x of the box of radius r has
    the code sum((x_i + r) * (4r + 1)**i).  The sum of two codes less the
    code of zero has the digits x_i + y_i + r of x + y, all in [-r, 3r], a
    window of 4r + 1 values with no carry, so it is the code of x + y, and
    it lies among the box's codes exactly when x + y lies in the box.
    """
    domain = _domain(spec, box)
    view = _top_view(spec)
    members = _view_members(view, domain)
    sets = _view_face_sets(view, members, spec.ambient_rank)
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
