"""Brute-force oracles for acceptance and property testing.

Everything here recomputes answers from first principles: membership by
breadth-first closure over a widened window (a sum of small vectors can be
reordered so that every partial sum stays within the target norm plus
``dimension * max step``), faces by cutting with hyperplanes spanned by
generator subsets and checking the defining subsemigroup/ideal conditions
extensionally, and cone representations by exhaustive lattice scans against a
simplicial (Caratheodory) decomposition of the generator side.  The only
shared vocabulary with the main modules is the plain tuple-of-ints vector
type and the public dataclasses being validated; all linear algebra is
reimplemented locally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
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


class OracleBudgetExceeded(RuntimeError):
    """A brute-force oracle outgrew ``MAX_ORACLE_POINTS`` or
    ``MAX_ORACLE_PAIRS``."""


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


def _orank(rows) -> int:
    work = [[Fraction(a) for a in r] for r in rows if any(r)]
    n = len(work[0]) if work else 0
    rank = 0
    for j in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][j] != 0:
                f = work[i][j] / work[rank][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


def _onullspace(rows, n) -> list[tuple[int, ...]]:
    """Primitive integer basis of {w : <row, w> = 0 for all rows}."""
    work = [[Fraction(a) for a in r] for r in rows if any(r)]
    pivots = []
    rank = 0
    for j in range(n):
        piv = next((i for i in range(rank, len(work)) if work[i][j] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][j] != 0:
                f = work[i][j] / work[rank][j]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        pivots.append(j)
        rank += 1
        if rank == len(work):
            break
    basis = []
    free = [j for j in range(n) if j not in pivots]
    for j in free:
        vec = [Fraction(0)] * n
        vec[j] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -work[i][j] / work[i][p]
        basis.append(_oprimitive(vec))
    return basis


def _osolve(basis_rows, x) -> Optional[tuple[Fraction, ...]]:
    """Coefficients c with sum(c_i * basis_i) = x, basis rows independent."""
    k = len(basis_rows)
    if k == 0:
        return () if all(a == 0 for a in x) else None
    n = len(basis_rows[0])
    work = [[Fraction(basis_rows[i][j]) for i in range(k)] + [Fraction(x[j])]
            for j in range(n)]
    sol: list[Optional[Fraction]] = [None] * k
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, n) if work[i][col] != 0), None)
        if piv is None:
            return None
        work[row], work[piv] = work[piv], work[row]
        for i in range(n):
            if i != row and work[i][col] != 0:
                f = work[i][col] / work[row][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[row])]
        row += 1
    for i in range(row, n):
        if work[i][k] != 0:
            return None
    for col in range(k):
        r = next(i for i in range(n) if work[i][col] != 0)
        sol[col] = work[r][k] / work[r][col]
    return tuple(sol)  # type: ignore[arg-type]


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


def _gen_face_sets(gens, points: frozenset, n: int) -> set:
    out = {points}
    gens = [g for g in dict.fromkeys(gens) if any(g)]
    if not gens:
        return out
    d = _orank(gens)
    complement = _onullspace(gens, n)
    subsets = combinations(gens, d - 1) if d >= 1 else ()
    candidates = set()
    for u in subsets:
        space = _onullspace(list(u) + complement, n)
        if len(space) != 1:
            continue
        w = space[0]
        for signed in (w, tuple(-a for a in w)):
            if all(_odot(signed, g) >= 0 for g in gens):
                candidates.add(signed)
    for w in sorted(candidates):
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


def _face_conditions_hold(candidate: frozenset, members: frozenset,
                          domain: frozenset) -> bool:
    """The defining test: a face is a subsemigroup whose complement is an
    ideal, checked on every pair that stays inside the domain."""
    zero = tuple([0] * (len(next(iter(domain))) if domain else 0))
    if zero not in candidate:
        return False
    outside = members - candidate
    for x in candidate:
        for y in candidate:
            s = tuple(a + b for a, b in zip(x, y))
            if s in domain and s not in candidate:
                return False
    for x in outside:
        for y in members:
            s = tuple(a + b for a, b in zip(x, y))
            if s in domain and s in candidate:
                return False
    return True


def brute_force_faces(spec: SemigroupSpec, box: BoxSpec) -> set:
    """All box restrictions of faces, recomputed extensionally.

    Candidate subsets come from hyperplane cuts spanned by generator data;
    each one must pass the subsemigroup plus complement-ideal test inside the
    box before being reported.  Raises OracleBudgetExceeded before that test
    when the candidates times the members squared exceed
    ``MAX_ORACLE_PAIRS``.
    """
    domain = _domain(spec, box)
    view = _top_view(spec)
    members = _view_members(view, domain)
    sets = _view_face_sets(view, members, spec.ambient_rank)
    if len(sets) * len(members) ** 2 > MAX_ORACLE_PAIRS:
        raise OracleBudgetExceeded(f"the pair check of {len(sets)} candidate faces over "
                                   f"{len(members)} box members exceeds {MAX_ORACLE_PAIRS} "
                                   "pair tests")
    return {P for P in sets if _face_conditions_hold(P, members, domain)}


# ---------------------------------------------------------------------------
# double description cross-check


def _det(mat) -> int:
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


def _adjugate(mat):
    k = len(mat)
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [row[:i] + row[i + 1:] for r, row in enumerate(mat) if r != j]
            adj[i][j] = (-1) ** (i + j) * _det(minor)
    return adj


def _reduction_matrix(lineality, n):
    """Integer matrix R whose rows are scaled images of the basis vectors
    under Gaussian reduction against the lineality rows; ``x @ R`` is a
    positive multiple of the canonical representative of x modulo the
    lineality span."""
    echelon = []
    for l in lineality:
        vec = [Fraction(a) for a in l]
        for prev, p in echelon:
            if vec[p] != 0:
                f = vec[p] / prev[p]
                vec = [a - f * b for a, b in zip(vec, prev)]
        pivot = next(j for j, a in enumerate(vec) if a != 0)
        echelon.append((vec, pivot))

    def apply(x):
        y = [Fraction(a) for a in x]
        for vec, p in echelon:
            if y[p] != 0:
                f = y[p] / vec[p]
                y = [a - f * b for a, b in zip(y, vec)]
        return y

    images = [apply(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    denom = 1
    for row in images:
        for a in row:
            denom = denom * a.denominator // gcd(denom, a.denominator)
    return [[int(a * denom) for a in row] for row in images]


def _membership_tester(rays, lineality, n):
    """Exact test for ``x in cone(rays) + span(lineality)``.

    Reduces modulo the lineality, then tries every linearly independent
    subset of the reduced rays: a point belongs to the cone iff one such
    simplicial subcone contains it (Caratheodory).  All arithmetic is integer
    via adjugate scaling.
    """
    if lineality:
        reduction = _reduction_matrix(lineality, n)
        red = lambda x: tuple(_odot(x, [row[j] for row in reduction])
                              for j in range(n))
    else:
        red = lambda x: tuple(x)
    red_rays = [r for r in (_oprimitive(red(r)) for r in rays) if any(r)]
    max_size = _orank(red_rays) if red_rays else 0
    subcones = []
    for size in range(1, max_size + 1):
        for subset in combinations(red_rays, size):
            gram = [[_odot(u, v) for v in subset] for u in subset]
            d = _det(gram)
            if d == 0:
                continue
            adj = _adjugate(gram)
            # c * d = x @ rays^T @ adj(G); membership iff c >= 0 and c @ rays == d x
            solve_matrix = [[sum(subset[i][t] * adj[i][j] for i in range(size))
                             for j in range(size)] for t in range(n)]
            subcones.append((subset, solve_matrix, d))

    def test(x) -> bool:
        xr = red(x)
        if not any(xr):
            return True
        for subset, solve_matrix, d in subcones:
            scaled = [_odot(xr, [row[j] for row in solve_matrix])
                      for j in range(len(subset))]
            if d < 0:
                scaled = [-c for c in scaled]
            if any(c < 0 for c in scaled):
                continue
            recon = [0] * n
            for c, r in zip(scaled, subset):
                recon = [a + c * b for a, b in zip(recon, r)]
            target = [abs(d) * a for a in xr]
            if recon == target:
                return True
        return False

    return test


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
