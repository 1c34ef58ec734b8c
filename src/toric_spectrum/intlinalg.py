"""Exact integer/rational linear algebra on row lattices.

All values are plain tuples of Python ints (arbitrary precision), and a
rational result is integer numerators over one positive denominator; no
floating point enters any computation in this module.  Lattices are kept in
row-style Hermite normal form with positive pivots and entries above each
pivot reduced into ``[0, pivot)``, which makes the basis a canonical form:
two generating sets span the same lattice exactly when their normal forms
are equal.

Lattices run on one kernel, :func:`_triangulate`: unimodular row
operations after Euclid, the least nonzero entry of a column being the
pivot that reduces the others, and only the rows still nonzero in a
column take part in its rounds.  :func:`hnf` triangulates every column and
then reduces above each pivot.  :func:`int_kernel` triangulates only the
data block of ``[rows^T | I_n]`` and takes one :func:`hnf` of what is left
(Cohen, *A Course in Computational Algebraic Number Theory*, 1993, section
2.4); the kernel of a single nonzero row, the boundary of a tower level or
of a half space, is written down in closed form from the Bezout
coefficients of its suffixes (:func:`_one_row_kernel`), with no
triangulation; a kernel is saturated by construction, so the lineality of
every cone of the package is the kernel of its facet normals.  A kernel's
triangulation also gives the torsion of Z^n modulo the rows' lattice
(:func:`kernel_and_torsion`, one call per face of an atlas, on the HNF
basis of its members): the Smith invariants of its pivot block, with no
Smith pass when the pivots multiply to +-1.  On independent rows that
product is the order of the torsion, so only a lattice with torsion runs
a Smith pass (:func:`_smith_diagonal`, which alternates row and column
passes of :func:`_triangulate` until the block is diagonal).  A caller
that knows the kernel, as face 0 of an atlas does, triangulates the
transposed basis alone (:func:`basis_torsion`).

An HNF basis needs no elimination at all.  :func:`hnf_coordinates`
back-substitutes on its pivots, for any number of vectors at once, and
returns rational coordinates as integer numerators over one positive
denominator: the local coordinates and span check of a face's cone
(:mod:`toric_spectrum.semigroups`), one call per face, and the lattice
coordinates of the character algebra (:mod:`toric_spectrum.characters`),
whose denominators must be 1, one call per restriction matrix.  At each
pivot, :func:`lattice_residue` leaves the canonical representative of a
vector modulo the lattice (ibid.), the key of the membership search in
:mod:`toric_spectrum.semigroups`.  No rational solver runs on rows in no
echelon form: :mod:`toric_spectrum.cones` works in a span by rank-one
Gram-Schmidt steps and by pairings with a saturated basis.

Every entry point that eliminates or reduces requires integer entries and
converts with ``operator.index``, so a ``Fraction`` or a float raises
TypeError instead of being truncated.  Only :func:`primitive_vector` takes
``Fraction`` entries, whose denominators it clears; a float raises
TypeError there too.  The module does not import ``fractions``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence

IntVector = tuple[int, ...]


class InvariantViolation(AssertionError):
    """An internal invariant failed: always a bug, never bad input.

    Raised explicitly rather than through ``assert``, so the checks survive
    ``python -O``; it subclasses AssertionError, which the CLI maps to exit
    code 4.
    """


def dot(u: Sequence, v: Sequence):
    """Inner product; exact for ints and Fractions."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def vec_neg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def is_zero_vector(u: Sequence) -> bool:
    return not any(u)


def primitive_vector(vec: Sequence) -> IntVector:
    """Scale a rational vector to the primitive integer vector with the same
    direction (gcd of entries 1, orientation preserved).  Zero stays zero.
    Entries are ints or Fractions; a float raises TypeError."""
    try:
        g = gcd(*vec)
    except TypeError:  # a Fraction entry: clear the denominators first
        # an int or a Fraction has a denominator; a float has none, and lcm
        # refuses the float itself with a TypeError
        denom = lcm(*(getattr(a, "denominator", a) for a in vec))
        vec = [int(a * denom) for a in vec]
        g = gcd(*vec)
    return tuple(a // g for a in vec) if g > 1 else tuple(vec)


def _check_rows(rows: Sequence[Sequence[int]], ambient_rank: Optional[int]) -> int:
    lengths = {len(r) for r in rows}
    if ambient_rank is not None:
        lengths.add(ambient_rank)
    if len(lengths) > 1:
        raise ValueError(f"mismatched row lengths: {sorted(lengths)}")
    if not lengths:
        raise ValueError("ambient rank unknown: no rows and no explicit rank")
    return lengths.pop()


@dataclass(frozen=True)
class Lattice:
    """Integer row lattice in canonical (HNF) form."""

    ambient_rank: int
    basis: tuple[IntVector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        for row in self.basis:
            if len(row) != self.ambient_rank:
                raise ValueError("basis row length does not match ambient rank")


def _triangulate(mat: list[list[int]], cols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Unimodular row operations that make the first ``cols`` columns of an
    integer matrix upper triangular.

    Returns ``(pivot rows, rest)``: each pivot row has its first nonzero
    entry in a later column than the row before, and the rest vanish on the
    first ``cols`` columns.  Together they span the rows' lattice.  Each
    column runs Euclid's algorithm on the rows still nonzero in it: the
    least nonzero ``|entry|`` is the pivot, the other live rows are reduced
    by floor quotient, and a row that reaches zero leaves the column's
    rounds, until only the pivot is left.
    """
    pivots: list[list[int]] = []
    for j in range(cols):
        live = [row for row in mat if row[j]]
        if not live:
            continue
        mat = [row for row in mat if not row[j]]
        while len(live) > 1:
            pivot_row = live.pop(min(range(len(live)), key=lambda i: abs(live[i][j])))
            p = pivot_row[j]
            rest = [pivot_row]
            for row in live:
                q = row[j] // p
                row = [a - q * b for a, b in zip(row, pivot_row)]
                if row[j]:
                    rest.append(row)
                else:
                    mat.append(row)
            live = rest
        pivots.append(live[0])
    return pivots, mat


def hnf(rows: Iterable[Sequence[int]], ambient_rank: Optional[int] = None) -> Lattice:
    """Canonical lattice spanned by the given integer rows.

    The basis is the row-style Hermite normal form: linearly independent
    rows, pivots positive and in strictly increasing column order, entries
    above each pivot reduced into ``[0, pivot)``.  Zero rows are dropped.
    Non-integer entries are rejected (TypeError).
    """
    mat = [list(map(operator.index, r)) for r in rows]
    n = _check_rows(mat, ambient_rank)
    basis, _ = _triangulate(mat, n)
    for k, row in enumerate(basis):
        j = next(i for i, a in enumerate(row) if a)
        if row[j] < 0:
            row = basis[k] = [-a for a in row]
        p = row[j]
        for i in range(k):
            q = basis[i][j] // p
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], row)]
    return Lattice(n, tuple(map(tuple, basis)))


def identity_rows(n: int) -> list[IntVector]:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def full_lattice(n: int) -> Lattice:
    return Lattice(n, tuple(identity_rows(n)))


def hnf_coordinates(basis: Sequence[IntVector], xs: Sequence[Sequence[int]]
                    ) -> Optional[list[tuple[IntVector, int]]]:
    """Integers ``(y, d)`` with ``d > 0`` and ``sum(y_i * basis_i) == d * x``
    for the x of ``xs`` in turn, one pair each, or None if some x is not in
    the rational row span.  The basis must be in row echelon form with
    positive pivots, as an HNF basis is.

    Back-substitution on the pivots, with no elimination: each basis row is
    zero left of its pivot, so the pivot columns, found once for every x,
    fix the coefficients one row at a time.  Where a pivot does not divide
    what remains in its column, everything found so far is scaled by the
    missing factor, so ``d`` is the least denominator of x's rational
    coordinates, and x is in the span exactly when nothing remains.
    """
    pivots = [(row, next(i for i, a in enumerate(row) if a)) for row in basis]
    solved = []
    for x in xs:
        rem = list(map(operator.index, x))
        coords: list[int] = []
        d = 1
        for row, j in pivots:
            p = row[j]
            q, r = divmod(rem[j], p)
            if r:
                scale = p // gcd(p, r)
                d *= scale
                coords = [c * scale for c in coords]
                rem = [a * scale for a in rem]
                q = rem[j] // p
            coords.append(q)
            if q != 0:
                rem = [a - q * b for a, b in zip(rem, row)]
        if any(rem):
            return None
        solved.append((tuple(coords), d))
    return solved


def lattice_contains(lattice: Lattice, x: Sequence[int]) -> bool:
    """Whether x lies in the integer row span of the lattice basis: whether
    its :func:`lattice_residue` is zero."""
    return not any(lattice_residue(lattice, x))


def lattice_residue(lattice: Lattice, x: Sequence[int]) -> IntVector:
    """Canonical representative of x modulo the lattice.

    Walks the HNF rows in order and, at each pivot ``(j, p)``, subtracts
    ``(x[j] // p)`` times the row, leaving the pivot entry in ``[0, p)``.  Two
    vectors have the same residue exactly when their difference lies in the
    lattice, so x lies in it exactly when its residue is zero.
    """
    if len(x) != lattice.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    rem = tuple(map(operator.index, x))
    for row in lattice.basis:
        j = next(i for i, a in enumerate(row) if a)
        q = rem[j] // row[j]
        if q:
            rem = tuple(a - q * b for a, b in zip(rem, row))
    return rem


def _smith_diagonal(basis: Sequence[IntVector]) -> list[int]:
    """Smith diagonal (divisibility order) of a basis of independent rows.

    Row operations on the transpose are column operations on the basis, so
    alternating row and column passes of :func:`_triangulate` keep the
    invariants (Kannan & Bachem, SIAM J. Comput. 1979; Cohen 1993, section
    2.4.4): triangulate the transposed basis, then the transpose of each
    square triangle in turn, until one is diagonal or has unit determinant,
    whose invariants are all 1.  The loop ends because each pass either
    lowers ``|corner entry|`` strictly or clears the corner's row and
    column, which then stay cleared.  The transpose of a triangle holds the
    corner in its first row, zero elsewhere, and :func:`_triangulate` takes
    the first of equal least entries as its pivot: when the corner divides
    the rest of its column, it clears the column in one round; otherwise
    the new corner, the column's gcd, is smaller.  Once the corner is
    cleared, the same holds for the block below it.  Last, each pair
    ``(d_i, d_j)`` with i < j becomes ``(gcd, lcm)``.
    """
    k = len(basis)
    mat = [list(col) for col in zip(*basis)]
    while True:
        mat, _ = _triangulate(mat, k)
        diag = [abs(row[i]) for i, row in enumerate(mat)]
        if prod(diag) == 1 or not any(any(row[i + 1:]) for i, row in enumerate(mat)):
            break
        mat = [list(col) for col in zip(*mat)]
    for i in range(k):
        for j in range(i + 1, k):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


def int_kernel(rows: Sequence[IntVector], ambient_rank: int) -> Lattice:
    """Canonical basis of ``{x in Z^n : <row, x> = 0 for every row}``.

    The result is automatically saturated.  Zero rows are dropped, and the
    number of rows left picks the method: none gives Z^n, one gives the
    closed form of :func:`_one_row_kernel`, and more run Cohen (1993),
    section 2.4: triangulating the first block of ``[rows^T | I_n]`` leaves
    rows that vanish on it, and their second block is a kernel basis.
    """
    return _kernel(rows, ambient_rank)[0]


def kernel_and_torsion(rows: Sequence[IntVector], ambient_rank: int
                       ) -> tuple[Lattice, tuple[int, ...]]:
    """The :func:`int_kernel` of the rows and the torsion of Z^n modulo the
    lattice they span, from the same computation.

    The triangulation's unimodular row operations U make ``U rows^T`` a
    pivot block P over zero rows, so Z^n modulo the rows' lattice is
    Z^r / P Z^m plus a free part, and the torsion is the Smith invariants of
    P above 1; one nonzero row v has the block ``[[gcd(v)]]``.  When the
    pivots of P multiply to +-1, so does its minor on the pivot columns:
    there is no torsion and no Smith pass.  On independent rows P is square,
    and that product is the order of the torsion.
    """
    kernel, block = _kernel(rows, ambient_rank)
    return kernel, _block_torsion(block)


def basis_torsion(basis: Sequence[IntVector]) -> tuple[int, ...]:
    """The torsion of Z^n modulo the lattice of independent rows, as
    :func:`kernel_and_torsion` gives it, for a caller that knows the
    kernel: the triangulation runs on the transposed basis alone, which
    gives the same pivot block as the first block of ``[basis^T | I_n]``."""
    return _block_torsion(_triangulate([list(col) for col in zip(*basis)], len(basis))[0])


def _block_torsion(block: list[list[int]]) -> tuple[int, ...]:
    """The Smith invariants above 1 of a triangulation's pivot block, with
    no Smith pass when its pivots multiply to +-1."""
    if abs(prod(next(a for a in row if a) for row in block)) == 1:
        return ()
    return tuple(d for d in _smith_diagonal(block) if d > 1)


def _kernel(rows: Sequence[IntVector], ambient_rank: int) -> tuple[Lattice, list[list[int]]]:
    """The kernel of the rows and the pivot block of their triangulation."""
    rows = [tuple(map(operator.index, r)) for r in rows]
    n = _check_rows(rows, ambient_rank) if rows else ambient_rank
    rows = [r for r in rows if any(r)]
    if not rows:
        return full_lattice(n), []
    if len(rows) == 1:
        return _one_row_kernel(rows[0], n), [[gcd(*rows[0])]]
    m = len(rows)
    aug = [[r[j] for r in rows] + [1 if t == j else 0 for t in range(n)] for j in range(n)]
    pivots, rest = _triangulate(aug, m)
    return hnf([row[m:] for row in rest], n), [row[:m] for row in pivots]


def _one_row_kernel(v: IntVector, n: int) -> Lattice:
    """The HNF basis of ``v^perp intersect Z^n`` for a nonzero v, in closed
    form.

    Let t be the last column where v is nonzero.  Every column but t is a
    pivot, and the rows after t are unit vectors.  The row at a pivot j < t
    is the least positive multiple of e_j that some kernel vector supported
    on columns j..t starts with: with ``g = gcd(v_{j+1..t})`` the pivot is
    ``g / gcd(v_j, g)``, and the tail is ``-v_j / gcd(v_j, g)`` times the
    Bezout coefficients of that suffix, which pair with it to g.  The rows
    are built from the bottom up, so each tail is reduced at the later
    pivots by rows already in normal form.
    """
    t = max(j for j, a in enumerate(v) if a)
    zeros = [0] * (n - 1 - t)
    rows: list[list[int]] = []  # the rows at pivots j + 1 .. t - 1, in order
    g, s, _ = _xgcd(v[t], 0)
    bezout = [s]
    for j in range(t - 1, -1, -1):
        h, s, u = _xgcd(v[j], g)
        c = -v[j] // h
        row = [0] * j + [g // h] + [c * b for b in bezout] + zeros
        for k, below in enumerate(rows, j + 1):
            q = row[k] // below[k]
            if q:
                row = [a - q * b for a, b in zip(row, below)]
        rows.insert(0, row)
        g, bezout = h, [s] + [u * b for b in bezout]
    units = tuple((0,) * k + (1,) + (0,) * (n - 1 - k) for k in range(t + 1, n))
    return Lattice(n, tuple(map(tuple, rows)) + units)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, s, t)`` with ``g = gcd(a, b) >= 0`` and ``s * a + t * b == g``:
    the extended Euclidean algorithm."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t
