"""Property tests of the Euclid triangulation under ``hnf``, ``int_kernel``
and ``basis_torsion``, and of ``primitive_vector``; the saturation of the
test helpers is two of these kernels.

The references below are the earlier bodies of these functions: ``hnf``
reduced above each pivot as soon as its column was done, and ``int_kernel``
ran a full HNF over every column of ``[rows^T | I_n]`` before a second HNF
of the kernel block.  HNF bases are canonical, so the results must agree
exactly.  The Smith invariants are checked against their definition by
determinantal divisors, with the oracle's cofactor determinant.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from toric_spectrum.intlinalg import (  # noqa: E402
    Lattice,
    _triangulate,
    basis_torsion,
    hnf,
    int_kernel,
    primitive_vector,
)

from helpers import _det, saturate  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None)
entries = st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70))


def reference_hnf(rows, n):
    mat = [[int(a) for a in r] for r in rows]
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
            p = mat[r][j]
            for i in range(r + 1, len(mat)):
                if mat[i][j] != 0:
                    q = mat[i][j] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        if r < len(mat) and mat[r][j] != 0:
            if mat[r][j] < 0:
                mat[r] = [-a for a in mat[r]]
            p = mat[r][j]
            for i in range(r):
                q = mat[i][j] // p
                if q != 0:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return Lattice(n, tuple(tuple(row) for row in mat[:r]))


def reference_int_kernel(rows, n):
    m = len(rows)
    aug = [tuple(rows[i][j] for i in range(m)) + tuple(1 if t == j else 0 for t in range(n))
           for j in range(n)]
    reduced = reference_hnf(aug, m + n).basis
    kernel = [row[m:] for row in reduced if all(a == 0 for a in row[:m])]
    return reference_hnf(kernel, n)


def reference_primitive_vector(vec):
    denom = lcm(*(a.denominator for a in vec))
    ints = [int(a * denom) for a in vec]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g else tuple(ints)


@st.composite
def matrices(draw):
    """0-7 integer rows in rank 0-6: random rows plus zero, duplicate and
    negated rows and integer combinations of earlier rows, so that many
    sets are rank deficient."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple), max_size=5))
    for _ in range(draw(st.integers(0, 7 - len(rows)))):
        kind = draw(st.sampled_from(("zero", "duplicate", "negated", "combination")))
        if kind == "zero" or not rows:
            rows.append((0,) * n)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "negated":
            rows.append(tuple(-a for a in draw(st.sampled_from(rows))))
        else:
            c, d = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(c * a + d * b for a, b in zip(u, v)))
        rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop())
    return n, rows


@SETTINGS
@given(matrices())
def test_hnf_kernel_and_saturation_match_the_reference(case):
    n, rows = case
    lattice = hnf(rows, n)
    assert lattice == reference_hnf(rows, n)
    assert int_kernel(rows, n) == reference_int_kernel(rows, n)
    expected = reference_int_kernel(reference_int_kernel(lattice.basis, n).basis, n)
    assert saturate(lattice) == expected


@SETTINGS
@given(matrices(), st.data())
def test_triangulation_splits_the_lattice(case, data):
    n, rows = case
    cols = data.draw(st.integers(0, n))
    pivots, rest = _triangulate([list(r) for r in rows], cols)
    leads = [next(j for j, a in enumerate(row) if a) for row in pivots]
    assert leads == sorted(set(leads)) and all(j < cols for j in leads)
    assert all(not any(row[:cols]) for row in rest)
    assert len(pivots) + len(rest) == len(rows)
    assert reference_hnf(pivots + rest, n) == reference_hnf(rows, n)


def reference_quotient_invariants(basis, n):
    """Free rank and torsion of Z^n modulo independent rows, by definition:
    with d_k the gcd of all k x k minors (d_0 = 1), the k-th invariant
    factor is d_k / d_{k-1}."""
    divisors = [1]
    for k in range(1, len(basis) + 1):
        divisors.append(gcd(*(_det([[basis[i][j] for j in cols] for i in rows])
                              for rows in combinations(range(len(basis)), k)
                              for cols in combinations(range(n), k))))
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return n - len(basis), tuple(d for d in factors if d > 1)


@st.composite
def torsion_lattices(draw):
    """HNF lattices of rank 1-4 in Z^1..Z^6, often of lower rank than their
    space: small entries scaled by row and column factors, so that the
    quotient has much torsion, among entries up to 2^70."""
    n = draw(st.integers(1, 6))
    factors = st.sampled_from((1, 2, 3, 4, 6, 12))
    column_factors = [draw(factors) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, min(4, n)))):
        f = draw(factors)
        rows.append([draw(st.one_of(st.integers(-6, 6).map(lambda a: f * c * a),
                                    st.integers(-2 ** 70, 2 ** 70)))
                     for c in column_factors])
    lattice = hnf(rows, n)
    assume(lattice.basis)
    return n, lattice


@SETTINGS
@given(torsion_lattices())
def test_quotient_invariants_match_the_determinantal_divisors(case):
    n, lattice = case
    assert (n - lattice.rank, basis_torsion(lattice.basis)) == \
        reference_quotient_invariants(lattice.basis, n)


@st.composite
def one_row(draw):
    """Exactly one nonzero row among zero rows, in rank 1-7: its leading and
    trailing entries are often zero, and it is often a multiple of a row."""
    n = draw(st.integers(1, 7))
    lead = draw(st.integers(0, n - 1))
    tail = draw(st.integers(lead, n - 1))
    row = [0] * n
    row[lead:tail + 1] = draw(st.lists(entries, min_size=tail + 1 - lead,
                                       max_size=tail + 1 - lead))
    row[draw(st.integers(lead, tail))] = draw(entries.filter(bool))
    scale = draw(st.sampled_from((1, -1, 2, 6, 3 ** 40)))
    row = tuple(scale * a for a in row)
    rows = [(0,) * n] * draw(st.integers(0, 3))
    rows.insert(draw(st.integers(0, len(rows))), row)
    return n, rows


@SETTINGS
@given(one_row())
def test_one_row_kernel_matches_the_reference(case):
    n, rows = case
    assert int_kernel(rows, n) == reference_int_kernel(rows, n)


fractions = st.fractions(max_denominator=30).filter(lambda q: abs(q.numerator) < 2 ** 70)


@SETTINGS
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(entries, min_size=n, max_size=n),
    st.lists(fractions, min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n))))
def test_primitive_vector_matches_the_reference(case):
    ints, fracs, pick = case
    mixed = [q if p else a for a, q, p in zip(ints, fracs, pick)]
    scaled = [6 * a for a in ints]
    for vec in (ints, scaled, fracs, mixed, [0] * len(ints), [Fraction(0)] * len(ints), ()):
        result = primitive_vector(vec)
        assert result == reference_primitive_vector(vec)
        assert all(type(a) is int for a in result)
