"""Property tests of the oracle's own rational algebra, checked by definition.

``oracle._orref`` is the oracle's one Gauss-Jordan elimination; rank,
nullspace and solves are read off it.  Each is checked here against what it
must satisfy, with entries up to 2^70, zero rows and dependent rows, and
never against ``intlinalg``: the oracle is the independent check of the main
modules.  So is the cross-check's membership test, which reads the facets of
a cone from ``oracle._supporting``.  The one exception is the tower
kernel ``oracle._okernel_lattice``: an HNF basis is canonical, so it is
compared with ``intlinalg.int_kernel`` entry for entry.
"""

import ast
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from toric_spectrum import oracle  # noqa: E402
from toric_spectrum.oracle import (  # noqa: E402
    _membership_tester,
    _onullspace,
    _oprimitive,
    _orank,
    _orref,
)

from helpers import _det, _osolve  # noqa: E402

SETTINGS = settings(max_examples=120, deadline=None)
entries = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))


def combine(coeffs, rows, n):
    return tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n))


@st.composite
def matrices(draw):
    """Rows of width 1 to 6: random rows plus zero rows, duplicates and
    integer combinations of earlier rows, in a random order."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[entries] * n), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("combination", "zero", "duplicate")))
        if kind == "zero" or not rows:
            rows.append((0,) * n)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(rows), max_size=len(rows)))
            rows.append(combine(coeffs, rows, n))
        rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop())
    return n, rows


def independent(rows):
    basis = []
    for row in rows:
        if _orank(basis + [row]) > len(basis):
            basis.append(row)
    return basis


@st.composite
def basis_and_point(draw):
    """Independent rows and a point, a combination of them or at random."""
    n, rows = draw(matrices())
    basis = independent(rows)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis)))
        return basis, combine(coeffs, basis, n), coeffs
    return basis, tuple(draw(st.tuples(*[entries] * n))), None


@SETTINGS
@given(matrices())
def test_reduced_echelon_form_spans_the_rows(case):
    n, rows = case
    reduced, pivots = _orref(rows, n)
    assert len(reduced) == len(pivots)
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        assert not any(row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(reduced) if k != i)
    # every row is its entries at the pivots times the reduced rows R, so the
    # rows are their own pivot columns times R; they span what R spans iff
    # those columns have a nonzero maximal minor
    at_pivots = [[row[p] for p in pivots] for row in rows]
    for row, coeffs in zip(rows, at_pivots):
        assert tuple(row) == combine(coeffs, reduced, n)
    assert any(_det([at_pivots[i] for i in chosen]) != 0
               for chosen in combinations(range(len(rows)), len(pivots)))


@SETTINGS
@given(matrices())
def test_nullspace_is_orthogonal_and_has_the_free_dimension(case):
    n, rows = case
    basis = _onullspace(rows, n)
    assert len(basis) == n - _orank(rows)
    assert _orank(basis) == len(basis)
    for w in basis:
        assert all(type(a) is int for a in w) and any(w)
        assert all(sum(a * b for a, b in zip(row, w)) == 0 for row in rows)


def test_primitive_of_zero_and_of_fractions():
    assert _oprimitive(()) == ()
    assert _oprimitive((0, 0, 0)) == (0, 0, 0)
    assert _oprimitive((Fraction(0), Fraction(0))) == (0, 0)
    assert _oprimitive((Fraction(2, 3), Fraction(-4, 9), 0)) == (3, -2, 0)
    assert _oprimitive((-6, 4, 10)) == (-3, 2, 5)


@SETTINGS
@given(basis_and_point())
def test_solve_rebuilds_the_point_or_it_leaves_the_span(case):
    basis, x, coeffs = case
    solved = _osolve(basis, x)
    if coeffs is not None:
        assert solved == tuple(Fraction(c) for c in coeffs)
    if solved is None:
        assert _orank(basis + [x]) > len(basis)
    else:
        assert combine(solved, basis, len(x)) == x


@st.composite
def cones(draw):
    """Rays and lineality rows of rank at most 4, entries up to 5: 0 to 6
    rays and 0 to 2 lineality rows, zero and dependent ones among them."""
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[st.integers(-5, 5)] * n)
    rays = draw(st.lists(vectors, max_size=6))
    lineality = draw(st.lists(vectors, max_size=2))
    if lineality and draw(st.booleans()):
        lineality.append(combine(draw(st.lists(st.integers(-2, 2), min_size=len(lineality),
                                               max_size=len(lineality))), lineality, n))
    return n, rays, lineality


@SETTINGS
@given(cones(), st.data())
def test_tester_accepts_the_generators_and_their_sums(cone, data):
    n, rays, lineality = cone
    test = _membership_tester(rays, lineality, n)
    signed = lineality + [tuple(-a for a in row) for row in lineality]
    assert all(test(x) for x in rays + signed)
    generators = rays + signed
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(generators),
                                max_size=len(generators)))
    assert test(combine(coeffs, generators, n))


@settings(max_examples=60, deadline=None)
@given(cones())
def test_tester_on_independent_rays_is_nonnegative_coordinates(cone):
    # rays independent of each other and of the lineality, whose rows may
    # still depend on one another: x is a member iff its coordinates on
    # the rays are nonnegative, with any coordinates on the lineality
    n, rays, lineality = cone
    basis = independent(independent(lineality) + rays)
    free = _orank(lineality)
    test = _membership_tester(basis[free:], lineality, n)
    for x in product(range(-2, 3), repeat=n):
        coords = _osolve(basis, x)
        assert test(x) == (coords is not None and all(c >= 0 for c in coords[free:])), x


def test_oracle_imports_nothing_from_intlinalg():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert modules and not [m for m in modules if "intlinalg" in m], modules


def test_koszul_kernel_is_the_main_kernel():
    # the one check against intlinalg: an HNF basis is canonical, so the
    # oracle's kernel from the Koszul generators v_j e_i - v_i e_j of a
    # primitive row must be the main modules' basis entry for entry
    from math import gcd

    from toric_spectrum.intlinalg import int_kernel

    rng = random.Random(35)
    checked = 0
    while checked < 600:
        n = rng.randint(1, 7)
        v = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10 ** 6, 10 ** 6)))
             for _ in range(n)]
        g = gcd(*v)
        if not g:
            continue
        v = tuple(a // g for a in v)
        assert oracle._okernel_lattice(v, n) == list(int_kernel([v], n).basis), v
        checked += 1
