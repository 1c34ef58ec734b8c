"""Property tests of the exact solving in ``intlinalg`` and of the
projection modulo a span.

Coordinates on an echelon basis run on no elimination at all
(``hnf_coordinates``); they are checked against the Bareiss elimination of
the test helpers (``helpers.scaled_coordinates``), which is checked in turn
against the independent ``Fraction`` Gauss-Jordan code of the oracle.  The
projection modulo a span (``cones._project``) runs rank-one Gram-Schmidt
steps on rows made pairwise orthogonal; it is checked against the oracle
and against one Gram elimination per call (``helpers.ref_project``).
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from toric_spectrum.cones import (  # noqa: E402
    _project,
    cone_from_inequalities,
    cone_from_rays,
)
from toric_spectrum.intlinalg import (  # noqa: E402
    dot,
    full_lattice,
    hnf,
    hnf_coordinates,
    int_kernel,
    lattice_contains,
    lattice_residue,
    primitive_vector,
)
from toric_spectrum.oracle import _orank  # noqa: E402
from toric_spectrum.semigroups import Generators, Tower  # noqa: E402

from helpers import _osolve, rational_coordinates, ref_project, scaled_coordinates  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None)
entries = st.integers(-6, 6)


@st.composite
def matrices(draw):
    """Integer rows, often rank deficient: random rows, some of them integer
    combinations of others, plus zero and duplicate rows."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n).map(tuple),
                         max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("combination", "zero", "duplicate")))
        if kind == "zero" or not rows:
            rows.append((0,) * n)
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            c, d = draw(entries), draw(entries)
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(tuple(c * a + d * b for a, b in zip(u, v)))
        rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop())
    return n, rows


@st.composite
def independent_rows_and_point(draw):
    """Linearly independent rows and a point inside or outside their span."""
    n, rows = draw(matrices())
    basis = []
    for row in rows:
        if _orank(basis + [row]) > len(basis):
            basis.append(row)
    if draw(st.booleans()):
        coeffs = draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        x = [0] * n
        for c, row in zip(coeffs, basis):
            x = [a + c * b for a, b in zip(x, row)]
        x = tuple(x)
    else:
        x = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    return basis, x


def test_kernel_refuses_rationals():
    # floor division or int() would silently corrupt a non-integer entry
    for row in ((Fraction(1, 2), 1), (2.7, 1)):
        calls = [
            lambda: hnf([row], 2),
            lambda: int_kernel([row], 2),
            lambda: hnf_coordinates(((1, 0), (0, 1)), [(0, 0), row]),
            lambda: lattice_contains(full_lattice(2), row),
            lambda: lattice_residue(hnf([(2, 1)], 2), row),
            lambda: cone_from_rays([row, (1, 0)]),
            lambda: cone_from_inequalities([row, (1, 0)]),
            lambda: cone_from_rays([(1, 0)], [row]),
            lambda: cone_from_inequalities([(1, 0)], [row]),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()


def test_primitive_vector_clears_fractions_and_refuses_floats():
    # a Fraction entry has an exact denominator to clear; a float has none
    assert primitive_vector((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    for call in (lambda: primitive_vector((1.5, 2)),
                 lambda: Tower(2, (1.0, 0.0), Generators(1, ((1,),)))):
        with pytest.raises(TypeError):
            call()


@SETTINGS
@given(independent_rows_and_point())
def test_rational_coordinates_match_oracle(case):
    basis, x = case
    expected = _osolve(basis, x)
    assert rational_coordinates(basis, x) == expected
    solved = scaled_coordinates(basis, x)
    assert (solved is None) == (expected is None)
    if solved is not None:
        # integer numerators over one positive common denominator
        y, d = solved
        assert d > 0 and tuple(Fraction(c, d) for c in y) == expected


@SETTINGS
@given(independent_rows_and_point())
def test_projection_is_orthogonal_and_differs_by_the_span(case):
    rows, x = case
    (p,) = _project([x], rows)
    assert all(dot(p, r) == 0 for r in rows)
    if any(p):
        # p is a positive multiple of the projection proj of x, so
        # proj = (<x, p> / <p, p>) p and <x, p> = |proj|^2 > 0
        assert p == primitive_vector(p) and dot(x, p) > 0
        proj = [Fraction(dot(x, p), dot(p, p)) * a for a in p]
        rest = [a - b for a, b in zip(x, proj)]
    else:
        rest = list(x)
    # x - proj lies in the span: an integer multiple of it has coordinates
    assert _osolve(rows, primitive_vector(rest)) is not None


@SETTINGS
@given(independent_rows_and_point(), st.data())
def test_projection_of_a_rational_point(case, data):
    rows, x = case
    q = [Fraction(a, data.draw(st.integers(1, 12))) for a in x]
    # oracle: solve the Gram system (R R^T) c = R q in Fractions
    gram = [[dot(u, v) for v in rows] for u in rows]
    c = _osolve(gram, [dot(r, q) for r in rows])
    proj = [a - sum((ci * r[j] for ci, r in zip(c, rows)), Fraction(0)) for j, a in enumerate(q)]
    assert _project([q], rows) == [primitive_vector(proj)]


@st.composite
def spans_and_directions(draw):
    """Independent rows of rank 0 to 5 in Z^n, each random and scaled by
    1, 2 or 3, and directions to project: zero, integer, rational, and in
    the span (projecting to zero)."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, min(n, 5)))):
        row = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        if _orank(rows + [row]) > len(rows):
            # one scale for the whole row: a scale per entry could make the
            # row dependent on the rows before it
            scale = draw(st.sampled_from((1, 2, 3)))
            rows.append(tuple(scale * a for a in row))
    vecs = []
    for kind in draw(st.lists(st.sampled_from(("zero", "integer", "rational", "span")),
                              max_size=5)):
        x = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        if kind == "zero":
            x = (0,) * n
        elif kind == "rational":
            x = tuple(Fraction(a, draw(st.integers(1, 12))) for a in x)
        elif kind == "span":
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            x = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n))
        vecs.append(x)
    return rows, vecs


@SETTINGS
@given(spans_and_directions())
def test_projection_equals_one_gram_elimination(case):
    rows, vecs = case
    projected = _project(vecs, rows)
    assert projected == ref_project(vecs, rows)
    for v, p in zip(vecs, projected):
        # a direction in the span projects to zero, and no other does
        assert (not any(p)) == (_osolve(rows, v) is not None)


@st.composite
def echelon_bases_and_points(draw):
    """A row echelon basis with positive pivots, and one to four points, each
    in its lattice, in its rational span or anywhere.  The basis is either an
    HNF or built directly, with any entries (negative, or not reduced above
    a later pivot) right of each pivot; it may be empty."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=5))
        basis = list(hnf(rows, n).basis)
    else:
        columns = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        basis = [tuple([0] * j + [draw(st.integers(1, 6))]
                       + draw(st.lists(entries, min_size=n - j - 1, max_size=n - j - 1)))
                 for j in columns]
    points = []
    for kind in draw(st.lists(st.sampled_from(("lattice", "span", "anywhere")),
                              min_size=1, max_size=4)):
        if kind == "anywhere":
            points.append(tuple(draw(st.lists(entries, min_size=n, max_size=n))))
            continue
        coeffs = draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
        x = [0] * n
        for c, row in zip(coeffs, basis):
            x = [a + c * b for a, b in zip(x, row)]
        if kind == "span":
            # a rational point of the span, cleared of its denominator
            x = primitive_vector(x) if any(x) else x
        points.append(tuple(x))
    return basis, points


@SETTINGS
@given(echelon_bases_and_points())
def test_pivot_coordinates_match_elimination(case):
    basis, points = case
    singles = []
    for x in points:
        solved = hnf_coordinates(basis, [x])
        expected = scaled_coordinates(basis, x)
        assert (solved is None) == (expected is None)
        if solved is None:
            singles.append(None)
            continue
        ((y, d),) = solved
        assert d > 0
        assert [Fraction(c, d) for c in y] == [Fraction(c, expected[1]) for c in expected[0]]
        # d is the least common denominator of the coordinates
        assert gcd(d, *y) == 1
        singles.append((y, d))
    # all points in one call: None iff some point leaves the span, and
    # otherwise each pair is its one-point solve
    together = hnf_coordinates(basis, points)
    if None in singles:
        assert together is None
    else:
        assert together == singles


def test_pivot_coordinates_on_an_empty_basis():
    assert hnf_coordinates([], [(0, 0)]) == [((), 1)]
    assert hnf_coordinates([], [(0, 0), (0, 1)]) is None
    assert hnf_coordinates([(1, 2)], []) == []
