"""Property tests of the oracle's own rational algebra, checked by definition.

``oracle._orref`` is the oracle's one Gauss-Jordan elimination; rank,
nullspace, solves and the reduction modulo a lineality span are read off it.
Each is checked here against what it must satisfy, with entries up to 2^70,
zero rows and dependent rows, and never against ``intlinalg``: the oracle is
the independent check of the main modules.
"""

import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from toric_spectrum import oracle  # noqa: E402
from toric_spectrum.oracle import (  # noqa: E402
    _det,
    _onullspace,
    _orank,
    _orref,
    _osolve,
    _reduction_matrix,
)

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


@SETTINGS
@given(basis_and_point())
def test_reduction_clears_the_pivots_modulo_the_span(case):
    lineality, x, _ = case
    n = len(x)
    matrix = _reduction_matrix(lineality, n)
    _, pivots = _orref(lineality, n)
    free = [j for j in range(n) if j not in pivots]
    scale = {matrix[j][j] for j in free}
    assert len(scale) <= 1
    d = scale.pop() if scale else 0
    assert d > 0 or not any(map(any, matrix))
    y = tuple(sum(x[i] * matrix[i][j] for i in range(n)) for j in range(n))
    assert all(y[p] == 0 for p in pivots)
    difference = tuple(a - d * b for a, b in zip(y, x))
    assert _orank(lineality + [difference]) == len(lineality)


def test_oracle_imports_nothing_from_intlinalg():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    assert modules and not [m for m in modules if "intlinalg" in m], modules
