"""Exact reference answers computed without toric_spectrum.

Every helper here works on plain tuples of Python integers and shares no code
with the package under test, so a check built on it cannot agree with the
package merely because both run the same routine.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def rank(rows):
    """Rank of an integer matrix by exact Gaussian elimination."""
    mat = [[Fraction(a) for a in row] for row in rows]
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def det(rows):
    """Determinant of a square integer matrix (Laplace expansion; k <= 3)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * det([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(k))


def lattice_index(rows, k):
    """Index of the Z-span of ``rows`` in Z^k: the gcd of its k x k minors
    (0 when the rows do not span)."""
    g = 0
    for subset in combinations(rows, k):
        g = gcd(g, det([list(r) for r in subset]))
    return abs(g)


def in_lattice(rows, x):
    """Whether x lies in the Z-span of ``rows``, which must span Q^k: adding x
    leaves the index unchanged exactly when x is already in the lattice."""
    k = len(x)
    index = lattice_index(rows, k)
    if index == 0:
        raise ValueError("reference lattice test needs a full-rank lattice")
    return lattice_index(list(rows) + [x], k) == index


def reach_table(gens, bounds):
    """Which points of the box ``[0, b_i]`` are nonnegative integer
    combinations of ``gens`` (all coordinates nonnegative, no zero vector).

    Returns a flat list over the box in row-major order: -1 for unreachable,
    otherwise the index of one generator whose removal stays reachable (the
    origin holds ``len(gens)``).  Every generator strictly lowers the flat
    index, so one increasing sweep settles every point.
    """
    strides = []
    size = 1
    for b in reversed(bounds):
        strides.append(size)
        size *= b + 1
    strides.reverse()
    offsets = [dot(g, strides) for g in gens]
    table = [-1] * size
    table[0] = len(gens)
    coords = [0] * len(bounds)
    for flat in range(1, size):
        for axis in range(len(bounds) - 1, -1, -1):
            coords[axis] += 1
            if coords[axis] <= bounds[axis]:
                break
            coords[axis] = 0
        for i, g in enumerate(gens):
            if all(c >= a for c, a in zip(coords, g)) and table[flat - offsets[i]] >= 0:
                table[flat] = i
                break
    return table, strides


def dp_witness(gens, table, strides, x):
    """Coefficients c >= 0 with sum(c_i g_i) == x read off a reach table, or
    None when x is unreachable."""
    flat = dot(x, strides)
    if table[flat] < 0:
        return None
    coeffs = [0] * len(gens)
    while flat:
        i = table[flat]
        coeffs[i] += 1
        flat -= dot(gens[i], strides)
    return tuple(coeffs)


def combination(gens, coeffs):
    n = len(gens[0])
    return tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(n))
