import random
from itertools import product

import pytest

from toric_spectrum.intlinalg import (
    Lattice,
    basis_torsion,
    hnf,
    int_kernel,
    lattice_contains,
    lattice_residue,
)
from toric_spectrum.semigroups import embed_point

from helpers import _det, lattice_coordinates, rational_coordinates, saturate


def combos(rows, bound):
    """All integer combinations of the rows with coefficients in [-bound, bound]."""
    if not rows:
        return {tuple()}
    n = len(rows[0])
    out = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(rows)):
        v = [0] * n
        for c, row in zip(coeffs, rows):
            v = [a + c * b for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def in_span_bruteforce(rows, x, bound):
    return tuple(x) in combos(rows, bound)


def test_hnf_two_by_two():
    # oracle: the two row sets generate the same points under a 10x10
    # coefficient search, and the frozen canonical form is reproduced
    rows = [(2, 0), (1, 1)]
    basis = hnf(rows).basis
    assert basis == ((1, 1), (0, 2))
    box = lambda pts: {p for p in pts if all(abs(a) <= 6 for a in p)}
    assert box(combos(rows, 10)) == box(combos(basis, 10))


def test_hnf_identity():
    assert hnf([(1, 0), (0, 1)]).basis == ((1, 0), (0, 1))


def test_hnf_zero_row():
    assert hnf([(0, 0)]).basis == ()


def test_hnf_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        hnf([(1, 0), (1, 0, 0)])


def test_hnf_idempotent_and_unimodular_invariant():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        lat = hnf(rows, n)
        assert hnf(lat.basis, n) == lat
        # random elementary row operations keep the row span
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i = rng.randrange(len(mixed))
            j = rng.randrange(len(mixed))
            if i != j:
                c = rng.randint(-3, 3)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            elif rng.random() < 0.5:
                mixed[i] = [-a for a in mixed[i]]
        assert hnf(mixed, n) == lat


def test_quotient_invariants_examples():
    # Z^2 modulo the lattice: free rank 2 - rank, torsion from the basis
    for rows, free, torsion in (([(2, 0)], 1, (2,)), ([(1, 0), (0, 1)], 0, ()),
                                ([(2, 0), (0, 3)], 0, (6,))):
        lat = hnf(rows, 2)
        assert (2 - lat.rank, basis_torsion(lat.basis)) == (free, torsion)


def test_quotient_invariants_against_coset_enumeration():
    # oracle: count equivalence classes of box points under difference in L
    lat = hnf([(2, 0), (0, 3)], 2)
    points = list(product(range(6), repeat=2))
    classes = []
    for p in points:
        for cls in classes:
            diff = tuple(a - b for a, b in zip(p, cls[0]))
            if in_span_bruteforce(lat.basis, diff, 10):
                cls.append(p)
                break
        else:
            classes.append([p])
    assert len(classes) == 6
    free, torsion = 2 - lat.rank, basis_torsion(lat.basis)
    order = 1
    for d in torsion:
        order *= d
    assert free == 0 and order == 6


def test_lattice_contains_examples():
    assert lattice_contains(hnf([(2, 0)], 2), (4, 0))
    assert not lattice_contains(hnf([(2, 0)], 2), (1, 0))
    assert lattice_contains(hnf([(1, 1), (0, 2)]), (3, 1))
    # 3*(1,1) - 1*(0,2) = (3,1), confirmed by exhaustive search
    assert in_span_bruteforce([(1, 1), (0, 2)], (3, 1), 4)


def test_lattice_contains_matches_bruteforce():
    rng = random.Random(977)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        lat = hnf(rows, n)
        reachable = {p for p in combos(rows, 4) if all(abs(a) <= 3 for a in p)}
        for x in product(range(-3, 4), repeat=n):
            coords = lattice_coordinates(lat, x)
            assert (coords is None) == (not lattice_contains(lat, x))
            if coords is not None:
                # the coordinates rebuild x; an empty basis holds only zero
                assert embed_point(lat.basis, coords, n) == x
            if x in reachable:
                assert lattice_contains(lat, x)
            elif lattice_contains(lat, x):
                # membership outside the search radius is fine; verify by solving
                coords = rational_coordinates(lat.basis, x)
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


def test_saturation_examples():
    assert saturate(hnf([(2, 0)], 2)).basis == ((1, 0),)
    assert saturate(hnf([(1, 1)], 2)).basis == ((1, 1),)
    assert saturate(hnf([(2, 0), (0, 3)], 2)).basis == ((1, 0), (0, 1))


def test_saturation_index_equals_torsion_product():
    rng = random.Random(5150)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        lat = hnf(rows, n)
        product_of_torsion = 1
        for d in basis_torsion(lat.basis):
            product_of_torsion *= d
        sat = saturate(lat)
        assert sat.rank == lat.rank
        for row in lat.basis:
            assert lattice_contains(sat, row)
        # the index of the lattice in its saturation: |det| of its basis
        # written on the saturation's basis
        assert abs(_det([lattice_coordinates(sat, row) for row in lat.basis])) == \
            product_of_torsion


def test_int_kernel():
    ker = int_kernel([(2, 0)], 2)
    assert ker.basis == ((0, 1),)
    ker = int_kernel([(1, 1, 1)], 3)
    for row in ker.basis:
        assert sum(row) == 0
    assert ker.rank == 2
    assert int_kernel([], 2).basis == ((1, 0), (0, 1))


def test_lattice_residue_consistency():
    rng = random.Random(31)
    lattices = [Lattice(1, ()), Lattice(3, ())]
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, n))]
        lattices.append(hnf(rows, n) if rows else Lattice(n, ()))
    for lat in lattices:
        n = lat.ambient_rank
        for _ in range(20):
            x = tuple(rng.randint(-6, 6) for _ in range(n))
            y = tuple(rng.randint(-6, 6) for _ in range(n))
            diff = tuple(a - b for a, b in zip(x, y))
            assert (lattice_residue(lat, x) == lattice_residue(lat, y)) == \
                lattice_contains(lat, diff)
            if not lat.basis:
                assert lattice_residue(lat, x) == x
