"""Malformed arguments to the public API raise ValueError with a message
that names the fault."""

import re

import pytest

from toric_spectrum import (
    Lattice,
    Ray,
    Tower,
    cone_contains_cone,
    cone_from_rays,
    contains,
    enumerate_faces,
    idempotent_lattice_ops,
    ray_limit,
    ray_point,
)
from toric_spectrum.intlinalg import dot, lattice_residue

from helpers import EVEN_AXIS, HALF_LINE

ATLAS = enumerate_faces(EVEN_AXIS)
QUADRANT = cone_from_rays([(1, 0), (0, 1)])
X_AXIS = Lattice(2, ((1, 0),))


@pytest.mark.parametrize("call, message", [
    (lambda: ray_point(ATLAS, Ray(0, (1, 0)), -1), "ray parameter must be nonnegative"),
    (lambda: ray_limit(ATLAS, Ray(0, (-1, 0))),
     "ray data must lie in the dual cone of its base face"),
    (lambda: idempotent_lattice_ops(ATLAS, []), "need at least one face id"),
    (lambda: QUADRANT.contains((1,)), "point length does not match ambient rank"),
    (lambda: QUADRANT.relative_interior_contains((1, 1, 1)),
     "point length does not match ambient rank"),
    (lambda: cone_contains_cone(QUADRANT, cone_from_rays([(1, 0, 0)])), "ambient rank mismatch"),
    (lambda: dot((1, 2), (1,)), "length mismatch: 2 vs 1"),
    (lambda: Lattice(2, ((1, 0, 0),)), "basis row length does not match ambient rank"),
    (lambda: lattice_residue(X_AXIS, (1, 0, 0)), "vector length does not match ambient rank"),
    (lambda: Tower(2, (0, 0, 1), HALF_LINE), "normal length does not match ambient rank"),
    (lambda: contains(EVEN_AXIS, (1,)), "point length does not match ambient rank"),
])
def test_malformed_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_line_lies_in_a_half_plane_but_not_in_a_quadrant():
    line = cone_from_rays([], [(1, 0)], 2)
    assert not cone_contains_cone(line, QUADRANT)
    assert cone_contains_cone(line, cone_from_rays([(0, 1)], [(1, 0)]))
