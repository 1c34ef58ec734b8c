"""A tower's flattening reads each level's ray off its flag, by rank-one
Gram-Schmidt steps against the rays above, and converts an innermost
generating set that spans its rank on the last level's lattice and
equations.  Checked against the per-level route it replaces
(``helpers.ref_flatten``: one Gram elimination per level, then
``cone_from_rays`` on the embedded generators), atlas and all, and by the
work a cold flattening does: one kernel in cones and no Gram system.
"""

import random

import pytest

from toric_spectrum import Generators, cones, enumerate_faces, semigroups

from helpers import (
    FULL_LINE,
    SOLVER_NAMES,
    nested_tower,
    package_definitions,
    random_tower,
    ref_flatten,
    tower_chain,
)

# bases that span no lattice of their own rank, the empty one included
SHORT_BASES = (Generators(0, ()), Generators(2, ()), Generators(2, ((1, 0),)),
               Generators(3, ((1, 0, 0), (0, 1, 0))))
# bases with lineality, and bases with a zero or a duplicate generator
LINE_BASES = (FULL_LINE, Generators(2, ((1, 0), (-1, 0), (0, 1))),
              Generators(3, ((1, 1, 0), (-1, -1, 0), (0, 0, 1))))
ODD_BASES = (Generators(0, ((),)), Generators(2, ((0, 0), (1, 1), (1, 1), (2, -1))),
             Generators(2, ((2, 0), (2, 0), (0, 0), (0, 3))), Generators(1, ((0,), (2,), (2,))))

CORPUS = ([random_tower(random.Random(f"flag:{d}:{i}"), d) for d in range(1, 9) for i in range(4)]
          + [tower_chain(random.Random(f"flag:chain:{d}"), d) for d in range(1, 13)]
          + [nested_tower(d) for d in range(1, 41)]
          + [random_tower(random.Random(f"flag:{base}:{d}"), d, (base,))
             for base in SHORT_BASES + LINE_BASES + ODD_BASES for d in range(1, 5)])


@pytest.mark.parametrize("spec", CORPUS)
def test_flatten_and_atlas_equal_the_per_level_route(monkeypatch, spec):
    assert semigroups._flatten.__wrapped__(spec) == ref_flatten(spec)
    atlas = enumerate_faces(spec)
    monkeypatch.setattr(semigroups, "_flatten", ref_flatten)
    assert enumerate_faces(spec) == atlas


@pytest.mark.parametrize("spec", [tower_chain(random.Random(1), 8), nested_tower(40)])
def test_cold_flatten_solves_one_gram_system_and_one_cone_kernel(counted, spec):
    # no Gram system is solved at all: the base's normals map back out of
    # its span as B^T a, and no module has a rational solver to call; the
    # one kernel in cones is the base's local lineality
    assert package_definitions(SOLVER_NAMES) == []
    calls, count = counted
    semigroups._flatten.cache_clear()
    count(cones, "int_kernel")
    semigroups._flatten(spec)
    assert calls["int_kernel"] == 1
