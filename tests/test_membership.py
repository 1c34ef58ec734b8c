"""The membership search: the same answers as the weight-range reference,
and the work it saves counted.

The search reads each generator's coefficient range off the cone's
inequalities, so no child leaves the cone and the cone is tested once per
query, and it solves the last generator in closed form.  The reference
(``helpers.ref_contains``) runs the weight range with a cone test per state.
"""

import random
from itertools import product

from toric_spectrum import Generators, MembershipUndecided, Tower, cones, contains
from toric_spectrum.semigroups import _flatten

import pytest

from helpers import (
    EVEN_AXIS,
    FIXTURES,
    FULL_LINE,
    GAP_NUMERIC,
    HALF_LINE,
    TORSION_BASES,
    random_tower,
    ref_contains,
)

# the rank-3 spec of the benchmark's membership ladder (5k+3, 7k+1, 9k+2)
RANK3 = Generators(3, ((5, 0, 0), (0, 7, 0), (0, 0, 9), (2, 3, 1), (1, 1, 4)))

# a rank-5 spec whose weight-range search is undecided after 200,000 nodes
# at (-3, 3, 4, 2, 1)
RANK5 = Generators(5, ((-1, -2, 0, 1, -2), (0, 2, -1, 1, 1), (-1, 0, 0, -2, 1),
                       (2, -1, 1, 1, 2), (0, 2, 2, -2, -2), (0, -1, -1, -1, 2)))


def ladder(k):
    return (5 * k + 3, 7 * k + 1, 9 * k + 2)


# the seven specs of the benchmark's member workload
MEMBER_SPECS = (
    Generators(1, ((7,), (11,))),
    Generators(1, ((11,), (13,), (17,), (23,))),
    Generators(1, ((31,), (37,), (41,), (43,), (47,), (53,), (59,))),
    Generators(1, ((12,), (21,), (27,))),
    RANK3,
    Tower(3, (1, 2, -3), EVEN_AXIS),
    Tower(3, (2, -1, 3), Generators(2, ((3, 0), (0, 2), (1, 1)))),
)

# specs with a group of units
UNIT_SPECS = (
    Generators(2, ((2, 0), (-2, 0), (1, 1))),
    Generators(3, ((4, 2, 0), (-4, -2, 0), (1, 1, 1), (0, 0, 1), (3, 0, 5))),
    Generators(1, ((3,), (-3,))),
    random_tower(random.Random("dd:member"), 3),
)

SMALL_SPECS = (Generators(0, ()), Generators(0, ((),)), GAP_NUMERIC, HALF_LINE, FULL_LINE,
               Generators(1, ((2,),)), Generators(1, ((0,), (4,), (6,))))

TOWERS = tuple(random_tower(random.Random(f"member:{depth}:{i}"), depth)
               for depth in (1, 2, 3, 4) for i in range(3))

CORPUS = MEMBER_SPECS + UNIT_SPECS + TORSION_BASES + SMALL_SPECS + FIXTURES + TOWERS


def targets(spec, seed):
    """The box of radius 4 (300 of its points from rank 4 up), sums of the
    flattened generators with coefficients in [-3, 3], so that a tower is
    queried at height zero too, and in rank 1 every point up to four times
    the largest generator."""
    rng = random.Random(seed)
    n = spec.ambient_rank
    if n <= 3:
        out = list(product(range(-4, 5), repeat=n))
    else:
        out = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(300)]
    gens = _flatten(spec)[1].generators
    for _ in range(100 if gens else 0):
        coeffs = [rng.randint(-3, 3) for _ in gens]
        out.append(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)))
    if n == 1:
        out += [(v,) for v in range(-4, 4 * max((abs(g[0]) for g in gens), default=1) + 1)]
    return out


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_contains_matches_the_weight_range_search(index):
    spec = CORPUS[index]
    points = targets(spec, f"member:{index}")
    if spec is RANK3:
        points += [ladder(k) for k in range(11)]
    assert [contains(spec, x) for x in points] == [ref_contains(spec, x) for x in points]


def test_rank3_ladder_at_k60_is_decided_within_20000_nodes():
    assert contains(RANK3, ladder(60), max_nodes=20_000) is True


def test_rank5_spec_is_refused_within_400000_nodes():
    assert contains(RANK5, (-3, 3, 4, 2, 1), max_nodes=400_000) is False


def test_the_cone_is_tested_once_per_query(monkeypatch):
    # every state stays in the cone by its coefficient range, so only the
    # root is tested
    queries = [(RANK3, ladder(k)) for k in range(1, 11)]
    queries += [(RANK3, x) for x in product(range(-2, 5), repeat=3) if any(x)]
    queries += [(spec, x) for spec in UNIT_SPECS[:3] + (EVEN_AXIS, GAP_NUMERIC)
                for x in product(range(-3, 6), repeat=spec.ambient_rank) if any(x)]
    for spec, x in queries:
        contains(spec, x)
    calls = []
    original = cones.Cone.contains

    def counted(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(cones.Cone, "contains", counted)
    for spec, x in queries:
        calls.clear()
        contains(spec, x)
        assert len(calls) == 1, (spec, x)


def test_a_budget_counts_the_closed_form_check():
    # <2, 3> searches 3 first, by weight; at (2,) its only coefficient is 0,
    # and the last generator, 2, is solved in closed form at the second node
    assert contains(GAP_NUMERIC, (2,), max_nodes=2) is True
    with pytest.raises(MembershipUndecided):
        contains(GAP_NUMERIC, (2,), max_nodes=1)
