"""The membership search: the same answers as the weight-range reference,
and the work it saves counted.

The search reads each generator's coefficient range off the cone's
inequalities, so no child leaves the cone and the cone is tested once per
query, and it solves the last generator in closed form.  The reference
(``helpers.ref_contains``) runs the weight range with a cone test per state.
A numerical semigroup within the table's bounds is answered by one lookup in
its Apery table instead, checked against brute-force reachability too.
"""

import random
from itertools import product

from toric_spectrum import Generators, MembershipUndecided, Tower, cones, contains, semigroups
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
    skew_normal,
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
    # the quadrant searches (0, 1) first, by weight and then order; at (1, 0)
    # its only coefficient is 0, and the last generator, (1, 0), is solved in
    # closed form at the second node
    quadrant = Generators(2, ((1, 0), (0, 1)))
    assert contains(quadrant, (1, 0), max_nodes=2) is True
    with pytest.raises(MembershipUndecided):
        contains(quadrant, (1, 0), max_nodes=1)


# The least budget that decides each query, pinned: a node is one state
# expanded, the closed-form check included, and a change to how a state is
# computed must not change which states are expanded.
LEAST_BUDGETS = [
    (RANK3, ladder(5), True, 694),
    (RANK3, ladder(20), True, 4_214),
    (UNIT_SPECS[1], (17, 9, 29), True, 24),
    (UNIT_SPECS[1], (-9, -4, 31), True, 13),
    (MEMBER_SPECS[5], (2, 5, 4), True, 5),   # a tower at height zero
    (MEMBER_SPECS[5], (5, 5, 5), False, 5),
]


@pytest.mark.parametrize("spec, x, expected, nodes", LEAST_BUDGETS,
                         ids=["k5", "k20", "units-member", "units-member2",
                              "tower-member", "tower-nonmember"])
def test_the_least_budget_of_each_query_is_pinned(spec, x, expected, nodes):
    assert contains(spec, x, max_nodes=nodes) is expected
    with pytest.raises(MembershipUndecided):
        contains(spec, x, max_nodes=nodes - 1)


def test_a_pointed_search_takes_no_residue(monkeypatch):
    # with no units a remainder is its own residue, so only a spec with a
    # group of units reduces its remainders
    calls = []
    original = semigroups.lattice_residue

    def counted(lattice, point):
        calls.append(point)
        return original(lattice, point)

    monkeypatch.setattr(semigroups, "lattice_residue", counted)
    for k in (5, 20):
        assert contains(RANK3, ladder(k)) is True
    assert contains(MEMBER_SPECS[5], (5, 5, 5)) is False
    assert calls == []
    assert contains(UNIT_SPECS[1], (17, 9, 29)) is True
    assert calls


# ---------------------------------------------------------------------------
# numerical semigroups: the Apery table

# the rank-1 spec of the ROADMAP baseline, whose search takes about 10^6
# nodes at 10^7 + 3
BASELINE_RANK1 = Generators(1, ((10007,), (10009,), (10037,), (10039,)))


def reachable(steps, bound):
    """Brute-force reachability: bit m of the result, m <= bound, is set iff
    m is a sum of the steps.  Shifting by c, 2c, 4c, ... adds every multiple
    of c up to the bound."""
    bits, mask = 1, (2 << bound) - 1
    for c in filter(None, set(steps)):
        while c <= bound:
            bits |= (bits << c) & mask
            c *= 2
    return bits


def ray_cases(seed):
    """Numerical semigroups on a ray, as ``(spec, rho, multiples)``: random
    multiples of either sign of a primitive ray rho in Z^1, Z^3 or Z^5, some
    with gcd > 1, a zero or a duplicate generator, or the least multiple 1;
    and towers of depth 1 to 3 over a rank-1 one, whose ray is the embedded
    base ray, at height zero on every level."""
    rng = random.Random(seed)
    for i in range(160):
        scale = rng.choice((1, 1, 2, 3, 6))
        steps = [scale * rng.randint(1, 25) for _ in range(rng.randint(1, 6))]
        steps += [0] * (rng.random() < 0.2) + [rng.choice(steps)] * (rng.random() < 0.2)
        steps += [scale] * (rng.random() < 0.1)
        rng.shuffle(steps)
        sign = rng.choice((1, -1))
        if i % 4 == 3:
            base = Generators(1, tuple((sign * c,) for c in steps))
            spec = random_tower(rng, rng.randint(1, 3), bases=(base,))
            c, g = next((c, g) for c, g in zip(steps, _flatten(spec)[1].generators) if c)
            rho = tuple(v // c for v in g)
        else:
            n = rng.choice((1, 3, 5))
            rho = tuple(sign * v for v in skew_normal(rng, n)) if n > 1 else (sign,)
            spec = Generators(n, tuple(tuple(c * v for v in rho) for c in steps))
        yield spec, rho, steps


def test_the_apery_table_matches_brute_force_and_the_search():
    # every multiple m of the ray from -3 to three times the largest
    # generator, one lookup each, and a point off the ray beside each tenth
    queries = 0
    for spec, rho, steps in ray_cases("apery"):
        bound = 3 * max(steps)
        reach = reachable(steps, bound)
        for m in range(-3, bound + 1):
            x = tuple(m * v for v in rho)
            expected = m >= 0 and bool(reach >> m & 1)
            assert contains(spec, x, max_nodes=1) is expected == ref_contains(spec, x), (spec, m)
            queries += 1
            if m % 10 == 0 and len(x) > 1:
                y = (x[0] + 1,) + x[1:]
                assert contains(spec, y, max_nodes=1) is ref_contains(spec, y), (spec, y)
                queries += 1
    assert queries >= 20_000


@pytest.mark.parametrize("steps, searched", [
    ((16384, 16385), False),               # a at APERY_MAX_MODULUS
    ((16385, 16387), True),                # a one over it
    (tuple(range(16384, 16448)), False),   # a k = 2^20, APERY_MAX_WORK
    (tuple(range(16384, 16449)), True),    # a k = 2^20 + 2^14
    ((3, 2 ** 62 - 1), False),             # (a - 1) max = 2^63 - 2, in 8 bytes
    ((3, 2 ** 62), True),                  # (a - 1) max = 2^63
], ids=["modulus", "modulus+1", "work", "work+1", "int64", "int64+1"])
def test_specs_over_the_bounds_take_the_search(steps, searched):
    spec = Generators(1, tuple((c,) for c in steps))
    a, b = steps[0], steps[-1]
    points = [0, 1, a - 1, a, a + 1, b, 2 * a, a + b, 2 * b, 2 * b + 1, 3 * a - 1, 3 * b]
    if len(steps) == 2:
        # x = i a + j b with j < a, since a copies of b are b copies of a
        expected = [any(m >= j * b and (m - j * b) % a == 0 for j in range(a)) for m in points]
    else:
        reach = reachable(steps, 3 * b)
        expected = [bool(reach >> m & 1) for m in points]
        assert expected == [ref_contains(spec, (m,)) for m in points]
    assert [contains(spec, (m,)) for m in points] == expected
    # 1 lies below every generator: one lookup, or a root and a child
    if searched:
        with pytest.raises(MembershipUndecided):
            contains(spec, (1,), max_nodes=1)
    else:
        assert contains(spec, (1,), max_nodes=1) is False


def test_the_baseline_rank1_spec_is_decided_by_one_lookup():
    assert contains(BASELINE_RANK1, (10 ** 7 + 3,), max_nodes=1) is True
    assert contains(BASELINE_RANK1, (10 ** 7 + 3,)) is True


def test_a_budget_of_zero_refuses_the_lookup():
    contains(GAP_NUMERIC, (2,))
    with pytest.raises(MembershipUndecided):
        contains(GAP_NUMERIC, (2,), max_nodes=0)
    with pytest.raises(MembershipUndecided):
        contains(BASELINE_RANK1, (10 ** 7 + 3,), max_nodes=0)


def test_a_spec_over_the_work_bound_is_searched():
    # 1500 generators from 1500: a k = 2,250,000, over APERY_MAX_WORK
    wide = Generators(1, tuple((g,) for g in range(1500, 3000)))
    with pytest.raises(MembershipUndecided):
        contains(wide, (1,), max_nodes=1)
    assert contains(wide, (1,)) is False
