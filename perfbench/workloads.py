"""The benchmark workloads: seeded inputs, timed operations and their checks.

Each workload draws its inputs from ``random.Random("<name>:<seed>")`` alone
and runs as a closed loop: one operation at a time, the next one starting
only after the previous one returned and was checked.  An operation is an
:class:`Op`: ``run`` is the timed call into the library, ``check`` verifies
its result, untimed, against a reference that does not come from the code
under test (``reference.py``, ``toric_spectrum.oracle`` or exact algebraic
laws).  Operation kinds follow a fixed 20-slot cycle per workload, so every
seed gets the same mix and p50 and p90 each fall inside one size band.
"""

import hashlib
import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

import reference as ref

Op = namedtuple("Op", "run check")

EVEN_AXIS = ((2, 0), (0, 1), (1, 1))
ROADMAP_RANK3 = ((5, 0, 0), (0, 7, 0), (0, 0, 9), (2, 3, 1), (1, 1, 4))
LADDER_K = (5, 10, 20, 30)
LADDER_DEPTH = (2, 4, 6, 8)
LADDER_RANK = (3, 4, 5)

# sha256 of the analyze_document output of the first DIGEST_OPS operations at
# seed 0; a change of the printed atlas counts as a failed check
DIGEST_OPS = 8
FROZEN_DIGESTS = {
    "atlas": "0ef557ab4b842a678b5a6b5648c3df666b5417cd1aac0d888c38542cce1c5c6a",
    "tower": "cc47a8afb8e036bc134304a1d4e9772cc4b6310027f53a2825d864f703caa1e2",
}


# ---------------------------------------------------------------------------
# plain input data: ("gens", n, generators) or ("tower", n, normal, inner)


def pointed_generators(rng, n, m, coord=3):
    """m generators of full rank n, all strictly positive on one functional,
    so the cone they span is pointed."""
    w = [rng.randint(1, 3) for _ in range(n)]
    while True:
        gens = []
        while len(gens) < m:
            g = tuple(rng.randint(-coord, coord) for _ in range(n))
            if ref.dot(w, g) > 0:
                gens.append(g)
        if ref.rank(gens) == n:
            return tuple(gens)


def with_line(rng, n, m):
    """Pointed generators plus a line, so the cone has lineality."""
    line = (0,) * n
    while not any(line):
        line = tuple(rng.randint(-2, 2) for _ in range(n))
    return pointed_generators(rng, n, m) + (line, tuple(-a for a in line))


def skew_normal(rng, n):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        if math.gcd(*v) == 1:
            return v


def tower_chain(rng, depth):
    """Towers of the given depth over the even-axis boundary (torsion Z/2),
    each level with a skewed primitive normal."""
    plain = ("gens", 2, EVEN_AXIS)
    for level in range(depth):
        n = 3 + level
        plain = ("tower", n, skew_normal(rng, n), plain)
    return plain


def build(lib, plain):
    if plain[0] == "gens":
        return lib.semigroups.Generators(plain[1], plain[2])
    return lib.semigroups.Tower(plain[1], plain[2], build(lib, plain[3]))


def document(plain):
    if plain[0] == "gens":
        return {"kind": "generators", "ambient_rank": plain[1],
                "generators": [list(g) for g in plain[2]]}
    return {"kind": "tower", "ambient_rank": plain[1], "normal": list(plain[2]),
            "inner": document(plain[3])}


def atlas_spec(rng, kind):
    """``r<n>.<m>``: m pointed generators of rank n; ``r<n>l``: n pointed
    generators plus a line."""
    n = int(kind[1])
    if kind.endswith("l"):
        return ("gens", n, with_line(rng, n, n))
    return ("gens", n, pointed_generators(rng, n, int(kind[3:])))


def ladder_inputs(seed):
    """Inputs of the scaling ladders: three specs per rank and per tower
    depth, and the rank-3 membership target (5k+3, 7k+1, 9k+2) per k."""
    rng = random.Random(f"ladder:{seed}")
    ranks = {r: [("gens", r, pointed_generators(rng, r, r + 2)) for _ in range(3)]
             for r in LADDER_RANK}
    depths = {d: [tower_chain(rng, d) for _ in range(3)] for d in LADDER_DEPTH}
    targets = {k: (5 * k + 3, 7 * k + 1, 9 * k + 2) for k in LADDER_K}
    return ranks, depths, targets


class Workload:
    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cli_rng = random.Random(f"{self.name}-cli:{seed}")

    def prepare(self, lib, api):
        """Preparation calls into the library, timed as part of setup_s."""

    def references(self, lib):
        """Reference data that needs the package (the oracle), computed after
        set-up and outside every timed region."""

    def operations(self, lib, api):
        raise NotImplementedError

    def cli_cases(self, lib):
        """(argv, spec document) pairs for the CLI timing; ``{path}`` in argv
        stands for the file the document is written to."""
        raise NotImplementedError

    def faces_of(self, result):
        return 0


# ---------------------------------------------------------------------------
# atlas and tower: enumerate_faces plus analyze_document on a fresh spec


class Atlas(Workload):
    """Fresh random generator specs of rank 3 to 5, pointed and with
    lineality: double description and the face lattice (cones) plus HNF and
    Smith form (intlinalg).  A fresh spec per operation keeps the
    face_lattice cache from answering repeated specs."""

    name = "atlas"
    # by time: rank 3 with a line (20%), rank 3 with 4-6 generators (50%,
    # holds p50 in its middle), rank 4 with and without a line (10%),
    # rank-5 simplicial (20%, always 32 faces, holds p90 in its middle)
    CYCLE = ("r3.4", "r5.5", "r3l", "r3.5", "r3.6", "r4.5", "r3l", "r3.5", "r5.5", "r3.4",
             "r3l", "r3.6", "r3.5", "r5.5", "r4l", "r3.4", "r3l", "r3.6", "r5.5", "r3.5")

    def next_spec(self, i):
        return atlas_spec(self.rng, self.CYCLE[i % len(self.CYCLE)])

    def operations(self, lib, api):
        digest = hashlib.sha256()
        box = lib.oracle.BoxSpec(2)
        i = 0
        while True:
            plain = self.next_spec(i)
            spec = build(lib, plain)

            def run(spec=spec):
                atlas = api.enumerate_faces(spec)
                return atlas, api.analyze_document(atlas)

            def check(result, spec=spec, i=i):
                atlas, doc = result
                ok = lib.semigroups.validate_atlas(atlas) == []
                if spec.ambient_rank <= 3:
                    members = lib.oracle.oracle_members(spec, box)
                    ours = {frozenset(x for x in members if f.cone.contains(x))
                            for f in atlas.faces}
                    ok = ok and ours == lib.oracle.brute_force_faces(spec, box)
                if self.seed == 0 and i < DIGEST_OPS:
                    digest.update(json.dumps(doc).encode() + b"\n")
                    if i == DIGEST_OPS - 1:
                        ok = ok and digest.hexdigest() == FROZEN_DIGESTS[self.name]
                return ok

            yield Op(run, check)
            i += 1

    def faces_of(self, result):
        return len(result[0].faces)

    def cli_cases(self, lib):
        return [(["analyze", "--json", "{path}"], document(atlas_spec(self.cli_rng, "r3.5")))]


class TowerChains(Atlas):
    """Tower chains of depth 1 to 5 over the even-axis boundary with skewed
    normals: the O(depth^2) re-embedding and re-running of double description
    in semigroups._tower_raw_faces, at many small ranks."""

    name = "tower"
    # by time: depth 1 (15%), 2 (20%), 3 (25%, holds p50 in its middle),
    # 4 (20%), 5 (20%, holds p90 in its middle)
    CYCLE = (1, 3, 2, 4, 5, 3, 1, 2, 3, 5, 4, 2, 3, 5, 1, 4, 3, 2, 5, 4)

    def next_spec(self, i):
        return tower_chain(self.rng, self.CYCLE[i % len(self.CYCLE)])

    def cli_cases(self, lib):
        return [(["analyze", "--json", "{path}"], document(tower_chain(self.cli_rng, 2)))]


# ---------------------------------------------------------------------------
# member: contains and hull_contains against fixed specs


class Member(Workload):
    """Membership queries on a fixed set of specs: numerical semigroups with
    2 to 7 generators (one with all generators divisible by 3), the rank-3
    spec of the ROADMAP and two towers queried at height 0.  Targets mix members, points outside the
    cone, points off the lattice and gaps near the Frobenius number; the
    rank-3 targets climb a size ladder.  The depth-first search in
    semigroups.contains does the work; double description runs once per spec
    and lands in setup_s."""

    name = "member"
    # by time: 7 sub-0.2 ms slots, 4 slots of about 0.2-0.3 ms holding p50,
    # 2 slower rank-1 slots, the rank-3 ladder k=1..3, and k=4,5,5,6 holding
    # p90 between the two k=5 slots
    CYCLE = (("hull", "n3x", "any"), ("contains", "t_even", "height0"),
             ("contains", "r3", "k1"), ("contains", "r3", "k4"),
             ("contains", "n2", "outside"), ("contains", "t_num", "height0"),
             ("contains", "r3", "combo"), ("contains", "r3", "k5"),
             ("contains", "n7", "gap"), ("contains", "r3", "outside"),
             ("contains", "n4", "gap"), ("contains", "r3", "k2"),
             ("hull", "r3", "any"), ("contains", "n7", "member"),
             ("contains", "r3", "k5"), ("contains", "n3x", "offlattice"),
             ("contains", "n2", "member"), ("contains", "r3", "k3"),
             ("contains", "r3", "combo"), ("contains", "r3", "k6"))
    RANK3_BOUNDS = (33, 43, 56)

    # the fixed specs; the seed chooses the targets
    PLAIN = {
        "n2": ("gens", 1, ((7,), (11,))),
        "n4": ("gens", 1, ((11,), (13,), (17,), (23,))),
        "n7": ("gens", 1, ((31,), (37,), (41,), (43,), (47,), (53,), (59,))),
        "n3x": ("gens", 1, ((12,), (21,), (27,))),
        "r3": ("gens", 3, ROADMAP_RANK3),
        "t_even": ("tower", 3, (1, 2, -3), ("gens", 2, EVEN_AXIS)),
        "t_num": ("tower", 3, (2, -1, 3), ("gens", 2, ((3, 0), (0, 2), (1, 1)))),
    }

    def __init__(self, seed):
        super().__init__(seed)
        self.tables = {}
        for key in ("n2", "n4", "n7", "n3x"):
            gens = self.PLAIN[key][2]
            bound = 4 * gens[0][0] * gens[-1][0]
            self.tables[key] = ref.reach_table(gens, (bound,))
        self.tables["r3"] = ref.reach_table(ROADMAP_RANK3, self.RANK3_BOUNDS)
        self.frobenius = {}
        for key in ("n2", "n4", "n7"):
            table = self.tables[key][0]
            self.frobenius[key] = max(x for x, v in enumerate(table) if v < 0)
        self.boundary = {key: [x for x in product(range(-3, 4), repeat=3)
                               if any(x) and ref.dot(self.PLAIN[key][2], x) == 0]
                         for key in ("t_even", "t_num")}

    def prepare(self, lib, api):
        self.specs = {key: build(lib, p) for key, p in self.PLAIN.items()}
        for key, spec in self.specs.items():
            point = self.boundary[key][0] if key in self.boundary else self.PLAIN[key][2][0]
            lib.semigroups.contains(spec, point)
        self.atlases = {key: lib.semigroups.enumerate_faces(self.specs[key])
                        for key in ("n3x", "r3")}

    def references(self, lib):
        self.box_members = {key: lib.oracle.oracle_members(self.specs[key],
                                                           lib.oracle.BoxSpec(3))
                            for key in self.boundary}

    def target(self, key, kind):
        rng = self.rng
        gens = self.PLAIN[key][2] if key in self.tables else None
        if kind.startswith("k"):
            k = int(kind[1:])
            return (5 * k + 3, 7 * k + 1, 9 * k + 2)
        if kind == "combo":
            return ref.combination(gens, [rng.randint(0, 2) for _ in gens])
        if kind == "outside":
            x = [rng.randint(0, 9) for _ in range(len(gens[0]))]
            x[rng.randrange(len(x))] = -rng.randint(1, 9)
            return tuple(x)
        if kind == "height0":
            return rng.choice(self.boundary[key])
        if kind == "offlattice":
            return (rng.choice([x for x in range(1, 200) if x % 3]),)
        if kind == "any" and key == "r3":
            return tuple(rng.randint(-2, 12) for _ in range(3))
        if kind == "any":
            return (rng.randint(-10, 120),)
        table = self.tables[key][0]
        f = self.frobenius[key]
        if kind == "gap":
            return (rng.choice([x for x in range(f // 2, f + 1) if table[x] < 0]),)
        return (rng.choice([x for x in range(f + 1, 4 * f) if table[x] >= 0]),)

    def answer(self, op, key, x):
        """Reference answer with its certificate: ("witness", coeffs),
        ("functional", w), ("modulus", d), ("exhaustive",), ("oracle",) or
        ("hull",)."""
        if op == "hull":
            return self.hull_answer(key, x), ("hull",)
        if key in self.box_members:
            return x in self.box_members[key], ("oracle",)
        gens = self.PLAIN[key][2]
        for axis, value in enumerate(x):
            if value < 0:
                return False, ("functional", tuple(int(i == axis) for i in range(len(x))))
        if key == "n3x" and x[0] % 3:
            return False, ("modulus", 3)
        table, strides = self.tables[key]
        coeffs = ref.dp_witness(gens, table, strides, x)
        return (True, ("witness", coeffs)) if coeffs is not None else (False, ("exhaustive",))

    def hull_answer(self, key, x):
        """The hull is the union over faces of (relative interior of the face
        cone) intersected with (group of the generators on the face).  Both
        reference specs here have nonnegative generators spanning the
        orthant with every coordinate axis generated, so the face of x is the
        coordinate face of its support."""
        if any(v < 0 for v in x):
            return False
        support = [i for i, v in enumerate(x) if v]
        if not support:
            return True
        gens = [tuple(g[i] for i in support) for g in self.PLAIN[key][2]
                if all(g[i] == 0 for i in range(len(x)) if i not in support)]
        return ref.in_lattice(gens, tuple(x[i] for i in support))

    @staticmethod
    def certificate_holds(gens, x, cert):
        kind = cert[0]
        if kind == "witness":
            return all(c >= 0 for c in cert[1]) and ref.combination(gens, cert[1]) == x
        if kind == "functional":
            return all(ref.dot(cert[1], g) >= 0 for g in gens) and ref.dot(cert[1], x) < 0
        if kind == "modulus":
            return all(a % cert[1] == 0 for g in gens for a in g) and any(a % cert[1] for a in x)
        return True

    def operations(self, lib, api):
        i = 0
        while True:
            op, key, kind = self.CYCLE[i % len(self.CYCLE)]
            x = self.target(key, kind)
            expected, cert = self.answer(op, key, x)
            if op == "hull":
                def run(atlas=self.atlases[key], x=x):
                    return api.hull_contains(atlas, x)
            else:
                def run(spec=self.specs[key], x=x):
                    return api.contains(spec, x)

            def check(result, key=key, x=x, expected=expected, cert=cert):
                gens = self.PLAIN[key][2] if self.PLAIN[key][0] == "gens" else ()
                return result == expected and self.certificate_holds(gens, x, cert)

            yield Op(run, check)
            i += 1

    def cli_cases(self, lib):
        x = self.target("r3", "k5")
        return [(["member", "{path}", *map(str, x)], document(self.PLAIN["r3"]))]


# ---------------------------------------------------------------------------
# chars: character operations on atlases built during setup


def expected_product(characters, a, b):
    """Reference value of chi_a * chi_b at a point, from the two values."""
    return characters.multiply_values(a, b)


class Chars(Workload):
    """Character operations on atlases built in setup: multiply, involute,
    polar_decompose, evaluate, ray_limit, chain_of_rays and
    idempotent_lattice_ops.  Each multiply recomputes the meet scan and the
    restriction matrices, so precomputed atlas tables would show here (and
    their cost in atlas and in this workload's setup_s)."""

    name = "chars"
    # by time: involute, polar and lattice ops (30%), multiply (40%, holds
    # p50), evaluate, ray_limit and chain_of_rays (30%, p90 among the
    # ray_limit slots)
    CYCLE = ("multiply", "lattice_ops", "ray_limit", "multiply", "involute",
             "multiply", "evaluate", "multiply", "polar", "ray_limit",
             "multiply", "lattice_ops", "chain", "multiply", "involute",
             "evaluate", "multiply", "ray_limit", "multiply", "lattice_ops")

    # fixed atlases, so that only the operations depend on the seed: a cone
    # over a cube (28 faces, torsion (2,2,2)), a cone over a pentagon, a
    # skewed simplicial cone (torsion 28), a cone with lineality and the
    # even-axis quadrant
    PLAIN = (("gens", 4, tuple((1,) + v for v in product((-1, 1), repeat=3))),
             ("gens", 3, ((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -2, 1))),
             ("gens", 4, ((2, 1, 0, 0), (0, 3, 1, 0), (0, 0, 1, 2), (1, 0, 0, 5))),
             ("gens", 3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 2))),
             ("gens", 2, EVEN_AXIS))

    def prepare(self, lib, api):
        self.specs = [build(lib, p) for p in self.PLAIN]
        self.atlases = [lib.semigroups.enumerate_faces(s) for s in self.specs]
        for spec, plain in zip(self.specs, self.PLAIN):
            lib.semigroups.contains(spec, plain[2][0])

    def character(self, lib, atlas, face_id):
        rng = self.rng
        face = atlas.faces[face_id]
        q = rng.choice((2, 3, 4, 6))
        theta = tuple(Fraction(rng.randrange(q), q) for _ in range(face.rank))
        lam = [Fraction(0)] * face.rank
        dual = face.dual_cone_local
        for r in dual.rays:
            c = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
            lam = [a + c * b for a, b in zip(lam, r)]
        for line in dual.lineality:
            c = rng.randint(-1, 1)
            lam = [a + c * b for a, b in zip(lam, line)]
        return lib.characters.Character(face_id, theta, tuple(lam))

    def member(self, plain):
        gens = plain[2]
        return ref.combination(gens, [self.rng.randint(0, 2) for _ in gens])

    def operations(self, lib, api):
        C = lib.characters
        rng = self.rng
        i = 0
        while True:
            kind = self.CYCLE[i % len(self.CYCLE)]
            which = rng.randrange(len(self.atlases))
            atlas, plain = self.atlases[which], self.PLAIN[which]
            faces = range(len(atlas.faces))
            leq = atlas.leq

            def absorbs(face, ray):
                """The ray's decay vanishes on the face: the idempotent of the
                face absorbs the ray's character at t = 1."""
                e = C.idempotent(atlas, face)
                return C.multiply(atlas, e, C.ray_point(atlas, ray, 1)) == e

            def lands_on(ray, target):
                return (target != ray.base_face_id and leq(target, ray.base_face_id)
                        and absorbs(target, ray)
                        and all(leq(f, target) for f in faces
                                if leq(f, ray.base_face_id) and absorbs(f, ray)))

            chi = self.character(lib, atlas, rng.choice(faces))
            x = self.member(plain)
            if kind == "multiply":
                b = self.character(lib, atlas, rng.choice(faces))
                c = self.character(lib, atlas, rng.choice(faces))

                def run(chi=chi, b=b):
                    return api.multiply(atlas, chi, b)

                def check(p, chi=chi, b=b, c=c, x=x):
                    return (p == C.multiply(atlas, b, chi)
                            and C.multiply(atlas, p, c)
                            == C.multiply(atlas, chi, C.multiply(atlas, b, c))
                            and C.evaluate(atlas, p, x) == expected_product(
                                C, C.evaluate(atlas, chi, x), C.evaluate(atlas, b, x)))
            elif kind == "involute":
                def run(chi=chi):
                    return api.involute(atlas, chi)

                def check(j, chi=chi, x=x):
                    v, w = C.evaluate(atlas, chi, x), C.evaluate(atlas, j, x)
                    return (C.involute(atlas, j) == chi and v.zero == w.zero
                            and (v.zero or (w.angle == -v.angle % 1
                                            and w.exponent == v.exponent)))
            elif kind == "polar":
                def run(chi=chi):
                    return api.polar_decompose(atlas, chi)

                def check(parts, chi=chi):
                    unitary, radial = parts
                    return (not any(unitary.lam) and not any(radial.theta)
                            and C.multiply(atlas, unitary, radial) == chi)
            elif kind == "evaluate":
                y = self.member(plain)

                def run(chi=chi, x=x):
                    return api.evaluate(atlas, chi, x)

                def check(v, chi=chi, x=x, y=y):
                    both = tuple(a + b for a, b in zip(x, y))
                    return C.evaluate(atlas, chi, both) == expected_product(
                        C, v, C.evaluate(atlas, chi, y))
            elif kind == "ray_limit":
                ray = C.Ray(chi.face_id, chi.lam)

                def run(ray=ray):
                    return api.ray_limit(atlas, ray)

                def check(limit, ray=ray):
                    if not any(ray.lam):
                        return limit == ray.base_face_id
                    return lands_on(ray, limit)
            elif kind == "chain":
                start = rng.choice([f for f in faces if any(leq(g, f) for g in faces if g != f)])
                end = rng.choice([f for f in faces if f != start and leq(f, start)])

                def run(start=start, end=end):
                    return api.chain_of_rays(atlas, start, end)

                def check(rays, start=start, end=end):
                    landings = [r.base_face_id for r in rays[1:]] + [end]
                    return (bool(rays) and rays[0].base_face_id == start
                            and len(rays) <= atlas.faces[start].rank - atlas.faces[end].rank
                            and all(lands_on(r, t) for r, t in zip(rays, landings)))
            else:
                ids = rng.sample(list(faces), min(len(atlas.faces), rng.randint(2, 4)))

                def run(ids=ids):
                    return api.idempotent_lattice_ops(atlas, ids)

                def check(bounds, ids=ids):
                    inf, sup = bounds
                    product = C.idempotent(atlas, ids[0])
                    for j in ids[1:]:
                        product = C.multiply(atlas, product, C.idempotent(atlas, j))
                    below = [f for f in faces if all(leq(f, j) for j in ids)]
                    above = [f for f in faces if all(leq(j, f) for j in ids)]
                    return (product == C.idempotent(atlas, inf)
                            and inf in below and all(leq(f, inf) for f in below)
                            and sup in above and all(leq(sup, f) for f in above))

            yield Op(run, check)
            i += 1

    def cli_cases(self, lib):
        atlas, plain = self.atlases[1], self.PLAIN[1]
        rng = self.cli_rng
        least = atlas.minimal_id
        tokens = []
        for _ in range(2):
            face = rng.randrange(len(atlas.faces))
            rank = atlas.faces[face].rank
            lam = [0] * rank
            for r in atlas.faces[face].dual_cone_local.rays:
                lam = [a + b for a, b in zip(lam, r)]
            theta = ",".join(f"1/{rng.choice((2, 3, 4))}" for _ in range(rank))
            tokens += [f"face:{face}", f"theta:{theta}", "lambda:" + ",".join(map(str, lam))]
        return [(["chain", "{path}", "--from", "0", "--to", str(least)], document(plain)),
                (["char", "mul", "{path}", *tokens], document(plain))]


WORKLOADS = {w.name: w for w in (Atlas, TowerChains, Member, Chars)}
