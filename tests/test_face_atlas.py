"""The face atlas read off one face lattice, checked against the per-face
double description it replaces.

The reference below is the old construction: every face cone is converted
from its own generating data (member generators, or the embedded data of a
boundary face) by ``cone_from_rays``, every local cone likewise, and the
order comes from ``cone_contains_cone``.  It lives only here.
"""

import ast
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from toric_spectrum import (
    Generators,
    Tower,
    asymptotic_cone,
    classify,
    contains,
    cone_contains_cone,
    cone_from_inequalities,
    cone_from_rays,
    dual_cone,
    enumerate_faces,
    face_lattice,
    hnf,
    idempotent,
)
from toric_spectrum import cones, semigroups
from toric_spectrum.intlinalg import basis_torsion, dot, full_lattice, primitive_vector
from toric_spectrum.semigroups import _membership_data, boundary_basis, embed_point

from helpers import (FIXTURES, random_tower, rational_coordinates, ref_is_antisymmetric,
                     skew_normal)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toric_spectrum"


def random_spec(rng, n):
    """Generators of rank n, with a line, a duplicate or a zero generator
    thrown in at random."""
    gens = [tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(0, n + 3))]
    if rng.random() < 0.3:
        line = tuple(rng.randint(-2, 2) for _ in range(n))
        gens += [line, tuple(-a for a in line)]
    if gens and rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.3:
        gens.append((0,) * n)
    rng.shuffle(gens)
    return Generators(n, tuple(gens))


GENERATOR_SPECS = [random_spec(random.Random(f"gens:{i}"), 1 + i % 4) for i in range(48)] + \
    [random_spec(random.Random(f"rank5:{i}"), 5) for i in range(3)]
TOWER_SPECS = [random_tower(random.Random(f"tower:{i}"), 1 + i % 4) for i in range(24)]


def reference_faces(spec):
    """(cone, lattice, member generators) of every face, whole semigroup
    first, each cone converted by its own double description."""
    n = spec.ambient_rank
    if isinstance(spec, Generators):
        ambient = asymptotic_cone(spec)
        out = []
        for handle in face_lattice(ambient).faces:
            tight = [ambient.inequalities[i] for i in handle.tight_set]
            members = tuple(g for g in spec.generators if all(dot(a, g) == 0 for a in tight))
            out.append((cone_from_rays(members, (), n), hnf(members, n), members))
        return out
    basis = boundary_basis(spec)
    out = [(cone_from_inequalities([spec.normal], (), n), full_lattice(n), None)]
    for cone, lattice, members in reference_faces(spec.inner):
        out.append((
            cone_from_rays([embed_point(basis, r, n) for r in cone.rays],
                           [embed_point(basis, v, n) for v in cone.lineality], n),
            hnf([embed_point(basis, b, n) for b in lattice.basis], n),
            None if members is None else tuple(embed_point(basis, g, n) for g in members)))
    return out


def reference_local_cone(face):
    def local(v):
        return primitive_vector(rational_coordinates(face.lattice.basis, v))
    return cone_from_rays([local(r) for r in face.cone.rays],
                          [local(v) for v in face.cone.lineality], face.rank)


@pytest.mark.parametrize("spec", GENERATOR_SPECS + TOWER_SPECS)
def test_atlas_matches_per_face_double_description(spec):
    atlas = enumerate_faces(spec)
    reference = reference_faces(spec)
    top, rest = reference[0], reference[1:]
    rest.sort(key=lambda t: (-t[0].dim(), t[0].rays, t[0].lineality))
    assert [(f.cone, f.lattice, f.member_generators) for f in atlas.faces] == [top] + rest
    assert atlas.ambient_cone == atlas.faces[0].cone == asymptotic_cone(spec)
    for face in atlas.faces:
        if isinstance(spec, Generators):
            assert face.member_generators == tuple(
                g for g in spec.generators if face.cone.contains(g))
        assert face.dim == face.cone.dim() == face.rank
        assert face.torsion == basis_torsion(face.lattice.basis)
        assert face.cone_local == reference_local_cone(face)
        assert face.dual_cone_local == dual_cone(face.cone_local)
        assert face.tight_set == tuple(
            i for i, a in enumerate(atlas.ambient_cone.inequalities)
            if all(dot(a, v) == 0 for v in face.cone.rays + face.cone.lineality))
    m = len(atlas.faces)
    for j in range(m):
        for k in range(m):
            assert atlas.leq(j, k) == cone_contains_cone(atlas.faces[j].cone,
                                                         atlas.faces[k].cone)
    reduction = sorted(
        (a, b) for a in range(m) for b in range(m)
        if a != b and atlas.leq(b, a)
        and not any(c not in (a, b) and atlas.leq(b, c) and atlas.leq(c, a)
                    for c in range(m)))
    assert list(atlas.covers) == reduction
    assert atlas.antisymmetric == ref_is_antisymmetric(spec)


def test_tower_half_space_is_canonical():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        spec = Tower(n, skew_normal(rng, n), random_spec(rng, n - 1))
        assert asymptotic_cone(spec) == cone_from_inequalities([spec.normal], (), n)


@pytest.fixture
def dd_runs(monkeypatch):
    """Counts double description runs, with the face lattice and flatten
    caches empty."""
    runs = []
    original = cones._double_description

    def counted(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_double_description", counted)
    cones.face_lattice.cache_clear()
    semigroups._flatten.cache_clear()
    yield runs
    cones.face_lattice.cache_clear()
    semigroups._flatten.cache_clear()


def test_generator_atlas_runs_one_double_description(dd_runs):
    # a cone over a cube (28 faces), a random rank-5 spec and a cone with lineality
    cube = Generators(4, tuple((a, b, c, 1) for a in (0, 1) for b in (0, 1) for c in (0, 1)))
    for spec in (cube, GENERATOR_SPECS[-1], Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 2)))):
        dd_runs.clear()
        atlas = enumerate_faces(spec)
        assert len(dd_runs) == 1, f"{len(dd_runs)} runs for {len(atlas.faces)} faces"


def test_tower_atlas_runs_double_description_for_its_base_only(dd_runs):
    for depth in (1, 2, 4, 6):
        dd_runs.clear()
        atlas = enumerate_faces(random_tower(random.Random(f"dd:{depth}"), depth))
        assert len(atlas.faces) > depth
        assert len(dd_runs) == 1


def test_membership_setup_runs_one_double_description(dd_runs):
    # only the asymptotic cone is converted, with or without a group of units
    specs = (GENERATOR_SPECS[-1], Generators(2, ((2, 0), (-2, 0), (1, 1))),
             Generators(3, ((4, 2, 0), (-4, -2, 0), (1, 1, 1), (0, 0, 1), (3, 0, 5))),
             Generators(1, ((3,), (-3,))), random_tower(random.Random("dd:member"), 3))
    for spec in specs:
        _membership_data.cache_clear()
        semigroups._flatten.cache_clear()
        dd_runs.clear()
        _membership_data(spec)
        assert len(dd_runs) == 1, spec
    _membership_data.cache_clear()


def test_generated_spec_queries_share_one_double_description(dd_runs):
    # a generated spec is its own base, so its asymptotic cone is the cone
    # its flattening converts, and the atlas, its antisymmetry included, and
    # membership all read that one conversion
    spec = Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 2), (1, 1, 1)))
    _membership_data.cache_clear()
    cone = asymptotic_cone(spec)
    atlas = enumerate_faces(spec)
    assert not atlas.antisymmetric
    assert contains(spec, atlas.interior_member)
    assert atlas.ambient_cone == cone
    assert len(dd_runs) == 1
    _membership_data.cache_clear()


def test_atlas_and_membership_share_one_flattening(dd_runs):
    # the atlas and the membership search of one spec read one flattening,
    # so its asymptotic cone is converted once
    specs = (GENERATOR_SPECS[-1], Generators(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 2))),
             random_tower(random.Random("dd:shared"), 3))
    for spec in specs:
        semigroups._flatten.cache_clear()
        _membership_data.cache_clear()
        dd_runs.clear()
        atlas = enumerate_faces(spec)
        assert contains(spec, atlas.interior_member)
        assert len(dd_runs) == 1, spec
        assert semigroups._flatten.cache_info().misses == 1, spec
    _membership_data.cache_clear()


def test_tower_interior_member_is_its_normal():
    # the normal has height |normal|^2 > 0, so it is a member off the
    # boundary, and full support is read the same from the face id and from
    # the value there
    for spec in TOWER_SPECS[:12]:
        atlas = enumerate_faces(spec)
        assert atlas.interior_member == spec.normal
        assert contains(spec, spec.normal)
        for face_id in range(len(atlas.faces)):
            assert classify(atlas, idempotent(atlas, face_id))["full_support"] == (face_id == 0)


def test_no_assert_statements_in_package():
    # invariants are raised explicitly so that python -O keeps them
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_no_unused_imports_in_package():
    # the project has no linter, so a stale import is caught by name here;
    # __init__ imports only to re-export
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name}: unused imports {sorted(imported - used)}"


def spec_document(spec):
    if isinstance(spec, Generators):
        return {"kind": "generators", "ambient_rank": spec.ambient_rank,
                "generators": [list(g) for g in spec.generators]}
    return {"kind": "tower", "ambient_rank": spec.ambient_rank,
            "normal": list(spec.normal), "inner": spec_document(spec.inner)}


@pytest.mark.parametrize("spec", FIXTURES)
def test_optimized_interpreter_prints_the_same_report(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_document(spec)), encoding="utf-8")
    outputs = [subprocess.run([sys.executable, *flags, "-m", "toric_spectrum.cli",
                               "analyze", "--json", str(path)],
                              capture_output=True, check=True).stdout
               for flags in ([], ["-O"])]
    assert outputs[0] and outputs[0] == outputs[1]
