"""The package surface and what each command loads.

``toric_spectrum`` resolves its exported names on first use, and the CLI
imports ``characters`` and ``oracle`` only for the commands that run them,
and ``fractions`` (with the ``decimal`` it loads) only for those that parse
a rational.
The CLI checks start one interpreter per command under ``-X importtime`` and
read the names of the modules it imported from stderr.
"""

import importlib
import json
import subprocess
import sys

import pytest

import toric_spectrum

EXPORTS = {
    "characters": [
        "Character", "ExactValue", "Ray", "chain_of_rays", "classify", "evaluate",
        "idempotent", "idempotent_lattice_ops", "identity_character", "involute",
        "make_character", "multiply", "multiply_values", "polar_decompose",
        "ray_limit", "ray_point", "zero_character"],
    "cones": [
        "Cone", "FaceHandle", "FaceLattice", "cone_contains_cone",
        "cone_from_inequalities", "cone_from_rays", "dual_cone", "face_lattice"],
    "intlinalg": [
        "IntVector", "InvariantViolation", "Lattice", "hnf", "int_kernel",
        "lattice_contains"],
    "semigroups": [
        "FaceData", "Generators", "MembershipUndecided", "SemigroupSpec",
        "SpectrumAtlas", "Tower", "asymptotic_cone", "contains",
        "enumerate_faces", "face_members_in_box", "hull_contains",
        "members_in_box", "validate_atlas", "zero_face"],
}

EVEN_AXIS_DOC = {"kind": "generators", "ambient_rank": 2,
                 "generators": [[2, 0], [0, 1], [1, 1]]}
CHARACTERS = "toric_spectrum.characters"
ORACLE = "toric_spectrum.oracle"
RATIONALS = {"fractions", "decimal"}


def fresh(code):
    """Run ``code`` in a new interpreter and return its stdout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60).stdout


def test_all_is_the_frozen_list_in_order():
    expected = [name for names in EXPORTS.values() for name in names] + ["__version__"]
    assert toric_spectrum.__all__ == expected


def test_each_name_is_the_object_of_its_module():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"toric_spectrum.{module}")
        for name in names:
            assert getattr(toric_spectrum, name) is getattr(owner, name), name


def test_dir_lists_every_exported_name_and_module_before_their_first_use():
    listed = set(fresh("import toric_spectrum\nprint(*dir(toric_spectrum))").split())
    assert set(toric_spectrum.__all__) <= listed
    assert set(EXPORTS) <= listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        toric_spectrum.no_such_name
    namespace = {}
    with pytest.raises(ImportError):
        exec("from toric_spectrum import no_such_name", namespace)


def test_a_fresh_import_loads_no_submodule():
    assert fresh("import sys, toric_spectrum\n"
                 "print(sorted(m for m in sys.modules if m.startswith('toric_spectrum.')))"
                 ) == "[]\n"


def test_a_name_or_a_module_loads_on_first_use():
    loaded = fresh("import sys, toric_spectrum\n"
                   "toric_spectrum.contains\n"
                   "print(*sorted(m for m in sys.modules if m.startswith('toric_spectrum.')))")
    assert loaded.split() == ["toric_spectrum.cones", "toric_spectrum.intlinalg",
                              "toric_spectrum.semigroups"]
    assert fresh("import toric_spectrum\n"
                 "print(toric_spectrum.characters.multiply is toric_spectrum.multiply)"
                 ) == "True\n"


def cli_imports(tmp_path, args):
    """Exit code, stdout and the package modules, ``fractions`` and
    ``decimal`` that one CLI run imports."""
    path = tmp_path / "even_axis.json"
    path.write_text(json.dumps(EVEN_AXIS_DOC), encoding="utf-8")
    argv = [str(path) if a == "{path}" else a for a in args]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "toric_spectrum.cli",
                           *argv], capture_output=True, text=True, timeout=60)
    modules = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return proc.returncode, proc.stdout, {m for m in modules if m.startswith("toric_spectrum")
                                          or m in RATIONALS}


@pytest.mark.parametrize("args", [
    ["analyze", "{path}"],
    ["analyze", "{path}", "--json"],
    ["dot", "{path}"],
    ["member", "{path}", "1", "1"],
    ["hull-member", "{path}", "1", "1"],
])
def test_atlas_and_membership_commands_load_neither_characters_nor_oracle(tmp_path, args):
    code, _, modules = cli_imports(tmp_path, args)
    assert code == 0
    assert "toric_spectrum.semigroups" in modules
    assert CHARACTERS not in modules and ORACLE not in modules
    assert not modules & RATIONALS


@pytest.mark.parametrize("args", [
    ["char", "mul", "{path}", "face:0", "theta:1/2,0", "lambda:1,1",
     "face:1", "theta:1/3", "lambda:1"],
    ["ray", "limit", "{path}", "--face", "0", "--lambda", "1,0"],
    ["chain", "{path}", "--from", "0", "--to", "3"],
])
def test_character_commands_load_characters_but_not_oracle(tmp_path, args):
    code, _, modules = cli_imports(tmp_path, args)
    assert code == 0
    assert CHARACTERS in modules and ORACLE not in modules


def test_oracle_verify_loads_and_runs_the_oracle(tmp_path):
    code, text, modules = cli_imports(tmp_path, ["oracle", "verify", "{path}", "--box", "3"])
    assert code == 0 and text.endswith("result: ok\n")
    assert ORACLE in modules
