import io
import json
import os
import random
import subprocess
import sys
from itertools import permutations, product

import pytest

from toric_spectrum import cli, enumerate_faces, oracle, semigroups
from toric_spectrum.cli import MAX_TOWER_DEPTH, main, parse_spec
from toric_spectrum.intlinalg import InvariantViolation, basis_torsion, hnf

EVEN_AXIS_DOC = {"kind": "generators", "ambient_rank": 2,
                 "generators": [[2, 0], [0, 1], [1, 1]]}
TOWER_DOC = {"kind": "tower", "ambient_rank": 3, "normal": [0, 0, 1],
             "inner": {"kind": "generators", "ambient_rank": 2,
                       "generators": [[1, 0], [0, 1]]}}
GAP_DOC = {"kind": "generators", "ambient_rank": 1, "generators": [[2], [3]]}
LINE_DOC = {"kind": "generators", "ambient_rank": 1, "generators": [[1], [-1]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


def test_analyze_even_axis(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["analyze", path])
    assert code == 0
    assert "faces: 4" in text
    assert "torsion [2] (component group Z/2)" in text
    assert "antisymmetric: true" in text
    assert "separating: true" in text
    assert text.count(">") == 4  # four cover edges


def test_analyze_tower(tmp_path):
    path = write(tmp_path, "t.json", TOWER_DOC)
    code, text = run_cli(["analyze", path])
    assert code == 0
    assert "faces: 5" in text
    assert "antisymmetric: true" in text


def test_analyze_full_line(tmp_path):
    path = write(tmp_path, "z.json", LINE_DOC)
    code, text = run_cli(["analyze", path])
    assert code == 0
    assert "antisymmetric: false" in text
    assert "zero element: none" in text


def test_analyze_json_roundtrip(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["analyze", path, "--json"])
    assert code == 0
    document = json.loads(text)
    assert len(document["faces"]) == 4
    echoed = write(tmp_path, "echo.json", document["input"])
    code2, text2 = run_cli(["analyze", echoed, "--json"])
    assert code2 == 0 and text2 == text


def test_dot_output_exact(tmp_path):
    path = write(tmp_path, "n.json",
                 {"kind": "generators", "ambient_rank": 1, "generators": [[1]]})
    code, text = run_cli(["dot", path])
    assert code == 0
    assert text == (
        "digraph idempotents {\n"
        '  f0 [label="dim=1 rank=1 torsion=[]"];\n'
        '  f1 [label="dim=0 rank=0 torsion=[]"];\n'
        "  f0 -> f1;\n"
        "}\n")


def test_dot_even_axis_shape(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["dot", path])
    assert code == 0
    assert text.count("label=") == 4
    assert text.count("->") == 4


def test_dot_single_face(tmp_path):
    path = write(tmp_path, "z.json", LINE_DOC)
    code, text = run_cli(["dot", path])
    assert code == 0
    assert text.count("label=") == 1 and "->" not in text


@pytest.mark.parametrize("generators, target, expected", [
    # one search level per generator: 1500 levels exceed the interpreter's
    # default recursion limit
    ([[g] for g in range(1500, 3000)], 1, "false\n"),
    # 10**8 + 1 coefficients of the one generator: the search takes the
    # largest first and must not build the others
    ([[1]], 10 ** 8, "true\n"),
], ids=["depth", "width"])
def test_member_search_depth_and_width(tmp_path, generators, target, expected):
    # the address space cap turns a search that builds too much into a quick
    # MemoryError rather than a machine running out of memory
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = write(tmp_path, "member.json", {"kind": "generators", "ambient_rank": 1,
                                           "generators": generators})
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "member", path,
                             str(target)],
                            capture_output=True, text=True, timeout=60,
                            preexec_fn=limit_memory)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def test_deeply_nested_json_is_an_input_error(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "analyze", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert "nested too deeply" in result.stderr and "Traceback" not in result.stderr


def test_undecodable_file_is_an_input_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"kind": "generators"}'.encode("utf-16-le"))
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "analyze", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"input error: {path}: 'utf-8' codec can't decode")
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1


def test_a_5000_digit_literal_is_read_in_full(tmp_path):
    # past Python's default limit of 4,300 digits for int/str conversions
    digits = "7" * 5000
    path = tmp_path / "long.json"
    path.write_text('{"kind": "generators", "ambient_rank": 1, "generators": [[%s]]}' % digits,
                    encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "analyze", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert f"lattice basis ({digits})" in result.stdout


def test_a_6000_digit_torsion_prints_in_full(tmp_path):
    # two generators with 3,000-digit entries: their lattice has index about
    # 10^6000, printed by every report
    rng = random.Random(3000)
    rows = [[rng.randrange(10 ** 2999, 10 ** 3000) for _ in range(2)] for _ in range(2)]
    doc = {"kind": "generators", "ambient_rank": 2,
           "generators": [[format(a, "d") for a in row] for row in rows]}
    path = write(tmp_path, "big.json", doc)
    for command in (["analyze", path], ["analyze", "--json", path], ["dot", path]):
        result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli"] + command,
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, ""), command
    code, text = run_cli(["analyze", "--json", path])
    # main lifts the digit limit in this process too, so int() reads the report
    torsion = tuple(int(d) for d in json.loads(text)["faces"][0]["torsion"])
    assert code == 0 and len(str(torsion[-1])) > 5990
    assert torsion == basis_torsion(hnf(rows).basis)


def nested_tower(depth):
    """A tower document of the given depth, normal e_1 at every level."""
    doc = {"kind": "generators", "ambient_rank": 1, "generators": [[1]]}
    for n in range(2, depth + 2):
        doc = {"kind": "tower", "ambient_rank": n, "normal": [1] + [0] * (n - 1),
               "inner": doc}
    return doc


def test_tower_deeper_than_the_cap_is_an_input_error(tmp_path):
    depth = MAX_TOWER_DEPTH + 1
    path = write(tmp_path, "deep.json", nested_tower(depth))
    point = ["1"] + ["0"] * depth
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "member", path] + point,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert f"at most {MAX_TOWER_DEPTH} levels" in result.stderr
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1


def test_tower_at_the_cap_parses_and_hashes():
    spec = parse_spec(nested_tower(MAX_TOWER_DEPTH))
    assert spec.ambient_rank == MAX_TOWER_DEPTH + 1
    hash(spec)  # the membership cache is keyed on the spec


def test_out_of_memory_is_exit_5(tmp_path, monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "enumerate_faces", exhausted)
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    assert run_cli(["analyze", path]) == (5, "")
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_member_queries(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    assert run_cli(["member", path, "1", "0"]) == (0, "false\n")
    assert run_cli(["member", path, "1", "1"]) == (0, "true\n")
    gap = write(tmp_path, "gap.json", GAP_DOC)
    assert run_cli(["hull-member", gap, "1"]) == (0, "true\n")
    assert run_cli(["member", gap, "1"]) == (0, "false\n")
    assert run_cli(["hull-member", gap, "--", "-1"]) == (0, "false\n")


def test_char_commands(tmp_path):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    code, text = run_cli(["char", "mul", gap,
                          "face:0", "theta:1/4", "lambda:1",
                          "face:0", "theta:1/2", "lambda:2"])
    assert code == 0 and text == "face:0 theta:3/4 lambda:3\n"
    code, text = run_cli(["char", "polar", gap, "face:0", "theta:1/3", "lambda:2"])
    assert code == 0
    assert "unitary face:0 theta:1/3 lambda:0" in text
    assert "radial face:0 theta:0 lambda:2" in text
    code, text = run_cli(["char", "conj", gap, "face:0", "theta:1/4", "lambda:1"])
    assert code == 0 and text == "face:0 theta:3/4 lambda:1\n"
    code, text = run_cli(["char", "eval", gap, "face:0", "theta:1/2", "lambda:1",
                          "--point", "2"])
    assert code == 0 and text.startswith("angle 0 exponent 2 ")


def test_char_eval_at_a_non_member_is_an_input_error(tmp_path, capsys):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    code, text = run_cli(["char", "eval", gap, "face:0", "theta:1/2", "lambda:1",
                          "--point", "1"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "input error: (1,) is not a member of the semigroup\n"


def test_char_eval_at_the_point_of_a_rank_0_spec(tmp_path):
    """A bare ``--point`` gives the one point () of a rank-0 spec."""
    empty = write(tmp_path, "empty.json",
                  {"kind": "generators", "ambient_rank": 0, "generators": []})
    code, text = run_cli(["char", "eval", empty, "face:0", "theta:", "lambda:", "--point"])
    assert (code, text) == (0, "angle 0 exponent 0 ~ +1.000000000000+0.000000000000j\n")


def test_char_eval_with_a_bare_point_in_rank_2_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["char", "eval", path, "face:0", "theta:0,0", "lambda:0,0", "--point"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "input error: point needs 2 coordinates, got 0\n"


def test_char_malformed_tokens(tmp_path):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    code, _ = run_cli(["char", "conj", gap, "face:0", "theta:x", "lambda:1"])
    assert code == 2
    code, _ = run_cli(["char", "conj", gap, "face:0", "theta:0", "lambda:-1"])
    assert code == 2


def test_ray_and_chain_commands(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["ray", "limit", path, "--face", "0", "--lambda", "1,0"])
    assert code == 0 and text == "limit: face 1\n"
    code, text = run_cli(["chain", path, "--from", "0", "--to", "3"])
    assert code == 0
    assert text.splitlines()[0] == "chain length: 2"
    code, text = run_cli(["chain", path, "--from", "0", "--to", "0"])
    assert code == 0 and text == "chain length: 0\n"
    for args in (["--from", "0", "--to", "-1"], ["--from", "4", "--to", "0"]):
        assert run_cli(["chain", path] + args) == (2, "")
    assert run_cli(["ray", "limit", path, "--face", "-1", "--lambda", "1,0"]) == (2, "")
    assert run_cli(["ray", "limit", path, "--face", "0", "--lambda", "1"]) == (2, "")


def test_oracle_verify(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["oracle", "verify", path, "--box", "6", "--seed", "3",
                          "--trials", "50"])
    assert code == 0
    assert "agree: true" in text
    assert text.strip().endswith("result: ok")


@pytest.mark.parametrize("doc", [EVEN_AXIS_DOC, TOWER_DOC, GAP_DOC, LINE_DOC])
def test_oracle_cross_checks_each_face_cone_once(tmp_path, doc):
    path = write(tmp_path, "spec.json", doc)
    code, text = run_cli(["oracle", "verify", path, "--box", "2", "--trials", "0"])
    faces = len(enumerate_faces(cli.load_spec(path)).faces)
    assert code == 0
    assert f"dd cross-check: {faces} cones, " in text


def test_oracle_verify_sweeps_its_box_once(tmp_path, monkeypatch):
    """The atlas side tests each point of the box for membership once, and
    the numeric check takes its members from that sweep."""
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    calls = []
    original = semigroups.contains

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(semigroups, "contains", counted)
    code, text = run_cli(["oracle", "verify", path, "--box", "5", "--trials", "0"])
    assert code == 0 and text.endswith("result: ok\n")
    assert len(calls) == 11 ** 2


def test_exit_codes(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", missing], out=io.StringIO()) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(bad)], out=io.StringIO()) == 2
    floaty = write(tmp_path, "f.json",
                   {"kind": "generators", "ambient_rank": 1, "generators": [[0.5]]})
    assert main(["analyze", floaty], out=io.StringIO()) == 3
    schema = write(tmp_path, "s.json", {"kind": "tower", "ambient_rank": 2,
                                        "normal": [2, 4],
                                        "inner": {"kind": "generators",
                                                  "ambient_rank": 1,
                                                  "generators": [[1]]}})
    assert main(["analyze", schema], out=io.StringIO()) == 2


def test_big_integers_serialized_as_strings(tmp_path):
    big = 2 ** 60
    doc = {"kind": "generators", "ambient_rank": 1, "generators": [[str(big)]]}
    path = write(tmp_path, "big.json", doc)
    code, text = run_cli(["analyze", path, "--json"])
    assert code == 0
    parsed = json.loads(text)
    assert parsed["input"]["generators"][0][0] == str(big)
    assert parsed["faces"][0]["lattice_basis"][0][0] == str(big)


@pytest.mark.parametrize("doc", [EVEN_AXIS_DOC, TOWER_DOC, GAP_DOC, LINE_DOC])
def test_determinism_across_processes(tmp_path, doc):
    path = write(tmp_path, "input.json", doc)
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "toric_spectrum.cli", "analyze", path],
            capture_output=True, check=True)
        dot = subprocess.run(
            [sys.executable, "-m", "toric_spectrum.cli", "dot", path],
            capture_output=True, check=True)
        outputs.append(result.stdout + dot.stdout)
    assert outputs[0] == outputs[1]


def test_box_flag_sets_the_oracle_radius(tmp_path, monkeypatch):
    """``--box`` is the one way to set the radius, 6 by default; no
    environment variable is read."""
    gap = write(tmp_path, "gap.json", GAP_DOC)
    radii = []
    original = oracle.brute_force_faces

    def recorded(spec, box):
        radii.append(box.radius)
        return original(spec, box)

    monkeypatch.setattr(oracle, "brute_force_faces", recorded)
    monkeypatch.setenv("TORIC_SPECTRUM_BOX", "zero")
    code, text = run_cli(["oracle", "verify", gap, "--box", "5", "--seed", "0", "--trials", "10"])
    assert code == 0 and "agree: true" in text
    assert run_cli(["oracle", "verify", gap, "--trials", "10"])[0] == 0
    assert radii == [5, 6]


@pytest.mark.parametrize("flags, message", [
    (["--box", "0"], "--box: must be >= 1"),
    (["--box", "-2"], "--box: must be >= 1"),
    (["--trials", "-5"], "--trials: must be >= 0"),
])
def test_oracle_flags_out_of_range_are_input_errors(tmp_path, capsys, flags, message):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    assert run_cli(["oracle", "verify", gap] + flags) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_oracle_zero_trials_and_box_one_are_accepted(tmp_path):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    code, text = run_cli(["oracle", "verify", gap, "--box", "1", "--trials", "0"])
    assert code == 0 and "0 trials" in text and text.endswith("result: ok\n")


def test_oracle_box_zero_exits_2_without_traceback(tmp_path):
    gap = write(tmp_path, "gap.json", GAP_DOC)
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "oracle", "verify", gap,
                             "--box", "0"], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "input error: --box: must be >= 1\n"


def test_oracle_on_a_huge_generator_exits_2_within_its_point_budget(tmp_path):
    # the closure window widens with the largest generator entry, so this
    # spec once ran without end; the point budget stops it
    huge = write(tmp_path, "huge.json", {"kind": "generators", "ambient_rank": 2,
                                         "generators": [[99999999999999999999999, 1], [0, 1]]})
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "oracle", "verify", huge],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("input error: oracle verify: the membership closure exceeds "
                                    "1000000 points")
    assert result.stderr.count("\n") == 1


def test_oracle_pair_check_over_its_budget_exits_2_within_10_s(tmp_path):
    # 8 candidate faces over the 9261 members of the box of radius 20 would
    # take ~7 * 10^8 pair tests; the pair budget refuses them before the
    # atlas-side box scan runs
    orthant = write(tmp_path, "orthant.json", {
        "kind": "generators", "ambient_rank": 3,
        "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]})
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "oracle", "verify",
                             orthant, "--box", "20"], capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("input error: oracle verify: the pair check of 8 candidate faces "
                             "over 9261 box members exceeds 10000000 pair tests\n")


def test_oracle_verifies_the_24_ray_cone_within_10_s(tmp_path):
    # the generators (2, p), p a signed permutation of (1, 2, 0), span a
    # rank-4 cone of 24 rays: C(24, 3) = 2,024 subsets per hyperplane
    # enumeration, where the cross-check once needed 12,950 simplicial
    # subcones and was refused
    gens = sorted({(2,) + tuple(s * a for s, a in zip(signs, p))
                   for p in permutations((1, 2, 0)) for signs in product((1, -1), repeat=3)})
    path = write(tmp_path, "perm24.json", {"kind": "generators", "ambient_rank": 4,
                                           "generators": [list(g) for g in gens]})
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "oracle", "verify",
                             path, "--box", "2"], capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("faces: atlas 76, oracle 76, agree: true\n"
                                    "dd cross-check: 76 cones, 47500 points, agree: true\n")
    assert result.stdout.endswith("result: ok\n")


def test_oracle_over_its_subset_budget_exits_2_within_10_s(tmp_path):
    # the 57 generators (2, a, b, c), |a| + |b| + |c| <= 3 with entries in
    # [-2, 2], need C(57, 3) = 29,260 subsets for the top cone's hyperplanes;
    # the face enumeration once tried them all without a budget
    gens = [[2, a, b, c] for a, b, c in product(range(-2, 3), repeat=3)
            if abs(a) + abs(b) + abs(c) <= 3]
    path = write(tmp_path, "gen57.json", {"kind": "generators", "ambient_rank": 4,
                                          "generators": gens})
    result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "oracle", "verify",
                             path, "--box", "2"], capture_output=True, text=True, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("input error: oracle verify: the supporting hyperplanes of 57 "
                             "generators in rank 4 need 29260 subsets, over 5000\n")


def test_an_exponent_in_a_rational_is_refused_at_once(tmp_path):
    """``Fraction`` would expand the exponent into a three-million-digit
    power of ten; the token is refused before it is read."""
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    for token, args in (
            ("1e-3000000", ["char", "conj", path, "face:0", "theta:0,0", "lambda:1e-3000000,1"]),
            ("1E3000000", ["ray", "limit", path, "--face", "0", "--lambda", "1E3000000,0"])):
        done = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", *args],
                              capture_output=True, text=True, timeout=10)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"input error: lambda: bad rational {token!r}\n"


def test_rationals_are_integers_fractions_and_decimals(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    assert run_cli(["char", "conj", path, "face:0", "theta:0,0", "lambda:-0,1/2"]) == \
        (0, "face:0 theta:0,0 lambda:0,1/2\n")
    assert run_cli(["char", "conj", path, "face:0", "theta:0.25,0", "lambda:2.5,3"]) == \
        (0, "face:0 theta:3/4,0 lambda:5/2,3\n")


def spec_doc(**fields):
    return {"kind": "generators", "ambient_rank": 2, "generators": [[1, 0]], **fields}


ANALYZE = (["analyze"], [])


@pytest.mark.parametrize("doc, command, message", [
    (spec_doc(generators=[[True, 0]]), ANALYZE,
     "input.generators[0][0]: expected integer, got boolean"),
    (spec_doc(generators=[["x", 0]]), ANALYZE,
     "input.generators[0][0]: expected integer, got 'x'"),
    (spec_doc(generators=[[None, 0]]), ANALYZE,
     "input.generators[0][0]: expected integer, got NoneType"),
    (spec_doc(generators=[5]), ANALYZE, "input.generators[0]: expected a list of integers"),
    (spec_doc(generators=[[1]]), ANALYZE, "input.generators[0]: expected length 2, got 1"),
    ([1, 0], ANALYZE, "input: expected an object"),
    ({"kind": "generators", "generators": []}, ANALYZE, "input.ambient_rank: required"),
    (spec_doc(ambient_rank=-1), ANALYZE, "input.ambient_rank: must be nonnegative"),
    (spec_doc(generators=None), ANALYZE, "input.generators: required list"),
    (spec_doc(kind="cone"), ANALYZE,
     "input.kind: expected 'generators' or 'tower', got 'cone'"),
    ({"kind": "tower", "ambient_rank": 0, "normal": [], "inner": {}}, ANALYZE,
     "input.ambient_rank: tower needs rank >= 1"),
    ({"kind": "tower", "ambient_rank": 2, "normal": [0, 1]}, ANALYZE, "input.inner: required"),
    (EVEN_AXIS_DOC, (["char", "conj"], ["face:0", "phase:0,0", "lambda:0,0"]),
     "bad character token 'phase:0,0'"),
    (EVEN_AXIS_DOC, (["char", "conj"], ["face:0", "theta:0,0", "theta:0,0"]),
     "character needs face:, theta:, lambda: tokens, "
     "got ['face:0', 'theta:0,0', 'theta:0,0']"),
    (EVEN_AXIS_DOC, (["char", "conj"], ["face:x", "theta:0,0", "lambda:0,0"]),
     "bad face id 'x'"),
    (EVEN_AXIS_DOC, (["member"], ["1", "y"]), "bad coordinate 'y'"),
])
def test_input_diagnostics(tmp_path, capsys, doc, command, message):
    """Each malformed input exits 2 with its one-line diagnostic and no output."""
    before, after = command
    path = write(tmp_path, "spec.json", doc)
    assert run_cli([*before, path, *after]) == (2, "")
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_a_character_needs_three_tokens():
    atlas = enumerate_faces(parse_spec(EVEN_AXIS_DOC))
    with pytest.raises(cli.InputError, match=r"^character needs 3 tokens, got 1: \['face:0'\]$"):
        cli.parse_character_tokens(atlas, ["face:0"])


def test_invariant_violation_is_exit_4(tmp_path, monkeypatch, capsys):
    def broken(spec):
        raise InvariantViolation("face order is not bounded")

    monkeypatch.setattr(cli, "enumerate_faces", broken)
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    assert run_cli(["analyze", path]) == (4, "")
    assert capsys.readouterr().err == "internal invariant violation: face order is not bounded\n"


def test_char_eval_at_a_member_off_the_face_is_zero(tmp_path):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    # face 1 is the ray of (0, 1); the member (1, 1) lies off it
    assert run_cli(["char", "eval", path, "face:1", "theta:0", "lambda:1",
                    "--point", "1", "1"]) == (0, "zero\n")


def test_char_eval_with_a_400_digit_decay_renders_zero(tmp_path):
    # exp(-10**400) underflows; float(10**400) alone would overflow
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    code, text = run_cli(["char", "eval", path, "face:0", "theta:0,0",
                          f"lambda:{10 ** 400},0", "--point", "2", "0"])
    assert code == 0
    assert text.startswith(f"angle 0 exponent {2 * 10 ** 400} ")
    assert text.endswith("~ +0.000000000000+0.000000000000j\n")


class ClosedPipe(io.StringIO):
    """An output stream whose reader is gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_output_stream_exits_141_in_silence(tmp_path, capsys):
    path = write(tmp_path, "g.json", EVEN_AXIS_DOC)
    assert main(["chain", path, "--from", "0", "--to", "3"], out=ClosedPipe()) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_pipe_exits_141_in_silence(tmp_path, unbuffered):
    # the read end is closed before the child starts, so its first write or
    # its flush meets a pipe with no reader: block-buffered, the output
    # would otherwise fail at interpreter exit
    path = write(tmp_path, "nested.json", nested_tower(10))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", "chain", path,
                                 "--from", "0", "--to", "11"],
                                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (141, b"")
