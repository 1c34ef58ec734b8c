import io
import json
import random
import subprocess
import sys
from itertools import permutations, product

import pytest

from toric_spectrum import cli, enumerate_faces
from toric_spectrum.cli import MAX_TOWER_DEPTH, main, parse_spec
from toric_spectrum.intlinalg import hnf, quotient_invariants

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
    assert torsion == quotient_invariants(2, hnf(rows))[1]


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
    original = cli.brute_force_faces

    def recorded(spec, box):
        radii.append(box.radius)
        return original(spec, box)

    monkeypatch.setattr(cli, "brute_force_faces", recorded)
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
