"""A frozen record of the command line: every subcommand, error cases
included, run in process over a small seeded corpus of fixtures, torsion
bases, random generator specs and towers.  The sha256 of every (argv, exit
code, stdout, stderr) in order is frozen, so a change to any output, exit
code or diagnostic shows here.  The spec file's path reads ``{path}``
wherever it appears."""

import contextlib
import hashlib
import io
import json
import random

from toric_spectrum import enumerate_faces, members_in_box
from toric_spectrum.cli import main, spec_document

from helpers import FIXTURES, TORSION_BASES, random_generators, random_tower

# frozen before the commands were registered on their subparsers
DIGEST = "f6d839fb54d3c870c26ef459c9428c2f3d27bbf13095c13a78983d097883ddad"


def corpus():
    rng = random.Random("cli freeze")
    specs = [(spec, True) for spec in FIXTURES]
    specs += [(spec, False) for spec in TORSION_BASES[:1] + TORSION_BASES[2:]]
    specs += [(random_generators(rng, 3, 5), False) for _ in range(3)]
    specs += [(random_tower(rng, depth), False) for depth in (1, 2, 3)]
    return rng, specs


def fractions(rng, k):
    return ",".join(f"{rng.randrange(q)}/{q}" for q in (rng.randint(1, 4) for _ in range(k)))


def integers(rng, k, bound=2):
    return ",".join(str(rng.randint(-bound, bound)) for _ in range(k))


def commands(rng, spec, oracle):
    """The argv of every call on one spec, ``{path}`` for its file."""
    atlas = enumerate_faces(spec)
    n, count = spec.ambient_rank, len(atlas.faces)
    members = members_in_box(spec, 2)

    def point(k=n):
        return [str(rng.randint(-3, 3)) for _ in range(k)]

    def character(face):
        """Tokens of a character on ``face`` and of one whose lambda is
        drawn at random, often off the face's dual cone."""
        rank = atlas.faces[face].rank
        dual = atlas.faces[face].dual_cone_local.rays
        lam = ",".join(str(sum(col)) for col in zip(*dual)) if dual else integers(rng, rank, 0)
        theta = fractions(rng, rank)
        return ([f"face:{face}", f"theta:{theta}", f"lambda:{lam}"],
                [f"face:{face}", f"theta:{theta}", f"lambda:{integers(rng, rank)}"])

    def face():
        return rng.randrange(count)

    a, b = face(), face()
    (good_a, wild_a), (good_b, _) = character(a), character(b)
    member = list(map(str, rng.choice(members)))
    calls = [
        ["analyze", "{path}"], ["analyze", "--json", "{path}"], ["dot", "{path}"],
        ["member", "{path}", *member], ["member", "{path}", *point()],
        ["member", "{path}", *point(n + 1)], ["member", "{path}", *point(n - 1), "x"],
        ["hull-member", "{path}", *member], ["hull-member", "{path}", *point()],
        ["hull-member", "{path}", *point(n + 1)],
        ["char", "mul", "{path}", *good_a, *good_b], ["char", "mul", "{path}", *wild_a, *good_b],
        ["char", "polar", "{path}", *good_a], ["char", "polar", "{path}", *wild_a],
        ["char", "conj", "{path}", *good_b],
        ["char", "conj", "{path}", f"face:{count}", "theta:", "lambda:"],
        ["char", "conj", "{path}", good_a[0], f"theta:{fractions(rng, n + 1)}", good_a[2]],
        ["char", "eval", "{path}", *good_a, "--point", *member],
        ["char", "eval", "{path}", *good_b, "--point", *point()],
        ["char", "eval", "{path}", *good_b, "--point", *point(n + 1)],
    ]
    for face_id in (a, count):
        rank = atlas.faces[face_id].rank if face_id < count else n
        calls.append(["ray", "limit", "{path}", "--face", str(face_id),
                      f"--lambda={integers(rng, rank)}"])
    calls.append(["ray", "limit", "{path}", "--face", str(a),
                  f"--lambda={integers(rng, atlas.faces[a].rank + 1)}"])
    calls.append(["ray", "limit", "{path}", "--face", str(a),
                  "--lambda=" + good_a[2].partition(":")[2]])
    for top, bottom in ((0, atlas.minimal_id), (atlas.minimal_id, 0), (a, b), (b, count)):
        calls.append(["chain", "{path}", "--from", str(top), "--to", str(bottom)])
    if oracle:
        # no trials: the numeric check's deviation is a float near 1e-16
        calls.append(["oracle", "verify", "{path}", "--box", "2", "--trials", "0"])
        calls.append(["oracle", "verify", "{path}", "--box", "0"])
        calls.append(["oracle", "verify", "{path}", "--box", "2", "--trials", "-1"])
    return calls


def call(argv, path):
    """The record of one call, with ``{path}`` standing for ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(path) if a == "{path}" else a for a in argv], out=out)
    return [argv, code, out.getvalue(), err.getvalue().replace(str(path), "{path}")]


def record(tmp_path):
    rng, specs = corpus()
    entries = [call(["analyze", "{path}"], tmp_path / "missing.json")]
    for i, (spec, oracle) in enumerate(specs):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec_document(spec)), encoding="utf-8")
        entries += [call(argv, path) for argv in commands(rng, spec, oracle)]
    return entries


def test_every_subcommand_is_unchanged(tmp_path):
    entries = record(tmp_path)
    codes = {entry[1] for entry in entries}
    assert codes == {0, 2}, codes
    text = json.dumps(entries, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
