"""Command line driver: parse a semigroup description, analyze it, and expose
the character operations.

Exit codes: 0 success, 2 malformed input, 3 recognised but unsupported input
class (non-integer data), 4 internal invariant violation (always a bug), 5 out
of memory (the input needs more memory than the process can get), 141 a
closed output pipe (128 + SIGPIPE, as a shell reports for coreutils; nothing
is written to stderr).  A ``ValueError`` the library raises on a command's
input (an unknown face, a lambda off the dual cone, a point that is not a
member) is malformed input and exits 2 with its message.

Each subparser names the function that runs its command; that function
builds the atlas if it needs one.  ``characters`` and ``oracle`` are
imported by the commands that run them, so the atlas and membership commands
do not load (or compile) them.  The text report and the DOT graph format the
dict of :func:`analyze_document`, the one walk of the atlas.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .semigroups import (
    Generators,
    SemigroupSpec,
    SpectrumAtlas,
    Tower,
    contains,
    enumerate_faces,
    face_members_in_box,
    hull_contains,
    zero_face,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .characters import Character

SAFE_INT = 2 ** 53 - 1

MAX_TOWER_DEPTH = 200
"""Most tower levels an input document may nest.  The depth-60 towers the
library targets fit with room to spare, and a frozen ``Tower`` of this depth
still hashes: hashing recurses about two frames per level, so a tower of
about 500 levels exhausts the interpreter's default recursion limit."""


class InputError(Exception):
    """Malformed or schema-invalid input (exit 2)."""


class UnsupportedInputError(Exception):
    """Recognised input describing an unsupported class (exit 3)."""


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected integer, got boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise UnsupportedInputError(
            f"{where}: non-integer coordinate {value!r}; only exact integer data "
            "is supported (irrational or floating halfspace data is out of scope)")
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"{where}: expected integer, got {value!r}") from None
    raise InputError(f"{where}: expected integer, got {type(value).__name__}")


def _as_vector(value, rank: int, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list of integers")
    if len(value) != rank:
        raise InputError(f"{where}: expected length {rank}, got {len(value)}")
    return tuple(_as_int(v, f"{where}[{i}]") for i, v in enumerate(value))


def parse_spec(document) -> SemigroupSpec:
    """Build a spec from the JSON document, with field-level diagnostics.

    The tower levels are read top down in a loop and built bottom up, so no
    depth of nesting recurses here; a tower nests at most
    :data:`MAX_TOWER_DEPTH` levels.
    """
    levels, where = [], "input"
    while True:
        if not isinstance(document, dict):
            raise InputError(f"{where}: expected an object")
        kind = document.get("kind")
        if "ambient_rank" not in document:
            raise InputError(f"{where}.ambient_rank: required")
        rank = _as_int(document["ambient_rank"], f"{where}.ambient_rank")
        if rank < 0:
            raise InputError(f"{where}.ambient_rank: must be nonnegative")
        if kind == "generators":
            gens = document.get("generators")
            if not isinstance(gens, list):
                raise InputError(f"{where}.generators: required list")
            spec = Generators(rank, tuple(_as_vector(g, rank, f"{where}.generators[{i}]")
                                          for i, g in enumerate(gens)))
            break
        if kind != "tower":
            raise InputError(f"{where}.kind: expected 'generators' or 'tower', got {kind!r}")
        if rank < 1:
            raise InputError(f"{where}.ambient_rank: tower needs rank >= 1")
        normal = _as_vector(document.get("normal"), rank, f"{where}.normal")
        if document.get("inner") is None:
            raise InputError(f"{where}.inner: required")
        if len(levels) == MAX_TOWER_DEPTH:
            raise InputError(f"{where}: a tower nests at most {MAX_TOWER_DEPTH} levels")
        levels.append((where, rank, normal))
        document, where = document["inner"], f"{where}.inner"
    for where, rank, normal in reversed(levels):
        try:
            spec = Tower(rank, normal, spec)
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
    return spec


def load_spec(path: str) -> SemigroupSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to parse") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    return parse_spec(document)


def spec_document(spec: SemigroupSpec):
    if isinstance(spec, Generators):
        return {"kind": "generators", "ambient_rank": spec.ambient_rank,
                "generators": [[_json_int(a) for a in g] for g in spec.generators]}
    return {"kind": "tower", "ambient_rank": spec.ambient_rank,
            "normal": [_json_int(a) for a in spec.normal],
            "inner": spec_document(spec.inner)}


def _json_int(value: int):
    return value if abs(value) <= SAFE_INT else str(value)


def _vectors(vs) -> list:
    return [[_json_int(a) for a in v] for v in vs]


def _fmt_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(a) for a in v) + ")"


def _fmt_vecs(vs) -> str:
    return " ".join(_fmt_vec(v) for v in vs) if vs else "-"


def analyze_document(atlas: SpectrumAtlas) -> dict:
    """The report of an atlas: its input, flags, asymptotic cone, faces and
    covers, integers past ``SAFE_INT`` as strings.  ``analyze --json`` prints
    it; the text report and the DOT graph format it."""
    spec = atlas.spec
    faces = []
    for f in atlas.faces:
        faces.append({
            "id": f.face_id,
            "dim": f.dim,
            "lattice_rank": f.rank,
            "lattice_basis": _vectors(f.lattice.basis),
            "torsion": [_json_int(d) for d in f.torsion],
            "cone_rays": _vectors(f.cone.rays),
            "cone_lineality": _vectors(f.cone.lineality),
            "dual_rays": _vectors(f.dual_cone_local.rays),
        })
    return {
        "input": spec_document(spec),
        "antisymmetric": atlas.antisymmetric,
        "separating": atlas.separating,
        "zero_face": zero_face(atlas),
        "asymptotic_cone": {
            "rays": _vectors(atlas.ambient_cone.rays),
            "inequalities": _vectors(atlas.ambient_cone.inequalities),
            "lineality": _vectors(atlas.ambient_cone.lineality),
            "equations": _vectors(atlas.ambient_cone.equations),
        },
        "faces": faces,
        "hasse_covers": [list(c) for c in atlas.covers],
        "least_idempotent": atlas.minimal_id,
    }


def _fmt_list(values) -> str:
    return "[" + ",".join(str(a) for a in values) + "]"


def analyze_text(atlas: SpectrumAtlas) -> str:
    """The ``analyze`` report: :func:`analyze_document` as text."""
    doc = analyze_document(atlas)
    spec, cone = doc["input"], doc["asymptotic_cone"]
    if spec["kind"] == "generators":
        shape = f"{len(spec['generators'])} generators"
    else:
        shape = f"normal {_fmt_vec(spec['normal'])}"
    zf = doc["zero_face"]
    lines = [f"input: {spec['kind']}, rank {spec['ambient_rank']}, {shape}",
             f"antisymmetric: {str(doc['antisymmetric']).lower()}",
             f"separating: {str(doc['separating']).lower()}",
             f"zero element: {'none' if zf is None else f'face {zf}'}",
             "asymptotic cone:",
             f"  rays: {_fmt_vecs(cone['rays'])}",
             f"  inequalities: {_fmt_vecs(cone['inequalities'])}",
             f"  lineality: {_fmt_vecs(cone['lineality'])}",
             f"faces: {len(doc['faces'])}"]
    for f in doc["faces"]:
        torsion = f["torsion"]
        group = " x ".join(f"Z/{d}" for d in torsion)
        lines.append(
            f"  face {f['id']}: dim {f['dim']}, lattice rank {f['lattice_rank']}, "
            f"torsion {_fmt_list(torsion)}{f' (component group {group})' if torsion else ''}, "
            f"lattice basis {_fmt_vecs(f['lattice_basis'])}, "
            f"dual rays {_fmt_vecs(f['dual_rays'])}")
    covers = doc["hasse_covers"]
    lines.append("hasse covers: " + (" ".join(f"{a}>{b}" for a, b in covers) if covers else "-"))
    lines.append(f"least idempotent: face {doc['least_idempotent']}")
    return "\n".join(lines) + "\n"


def emit_dot(atlas: SpectrumAtlas) -> str:
    """The Hasse diagram of the idempotents as DOT: :func:`analyze_document`'s
    faces and covers."""
    doc = analyze_document(atlas)
    lines = ["digraph idempotents {"]
    lines += [f'  f{f["id"]} [label="dim={f["dim"]} rank={f["lattice_rank"]} '
              f'torsion={_fmt_list(f["torsion"])}"];' for f in doc["faces"]]
    lines += [f"  f{a} -> f{b};" for a, b in doc["hasse_covers"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_fraction(token: str, where: str) -> Fraction:
    """An integer, ``p/q`` or a decimal.  No exponent: ``Fraction`` expands
    one into an exact power of ten, so a short token such as ``1e-3000000``
    would cost time out of all proportion to its length.  ``fractions``, and
    the ``decimal`` it loads, are imported here, by the commands that parse
    a rational."""
    from fractions import Fraction

    if "e" not in token.lower():
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{where}: bad rational {token!r}")


def _parse_fraction_list(body: str, where: str) -> list[Fraction]:
    if body == "":
        return []
    return [_parse_fraction(tok, where) for tok in body.split(",")]


def parse_character_tokens(atlas: SpectrumAtlas, tokens: Sequence[str]) -> Character:
    """Character given as three tokens: face:<id> theta:<q,..> lambda:<q,..>.

    Malformed tokens raise :class:`InputError`; data the atlas refuses (an
    unknown face, a wrong length, lambda off the dual cone) raises
    ``ValueError`` from :func:`~toric_spectrum.characters.make_character`."""
    from .characters import make_character

    if len(tokens) != 3:
        raise InputError(f"character needs 3 tokens, got {len(tokens)}: {tokens}")
    fields = {}
    for token in tokens:
        name, _, body = token.partition(":")
        if name not in ("face", "theta", "lambda") or not _:
            raise InputError(f"bad character token {token!r}")
        fields[name] = body
    if set(fields) != {"face", "theta", "lambda"}:
        raise InputError(f"character needs face:, theta:, lambda: tokens, got {tokens}")
    try:
        face_id = int(fields["face"], 10)
    except ValueError:
        raise InputError(f"bad face id {fields['face']!r}") from None
    theta = _parse_fraction_list(fields["theta"], "theta")
    lam = _parse_fraction_list(fields["lambda"], "lambda")
    return make_character(atlas, face_id, theta, lam)


def format_character(chi: Character) -> str:
    theta = ",".join(str(t) for t in chi.theta)
    lam = ",".join(str(v) for v in chi.lam)
    return f"face:{chi.face_id} theta:{theta} lambda:{lam}"


def _format_value(value) -> str:
    if value.zero:
        return "zero"
    approx = value.to_complex()
    return (f"angle {value.angle} exponent {value.exponent} "
            f"~ {approx.real:+.12f}{approx.imag:+.12f}j")


def _parse_point(tokens: Sequence[str], rank: int) -> tuple[int, ...]:
    if len(tokens) != rank:
        raise InputError(f"point needs {rank} coordinates, got {len(tokens)}")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok, 10))
        except ValueError:
            raise InputError(f"bad coordinate {tok!r}") from None
    return tuple(out)


# Each command takes the parsed arguments, the loaded spec and the output
# stream, builds the atlas if it needs one, and returns its exit code.


def _analyze(args, spec, out) -> int:
    atlas = enumerate_faces(spec)
    if args.as_json:
        json.dump(analyze_document(atlas), out, indent=2, sort_keys=False)
        out.write("\n")
    else:
        out.write(analyze_text(atlas))
    return 0


def _dot(args, spec, out) -> int:
    out.write(emit_dot(enumerate_faces(spec)))
    return 0


def _member(args, spec, out) -> int:
    point = _parse_point(args.coords, spec.ambient_rank)
    out.write(f"{str(contains(spec, point)).lower()}\n")
    return 0


def _hull_member(args, spec, out) -> int:
    atlas = enumerate_faces(spec)
    point = _parse_point(args.coords, spec.ambient_rank)
    out.write(f"{str(hull_contains(atlas, point)).lower()}\n")
    return 0


def _char(args, spec, out) -> int:
    from .characters import evaluate, involute, multiply, polar_decompose
    atlas = enumerate_faces(spec)
    chi = parse_character_tokens(atlas, args.tokens[:3])
    if args.char_op == "mul":
        other = parse_character_tokens(atlas, args.tokens[3:])
        out.write(format_character(multiply(atlas, chi, other)) + "\n")
    elif args.char_op == "polar":
        unitary, radial = polar_decompose(atlas, chi)
        out.write(f"unitary {format_character(unitary)}\nradial {format_character(radial)}\n")
    elif args.char_op == "conj":
        out.write(format_character(involute(atlas, chi)) + "\n")
    else:
        point = _parse_point(args.point, spec.ambient_rank)
        out.write(_format_value(evaluate(atlas, chi, point)) + "\n")
    return 0


def _ray(args, spec, out) -> int:
    from .characters import Ray, ray_limit
    atlas = enumerate_faces(spec)
    lam = _parse_fraction_list(args.lam, "lambda")
    rank = atlas.face(args.face).rank
    if len(lam) != rank:
        raise InputError(f"lambda needs {rank} entries, got {len(lam)}")
    out.write(f"limit: face {ray_limit(atlas, Ray(args.face, tuple(lam)))}\n")
    return 0


def _chain(args, spec, out) -> int:
    from .characters import chain_of_rays
    chain = chain_of_rays(enumerate_faces(spec), args.from_face, args.to_face)
    out.write(f"chain length: {len(chain)}\n")
    for i, ray in enumerate(chain, start=1):
        out.write(f"ray {i}: base face {ray.base_face_id}, lambda {','.join(map(str, ray.lam))}\n")
    return 0


def _oracle(args, spec, out) -> int:
    from . import oracle
    if args.box < 1:
        raise InputError("--box: must be >= 1")
    if args.trials < 0:
        raise InputError("--trials: must be >= 0")
    atlas = enumerate_faces(spec)
    box = oracle.BoxSpec(args.box)
    # face 0's cone is the ambient cone, so each cone is checked once
    cones = [f.cone for f in atlas.faces]
    # every budget is met before the first line is written
    try:
        oracle_sets = oracle.brute_force_faces(spec, box)
        reports = [oracle.dd_cross_check(cone, oracle.BoxSpec(min(box.radius, 4)))
                   for cone in cones]
    except oracle.OracleBudgetExceeded as exc:
        raise InputError(f"oracle verify: {exc}") from None
    face_sets = face_members_in_box(atlas, box.radius)
    atlas_sets = set(face_sets)
    faces_ok = atlas_sets == oracle_sets
    out.write(f"faces: atlas {len(atlas_sets)}, oracle {len(oracle_sets)}, "
              f"agree: {str(faces_ok).lower()}\n")
    dd_ok = not any(report.mismatches for report in reports)
    points = sum(report.points_checked for report in reports)
    out.write(f"dd cross-check: {len(cones)} cones, {points} points, "
              f"agree: {str(dd_ok).lower()}\n")
    # face 0's cone holds every member, and sorting gives the box's own order
    members = sorted(x for x in face_sets[0] if all(abs(c) <= 4 for c in x))
    deviation = oracle.numeric_homomorphism_check(atlas, members, args.trials, args.seed)
    out.write(f"numeric homomorphism check: {args.trials} trials, "
              f"max deviation {deviation:.3e}\n")
    ok = faces_ok and dd_ok and deviation <= 1e-9
    out.write(f"result: {'ok' if ok else 'FAILED'}\n")
    return 0 if ok else 4


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-spectrum",
        description="Exact combinatorial model of the character space of a "
                    "semigroup in Z^n.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an input file")
    p.set_defaults(run=_analyze)
    p.add_argument("path")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("dot", help="Hasse diagram of the idempotents as DOT")
    p.set_defaults(run=_dot)
    p.add_argument("path")

    for name, run, text in (("member", _member, "exact membership test"),
                            ("hull-member", _hull_member, "membership in the hull")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        p.add_argument("path")
        p.add_argument("coords", nargs="*")

    p = sub.add_parser("char", help="character operations")
    p.set_defaults(run=_char)
    char_sub = p.add_subparsers(dest="char_op", required=True)
    for name, extra in (("mul", 6), ("polar", 3), ("conj", 3), ("eval", 3)):
        q = char_sub.add_parser(name)
        q.add_argument("path")
        q.add_argument("tokens", nargs=extra)
        if name == "eval":
            q.add_argument("--point", nargs="*", required=True)

    p = sub.add_parser("ray", help="one parameter semigroup operations")
    p.set_defaults(run=_ray)
    ray_sub = p.add_subparsers(dest="ray_op", required=True)
    q = ray_sub.add_parser("limit")
    q.add_argument("path")
    q.add_argument("--face", type=int, default=0)
    q.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("chain", help="chain of rays joining two idempotents")
    p.set_defaults(run=_chain)
    p.add_argument("path")
    p.add_argument("--from", dest="from_face", type=int, required=True)
    p.add_argument("--to", dest="to_face", type=int, required=True)

    p = sub.add_parser("oracle", help="independent brute-force verification")
    p.set_defaults(run=_oracle)
    oracle_sub = p.add_subparsers(dest="oracle_op", required=True)
    q = oracle_sub.add_parser("verify")
    q.add_argument("path")
    q.add_argument("--box", type=int, default=6)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=200)
    return parser


def _run(args, out) -> int:
    """Load the spec and run the command its subparser names.  A
    ``ValueError`` the library raises on the command's input is an input
    error."""
    spec = load_spec(args.path)
    try:
        return args.run(args, spec, out)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    # the library is exact at any size, so integers print and parse in full
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        code = _run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to the null device
        # at exit, so nothing is written to stderr
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("out of memory: the input needs more memory than is available", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
