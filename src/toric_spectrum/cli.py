"""Command line driver: parse a semigroup description, analyze it, and expose
the character operations.

Exit codes: 0 success, 2 malformed input, 3 recognised but unsupported input
class (non-integer data), 4 internal invariant violation (always a bug), 5 out
of memory (the input needs more memory than the process can get).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .characters import (
    Character,
    Ray,
    chain_of_rays,
    evaluate,
    involute,
    make_character,
    multiply,
    polar_decompose,
    ray_limit,
)
from .oracle import (BoxSpec, OracleBudgetExceeded, brute_force_faces, dd_cross_check,
                     numeric_homomorphism_check)
from .semigroups import (
    Generators,
    SemigroupSpec,
    SpectrumAtlas,
    Tower,
    contains,
    enumerate_faces,
    face_members_in_box,
    hull_contains,
    members_in_box,
    zero_face,
)

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


def parse_spec(document, where: str = "input") -> SemigroupSpec:
    """Build a spec from the JSON document, with field-level diagnostics.

    The tower levels are read top down in a loop and built bottom up, so no
    depth of nesting recurses here; a tower nests at most
    :data:`MAX_TOWER_DEPTH` levels.
    """
    levels = []
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


def _torsion_note(torsion) -> str:
    if not torsion:
        return ""
    group = " x ".join(f"Z/{d}" for d in torsion)
    return f" (component group {group})"


def analyze_document(atlas: SpectrumAtlas) -> dict:
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


def analyze_text(atlas: SpectrumAtlas) -> str:
    spec = atlas.spec
    lines = []
    if isinstance(spec, Generators):
        lines.append(f"input: generators, rank {spec.ambient_rank}, "
                     f"{len(spec.generators)} generators")
    else:
        lines.append(f"input: tower, rank {spec.ambient_rank}, "
                     f"normal {_fmt_vec(spec.normal)}")
    lines.append(f"antisymmetric: {str(atlas.antisymmetric).lower()}")
    lines.append(f"separating: {str(atlas.separating).lower()}")
    zf = zero_face(atlas)
    lines.append(f"zero element: {'none' if zf is None else f'face {zf}'}")
    cone = atlas.ambient_cone
    lines.append("asymptotic cone:")
    lines.append(f"  rays: {_fmt_vecs(cone.rays)}")
    lines.append(f"  inequalities: {_fmt_vecs(cone.inequalities)}")
    lines.append(f"  lineality: {_fmt_vecs(cone.lineality)}")
    lines.append(f"faces: {len(atlas.faces)}")
    for f in atlas.faces:
        torsion = "[" + ",".join(str(d) for d in f.torsion) + "]"
        lines.append(
            f"  face {f.face_id}: dim {f.dim}, lattice rank {f.rank}, "
            f"torsion {torsion}{_torsion_note(f.torsion)}, "
            f"lattice basis {_fmt_vecs(f.lattice.basis)}, "
            f"dual rays {_fmt_vecs(f.dual_cone_local.rays)}")
    lines.append("hasse covers: " +
                 (" ".join(f"{a}>{b}" for a, b in atlas.covers) if atlas.covers else "-"))
    lines.append(f"least idempotent: face {atlas.minimal_id}")
    return "\n".join(lines) + "\n"


def emit_dot(atlas: SpectrumAtlas) -> str:
    lines = ["digraph idempotents {"]
    for f in atlas.faces:
        torsion = "[" + ",".join(str(d) for d in f.torsion) + "]"
        lines.append(f'  f{f.face_id} [label="dim={f.dim} rank={f.rank} '
                     f'torsion={torsion}"];')
    for a, b in atlas.covers:
        lines.append(f"  f{a} -> f{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_fraction(token: str, where: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{where}: bad rational {token!r}") from None


def _parse_fraction_list(body: str, where: str) -> list[Fraction]:
    if body == "":
        return []
    return [_parse_fraction(tok, where) for tok in body.split(",")]


def parse_character_tokens(atlas: SpectrumAtlas, tokens: Sequence[str]) -> Character:
    """Character given as three tokens: face:<id> theta:<q,..> lambda:<q,..>."""
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
    try:
        return make_character(atlas, face_id, theta, lam)
    except ValueError as exc:
        raise InputError(str(exc)) from None


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-spectrum",
        description="Exact combinatorial model of the character space of a "
                    "semigroup in Z^n.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an input file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("dot", help="Hasse diagram of the idempotents as DOT")
    p.add_argument("path")

    p = sub.add_parser("member", help="exact membership test")
    p.add_argument("path")
    p.add_argument("coords", nargs="*")

    p = sub.add_parser("hull-member", help="membership in the hull")
    p.add_argument("path")
    p.add_argument("coords", nargs="*")

    p = sub.add_parser("char", help="character operations")
    char_sub = p.add_subparsers(dest="char_op", required=True)
    for name, extra in (("mul", 6), ("polar", 3), ("conj", 3), ("eval", 3)):
        q = char_sub.add_parser(name)
        q.add_argument("path")
        q.add_argument("tokens", nargs=extra)
        if name == "eval":
            q.add_argument("--point", nargs="+", required=True)

    p = sub.add_parser("ray", help="one parameter semigroup operations")
    ray_sub = p.add_subparsers(dest="ray_op", required=True)
    q = ray_sub.add_parser("limit")
    q.add_argument("path")
    q.add_argument("--face", type=int, default=0)
    q.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("chain", help="chain of rays joining two idempotents")
    p.add_argument("path")
    p.add_argument("--from", dest="from_face", type=int, required=True)
    p.add_argument("--to", dest="to_face", type=int, required=True)

    p = sub.add_parser("oracle", help="independent brute-force verification")
    oracle_sub = p.add_subparsers(dest="oracle_op", required=True)
    q = oracle_sub.add_parser("verify")
    q.add_argument("path")
    q.add_argument("--box", type=int, default=6)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trials", type=int, default=200)
    return parser


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


def _run(args, out) -> int:
    spec = load_spec(args.path)
    if args.command in ("analyze", "dot", "hull-member", "char", "ray", "chain",
                        "oracle"):
        atlas = enumerate_faces(spec)
    if args.command == "analyze":
        if args.as_json:
            json.dump(analyze_document(atlas), out, indent=2, sort_keys=False)
            out.write("\n")
        else:
            out.write(analyze_text(atlas))
        return 0
    if args.command == "dot":
        out.write(emit_dot(atlas))
        return 0
    if args.command == "member":
        point = _parse_point(args.coords, spec.ambient_rank)
        out.write(f"{str(contains(spec, point)).lower()}\n")
        return 0
    if args.command == "hull-member":
        point = _parse_point(args.coords, spec.ambient_rank)
        out.write(f"{str(hull_contains(atlas, point)).lower()}\n")
        return 0
    if args.command == "char":
        if args.char_op == "mul":
            a = parse_character_tokens(atlas, args.tokens[:3])
            b = parse_character_tokens(atlas, args.tokens[3:])
            out.write(format_character(multiply(atlas, a, b)) + "\n")
        elif args.char_op == "polar":
            chi = parse_character_tokens(atlas, args.tokens)
            unitary, radial = polar_decompose(atlas, chi)
            out.write("unitary " + format_character(unitary) + "\n")
            out.write("radial " + format_character(radial) + "\n")
        elif args.char_op == "conj":
            chi = parse_character_tokens(atlas, args.tokens)
            out.write(format_character(involute(atlas, chi)) + "\n")
        else:
            chi = parse_character_tokens(atlas, args.tokens)
            point = _parse_point(args.point, spec.ambient_rank)
            try:
                value = evaluate(atlas, chi, point)
            except ValueError as exc:
                raise InputError(str(exc)) from None
            out.write(_format_value(value) + "\n")
        return 0
    if args.command == "ray":
        lam = _parse_fraction_list(args.lam, "lambda")
        try:
            rank = atlas.face(args.face).rank
            if len(lam) != rank:
                raise InputError(f"lambda needs {rank} entries, got {len(lam)}")
            limit = ray_limit(atlas, Ray(args.face, tuple(lam)))
        except ValueError as exc:
            raise InputError(str(exc)) from None
        out.write(f"limit: face {limit}\n")
        return 0
    if args.command == "chain":
        try:
            chain = chain_of_rays(atlas, args.from_face, args.to_face)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        out.write(f"chain length: {len(chain)}\n")
        for i, ray in enumerate(chain, start=1):
            lam = ",".join(str(v) for v in ray.lam)
            out.write(f"ray {i}: base face {ray.base_face_id}, lambda {lam}\n")
        return 0
    if args.command == "oracle":
        if args.box < 1:
            raise InputError("--box: must be >= 1")
        if args.trials < 0:
            raise InputError("--trials: must be >= 0")
        box = BoxSpec(args.box)
        # face 0's cone is the ambient cone, so each cone is checked once
        cones = [f.cone for f in atlas.faces]
        # every budget is met before the first line is written
        try:
            oracle_sets = brute_force_faces(spec, box)
            reports = [dd_cross_check(cone, BoxSpec(min(box.radius, 4))) for cone in cones]
        except OracleBudgetExceeded as exc:
            raise InputError(f"oracle verify: {exc}") from None
        atlas_sets = {frozenset(s) for s in face_members_in_box(atlas, box.radius)}
        faces_ok = atlas_sets == oracle_sets
        out.write(f"faces: atlas {len(atlas_sets)}, oracle {len(oracle_sets)}, "
                  f"agree: {str(faces_ok).lower()}\n")
        dd_ok = not any(report.mismatches for report in reports)
        points = sum(report.points_checked for report in reports)
        out.write(f"dd cross-check: {len(cones)} cones, {points} points, "
                  f"agree: {str(dd_ok).lower()}\n")
        members = members_in_box(spec, min(box.radius, 4))
        deviation = numeric_homomorphism_check(atlas, members, args.trials, args.seed)
        out.write(f"numeric homomorphism check: {args.trials} trials, "
                  f"max deviation {deviation:.3e}\n")
        ok = faces_ok and dd_ok and deviation <= 1e-9
        out.write(f"result: {'ok' if ok else 'FAILED'}\n")
        return 0 if ok else 4
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    # the library is exact at any size, so integers print and parse in full
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return _run(args, out)
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
