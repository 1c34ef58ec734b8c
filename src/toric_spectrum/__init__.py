"""Exact combinatorial model of the character space of a semigroup in Z^n.

Given a finite description of a semigroup S in Z^n (a generator list, or a
halfspace tower), the library computes its face atlas: every face with its
asymptotic cone, the subgroup it generates, torsion invariants and dual
cones, plus a fully operational character semigroup with pointwise
multiplication, involution, polar decomposition and one parameter rays.  All
arithmetic is exact (arbitrary precision integers and rationals).

Importing the package loads none of its modules: each exported name, and
each of the four modules that export them, is loaded on first use (PEP 562),
so ``toric_spectrum.contains`` loads ``semigroups`` and what it imports, and
nothing else.
"""

from importlib import import_module

_EXPORTS = {
    "characters": (
        "Character", "ExactValue", "Ray", "chain_of_rays", "classify", "evaluate",
        "idempotent", "idempotent_lattice_ops", "identity_character", "involute",
        "make_character", "multiply", "multiply_values", "polar_decompose",
        "ray_limit", "ray_point", "zero_character"),
    "cones": (
        "Cone", "FaceHandle", "FaceLattice", "cone_contains_cone",
        "cone_from_inequalities", "cone_from_rays", "dual_cone", "face_lattice"),
    "intlinalg": (
        "IntVector", "InvariantViolation", "Lattice", "hnf", "int_kernel", "lattice_contains"),
    "semigroups": (
        "FaceData", "Generators", "MembershipUndecided", "SemigroupSpec",
        "SpectrumAtlas", "Tower", "asymptotic_cone", "contains",
        "enumerate_faces", "face_members_in_box", "hull_contains", "members_in_box",
        "validate_atlas", "zero_face"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
