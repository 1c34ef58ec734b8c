"""Exact combinatorial model of the character space of a semigroup in Z^n.

Given a finite description of a semigroup S in Z^n (a generator list, or a
halfspace tower), the library computes its face atlas: every face with its
asymptotic cone, the subgroup it generates, torsion invariants and dual
cones, plus a fully operational character semigroup with pointwise
multiplication, involution, polar decomposition and one parameter rays.  All
arithmetic is exact (arbitrary precision integers and rationals).
"""

from .characters import (
    Character,
    ExactValue,
    Ray,
    chain_of_rays,
    classify,
    evaluate,
    idempotent,
    idempotent_lattice_ops,
    identity_character,
    involute,
    make_character,
    multiply,
    multiply_values,
    polar_decompose,
    ray_limit,
    ray_point,
    zero_character,
)
from .cones import (
    Cone,
    FaceHandle,
    FaceLattice,
    cone_contains_cone,
    cone_from_inequalities,
    cone_from_rays,
    dual_cone,
    face_lattice,
    full_cone,
    is_pointed,
    zero_cone,
)
from .intlinalg import (
    IntVector,
    InvariantViolation,
    Lattice,
    RationalVector,
    hnf,
    int_kernel,
    lattice_contains,
    quotient_invariants,
    saturation_index,
)
from .semigroups import (
    FaceData,
    Generators,
    MembershipUndecided,
    SemigroupSpec,
    SpectrumAtlas,
    Tower,
    asymptotic_cone,
    contains,
    enumerate_faces,
    face_members_in_box,
    hull_contains,
    is_antisymmetric,
    is_separating,
    members_in_box,
    validate_atlas,
    zero_face,
)

__version__ = "0.1.0"

__all__ = [
    "Character", "ExactValue", "Ray", "chain_of_rays", "classify", "evaluate",
    "idempotent", "idempotent_lattice_ops", "identity_character", "involute",
    "make_character", "multiply", "multiply_values", "polar_decompose",
    "ray_limit", "ray_point", "zero_character",
    "Cone", "FaceHandle", "FaceLattice", "cone_contains_cone",
    "cone_from_inequalities", "cone_from_rays", "dual_cone", "face_lattice",
    "full_cone", "is_pointed", "zero_cone",
    "IntVector", "InvariantViolation", "Lattice", "RationalVector", "hnf", "int_kernel",
    "lattice_contains", "quotient_invariants", "saturation_index",
    "FaceData", "Generators", "MembershipUndecided", "SemigroupSpec",
    "SpectrumAtlas", "Tower", "asymptotic_cone", "contains",
    "enumerate_faces", "face_members_in_box", "hull_contains",
    "is_antisymmetric", "is_separating", "members_in_box", "validate_atlas",
    "zero_face",
    "__version__",
]
