"""Characters of a semigroup: the operational model of its spectrum.

A character is a semigroup homomorphism into the closed unit disc.  Every
character is parametrised by a face of the atlas plus two rational vectors on
the face lattice basis: ``theta`` (angles, mod 1) gives the unitary part and
``lam`` (nonnegative on the face cone, i.e. a point of the dual cone) gives
the radial decay.  On a face member ``x = sum(c_i b_i)`` the value is

    exp(2 pi i <theta, c>) * exp(-<lam, c>)

and 0 off the face.  Storing data on the face lattice basis makes equality of
characters a plain comparison of canonical triples.

The arithmetic runs in integers: each rational vector is taken as integer
numerators over the least common denominator of its entries, and Fractions
are built only for the returned character or value.  A positive rescale does
not change cone membership, so the dual cone tests read the numerators.
Entries must be ints or Fractions; a float raises TypeError.

Restriction from a face to a face below it is an integer matrix, the rows of
the smaller face's lattice basis on the larger one's, all rows from one
back-substitution on the larger basis's HNF pivots.  Each matrix is built
once per atlas, when first queried, and kept in a table on the atlas.  A face
lattice spans its cone, so a functional vanishes on a face cone exactly when
it vanishes on the rows of that face's restriction.

The face order is read from the atlas's down-set and up-set bitmasks
(:attr:`~toric_spectrum.semigroups.SpectrumAtlas.order`), so every order query
is a lookup.  A product lives on the meet of the two faces; the limit of a
ray is the join of the faces below its base on which its decay vanishes; a
chain of rays walks down the face lattice, each step to the lowest face id
strictly between the current face and the target, which is a maximal one
because ids run by decreasing dimension.  Face ids outside the atlas raise
ValueError.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import exp, lcm, pi
from typing import Optional, Sequence

from .intlinalg import (
    IntVector,
    InvariantViolation,
    dot,
    hnf_coordinates,
)
from .semigroups import SpectrumAtlas, contains, zero_face


@dataclass(frozen=True)
class Character:
    face_id: int
    theta: tuple[Fraction, ...]
    lam: tuple[Fraction, ...]


@dataclass(frozen=True)
class ExactValue:
    """A point of the closed unit disc in exact polar form:
    ``exp(2 pi i angle) * exp(-exponent)``, or zero."""

    zero: bool
    angle: Optional[Fraction] = None
    exponent: Optional[Fraction] = None

    def to_complex(self) -> complex:
        if self.zero:
            return 0j
        # exp(-800) already underflows to 0.0, and a larger exponent would
        # overflow the float
        return cmath.rect(exp(-float(min(self.exponent, 800))), 2.0 * pi * float(self.angle))


ZERO_VALUE = ExactValue(True)
_ZERO = Fraction(0)


def multiply_values(a: ExactValue, b: ExactValue) -> ExactValue:
    if a.zero or b.zero:
        return ZERO_VALUE
    return ExactValue(False, (a.angle + b.angle) % 1, a.exponent + b.exponent)


@dataclass(frozen=True)
class Ray:
    """One parameter semigroup of characters ``t -> exp(-t lam)`` based at a
    face idempotent; ``lam`` lives in the dual cone of the base face."""

    base_face_id: int
    lam: tuple[Fraction, ...]


def _numerators(vec: Sequence) -> tuple[list[int], int]:
    """Integer numerators of rational entries over their least common
    denominator d > 0.  TypeError for an entry that is not an int or a
    Fraction, such as a float."""
    try:
        d = lcm(*(v.denominator for v in vec))
        return [v.numerator * (d // v.denominator) for v in vec], d
    except AttributeError:
        raise TypeError(f"entries must be ints or Fractions, got {tuple(vec)}") from None


def make_character(atlas: SpectrumAtlas, face_id: int,
                   theta: Sequence, lam: Sequence) -> Character:
    """Validate and canonicalise character data against the atlas."""
    face = atlas.face(face_id)
    theta, lam = tuple(theta), tuple(lam)
    if len(theta) != face.rank or len(lam) != face.rank:
        raise ValueError(
            f"face {face_id} has lattice rank {face.rank}, got theta/lambda of "
            f"lengths {len(theta)}/{len(lam)}")
    angles, d = _numerators(theta)
    decay, e = _numerators(lam)
    if not face.dual_cone_local.contains(decay):
        raise ValueError(f"lambda {lam} is not in the dual cone of face {face_id}")
    return Character(face_id, tuple(Fraction(n % d, d) for n in angles),
                     tuple(Fraction(n, e) for n in decay))


def idempotent(atlas: SpectrumAtlas, face_id: int) -> Character:
    """The characteristic function of a face: 1 on it, 0 elsewhere."""
    zero = (_ZERO,) * atlas.face(face_id).rank
    return Character(face_id, zero, zero)


def identity_character(atlas: SpectrumAtlas) -> Character:
    """The idempotent of face 0, the whole semigroup: 1 everywhere."""
    return idempotent(atlas, 0)


def zero_character(atlas: SpectrumAtlas) -> Optional[Character]:
    """The absorbing character, which exists iff the least face is trivial."""
    j = zero_face(atlas)
    return None if j is None else idempotent(atlas, j)


def _face_coordinates(atlas: SpectrumAtlas, face_id: int,
                      xs: Sequence[IntVector]) -> list[IntVector]:
    """The coordinates of each x on the face's lattice basis, all from one
    back-substitution on its HNF pivots."""
    solved = hnf_coordinates(atlas.faces[face_id].lattice.basis, xs)
    if solved is None or any(d != 1 for _, d in solved):
        raise InvariantViolation(f"{tuple(xs)} must lie in the lattice of face {face_id}")
    return [y for y, _ in solved]


def evaluate(atlas: SpectrumAtlas, chi: Character, x: Sequence[int]) -> ExactValue:
    """Value of the character at a semigroup member.

    Zero off the face; on the face the angle is ``<theta, c> mod 1`` and the
    exponent ``<lam, c>`` where c are the coordinates of x on the face
    lattice basis.  Non-integer coordinates are rejected (TypeError).
    """
    face = atlas.face(chi.face_id)
    x = tuple(map(operator.index, x))
    if not contains(atlas.spec, x):
        raise ValueError(f"{x} is not a member of the semigroup")
    if not face.cone.contains(x):
        return ZERO_VALUE
    (coords,) = _face_coordinates(atlas, chi.face_id, [x])
    angles, d = _numerators(chi.theta)
    decay, e = _numerators(chi.lam)
    exponent = dot(decay, coords)
    if exponent < 0:
        raise InvariantViolation("dual cone constraint keeps the modulus inside the disc")
    return ExactValue(False, Fraction(dot(angles, coords) % d, d), Fraction(exponent, e))


def _restriction(atlas: SpectrumAtlas, sub_face: int, face: int) -> tuple[IntVector, ...]:
    """Rows expressing the sub-face lattice basis on the parent face basis,
    built on first use and kept in the atlas's table.

    Integrality is guaranteed by the nesting of face lattices and checked.
    """
    table = atlas._restrictions
    rows = table.get((sub_face, face))
    if rows is None:
        rows = table[sub_face, face] = tuple(
            _face_coordinates(atlas, face, atlas.faces[sub_face].lattice.basis))
    return rows


def _sum_on_meet(atlas: SpectrumAtlas, meet: int, a_face: int, a_vec: Sequence,
                 b_face: int, b_vec: Sequence) -> tuple[list[int], int]:
    """Numerators of the sum of two vectors restricted to the meet lattice,
    over their common denominator."""
    nums, d = _numerators((*a_vec, *b_vec))
    na, nb = nums[:len(a_vec)], nums[len(a_vec):]
    return [dot(ra, na) + dot(rb, nb)
            for ra, rb in zip(_restriction(atlas, meet, a_face),
                              _restriction(atlas, meet, b_face))], d


def multiply(atlas: SpectrumAtlas, a: Character, b: Character) -> Character:
    """Pointwise product of characters.

    The product lives on the meet of the two faces; both data vectors are
    added and restricted to the meet lattice.
    """
    meet = atlas.meet(a.face_id, b.face_id)
    angles, d = _sum_on_meet(atlas, meet, a.face_id, a.theta, b.face_id, b.theta)
    decay, e = _sum_on_meet(atlas, meet, a.face_id, a.lam, b.face_id, b.lam)
    if not atlas.faces[meet].dual_cone_local.contains(decay):
        raise InvariantViolation("product decay leaves the dual cone of the meet")
    return Character(meet, tuple(Fraction(n % d, d) for n in angles),
                     tuple(Fraction(n, e) for n in decay))


def involute(atlas: SpectrumAtlas, chi: Character) -> Character:
    """Complex conjugation: negate the angles, keep the decay."""
    atlas.face(chi.face_id)  # ValueError for an unknown face
    return Character(chi.face_id, tuple((-t) % 1 for t in chi.theta), chi.lam)


def polar_decompose(atlas: SpectrumAtlas, chi: Character) -> tuple[Character, Character]:
    """Split into a unitary part (angles only) and the unique nonnegative
    radial part (decay only) on the same face."""
    zero = (_ZERO,) * atlas.face(chi.face_id).rank
    return (Character(chi.face_id, chi.theta, zero),
            Character(chi.face_id, zero, chi.lam))


def _ray_decay(atlas: SpectrumAtlas, ray: Ray):
    """The base face of a ray and the numerators of its decay over their
    denominator.  ValueError for an unknown base face or a decay off the
    base's dual cone, TypeError for an entry that is not rational."""
    face = atlas.face(ray.base_face_id)
    decay, e = _numerators(ray.lam)
    if not face.dual_cone_local.contains(decay):
        raise ValueError("ray data must lie in the dual cone of its base face")
    return face, decay, e


def ray_point(atlas: SpectrumAtlas, ray: Ray, t) -> Character:
    """The character ``exp(-t lam)`` on the base face; t >= 0."""
    (s,), q = _numerators((t,))
    if s < 0:
        raise ValueError("ray parameter must be nonnegative")
    face, decay, e = _ray_decay(atlas, ray)
    return Character(ray.base_face_id, (_ZERO,) * face.rank,
                     tuple(Fraction(s * n, q * e) for n in decay))


def ray_limit(atlas: SpectrumAtlas, ray: Ray) -> int:
    """Face of the limit idempotent of the ray: the largest face below the
    base on whose cone the decay functional vanishes, the join of those
    faces."""
    decay = _ray_decay(atlas, ray)[1]
    below = atlas.order[0][ray.base_face_id]
    candidates = [j for j in range(len(atlas.faces)) if below >> j & 1
                  and _vanishes_on_face(atlas, decay, ray.base_face_id, j)]
    limit = atlas.join_of(candidates)
    if limit not in candidates:
        raise InvariantViolation("limit face is not unique")
    return limit


def _vanishes_on_face(atlas: SpectrumAtlas, lam: Sequence,
                      base_id: int, face_id: int) -> bool:
    """Whether the functional ``lam`` on the base face lattice vanishes on
    the cone of a face below the base: on its lattice basis, which spans
    that cone."""
    return all(dot(lam, row) == 0 for row in _restriction(atlas, face_id, base_id))


def idempotent_lattice_ops(atlas: SpectrumAtlas, face_ids: Sequence[int]) -> tuple[int, int]:
    """Meet and join of a nonempty set of idempotents, as face ids."""
    ids = list(face_ids)
    if not ids:
        raise ValueError("need at least one face id")
    return atlas.meet_of(ids), atlas.join_of(ids)


def chain_of_rays(atlas: SpectrumAtlas, from_face: int, to_face: int) -> list[Ray]:
    """A chain of rays descending from one idempotent to a smaller one.

    Each step drops to a maximal intermediate face; the decay functional is
    the sum of the facet normals of the current face cone that vanish on the
    target, which lands exactly on it.  The chain length never exceeds the
    lattice rank difference.
    """
    if atlas.meet(from_face, to_face) != to_face:
        raise ValueError(f"face {to_face} is not below face {from_face}")
    down, up = atlas.order
    chain: list[Ray] = []
    current = from_face
    while current != to_face:
        # ids run by decreasing dimension, which strictly drops along the
        # order, so the lowest id strictly between is a maximal one
        between = up[to_face] & down[current] & ~(1 << current)
        target = (between & -between).bit_length() - 1
        face = atlas.faces[current]
        normals = [a for a in face.cone_local.inequalities
                   if _vanishes_on_face(atlas, a, current, target)]
        if not normals:
            raise InvariantViolation("a strictly smaller face lies on at least one facet")
        ray = Ray(current, tuple(Fraction(sum(column)) for column in zip(*normals)))
        landed = ray_limit(atlas, ray)
        if landed != target or atlas.faces[landed].rank >= face.rank:
            raise InvariantViolation("ray does not land on the chosen face")
        chain.append(ray)
        current = landed
    return chain


def classify(atlas: SpectrumAtlas, chi: Character) -> dict:
    """Structural flags of a character.

    ``full_support`` (face 0, the whole semigroup) is computed twice: from
    the face id and from nonvanishing at an interior member; the two answers
    must agree.
    """
    is_idempotent = all(t == 0 for t in chi.theta) and all(v == 0 for v in chi.lam)
    is_symmetric = all(t == 0 or t == Fraction(1, 2) for t in chi.theta)
    is_nonnegative = all(t == 0 for t in chi.theta)
    by_face = chi.face_id == 0
    by_value = not evaluate(atlas, chi, atlas.interior_member).zero
    if by_face != by_value:
        raise InvariantViolation("openness test disagrees with the face test")
    return {
        "is_idempotent": is_idempotent,
        "is_symmetric": is_symmetric,
        "is_nonnegative": is_nonnegative,
        "full_support": by_face,
    }
