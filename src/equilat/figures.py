"""Named lattice realizations of the classified equable quadrilaterals.

These fixed vertex lists are the canonical drawings: congruence classes found
elsewhere (search catalog, trapezoid construction, cyclic side orders) are
mapped back to these coordinates for display and embedding answers, through
`place`.
"""

from __future__ import annotations

from fractions import Fraction

from equilat.errors import InconsistencyError
from equilat.geometry import (
    LatticeQuad,
    canonical_signature,
    is_equable,
    realize,
    signature,
)

__all__ = ["NAMED_QUADS", "KNOWN_EMBEDDINGS", "place"]


NAMED_QUADS: dict[str, LatticeQuad] = {
    "square-4": LatticeQuad(((0, 0), (4, 0), (4, 4), (0, 4))),
    "rectangle-3-6": LatticeQuad(((0, 0), (3, 0), (3, 6), (0, 6))),
    "rhombus-5": LatticeQuad(((0, 0), (5, 0), (8, 4), (3, 4))),
    "rhombus-5-alt": LatticeQuad(((0, 0), (4, -3), (4, 2), (0, 5))),
    "right-trapezoid-6-4-3-5": LatticeQuad(((0, 0), (6, 0), (6, 4), (3, 4))),
    "right-trapezoid-10-3-6-5": LatticeQuad(((0, 0), (10, 0), (10, 3), (4, 3))),
    "isosceles-trapezoid-8-5-2-5": LatticeQuad(((0, 0), (8, 0), (5, 4), (3, 4))),
    "isosceles-trapezoid-14-5-6-5": LatticeQuad(((0, 0), (14, 0), (10, 3), (4, 3))),
    "trapezoid-20-4-15-3": LatticeQuad(((0, 0), (16, 12), (12, 12), (0, 3))),
    "kite-3-15": LatticeQuad(((0, 0), (12, 9), (12, 12), (9, 12))),
    "dart-10-5": LatticeQuad(((0, 0), (10, 0), (6, 3), (6, 8))),
    "kite-k1-n7": LatticeQuad(((0, 0), (24, 7), (14, 7), (20, 15))),
    "kite-k1-n18": LatticeQuad(((0, 0), (60, 25), (36, 18), (56, 33))),
    "concave-60": LatticeQuad(((0, 0), (20, 15), (8, 10), (8, 15))),
}


def _check_equable(quads: dict[str, LatticeQuad]) -> None:
    """Raise InconsistencyError naming the first drawing that is not equable."""
    for name, q in quads.items():
        if not is_equable(q):
            raise InconsistencyError(f"named drawing {name!r} is not equable")


_check_equable(NAMED_QUADS)

# congruence signature -> preferred drawing (first name wins on duplicates)
KNOWN_EMBEDDINGS: dict[tuple[int, ...], LatticeQuad] = {}
for _q in NAMED_QUADS.values():
    KNOWN_EMBEDDINGS.setdefault(signature(_q), _q)


def place(sides_sq: tuple[int, ...], diag_sq: tuple[int | Fraction, ...]) -> LatticeQuad | None:
    """A lattice placement of the shape with these squared sides, in cyclic
    order, and exact squared diagonals: its named drawing when it has one,
    else `geometry.realize`'s answer; None when the lattice has none, as when
    a squared diagonal is not an integer.

    The placement is congruent to the shape, and no more: its sides in vertex
    order are the requested cyclic order or its reverse, read from some
    vertex, since a drawing starts where it likes and LatticeQuad turns a
    clockwise find round."""
    if any(d.denominator != 1 for d in diag_sq):
        return None
    diag_sq = tuple(map(int, diag_sq))
    named = KNOWN_EMBEDDINGS.get(canonical_signature(sides_sq, diag_sq))
    return named or realize(sides_sq, diag_sq)
