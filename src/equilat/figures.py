"""Named lattice drawings of the classified equable quadrilaterals.

The drawings are for display only: `render` draws them, and `CLASS_DRAWINGS`
shows a class that `geometry.realize` found elsewhere (a trapezoid, a cyclic
side order) as its drawing.
"""

from __future__ import annotations

from equilat.errors import InconsistencyError
from equilat.geometry import LatticeQuad, is_equable, signature

__all__ = ["NAMED_QUADS", "CLASS_DRAWINGS"]


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

# congruence signature -> (name, drawing) shown for the class; the first name
# wins on duplicates
CLASS_DRAWINGS: dict[tuple[int, ...], tuple[str, LatticeQuad]] = {}
for _name, _q in NAMED_QUADS.items():
    CLASS_DRAWINGS.setdefault(signature(_q), (_name, _q))
