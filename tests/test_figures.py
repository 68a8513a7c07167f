from fractions import Fraction

import pytest

from equilat import cyclic, geometry, trapezoids
from equilat.errors import InconsistencyError
from equilat.figures import CLASS_DRAWINGS, NAMED_QUADS, _check_equable
from equilat.geometry import LatticeQuad, realize, signature
from equilat.trapezoids import all_equable_trapezoids, lattice_embedding, strip_width

# the right trapezoid 6, 4, 3, 5: squared sides from v0 and squared diagonals
TRAPEZOID_SIDES_SQ, TRAPEZOID_DIAG_SQ = (36, 16, 9, 25), (52, 25)


def test_named_drawings_pass():
    _check_equable(NAMED_QUADS)


def test_non_equable_drawing_is_an_error():
    # the unit square has area 1 and perimeter 4
    drawings = {**NAMED_QUADS, "unit-square": LatticeQuad(((0, 0), (1, 0), (1, 1), (0, 1)))}
    with pytest.raises(InconsistencyError, match="unit-square"):
        _check_equable(drawings)


class TestPlace:
    """`geometry.realize` places shapes from their squared sides and
    diagonals.  It takes ints only, so the package decides in integers that
    the diagonals are integers before it asks."""

    def test_only_ints_reach_the_realizer(self, monkeypatch):
        asked = []

        def recording(sides_sq, diag_sq):
            asked.append((*sides_sq, *diag_sq))
            return geometry.realize(sides_sq, diag_sq)

        monkeypatch.setattr(trapezoids, "realize", recording)
        monkeypatch.setattr(cyclic, "realize", recording)
        for t, f in trapezoids.all_equable_trapezoids():
            trapezoids.lattice_embedding(t, f)
        trapezoids.interior_rational()
        for wxyz in cyclic.solutions():
            cyclic.realizable_orderings(cyclic.sides(wxyz))
        # the five trapezoids, the gluings of interior_rational whose D^2 is
        # an integer, and the cyclic orders whose diagonals are
        assert len(asked) == 5 + 4 + 4
        assert all(type(x) is int for call in asked for x in call)

    @pytest.mark.parametrize("diag_sq", [(Fraction(25, 2), 52), (52, Fraction(25, 2))])
    def test_non_integral_diagonal_is_not_placed(self, diag_sq):
        with pytest.raises(ValueError, match="must be four and two nonnegative ints"):
            realize(TRAPEZOID_SIDES_SQ, diag_sq)


@pytest.mark.parametrize("name", NAMED_QUADS)
def test_realize_rebuilds_each_named_class(name):
    # every decision goes through the realizer, so it must find each class
    # that has a drawing from the class's signature alone
    sig = signature(NAMED_QUADS[name])
    placed = realize(sig[:4], sig[4:])
    assert placed is not None and signature(placed) == sig


def test_class_drawings_show_the_first_name():
    assert len(NAMED_QUADS) == 14 and len(CLASS_DRAWINGS) == 13
    for name, drawing in NAMED_QUADS.items():
        shown_name, shown = CLASS_DRAWINGS[signature(drawing)]
        assert signature(shown) == signature(drawing)
        assert list(NAMED_QUADS).index(shown_name) <= list(NAMED_QUADS).index(name)
        assert shown == NAMED_QUADS[shown_name]
    # the two rhombi are one class, shown as the one named first
    assert CLASS_DRAWINGS[signature(NAMED_QUADS["rhombus-5-alt"])][0] == "rhombus-5"


def _runs_through(q: LatticeQuad, order: tuple[int, ...]) -> bool:
    """Whether q's sides, in vertex order, are a rotation of the cyclic order
    or of its reverse."""
    edges = zip(q, q[1:] + q[:1])
    sides_sq = [(bx - ax) ** 2 + (by - ay) ** 2 for (ax, ay), (bx, by) in edges]
    turns = [[s * s for s in base[r:] + base[:r]] for base in (order, order[::-1]) for r in range(4)]
    return sides_sq in turns


@pytest.mark.parametrize("shown", [True, False], ids=["named", "realized"])
def test_placements_run_through_the_requested_order(shown):
    # realize promises congruence only: it turns a clockwise find round, so
    # the order may run backwards, from any vertex.  A trapezoid's order is
    # its long parallel side, a leg, its short parallel side and the other
    # leg, its legs being the triangle's sides other than f.  "named" checks
    # the drawing the CLI shows for the realized class, "realized" the
    # realizer's own placement.
    cases = []
    for t, f in all_equable_trapezoids():
        legs = list(t)
        legs.remove(f)
        c = strip_width(t, f)
        cases.append(((c + f, legs[0], c, legs[1]), lattice_embedding(t, f)))
    cases += [
        (order, emb)
        for wxyz in cyclic.solutions()
        for order, emb in cyclic.realizable_orderings(cyclic.sides(wxyz))
        if emb is not None
    ]
    assert len(cases) == 5 + 4  # one realizable order per cyclic solution
    for order, emb in cases:
        if shown and emb is not None:
            emb = CLASS_DRAWINGS[signature(emb)][1]
        assert emb is not None and _runs_through(emb, order), (order, emb)
