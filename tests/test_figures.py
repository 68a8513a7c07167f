from fractions import Fraction

import pytest

from equilat import cyclic, figures
from equilat.errors import InconsistencyError
from equilat.figures import NAMED_QUADS, _check_equable, place
from equilat.geometry import LatticeQuad, signature
from equilat.trapezoids import all_equable_trapezoids, lattice_embedding

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
    @pytest.mark.parametrize("diag_sq", [(Fraction(25, 2), 52), (52, Fraction(25, 2))])
    def test_non_integral_diagonal_is_not_placed(self, diag_sq):
        assert place(TRAPEZOID_SIDES_SQ, diag_sq) is None

    def test_integral_fractions_place_like_ints(self):
        diag = tuple(map(Fraction, TRAPEZOID_DIAG_SQ))
        assert place(TRAPEZOID_SIDES_SQ, diag) == place(TRAPEZOID_SIDES_SQ, TRAPEZOID_DIAG_SQ)
        assert place(TRAPEZOID_SIDES_SQ, diag) == NAMED_QUADS["right-trapezoid-6-4-3-5"]

    def test_integral_fractions_realize_like_ints(self, monkeypatch):
        # with the named drawings hidden, the answer comes from the realizer
        monkeypatch.setattr(figures, "KNOWN_EMBEDDINGS", {})
        sig = signature(NAMED_QUADS["concave-60"])
        placed = place(sig[:4], tuple(map(Fraction, sig[4:])))
        assert placed == place(sig[:4], sig[4:])
        assert signature(placed) == sig


def _runs_through(q: LatticeQuad, order: tuple[int, ...]) -> bool:
    """Whether q's sides, in vertex order, are a rotation of the cyclic order
    or of its reverse."""
    edges = zip(q, q[1:] + q[:1])
    sides_sq = [(bx - ax) ** 2 + (by - ay) ** 2 for (ax, ay), (bx, by) in edges]
    turns = [[s * s for s in base[r:] + base[:r]] for base in (order, order[::-1]) for r in range(4)]
    return sides_sq in turns


@pytest.mark.parametrize("hide_drawings", [False, True], ids=["named", "realized"])
def test_placements_run_through_the_requested_order(hide_drawings, monkeypatch):
    # place promises congruence only: a drawing starts at any vertex, and the
    # realizer turns a clockwise find round, so the order may run backwards
    if hide_drawings:
        monkeypatch.setattr(figures, "KNOWN_EMBEDDINGS", {})
    cases = [(t.quad_sides, lattice_embedding(t)) for t in all_equable_trapezoids()]
    cases += [
        (order, emb)
        for wxyz in cyclic.solutions()
        for order, emb in cyclic.realizable_orderings(cyclic.sides(wxyz))
        if emb is not None
    ]
    assert len(cases) == 5 + 4  # one realizable order per cyclic solution
    for order, emb in cases:
        assert emb is not None and _runs_through(emb, order), (order, emb)
