from fractions import Fraction

import pytest

from equilat import figures
from equilat.errors import InconsistencyError
from equilat.figures import NAMED_QUADS, _check_equable, place
from equilat.geometry import quad, signature

# the right trapezoid 6, 4, 3, 5: squared sides from v0 and squared diagonals
TRAPEZOID_SIDES_SQ, TRAPEZOID_DIAG_SQ = (36, 16, 9, 25), (52, 25)


def test_named_drawings_pass():
    _check_equable(NAMED_QUADS)


def test_non_equable_drawing_is_an_error():
    # the unit square has area 1 and perimeter 4
    drawings = {**NAMED_QUADS, "unit-square": quad((0, 0), (1, 0), (1, 1), (0, 1))}
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
