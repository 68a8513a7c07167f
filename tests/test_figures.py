import pytest

from equilat.errors import InconsistencyError
from equilat.figures import NAMED_QUADS, _check_equable
from equilat.geometry import quad


def test_named_drawings_pass():
    _check_equable(NAMED_QUADS)


def test_non_equable_drawing_is_an_error():
    # the unit square has area 1 and perimeter 4
    drawings = {**NAMED_QUADS, "unit-square": quad((0, 0), (1, 0), (1, 1), (0, 1))}
    with pytest.raises(InconsistencyError, match="unit-square"):
        _check_equable(drawings)
