"""Heronian triangles and the equable trapezoids they generate.

An equable trapezoid with integer sides splits along the short parallel side
into a perimeter-dominant Heronian triangle plus a parallelogram strip.  Given
such a triangle and a choice f of the side to extend, the strip width is

    c = f * (perimeter - area) / (2 * (area - f)),

and the construction succeeds exactly when c is a positive integer.

The triangles come from their tangent lengths.  A Heronian perimeter is even,
so with s the half-perimeter the sides are (u+v, u+w, v+w) for integers
1 <= u <= v <= w with s = u+v+w, and Heron's formula reads A^2 = s*u*v*w.
Perimeter dominance, A < 2s, becomes u*v*w < 4(u+v+w) <= 12w, so u*v < 12.
The branches (u, v) fall into three kinds:

- u*v > 4: the inequality bounds w by (4(u+v) - 1) // (u*v - 4), so these
  branches are finite.  The only hit is (2, 3), giving (5, 5, 6).
- (1, 1), (1, 4), (2, 2): the inequality leaves w unbounded, but u*v is a
  square, so w(w+u+v) must be a square k^2, that is
  (2w+u+v)^2 - (2k)^2 = (u+v)^2.  The two factors of that difference of
  squares are at least 1 and multiply to (u+v)^2, so their sum
  2(2w+u+v) is at most 1 + (u+v)^2, that is w <= (u+v-1)^2 / 4.  The only
  hit is (1, 4), giving (5, 5, 8).
- (1, 2) and (1, 3): infinite.  (1, 2) holds the family rows 1 and 2 (with
  (3, 4, 5) as row 1 at x = 1), and (1, 3) holds rows 3 and 4.

Running every triangle through every choice of f yields the five classical
solutions, all from (3, 4, 5), (5, 5, 6) and (5, 5, 8); the four infinite
families never produce an integer c.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from equilat import pell
from equilat.errors import Checked, EquilatError, InconsistencyError
from equilat.figures import place
from equilat.geometry import LatticeQuad

__all__ = [
    "HeronianTriangle",
    "TrapezoidSolution",
    "DegenerateTrapezoidError",
    "TRAPEZOID_SCAN_BOUND",
    "heron_area",
    "enumerate_perimeter_dominant",
    "family_member",
    "family_members_within",
    "shorter_parallel_side",
    "trapezoid_from",
    "all_equable_trapezoids",
    "lattice_embedding",
]

TRAPEZOID_SCAN_BOUND = 400
"""Default perimeter bound for listing triangles and trapezoids.  It is not
a completeness bound: the branch analysis in the module docstring leaves only
the four family rows unbounded, and they give no trapezoid, so the five
solutions are found at any bound of at least 18.  At 400 the list shows the
three sporadic triangles and the smallest members of every family row."""


class DegenerateTrapezoidError(EquilatError):
    """Chosen side is at least the triangle area, forcing height <= 2."""


def heron_area(x: int, y: int, z: int) -> int | None:
    """Integer area of the triangle with sides x <= y <= z, or None when the
    triangle is degenerate or the area is not an integer."""
    if not (0 < x <= y <= z):
        raise ValueError("sides must be positive and ordered x <= y <= z")
    prod = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
    if prod <= 0:
        return None
    root = isqrt(prod)
    if root * root != prod or root % 4:
        return None
    return root // 4


class _HeronianTriangle(NamedTuple):
    sides: tuple[int, int, int]  # x <= y <= z
    perimeter: int
    area: int


class HeronianTriangle(Checked, _HeronianTriangle):
    """Integer-sided triangle with integer area."""

    __slots__ = ()

    def _check(self) -> None:
        x, y, z = self.sides
        if not (0 < x <= y <= z) or x + y <= z:
            raise ValueError(f"{self.sides} is not a valid (ordered) triangle")
        if self.perimeter != x + y + z:
            raise ValueError("perimeter does not match the sides")
        if self.area < 1 or heron_area(x, y, z) != self.area:
            raise ValueError("area does not satisfy Heron's formula")

    @classmethod
    def from_sides(cls, x: int, y: int, z: int) -> "HeronianTriangle":
        area = heron_area(x, y, z)
        if area is None:
            raise ValueError(f"({x},{y},{z}) is not Heronian")
        return cls((x, y, z), x + y + z, area)

    @property
    def delta(self) -> int:
        return self.perimeter - self.area


def enumerate_perimeter_dominant(p_max: int) -> list[HeronianTriangle]:
    """Every Heronian triangle with perimeter <= p_max and perimeter > area,
    sorted by (perimeter, sides).

    Walks the tangent lengths u <= v <= w with u*v < 12 (see the module
    docstring): w stops at the perimeter bound, and earlier at the bound
    that perimeter dominance puts on it when u*v > 4, or at (u+v-1)^2 // 4
    when u*v is a square.  Only (1, 2) and (1, 3) reach the perimeter
    bound, so the work is O(p_max).
    """
    if p_max < 12:
        raise ValueError("p_max must be at least 12 (the smallest Heronian perimeter)")
    found = []
    for u in range(1, 4):
        for v in range(u, 11 // u + 1):
            uv = u * v
            w_max = p_max // 2 - u - v
            if uv > 4:
                w_max = min(w_max, (4 * (u + v) - 1) // (uv - 4))
            elif isqrt(uv) ** 2 == uv:
                w_max = min(w_max, (u + v - 1) ** 2 // 4)
            for w in range(v, w_max + 1):
                s = u + v + w
                area_sq = s * uv * w
                area = isqrt(area_sq)
                if area * area == area_sq and area < 2 * s:
                    found.append(HeronianTriangle((u + v, u + w, v + w), 2 * s, area))
    found.sort(key=lambda t: (t.perimeter, t.sides))
    return found


# Infinite families of perimeter-dominant Heronian triangles: closed forms for
# the sides, perimeter and area, the governing restriction equation, and the
# smallest admissible x.
_ROWS: dict[int, dict] = {
    1: {
        "pell": "x^2+1=2y^2", "x_min": 7,
        "sides": lambda x: (3, 3 * x * x + 1, 3 * x * x + 2),
        "perimeter": lambda x: 6 * x * x + 6,
        "area": lambda x, y: 6 * x * y,
    },
    2: {
        "pell": "x^2-1=2y^2", "x_min": 3,
        "sides": lambda x: (3, 3 * x * x - 2, 3 * x * x - 1),
        "perimeter": lambda x: 6 * x * x,
        "area": lambda x, y: 6 * x * y,
    },
    3: {
        "pell": "x^2+2=3y^2", "x_min": 5,
        "sides": lambda x: (4, 2 * x * x + 1, 2 * x * x + 3),
        "perimeter": lambda x: 4 * x * x + 8,
        "area": lambda x, y: 6 * x * y,
    },
    4: {
        "pell": "x^2-1=3y^2", "x_min": 2,
        "sides": lambda x: (4, 4 * x * x - 3, 4 * x * x - 1),
        "perimeter": lambda x: 8 * x * x,
        "area": lambda x, y: 12 * x * y,
    },
}


def family_member(row: int, sol: pell.PellSolution) -> HeronianTriangle:
    """Closed-form triangle of one family row at parameter (x, y) = (n, i).

    The parameter must satisfy the row's restriction equation and its lower
    bound on x; the result is cross-checked against heron_area.
    """
    if row not in _ROWS:
        raise ValueError(f"row must be 1..4, got {row}")
    spec = pell.SPECS[_ROWS[row]["pell"]]
    x, y = sol.n, sol.i
    if not spec.satisfies(x, y):
        raise ValueError(f"({x},{y}) does not satisfy {spec.name}")
    if x < _ROWS[row]["x_min"]:
        raise ValueError(f"row {row} requires x >= {_ROWS[row]['x_min']}")
    sides = _ROWS[row]["sides"](x)
    triangle = HeronianTriangle(sides, _ROWS[row]["perimeter"](x), _ROWS[row]["area"](x, y))
    if heron_area(*sides) != triangle.area:
        raise ValueError(f"row {row} closed form disagrees with Heron at {sol}")
    return triangle


def family_members_within(row: int, p_max: int) -> list[HeronianTriangle]:
    """All members of one family row with perimeter <= p_max."""
    out = []
    for sol in pell.iter_solutions(pell.SPECS[_ROWS[row]["pell"]]):
        if sol.n < _ROWS[row]["x_min"]:
            continue
        if _ROWS[row]["perimeter"](sol.n) > p_max:
            break
        out.append(family_member(row, sol))
    return out


class _TrapezoidSolution(NamedTuple):
    triangle: HeronianTriangle
    f: int
    c: int
    h: Fraction
    quad_sides: tuple[int, int, int, int]
    figure_tag: str | None = None


class TrapezoidSolution(Checked, _TrapezoidSolution):
    """Equable trapezoid built from a Heronian triangle.

    quad_sides lists (long parallel side c + f, leg AB, short parallel side c,
    leg CO) in cyclic vertex order O, A, B, C.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.c < 1:
            raise ValueError("short parallel side must be positive")
        if self.quad_sides[::2] != (self.c + self.f, self.c):
            raise ValueError("quad_sides must run (c + f, leg, c, leg)")
        if self.h <= 2:
            raise ValueError("equable trapezoids need height > 2")
        if self.h * sum(self.quad_sides[::2]) / 2 != self.perimeter:
            raise ValueError("trapezoid is not equable")

    @property
    def perimeter(self) -> int:
        return sum(self.quad_sides)


# Published cyclic side orders of the five solutions, keyed by (sides, f).
_FIGURE_TAGS: dict[tuple[tuple[int, int, int], int], tuple[str, tuple[int, int]]] = {
    ((3, 4, 5), 3): ("right-trapezoid-6-4-3-5", (4, 5)),
    ((3, 4, 5), 4): ("right-trapezoid-10-3-6-5", (3, 5)),
    ((3, 4, 5), 5): ("trapezoid-20-4-15-3", (4, 3)),
    ((5, 5, 6), 6): ("isosceles-trapezoid-8-5-2-5", (5, 5)),
    ((5, 5, 8), 8): ("isosceles-trapezoid-14-5-6-5", (5, 5)),
}


def shorter_parallel_side(t: HeronianTriangle, f: int) -> Fraction:
    """Exact value of the strip width c for side choice f."""
    if f not in t.sides:
        raise ValueError(f"{f} is not a side of {t.sides}")
    if t.area <= f:
        raise DegenerateTrapezoidError(
            f"side {f} >= area {t.area}: height would be at most 2"
        )
    return Fraction(f * (t.perimeter - t.area), 2 * (t.area - f))


def trapezoid_from(t: HeronianTriangle, f: int) -> TrapezoidSolution | None:
    """Equable trapezoid extending side f of the triangle, when one exists.

    Returns None when the strip width is not a positive integer.  Legs are
    reported in the published cyclic order for the five classical solutions
    and ascending otherwise.
    """
    c = shorter_parallel_side(t, f)
    if c.denominator != 1 or c < 1:
        return None
    c = int(c)
    rest = list(t.sides)
    rest.remove(f)
    tag_entry = _FIGURE_TAGS.get((t.sides, f))
    if tag_entry is not None:
        tag, legs = tag_entry
    else:
        tag, legs = None, (min(rest), max(rest))
    return TrapezoidSolution(
        triangle=t,
        f=f,
        c=c,
        h=Fraction(2 * t.area, f),
        quad_sides=(c + f, legs[0], c, legs[1]),
        figure_tag=tag,
    )


def all_equable_trapezoids(p_max: int = TRAPEZOID_SCAN_BOUND) -> list[TrapezoidSolution]:
    """Every equable trapezoid with integer sides and area built from a
    perimeter-dominant triangle of perimeter <= p_max, in the triangles'
    (perimeter, sides) order and then by ascending f."""
    out = []
    for t in enumerate_perimeter_dominant(p_max):
        for f in sorted(set(t.sides)):
            sol = trapezoid_from(t, f)
            if sol is not None:
                out.append(sol)
    return out


def lattice_embedding(ts: TrapezoidSolution) -> LatticeQuad | None:
    """A lattice realization of the trapezoid: its named drawing when it has
    one, else the exact realizer's answer; None when the lattice has none."""
    a, leg_ab, c, leg_co = ts.quad_sides
    f = ts.f
    # plant the triangle O, A'(f, 0), C with C above; exact rationals
    xc = Fraction(f * f + leg_co**2 - leg_ab**2, 2 * f)
    h_sq = leg_co**2 - xc * xc
    if h_sq != ts.h * ts.h:
        raise InconsistencyError(f"{ts.quad_sides}: side data inconsistent with the height")
    diag_ob = (xc + c) ** 2 + h_sq  # O -> B
    diag_ac = (xc - a) ** 2 + h_sq  # A -> C
    return place((a * a, leg_ab**2, c * c, leg_co**2), (diag_ob, diag_ac))
