"""Equable cyclic quadrilaterals and their lattice realizability.

For an equable cyclic quadrilateral with integer sides a <= b <= c <= d, the
Brahmagupta area condition turns, under the half-sum substitution
2z = -a+b+c+d (and cyclically), into w*x*y*z = (w+x+y+z)^2 with
0 < w <= x <= y <= z.  Exact integer bounds confine (w, x, y) to finitely
many candidates; solving the quadratic for z and keeping integer roots with
y <= z < w+x+y yields every solution.  Whether a given cyclic order of the
sides is realizable on the lattice is decided by the exact realizer
`geometry.realize` from its squared sides and diagonals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from equilat.errors import Checked, InconsistencyError
from equilat.figures import place
from equilat.geometry import LatticeQuad, exact_sqrt

__all__ = [
    "WxyzTriple",
    "CyclicSolution",
    "enumerate_candidates",
    "solve_z",
    "sides",
    "brahmagupta_check",
    "cyclic_orderings",
    "realizable_orderings",
    "solutions",
]

def _within_y_bound(w: int, x: int, y: int) -> bool:
    # integer form of y <= (w + x) / (sqrt(w x) - 2), finite since w x >= 5;
    # the largest admissible y is 25
    s = w + x + 2 * y
    return w * x * y * y <= s * s


class _WxyzTriple(NamedTuple):
    w: int
    x: int
    y: int


class WxyzTriple(Checked, _WxyzTriple):
    """Candidate prefix (w, x, y) of a solution quadruple.

    Construction checks the cheap constraints only; the y-bound that caps the
    enumeration is exposed through `admissible`, so triples just past it can
    still be probed with solve_z.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not 0 < self.w <= self.x <= self.y:
            raise ValueError("need 0 < w <= x <= y")
        if not 5 <= self.w * self.x <= 16:
            raise ValueError("need 5 <= w*x <= 16")

    def admissible(self) -> bool:
        return _within_y_bound(self.w, self.x, self.y)


def enumerate_candidates() -> list[WxyzTriple]:
    """All 63 admissible (w, x, y) triples, in lexicographic order."""
    out = []
    for w in range(1, 5):
        for x in range(max(w, -(-5 // w)), 16 // w + 1):
            y = x
            while _within_y_bound(w, x, y):
                out.append(WxyzTriple(w, x, y))
                y += 1
    return out


def solve_z(t: WxyzTriple) -> int | None:
    """Integer z with w*x*y*z = (w+x+y+z)^2 and y <= z < w+x+y, or None.

    Takes the negative square root branch; the positive branch never adds a
    solution (it only meets the z-bound when the discriminant vanishes).
    """
    w, x, y = t.w, t.x, t.y
    wxy = w * x * y
    s = w + x + y
    disc = wxy * wxy - 4 * wxy * s
    if disc < 0:
        return None
    root = exact_sqrt(disc)
    if root is None:
        return None
    num = wxy - 2 * s - root
    if num % 2:
        return None
    z = num // 2
    if y <= z < s:
        return z
    return None


def sides(ws: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Side lengths (a, b, c, d) recovered from a solution quadruple via the
    half-sum formulas; raises if any sum is odd (an invalid quadruple)."""
    w, x, y, z = ws
    total = w + x + y + z
    vals = (total - 2 * w, total - 2 * x, total - 2 * y, total - 2 * z)
    if any(v % 2 for v in vals):
        raise InconsistencyError(f"{ws}: half-sum parity violated")
    return tuple(v // 2 for v in vals)


def brahmagupta_check(a: int, b: int, c: int, d: int) -> bool:
    """Equability condition from Brahmagupta's formula: sixteen times the
    squared perimeter equals the product of the four half-sum terms."""
    p = (-a + b + c + d) * (a - b + c + d) * (a + b - c + d) * (a + b + c - d)
    s = a + b + c + d
    return p == 16 * s * s


def cyclic_orderings(side_lengths: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    """Distinct cyclic arrangements of the side multiset, up to rotation and
    reflection; each class is shown as its lexicographically largest member.

    An arrangement is fixed by which side faces the first one, so the three
    orders below cover every class.
    """
    a, b, c, d = side_lengths
    reps = {
        max(base[r:] + base[:r] for base in (order, order[::-1]) for r in range(4))
        for order in ((a, b, c, d), (a, c, b, d), (a, b, d, c))
    }
    return sorted(reps, reverse=True)


def _diagonals_sq(order: tuple[int, int, int, int]) -> tuple[Fraction, Fraction]:
    """Squared diagonals of the cyclic quadrilateral with sides in this order:
    p^2 = (ac+bd)(ad+bc)/(ab+cd) and q^2 = (ac+bd)(ab+cd)/(ad+bc)."""
    a, b, c, d = order
    ac_bd = a * c + b * d
    ad_bc = a * d + b * c
    ab_cd = a * b + c * d
    return (
        Fraction(ac_bd * ad_bc, ab_cd),
        Fraction(ac_bd * ab_cd, ad_bc),
    )


def realizable_orderings(
    side_lengths: tuple[int, int, int, int],
) -> list[tuple[tuple[int, int, int, int], LatticeQuad | None]]:
    """Decide lattice realizability for every cyclic arrangement of the sides.

    Each order's squared sides and exact squared diagonals go to
    `figures.place`, which answers None unless the lattice holds them and
    returns the named drawing when the shape has one.
    """
    if not brahmagupta_check(*side_lengths):
        raise ValueError(f"{side_lengths} is not an equable cyclic side multiset")
    return [
        (order, place(tuple(s * s for s in order), _diagonals_sq(order)))
        for order in cyclic_orderings(side_lengths)
    ]


class _CyclicSolution(NamedTuple):
    wxyz: tuple[int, int, int, int]
    sides: tuple[int, int, int, int]  # nonincreasing
    orderings: tuple[tuple[tuple[int, int, int, int], LatticeQuad | None], ...]


class CyclicSolution(Checked, _CyclicSolution):
    """One solution quadruple with its side lengths and lattice embeddings."""

    __slots__ = ()

    def _check(self) -> None:
        w, x, y, z = self.wxyz
        if w * x * y * z != (w + x + y + z) ** 2:
            raise ValueError("wxyz does not satisfy the product identity")
        if z >= w + x + y:
            raise ValueError("z must be smaller than w+x+y")
        if not brahmagupta_check(*self.sides):
            raise ValueError("sides fail the Brahmagupta equability condition")

    @property
    def embeddings(self) -> tuple[LatticeQuad, ...]:
        return tuple(q for _, q in self.orderings if q is not None)


def solutions() -> list[CyclicSolution]:
    """All equable cyclic quadrilateral solutions, smallest w first."""
    out = []
    for t in enumerate_candidates():
        z = solve_z(t)
        if z is None:
            continue
        ws = (t.w, t.x, t.y, z)
        a, b, c, d = sides(ws)
        side_desc = tuple(sorted((a, b, c, d), reverse=True))
        out.append(
            CyclicSolution(
                wxyz=ws,
                sides=side_desc,
                orderings=tuple(realizable_orderings(side_desc)),
            )
        )
    return out
