"""Equable cyclic quadrilaterals and their lattice realizability.

For an equable cyclic quadrilateral with integer sides a <= b <= c <= d, the
Brahmagupta area condition turns, under the half-sum substitution
2z = -a+b+c+d (and cyclically), into w*x*y*z = (w+x+y+z)^2 with
0 < w <= x <= y <= z.  Exact integer bounds confine (w, x, y) to finitely
many candidates; solving the quadratic for z and keeping integer roots with
y <= z < w+x+y yields every solution.  A solution is its quadruple wxyz:
`sides` recovers the side lengths, and `realizable_orderings` decides for
each cyclic order of them whether it is realizable on the lattice.  A
lattice quad has integer squared diagonals, and an integer divmod of the
cyclic diagonal formulas decides whether an order's are; the exact realizer
`geometry.realize` answers for the orders whose squared diagonals are
integers, from those and the squared sides.
"""

from __future__ import annotations

from equilat.errors import InconsistencyError
from equilat.geometry import LatticeQuad, exact_sqrt, realize

__all__ = [
    "enumerate_candidates",
    "solve_z",
    "sides",
    "brahmagupta_check",
    "cyclic_orderings",
    "realizable_orderings",
    "solutions",
]


def enumerate_candidates() -> list[tuple[int, int, int]]:
    """All 63 admissible (w, x, y) triples, in lexicographic order: those with
    0 < w <= x <= y, 5 <= w*x <= 16 and y <= (w + x) / (sqrt(w x) - 2), a
    bound that is finite since w x >= 5 and admits y up to 25."""
    out = []
    for w in range(1, 5):
        for x in range(max(w, -(-5 // w)), 16 // w + 1):
            y = x
            while w * x * y * y <= (w + x + 2 * y) ** 2:  # the y bound in integers
                out.append((w, x, y))
                y += 1
    return out


def solve_z(w: int, x: int, y: int) -> int | None:
    """Integer z with w*x*y*z = (w+x+y+z)^2 and y <= z < w+x+y, or None.

    Takes the negative square root branch; the positive branch never adds a
    solution (it only meets the z-bound when the discriminant vanishes).
    """
    wxy = w * x * y
    s = w + x + y
    disc = wxy * wxy - 4 * wxy * s
    if disc < 0:
        return None
    root = exact_sqrt(disc)
    if root is None:
        return None
    # root^2 = wxy^2 - 4*wxy*s, so root has the parity of wxy and the
    # numerator wxy - 2s - root is even
    z = (wxy - 2 * s - root) // 2
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


def _diagonals_sq(order: tuple[int, int, int, int]) -> tuple[int, int] | None:
    """Squared diagonals of the cyclic quadrilateral with sides in this order,
    p^2 = (ac+bd)(ad+bc)/(ab+cd) and q^2 = (ac+bd)(ab+cd)/(ad+bc), or None
    when either is not an integer."""
    a, b, c, d = order
    ac_bd = a * c + b * d
    ad_bc = a * d + b * c
    ab_cd = a * b + c * d
    p_sq, p_rem = divmod(ac_bd * ad_bc, ab_cd)
    q_sq, q_rem = divmod(ac_bd * ab_cd, ad_bc)
    return None if p_rem or q_rem else (p_sq, q_sq)


def realizable_orderings(
    side_lengths: tuple[int, int, int, int],
) -> list[tuple[tuple[int, int, int, int], LatticeQuad | None]]:
    """Decide lattice realizability for every cyclic arrangement of the sides.

    An order whose squared diagonals are not integers has no lattice
    placement.  For the others, the squared sides and diagonals go to
    `geometry.realize`, which answers None unless the lattice holds them,
    else a placement congruent to the order's shape.
    """
    if (len(side_lengths) != 4 or not all(isinstance(s, int) and s > 0 for s in side_lengths)
            or not brahmagupta_check(*side_lengths)):
        raise ValueError(f"{side_lengths} is not an equable cyclic side multiset")
    out = []
    for order in cyclic_orderings(side_lengths):
        diags = _diagonals_sq(order)
        out.append((order, diags and realize(tuple(s * s for s in order), diags)))
    return out


def solutions() -> list[tuple[int, int, int, int]]:
    """Every solution quadruple wxyz, smallest w first.  `sides` gives its
    side lengths, nonincreasing as wxyz is nondecreasing."""
    out = []
    for w, x, y in enumerate_candidates():
        z = solve_z(w, x, y)
        if z is not None:
            out.append((w, x, y, z))
    return out
