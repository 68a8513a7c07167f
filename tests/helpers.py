"""Shared test oracles: independent brute-force checks kept deliberately
separate from the implementation paths they validate."""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from itertools import combinations, permutations

from equilat import pell
from equilat.cli import _COMMANDS
from equilat.geometry import (
    POINT_SYMMETRIES,
    LatticeQuad,
    is_simple,
    signature,
)
from equilat.search import _anchored_chains, _equable_quads
from equilat.trapezoids import heron_area

_CYCLIC_ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def random_quad(rng: random.Random, span: int = 30) -> LatticeQuad:
    """A uniform-ish random simple lattice quad: draw four points and pick a
    cyclic order that closes into a simple polygon (general position admits
    at least one)."""
    while True:
        pts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4)]
        for order in _CYCLIC_ORDERS:
            arranged = tuple(pts[k] for k in order)
            try:
                if is_simple(arranged):
                    return LatticeQuad(arranged)
            except ValueError:
                break
    raise AssertionError("unreachable")


def apply_symmetry(p: tuple[int, int], m: tuple[int, int, int, int]) -> tuple[int, int]:
    (x, y), (a, b, c, d) = p, m
    return a * x + b * y, c * x + d * y


def random_congruent_copy(rng: random.Random, q: LatticeQuad) -> LatticeQuad:
    """Apply a random composition of translation, one of the eight lattice
    point symmetries, a vertex-cycle rotation, and an optional reversal."""
    m = POINT_SYMMETRIES[rng.randrange(8)]
    dx, dy = rng.randint(-100, 100), rng.randint(-100, 100)
    pts = [(x + dx, y + dy) for x, y in (apply_symmetry(p, m) for p in q)]
    r = rng.randrange(4)
    pts = pts[r:] + pts[:r]
    if rng.random() < 0.5:
        pts = [pts[0]] + pts[1:][::-1]
    return LatticeQuad(tuple(pts))


def cyclic_orderings_by_permutations(
    side_lengths: tuple[int, int, int, int],
) -> list[tuple[int, int, int, int]]:
    """Reference oracle: the enumeration that `cyclic.cyclic_orderings`
    replaced, over all 24 permutations of the sides, each with its eight
    dihedral images, keyed by the least image and shown as the largest."""
    classes = {}
    for perm in permutations(side_lengths):
        images = []
        for base in (perm, perm[::-1]):
            for r in range(4):
                images.append(base[r:] + base[:r])
        classes[min(images)] = max(images)
    return sorted(classes.values(), reverse=True)


def circumcenter(
    a: tuple[int, int], b: tuple[int, int], c: tuple[int, int]
) -> tuple[Fraction, Fraction]:
    """Exact circumcenter of a non-degenerate triangle."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    assert d != 0
    za = ax * ax + ay * ay
    zb = bx * bx + by * by
    zc = cx * cx + cy * cy
    ux = Fraction(za * (by - cy) + zb * (cy - ay) + zc * (ay - by), d)
    uy = Fraction(za * (cx - bx) + zb * (ax - cx) + zc * (bx - ax), d)
    return ux, uy


def concyclic_by_circumcenter(q: LatticeQuad) -> bool:
    """Independent concyclicity check: circumcenter of the first three
    vertices is equidistant from the fourth (exact rationals)."""
    a, b, c, (dx, dy) = q
    ux, uy = circumcenter(a, b, c)
    r_sq = (ux - a[0]) ** 2 + (uy - a[1]) ** 2
    return (ux - dx) ** 2 + (uy - dy) ** 2 == r_sq


def reflect_point(
    a: tuple[int, int], axis_from: tuple[int, int], axis_to: tuple[int, int]
) -> tuple[Fraction, Fraction]:
    """Exact reflection of a across the line through the two axis points: the
    oracle for `geometry.side_swap`, which moves v[i+1] to
    v[i] + v[i+2] - reflect_point(v[i+1], v[i], v[i+2])."""
    if axis_from == axis_to:
        raise ValueError("axis endpoints must be distinct")
    (ax, ay), (fx, fy), (tx, ty) = a, axis_from, axis_to
    dx, dy = tx - fx, ty - fy
    den = dx * dx + dy * dy
    vx, vy = ax - fx, ay - fy
    dot = vx * dx + vy * dy
    rx = fx * den + 2 * dot * dx - den * vx
    ry = fy * den + 2 * dot * dy - den * vy
    return Fraction(rx, den), Fraction(ry, den)


def lattice_points(v) -> tuple[tuple[int, int], ...] | None:
    """The points v with int coordinates, or None when one is not whole."""
    if any(Fraction(c).denominator != 1 for p in v for c in p):
        return None
    return tuple((int(x), int(y)) for x, y in v)


def cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    """The cross product (a - o) x (b - o): positive for a left turn o, a, b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def segments_cross(p1, p2, q1, q2) -> bool:
    """Proper crossing of open segments (endpoints excluded)."""
    d1 = cross(p1, p2, q1)
    d2 = cross(p1, p2, q2)
    d3 = cross(q1, q2, p1)
    d4 = cross(q1, q2, p2)
    return d1 * d2 < 0 and d3 * d4 < 0


def simple_by_crossings(v) -> bool:
    """Reference oracle for `geometry.is_simple`: no three of the four
    vertices collinear, which also keeps them distinct, and neither pair of
    opposite edges crossing."""
    if any(cross(*trio) == 0 for trio in combinations(v, 3)):
        return False
    a, b, c, d = v
    return not segments_cross(a, b, c, d) and not segments_cross(b, c, d, a)


def point_on_segment(px: Fraction, py: Fraction, a: tuple[int, int], b: tuple[int, int]) -> bool:
    (ax, ay), (bx, by) = a, b
    if (bx - ax) * (py - ay) - (by - ay) * (px - ax) != 0:
        return False
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def strictly_inside(q: LatticeQuad, px: Fraction, py: Fraction) -> bool:
    """Exact point-in-simple-polygon (crossing number); boundary counts as
    outside."""
    for i in range(4):
        if point_on_segment(px, py, q[i], q[(i + 1) % 4]):
            return False
    crossings = 0
    for i in range(4):
        (ax, ay), (bx, by) = q[i], q[(i + 1) % 4]
        if (ay > py) != (by > py):
            x_int = Fraction(ax) + Fraction(py - ay, by - ay) * (bx - ax)
            if x_int > px:
                crossings += 1
    return crossings % 2 == 1


def diagonal_midpoint(q: LatticeQuad, i: int, j: int) -> tuple[Fraction, Fraction]:
    (xi, yi), (xj, yj) = q[i], q[j]
    return Fraction(xi + xj, 2), Fraction(yi + yj, 2)


def longest_side_sq(pts: tuple[tuple[int, int], ...]) -> int:
    """Squared length of the longest edge of the closed vertex chain pts."""
    return max((c - a) ** 2 + (e - b) ** 2 for (a, b), (c, e) in zip(pts, pts[1:] + pts[:1]))


def catalog_placements(p_max: int) -> dict[tuple, list[LatticeQuad]]:
    """The placements that `enumerate_leqs(p_max)` counts in each class's
    `embeddings_seen`, in order of their flat vertex tuples: the anchored
    chains of every hit of the join, grouped by the hit's signature."""
    chains: dict[tuple, set[tuple[int, ...]]] = {}
    for pts in _equable_quads(p_max):
        chains.setdefault(signature(LatticeQuad(pts)), set()).update(
            _anchored_chains(pts, longest_side_sq(pts))
        )
    return {
        sig: [LatticeQuad(tuple(zip(f[::2], f[1::2]))) for f in sorted(flats)]
        for sig, flats in chains.items()
    }


# The four trapezoid family rows of the `trapezoids` module docstring: the
# restriction equation's name in `pell.SPECS`, the least x, and the closed
# forms of the sides at x and of the area at (x, y).
FAMILY_ROWS = {
    1: ("x^2+1=2y^2", 7, lambda x: (3, 3 * x * x + 1, 3 * x * x + 2), lambda x, y: 6 * x * y),
    2: ("x^2-1=2y^2", 3, lambda x: (3, 3 * x * x - 2, 3 * x * x - 1), lambda x, y: 6 * x * y),
    3: ("x^2+2=3y^2", 5, lambda x: (4, 2 * x * x + 1, 2 * x * x + 3), lambda x, y: 6 * x * y),
    4: ("x^2-1=3y^2", 2, lambda x: (4, 4 * x * x - 3, 4 * x * x - 1), lambda x, y: 12 * x * y),
}


def family_members(row: int, p_max: int) -> list[tuple[int, int, int]]:
    """The members of one family row with perimeter <= p_max, in increasing
    x over the row's Pell stream.  Each member's closed-form area must be the
    area Heron's formula gives its sides."""
    name, x_min, sides, area = FAMILY_ROWS[row]
    out = []
    for x, y in pell.iter_solutions(pell.SPECS[name]):
        t = sides(x)
        if sum(t) > p_max:
            return out
        if x >= x_min:
            assert heron_area(*t) == area(x, y), f"row {row} at ({x},{y}): area is not Heron's"
            out.append(t)


# The rational formulas that `trapezoids` and `cyclic` decide in integers,
# kept here in Fractions as the oracle of those integer decisions.

def strip_width_by_fractions(t: tuple[int, int, int], f: int) -> Fraction:
    """The strip width c = f(P - A) / (2(A - f)) of the Heronian triangle t
    with perimeter P and area A, extended on its side f."""
    area = heron_area(*t)
    return Fraction(f * (sum(t) - area), 2 * (area - f))


def trapezoid_diagonals_by_planting(f: int, b: int, d: int, c) -> tuple[Fraction, Fraction]:
    """Squared diagonals |OB|^2 and |AC|^2 of the trapezoid O, A, B, C with
    sides c + f, b, c, d in that order, for any positive c: plant the source
    triangle O, A'(f, 0), C with |A'C| = b, |CO| = d and C above OA', then
    B = C + (c, 0) and A = (c + f, 0)."""
    xc = Fraction(f * f + d * d - b * b, 2 * f)
    h_sq = d * d - xc * xc
    return (xc + c) ** 2 + h_sq, (xc - c - f) ** 2 + h_sq


def cyclic_diagonals_by_fractions(order: tuple[int, int, int, int]) -> tuple[Fraction, Fraction]:
    """Squared diagonals of the cyclic quadrilateral with sides in this order,
    p^2 = (ac+bd)(ad+bc)/(ab+cd) and q^2 = (ac+bd)(ab+cd)/(ad+bc)."""
    a, b, c, d = order
    return (
        Fraction((a * c + b * d) * (a * d + b * c), a * b + c * d),
        Fraction((a * c + b * d) * (a * b + c * d), a * d + b * c),
    )


def whole(values) -> tuple[int, ...] | None:
    """The rationals as ints when every one is an integer, else None."""
    if any(Fraction(v).denominator != 1 for v in values):
        return None
    return tuple(int(v) for v in values)


def all_real_parser(command: str | None) -> argparse.ArgumentParser:
    """Reference oracle for `cli._build_parser`: the same parser built with a
    real `ArgumentParser` for every command, options only on that of
    `command`."""
    parser = argparse.ArgumentParser(
        prog="equilat",
        description="Exact classification toolkit for lattice equable quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)
        if "json" in formats:
            p.add_argument("--pretty", action="store_true",
                           help="indent JSON output (needs --format json)")
        for flag, settings in options().items():
            p.add_argument(flag, **settings)
    return parser


# The names of the rows of search.audit_theorems, in order.
AUDIT_ROWS = ("kites", "kite_audits", "trapezoids", "cyclic", "diagonal_exceptions")


def corrupt_audit_row(rows: tuple, name: str) -> tuple:
    """The audit rows with None, an entry that no found set holds, added to
    the expected set of the row `name`."""
    return tuple(row._replace(expected=row.expected | {None}) if row.name == name else row
                 for row in rows)
