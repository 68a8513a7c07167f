"""Shared test oracles: independent brute-force checks kept deliberately
separate from the implementation paths they validate."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from equilat.geometry import (
    POINT_SYMMETRIES,
    LatticeQuad,
    Point,
    is_simple,
    orient,
    quad,
    signature,
)
from equilat.search import _anchored_chains, _equable_quads

_CYCLIC_ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def random_quad(rng: random.Random, span: int = 30) -> LatticeQuad:
    """A uniform-ish random simple lattice quad: draw four points and pick a
    cyclic order that closes into a simple polygon (general position admits
    at least one)."""
    while True:
        pts = [Point(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(4)]
        for order in _CYCLIC_ORDERS:
            arranged = tuple(pts[k] for k in order)
            try:
                if is_simple(arranged):
                    return LatticeQuad(arranged)
            except ValueError:
                break
    raise AssertionError("unreachable")


def apply_symmetry(p: Point, m: tuple[int, int, int, int]) -> Point:
    a, b, c, d = m
    return Point(a * p.x + b * p.y, c * p.x + d * p.y)


def random_congruent_copy(rng: random.Random, q: LatticeQuad) -> LatticeQuad:
    """Apply a random composition of translation, one of the eight lattice
    point symmetries, a vertex-cycle rotation, and an optional reversal."""
    m = POINT_SYMMETRIES[rng.randrange(8)]
    dx, dy = rng.randint(-100, 100), rng.randint(-100, 100)
    pts = [Point(p.x + dx, p.y + dy) for p in (apply_symmetry(p, m) for p in q)]
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


def circumcenter(a: Point, b: Point, c: Point) -> tuple[Fraction, Fraction]:
    """Exact circumcenter of a non-degenerate triangle."""
    d = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    assert d != 0
    za = a.x * a.x + a.y * a.y
    zb = b.x * b.x + b.y * b.y
    zc = c.x * c.x + c.y * c.y
    ux = Fraction(za * (b.y - c.y) + zb * (c.y - a.y) + zc * (a.y - b.y), d)
    uy = Fraction(za * (c.x - b.x) + zb * (a.x - c.x) + zc * (b.x - a.x), d)
    return ux, uy


def concyclic_by_circumcenter(q: LatticeQuad) -> bool:
    """Independent concyclicity check: circumcenter of the first three
    vertices is equidistant from the fourth (exact rationals)."""
    a, b, c, d = q
    ux, uy = circumcenter(a, b, c)
    r_sq = (ux - a.x) ** 2 + (uy - a.y) ** 2
    return (ux - d.x) ** 2 + (uy - d.y) ** 2 == r_sq


def segments_cross(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Proper crossing of open segments (endpoints excluded)."""
    d1 = orient(p1, p2, q1)
    d2 = orient(p1, p2, q2)
    d3 = orient(q1, q2, p1)
    d4 = orient(q1, q2, p2)
    return d1 * d2 < 0 and d3 * d4 < 0


def point_on_segment(px: Fraction, py: Fraction, a: Point, b: Point) -> bool:
    cross = (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x)
    if cross != 0:
        return False
    return min(a.x, b.x) <= px <= max(a.x, b.x) and min(a.y, b.y) <= py <= max(a.y, b.y)


def strictly_inside(q: LatticeQuad, px: Fraction, py: Fraction) -> bool:
    """Exact point-in-simple-polygon (crossing number); boundary counts as
    outside."""
    for i in range(4):
        if point_on_segment(px, py, q[i], q[(i + 1) % 4]):
            return False
    crossings = 0
    for i in range(4):
        a, b = q[i], q[(i + 1) % 4]
        if (a.y > py) != (b.y > py):
            x_int = Fraction(a.x) + Fraction(py - a.y, b.y - a.y) * (b.x - a.x)
            if x_int > px:
                crossings += 1
    return crossings % 2 == 1


def diagonal_midpoint(q: LatticeQuad, i: int, j: int) -> tuple[Fraction, Fraction]:
    return (
        Fraction(q[i].x + q[j].x, 2),
        Fraction(q[i].y + q[j].y, 2),
    )


def catalog_placements(p_max: int) -> dict[tuple, list[LatticeQuad]]:
    """The placements that `enumerate_leqs(p_max)` counts in each class's
    `embeddings_seen`, in order of their flat vertex tuples: the anchored
    chains of every hit of the join, grouped by the hit's signature."""
    chains: dict[tuple, set[tuple[int, ...]]] = {}
    for pts, sides in _equable_quads(p_max):
        chains.setdefault(signature(quad(*pts)), set()).update(_anchored_chains(pts, max(sides)))
    return {
        sig: [LatticeQuad(tuple(map(Point, f[::2], f[1::2]))) for f in sorted(flats)]
        for sig, flats in chains.items()
    }
