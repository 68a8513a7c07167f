"""Brute-force discovery of every lattice equable quadrilateral class up to a
perimeter bound.

Every simple quadrilateral P0P1P2P3 has an interior diagonal; label it P0P2
and write d = P2 - P0.  The diagonal cuts the quad into the counterclockwise
triangles P0P1P2 and P2P3P0, which lie on opposite sides of it, so the quad
is simple as soon as no three vertices are collinear at the diagonal's two
ends.  Each triangle is a half-chain of two edges from 0 to d: (v1, v2) on the
right of d, and, negated, (u1, u2) on the left.  Twice the area is
cross(v1, v2) + cross(u1, u2), so equability (area = perimeter) becomes a key
match k(v) + k(u) = 0 with k = cross(v1, v2) - 2(|v1| + |v2|).  The search
therefore takes each diagonal d in the eighth dx > 0, 0 <= dy <= dx, lists
its half-chains with integer-norm edges, buckets them by key and joins bucket
k with bucket -k: the meet-in-the-middle idea of Horowitz & Sahni (1974).
Every side and diagonal is shorter than half the perimeter, which bounds both
the edge table and the diagonals.

The area bounds the half-chains too.  Each half's cross product is at least
1, and the two sum to twice the area, that is 2 * perimeter <= 2 p_max, so
each lies in [1, T] with T = 2 p_max - 1.  With x2 = dx - x1,
cross = x1*dy - dx*y1 = x1*y2 - x2*y1, and the half-chains of a column dx
are listed through two windows on the edge table's columns, each an O(1)
slice of a column sorted by y:

- y1, per pair of columns (x1, x2): 0 <= dy <= dx puts dx*y1 within
  [min(0, x1)*dx - T, max(0, x1)*dx - 1], so
  min(0, x1) - T // dx <= y1 <= max(0, x1) - 1; and |y2| <= ymax2, the
  largest |y| in column x2, puts x2*y1 within [-|x1|*ymax2 - T, |x1|*ymax2 - 1].
- y2, per v1: -y1 <= y2 <= dx - y1, |y2| <= ymax2 and
  x2*y1 + 1 <= x1*y2 <= x2*y1 + T, whose ends swap when dividing by x1 < 0.
  At x1 = 0 the cross product is -dx*y1, which the y1 window already holds
  in [1, T].

The windows restate the bound exactly, so the join finds the same hits as
the unwindowed pairing of every v1 with every v2, which stays in the tests as
an oracle; at p_max = 1000 they visit 70 810 pairs (v1, v2) instead of 11.1
million.

Each hit is written out in the placements the eight lattice symmetries give
it, from every vertex whose outgoing edge is a longest edge and lies in the
half-quadrant dx > 0, dy >= 0.  Those anchored chains, collected per
congruence signature, define the catalog independently of the algorithm: a
class's representative is its smallest anchored chain, and `embeddings_seen`
counts its anchored chains, that is its lattice placements up to translation
together with each vertex of the placement that anchors it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import isqrt
from typing import NamedTuple

from equilat import kites
from equilat.geometry import (
    POINT_SYMMETRIES,
    DiagonalReport,
    LatticeQuad,
    Point,
    QuadClassification,
    canonical_signature,
    classify,
    interior_diagonals,
    signature,
)

__all__ = [
    "LeqClass",
    "LeqCatalog",
    "AuditReport",
    "integer_norm_vectors",
    "enumerate_leqs",
    "get_catalog",
    "audit_theorems",
]

P_MAX_MIN = 12
P_MAX_MAX = 1000


def integer_norm_vectors(max_len: int) -> list[tuple[int, int, int]]:
    """All nonzero lattice vectors (dx, dy, length) with integer norm
    length <= max_len, every quadrant included, sorted by (length, dx, dy)."""
    if max_len < 1:
        raise ValueError("max_len must be positive")
    out = []
    # Scan the eighth 0 <= y < x and reflect; y = x never has an integer
    # norm, since 2x^2 is not a square.
    for x in range(1, max_len + 1):
        for y in range(x):
            n = x * x + y * y
            r = isqrt(n)
            if r > max_len:
                break
            if r * r == n:
                out += (
                    ((x, y, r), (-x, y, r), (x, -y, r), (-x, -y, r),
                     (y, x, r), (-y, x, r), (y, -x, r), (-y, -x, r))
                    if y else ((x, 0, r), (-x, 0, r), (0, x, r), (0, -x, r))
                )
    out.sort(key=lambda e: (e[2], e[0], e[1]))
    return out


def _equable_quads(p_max: int):
    """Yield (vertices, sides) for every counterclockwise equable quad
    (0, P1, d, P3) with integer sides and perimeter <= p_max whose interior
    diagonal d = P2 - P0 lies in the eighth dx > 0, 0 <= dy <= dx.

    Only half-chains with 1 <= cross(v1, v2) <= 2 p_max - 1 are listed; the
    module docstring derives that bound and the windows that enforce it."""
    half = (p_max - 1) // 2  # every side and diagonal is shorter than p_max / 2
    top = 2 * p_max - 1  # the largest cross product a half-chain can have
    # Column x of the edge table holds its (y, length) sorted by y, the
    # largest y in it, and prefix counts over y in [-ymax, ymax]: the entries
    # with lo <= y <= hi are col[start[lo + ymax]:start[hi + ymax + 1]].
    columns: list[list[tuple[int, int]]] = [[] for _ in range(2 * half + 1)]
    for x, y, length in integer_norm_vectors(half):
        columns[x + half].append((y, length))
    table = []
    for col in columns:
        col.sort()
        ymax = col[-1][0]
        counts = [0] * (2 * ymax + 2)
        for y, _ in col:
            counts[y + ymax + 1] += 1
        table.append((col, ymax, list(accumulate(counts))))

    for dx in range(1, half + 1):
        # Half-chains 0 -> v1 -> d right of d, for one column of diagonals at
        # a time, keyed by (dy, k); v2 = d - v1 is drawn from column dx - x1.
        w = top // dx
        buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        for x1 in range(dx - half, half + 1):
            x2 = dx - x1
            col1, ymax1, start1 = table[x1 + half]
            col2, ymax2, start2 = table[x2 + half]
            # y1 window: 0 <= dy <= dx, |y1| <= ymax1, and some |y2| <= ymax2
            # must leave cross = x1*y2 - x2*y1 in [1, top].
            lo, hi = (-w, x1 - 1) if x1 > 0 else (x1 - w, -1)
            reach = (x1 if x1 > 0 else -x1) * ymax2
            if x2 > 0:
                lo_c, hi_c = -((reach + top) // x2), (reach - 1) // x2
            elif x2 < 0:
                lo_c, hi_c = -((1 - reach) // x2), (-reach - top) // x2
            else:
                lo_c, hi_c = -ymax1, ymax1
            # max() and min() calls cost more than these tests in this loop
            if lo < lo_c:
                lo = lo_c
            if lo < -ymax1:
                lo = -ymax1
            if hi > hi_c:
                hi = hi_c
            if hi > ymax1:
                hi = ymax1
            if lo > hi:
                continue
            # y2 window per y1: 0 <= dy <= dx, |y2| <= ymax2 and
            # x1*y2 in [x2*y1 + 1, x2*y1 + top]; dividing by x1 < 0 swaps the
            # ends.  At x1 = 0 the y1 window alone gives cross = -dx*y1 in
            # [1, top].
            c_lo, c_hi = (1, top) if x1 > 0 else (top, 1)
            for y1, l1 in col1[start1[lo + ymax1]:start1[hi + ymax1 + 1]]:
                a = -y1 if y1 < ymax2 else -ymax2
                b = dx - y1 if dx - y1 < ymax2 else ymax2
                if x1:
                    n = x2 * y1
                    t = -((-n - c_lo) // x1)
                    if t > a:
                        a = t
                    t = (n + c_hi) // x1
                    if t < b:
                        b = t
                if a > b:
                    continue
                for y2, l2 in col2[start2[a + ymax2]:start2[b + ymax2 + 1]]:
                    dy = y1 + y2
                    rest = p_max - l1 - l2  # the other half needs more than |d|
                    if rest * rest > dx * dx + dy * dy:
                        key = (dy, x1 * y2 - x2 * y1 - 2 * (l1 + l2))
                        buckets.setdefault(key, []).append((x1, y1, l1, l2))
        # The left half (P2, P3, P0) negated is a right half (u1, u2) of the
        # same d; negation keeps both the cross product and the lengths.
        for (dy, k), uppers in buckets.items():
            for ux, uy, m1, m2 in buckets.get((dy, -k), ()):
                qx, qy = dx - ux, dy - uy  # P3 = d - u1 = u2
                for x1, y1, l1, l2 in uppers:
                    if l1 + l2 + m1 + m2 > p_max:
                        continue
                    if x1 * qy == y1 * qx or (dx - x1) * uy == (dy - y1) * ux:
                        continue  # three collinear vertices at P0 or at P2
                    yield ((0, 0), (x1, y1), (dx, dy), (qx, qy)), (l1, l2, m1, m2)


def _anchored_chains(
    pts: tuple[tuple[int, int], ...], longest: int
) -> list[tuple[int, ...]]:
    """Flat vertex tuples of the quad's images under the lattice symmetries,
    re-oriented counterclockwise and started at each vertex whose outgoing
    edge is a longest edge in the half-quadrant dx > 0, dy >= 0."""
    out = []
    for a, b, c, e in POINT_SYMMETRIES:
        img = [(a * x + b * y, c * x + e * y) for x, y in pts]
        if a * e - b * c < 0:
            img.reverse()  # a reflection leaves the vertices clockwise
        for i in range(4):
            ox, oy = img[i]
            ex, ey = img[(i + 1) % 4][0] - ox, img[(i + 1) % 4][1] - oy
            if ex > 0 and ey >= 0 and ex * ex + ey * ey == longest * longest:
                out.append(tuple(
                    v for x, y in img[i:] + img[:i] for v in (x - ox, y - oy)
                ))
    return out


def _quad_from_flat(flat: tuple[int, ...]) -> LatticeQuad:
    pts = tuple(Point(flat[i], flat[i + 1]) for i in range(0, 8, 2))
    return LatticeQuad(pts)


class LeqClass(NamedTuple):
    """One congruence class of lattice equable quadrilaterals."""

    signature: tuple[int, int, int, int, int, int]
    representative: LatticeQuad
    classification: QuadClassification
    diagonals: DiagonalReport
    embeddings_seen: int
    embeddings: tuple[LatticeQuad, ...]

    @property
    def perimeter(self) -> int:
        return isqrt(self.signature[0]) + isqrt(self.signature[1]) \
            + isqrt(self.signature[2]) + isqrt(self.signature[3])


class LeqCatalog:
    """Deduplicated classes keyed by congruence signature.  Immutable;
    compared by identity."""

    __slots__ = ("p_max", "classes")
    p_max: int
    classes: dict[tuple, LeqClass]

    def __init__(self, p_max: int, classes: dict[tuple, LeqClass] | None = None) -> None:
        object.__setattr__(self, "p_max", p_max)
        object.__setattr__(self, "classes", {} if classes is None else classes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return LeqCatalog, (self.p_max, self.classes)

    def __repr__(self) -> str:
        return f"LeqCatalog(p_max={self.p_max!r}, classes={self.classes!r})"

    def signatures(self) -> set[tuple]:
        return set(self.classes)

    def __contains__(self, sig: tuple) -> bool:
        return tuple(sig) in self.classes

    def __len__(self) -> int:
        return len(self.classes)


def enumerate_leqs(p_max: int) -> LeqCatalog:
    """Complete catalog of LEQ classes with perimeter <= p_max."""
    if not P_MAX_MIN <= p_max <= P_MAX_MAX:
        raise ValueError(f"p_max must lie in [{P_MAX_MIN}, {P_MAX_MAX}]")
    chains: dict[tuple, set[tuple[int, ...]]] = {}
    for pts, (l1, l2, m1, m2) in _equable_quads(p_max):
        (x1, y1), (dx, dy), (qx, qy) = pts[1:]
        sig = canonical_signature(
            (l1 * l1, l2 * l2, m1 * m1, m2 * m2),
            (dx * dx + dy * dy, (qx - x1) ** 2 + (qy - y1) ** 2),
        )
        chains.setdefault(sig, set()).update(_anchored_chains(pts, max(l1, l2, m1, m2)))

    classes: dict[tuple, LeqClass] = {}
    for sig in sorted(chains):
        embeds = [_quad_from_flat(f) for f in sorted(chains[sig])]
        classes[sig] = LeqClass(
            signature=sig,
            representative=embeds[0],
            classification=classify(embeds[0]),
            diagonals=interior_diagonals(embeds[0]),
            embeddings_seen=len(embeds),
            embeddings=tuple(embeds),
        )
    return LeqCatalog(p_max=p_max, classes=classes)


@lru_cache(maxsize=8)
def get_catalog(p_max: int = 42) -> LeqCatalog:
    """Catalog cached for the life of the process."""
    return enumerate_leqs(p_max)


class AuditReport(NamedTuple):
    """Catalog classes cross-checked against the classification results."""

    p_max: int
    kites_found: frozenset[tuple]
    kites_expected: frozenset[tuple]
    trapezoids_found: frozenset[tuple]
    cyclic_found: frozenset[tuple]
    diagonal_exceptions: tuple[tuple[tuple, int], ...]  # (signature, rational length)


def audit_theorems(catalog: LeqCatalog, p_max: int) -> AuditReport:
    """Compare the catalog against the closed-form kite families and list
    every class with a rational interior diagonal."""
    if p_max != catalog.p_max:
        raise ValueError("audit bound must match the catalog bound")

    kites_found = frozenset(
        sig for sig, cls in catalog.classes.items() if cls.classification.is_kite
    )
    kites_expected = frozenset(
        signature(km.quad())
        for tag in kites.FAMILIES
        for km in kites.members_within_perimeter(tag, p_max)
    )
    trapezoids_found = frozenset(
        sig for sig, cls in catalog.classes.items() if cls.classification.is_trapezoid
    )
    cyclic_found = frozenset(
        sig for sig, cls in catalog.classes.items() if cls.classification.is_cyclic
    )
    exceptions = tuple(
        (sig, diag.length)
        for sig, cls in sorted(catalog.classes.items())
        for diag in cls.diagonals.interior
        if diag.rational
    )
    return AuditReport(
        p_max=p_max,
        kites_found=kites_found,
        kites_expected=kites_expected,
        trapezoids_found=trapezoids_found,
        cyclic_found=cyclic_found,
        diagonal_exceptions=exceptions,
    )
