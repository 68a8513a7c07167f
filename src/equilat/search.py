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
P_MAX_MAX = 200


def integer_norm_vectors(max_len: int) -> list[tuple[int, int, int]]:
    """All nonzero lattice vectors (dx, dy, length) with integer norm
    length <= max_len, every quadrant included, sorted by (length, dx, dy)."""
    if max_len < 1:
        raise ValueError("max_len must be positive")
    out = []
    for dx in range(-max_len, max_len + 1):
        for dy in range(-max_len, max_len + 1):
            if dx == 0 and dy == 0:
                continue
            n = dx * dx + dy * dy
            r = isqrt(n)
            if r * r == n and r <= max_len:
                out.append((dx, dy, r))
    out.sort(key=lambda e: (e[2], e[0], e[1]))
    return out


def _equable_quads(p_max: int):
    """Yield (vertices, sides) for every counterclockwise equable quad
    (0, P1, d, P3) with integer sides and perimeter <= p_max whose interior
    diagonal d = P2 - P0 lies in the eighth dx > 0, 0 <= dy <= dx."""
    half = (p_max - 1) // 2  # every side and diagonal is shorter than p_max / 2
    columns: dict[int, list[tuple[int, int]]] = {}
    for x, y, length in integer_norm_vectors(half):
        columns.setdefault(x, []).append((y, length))
    for dx in range(1, half + 1):
        # Half-chains 0 -> v1 -> d right of d, for one column of diagonals at
        # a time, keyed by (dy, k); v2 = d - v1 is drawn from column dx - x1.
        buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        for x1 in range(dx - half, half + 1):
            for y1, l1 in columns.get(x1, ()):
                for y2, l2 in columns.get(dx - x1, ()):
                    dy = y1 + y2
                    if dy < 0 or dy > dx:
                        continue
                    cross = x1 * dy - y1 * dx  # cross(v1, d) = cross(v1, v2)
                    rest = p_max - l1 - l2  # the other half needs more than |d|
                    if cross > 0 and rest * rest > dx * dx + dy * dy:
                        key = (dy, cross - 2 * (l1 + l2))
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
