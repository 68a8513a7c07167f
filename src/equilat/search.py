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
Swapping v and u turns the quad 180 degrees about d/2, so only keys k >= 0
probe, and bucket 0 meets itself once per unordered pair, the pair of a
half-chain with itself being a parallelogram.
Every side and diagonal is shorter than half the perimeter, which bounds both
the edge table and the diagonals.

The area bounds the half-chains too.  Each half's cross product is at least
1, and the two sum to twice the area, that is 2 * perimeter <= 2 p_max, so
each lies in [1, T] with T = 2 p_max - 1.  With x2 = dx - x1,
cross = x1*dy - dx*y1 = x1*y2 - x2*y1.

Axis edges need no lookup: with half = (p_max - 1) // 2 the longest side,
(x, 0) and (0, y) are edges for every 1 <= |x|, |y| <= half, so the edge
table holds only the off-axis edges, listed from Euclid's formula for the
Pythagorean triples, and a half-chain with an axis edge is fixed by its other
edge and the column dx.  Two horizontal or two vertical edges are collinear,
and the bound with 0 <= dy <= dx leaves four cases:

- v1 = (x1, 0): cross = x1*y2, so x1 >= 1, 1 <= y2 = dy <= dx and
  x1 <= T // y2.  An off-axis v2 = (x2, y2) is thus the partner of a
  horizontal v1 for the contiguous columns
  max(y2, x2 + 1) <= dx <= min(half, x2 + min(half, T // y2)).
- v2 = (x2, 0): cross = -x2*y1, so x2 <= -1, 1 <= y1 = dy <= dx and
  -x2 <= T // y1; an off-axis v1 = (x1, y1) is the partner for
  max(y1, x1 - min(half, T // y1)) <= dx <= min(half, x1 - 1).
- v1 = (0, y1): dx = x2 and cross = -dx*y1, so for each off-axis v2 in
  column dx, y1 runs over [max(-(T // dx), -y2), min(-1, dx - y2)], which
  is empty unless y2 >= 1.
- v2 = (0, y2): dx = x1 and cross = dx*y2, so for each v1 in column dx, y2
  runs over [max(1, -y1), min(T // dx, dx - y1, half)].  Here v1 may be
  horizontal: (dx, 0) then (0, y2) is the one half-chain of two axis edges,
  since (0, y1) then (x2, 0) would have dy = y1 < 0.

The last two cases read column dx directly.  For the first two, each
partner enters an active list at the first column of its range and leaves
it after the last, so a column of diagonals costs O(its half-chains) and the
buckets still hold one column at a time.

Pairs of off-axis edges are listed through two windows on the table's
columns, each an O(1) slice of a column sorted by y:

- y1, per pair of columns (x1, x2): 0 <= dy <= dx puts dx*y1 within
  [min(0, x1)*dx - T, max(0, x1)*dx - 1], so
  min(0, x1) - T // dx <= y1 <= max(0, x1) - 1; and |y2| <= ymax2, the
  largest |y| in column x2, puts x2*y1 within [-|x1|*ymax2 - T, |x1|*ymax2 - 1].
- y2, per v1: -y1 <= y2 <= dx - y1, |y2| <= ymax2 and
  x2*y1 + 1 <= x1*y2 <= x2*y1 + T, whose ends swap when dividing by x1 < 0.

The cases and windows restate the bound exactly, so the join finds the hits
of the unwindowed pairing of every v1 with every v2, one of each turned pair;
that pairing stays in the tests as an oracle.  At 1000 both list 70 810
pairs (v1, v2) within the bound; the unwindowed pairing tries 11.1 million.

Each hit is written out in the placements the eight lattice symmetries give
it, from every vertex whose outgoing edge is a longest edge and lies in the
half-quadrant dx > 0, dy >= 0.  A rotation g moves a longest edge v there
when g(v) lies there; a reflection reverses the chain, so it does when
-g(v) does.  Only those images are built, one rotation and one reflection
per longest edge.  The anchored chains, collected per congruence signature,
define the catalog independently of the algorithm: a class's representative
is its smallest anchored chain, and `embeddings_seen` counts its anchored
chains, that is its lattice placements up to translation together with each
vertex of the placement that anchors it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from math import gcd, isqrt
from typing import NamedTuple

from equilat import cyclic, kites, trapezoids
from equilat.geometry import (
    POINT_SYMMETRIES,
    DiagonalReport,
    LatticeQuad,
    Point,
    QuadClassification,
    canonical_signature,
    classify,
    interior_diagonals,
    perimeter,
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
    # Euclid: (m^2 - n^2, 2mn, m^2 + n^2) with m > n >= 0 coprime and of
    # opposite parity lists each primitive triple once, and m = 1, n = 0 the
    # axis vector (1, 0).  Legs never match, since 2x^2 is not a square.
    for m in range(1, isqrt(max_len) + 1):
        for n in range((m + 1) % 2, min(m, isqrt(max_len - m * m) + 1), 2):
            r = m * m + n * n
            if gcd(m, n) == 1:
                for k in range(1, max_len // r + 1):
                    x, y, c = k * (m * m - n * n), 2 * k * m * n, k * r
                    out += (
                        ((x, y, c), (-x, y, c), (x, -y, c), (-x, -y, c),
                         (y, x, c), (-y, x, c), (y, -x, c), (-y, -x, c))
                        if y else ((x, 0, c), (-x, 0, c), (0, x, c), (0, -x, c))
                    )
    out.sort(key=lambda e: (e[2], e[0], e[1]))
    return out


def _equable_quads(p_max: int):
    """Yield (vertices, sides) for every counterclockwise equable quad
    (0, P1, d, P3) with integer sides and perimeter <= p_max whose interior
    diagonal d = P2 - P0 lies in the eighth dx > 0, 0 <= dy <= dx, but only
    one of each such quad and its 180-degree turn about d/2.  The module
    docstring derives the bound 1 <= cross(v1, v2) <= 2 p_max - 1 on the
    half-chains, the windows on pairs of off-axis edges and the four cases
    with an axis edge."""
    half = (p_max - 1) // 2  # every side and diagonal is shorter than p_max / 2
    top = 2 * p_max - 1  # the largest cross product a half-chain can have
    # Column x of the edge table holds the (y, length) of its off-axis edges
    # sorted by y, the largest y in it, and prefix counts over y in
    # [-ymax, ymax]: the entries with lo <= y <= hi are
    # col[start[lo + ymax]:start[hi + ymax + 1]].  The axis edges (x, 0) and
    # (0, y) exist for every 1 <= |x|, |y| <= half and are not stored.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(2 * half + 1)]
    for x, y, length in integer_norm_vectors(half):
        if x and y:
            columns[x + half].append((y, length))
    table = []
    # An off-axis edge (x, y) with y >= 1 partners a horizontal edge over a
    # contiguous range lo..hi of diagonal columns dx.  after_h[lo] lists it,
    # with hi, as the v2 after a horizontal v1, before_h[lo] as the v1
    # before a horizontal v2.
    after_h: list[list[tuple[int, int, int, int]]] = [[] for _ in range(half + 1)]
    before_h: list[list[tuple[int, int, int, int]]] = [[] for _ in range(half + 1)]
    for x, col in enumerate(columns, -half):
        col.sort()
        ymax = col[-1][0] if col else 0
        counts = [0] * (2 * ymax + 2)
        for y, length in col:
            counts[y + ymax + 1] += 1
            if y > 0:
                # v2 = (x, y) after v1 = (dx - x, 0): 1 <= dx - x <= top // y
                lo, hi = max(y, x + 1), min(half, x + min(half, top // y))
                if lo <= hi:
                    after_h[lo].append((x, y, length, hi))
                # v1 = (x, y) before v2 = (dx - x, 0): 1 <= x - dx <= top // y
                lo, hi = max(y, x - min(half, top // y)), min(half, x - 1)
                if lo <= hi:
                    before_h[lo].append((x, y, length, hi))
        table.append((col, ymax, list(accumulate(counts))))
    xs = [x for x, col in enumerate(columns, -half) if col]

    active_after: list[tuple[int, int, int, int]] = []
    active_before: list[tuple[int, int, int, int]] = []
    for dx in range(1, half + 1):
        # Half-chains 0 -> v1 -> d right of d, for one column of diagonals at
        # a time, keyed by (dy, k).
        buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        w = top // dx
        # Both edges off-axis: v2 = d - v1 is drawn from column dx - x1.
        for x1 in xs[bisect_left(xs, dx - half):]:  # x2 = dx - x1 <= half
            x2 = dx - x1
            col2, ymax2, start2 = table[x2 + half]
            if not col2:
                continue
            col1, ymax1, start1 = table[x1 + half]
            # y1 window: 0 <= dy <= dx, |y1| <= ymax1, and some |y2| <= ymax2
            # must leave cross = x1*y2 - x2*y1 in [1, top].
            lo, hi = (-w, x1 - 1) if x1 > 0 else (x1 - w, -1)
            reach = (x1 if x1 > 0 else -x1) * ymax2
            if x2 > 0:
                lo_c, hi_c = -((reach + top) // x2), (reach - 1) // x2
            else:
                lo_c, hi_c = -((1 - reach) // x2), (-reach - top) // x2
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
            # ends.
            c_lo, c_hi = (1, top) if x1 > 0 else (top, 1)
            for y1, l1 in col1[start1[lo + ymax1]:start1[hi + ymax1 + 1]]:
                a = -y1 if y1 < ymax2 else -ymax2
                b = dx - y1 if dx - y1 < ymax2 else ymax2
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
        # v1 = (x1, 0), v2 = (x2, y2): cross = x1*y2.
        active_after = [e for e in active_after if e[3] >= dx] + after_h[dx]
        for x2, y2, l2, _ in active_after:
            x1 = dx - x2
            rest = p_max - x1 - l2
            if rest * rest > dx * dx + y2 * y2:
                key = (y2, x1 * y2 - 2 * (x1 + l2))
                buckets.setdefault(key, []).append((x1, 0, x1, l2))
        # v1 = (x1, y1), v2 = (x2, 0): cross = -x2*y1.
        active_before = [e for e in active_before if e[3] >= dx] + before_h[dx]
        for x1, y1, l1, _ in active_before:
            l2 = x1 - dx
            rest = p_max - l1 - l2
            if rest * rest > dx * dx + y1 * y1:
                key = (y1, l2 * y1 - 2 * (l1 + l2))
                buckets.setdefault(key, []).append((x1, y1, l1, l2))
        col, ymax, start = table[dx + half]
        # v1 = (0, y1), v2 = (dx, y2): cross = -dx*y1, and y2 >= 1.
        for y2, l2 in col[start[ymax + 1]:]:
            for y1 in range(max(-w, -y2), min(-1, dx - y2) + 1):
                dy = y1 + y2
                rest = p_max + y1 - l2
                if rest * rest > dx * dx + dy * dy:
                    key = (dy, -dx * y1 - 2 * (l2 - y1))
                    buckets.setdefault(key, []).append((0, y1, -y1, l2))
        # v1 = (dx, y1), v2 = (0, y2): cross = dx*y2; v1 may be (dx, 0).
        for y1, l1 in ((0, dx), *col):
            for y2 in range(max(1, -y1), min(w, dx - y1, half) + 1):
                dy = y1 + y2
                rest = p_max - l1 - y2
                if rest * rest > dx * dx + dy * dy:
                    key = (dy, dx * y2 - 2 * (l1 + y2))
                    buckets.setdefault(key, []).append((dx, y1, l1, y2))
        # The left half (P2, P3, P0) negated is a right half (u1, u2) of the
        # same d; negation keeps both the cross product and the lengths.
        # Bucket 0 pairs each u with itself and the v after it.
        for (dy, k), uppers in buckets.items():
            if k < 0:
                continue
            for j, (ux, uy, m1, m2) in enumerate(buckets.get((dy, -k), ())):
                qx, qy = dx - ux, dy - uy  # P3 = d - u1 = u2
                for x1, y1, l1, l2 in uppers[j:] if k == 0 else uppers:
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
    sq = longest * longest
    edges = []
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        if (qx - px) ** 2 + (qy - py) ** 2 == sq:
            edges.append((qx - px, qy - py))
    out = []
    for a, b, c, e in POINT_SYMMETRIES:
        # A rotation (s = 1) maps an edge v to g(v); a reflection (s = -1)
        # reverses the chain, so its edges become -g(v).  Only images with a
        # longest edge in the half-quadrant have an anchor.
        s = a * e - b * c
        for vx, vy in edges:
            if s * (a * vx + b * vy) > 0 and s * (c * vx + e * vy) >= 0:
                break
        else:
            continue
        img = [(a * x + b * y, c * x + e * y) for x, y in pts]
        if s < 0:
            img.reverse()  # a reflection leaves the vertices clockwise
        for i in range(4):
            ox, oy = img[i]
            ex, ey = img[(i + 1) % 4][0] - ox, img[(i + 1) % 4][1] - oy
            if ex > 0 and ey >= 0 and ex * ex + ey * ey == sq:
                _, _, (cx, cy), (fx, fy) = img[i:] + img[:i]
                out.append((0, 0, ex, ey, cx - ox, cy - oy, fx - ox, fy - oy))
    return out


class LeqClass(NamedTuple):
    """One congruence class of lattice equable quadrilaterals."""

    signature: tuple[int, int, int, int, int, int]
    representative: LatticeQuad
    classification: QuadClassification
    diagonals: DiagonalReport
    embeddings_seen: int

    @property
    def perimeter(self) -> int:
        return sum(map(isqrt, self.signature[:4]))


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
        first = min(chains[sig])
        rep = LatticeQuad(tuple(map(Point, first[::2], first[1::2])))
        classes[sig] = LeqClass(
            signature=sig,
            representative=rep,
            classification=classify(rep),
            diagonals=interior_diagonals(rep),
            embeddings_seen=len(chains[sig]),
        )
    return LeqCatalog(p_max=p_max, classes=classes)


@lru_cache(maxsize=8)
def get_catalog(p_max: int = 42) -> LeqCatalog:
    """Catalog cached for the life of the process."""
    return enumerate_leqs(p_max)


class AuditReport(NamedTuple):
    """Catalog classes cross-checked against the classification results.

    Each check pairs what the search found with what a closed-form result
    expects at the same bound, and `failed` names the checks that differ."""

    p_max: int
    kites_found: frozenset[tuple]
    kites_expected: frozenset[tuple]
    kite_audits: tuple[kites.AuditOutcome, ...]  # one per closed-form member
    trapezoids_found: frozenset[tuple]
    trapezoids_expected: frozenset[tuple]
    cyclic_found: frozenset[tuple]
    cyclic_expected: frozenset[tuple]
    diagonal_exceptions: tuple[tuple[tuple, int], ...]  # (signature, rational length)
    diagonal_exceptions_expected: tuple[tuple[tuple, int], ...]

    @property
    def failed(self) -> list[str]:
        """Names of the checks that do not hold, in the order of the fields."""
        checks = (
            ("kites", self.kites_found == self.kites_expected),
            ("kite_audits", all(outcome.passed for outcome in self.kite_audits)),
            ("trapezoids", self.trapezoids_found == self.trapezoids_expected),
            ("cyclic", self.cyclic_found == self.cyclic_expected),
            ("diagonal_exceptions", self.diagonal_exceptions == self.diagonal_exceptions_expected),
        )
        return [name for name, ok in checks if not ok]


def audit_theorems(catalog: LeqCatalog) -> AuditReport:
    """Compare the catalog at its bound against the closed-form kite families,
    the equable trapezoids, the cyclic solutions and the one rational interior
    diagonal, and audit every closed-form kite from its coordinates."""
    from equilat.figures import NAMED_QUADS  # so that search alone never runs figures

    p_max = catalog.p_max
    # The one class with a rational interior diagonal: the right trapezoid with
    # sides 6, 4, 3, 5, whose diagonal of length 5 cuts off a 3-4-5 triangle.
    rational_diagonal = NAMED_QUADS["right-trapezoid-6-4-3-5"]
    members = [km for tag in kites.FAMILIES for km in kites.members_within_perimeter(tag, p_max)]
    # A trapezoid's perimeter exceeds its triangle's by twice its shorter
    # parallel side, so triangles up to p_max give every trapezoid up to it.
    trapezoid_embeddings = [
        trapezoids.lattice_embedding(sol)
        for sol in trapezoids.all_equable_trapezoids(p_max)
        if sol.perimeter <= p_max
    ]
    return AuditReport(
        p_max=p_max,
        kites_found=_found(catalog, "is_kite"),
        kites_expected=frozenset(signature(km.quad()) for km in members),
        kite_audits=tuple(map(kites.audit_member, members)),
        trapezoids_found=_found(catalog, "is_trapezoid"),
        trapezoids_expected=frozenset(
            signature(emb) for emb in trapezoid_embeddings if emb is not None
        ),
        cyclic_found=_found(catalog, "is_cyclic"),
        cyclic_expected=frozenset(
            signature(emb)
            for sol in cyclic.solutions()
            if sum(sol.sides) <= p_max
            for emb in sol.embeddings
        ),
        diagonal_exceptions=tuple(
            (sig, diag.length)
            for sig, cls in sorted(catalog.classes.items())
            for diag in cls.diagonals.interior
            if diag.rational
        ),
        diagonal_exceptions_expected=(
            ((signature(rational_diagonal), 5),) if perimeter(rational_diagonal) <= p_max else ()
        ),
    )


def _found(catalog: LeqCatalog, flag: str) -> frozenset[tuple]:
    """Signatures of the catalog classes whose classification sets `flag`."""
    return frozenset(
        sig for sig, cls in catalog.classes.items() if getattr(cls.classification, flag)
    )
