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
each lies in [1, T] with T = 2 p_max - 1.

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
it after the last, so a column of diagonals costs O(its half-chains).

Half-chains of two off-axis edges come from pairs of directions.  Each
off-axis edge is i*g(P) with i >= 1, P = (x, y) a primitive base with
x > y > 0, and g one of the eight lattice symmetries, whose images of P are
distinct.  So g is fixed by v1, and each half-chain (v1, v2) is the image
under g of exactly one (i*P, j*q), q an image of the base Q of v2.  A
rotation keeps cross(i*P, j*q) = i*j*c, c = cross(P, q), and a reflection
negates it, so g is a rotation when c > 0 and a reflection when c < 0; of
the four of that kind exactly one moves d0 = i*P + j*q into the quadrant
dx > 0, dy >= 0, and the half-chain is kept when d lands in the eighth.
Hence each one is listed once.  For P = (x1, y1) and Q = (x2, y2) the eight
images q give only four values of |c|: |x1*y2 - y1*x2|, x1*y2 + y1*x2,
|x1*x2 - y1*y2| and x1*x2 + y1*y2, so a pair of bases whose two differences
exceed T is skipped at once, and otherwise 1 <= |c|*i*j <= T bounds i, j.

The cases and the direction pairs restate the bound exactly, so the join
finds the hits of pairing every v1 with every v2 = d - v1 without the bound,
which the tests keep as an oracle, one of each turned pair.

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

from functools import lru_cache
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


def _off_axis_half_chains(p_max: int, edges: list[tuple[int, int, int]]) -> dict[int, list]:
    """Per column dx of diagonals, the half-chains 0 -> v1 -> d of two
    off-axis edges as (dy, k, x1, y1, l1, l2), k = cross(v1, v2) - 2(l1 + l2):
    every such half-chain whose diagonal d lies in the eighth dx > 0,
    0 <= dy <= dx, whose cross product lies in [1, 2 p_max - 1] and whose
    other half has room, once.  `edges` is the edge table
    integer_norm_vectors((p_max - 1) // 2).  The module docstring derives the
    pairs of directions."""
    half = (p_max - 1) // 2
    top = 2 * p_max - 1
    out: dict[int, list] = {dx: [] for dx in range(1, half + 1)}
    bases = [(x, y, r) for x, y, r in edges if x > y > 0 and gcd(x, y) == 1]
    for x1, y1, r1 in bases:
        for x2, y2, r2 in bases:
            a, b, e, f = x1 * y2, y1 * x2, x1 * x2, y1 * y2
            if abs(a - b) > top and abs(e - f) > top:
                continue  # a + b and e + f are larger still
            for qx, qy, c in (
                (x2, y2, a - b), (-x2, -y2, b - a), (-x2, y2, a + b), (x2, -y2, -a - b),
                (y2, x2, e - f), (-y2, -x2, f - e), (-y2, x2, e + f), (y2, -x2, -e - f),
            ):
                # A reflection through y = x first turns c < 0 into -c > 0,
                # so a rotation finishes either symmetry.
                px, py = x1, y1
                if c < 0:
                    px, py, qx, qy, c = y1, x1, qy, qx, -c
                if not 1 <= c <= top:
                    continue
                for i in range(1, min(half // r1, top // c) + 1):
                    ux, uy, l1 = i * px, i * py, i * r1
                    for j in range(1, min(half // r2, top // (c * i)) + 1):
                        sx, sy = ux + j * qx, uy + j * qy
                        # The one rotation that moves d0 = (sx, sy) into the
                        # quadrant dx > 0, dy >= 0, applied to d0 and v1.  p
                        # lies in the open first quadrant and q less than a
                        # half-turn after it, so d0 is never in the fourth.
                        if sx > 0 and sy >= 0:
                            dx, dy, vx, vy = sx, sy, ux, uy
                        elif sy > 0:
                            dx, dy, vx, vy = sy, -sx, uy, -ux
                        else:
                            dx, dy, vx, vy = -sx, -sy, -ux, -uy
                        if dy > dx:
                            continue
                        l2 = j * r2
                        # The other half needs more than |d|, so dx <= half.
                        rest = p_max - l1 - l2
                        if rest * rest > dx * dx + dy * dy:
                            out[dx].append((dy, c * i * j - 2 * (l1 + l2), vx, vy, l1, l2))
    return out


def _equable_quads(p_max: int):
    """Yield (vertices, sides) for every counterclockwise equable quad
    (0, P1, d, P3) with integer sides and perimeter <= p_max whose interior
    diagonal d = P2 - P0 lies in the eighth dx > 0, 0 <= dy <= dx, but only
    one of each such quad and its 180-degree turn about d/2.  The module
    docstring derives the bound 1 <= cross(v1, v2) <= 2 p_max - 1 on the
    half-chains, the four cases with an axis edge and the pairs of
    directions that list the rest."""
    half = (p_max - 1) // 2  # every side and diagonal is shorter than p_max / 2
    top = 2 * p_max - 1  # the largest cross product a half-chain can have
    edges = integer_norm_vectors(half)
    # Column dx >= 1 of the edge table holds the (y, length) of its off-axis
    # edges.  The axis edges (x, 0) and (0, y) exist for every
    # 1 <= |x|, |y| <= half and are not stored.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(half + 1)]
    # An off-axis edge (x, y) with y >= 1 partners a horizontal edge over a
    # contiguous range lo..hi of diagonal columns dx.  after_h[lo] lists it,
    # with hi, as the v2 after a horizontal v1, before_h[lo] as the v1
    # before a horizontal v2.
    after_h: list[list[tuple[int, int, int, int]]] = [[] for _ in range(half + 1)]
    before_h: list[list[tuple[int, int, int, int]]] = [[] for _ in range(half + 1)]
    for x, y, length in edges:
        if not (x and y):
            continue
        if x > 0:
            columns[x].append((y, length))
        if y > 0:
            # v2 = (x, y) after v1 = (dx - x, 0): 1 <= dx - x <= top // y
            lo, hi = max(y, x + 1), min(half, x + min(half, top // y))
            if lo <= hi:
                after_h[lo].append((x, y, length, hi))
            # v1 = (x, y) before v2 = (dx - x, 0): 1 <= x - dx <= top // y
            lo, hi = max(y, x - min(half, top // y)), min(half, x - 1)
            if lo <= hi:
                before_h[lo].append((x, y, length, hi))
    off_axis = _off_axis_half_chains(p_max, edges)

    active_after: list[tuple[int, int, int, int]] = []
    active_before: list[tuple[int, int, int, int]] = []
    for dx in range(1, half + 1):
        # Half-chains 0 -> v1 -> d right of d, for one column of diagonals at
        # a time, keyed by (dy, k).
        buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        for dy, k, x1, y1, l1, l2 in off_axis.pop(dx):
            buckets.setdefault((dy, k), []).append((x1, y1, l1, l2))
        w = top // dx
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
        col = columns[dx]
        # v1 = (0, y1), v2 = (dx, y2): cross = -dx*y1; y1's range is empty
        # unless y2 >= 1.
        for y2, l2 in col:
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


def enumerate_leqs(p_max: int) -> dict[tuple, LeqClass]:
    """Complete catalog of LEQ classes with perimeter <= p_max, keyed by
    signature in increasing signature order."""
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
    return classes


@lru_cache(maxsize=8)
def get_catalog(p_max: int) -> dict[tuple, LeqClass]:
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


def audit_theorems(p_max: int) -> AuditReport:
    """Compare the catalog at p_max against the closed-form kite families,
    the equable trapezoids, the cyclic solutions and the one rational interior
    diagonal, and audit every closed-form kite from its coordinates."""
    from equilat.figures import NAMED_QUADS  # so that search alone never runs figures

    catalog = enumerate_leqs(p_max)
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
            for sig, cls in catalog.items()
            for diag in cls.diagonals.interior
            if diag.rational
        ),
        diagonal_exceptions_expected=(
            ((signature(rational_diagonal), 5),) if perimeter(rational_diagonal) <= p_max else ()
        ),
    )


def _found(catalog: dict[tuple, LeqClass], flag: str) -> frozenset[tuple]:
    """Signatures of the catalog classes whose classification sets `flag`."""
    return frozenset(sig for sig, cls in catalog.items() if getattr(cls.classification, flag))
