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

Each half-chain is stored as three ints: its key dy*K + k, the key
dy*K - k of its partners, with K = 4 p_max > 2|k|, and its first edge.  Per
column dx a set intersection in C finds the keys that some half-chain wants,
and only the half-chains with those keys are bucketed in Python: 297 of
5,895 at p_max = 200.

The area bounds the half-chains too.  Each half's cross product is at least
1, and the two sum to twice the area, that is 2 * perimeter <= 2 p_max, so
each lies in [1, T] with T = 2 p_max - 1.

Half-chains come from pairs of directions.  Every edge is i*g(P) with
i >= 1, g one of the eight lattice symmetries and P = (x, y) a primitive
base with x > y >= 0: the axis (1, 0) or a primitive Pythagorean direction
from Euclid's formula.  So each half-chain (v1, v2) is the image under some
g of (i*P, j*q), P the base of v1 and q an image of the base Q of v2.  A
rotation keeps cross(i*P, j*q) = i*j*c, c = cross(P, q), and a reflection
negates it, so g is a rotation when c > 0 and a reflection when c < 0; of
the four of that kind exactly one moves d0 = i*P + j*q into the quadrant
dx > 0, dy >= 0.  An off-axis base has eight distinct images, so v1 fixes
g.  (1, 0) has four, each the image of one rotation and one reflection, so
q runs over those four only, and P = (1, 0) takes only rotations.  Hence
each half-chain with d in the quadrant is listed once.  For P = (x1, y1)
and Q = (x2, y2) the eight images q give only four values of |c|:
|x1*y2 - y1*x2|, x1*y2 + y1*x2, |x1*x2 - y1*y2| and x1*x2 + y1*y2, so a
pair of bases whose two differences exceed T is skipped at once, and
otherwise 1 <= |c|*i*j <= T bounds i, j.  The other half needs room too: its
two sides exceed |d|, so (p_max - l1 - l2)^2 > |d|^2 with l1 = |v1| and
l2 = j*r2, r2 = |Q|.  The j^2 terms of the two sides cancel, which leaves
j <= (p_max (p_max - 2 l1) - 1) // (2 ((p_max - l1) r2 + v1.q)), whose
divisor is positive because l1 < p_max / 2.

Each pair of bases is taken once.  Reflecting a half-chain through y = x
and reversing it keeps its cross product, lengths and key, swaps the bases
of its edges and sends d = (dx, dy) to (dy, dx).  So for P != Q a
half-chain of (P, Q) with dy >= dx gives one of (Q, P) in the eighth,
except on the x-axis, where the mirror lies on the y-axis, outside the
quadrant; there reflecting through the x-axis and reversing gives the
half-chains of (Q, P) from those of (P, Q) with the same d.  For P = Q the
same map sends (i, j) to (j, i), so j runs from i only, and the mirrors of
j > i are filed as for P != Q.

The pairs of directions restate the bound exactly, so the join finds the
hits of pairing every v1 with every v2 = d - v1 without the bound, which
the tests keep as an oracle, one of each turned pair.

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

from array import array
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from equilat.geometry import (
    POINT_SYMMETRIES,
    DiagonalReport,
    LatticeQuad,
    QuadClassification,
    canonical_signature,
    classify,
    interior_diagonals,
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
    if not isinstance(max_len, int):
        raise ValueError("max_len must be an integer")
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


def _half_chains(p_max: int, edges: list[tuple[int, int, int]]) -> dict[int, array]:
    """Per column dx of diagonals, the half-chains 0 -> v1 -> d as flat runs
    of (key, want, v): key = dy*K + k and want = dy*K - k with K = 4 p_max and
    k = cross(v1, v2) - 2(|v1| + |v2|), and v = x1*V + y1 with
    V = 2 half + 1, half = (p_max - 1) // 2.  Every half-chain whose diagonal
    d lies in the eighth dx > 0, 0 <= dy <= dx, whose cross product lies in
    [1, 2 p_max - 1] and whose other half has room, once.  `edges` is the edge
    table integer_norm_vectors(half).  The module docstring derives the pairs
    of directions."""
    half = (p_max - 1) // 2
    top = 2 * p_max - 1
    K, V = 4 * p_max, 2 * half + 1
    # -2 p_max < k < 2 p_max, so a key fixes (dy, k); dy, |x1|, |y1| <= half.
    # |key|, |want| < 2 p_max^2 and |v| < p_max^2 / 2 fit a C int for
    # p_max < 32,768; a value out of range raises OverflowError, never wraps.
    out = {dx: array("i") for dx in range(1, half + 1)}
    # put[dx] appends to column dx; fromlist resizes the array once, where
    # extending it by a tuple grows it item by item at twice the cost.
    put = [None, *(col.fromlist for col in out.values())]
    # Longest first, so that the long loop over bases[n:] runs inside.
    bases = [(x, y, r) for x, y, r in reversed(edges) if x > y >= 0 and gcd(x, y) == 1]
    for n, (x1, y1, r1) in enumerate(bases):
        for x2, y2, r2 in bases[n:]:
            a, b, e, f = x1 * y2, y1 * x2, x1 * x2, y1 * y2
            if abs(a - b) > top and abs(e - f) > top:
                continue  # a + b and e + f are larger still
            images = (
                (x2, y2, a - b), (-x2, -y2, b - a), (-x2, y2, a + b), (x2, -y2, -a - b),
                (y2, x2, e - f), (-y2, -x2, f - e), (-y2, x2, e + f), (y2, -x2, -e - f),
            )
            if not y2:
                images = images[:2] + images[4:6]  # the four images of (1, 0)
            same = (x2, y2) == (x1, y1)
            for qx, qy, c in images:
                # A reflection through y = x first turns c < 0 into -c > 0,
                # so a rotation finishes either symmetry.
                px, py = x1, y1
                if c < 0:
                    if not y1:
                        continue  # a rotation lists the same half-chains
                    px, py, qx, qy, c = y1, x1, qy, qx, -c
                if not 1 <= c <= top:
                    continue
                for i in range(1, min(half // r1, top // c) + 1):
                    ux, uy, l1, ci = i * px, i * py, i * r1, c * i
                    # The other half needs more than |d|, so dx, dy <= half:
                    # (p - l1 - j r2)^2 > |u + j q|^2, whose j^2 terms cancel.
                    # The divisor is positive, since l1 <= half < p / 2.
                    room = (p_max * (p_max - 2 * l1) - 1) // (
                        2 * ((p_max - l1) * r2 + ux * qx + uy * qy))
                    # For P = Q the mirrors of j > i are the half-chains of
                    # j < i, so j starts at i; lo = 0 files every mirror.
                    lo = i if same else 0
                    kj, k0 = ci - 2 * r2, -2 * l1  # k = k0 + j * kj
                    for j in range(lo or 1, min(half // r2, top // ci, room) + 1):
                        sx, sy = ux + j * qx, uy + j * qy
                        # The one rotation that moves d0 = (sx, sy) into the
                        # quadrant dx > 0, dy >= 0, applied to d0 and v1.  p
                        # lies in the quadrant and q less than a half-turn
                        # after it, so d0 is never in the open fourth.
                        if sx > 0 and sy >= 0:
                            dx, dy, vx, vy = sx, sy, ux, uy
                        elif sy > 0:
                            dx, dy, vx, vy = sy, -sx, uy, -ux
                        else:
                            dx, dy, vx, vy = -sx, -sy, -ux, -uy
                        k = k0 + j * kj
                        if dy <= dx:
                            t = dy * K
                            put[dx]([t + k, t - k, vx * V + vy])
                        if j > lo:
                            # The half-chains of (Q, P): mirrors through y = x,
                            # and on the x-axis through the x-axis.
                            if dy >= dx:
                                t = dx * K
                                put[dy]([t + k, t - k, (dy - vy) * V + dx - vx])
                            if not dy:
                                put[dx]([k, -k, (dx - vx) * V + vy])
    return out


def _equable_quads(p_max: int):
    """Yield the vertices of every counterclockwise equable quad
    (0, P1, d, P3) with integer sides and perimeter <= p_max whose interior
    diagonal d = P2 - P0 lies in the eighth dx > 0, 0 <= dy <= dx, but only
    one of each such quad and its 180-degree turn about d/2.  Per column, a
    set intersection in C keeps the half-chains whose key another one wants,
    and only those reach Python.  The module docstring derives the bound
    1 <= cross(v1, v2) <= 2 p_max - 1 on the half-chains and the pairs of
    directions that list them."""
    half = (p_max - 1) // 2  # every side and diagonal is shorter than p_max / 2
    K, V = 4 * p_max, 2 * half + 1
    columns = _half_chains(p_max, integer_norm_vectors(half))
    for dx in range(1, half + 1):
        col = columns.pop(dx)
        keys = col[0::3].tolist()
        matched = set(keys).intersection(col[1::3])
        if not matched:
            continue
        # Half-chains 0 -> v1 -> d right of d, for one column of diagonals at
        # a time, keyed by dy*K + k, with a partner key dy*K - k.
        buckets: dict[int, list[tuple[int, int]]] = {}
        for key, v in compress(zip(keys, col[2::3]), map(matched.__contains__, keys)):
            x1, y1 = divmod(v + half, V)
            buckets.setdefault(key, []).append((x1, y1 - half))
        # The left half (P2, P3, P0) negated is a right half (u1, u2) of the
        # same d; negation keeps both the cross product and the lengths.
        # Bucket 0 pairs each u with itself and the v after it.
        for key, uppers in buckets.items():
            dy, k = divmod(key + 2 * p_max, K)
            k -= 2 * p_max
            if k < 0:
                continue
            # Some half-chain wants this key, so its partner bucket exists.
            for j, (ux, uy) in enumerate(buckets[key - 2 * k]):
                qx, qy = dx - ux, dy - uy  # P3 = d - u1 = u2
                # Twice the area, cross(v1, d) + cross(u1, d), is 2 * perimeter.
                room = 2 * p_max - (ux * dy - uy * dx)
                for x1, y1 in uppers[j:] if k == 0 else uppers:
                    if x1 * dy - y1 * dx > room:
                        continue
                    if x1 * qy == y1 * qx or (dx - x1) * uy == (dy - y1) * ux:
                        continue  # three collinear vertices at P0 or at P2
                    yield (0, 0), (x1, y1), (dx, dy), (qx, qy)


def _anchored_chains(pts: tuple[tuple[int, int], ...], sq: int) -> list[tuple[int, ...]]:
    """Flat vertex tuples of the quad's images under the lattice symmetries,
    re-oriented counterclockwise and started at each vertex whose outgoing
    edge is a longest edge, of squared length sq, in the half-quadrant
    dx > 0, dy >= 0."""
    # A rotation (s = 1) maps the chain as it is; a reflection (s = -1) maps
    # the reversed chain, which it leaves counterclockwise.  Per orientation,
    # the next three vertices from each vertex whose outgoing edge is
    # longest, relative to it, in the order of the vertices of the image.
    starts: dict[int, list[tuple[int, ...]]] = {1: [], -1: []}
    for s, chain in ((1, pts), (-1, pts[::-1])):
        for i, (ox, oy) in enumerate(chain):
            (ax, ay), (cx, cy), (fx, fy) = chain[i - 3], chain[i - 2], chain[i - 1]
            vx, vy = ax - ox, ay - oy
            if vx * vx + vy * vy == sq:
                starts[s].append((vx, vy, cx - ox, cy - oy, fx - ox, fy - oy))
    out = []
    for a, b, c, e in POINT_SYMMETRIES:
        for vx, vy, cx, cy, fx, fy in starts[a * e - b * c]:
            ex, ey = a * vx + b * vy, c * vx + e * vy
            if ex > 0 and ey >= 0:
                out.append((0, 0, ex, ey, a * cx + b * cy, c * cx + e * cy,
                            a * fx + b * fy, c * fx + e * fy))
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
    if not isinstance(p_max, int):
        raise ValueError("p_max must be an integer")
    if not P_MAX_MIN <= p_max <= P_MAX_MAX:
        raise ValueError(f"p_max must lie in [{P_MAX_MIN}, {P_MAX_MAX}]")
    chains: dict[tuple, set[tuple[int, ...]]] = {}
    for pts in _equable_quads(p_max):
        _, (x1, y1), (dx, dy), (qx, qy) = pts
        sides_sq = (
            x1 * x1 + y1 * y1, (dx - x1) ** 2 + (dy - y1) ** 2,
            (qx - dx) ** 2 + (qy - dy) ** 2, qx * qx + qy * qy,
        )
        sig = canonical_signature(sides_sq, (dx * dx + dy * dy, (qx - x1) ** 2 + (qy - y1) ** 2))
        chains.setdefault(sig, set()).update(_anchored_chains(pts, max(sides_sq)))

    classes: dict[tuple, LeqClass] = {}
    for sig in sorted(chains):
        first = min(chains[sig])
        rep = LatticeQuad(tuple(zip(first[::2], first[1::2])))
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
    kite_audits: tuple[str | None, ...]  # per closed-form member, its first failed check
    trapezoids_found: frozenset[tuple]
    trapezoids_expected: frozenset[tuple | None]  # None for a solution that does not realize
    cyclic_found: frozenset[tuple]
    cyclic_expected: frozenset[tuple]
    diagonal_exceptions: tuple[tuple[tuple, int], ...]  # (signature, rational length)
    diagonal_exceptions_expected: tuple[tuple[tuple, int], ...]

    @property
    def failed(self) -> list[str]:
        """Names of the checks that do not hold, in the order of the fields."""
        checks = (
            ("kites", self.kites_found == self.kites_expected),
            ("kite_audits", not any(self.kite_audits)),
            ("trapezoids", self.trapezoids_found == self.trapezoids_expected),
            ("cyclic", self.cyclic_found == self.cyclic_expected),
            ("diagonal_exceptions", self.diagonal_exceptions == self.diagonal_exceptions_expected),
        )
        return [name for name, ok in checks if not ok]


def audit_theorems(p_max: int) -> AuditReport:
    """Compare the catalog at p_max against the closed-form kite families,
    the equable trapezoids, the cyclic solutions and the rational interior
    diagonals, and audit every closed-form kite from its coordinates."""
    # imported here so that search alone never runs the closed-form modules
    from equilat import cyclic, kites, trapezoids

    catalog = enumerate_leqs(p_max)
    members = [km for tag in kites.FAMILIES for km in kites.members_within_perimeter(tag, p_max)]
    # A trapezoid's perimeter exceeds its triangle's by twice its shorter
    # parallel side, so triangles up to p_max give every trapezoid up to it.
    trapezoid_embeddings = [
        trapezoids.lattice_embedding(t, f)
        for t, f in trapezoids.all_equable_trapezoids(p_max)
        if sum(t) + 2 * trapezoids.strip_width(t, f) <= p_max
    ]
    return AuditReport(
        p_max=p_max,
        kites_found=_found(catalog, "is_kite"),
        kites_expected=frozenset(signature(km.quad()) for km in members),
        kite_audits=tuple(map(kites.audit_member, members)),
        trapezoids_found=_found(catalog, "is_trapezoid"),
        # a solution that does not realize is expected as None, which no
        # catalog class matches, so the check fails
        trapezoids_expected=frozenset(emb and signature(emb) for emb in trapezoid_embeddings),
        cyclic_found=_found(catalog, "is_cyclic"),
        cyclic_expected=frozenset(
            signature(emb)
            for sides in map(cyclic.sides, cyclic.solutions())
            if sum(sides) <= p_max
            for _, emb in cyclic.realizable_orderings(sides)
            if emb is not None
        ),
        diagonal_exceptions=tuple(
            (sig, diag.length)
            for sig, cls in catalog.items()
            for diag in cls.diagonals.interior
            if diag.rational
        ),
        diagonal_exceptions_expected=tuple(
            (sig, length) for sig, length in trapezoids.interior_rational()
            if sum(map(isqrt, sig[:4])) <= p_max
        ),
    )


def _found(catalog: dict[tuple, LeqClass], flag: str) -> frozenset[tuple]:
    """Signatures of the catalog classes whose classification sets `flag`."""
    return frozenset(sig for sig, cls in catalog.items() if getattr(cls.classification, flag))
