"""Exact integer and rational primitives for lattice quadrilaterals.

Everything here is a pure function of immutable values.  All predicates are
decided in exact integer (or exact rational) arithmetic; no floating point
enters any geometric decision.  Python's arbitrary-precision integers make
overflow a non-issue, so coordinates of any magnitude are safe.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from equilat.errors import InvalidQuadError

__all__ = [
    "Point",
    "LatticeQuad",
    "QuadClassification",
    "Diagonal",
    "DiagonalReport",
    "quad",
    "orient",
    "midpoint",
    "twice_area",
    "perimeter",
    "is_equable",
    "is_simple",
    "classify",
    "is_cyclic",
    "reflect_point",
    "signature",
    "canonical_signature",
    "realize",
    "interior_diagonals",
    "exact_sqrt",
    "POINT_SYMMETRIES",
]


def exact_sqrt(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


class Point(NamedTuple):
    """Lattice point."""

    x: int
    y: int

    def dist_sq(self, other: "Point") -> int:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy


def midpoint(a: Point, b: Point) -> tuple[Fraction, Fraction]:
    return Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)


def orient(a: Point, b: Point, c: Point) -> int:
    """Twice the signed area of triangle abc; positive for a left (ccw) turn."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def is_simple(points: Sequence[Point]) -> bool:
    """True iff the four points, joined in order, bound a simple quadrilateral
    with no three vertices collinear.

    With P0 moved to the origin: no three vertices may be collinear, which
    also makes them distinct, and the two pairs of opposite edges must not
    cross.  Shared endpoints of adjacent edges are the only allowed contacts;
    with no three vertices collinear a vertex cannot lie in the interior of a
    non-incident edge, so testing the opposite-edge pairs for proper
    crossings is exhaustive.
    """
    if len(points) != 4:
        raise ValueError("expected exactly four points")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points
    x1, y1, x2, y2, x3, y3 = x1 - x0, y1 - y0, x2 - x0, y2 - y0, x3 - x0, y3 - y0
    a = x1 * y2 - x2 * y1          # orient(P0, P1, P2)
    b = x1 * y3 - x3 * y1          # orient(P0, P1, P3)
    c = x2 * y3 - x3 * y2          # orient(P0, P2, P3)
    d = a - b + c                  # orient(P1, P2, P3)
    if a == 0 or b == 0 or c == 0 or d == 0:
        return False
    if a * b < 0 and c * d < 0:    # edge P0-P1 crosses edge P2-P3
        return False
    if a * d < 0 and b * c < 0:    # edge P1-P2 crosses edge P3-P0
        return False
    return True


class LatticeQuad(tuple):
    """Simple lattice quadrilateral in positive (counterclockwise) order: the
    tuple of its four vertices.

    Any vertex order may be passed in; a clockwise list is reversed in place
    (keeping the first vertex first).  Self-intersecting or degenerate input
    is rejected with InvalidQuadError rather than repaired.  Pickling and
    copying pass the vertices back through `__new__` (tuple's
    `__getnewargs__`), so they rerun the checks.
    """

    __slots__ = ()

    def __new__(cls, v: Sequence[Point]) -> "LatticeQuad":
        pts = tuple(v)
        if len(pts) != 4:
            raise InvalidQuadError("a quadrilateral needs exactly four vertices")
        if not is_simple(pts):
            raise InvalidQuadError(f"vertices {pts} do not bound a simple quadrilateral")
        if twice_area(pts) < 0:
            pts = (pts[0], pts[3], pts[2], pts[1])
        return tuple.__new__(cls, pts)

    def __repr__(self) -> str:
        return f"LatticeQuad({tuple.__repr__(self)})"


def quad(*points: Point | tuple[int, int]) -> LatticeQuad:
    """Convenience constructor: quad((0,0), (4,0), (4,4), (0,4))."""
    pts = tuple(p if isinstance(p, Point) else Point(*p) for p in points)
    return LatticeQuad(pts)


def twice_area(v: Sequence[Point]) -> int:
    """Twice the signed area of the polygon v (shoelace); positive for a LatticeQuad."""
    total = 0
    for i in range(len(v)):
        p, q_ = v[i], v[(i + 1) % len(v)]
        total += p.x * q_.y - q_.x * p.y
    return total


def _sides_sq(v: Sequence[Point]) -> tuple[int, int, int, int]:
    """Squared side lengths in vertex order."""
    return tuple(v[i].dist_sq(v[(i + 1) % 4]) for i in range(4))


def perimeter(q: LatticeQuad) -> int | None:
    """Integer perimeter, or None when some side has irrational length."""
    roots = [exact_sqrt(s) for s in _sides_sq(q)]
    return None if None in roots else sum(roots)


def is_equable(q: LatticeQuad) -> bool:
    """True iff area equals perimeter, compared exactly (2K == 2P)."""
    p = perimeter(q)
    return p is not None and twice_area(q) == 2 * p


class QuadClassification(NamedTuple):
    convex: bool
    reflex_index: int | None
    is_kite: bool
    is_dart: bool
    is_parallelogram: bool
    is_trapezoid: bool
    is_isosceles_trapezoid: bool
    is_right_trapezoid: bool
    is_cyclic: bool


def _reflex_index(v: Sequence[Point]) -> int | None:
    """The vertex whose turn is not a left turn, or None for a convex quad.

    A simple quad has at most one reflex vertex, and its turn is the least.
    """
    turns = [orient(v[i - 1], v[i], v[(i + 1) % 4]) for i in range(4)]
    least = min(turns)
    return None if least > 0 else turns.index(least)


def classify(q: LatticeQuad) -> QuadClassification:
    """Shape flags from exact squared lengths, cross products and dot products.

    Trapezoid uses the exclusive definition (exactly one parallel pair), so a
    parallelogram is never a trapezoid.  A dart is a concave kite.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = q
    ex = (x1 - x0, x2 - x1, x3 - x2, x0 - x3)  # edge i runs from q[i] to q[i + 1]
    ey = (y1 - y0, y2 - y1, y3 - y2, y0 - y3)
    reflex_index = _reflex_index(q)
    convex = reflex_index is None

    s0, s1, s2, s3 = (ex[i] * ex[i] + ey[i] * ey[i] for i in range(4))
    kite = (s0 == s1 and s2 == s3) or (s1 == s2 and s3 == s0)

    par02 = ex[0] * ey[2] == ey[0] * ex[2]
    par13 = ex[1] * ey[3] == ey[1] * ex[3]
    parallelogram = par02 and par13
    trapezoid = par02 != par13
    isosceles = trapezoid and ((par02 and s1 == s3) or (par13 and s0 == s2))

    # the angle at q[i] is right when edges i - 1 and i are perpendicular
    right_at = [ex[i - 1] * ex[i] + ey[i - 1] * ey[i] == 0 for i in range(4)]
    right = trapezoid and any(right_at[i - 1] and right_at[i] for i in range(4))

    return QuadClassification(
        convex=convex,
        reflex_index=reflex_index,
        is_kite=kite,
        is_dart=kite and not convex,
        is_parallelogram=parallelogram,
        is_trapezoid=trapezoid,
        is_isosceles_trapezoid=isosceles,
        is_right_trapezoid=right,
        is_cyclic=is_cyclic(q),
    )


def is_cyclic(q: LatticeQuad) -> bool:
    """True iff the four vertices are concyclic.

    Decided by the vanishing of the 4x4 determinant with rows
    (x, y, x^2 + y^2, 1), reduced to a 3x3 integer determinant by
    subtracting the first row.
    """
    rows = []
    x0, y0 = q[0].x, q[0].y
    z0 = x0 * x0 + y0 * y0
    for p in q[1:]:
        z = p.x * p.x + p.y * p.y
        rows.append((p.x - x0, p.y - y0, z - z0))
    (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = rows
    det = a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2) + c1 * (a2 * b3 - a3 * b2)
    return det == 0


def reflect_point(a: Point, axis_from: Point, axis_to: Point) -> tuple[Fraction, Fraction]:
    """Exact reflection of a across the line through the two axis points."""
    if axis_from == axis_to:
        raise ValueError("axis endpoints must be distinct")
    dx = axis_to.x - axis_from.x
    dy = axis_to.y - axis_from.y
    den = dx * dx + dy * dy
    vx = a.x - axis_from.x
    vy = a.y - axis_from.y
    dot = vx * dx + vy * dy
    rx = axis_from.x * den + 2 * dot * dx - den * vx
    ry = axis_from.y * den + 2 * dot * dy - den * vy
    return Fraction(rx, den), Fraction(ry, den)


def canonical_signature(
    sides_sq: Sequence[int], diag_sq: Sequence[int]
) -> tuple[int, int, int, int, int, int]:
    """Congruence signature: the lexicographic minimum, over the eight
    dihedral relabelings of the vertex cycle, of
    (s1^2, s2^2, s3^2, s4^2, d13^2, d24^2), for measurements given in cyclic
    order; usable for shapes that exist only as side/diagonal data.

    Two simple quadrilaterals share a signature iff they are congruent
    (reflections included): four cyclic sides plus both diagonals determine
    the shape up to isometry.
    """
    s = tuple(sides_sq)
    d = tuple(diag_sq)
    best = None
    for base in (s, (s[3], s[2], s[1], s[0])):  # reversal keeps the diagonal pair
        for r in range(4):
            cand = base[r:] + base[:r] + (d[r % 2], d[(r + 1) % 2])
            if best is None or cand < best:
                best = cand
    return best


def signature(q: LatticeQuad) -> tuple[int, int, int, int, int, int]:
    """Congruence signature of a quad; see canonical_signature."""
    return canonical_signature(_sides_sq(q), (q[0].dist_sq(q[2]), q[1].dist_sq(q[3])))


def _circle_points(n: int) -> list[Point]:
    """Every lattice point at squared distance n from the origin."""
    out = []
    for x in range(-isqrt(n), isqrt(n) + 1):
        y = exact_sqrt(n - x * x)
        if y is not None:
            out.append(Point(x, y))
            if y:
                out.append(Point(x, -y))
    return out


def realize(sides_sq: Sequence[int], diag_sq: Sequence[int]) -> LatticeQuad | None:
    """A simple lattice quadrilateral with these squared sides, in cyclic
    order from P0, and squared diagonals (|P0P2|^2, |P1P3|^2); None when the
    lattice has none.  realize(sig[:4], sig[4:]) realizes a signature.

    P0 sits at the origin and P1, P2, P3 range over the lattice points of the
    circles |P0P1|^2 = s0, |P0P2|^2 = d0 and |P0P3|^2 = s3.  The six lengths
    fix the shape up to congruence, so the first simple match is the answer.
    """
    s0, s1, s2, s3 = sides_sq
    d0, d1 = diag_sq
    origin = Point(0, 0)
    on_s0, on_s3 = _circle_points(s0), _circle_points(s3)
    for b in _circle_points(d0):
        for a in on_s0:
            if a.dist_sq(b) != s1:
                continue
            for c in on_s3:
                if b.dist_sq(c) == s2 and a.dist_sq(c) == d1 and is_simple((origin, a, b, c)):
                    return LatticeQuad((origin, a, b, c))
    return None


class Diagonal(NamedTuple):
    ends: tuple[int, int]
    sq: int
    rational: bool
    length: int | None


class DiagonalReport(NamedTuple):
    interior: tuple[Diagonal, ...]
    exterior: tuple[Diagonal, ...]


def _diagonal(q: LatticeQuad, i: int, j: int) -> Diagonal:
    sq = q[i].dist_sq(q[j])
    root = exact_sqrt(sq)
    return Diagonal((i, j), sq, root is not None, root)


def interior_diagonals(q: LatticeQuad) -> DiagonalReport:
    """Split the two diagonals into interior and exterior.

    A convex quad has both diagonals interior.  A concave quad has exactly
    one reflex vertex; the diagonal through it is interior, the other lies
    outside the polygon.
    """
    reflex = _reflex_index(q)
    d02 = _diagonal(q, 0, 2)
    d13 = _diagonal(q, 1, 3)
    if reflex is None:
        return DiagonalReport(interior=(d02, d13), exterior=())
    if reflex in (0, 2):
        return DiagonalReport(interior=(d02,), exterior=(d13,))
    return DiagonalReport(interior=(d13,), exterior=(d02,))


# The eight lattice-preserving point symmetries as matrices (a, b, c, d)
# acting by (x, y) -> (a x + b y, c x + d y).
POINT_SYMMETRIES: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (-1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, 1, 0),
    (0, 1, -1, 0),
    (0, -1, -1, 0),
)
