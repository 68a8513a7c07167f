"""Exact integer and rational primitives for lattice quadrilaterals.

Everything here is a pure function of immutable values.  All predicates are
decided in exact integer (or exact rational) arithmetic; no floating point
enters any geometric decision.  Python's arbitrary-precision integers make
overflow a non-issue, so coordinates of any magnitude are safe.
"""

from collections import namedtuple
from collections.abc import Sequence
from math import isqrt
from operator import index

from equilat.errors import InvalidQuadError

__all__ = [
    "LatticeQuad",
    "QuadClassification",
    "Diagonal",
    "DiagonalReport",
    "dist_sq",
    "twice_area",
    "perimeter",
    "is_equable",
    "is_simple",
    "classify",
    "is_cyclic",
    "side_swap",
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


def dist_sq(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Squared distance between two lattice points."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _turns(v: Sequence[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The turn at each vertex: the cross product of the edges into and out
    of it, positive for a left turn."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = v
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x1, y2 - y1
    cx, cy, dx, dy = x3 - x2, y3 - y2, x0 - x3, y0 - y3
    return (dx * ay - dy * ax, ax * by - ay * bx, bx * cy - by * cx, cx * dy - cy * dx)


def is_simple(points: Sequence[tuple[int, int]]) -> bool:
    """True iff the four points, joined in order, bound a simple quadrilateral
    with no three vertices collinear.

    Decided by the four turns: none may be zero, and they may not split two
    negative, two positive.  Any three of four cyclic vertices are
    consecutive, so a zero turn means three collinear or two equal vertices.
    Otherwise the polygon is simple or a bowtie.  A bowtie's two triangles
    turn opposite ways, so its turns split two and two; a simple quad has at
    most one reflex vertex, so its turns never do.
    """
    if len(points) != 4:
        raise ValueError("expected exactly four points")
    turns = _turns(points)
    return 0 not in turns and sum(t < 0 for t in turns) != 2


class LatticeQuad(tuple):
    """Simple lattice quadrilateral in positive (counterclockwise) order: the
    tuple of its four vertices, each an (x, y) tuple of ints.

    Any vertex order may be passed in; a clockwise list is reversed in place
    (keeping the first vertex first).  Self-intersecting or degenerate input
    is rejected with InvalidQuadError rather than repaired.  Pickling and
    copying pass the vertices back through `__new__` (tuple's
    `__getnewargs__`), so they rerun the checks.
    """

    __slots__ = ()

    def __new__(cls, v: Sequence[Sequence[int]]) -> "LatticeQuad":
        try:
            pts = tuple((x, y) for x, y in v)
        except (TypeError, ValueError):
            raise InvalidQuadError("each vertex must be an (x, y) pair") from None
        try:
            pts = tuple((index(x), index(y)) for x, y in pts)
        except TypeError:
            raise InvalidQuadError("vertex coordinates must be integers") from None
        if len(pts) != 4:
            raise InvalidQuadError("a quadrilateral needs exactly four vertices")
        if not is_simple(pts):
            raise InvalidQuadError(f"vertices {pts} do not bound a simple quadrilateral")
        if twice_area(pts) < 0:
            pts = (pts[0], pts[3], pts[2], pts[1])
        return tuple.__new__(cls, pts)

    def __repr__(self) -> str:
        return f"LatticeQuad({tuple.__repr__(self)})"


def twice_area(v: Sequence[tuple[int, int]]) -> int:
    """Twice the signed area of the polygon v (shoelace); positive for a LatticeQuad."""
    total = 0
    px, py = v[-1]
    for x, y in v:
        total += px * y - x * py
        px, py = x, y
    return total


def _sides_sq(v: Sequence[tuple[int, int]]) -> tuple[int, int, int, int]:
    """Squared side lengths in vertex order."""
    return tuple(dist_sq(v[i], v[(i + 1) % 4]) for i in range(4))


def perimeter(q: LatticeQuad) -> int | None:
    """Integer perimeter, or None when some side has irrational length."""
    roots = [exact_sqrt(s) for s in _sides_sq(q)]
    return None if None in roots else sum(roots)


def is_equable(q: LatticeQuad) -> bool:
    """True iff area equals perimeter, compared exactly (2K == 2P).  A side of
    irrational length rules it out, by the lemma in the search docstring."""
    p = perimeter(q)
    return p is not None and twice_area(q) == 2 * p


class QuadClassification(namedtuple("QuadClassification", (
    "convex", "reflex_index", "is_kite", "is_dart", "is_parallelogram", "is_trapezoid",
    "is_isosceles_trapezoid", "is_right_trapezoid", "is_cyclic",
))):
    """Shape flags of a quad, each a bool but reflex_index, the index of
    its reflex vertex or None."""

    __slots__ = ()


def _reflex_index(v: Sequence[tuple[int, int]]) -> int | None:
    """The vertex whose turn is not a left turn, or None for a convex quad.

    A simple quad has at most one reflex vertex, and its turn is the least.
    """
    turns = _turns(v)
    least = min(turns)
    return None if least > 0 else turns.index(least)


def classify(q: LatticeQuad) -> QuadClassification:
    """Shape flags from exact squared lengths, cross products and dot products.

    Trapezoid uses the exclusive definition (exactly one parallel pair), so a
    parallelogram is never a trapezoid.  A dart is a concave kite.
    """
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = q
    # edges 0, 1, 2, 3 run from q[i] to q[i + 1]
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x1, y2 - y1
    cx, cy, dx, dy = x3 - x2, y3 - y2, x0 - x3, y0 - y3
    reflex_index = _reflex_index(q)
    convex = reflex_index is None

    s0, s1, s2, s3 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy, dx * dx + dy * dy
    kite = (s0 == s1 and s2 == s3) or (s1 == s2 and s3 == s0)

    par02 = ax * cy == ay * cx
    par13 = bx * dy == by * dx
    parallelogram = par02 and par13
    trapezoid = par02 != par13
    isosceles = trapezoid and ((par02 and s1 == s3) or (par13 and s0 == s2))

    # the angle at q[i] is right when edges i - 1 and i are perpendicular
    right_at = (dx * ax + dy * ay == 0, ax * bx + ay * by == 0,
                bx * cx + by * cy == 0, cx * dx + cy * dy == 0)
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
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = q
    z0 = x0 * x0 + y0 * y0
    a1, b1, c1 = x1 - x0, y1 - y0, x1 * x1 + y1 * y1 - z0
    a2, b2, c2 = x2 - x0, y2 - y0, x2 * x2 + y2 * y2 - z0
    a3, b3, c3 = x3 - x0, y3 - y0, x3 * x3 + y3 * y3 - z0
    det = a1 * (b2 * c3 - b3 * c2) - b1 * (a2 * c3 - a3 * c2) + c1 * (a2 * b3 - a3 * b2)
    return det == 0


def side_swap(v: Sequence[tuple[int, int]], i: int) -> tuple[tuple, ...]:
    """The paper's cut-and-rearrange: cut v along v[i]v[i+2] and reflect the
    triangle (v[i], v[i+1], v[i+2]) in the cut's perpendicular bisector, with
    indices mod 4.  The cut's ends swap places, so only v[i+1] moves, to an
    exact pair of Fractions.  The swap is its own inverse and keeps the area
    and the sides."""
    # imported here: the search, kites and pell commands never swap, so they
    # do not load fractions (and decimal)
    from fractions import Fraction

    j = (i + 1) % 4
    (ax, ay), (bx, by), (cx, cy) = v[j - 1], v[j], v[(j + 1) % 4]
    dx, dy = cx - ax, cy - ay
    den = dx * dx + dy * dy
    if den == 0:
        raise ValueError("the ends of the cut coincide")
    t = (2 * bx - ax - cx) * dx + (2 * by - ay - cy) * dy
    moved = (Fraction(bx * den - t * dx, den), Fraction(by * den - t * dy, den))
    return (*v[:j], moved, *v[j + 1:])


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
    a, b, c, d = sides_sq
    p, q = diag_sq
    # The four rotations of the cycle, then of its reversal, each followed by
    # the diagonal from its first vertex; reversal keeps the diagonal pair.
    return min(
        (a, b, c, d, p, q), (b, c, d, a, q, p), (c, d, a, b, p, q), (d, a, b, c, q, p),
        (d, c, b, a, p, q), (c, b, a, d, q, p), (b, a, d, c, p, q), (a, d, c, b, q, p),
    )


def signature(q: LatticeQuad) -> tuple[int, int, int, int, int, int]:
    """Congruence signature of a quad; see canonical_signature."""
    return canonical_signature(_sides_sq(q), (dist_sq(q[0], q[2]), dist_sq(q[1], q[3])))


def _circle_points(n: int) -> list[tuple[int, int]]:
    """Every lattice point at squared distance n from the origin."""
    out = []
    for x in range(-isqrt(n), isqrt(n) + 1):
        y = exact_sqrt(n - x * x)
        if y is not None:
            out.append((x, y))
            if y:
                out.append((x, -y))
    return out


def realize(sides_sq: Sequence[int], diag_sq: Sequence[int]) -> LatticeQuad | None:
    """A simple lattice quadrilateral with these squared sides, in cyclic
    order from P0, and squared diagonals (|P0P2|^2, |P1P3|^2); None when the
    lattice has none.  realize(sig[:4], sig[4:]) realizes a signature.

    Every entry must be a nonnegative int, four sides and two diagonals; the
    package's callers decide in integers that the squared diagonals are
    integers before they ask.  Anything else, a Fraction included, is a
    ValueError.

    The answer is congruent to the requested shape, but LatticeQuad turns a
    clockwise find round, so its sides in vertex order are the requested
    cyclic order or its reverse, read from some vertex.

    P0 sits at the origin and P1, P2, P3 range over the lattice points of the
    circles |P0P1|^2 = s0, |P0P2|^2 = d0 and |P0P3|^2 = s3.  The six lengths
    fix the shape up to congruence, so the first simple match is the answer.
    """
    try:
        s0, s1, s2, s3 = map(index, sides_sq)
        d0, d1 = map(index, diag_sq)
        if min(s0, s1, s2, s3, d0, d1) < 0:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"sides {sides_sq} and diagonals {diag_sq} must be four and two "
                         "nonnegative ints") from None
    on_s0, on_s3 = _circle_points(s0), _circle_points(s3)
    for b in _circle_points(d0):
        for a in on_s0:
            if dist_sq(a, b) != s1:
                continue
            for c in on_s3:
                if dist_sq(b, c) == s2 and dist_sq(a, c) == d1 and is_simple(((0, 0), a, b, c)):
                    return LatticeQuad(((0, 0), a, b, c))
    return None


class Diagonal(namedtuple("Diagonal", ("ends", "sq"))):
    """A diagonal by the (i, j) indices of its ends and its squared length."""

    __slots__ = ()

    @property
    def length(self) -> int | None:
        return exact_sqrt(self.sq)

    @property
    def rational(self) -> bool:
        return self.length is not None


class DiagonalReport(namedtuple("DiagonalReport", ("interior", "exterior"))):
    """A quad's two diagonals as tuples of the interior and exterior ones."""

    __slots__ = ()


def interior_diagonals(q: LatticeQuad, kind: QuadClassification | None = None) -> DiagonalReport:
    """Split the two diagonals into interior and exterior.

    A convex quad has both diagonals interior.  A concave quad has exactly
    one reflex vertex; the diagonal through it is interior, the other lies
    outside the polygon.  `kind`, classify(q) when the caller has it, gives
    the reflex vertex without finding it again.
    """
    reflex = _reflex_index(q) if kind is None else kind.reflex_index
    d02 = Diagonal((0, 2), dist_sq(q[0], q[2]))
    d13 = Diagonal((1, 3), dist_sq(q[1], q[3]))
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
