"""Heronian triangles and the equable trapezoids they generate.

An equable trapezoid with integer sides splits along the short parallel side
into a perimeter-dominant Heronian triangle plus a parallelogram strip.  Given
such a triangle and a choice f of the side to extend, the strip width is

    c = f * (perimeter - area) / (2 * (area - f)),

and the construction succeeds exactly when c is a positive integer.  An
integer divmod of that numerator by that denominator decides it, as divmod
decides the squared diagonals in `lattice_embedding` and
`interior_rational`, so only integers reach `geometry.realize`.  A triangle
is its sides (x, y, z) with x <= y <= z, and `heron_area` gives its area.  A
trapezoid is its pair (triangle, f): `strip_width` gives c, and
`height_terms` the height in lowest terms; both reject sides that are not
Heronian and an f that is not one of them.

The triangles come from their tangent lengths.  A Heronian perimeter is even,
so with s the half-perimeter the sides are (u+v, u+w, v+w) for integers
1 <= u <= v <= w with s = u+v+w, and Heron's formula reads A^2 = s*u*v*w.
Perimeter dominance, A < 2s, becomes u*v*w < 4(u+v+w) <= 12w, so u*v < 12.
The branches (u, v) fall into three kinds:

- u*v > 4: the inequality bounds w by (4(u+v) - 1) // (u*v - 4), so these
  branches are finite.  The only hit is (2, 3), giving (5, 5, 6).
- (1, 1), (1, 4), (2, 2): the inequality leaves w unbounded, but u*v is a
  square, so w(w+u+v) must be a square k^2, that is
  (2w+u+v)^2 - (2k)^2 = (u+v)^2.  The two factors of that difference of
  squares are at least 1 and multiply to (u+v)^2, so their sum
  2(2w+u+v) is at most 1 + (u+v)^2, that is w <= (u+v-1)^2 / 4.  The only
  hit is (1, 4), giving (5, 5, 8).
- (1, 2) and (1, 3): infinite.  There A^2 = 2w(w+3) forces 3 | w, and
  A^2 = 3w(w+4) forces 4 | w or w = 2x^2; splitting the coprime factors
  that remain gives four family rows.  Each is a triangle with area A for
  every solution (x, y) of its restriction equation from its least x on,
  and below that gives (3, 4, 5) or no triangle:

      row  sides                     A      restriction     least x
      1    (3, 3x^2 + 1, 3x^2 + 2)   6xy    x^2 + 1 = 2y^2  7
      2    (3, 3x^2 - 2, 3x^2 - 1)   6xy    x^2 - 1 = 2y^2  3
      3    (4, 2x^2 + 1, 2x^2 + 3)   6xy    x^2 + 2 = 3y^2  5
      4    (4, 4x^2 - 3, 4x^2 - 1)   12xy   x^2 - 1 = 3y^2  2

The rows give no trapezoid.  For a member (x, y) and a side f, with P and A
its perimeter and area, 2c = f(P - A)/(A - f), and A - f > 0 (see
`_strip_width`).  For x >= 6, j < 2c - M < j + 1 with the integer
polynomial M and the integer j below, so neither 2c nor c is an integer:

    f        rows 1, 2     row 3             row 4              2c - M tends to
    3 or 4   -3, 4         -4, 4             -4, 4              3 sqrt2; 8/sqrt3
    middle   6xy + 2, 2    3xy - x^2 + 1, 2  6xy - 2x^2 + 3, 2  2 sqrt2; 3 sqrt3/2
    longest  6xy + 4, 5    3xy - x^2 + 1, 4  6xy - 2x^2 + 3, 4  4 sqrt2; 5 sqrt3/2

Times A - f, with y^2 taken from the restriction, each bound reads
u(x) + v(x)*y > 0 for integer polynomials u and v.  On x >= 6 the lower
bounds have u > 0 > v and the upper ones v > 0 > u, so squaring leaves an
inequality p(x) > 0 in x alone.  Each of these polynomials, and each u and
v up to sign, has p(6) > 0 and p(6 + t) with no negative coefficient; the
tests carry this certificate.  Below x = 6 the rows have only (4, 13, 15),
(3, 25, 26) and (4, 51, 53), and none gives an integer c.  So running every
triangle through every choice of f yields the five classical solutions, all
from (3, 4, 5), (5, 5, 6) and (5, 5, 8), of perimeter at most
TRAPEZOID_TRIANGLE_BOUND.
"""

from itertools import permutations
from math import gcd

from equilat.geometry import LatticeQuad, exact_sqrt, realize, signature

__all__ = [
    "TRAPEZOID_SCAN_BOUND",
    "TRAPEZOID_TRIANGLE_BOUND",
    "FIRST_TRIANGLE_BOUND",
    "heron_area",
    "enumerate_perimeter_dominant",
    "strip_width",
    "height_terms",
    "all_equable_trapezoids",
    "lattice_embedding",
    "interior_rational",
]

TRAPEZOID_SCAN_BOUND = 400
"""The `trapezoids` command's default triangle perimeter bound, for display
only: any bound of at least TRAPEZOID_TRIANGLE_BOUND lists all five."""

TRAPEZOID_TRIANGLE_BOUND = 18  # derived in the module docstring
FIRST_TRIANGLE_BOUND = 20  # derived in the docstring of interior_rational


def heron_area(x: int, y: int, z: int) -> int | None:
    """Integer area of the triangle with sides x <= y <= z, or None when the
    triangle is degenerate or the area is not an integer."""
    if not all(isinstance(s, int) for s in (x, y, z)):
        raise ValueError("sides must be integers")
    if not (0 < x <= y <= z):
        raise ValueError("sides must be positive and ordered x <= y <= z")
    prod = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
    root = exact_sqrt(prod)
    if not root or root % 4:  # None, or 0 for a degenerate triangle
        return None
    return root // 4


def enumerate_perimeter_dominant(p_max: int) -> list[tuple[int, int, int]]:
    """Every Heronian triangle with perimeter <= p_max and perimeter > area,
    sorted by (perimeter, sides).

    Walks the tangent lengths of the module docstring's branches, with their
    bounds on w.  Only (1, 2) and (1, 3) reach the perimeter bound, so the
    work is O(p_max).
    """
    if not isinstance(p_max, int):
        raise ValueError("p_max must be an integer")
    if p_max < 12:
        raise ValueError("p_max must be at least 12 (the smallest Heronian perimeter)")
    found = []
    for u in range(1, 4):
        for v in range(u, 11 // u + 1):
            uv = u * v
            w_max = p_max // 2 - u - v
            if uv > 4:
                w_max = min(w_max, (4 * (u + v) - 1) // (uv - 4))
            elif exact_sqrt(uv) is not None:
                w_max = min(w_max, (u + v - 1) ** 2 // 4)
            for w in range(v, w_max + 1):
                s = u + v + w
                area = exact_sqrt(s * uv * w)
                if area is not None and area < 2 * s:
                    found.append((u + v, u + w, v + w))
    found.sort(key=lambda t: (sum(t), t))
    return found


def _strip_width(t: tuple[int, int, int], f: int) -> tuple[int, int]:
    """The strip width c for side choice f of the Heronian triangle with sides
    x <= y <= z, as its numerator and positive denominator; ValueError for any
    other sides or an f that is not one of them.

    The denominator is positive, as a Heronian triangle's area exceeds each
    side: with tangent lengths u, v, w >= 1 and the side v + w,
    A^2 = uvw(u+v+w), so A <= v + w needs uvw < v + w <= vw + 1.  Then u = 1
    and v = 1 (or w = 1), and A^2 = w(w+2) lies strictly between two squares.
    """
    x, y, z = t
    area = heron_area(x, y, z)
    if area is None:
        raise ValueError(f"{t} is not Heronian")
    if not isinstance(f, int) or f not in t:
        raise ValueError(f"{f} is not a side of {t}")
    return f * (x + y + z - area), 2 * (area - f)


def strip_width(t: tuple[int, int, int], f: int) -> int | None:
    """The strip width c of the trapezoid that extends side f of the
    triangle, or None when c is not a positive integer and the pair gives
    no trapezoid; see `_strip_width`."""
    c, rem = divmod(*_strip_width(t, f))
    return c if rem == 0 and c >= 1 else None


def height_terms(t: tuple[int, int, int], f: int) -> tuple[int, int]:
    """The triangle's height on its side f, which is the height of the
    trapezoid extending f, as its numerator and denominator in lowest terms;
    the `trapezoids` command prints them.  ValueError as for `strip_width`."""
    _, den = _strip_width(t, f)
    twice_area = den + 2 * f  # den = 2 * (area - f)
    g = gcd(twice_area, f)
    return twice_area // g, f // g


def all_equable_trapezoids(
    p_max: int = TRAPEZOID_SCAN_BOUND,
) -> list[tuple[tuple[int, int, int], int]]:
    """Every equable trapezoid with integer sides and area built from a
    perimeter-dominant triangle of perimeter <= p_max, as its (triangle, f)
    pair, by the triangles' (perimeter, sides) and then ascending f.  No
    triangle past TRAPEZOID_TRIANGLE_BOUND gives one, so the scan stops there."""
    if not isinstance(p_max, int):
        raise ValueError("p_max must be an integer")
    return [
        (t, f)
        for t in enumerate_perimeter_dominant(min(p_max, TRAPEZOID_TRIANGLE_BOUND))
        for f in sorted(set(t))
        if strip_width(t, f) is not None
    ]


def lattice_embedding(t: tuple[int, int, int], f: int) -> LatticeQuad | None:
    """A lattice placement O, A, B, C congruent to the trapezoid that extends
    side f of the triangle, from `geometry.realize`; None when the lattice
    has none, and ValueError when the pair gives no trapezoid.

    Its sides are OA = a = c + f, AB = b, BC = c and CO = d, its legs b and d
    being the triangle's sides other than f in either order (the strip is a
    translate of one leg).  a - c = f gives its squared diagonals
    a*c + (a*d^2 - c*b^2)/f and a*c + (a*b^2 - c*d^2)/f.  The numerators sum
    to f(b^2 + d^2), so both diagonals are integers when f divides the
    first, and otherwise there is none."""
    c = strip_width(t, f)
    if c is None:
        num, den = _strip_width(t, f)
        g = gcd(num, den)
        shown = f"{num // g}" if den == g else f"{num // g}/{den // g}"
        raise ValueError(f"strip width {shown} is not a positive integer")
    legs = list(t)  # the sides other than f
    legs.remove(f)
    b, d = legs
    a = c + f
    ob, rem = divmod(a * d * d - c * b * b, f)  # O -> B, less a*c
    if rem:
        return None
    return realize((a * a, b * b, c * c, d * d), (a * c + ob, a * c + b * b + d * d - ob))


def interior_rational() -> list[tuple[tuple[int, ...], int]]:
    """Every LEQ class with a rational interior diagonal, at any perimeter,
    as sorted (signature, length) pairs.

    Such a diagonal e is an integer and cuts the quad into triangles
    (a, b, e) and (c, d, e) on opposite sides of it, both Heronian, so their
    tangent lengths are integers.  Their areas sum to a + b + c + d, so one,
    say the first, has A1 <= a + b and is perimeter-dominant.

    The second, with tangent lengths u at its apex and y', z' at the ends of
    e, has area c + d + K = 2u + e + K with K = a + b - A1 >= 0, so Heron's
    formula reads (y'z' - 4)u^2 + (y'z'e - 4(e + K))u - (e + K)^2 = 0.  For
    y'z' <= 4 no term is positive and the last is negative, so y'z' > 4 and
    e = y' + z' >= 5.  Then the roots' product is negative: one u per split.

    The first, with tangent lengths x at its apex and y <= z at the ends of
    e, has A1^2 = xyz(x + e) <= (2x + e)^2, or (yz - 4)x(x + e) <= e^2, and
    perimeter 2(x + e):
    - yz <= 4: e >= 5 leaves (y, z) = (1, 4), and 4x(x + 5) = (2x + 5)^2 - 25
      is a square only at x = 4; x + e = 9.
    - y = 1, z >= 5: x = 1 gives A1^2 = z(z + 2), never a square.  x >= 2
      gives 2(z - 4)(z + 3) <= (z + 1)^2, so z <= 7, and x + e <= 10.
    - y >= 2, yz > 4: yz - 4 < e, that is (y - 1)(z - 1) <= 4, so e <= 7,
      and each such (y, z) allows x = 1 only; x + e <= 8.
    So the first triangle has perimeter at most FIRST_TRIANGLE_BOUND.  Each
    gluing has the other diagonal D^2 = (((a^2 - b^2) - (d^2 - c^2))^2 / 4
    + 4(A1 + A2)^2) / e^2.  A lattice quad needs D^2 to be an integer, and of
    the gluings where it is, `geometry.realize` decides which are lattice
    quads: only the right trapezoid with sides 6, 4, 3, 5, cut at e = 5.
    """
    found = set()
    for t in enumerate_perimeter_dominant(FIRST_TRIANGLE_BOUND):
        area = heron_area(*t)
        for a, b, e in set(permutations(t)):
            k = a + b - area
            if e < 5 or k < 0:
                continue
            for y in range(1, e):
                yz, ek = y * (e - y), e + k
                lin = yz * e - 4 * ek  # (yz - 4)u^2 + lin*u - ek^2 = 0, y = y'
                root = exact_sqrt(lin * lin + 4 * (yz - 4) * ek * ek)
                if yz <= 4 or root is None or (root - lin) % (2 * yz - 8):
                    continue
                u = (root - lin) // (2 * yz - 8)
                c, d = u + y, u + e - y
                s = area + c + d + k  # A1 + A2
                diag, rem = divmod(((a * a - b * b) - (d * d - c * c)) ** 2 + 16 * s * s, 4 * e * e)
                quad = None if rem else realize((a * a, b * b, c * c, d * d), (e * e, diag))
                if quad is not None:
                    found.add((signature(quad), e))
    return sorted(found)
