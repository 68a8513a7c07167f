from fractions import Fraction
from itertools import islice, permutations, product
from math import isqrt

import pytest

from equilat import pell, trapezoids
from equilat.figures import CLASS_DRAWINGS, NAMED_QUADS
from equilat.geometry import classify, dist_sq, is_equable, perimeter, realize, signature
from equilat.search import get_catalog
from equilat.trapezoids import (
    FIRST_TRIANGLE_BOUND,
    TRAPEZOID_TRIANGLE_BOUND,
    all_equable_trapezoids,
    enumerate_perimeter_dominant,
    heron_area,
    height_terms,
    interior_rational,
    lattice_embedding,
    strip_width,
)
from helpers import (
    FAMILY_ROWS,
    family_members,
    strip_width_by_fractions,
    trapezoid_diagonals_by_planting,
    whole,
)


def _scan_perimeter_dominant(p_max: int) -> list[tuple[int, int, int]]:
    """Reference oracle: the exhaustive O(p_max^3) scan over ordered side
    triples that the tangent-length enumeration replaced."""
    found = []
    for p in range(12, p_max + 1):
        for x in range(1, p // 3 + 1):
            for y in range(x, (p - x) // 2 + 1):
                z = p - x - y
                if z < y or x + y <= z:
                    continue
                area = heron_area(x, y, z)
                if area is not None and p > area:
                    found.append((x, y, z))
    found.sort(key=lambda t: (sum(t), t))
    return found


@pytest.fixture(scope="session")
def scan_400():
    # the oracle takes a few tenths of a second at 400, so run it once
    return tuple(_scan_perimeter_dominant(400))


T345 = (3, 4, 5)
T556 = (5, 5, 6)
T558 = (5, 5, 8)

# (triangle, f) of the five solutions -> the name of the class's drawing
FIVE = {
    (T345, 3): "right-trapezoid-6-4-3-5",
    (T345, 4): "right-trapezoid-10-3-6-5",
    (T345, 5): "trapezoid-20-4-15-3",
    (T556, 6): "isosceles-trapezoid-8-5-2-5",
    (T558, 8): "isosceles-trapezoid-14-5-6-5",
}


# the public functions that take a (triangle, f) pair, and so check it
PAIR_FUNCTIONS = (strip_width, height_terms, lattice_embedding)


def _table(t):
    """(perimeter, area, perimeter - area) of a Heronian triangle."""
    area = heron_area(*t)
    return sum(t), area, sum(t) - area


class TestHeronArea:
    def test_345(self):
        assert heron_area(3, 4, 5) == 6

    def test_558(self):
        assert heron_area(5, 5, 8) == 12

    def test_non_integer_area(self):
        assert heron_area(2, 3, 4) is None

    def test_degenerate(self):
        assert heron_area(1, 2, 3) is None

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            heron_area(5, 4, 3)

    def test_rejects_sides_that_are_not_ints(self):
        with pytest.raises(ValueError, match="sides must be integers"):
            heron_area(3.0, 4, 5)

    def test_square_heron_product_gives_integer_area(self):
        # perfect-square Heron product forces an integer area (P <= 200)
        for p in range(3, 201):
            for x in range(1, p // 3 + 1):
                for y in range(x, (p - x) // 2 + 1):
                    z = p - x - y
                    if z < y or x + y <= z:
                        continue
                    prod = p * (-x + y + z) * (x - y + z) * (x + y - z)
                    root = isqrt(prod)
                    if root * root == prod:
                        assert root % 4 == 0, (x, y, z)


class TestPerimeterDominantScan:
    def test_up_to_20(self):
        assert enumerate_perimeter_dominant(20) == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8),
        ]

    def test_up_to_60(self):
        assert enumerate_perimeter_dominant(60) == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8), (4, 13, 15), (3, 25, 26),
        ]

    def test_up_to_400(self):
        got = enumerate_perimeter_dominant(400)
        assert got == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8),
            (4, 13, 15), (3, 25, 26), (4, 51, 53), (3, 148, 149), (4, 193, 195),
        ]

    def test_matches_scan_oracle_at_every_bound(self, scan_400):
        for p_max in range(12, 401):
            expected = [t for t in scan_400 if sum(t) <= p_max]
            assert enumerate_perimeter_dominant(p_max) == expected, p_max

    @pytest.mark.parametrize("p_max", [12, 17, 18, 60])
    def test_matches_direct_scan(self, p_max):
        assert enumerate_perimeter_dominant(p_max) == _scan_perimeter_dominant(p_max)

    @pytest.mark.parametrize("p_max", [11, 0, -5, 12.0, 400.0])
    def test_bound_below_12_rejected(self, p_max):
        with pytest.raises(ValueError):
            enumerate_perimeter_dominant(p_max)
        with pytest.raises(ValueError):
            all_equable_trapezoids(p_max)

    def test_delta_positive(self):
        assert all(_table(t)[2] > 0 for t in enumerate_perimeter_dominant(100))

    def test_table_values(self):
        assert _table(T345) == (12, 6, 6)
        assert _table(T556) == (16, 12, 4)
        assert _table(T558) == (18, 12, 6)


class TestFamilyMember:
    # the family rows are a test oracle, `helpers.family_members`
    def test_row1(self):
        [t] = family_members(1, 300)
        assert (t, sum(t), heron_area(*t)) == ((3, 148, 149), 300, 210)

    def test_row2(self):
        [t] = family_members(2, 54)
        assert (t, sum(t), heron_area(*t)) == ((3, 25, 26), 54, 36)

    def test_row4(self):
        [t] = family_members(4, 32)
        assert (t, sum(t), heron_area(*t)) == ((4, 13, 15), 32, 24)

    def test_closed_form_area_is_checked(self, monkeypatch):
        name, x_min, sides, _ = FAMILY_ROWS[1]
        monkeypatch.setitem(FAMILY_ROWS, 1, (name, x_min, sides, lambda x, y: 6 * x * y + 1))
        with pytest.raises(AssertionError, match=r"row 1 at \(7,5\): area is not Heron's"):
            family_members(1, 300)

    def test_closed_forms_match_scan(self):
        family = {t for row in (1, 2, 3, 4) for t in family_members(row, 400)}
        scanned = set(enumerate_perimeter_dominant(400))
        specials = {(3, 4, 5), (5, 5, 6), (5, 5, 8)}
        assert family == scanned - specials


class TestTrapezoidFrom:
    """A trapezoid from a triangle and its side f: the pair itself."""

    def test_345_f3(self):
        c = strip_width(T345, 3)
        assert (c, sum(T345) + 2 * c) == (3, 6 + 4 + 3 + 5)
        assert height_terms(T345, 3) == (4, 1)

    def test_556_f5_rational(self):
        assert strip_width_by_fractions(T556, 5) == Fraction(10, 7)
        assert strip_width(T556, 5) is None
        with pytest.raises(ValueError, match="^strip width 10/7 is not a positive integer$"):
            lattice_embedding(T556, 5)

    def test_558_f5_rational(self):
        assert strip_width_by_fractions(T558, 5) == Fraction(15, 7)
        with pytest.raises(ValueError, match="^strip width 15/7 is not a positive integer$"):
            lattice_embedding(T558, 5)

    def test_41315_f4(self):
        t = (4, 13, 15)
        assert strip_width_by_fractions(t, 4) == Fraction(4, 5)
        assert strip_width(t, 4) is None

    def test_f_not_a_side(self):
        with pytest.raises(ValueError):
            strip_width(T345, 6)

    def test_triangle_given_as_a_list(self):
        # as JSON decodes it: the tuple's answers
        for f in (3, 4, 5):
            for build in PAIR_FUNCTIONS:
                assert build([3, 4, 5], f) == build(T345, f), (build.__name__, f)
        assert strip_width([5, 5, 6], 5) is None
        with pytest.raises(ValueError, match="strip width 10/7"):
            lattice_embedding([5, 5, 6], 5)

    def test_degeneracy_guard(self):
        # no guard is needed against a side f >= area (height <= 2): the lemma
        # in _strip_width's docstring keeps its denominator positive.
        # Scan it over every Heronian triangle of perimeter <= 600.
        found = []
        for x in range(1, 201):
            for y in range(x, (600 - x) // 2 + 1):
                for z in range(y, min(x + y, 601 - x - y)):
                    area = heron_area(x, y, z)
                    if area is not None:
                        found.append((Fraction(area, z), (x, y, z)))
        assert len(found) == 1723
        assert min(found) == (Fraction(6, 5), (3, 4, 5))

    def test_integer_decisions_match_the_fraction_formula(self):
        # the strip width is decided by an integer divmod; the Fraction formula
        # is the oracle, on every perimeter-dominant triangle to 400 and every
        # Heronian one to 200, where c may also be 0 or negative
        heronian = [(x, y, z) for x, y, z, _ in _heronian_by_sides(200)]
        cases = [(t, f) for t in {*enumerate_perimeter_dominant(400), *heronian} for f in set(t)]
        whole_widths = 0
        for t, f in cases:
            c = strip_width_by_fractions(t, f)
            width = strip_width(t, f)
            if c.denominator == 1 and c >= 1:
                assert type(width) is int and width == c, (t, f)
                whole_widths += 1
            else:
                assert width is None, (t, f)
                with pytest.raises(ValueError, match=f"^strip width {c} is not a positive integer$"):
                    lattice_embedding(t, f)
        assert (len(cases), whole_widths) == (741, 5)

    def test_solution_is_equable_in_rationals(self):
        for t, f in FIVE:
            c, h = strip_width(t, f), Fraction(*height_terms(t, f))
            assert h * (2 * c + f) / 2 == sum(t) + 2 * c

    def test_height_terms_are_h_in_lowest_terms(self):
        # the trapezoids command prints h from these without loading fractions
        cases = [(T345, 3), (T345, 4), (T345, 5), (T556, 6), (T558, 8)]
        terms = [height_terms(t, f) for t, f in cases]
        assert terms == [(4, 1), (3, 1), (12, 5), (4, 1), (3, 1)]


class TestAllEquableTrapezoids:
    def test_exactly_five(self):
        sols = all_equable_trapezoids()
        assert len(sols) == 5
        assert set(sols) == set(FIVE)
        # the parallel sides c + f and c
        widths = [(strip_width(t, f), f) for t, f in sols]
        assert {(c + f, c) for c, f in widths} == {(6, 3), (10, 6), (8, 2), (14, 6), (20, 15)}

    def test_five_at_large_bound(self):
        sols = all_equable_trapezoids(100_000)
        assert len(sols) == 5
        assert set(sols) == set(FIVE)

    def test_figure_tags(self):
        # the CLI shows each realized class as its drawing, named by its tag
        tags = {
            (t, f): CLASS_DRAWINGS[signature(lattice_embedding(t, f))][0]
            for t, f in all_equable_trapezoids()
        }
        assert tags == FIVE

    def test_provenance(self):
        by_parallel_sides = {
            (strip_width(t, f) + f, strip_width(t, f)): (t, f) for t, f in all_equable_trapezoids()
        }
        assert by_parallel_sides[(20, 15)] == (T345, 5)
        assert by_parallel_sides[(8, 2)] == (T556, 6)

    def test_no_family_member_below_1e60_produces_integer_c(self):
        members = [t for row in (1, 2, 3, 4) for t in family_members(row, 10**60)]
        assert len(members) == 180
        for t in members:
            for f in set(t):
                assert strip_width_by_fractions(t, f).denominator != 1, (t, f)
                assert strip_width(t, f) is None, (t, f)


    def test_scan_stops_at_the_triangle_bound(self, monkeypatch):
        real = trapezoids.enumerate_perimeter_dominant

        def capped(p_max):
            if p_max > TRAPEZOID_TRIANGLE_BOUND:
                raise AssertionError(f"asked to scan triangles to {p_max}")
            return real(p_max)

        expected = all_equable_trapezoids(400)
        monkeypatch.setattr(trapezoids, "enumerate_perimeter_dominant", capped)
        assert all_equable_trapezoids(10**12) == expected


# The certificate of the trapezoids module docstring.  A polynomial in x is
# its list of int coefficients, lowest first; u + v*y is the pair (u, v).
X0 = 6
# row -> (d, k, a, sides): the restriction d*y^2 = x^2 + k, the area a*x*y
# and the sides in increasing order, each a polynomial in x
ROW_POLYS = {
    1: (2, 1, 6, ([3], [1, 0, 3], [2, 0, 3])),
    2: (2, -1, 6, ([3], [-2, 0, 3], [-1, 0, 3])),
    3: (3, 2, 6, ([4], [1, 0, 2], [3, 0, 2])),
    4: (3, -1, 12, ([4], [-3, 0, 4], [-1, 0, 4])),
}
# (row, index of f in the sides) -> (M, j) of the module docstring's table
_M12 = {0: (([-3], []), 4), 1: (([2], [0, 6]), 2), 2: (([4], [0, 6]), 5)}
_M3 = ([1, 0, -1], [0, 3])
_M4 = ([3, 0, -2], [0, 6])
STRIP_BOUNDS = {
    **{(row, i): mj for row in (1, 2) for i, mj in _M12.items()},
    (3, 0): (([-4], []), 4), (3, 1): (_M3, 2), (3, 2): (_M3, 4),
    (4, 0): (([-4], []), 4), (4, 1): (_M4, 2), (4, 2): (_M4, 4),
}


def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _neg(p):
    return [-a for a in p]


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


def _positive_from(p, x0):
    """p(x) > 0 for every real x >= x0: p(x0) > 0 and p(x0 + t) has no
    negative coefficient."""
    shifted = [0]
    for a in reversed(p):  # Horner's rule in t = x - x0
        shifted = _add(_mul(shifted, [x0, 1]), [a])
    return shifted[0] > 0 and min(shifted) >= 0


def _times(p, q, row):
    """d * p * q as u + v*y, with d*y^2 = x^2 + k the row's restriction."""
    d, k = ROW_POLYS[row][:2]
    (u1, v1), (u2, v2) = p, q
    return (_add(_mul([d], _mul(u1, u2)), _mul(_mul(v1, v2), [k, 0, 1])),
            _mul([d], _add(_mul(u1, v2), _mul(u2, v1))))


def _minus(p, q):
    return _add(p[0], _neg(q[0])), _add(p[1], _neg(q[1]))


def _holds_from(bound, row, x0):
    """u + v*y > 0 for every real x >= x0, with y >= 0 on the row's
    restriction: one of u and v is positive there and the other negative,
    and the positive term's square exceeds the other's."""
    (u, v), (d, k) = bound, ROW_POLYS[row][:2]
    u_sq, vy_sq = _mul([d], _mul(u, u)), _mul(_mul(v, v), [k, 0, 1])  # d*u^2, d*(vy)^2
    if _positive_from(u, x0) and _positive_from(_neg(v), x0):
        return _positive_from(_add(u_sq, _neg(vy_sq)), x0)
    if _positive_from(v, x0) and _positive_from(_neg(u), x0):
        return _positive_from(_add(vy_sq, _neg(u_sq)), x0)
    return False


def _at(p, x, y):
    u, v = p
    return sum(a * x**i for i, a in enumerate(u)) + y * sum(a * x**i for i, a in enumerate(v))


class TestFamilyRowsGiveNoTrapezoid:
    @pytest.mark.parametrize("row, i", sorted(STRIP_BOUNDS))
    def test_strip_width_bounds_hold_for_every_real_x(self, row, i):
        # j < 2c - M < j + 1, times A - f > 0, with 2c = f(P - A)/(A - f)
        _, _, a, sides = ROW_POLYS[row]
        (m_u, m_v), j = STRIP_BOUNDS[row, i]
        f, area = (sides[i], []), ([], [0, a])
        per = (_add(_add(sides[0], sides[1]), sides[2]), [])
        strip = _times(f, _minus(per, area), row)  # d * f(P - A)
        lower = _minus(strip, _times((_add(m_u, [j]), m_v), _minus(area, f), row))
        upper = _minus(_times((_add(m_u, [j + 1]), m_v), _minus(area, f), row), strip)
        assert _holds_from(lower, row, X0)
        assert _holds_from(upper, row, X0)

    @pytest.mark.parametrize("row", [1, 2, 3, 4])
    def test_strip_width_bounds_on_the_first_30_members(self, row):
        name, x_min, sides_at, _ = FAMILY_ROWS[row]
        d, k, a, sides = ROW_POLYS[row]
        members = (xy for xy in pell.iter_solutions(pell.SPECS[name]) if xy[0] >= X0)
        for x, y in islice(members, 30):
            assert x >= x_min and d * y * y == x * x + k
            t = sides_at(x)
            assert t == tuple(_at((s, []), x, y) for s in sides)
            assert heron_area(*t) == a * x * y
            for i, f in enumerate(t):
                m, j = STRIP_BOUNDS[row, i]
                assert j < 2 * strip_width_by_fractions(t, f) - _at(m, x, y) < j + 1, (t, f)

    def test_members_below_x0_give_no_integer_c(self):
        below = []
        for name, x_min, sides_at, _ in FAMILY_ROWS.values():
            for x, _ in pell.iter_solutions(pell.SPECS[name]):
                if x >= X0:
                    break
                if x >= x_min:
                    below.append(sides_at(x))
        assert sorted(below) == [(3, 25, 26), (4, 13, 15), (4, 51, 53)]
        for t in below:
            assert all(strip_width_by_fractions(t, f).denominator != 1 for f in t), t

    def test_integer_strip_widths_lie_within_the_triangle_bound(self):
        hits = [
            (t, f) for t in enumerate_perimeter_dominant(400) for f in set(t)
            if strip_width_by_fractions(t, f).denominator == 1
        ]
        assert len(hits) == 5
        assert max(sum(t) for t, _ in hits) <= TRAPEZOID_TRIANGLE_BOUND


class TestLatticeEmbedding:
    def test_right_trapezoid(self):
        assert signature(lattice_embedding(T345, 3)) == signature(
            NAMED_QUADS["right-trapezoid-6-4-3-5"]
        )

    def test_isosceles_14_5_6_5(self):
        assert signature(lattice_embedding(T558, 8)) == signature(
            NAMED_QUADS["isosceles-trapezoid-14-5-6-5"]
        )

    def test_slanted_20_4_15_3(self):
        assert signature(lattice_embedding(T345, 5)) == signature(NAMED_QUADS["trapezoid-20-4-15-3"])

    def test_all_five_embed(self):
        # the embeddings check what the pair derives: its parallel sides
        # c + f and c, its legs (the triangle's sides other than f) and its
        # perimeter
        sols = all_equable_trapezoids()
        assert len(sols) == 5
        for t, f in sols:
            emb, c = lattice_embedding(t, f), strip_width(t, f)
            assert is_equable(emb) and classify(emb).is_trapezoid
            assert perimeter(emb) == sum(t) + 2 * c
            sides_sq = sorted(dist_sq(p, q) for p, q in zip(emb, emb[1:] + emb[:1]))
            legs = list(t)
            legs.remove(f)
            assert sides_sq == sorted(s * s for s in (c + f, c, *legs))
            assert signature(emb) == signature(NAMED_QUADS[FIVE[t, f]])

    def test_diagonals_match_the_planted_triangle(self, monkeypatch):
        # the oracle plants the triangle O, A'(f, 0), C with C above, as the
        # placement did before the trapezoid diagonal formula.  The formula
        # holds for any strip width, so a stand-in gives every integer c up to
        # 40, and the legs come in both orders; the realizer must get the
        # planted diagonals as ints when both are integers, and must not be
        # asked otherwise.
        calls = []
        monkeypatch.setattr(trapezoids, "realize", lambda sides, diags: calls.append(diags))
        monkeypatch.setattr(trapezoids, "_strip_width", lambda t, f: (c, 1))
        cases = placed = 0
        for t in enumerate_perimeter_dominant(400):
            for f in set(t):
                legs = list(t)
                legs.remove(f)
                for (b, d), c in product((legs, legs[::-1]), range(1, 41)):
                    lattice_embedding((f, b, d), f)
                    diags = whole(trapezoid_diagonals_by_planting(f, b, d, c))
                    if diags is None:
                        assert calls == [], (t, f, b, c)
                    else:
                        assert calls.pop() == diags and all(type(x) is int for x in diags)
                        placed += 1
                    cases += 1
        assert (cases, placed) == (1760, 804)

    def test_realizer_matches_catalog_lookup(self):
        # the search catalog, which the realizer replaced, is the oracle: its
        # trapezoid classes up to 42 are the five, the longest having
        # perimeter 42
        sols = all_equable_trapezoids()
        assert max(sum(t) + 2 * strip_width(t, f) for t, f in sols) == 42
        catalog = get_catalog(42)
        found = {sig for sig, cls in catalog.items() if cls.classification.is_trapezoid}
        assert {signature(lattice_embedding(t, f)) for t, f in sols} == found


def _heronian_by_sides(p_max: int) -> list[tuple[int, int, int, int]]:
    """Reference oracle: (x, y, z, area) of every Heronian triangle with
    x <= y <= z and perimeter <= p_max, by a scan over the sides."""
    found = []
    for x in range(1, p_max // 3 + 1):
        for y in range(x, (p_max - x) // 2 + 1):
            for z in range(y, min(x + y, p_max - x - y + 1)):
                prod = (x + y + z) * (-x + y + z) * (x - y + z) * (x + y - z)
                root = isqrt(prod)
                if root * root == prod and root % 4 == 0:
                    found.append((x, y, z, root // 4))
    return found


def _interior_rational_by_gluing(p_max: int) -> list[tuple[tuple[int, ...], int]]:
    """Reference oracle for `interior_rational`: glue every pair of Heronian
    triangles of perimeter <= p_max on a shared side e, one on each side of
    it, whenever their areas sum to the quad's perimeter, and realize the
    quad from its coordinates over e."""
    by_side: dict[int, set[tuple[int, int, int]]] = {}
    for x, y, z, area in _heronian_by_sides(p_max):
        for a, b, e in permutations((x, y, z)):
            by_side.setdefault(e, set()).add((a, b, area))
    found = set()
    for e, halves in by_side.items():
        for a, b, area1 in halves:
            for c, d, area2 in halves:
                if area1 + area2 != a + b + c + d:
                    continue
                # P0 = (0, 0), P2 = (e, 0), P1 = (x1, -h1) and P3 = (x3, h3)
                x1 = Fraction(a * a - b * b + e * e, 2 * e)
                x3 = Fraction(d * d - c * c + e * e, 2 * e)
                h1, h3 = Fraction(2 * area1, e), Fraction(2 * area2, e)
                diag_sq = (x1 - x3) ** 2 + (h1 + h3) ** 2  # |P1P3|^2
                # realize takes ints; a lattice quad has an integer diag_sq
                diags = whole((e * e, diag_sq))
                quad = diags and realize((a * a, b * b, c * c, d * d), diags)
                if quad is not None:
                    found.add((signature(quad), e))
    return sorted(found)


class TestInteriorRational:
    def test_the_one_class(self):
        # the right trapezoid 6, 4, 3, 5: its diagonal of length 5 cuts off a
        # 3-4-5 triangle
        assert interior_rational() == [
            (signature(NAMED_QUADS["right-trapezoid-6-4-3-5"]), 5)
        ] == [((9, 16, 36, 25, 25, 52), 5)]

    def test_first_triangles_lie_within_the_bound(self):
        # every triangle with tangent lengths x at the apex and y <= z at the
        # ends of e = y + z, perimeter up to 200, integer area A, e >= 5 and
        # A <= a + b
        firsts = set()
        for x in range(1, 100):
            for y in range(1, 100 - x):
                for z in range(y, 101 - x - y):
                    s, e = x + y + z, y + z
                    area_sq = s * x * y * z
                    area = isqrt(area_sq)
                    if area * area == area_sq and e >= 5 and area <= 2 * x + e:
                        assert 2 * s <= FIRST_TRIANGLE_BOUND, (x, y, z)
                        firsts.add((tuple(sorted((x + y, x + z, e))), e))
        assert firsts == {((3, 4, 5), 5), ((5, 5, 8), 5)}

    def test_matches_gluing_oracle(self):
        assert interior_rational() == _interior_rational_by_gluing(200)

    @pytest.mark.parametrize("p_max", [200, pytest.param(1000, marks=pytest.mark.slow)])
    def test_matches_catalog_at_every_perimeter(self, p_max):
        catalog = get_catalog(p_max)
        computed = [(sig, sum(map(isqrt, sig[:4])), length) for sig, length in interior_rational()]
        for p in range(16, p_max + 1):
            found = [
                (sig, d.length)
                for sig, cls in catalog.items() if cls.perimeter <= p
                for d in cls.diagonals.interior if d.rational
            ]
            assert found == [(sig, length) for sig, per, length in computed if per <= p], p


class TestValidation:
    def test_triangle_invariants(self):
        # a triangle is its sides, checked by each function that takes it:
        # not Heronian, degenerate, unordered
        for sides in [(3, 4, 6), (1, 2, 3), (5, 4, 3)]:
            for build in PAIR_FUNCTIONS:
                with pytest.raises(ValueError):
                    build(sides, 3)
        # f equals the side 3 but is not an int
        for build in PAIR_FUNCTIONS:
            with pytest.raises(ValueError, match=r"3.0 is not a side of \(3, 4, 5\)"):
                build(T345, 3.0)

    def test_solution_invariants(self):
        with pytest.raises(ValueError):  # the strip width 15/7
            lattice_embedding(T558, 5)
        for build in PAIR_FUNCTIONS:
            with pytest.raises(ValueError):  # f = 0 leaves the height 2 * area / f undefined
                build(T345, 0)

    @pytest.mark.parametrize(
        "sides, message",
        [
            ((1, 2, 3), "(1, 2, 3) is not Heronian"),
            ((4, 3, 5), "sides must be positive and ordered x <= y <= z"),
            ((0, 3, 3), "sides must be positive and ordered x <= y <= z"),
            # the area of (2, 3, 4) is sqrt(135) / 4
            ((2, 3, 4), "(2, 3, 4) is not Heronian"),
            ((3, 4), "not enough values to unpack (expected 3, got 2)"),
            ((3.0, 4, 5), "sides must be integers"),
        ],
        ids=["degenerate", "unordered", "non-positive", "area", "pair", "float"],
    )
    def test_triangle_check_messages(self, sides, message):
        for build in PAIR_FUNCTIONS:
            with pytest.raises(ValueError) as exc:
                build(sides, sides[0])
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            # (5, 12, 13) has area = perimeter = 30, so every strip width is 0
            (
                {"t": (5, 12, 13), "f": 5},
                "strip width 0 is not a positive integer",
            ),
            # the sides would be (c + f, leg, c, leg) = (13, 10, -3, 10)
            (
                {"t": (10, 10, 16), "f": 16},
                "strip width -3 is not a positive integer",
            ),
            # the height 2 * area / f is undefined
            ({"f": 0}, "0 is not a side of (3, 4, 5)"),
            # equable only in the rationals
            ({"t": T556, "f": 5}, "strip width 10/7 is not a positive integer"),
            # the legs are the two sides other than f
            ({"f": 6}, "6 is not a side of (3, 4, 5)"),
            # (5, 5, 8) is drawn extending f = 8, and f = 5 gives no trapezoid
            ({"t": T558, "f": 5}, "strip width 15/7 is not a positive integer"),
        ],
        ids=["c", "sides", "h", "equability", "legs", "drawing"],
    )
    def test_solution_check_messages(self, changes, message):
        # a pair that gives no trapezoid has no placement
        fields = dict(t=T345, f=3)
        assert lattice_embedding(**fields) is not None  # the unchanged pair is valid
        with pytest.raises(ValueError) as exc:
            lattice_embedding(**{**fields, **changes})
        assert str(exc.value) == message
