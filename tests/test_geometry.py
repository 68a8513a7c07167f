import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilat import kites
from equilat.errors import InvalidQuadError
from equilat.geometry import (
    LatticeQuad,
    Point,
    canonical_signature,
    classify,
    interior_diagonals,
    is_cyclic,
    is_equable,
    is_simple,
    orient,
    perimeter,
    quad,
    realize,
    reflect_point,
    signature,
    twice_area,
)
from equilat.pell import PellSolution
from equilat.search import P_MAX_MAX, get_catalog
from helpers import (
    catalog_placements,
    concyclic_by_circumcenter,
    diagonal_midpoint,
    random_congruent_copy,
    random_quad,
    segments_cross,
    strictly_inside,
)

SQUARE = quad((0, 0), (4, 0), (4, 4), (0, 4))
CONCAVE_60 = quad((0, 0), (20, 15), (8, 10), (8, 15))
DART_10_5 = quad((0, 0), (10, 0), (6, 3), (6, 8))
TRAP_6_4_3_5 = quad((0, 0), (6, 0), (6, 4), (3, 4))
TRAP_8_5_2_5 = quad((0, 0), (8, 0), (5, 4), (3, 4))


@st.composite
def lattice_quads(draw):
    rng = random.Random(draw(st.integers(0, 2**48)))
    return random_quad(rng)


class TestTwiceArea:
    def test_square(self):
        assert twice_area(SQUARE) == 32

    def test_concave_example(self):
        assert twice_area(CONCAVE_60) == 120

    def test_dart(self):
        assert twice_area(DART_10_5) == 60

    @given(lattice_quads())
    def test_splits_across_each_interior_diagonal(self, q):
        report = interior_diagonals(q)
        for diag in report.interior:
            i, j = diag.ends
            k, l = [m for m in range(4) if m not in diag.ends]
            t1 = orient(q[i], q[k], q[j])
            t2 = orient(q[i], q[j], q[l])
            # both halves positively oriented, areas add up exactly
            assert abs(t1) + abs(t2) == twice_area(q)


class TestSideData:
    """Squared sides and diagonals, read through perimeter and signature."""

    def test_square(self):
        assert perimeter(SQUARE) == 16
        assert signature(SQUARE) == (16, 16, 16, 16, 32, 32)

    def test_right_trapezoid(self):
        assert perimeter(TRAP_6_4_3_5) == 6 + 4 + 3 + 5
        # sides 6, 4, 3, 5 from v0, diagonals |v0v2|^2 = 52 and |v1v3|^2 = 25
        assert canonical_signature((36, 16, 9, 25), (52, 25)) == signature(TRAP_6_4_3_5)

    def test_irrational_side(self):
        q = quad((0, 0), (1, 0), (2, 1), (0, 1))
        assert perimeter(q) is None
        assert signature(q) == canonical_signature((1, 2, 4, 1), (5, 2))


class TestIsEquable:
    def test_square(self):
        assert is_equable(SQUARE)

    def test_isosceles_trapezoid(self):
        assert is_equable(quad((0, 0), (14, 0), (10, 3), (4, 3)))

    def test_rectangle_3x5(self):
        assert not is_equable(quad((0, 0), (5, 0), (5, 3), (0, 3)))

    @given(lattice_quads())
    def test_equable_implies_integer_sides(self, q):
        if is_equable(q):
            assert perimeter(q) is not None


class TestIsSimple:
    def test_square(self):
        assert is_simple(SQUARE)

    def test_bowtie(self):
        assert not is_simple((Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4)))

    def test_collinear(self):
        assert not is_simple((Point(0, 0), Point(3, 0), Point(6, 0), Point(0, 4)))

    def test_duplicate_vertex(self):
        square = (Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4))
        for i in range(4):
            for j in range(4):
                if i != j:  # vertex j moved onto vertex i
                    pts = tuple(square[i] if k == j else p for k, p in enumerate(square))
                    assert not is_simple(pts), pts

    def test_quad_constructor_rejects_bowtie(self):
        with pytest.raises(InvalidQuadError):
            quad((0, 0), (4, 0), (0, 4), (4, 4))

    @pytest.mark.parametrize(
        "points, message",
        [
            (((0, 0), (4, 0), (4, 4)), "a quadrilateral needs exactly four vertices"),
            (((0, 0), (4, 0), (0, 4), (4, 4)),
             "vertices (Point(x=0, y=0), Point(x=4, y=0), Point(x=0, y=4), Point(x=4, y=4))"
             " do not bound a simple quadrilateral"),
        ],
        ids=["three-vertices", "bowtie"],
    )
    def test_quad_constructor_messages(self, points, message):
        with pytest.raises(InvalidQuadError) as exc:
            LatticeQuad(tuple(Point(*p) for p in points))
        assert str(exc.value) == message

    def test_quad_constructor_reverses_clockwise_input(self):
        q = quad((0, 0), (0, 4), (4, 4), (4, 0))
        assert twice_area(q) == 32
        assert q[0] == Point(0, 0)


def _classify_by_points(v):
    """Reference oracle: classify's flags from the vertices' coordinate
    differences, written out one vertex at a time."""
    turns = [orient(v[i - 1], v[i], v[(i + 1) % 4]) for i in range(4)]
    convex = min(turns) > 0
    s0, s1, s2, s3 = (v[i].dist_sq(v[(i + 1) % 4]) for i in range(4))
    kite = (s0 == s1 and s2 == s3) or (s1 == s2 and s3 == s0)
    edges = [(v[(i + 1) % 4].x - v[i].x, v[(i + 1) % 4].y - v[i].y) for i in range(4)]
    par02 = edges[0][0] * edges[2][1] - edges[0][1] * edges[2][0] == 0
    par13 = edges[1][0] * edges[3][1] - edges[1][1] * edges[3][0] == 0
    trapezoid = par02 != par13
    right_at = [
        (v[i - 1].x - v[i].x) * (v[(i + 1) % 4].x - v[i].x)
        + (v[i - 1].y - v[i].y) * (v[(i + 1) % 4].y - v[i].y) == 0
        for i in range(4)
    ]
    return (
        convex,
        None if convex else turns.index(min(turns)),
        kite,
        kite and not convex,
        par02 and par13,
        trapezoid,
        trapezoid and ((par02 and s1 == s3) or (par13 and s0 == s2)),
        trapezoid and any(right_at[i] and right_at[(i + 1) % 4] for i in range(4)),
        is_cyclic(v),
    )


class TestClassify:
    @given(lattice_quads())
    def test_matches_point_arithmetic(self, q):
        assert tuple(classify(q)) == _classify_by_points(q)

    def test_matches_point_arithmetic_on_catalog(self):
        # every placement of every class, so each shape flag is set somewhere
        embeds = [e for placements in catalog_placements(42).values() for e in placements]
        flags = [tuple(classify(e)) for e in embeds]
        assert flags == [_classify_by_points(e) for e in embeds]
        assert all(any(f[i] for f in flags) for i in range(9) if i != 1)

    def test_rhombus(self):
        c = classify(quad((0, 0), (4, -3), (4, 2), (0, 5)))
        assert c.convex and c.is_kite and c.is_parallelogram
        assert not c.is_trapezoid and not c.is_dart

    def test_dart(self):
        c = classify(DART_10_5)
        assert c.is_kite and c.is_dart and not c.convex
        assert c.reflex_index == 2

    def test_isosceles_trapezoid(self):
        c = classify(TRAP_8_5_2_5)
        assert c.is_trapezoid and c.is_isosceles_trapezoid
        assert not c.is_right_trapezoid and not c.is_parallelogram

    def test_right_trapezoid(self):
        c = classify(TRAP_6_4_3_5)
        assert c.is_trapezoid and c.is_right_trapezoid
        assert not c.is_isosceles_trapezoid

    @given(lattice_quads())
    def test_flag_consistency(self, q):
        c = classify(q)
        assert c.is_dart == (c.is_kite and not c.convex)
        assert not (c.is_parallelogram and c.is_trapezoid)
        if c.is_isosceles_trapezoid or c.is_right_trapezoid:
            assert c.is_trapezoid
        assert (c.reflex_index is None) == c.convex


class TestIsCyclic:
    def test_rectangle(self):
        assert is_cyclic(quad((0, 0), (3, 0), (3, 6), (0, 6)))

    def test_isosceles_trapezoid(self):
        assert is_cyclic(TRAP_8_5_2_5)

    def test_right_trapezoid_is_not(self):
        assert not is_cyclic(TRAP_6_4_3_5)

    def test_agrees_with_circumcenter_oracle(self):
        rng = random.Random(20260808)
        for _ in range(500):
            q = random_quad(rng)
            assert is_cyclic(q) == concyclic_by_circumcenter(q)


class TestReflectPoint:
    def test_non_lattice_image(self):
        image = reflect_point(Point(3, 0), Point(0, 0), Point(3, 6))
        assert image == (Fraction(-9, 5), Fraction(12, 5))

    def test_lattice_image(self):
        assert reflect_point(Point(5, 0), Point(0, 0), Point(8, 4)) == Point(3, 4)

    def test_point_on_axis_is_fixed(self):
        assert reflect_point(Point(2, 4), Point(0, 0), Point(1, 2)) == Point(2, 4)

    def test_rejects_degenerate_axis(self):
        with pytest.raises(ValueError):
            reflect_point(Point(1, 1), Point(2, 2), Point(2, 2))

    @given(lattice_quads())
    def test_involution(self, q):
        a, b, c, _ = q
        rx, ry = reflect_point(a, b, c)
        if rx.denominator == ry.denominator == 1:
            assert reflect_point(Point(int(rx), int(ry)), b, c) == a


class TestSignature:
    def test_rhombus_placements_share_signature(self):
        left = quad((0, 0), (5, 0), (8, 4), (3, 4))
        right = quad((0, 0), (4, -3), (4, 2), (0, 5))
        assert signature(left) == signature(right)

    def test_square(self):
        assert signature(SQUARE) == (16, 16, 16, 16, 32, 32)

    def test_trapezoid_prefix(self):
        sig = signature(TRAP_6_4_3_5)
        assert sig[:2] == (9, 16)
        assert sig == (9, 16, 36, 25, 25, 52)

    def test_canonical_signature_is_dihedral_min(self):
        # oracle: measure every dihedral vertex relabeling directly
        v = TRAP_6_4_3_5
        seen = []
        for base in (v, (v[0], v[3], v[2], v[1])):
            for r in range(4):
                w = base[r:] + base[:r]
                seen.append(
                    tuple(w[i].dist_sq(w[(i + 1) % 4]) for i in range(4))
                    + (w[0].dist_sq(w[2]), w[1].dist_sq(w[3]))
                )
        assert signature(TRAP_6_4_3_5) == min(seen)

    def test_invariance_seeded_sample(self):
        rng = random.Random(99)
        for _ in range(200):
            q = random_quad(rng)
            assert signature(random_congruent_copy(rng, q)) == signature(q)

    @settings(max_examples=150)
    @given(lattice_quads(), st.integers(0, 2**32))
    def test_invariance_property(self, q, seed):
        rng = random.Random(seed)
        assert signature(random_congruent_copy(rng, q)) == signature(q)


class TestRealize:
    def test_every_catalog_class_up_to_100(self):
        # the search catalog is the oracle: each class realizes as itself
        for sig in get_catalog(100):
            assert signature(realize(sig[:4], sig[4:])) == sig

    @pytest.mark.parametrize(
        "tag, sol, perimeter",
        [("K1", PellSolution(123, 55), 1230), ("K3", PellSolution(99, 70), 1584)],
    )
    def test_kites_beyond_the_search_cap(self, tag, sol, perimeter):
        km = kites.member(tag, sol)
        assert km.perimeter == perimeter > P_MAX_MAX
        sig = signature(km.quad())
        assert signature(realize(sig[:4], sig[4:])) == sig

    def test_rhombus_off_the_lattice(self):
        # sides 5 and d1^2 + d2^2 = 4 * 25 make a real rhombus, but its area
        # sqrt(40 * 60) / 2 is irrational, so no lattice placement exists
        assert realize((25, 25, 25, 25), (40, 60)) is None


class TestInteriorDiagonals:
    def test_concave_example(self):
        report = interior_diagonals(CONCAVE_60)
        assert len(report.interior) == 1 and len(report.exterior) == 1
        (inner,) = report.interior
        (outer,) = report.exterior
        assert inner.ends == (0, 2) and inner.sq == 164 and not inner.rational
        assert outer.ends == (1, 3) and outer.sq == 144 and outer.rational
        assert outer.length == 12

    def test_right_trapezoid_rational_diagonal(self):
        report = interior_diagonals(TRAP_6_4_3_5)
        assert len(report.interior) == 2 and not report.exterior
        assert sorted(d.sq for d in report.interior) == [25, 52]
        rational = [d for d in report.interior if d.rational]
        assert len(rational) == 1 and rational[0].length == 5

    def test_square_both_irrational(self):
        report = interior_diagonals(SQUARE)
        assert [d.sq for d in report.interior] == [32, 32]
        assert all(not d.rational for d in report.interior)

    @given(lattice_quads())
    def test_geometric_meaning(self, q):
        report = interior_diagonals(q)
        if not report.exterior:
            # convex: the diagonals properly cross inside
            assert segments_cross(q[0], q[2], q[1], q[3])
        else:
            (inner,) = report.interior
            (outer,) = report.exterior
            assert strictly_inside(q, *diagonal_midpoint(q, *inner.ends))
            assert not strictly_inside(q, *diagonal_midpoint(q, *outer.ends))
