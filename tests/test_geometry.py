import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilat import commands, kites
from equilat.errors import InvalidQuadError
from equilat.figures import NAMED_QUADS
from equilat.geometry import (
    LatticeQuad,
    canonical_signature,
    classify,
    dist_sq,
    exact_sqrt,
    interior_diagonals,
    is_cyclic,
    is_equable,
    is_simple,
    perimeter,
    realize,
    side_swap,
    signature,
    twice_area,
)
from equilat.pell import PellSolution
from equilat.search import P_MAX_MAX, get_catalog
from helpers import (
    catalog_placements,
    concyclic_by_circumcenter,
    cross,
    diagonal_midpoint,
    random_congruent_copy,
    random_quad,
    reflect_point,
    segments_cross,
    simple_by_crossings,
    strictly_inside,
)

SQUARE = LatticeQuad(((0, 0), (4, 0), (4, 4), (0, 4)))
CONCAVE_60 = LatticeQuad(((0, 0), (20, 15), (8, 10), (8, 15)))
DART_10_5 = LatticeQuad(((0, 0), (10, 0), (6, 3), (6, 8)))
TRAP_6_4_3_5 = LatticeQuad(((0, 0), (6, 0), (6, 4), (3, 4)))
TRAP_8_5_2_5 = LatticeQuad(((0, 0), (8, 0), (5, 4), (3, 4)))


@st.composite
def lattice_quads(draw):
    rng = random.Random(draw(st.integers(0, 2**48)))
    return random_quad(rng)


def test_exact_sqrt():
    assert [exact_sqrt(n) for n in (0, 1, 2, 4, 99, 100)] == [0, 1, None, 2, None, 10]
    assert exact_sqrt(-1) is None


class TestTwiceArea:
    def test_square(self):
        assert twice_area(SQUARE) == 32

    def test_concave_example(self):
        assert twice_area(CONCAVE_60) == 120

    def test_dart(self):
        assert twice_area(DART_10_5) == 60

    def test_triangle_sign_is_the_turn(self):
        assert twice_area(((0, 0), (4, 0), (1, 3))) == 12
        assert twice_area(((0, 0), (1, 3), (4, 0))) == -12
        assert twice_area(((0, 0), (2, 1), (6, 3))) == 0

    @given(lattice_quads())
    def test_splits_across_each_interior_diagonal(self, q):
        report = interior_diagonals(q)
        for diag in report.interior:
            i, j = diag.ends
            k, l = [m for m in range(4) if m not in diag.ends]
            t1 = twice_area((q[i], q[k], q[j]))
            t2 = twice_area((q[i], q[j], q[l]))
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
        q = LatticeQuad(((0, 0), (1, 0), (2, 1), (0, 1)))
        assert perimeter(q) is None
        assert signature(q) == canonical_signature((1, 2, 4, 1), (5, 2))


class TestIsEquable:
    def test_square(self):
        assert is_equable(SQUARE)

    def test_isosceles_trapezoid(self):
        assert is_equable(LatticeQuad(((0, 0), (14, 0), (10, 3), (4, 3))))

    def test_rectangle_3x5(self):
        assert not is_equable(LatticeQuad(((0, 0), (5, 0), (5, 3), (0, 3))))

    @given(lattice_quads())
    def test_equable_implies_integer_sides(self, q):
        if is_equable(q):
            assert perimeter(q) is not None


class TestIsSimple:
    def test_square(self):
        assert is_simple(SQUARE)

    def test_bowtie(self):
        assert not is_simple(((0, 0), (4, 0), (0, 4), (4, 4)))

    def test_collinear(self):
        assert not is_simple(((0, 0), (3, 0), (6, 0), (0, 4)))

    def test_three_points_rejected(self):
        with pytest.raises(ValueError, match="expected exactly four points"):
            is_simple(((0, 0), (4, 0), (0, 4)))

    def test_duplicate_vertex(self):
        square = ((0, 0), (4, 0), (4, 4), (0, 4))
        for i in range(4):
            for j in range(4):
                if i != j:  # vertex j moved onto vertex i
                    pts = tuple(square[i] if k == j else p for k, p in enumerate(square))
                    assert not is_simple(pts), pts

    def test_matches_crossing_oracle_on_every_small_quad(self):
        # P0 at the origin and P1, P2, P3 anywhere in a 5x5 box: 15,625 quads
        box = list(product(range(5), repeat=2))
        simple = 0
        for p1, p2, p3 in product(box, repeat=3):
            pts = ((0, 0), p1, p2, p3)
            expected = simple_by_crossings(pts)
            assert is_simple(pts) == expected, pts
            if expected:
                simple += 1
                assert twice_area(LatticeQuad(pts)) > 0, pts
        assert simple == 4380

    def test_quad_constructor_rejects_bowtie(self):
        with pytest.raises(InvalidQuadError):
            LatticeQuad(((0, 0), (4, 0), (0, 4), (4, 4)))

    @pytest.mark.parametrize(
        "points, message",
        [
            (((0, 0), (4, 0), (4, 4)), "a quadrilateral needs exactly four vertices"),
            (((0, 0), (4, 0), (0, 4), (4, 4)),
             "vertices ((0, 0), (4, 0), (0, 4), (4, 4)) do not bound a simple quadrilateral"),
        ],
        ids=["three-vertices", "bowtie"],
    )
    def test_quad_constructor_messages(self, points, message):
        with pytest.raises(InvalidQuadError) as exc:
            LatticeQuad(points)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "vertices",
        [((0, 0), (4, 0), (4, 4), (0, 4)), [[0, 0], [4, 0], [4, 4], [0, 4]]],
        ids=["tuples", "lists"],
    )
    def test_quad_from_plain_pairs_matches_named_drawing(self, vertices):
        q, named = LatticeQuad(vertices), NAMED_QUADS["square-4"]
        assert all(type(p) is tuple for p in q) and q == named
        for f in (signature, perimeter, is_equable, classify, interior_diagonals,
                  commands.quad_json):
            assert f(q) == f(named), f.__name__

    @pytest.mark.parametrize("x", [Fraction(4), 4.0, 4.5], ids=["fraction", "float", "half"])
    def test_quad_constructor_rejects_non_integer_coordinates(self, x):
        with pytest.raises(InvalidQuadError, match="vertex coordinates must be integers"):
            LatticeQuad(((0, 0), (x, 0), (4, 4), (0, 4)))

    @pytest.mark.parametrize(
        "vertex", [(0, 0, 0), (0,), 5, ()], ids=["triple", "single", "int", "empty"]
    )
    def test_quad_constructor_rejects_vertices_that_are_not_pairs(self, vertex):
        with pytest.raises(InvalidQuadError, match=r"each vertex must be an \(x, y\) pair"):
            LatticeQuad((vertex, (4, 0), (4, 4), (0, 4)))

    def test_quad_constructor_reverses_clockwise_input(self):
        q = LatticeQuad(((0, 0), (0, 4), (4, 4), (4, 0)))
        assert twice_area(q) == 32
        assert q[0] == (0, 0)


def _classify_by_points(v):
    """Reference oracle: classify's flags from the vertices' coordinate
    differences, written out one vertex at a time."""
    turns = [cross(v[i - 1], v[i], v[(i + 1) % 4]) for i in range(4)]
    convex = min(turns) > 0
    edges = [(v[(i + 1) % 4][0] - v[i][0], v[(i + 1) % 4][1] - v[i][1]) for i in range(4)]
    s0, s1, s2, s3 = (ex * ex + ey * ey for ex, ey in edges)
    kite = (s0 == s1 and s2 == s3) or (s1 == s2 and s3 == s0)
    par02 = edges[0][0] * edges[2][1] - edges[0][1] * edges[2][0] == 0
    par13 = edges[1][0] * edges[3][1] - edges[1][1] * edges[3][0] == 0
    trapezoid = par02 != par13
    right_at = [
        (v[i - 1][0] - v[i][0]) * (v[(i + 1) % 4][0] - v[i][0])
        + (v[i - 1][1] - v[i][1]) * (v[(i + 1) % 4][1] - v[i][1]) == 0
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
        c = classify(LatticeQuad(((0, 0), (4, -3), (4, 2), (0, 5))))
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
        assert is_cyclic(LatticeQuad(((0, 0), (3, 0), (3, 6), (0, 6))))

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
    """The test-only oracle for side_swap, helpers.reflect_point."""

    def test_non_lattice_image(self):
        image = reflect_point((3, 0), (0, 0), (3, 6))
        assert image == (Fraction(-9, 5), Fraction(12, 5))

    def test_lattice_image(self):
        assert reflect_point((5, 0), (0, 0), (8, 4)) == (3, 4)

    def test_point_on_axis_is_fixed(self):
        assert reflect_point((2, 4), (0, 0), (1, 2)) == (2, 4)

    def test_rejects_degenerate_axis(self):
        with pytest.raises(ValueError):
            reflect_point((1, 1), (2, 2), (2, 2))

    @given(lattice_quads())
    def test_involution(self, q):
        a, b, c, _ = q
        rx, ry = reflect_point(a, b, c)
        if rx.denominator == ry.denominator == 1:
            assert reflect_point((int(rx), int(ry)), b, c) == a


def _sides_sq(v):
    return sorted(dist_sq(v[k], v[(k + 1) % 4]) for k in range(4))


class TestSideSwap:
    def test_apex_on_the_bisector_of_the_cut_is_fixed(self):
        # B is as far from A as from C, so the swap on AC brings it back
        kite = NAMED_QUADS["kite-3-15"]
        assert side_swap(kite, 1) == kite

    @given(lattice_quads())
    def test_agrees_with_reflection_oracle(self, q):
        for i in range(4):
            a, b, c = q[i], q[(i + 1) % 4], q[(i + 2) % 4]
            rx, ry = reflect_point(b, a, c)
            expected = list(q)
            expected[(i + 1) % 4] = (a[0] + c[0] - rx, a[1] + c[1] - ry)
            swapped = side_swap(q, i)
            assert swapped == tuple(expected)
            assert side_swap(swapped, i) == q
            assert twice_area(swapped) == twice_area(q)
            assert _sides_sq(swapped) == _sides_sq(q)


class TestSignature:
    def test_rhombus_placements_share_signature(self):
        left = LatticeQuad(((0, 0), (5, 0), (8, 4), (3, 4)))
        right = LatticeQuad(((0, 0), (4, -3), (4, 2), (0, 5)))
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
                seen.append(tuple(
                    (w[i][0] - w[j][0]) ** 2 + (w[i][1] - w[j][1]) ** 2
                    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
                ))
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
        km = next(km for km in kites.iter_members(tag) if km.perimeter > P_MAX_MAX)
        assert (km.sol, km.perimeter) == (sol, perimeter)
        sig = signature(km.quad())
        assert signature(realize(sig[:4], sig[4:])) == sig

    def test_rhombus_off_the_lattice(self):
        # sides 5 and d1^2 + d2^2 = 4 * 25 make a real rhombus, but its area
        # sqrt(40 * 60) / 2 is irrational, so no lattice placement exists
        assert realize((25, 25, 25, 25), (40, 60)) is None

    def test_whole_and_broken_rational_diagonals(self):
        # the right trapezoid 6, 4, 3, 5 has squared diagonals 52 and 25;
        # realize takes ints only, so a Fraction is rejected, whole or not
        assert realize((36, 16, 9, 25), (52, 25)) is not None
        for diag in (Fraction(52), Fraction(105, 2)):
            with pytest.raises(ValueError, match="must be four and two nonnegative ints"):
                realize((36, 16, 9, 25), (diag, 25))

    @pytest.mark.parametrize(
        "sides_sq, diag_sq",
        [
            ((36, 16, 9, 25), (52.0, 25)), ((36, 16, 9, 25), ("52", 25)),
            ((36.0, 16, 9, 25), (52, 25)), ((36, 16, 9, "25"), (52, 25)),
        ],
        ids=["float-diagonal", "str-diagonal", "float-side", "str-side"],
    )
    def test_rejects_sides_and_diagonals_that_are_not_exact(self, sides_sq, diag_sq):
        with pytest.raises(ValueError, match="must be four and two nonnegative ints"):
            realize(sides_sq, diag_sq)

    @pytest.mark.parametrize("slot", range(6), ids=["s0", "s1", "s2", "s3", "d0", "d1"])
    def test_rejects_a_negative_entry_in_every_slot(self, slot):
        # s0, s3 and d0 once reached isqrt's own error, and s1, s2 and d1
        # answered None
        entries = [36, 16, 9, 25, 52, 25]
        entries[slot] = -entries[slot]
        with pytest.raises(ValueError) as exc:
            realize(entries[:4], entries[4:])
        assert str(exc.value) == (
            f"sides {entries[:4]} and diagonals {entries[4:]} must be four and two nonnegative ints"
        )

    @pytest.mark.parametrize(
        "sides_sq, diag_sq",
        [((36, 16, 9), (52, 25)), ((36, 16, 9, 25, 1), (52, 25)),
         ((36, 16, 9, 25), (52,)), ((36, 16, 9, 25), (52, 25, 1))],
        ids=["three-sides", "five-sides", "one-diagonal", "three-diagonals"],
    )
    def test_rejects_a_wrong_number_of_entries(self, sides_sq, diag_sq):
        with pytest.raises(ValueError, match="must be four and two nonnegative ints"):
            realize(sides_sq, diag_sq)


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
