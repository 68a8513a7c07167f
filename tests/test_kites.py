from fractions import Fraction

import pytest

from equilat.geometry import (
    Point,
    classify,
    is_equable,
    quad,
    reflect_point,
    signature,
    twice_area,
)
from equilat.kites import (
    FAMILIES,
    AuditOutcome,
    Convexity,
    FamilyExclusionError,
    KiteMember,
    audit_member,
    convexity,
    generate,
    kite_from_parallelogram,
    member,
    members_within_perimeter,
)
from equilat.pell import PellSolution


class TestMember:
    def test_k1_n3(self):
        km = member("K1", PellSolution(3, 1))
        assert km.M == (8, 4)
        assert (km.A, km.B, km.C) == (Point(10, 0), Point(6, 3), Point(6, 8))
        assert (km.K_A, km.a, km.b, km.A.dist_sq(km.C)) == (15, 10, 5, 80)

    def test_k2_n9(self):
        km = member("K2", PellSolution(9, 4))
        assert (km.A, km.B) == (Point(77, 36), Point(72, 36))

    def test_k4_first(self):
        km = member("K4", PellSolution(1, 1))
        assert (km.A, km.B, km.C) == (Point(12, 9), Point(12, 12), Point(9, 12))
        assert km.M == (Fraction(21, 2), Fraction(21, 2))  # lattice vertices, half-integral M

    def test_k2_exclusion(self):
        with pytest.raises(FamilyExclusionError):
            member("K2", PellSolution(1, 0))

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            member("K1", PellSolution(4, 1))


class TestGenerate:
    def test_k1_b_column(self):
        assert [km.B for km in generate("K1", 4)] == [
            Point(4, 2), Point(6, 3), Point(14, 7), Point(36, 18),
        ]

    def test_k3_b_column(self):
        assert [km.B for km in generate("K3", 3)] == [
            Point(4, 4), Point(12, 12), Point(68, 68),
        ]

    def test_k2_skips_n1(self):
        assert generate("K2", 1)[0].sol == PellSolution(9, 4)

    def test_section3_tables(self):
        expect = {
            "K1": [(2, 0, (4, -3), (4, 2)), (3, 1, (10, 0), (6, 3)),
                   (7, 3, (24, 7), (14, 7)), (18, 8, (60, 25), (36, 18))],
            "K2": [(9, 4, (77, 36), (72, 36)), (161, 72, (1365, 680), (1288, 644)),
                   (2889, 1292, (24477, 12236), (23112, 11556))],
            "K3": [(1, 0, (4, 0), (4, 4)), (3, 2, (16, 12), (12, 12)),
                   (17, 12, (84, 80), (68, 68))],
            "K4": [(1, 1, (12, 9), (12, 12)), (5, 7, (63, 60), (60, 60)),
                   (29, 41, (360, 357), (348, 348))],
        }
        for tag, rows in expect.items():
            members = generate(tag, len(rows))
            got = [(km.sol.n, km.sol.i, (km.A.x, km.A.y), (km.B.x, km.B.y)) for km in members]
            assert got == rows, tag


class TestAudit:
    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_first_ten_members_pass(self, tag):
        for km in generate(tag, 10):
            outcome = audit_member(km)
            assert outcome.passed, (tag, km.sol, outcome)

    def test_known_quantities(self):
        km1 = member("K1", PellSolution(3, 1))
        assert (km1.K_A, km1.a, km1.b) == (15, 10, 5)
        km3 = member("K3", PellSolution(1, 0))
        assert (km3.a, km3.b, km3.A.dist_sq(km3.C)) == (4, 4, 32)
        km4 = member("K4", PellSolution(1, 1))
        assert (km4.K_A, km4.a, km4.b, km4.A.dist_sq(km4.C)) == (18, 15, 3, 18)

    def test_detects_corrupted_member(self):
        km = member("K1", PellSolution(3, 1))
        bad = KiteMember(
            family=km.family, sol=km.sol, M=km.M, A=km.A, B=km.B, C=km.C,
            K_A=km.K_A, a=km.a + 5, b=km.b,
        )
        outcome = audit_member(bad)
        assert not outcome.passed and outcome.failed_check == "a"

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_reflection_and_equability(self, tag):
        o = Point(0, 0)
        for km in generate(tag, 10):
            assert reflect_point(km.A, o, km.B) == km.C
            q = km.quad()
            assert is_equable(q)
            assert classify(q).is_kite
            assert twice_area(q) == 4 * km.K_A  # kite = two equal halves


class TestConvexity:
    def test_rhombus_convex(self):
        assert convexity(member("K1", PellSolution(2, 0))) is Convexity.CONVEX

    def test_kite_3_15_convex(self):
        assert convexity(member("K4", PellSolution(1, 1))) is Convexity.CONVEX

    def test_k1_n3_dart(self):
        assert convexity(member("K1", PellSolution(3, 1))) is Convexity.DART

    def test_census_first_ten(self):
        convex = [
            (tag, km.sol)
            for tag in FAMILIES
            for km in generate(tag, 10)
            if convexity(km) is Convexity.CONVEX
        ]
        assert convex == [
            ("K1", PellSolution(2, 0)),
            ("K3", PellSolution(1, 0)),
            ("K4", PellSolution(1, 1)),
        ]

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_agrees_with_classify(self, tag):
        for km in generate(tag, 8):
            assert (convexity(km) is Convexity.CONVEX) == classify(km.quad()).convex


class TestNonRedundancy:
    def test_signatures_pairwise_distinct(self):
        sigs = [
            signature(km.quad())
            for tag in FAMILIES
            for km in generate(tag, 10)
        ]
        assert len(set(sigs)) == len(sigs)


class TestMembersWithinPerimeter:
    def test_p_max_42(self):
        found = {
            (tag, km.sol.n)
            for tag in FAMILIES
            for km in members_within_perimeter(tag, 42)
        }
        assert found == {("K1", 2), ("K1", 3), ("K3", 1), ("K4", 1)}


class TestKiteFromParallelogram:
    def test_rectangle_3x6_fails(self):
        assert kite_from_parallelogram(Point(3, 0), Point(3, 6)) is None

    def test_rhombus_case(self):
        q = kite_from_parallelogram(Point(5, 0), Point(8, 4))
        assert q is not None
        assert set(q) == {Point(0, 0), Point(5, 0), Point(8, 4), Point(3, 4)}

    def test_square_case(self):
        q = kite_from_parallelogram(Point(4, 0), Point(4, 4))
        assert q is not None
        assert set(q) == {Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)}

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError):
            kite_from_parallelogram(Point(2, 2), Point(4, 4))

    def test_collinear_closure_gives_no_quad(self):
        # reflection is a lattice point, but A, B, C line up: no quadrilateral
        assert kite_from_parallelogram(Point(1, 1), Point(1, 0)) is None
