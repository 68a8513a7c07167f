from fractions import Fraction
from itertools import islice

import pytest

from equilat import pell
from equilat.errors import InconsistencyError, InvalidQuadError
from equilat.figures import NAMED_QUADS
from equilat.geometry import (
    LatticeQuad,
    classify,
    dist_sq,
    is_equable,
    side_swap,
    signature,
    twice_area,
)
from equilat.kites import (
    FAMILIES,
    audit_member,
    generate,
    iter_members,
    members_within_perimeter,
)
from equilat.pell import SPECS, PellSolution, iter_solutions
from equilat.search import get_catalog
from helpers import lattice_points, reflect_point


def member(tag: str, sol: PellSolution):
    """The member of family `tag` at `sol`: the stream's first with n >= sol.n."""
    km = next(km for km in iter_members(tag) if km.sol.n >= sol.n)
    assert km.sol == sol
    return km


class TestMember:
    def test_k1_n3(self):
        km = member("K1", PellSolution(3, 1))
        assert (km.A, km.B, km.C) == ((10, 0), (6, 3), (6, 8))
        assert (km.K_A, km.a, km.b, dist_sq(km.A, km.C)) == (15, 10, 5, 80)

    def test_k2_n9(self):
        km = member("K2", PellSolution(9, 4))
        assert (km.A, km.B) == ((77, 36), (72, 36))

    def test_k4_first(self):
        km = member("K4", PellSolution(1, 1))
        assert (km.A, km.B, km.C) == ((12, 9), (12, 12), (9, 12))
        # lattice vertices, half-integral midpoint of AC
        assert (km.A[0] + km.C[0], km.A[1] + km.C[1]) == (21, 21)

    def test_rejects_non_solution(self):
        # the stream holds no other parameter: each member's (n, i) solves
        # its family's equation, with n > 0 and i >= 0
        for tag in FAMILIES:
            for km in generate(tag, 20):
                assert SPECS[tag].satisfies(*km.sol) and km.sol.n > 0 and km.sol.i >= 0

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_sol_is_the_pell_stream(self, tag):
        first = FAMILIES[tag].first
        stream = list(islice(iter_solutions(SPECS[tag]), first, first + 30))
        assert [km.sol for km in generate(tag, 30)] == stream

    def test_wrong_recurrence_is_caught(self, monkeypatch):
        # rec = 7 takes K3's stream from (3, 2) to (20, 14), off n^2 - 2i^2 = 1;
        # the members' (n, i) come from the checked stream, so it raises
        monkeypatch.setitem(pell.SPECS, "K3", pell.SPECS["K3"]._replace(rec=7))
        with pytest.raises(InconsistencyError, match="fails the equation"):
            generate("K3", 3)

    def test_wrong_vieta_pair_is_caught(self, monkeypatch):
        # a and b are the roots of X^2 - kmn*X + k(m^2 + n^2); with K3's m = 2
        # the discriminant at n = 1 is 16^2 - 4*8*5 = 96, not a square
        monkeypatch.setitem(FAMILIES, "K3", FAMILIES["K3"]._replace(m=2))
        with pytest.raises(InconsistencyError, match=r"K3\(1, 0\): side lengths are not integers"):
            generate("K3", 1)

    @pytest.mark.parametrize("call", [
        lambda: next(iter_members("K5")),
        lambda: generate("K5", 1),
        lambda: members_within_perimeter("K5", 42),
    ], ids=["iter_members", "generate", "members_within_perimeter"])
    def test_unknown_family(self, call):
        with pytest.raises(ValueError, match="family must be one of K1, K2, K3, K4, got 'K5'"):
            call()


# the kite drawings, each a family member: (name, family, n, i)
DRAWN_MEMBERS = [
    ("rhombus-5-alt", "K1", 2, 0),
    ("dart-10-5", "K1", 3, 1),
    ("kite-k1-n7", "K1", 7, 3),
    ("kite-k1-n18", "K1", 18, 8),
    ("kite-3-15", "K4", 1, 1),
]


@pytest.mark.parametrize("name, tag, n, i", DRAWN_MEMBERS, ids=[d[0] for d in DRAWN_MEMBERS])
def test_drawing_is_a_family_member(name, tag, n, i):
    assert NAMED_QUADS[name] == member(tag, PellSolution(n, i)).quad()


@pytest.mark.parametrize("tag, q_sq", [("K1", 80), ("K2", 20), ("K3", 32), ("K4", 18)])
def test_q_sq_is_exact(tag, q_sq):
    fam = FAMILIES[tag]
    assert fam.q_sq == q_sq
    assert q_sq * (fam.k * fam.m**2 - 4) == 16 * fam.k * fam.m**2


class TestGenerate:
    def test_k1_b_column(self):
        assert [km.B for km in generate("K1", 4)] == [
            (4, 2), (6, 3), (14, 7), (36, 18),
        ]

    def test_k3_b_column(self):
        assert [km.B for km in generate("K3", 3)] == [
            (4, 4), (12, 12), (68, 68),
        ]

    def test_k2_skips_n1(self):
        assert generate("K2", 1)[0].sol == PellSolution(9, 4)

    @pytest.mark.parametrize("count", [3.0, "3"], ids=["float", "str"])
    def test_rejects_a_count_that_is_not_an_int(self, count):
        with pytest.raises(ValueError, match="^count must be an integer$"):
            generate("K1", count)

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
            got = [(km.sol.n, km.sol.i, km.A, km.B) for km in members]
            assert got == rows, tag


class TestAudit:
    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_first_ten_members_pass(self, tag):
        for km in generate(tag, 30):
            failed_check = audit_member(km)
            assert failed_check is None, (tag, km.sol, failed_check)

    def test_known_quantities(self):
        km1 = member("K1", PellSolution(3, 1))
        assert (km1.K_A, km1.a, km1.b) == (15, 10, 5)
        km3 = member("K3", PellSolution(1, 0))
        assert (km3.a, km3.b, dist_sq(km3.A, km3.C)) == (4, 4, 32)
        km4 = member("K4", PellSolution(1, 1))
        assert (km4.K_A, km4.a, km4.b, dist_sq(km4.A, km4.C)) == (18, 15, 3, 18)

    def test_detects_corrupted_member(self):
        km = member("K1", PellSolution(3, 1))
        assert audit_member(km._replace(a=km.a + 5)) == "a"

    def test_coincident_vertices_fail_simple(self):
        km = member("K1", PellSolution(3, 1))
        assert audit_member(km._replace(C=km.A)) == "simple"

    def test_rhombus_with_the_other_bisector_point_fails_equable(self):
        # K1's rhombus has a = b, so kite also allows C on OB's perpendicular
        # bisector beyond A; |AC|^2 = 80 holds there, but |OC|^2 = 185
        km = member("K1", PellSolution(2, 0))
        assert dist_sq(km.A, (8, -11)) == 80 and dist_sq((0, 0), (8, -11)) == 185
        assert audit_member(km._replace(C=(8, -11))) == "equable"

    def test_rejects_negative_lengths(self):
        # the K1 closed forms at the signed solution (-3, 1): A and C of the
        # rhombus (2, 0), B = (-6, -3), a = -5, b = -10 and K_A = -15, whose
        # squared lengths and signed area all hold
        km = member("K1", PellSolution(2, 0))._replace(
            sol=PellSolution(-3, 1), A=(4, -3), B=(-6, -3), C=(0, 5),
            K_A=-15, a=-5, b=-10,
        )
        assert audit_member(km) == "a"

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_reflection_and_equability(self, tag):
        o = (0, 0)
        for km in generate(tag, 10):
            assert reflect_point(km.A, o, km.B) == km.C
            q = km.quad()
            assert is_equable(q)
            assert classify(q).is_kite
            assert twice_area(q) == 4 * km.K_A  # kite = two equal halves


class TestConvexity:
    def test_rhombus_convex(self):
        assert classify(member("K1", PellSolution(2, 0)).quad()).convex

    def test_kite_3_15_convex(self):
        assert classify(member("K4", PellSolution(1, 1)).quad()).convex

    def test_k1_n3_dart(self):
        assert classify(member("K1", PellSolution(3, 1)).quad()).is_dart

    def test_census_first_ten(self):
        convex = [
            (tag, km.sol)
            for tag in FAMILIES
            for km in generate(tag, 10)
            if classify(km.quad()).convex
        ]
        assert convex == [
            ("K1", PellSolution(2, 0)),
            ("K3", PellSolution(1, 0)),
            ("K4", PellSolution(1, 1)),
        ]

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_agrees_with_classify(self, tag):
        # a kite symmetric about OB is convex exactly when the midpoint of AC
        # falls strictly between O and B along OB
        for km in generate(tag, 8):
            (ax, ay), (bx, by), (cx, cy) = km.A, km.B, km.C
            along = (ax + cx) * bx + (ay + cy) * by
            midpoint_between = 0 < along < 2 * (bx * bx + by * by)
            assert midpoint_between == classify(km.quad()).convex


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

    @pytest.mark.parametrize("p_max", [100.0, 42.5, "42"], ids=["float", "half", "str"])
    def test_rejects_a_bound_that_is_not_an_int(self, p_max):
        # as the search and trapezoid bounds do
        with pytest.raises(ValueError, match="^p_max must be an integer$"):
            members_within_perimeter("K1", p_max)


class TestKiteFromParallelogram:
    """The paper's construction run backwards: the parallelogram O, A, B, C'
    swapped on its diagonal OB moves C' to A's mirror image in OB, which
    closes the kite O, A, B, C when it is a lattice point."""

    def test_rectangle_3x6_fails(self):
        swapped = side_swap(((0, 0), (3, 0), (3, 6), (0, 6)), 2)
        assert swapped[3] == (Fraction(-9, 5), Fraction(12, 5))
        assert lattice_points(swapped) is None

    def test_rhombus_case(self):
        rhombus = ((0, 0), (5, 0), (8, 4), (3, 4))
        assert side_swap(rhombus, 2) == rhombus

    def test_square_case(self):
        square = ((0, 0), (4, 0), (4, 4), (0, 4))
        assert side_swap(square, 2) == square

    def test_degenerate_axis_rejected(self):
        with pytest.raises(ValueError, match="the ends of the cut coincide"):
            side_swap(((1, 1), (3, 0), (1, 1), (0, 3)), 2)

    def test_collinear_closure_gives_no_quad(self):
        # the image is a lattice point, but A, B, C line up: no quadrilateral
        closed = lattice_points(side_swap(((0, 0), (1, 1), (1, 0), (0, -1)), 2))
        assert closed == ((0, 0), (1, 1), (1, 0), (1, -1))
        with pytest.raises(InvalidQuadError, match="do not bound a simple quadrilateral"):
            LatticeQuad(closed)

    @pytest.mark.parametrize("tag", list(FAMILIES))
    def test_first_ten_members_swap_to_parallelograms(self, tag):
        for km in generate(tag, 10):
            swapped = lattice_points(side_swap(((0, 0), km.A, km.B, km.C), 0))
            assert swapped is not None, km.sol
            assert classify(LatticeQuad(swapped)).is_parallelogram, km.sol

    @pytest.mark.parametrize(
        "p_max, count", [(200, 9), pytest.param(1000, 11, marks=pytest.mark.slow)]
    )
    def test_catalog_kites_swap_to_catalog_parallelograms(self, p_max, count):
        catalog = get_catalog(p_max)
        kites = [cls.representative for cls in catalog.values() if cls.classification.is_kite]
        for q in kites:
            # the symmetry diagonal runs through the vertex between two equal sides
            i = 1 if dist_sq(q[0], q[1]) == dist_sq(q[1], q[2]) else 0
            swapped = lattice_points(side_swap(q, i))
            assert swapped is not None, q
            par = LatticeQuad(swapped)
            assert classify(par).is_parallelogram and signature(par) in catalog, q
        assert len(kites) == count
