from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

from equilat import figures
from equilat.errors import InconsistencyError
from equilat.geometry import Point, quad, signature
from equilat.pell import PellSolution
from equilat.search import get_catalog
from equilat.trapezoids import (
    DegenerateTrapezoidError,
    HeronianTriangle,
    TrapezoidSolution,
    all_equable_trapezoids,
    enumerate_perimeter_dominant,
    family_member,
    family_members_within,
    heron_area,
    lattice_embedding,
    shorter_parallel_side,
    trapezoid_from,
)


def _scan_perimeter_dominant(p_max: int) -> list[HeronianTriangle]:
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
                    found.append(HeronianTriangle((x, y, z), p, area))
    found.sort(key=lambda t: (t.perimeter, t.sides))
    return found


@pytest.fixture(scope="session")
def scan_400():
    # the oracle takes a few tenths of a second at 400, so run it once
    return tuple(_scan_perimeter_dominant(400))


T345 = HeronianTriangle.from_sides(3, 4, 5)
T556 = HeronianTriangle.from_sides(5, 5, 6)
T558 = HeronianTriangle.from_sides(5, 5, 8)


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
        assert [t.sides for t in enumerate_perimeter_dominant(20)] == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8),
        ]

    def test_up_to_60(self):
        assert [t.sides for t in enumerate_perimeter_dominant(60)] == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8), (4, 13, 15), (3, 25, 26),
        ]

    def test_up_to_400(self):
        got = [t.sides for t in enumerate_perimeter_dominant(400)]
        assert got == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8),
            (4, 13, 15), (3, 25, 26), (4, 51, 53), (3, 148, 149), (4, 193, 195),
        ]

    def test_matches_scan_oracle_at_every_bound(self, scan_400):
        for p_max in range(12, 401):
            expected = [t for t in scan_400 if t.perimeter <= p_max]
            assert enumerate_perimeter_dominant(p_max) == expected, p_max

    @pytest.mark.parametrize("p_max", [12, 17, 18, 60])
    def test_matches_direct_scan(self, p_max):
        assert enumerate_perimeter_dominant(p_max) == _scan_perimeter_dominant(p_max)

    @pytest.mark.parametrize("p_max", [11, 0, -5])
    def test_bound_below_12_rejected(self, p_max):
        with pytest.raises(ValueError):
            enumerate_perimeter_dominant(p_max)

    def test_delta_positive(self):
        assert all(t.delta > 0 for t in enumerate_perimeter_dominant(100))

    def test_table_values(self):
        assert (T345.perimeter, T345.area, T345.delta) == (12, 6, 6)
        assert (T556.perimeter, T556.area, T556.delta) == (16, 12, 4)
        assert (T558.perimeter, T558.area, T558.delta) == (18, 12, 6)


class TestFamilyMember:
    def test_row1(self):
        t = family_member(1, PellSolution(7, 5))
        assert (t.sides, t.perimeter, t.area) == ((3, 148, 149), 300, 210)

    def test_row2(self):
        t = family_member(2, PellSolution(3, 2))
        assert (t.sides, t.perimeter, t.area) == ((3, 25, 26), 54, 36)

    def test_row4(self):
        t = family_member(4, PellSolution(2, 1))
        assert (t.sides, t.perimeter, t.area) == ((4, 13, 15), 32, 24)

    def test_restriction_violation(self):
        with pytest.raises(ValueError):
            family_member(1, PellSolution(7, 4))

    def test_lower_bound_enforced(self):
        with pytest.raises(ValueError):
            family_member(1, PellSolution(1, 1))

    def test_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            family_member(5, PellSolution(1, 0))

    def test_closed_forms_match_scan(self):
        family = {
            t.sides for row in (1, 2, 3, 4) for t in family_members_within(row, 400)
        }
        scanned = {t.sides for t in enumerate_perimeter_dominant(400)}
        specials = {(3, 4, 5), (5, 5, 6), (5, 5, 8)}
        assert family == scanned - specials


class TestTrapezoidFrom:
    def test_345_f3(self):
        sol = trapezoid_from(T345, 3)
        assert sol is not None
        assert (sol.c, sol.quad_sides) == (3, (6, 4, 3, 5))
        assert sol.h == 4

    def test_556_f5_rational(self):
        assert shorter_parallel_side(T556, 5) == Fraction(10, 7)
        assert trapezoid_from(T556, 5) is None

    def test_558_f5_rational(self):
        assert shorter_parallel_side(T558, 5) == Fraction(15, 7)

    def test_41315_f4(self):
        t = HeronianTriangle.from_sides(4, 13, 15)
        assert shorter_parallel_side(t, 4) == Fraction(4, 5)
        assert trapezoid_from(t, 4) is None

    def test_f_not_a_side(self):
        with pytest.raises(ValueError):
            trapezoid_from(T345, 6)

    def test_degeneracy_guard(self):
        # no true Heronian triangle has area <= a side (scan to P=1500 finds
        # none), so exercise the guard with a duck-typed impostor
        fake = SimpleNamespace(sides=(3, 4, 5), perimeter=12, area=5)
        with pytest.raises(DegenerateTrapezoidError):
            shorter_parallel_side(fake, 5)

    def test_solution_is_equable_in_rationals(self):
        for t, f in [(T345, 3), (T345, 4), (T345, 5), (T556, 6), (T558, 8)]:
            sol = trapezoid_from(t, f)
            assert sol is not None
            a, b, c, d = sol.quad_sides
            assert sol.h * (a + c) / 2 == a + b + c + d


class TestAllEquableTrapezoids:
    def test_exactly_five(self):
        sols = all_equable_trapezoids()
        assert len(sols) == 5
        assert {s.quad_sides for s in sols} == {
            (6, 4, 3, 5), (10, 3, 6, 5), (8, 5, 2, 5), (14, 5, 6, 5), (20, 4, 15, 3),
        }

    def test_five_at_large_bound(self):
        sols = all_equable_trapezoids(100_000)
        assert len(sols) == 5
        assert {s.quad_sides for s in sols} == {
            (6, 4, 3, 5), (10, 3, 6, 5), (8, 5, 2, 5), (14, 5, 6, 5), (20, 4, 15, 3),
        }

    def test_figure_tags(self):
        tags = {s.quad_sides: s.figure_tag for s in all_equable_trapezoids()}
        assert tags[(20, 4, 15, 3)] == "trapezoid-20-4-15-3"
        assert tags[(8, 5, 2, 5)] == "isosceles-trapezoid-8-5-2-5"

    def test_provenance(self):
        by_sides = {s.quad_sides: s for s in all_equable_trapezoids()}
        assert by_sides[(20, 4, 15, 3)].triangle == T345
        assert by_sides[(20, 4, 15, 3)].f == 5
        assert by_sides[(8, 5, 2, 5)].triangle == T556
        assert by_sides[(8, 5, 2, 5)].f == 6

    def test_no_family_member_below_1e60_produces_integer_c(self):
        members = [t for row in (1, 2, 3, 4) for t in family_members_within(row, 10**60)]
        assert len(members) == 180
        for t in members:
            for f in set(t.sides):
                c = shorter_parallel_side(t, f)
                assert c.denominator != 1, (t.sides, f)


class TestLatticeEmbedding:
    def test_right_trapezoid(self):
        sol = trapezoid_from(T345, 3)
        assert lattice_embedding(sol) == quad((0, 0), (6, 0), (6, 4), (3, 4))

    def test_isosceles_14_5_6_5(self):
        sol = trapezoid_from(T558, 8)
        assert lattice_embedding(sol) == quad((0, 0), (14, 0), (10, 3), (4, 3))

    def test_slanted_20_4_15_3(self):
        sol = trapezoid_from(T345, 5)
        assert lattice_embedding(sol) == quad((0, 0), (16, 12), (12, 12), (0, 3))

    def test_all_five_embed(self):
        for sol in all_equable_trapezoids():
            emb = lattice_embedding(sol)
            assert emb is not None
            assert sorted(Point(0, 0).dist_sq(p) for p in emb)  # lattice quad

    def test_realizer_matches_catalog_lookup(self, monkeypatch):
        # with the named drawings hidden, every answer comes from the realizer;
        # the search catalog, which the realizer replaced, is the oracle
        named = [(sol, lattice_embedding(sol)) for sol in all_equable_trapezoids()]
        monkeypatch.setattr(figures, "KNOWN_EMBEDDINGS", {})
        for sol, drawing in named:
            emb = lattice_embedding(sol)
            assert emb is not None and signature(emb) == signature(drawing)
            assert signature(emb) in get_catalog(max(42, sol.perimeter))

    def test_inconsistent_height_is_an_error(self):
        sol = trapezoid_from(T345, 3)
        bad = SimpleNamespace(f=sol.f, h=sol.h + 1, quad_sides=sol.quad_sides)
        with pytest.raises(InconsistencyError):
            lattice_embedding(bad)


class TestValidation:
    def test_triangle_invariants(self):
        with pytest.raises(ValueError):
            HeronianTriangle((3, 4, 5), 12, 7)
        with pytest.raises(ValueError):
            HeronianTriangle((1, 2, 3), 6, 1)

    def test_solution_invariants(self):
        with pytest.raises(ValueError):
            TrapezoidSolution(
                triangle=T345, f=3, c=0, h=Fraction(4), quad_sides=(3, 4, 0, 5),
            )

    @pytest.mark.parametrize(
        "args, message",
        [
            (((1, 2, 3), 6, 1), "(1, 2, 3) is not a valid (ordered) triangle"),
            (((4, 3, 5), 12, 6), "(4, 3, 5) is not a valid (ordered) triangle"),
            (((3, 4, 5), 13, 6), "perimeter does not match the sides"),
            (((3, 4, 5), 12, 7), "area does not satisfy Heron's formula"),
            (((3, 4, 5), 12, 0), "area does not satisfy Heron's formula"),
        ],
        ids=["degenerate", "unordered", "perimeter", "area", "zero-area"],
    )
    def test_triangle_check_messages(self, args, message):
        with pytest.raises(ValueError) as exc:
            HeronianTriangle(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"c": 0}, "short parallel side must be positive"),
            ({"quad_sides": (1, 1, 1, 1)}, "quad_sides must run (c + f, leg, c, leg)"),
            ({"h": Fraction(2)}, "equable trapezoids need height > 2"),
            ({"quad_sides": (6, 4, 3, 6)}, "trapezoid is not equable"),
        ],
        ids=["c", "sides", "h", "equability"],
    )
    def test_solution_check_messages(self, changes, message):
        fields = dict(triangle=T345, f=3, c=3, h=Fraction(4), quad_sides=(6, 4, 3, 5))
        TrapezoidSolution(**fields)  # the unchanged fields are valid
        with pytest.raises(ValueError) as exc:
            TrapezoidSolution(**{**fields, **changes})
        assert str(exc.value) == message
