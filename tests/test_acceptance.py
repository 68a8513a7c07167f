"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance (all are
exact) and prints a single pass/fail line; run with `pytest -s` to see them.
Criterion 7's catalog search at p_max=60 takes about 10 ms and runs with the
rest.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

from equilat import cyclic, kites, pell, search, trapezoids
from equilat.figures import NAMED_QUADS
from equilat.geometry import (
    LatticeQuad,
    classify,
    dist_sq,
    interior_diagonals,
    is_equable,
    perimeter,
    signature,
    twice_area,
)
from helpers import family_members, random_congruent_copy, random_quad, strip_width_by_fractions


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_pell_prefixes():
    with criterion(1, "pell sequence prefixes", 1.0):
        prefixes = {
            "K1": [2, 3, 7, 18, 47, 123],
            "K2": [1, 9, 161, 2889, 51841],
            "K3": [1, 3, 17, 99, 577],
            "K4": [1, 5, 29, 169, 985],
        }
        for name, expected in prefixes.items():
            spec = pell.SPECS[name]
            got = [s.n for s in pell.solutions(spec, len(expected))]
            assert got == expected, name


def test_criterion_2_kite_tables():
    with criterion(2, "kite family tables and audits", 1.0):
        tables = {
            "K1": [(2, 0, (4, -3), (4, 2)), (3, 1, (10, 0), (6, 3)),
                   (7, 3, (24, 7), (14, 7)), (18, 8, (60, 25), (36, 18))],
            "K2": [(9, 4, (77, 36), (72, 36)), (161, 72, (1365, 680), (1288, 644)),
                   (2889, 1292, (24477, 12236), (23112, 11556))],
            "K3": [(1, 0, (4, 0), (4, 4)), (3, 2, (16, 12), (12, 12)),
                   (17, 12, (84, 80), (68, 68))],
            "K4": [(1, 1, (12, 9), (12, 12)), (5, 7, (63, 60), (60, 60)),
                   (29, 41, (360, 357), (348, 348))],
        }
        constants = {"K1": (5, 80, 5), "K2": (10, 20, 5), "K3": (8, 32, 4), "K4": (18, 18, 3)}
        for tag, rows in tables.items():
            members = kites.generate(tag, len(rows))
            got = [(m.sol.n, m.sol.i, m.A, m.B) for m in members]
            assert got == rows, tag
            k_a_coeff, q_sq, gcd_ab = constants[tag]
            for m in members:
                failed_check = kites.audit_member(m)
                assert failed_check is None, (tag, m.sol, failed_check)
                assert m.K_A == k_a_coeff * m.sol.n
                assert dist_sq(m.A, m.C) == q_sq
                assert m.family.gcd_ab == gcd_ab


def test_criterion_3_convexity_census():
    with criterion(3, "three convex kites among first ten of each family", 1.0):
        convex = [
            (tag, km)
            for tag in kites.FAMILIES
            for km in kites.generate(tag, 10)
            if classify(km.quad()).convex
        ]
        assert [(tag, km.sol.n, km.sol.i) for tag, km in convex] == [
            ("K1", 2, 0), ("K3", 1, 0), ("K4", 1, 1),
        ]
        named = ["rhombus-5", "square-4", "kite-3-15"]
        got_sigs = [signature(km.quad()) for _, km in convex]
        assert got_sigs == [signature(NAMED_QUADS[n]) for n in named]


def test_criterion_4_trapezoids():
    with criterion(4, "the five equable trapezoids", 10.0):
        sols = trapezoids.all_equable_trapezoids()
        assert len(sols) == 5
        # each is the class of its drawing, whose sides name it
        names = ("right-trapezoid-6-4-3-5", "right-trapezoid-10-3-6-5",
                 "isosceles-trapezoid-8-5-2-5", "isosceles-trapezoid-14-5-6-5",
                 "trapezoid-20-4-15-3")
        assert {signature(trapezoids.lattice_embedding(*s)) for s in sols} == {
            signature(NAMED_QUADS[n]) for n in names
        }
        # the strip widths 10/7 and 15/7 give no trapezoid
        assert strip_width_by_fractions((5, 5, 6), 5) == Fraction(10, 7)
        assert strip_width_by_fractions((5, 5, 8), 5) == Fraction(15, 7)
        assert trapezoids.strip_width((5, 5, 6), 5) is trapezoids.strip_width((5, 5, 8), 5) is None
        for row in (1, 2, 3, 4):
            for t in family_members(row, 10_000):
                for f in set(t):
                    assert trapezoids.strip_width(t, f) is None


def test_criterion_5_cyclic():
    with criterion(5, "cyclic candidates and solutions", 1.0):
        assert len(cyclic.enumerate_candidates()) == 63
        sides = [cyclic.sides(wxyz) for wxyz in cyclic.solutions()]
        assert sides == [
            (14, 6, 5, 5), (8, 5, 5, 2), (6, 6, 3, 3), (4, 4, 4, 4),
        ]
        kite_entry = [
            emb
            for order, emb in cyclic.realizable_orderings(sides[2])
            if sorted(order) == [3, 3, 6, 6] and order in ((6, 6, 3, 3), (6, 3, 3, 6))
        ]
        assert kite_entry == [None]  # the kite ordering is not realizable


def test_criterion_6_search_audit_42():
    with criterion(6, "search audit at p_max 42", 300.0):
        catalog = search.get_catalog(42)
        named = [
            "square-4", "rectangle-3-6", "rhombus-5",
            "right-trapezoid-6-4-3-5", "right-trapezoid-10-3-6-5",
            "isosceles-trapezoid-8-5-2-5", "isosceles-trapezoid-14-5-6-5",
            "trapezoid-20-4-15-3", "dart-10-5", "kite-3-15",
        ]
        for name in named:
            assert signature(NAMED_QUADS[name]) in catalog, name
        assert perimeter(NAMED_QUADS["kite-3-15"]) == 36
        assert perimeter(NAMED_QUADS["dart-10-5"]) == 30

        report = {row.name: row for row in search.audit_theorems(42)}
        assert all(row.holds for row in report.values())
        assert report["cyclic"].found == {
            signature(NAMED_QUADS[n])
            for n in ("square-4", "rectangle-3-6",
                      "isosceles-trapezoid-8-5-2-5", "isosceles-trapezoid-14-5-6-5")
        }
        assert report["trapezoids"].found == {
            signature(NAMED_QUADS[n])
            for n in ("right-trapezoid-6-4-3-5", "right-trapezoid-10-3-6-5",
                      "isosceles-trapezoid-8-5-2-5", "isosceles-trapezoid-14-5-6-5",
                      "trapezoid-20-4-15-3")
        }
        assert report["diagonal_exceptions"].found == {
            (signature(NAMED_QUADS["right-trapezoid-6-4-3-5"]), 5),
        }


def test_criterion_7_concave_example_quantities():
    with criterion(7, "concave example: K = P = 60, diagonals 12 and sqrt(164)", 1.0):
        q = LatticeQuad(((0, 0), (20, 15), (8, 10), (8, 15)))
        assert twice_area(q) == 120
        assert perimeter(q) == 60
        assert is_equable(q)
        report = interior_diagonals(q)
        (inner,) = report.interior
        (outer,) = report.exterior
        assert outer.rational and outer.length == 12
        assert inner.sq == 164 and not inner.rational


def test_criterion_7_concave_example_in_p60_catalog():
    with criterion(7, "concave example appears in the p_max 60 catalog", 1800.0):
        catalog = search.get_catalog(60)
        assert signature(NAMED_QUADS["concave-60"]) in catalog


def test_criterion_8_property_suites():
    with criterion(8, "oracle-equivalence property suites", 60.0):
        # pell stream vs exhaustive scan to n <= 1e5, all eight equations
        for spec in pell.SPECS.values():
            bound = 100_000
            stream = []
            for sol in pell.iter_solutions(spec):
                if sol.n > bound:
                    break
                stream.append(sol)
            assert stream == pell.seed_search(spec.alpha, spec.beta, spec.gamma, bound), spec.name

        # perimeter-dominant triangles to 400: exactly the eight known ones,
        # matching the closed forms of the infinite families plus the specials
        scanned = trapezoids.enumerate_perimeter_dominant(400)
        assert scanned == [
            (3, 4, 5), (5, 5, 6), (5, 5, 8),
            (4, 13, 15), (3, 25, 26), (4, 51, 53), (3, 148, 149), (4, 193, 195),
        ]
        family = {t for row in (1, 2, 3, 4) for t in family_members(row, 400)}
        assert family == set(scanned) - {(3, 4, 5), (5, 5, 6), (5, 5, 8)}

        # signature invariance under 1000 random symmetry compositions
        rng = random.Random(0xE9)
        for _ in range(1000):
            q = random_quad(rng)
            assert signature(random_congruent_copy(rng, q)) == signature(q)

        # integer sides with a perfect-square Heron product give integer area
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
