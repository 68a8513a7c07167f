from fractions import Fraction
from itertools import islice, takewhile
from math import gcd, isqrt

import pytest

from equilat import pell
from equilat.errors import InconsistencyError, InvalidQuadError
from equilat.figures import NAMED_QUADS
from equilat.geometry import (
    LatticeQuad,
    classify,
    dist_sq,
    exact_sqrt,
    is_equable,
    realize,
    side_swap,
    signature,
    twice_area,
)
from equilat.kites import (
    FAMILIES,
    audit_member,
    generate,
    iter_members,
)
from equilat.pell import SPECS, PellSolution, iter_solutions
from equilat.search import audit_theorems, get_catalog
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
    ], ids=["iter_members", "generate"])
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
        # audit_theorems expects each family's members up to p_max, the
        # bound included: kite-3-15, K4 at n = 1, has perimeter 36
        def expected_kites(p_max):
            (row,) = (row for row in audit_theorems(p_max) if row.name == "kites")
            return row.expected

        members = [("K1", 2, 0), ("K1", 3, 1), ("K3", 1, 0), ("K4", 1, 1)]
        sigs = {signature(member(tag, PellSolution(n, i)).quad()) for tag, n, i in members}
        assert expected_kites(42) == expected_kites(36) == sigs
        assert expected_kites(35) == sigs - {signature(NAMED_QUADS["kite-3-15"])}


# The certificate of the kites module docstring.  u - 8 divides 128; for each
# u, p = (u + 4s^2/u)/2 must be an integer and the discriminant
# s^2 - 4p = s^2 - 2u - 8s^2/u a square, and both depend only on s mod u*mod
# when read mod `mod`.  The divisors of LOCAL_MODULUS = 64 * 3 are the moduli
# tried, in increasing order.
LOCAL_MODULUS = 192
MODULI = [m for m in range(1, LOCAL_MODULUS + 1) if LOCAL_MODULUS % m == 0]


def _admissible(u: int, mod: int) -> list[int]:
    """The s mod u*mod with an integer p whose discriminant is a square mod `mod`."""
    squares = {x * x % mod for x in range(mod)}
    return [s for s in range(u * mod) if 4 * s * s % u == 0 and (u + 4 * s * s // u) % 2 == 0
            and (s * s - 2 * u - 8 * s * s // u) % mod in squares]


def kite_case(u: int, families: dict) -> tuple[str, int, int]:
    """(outcome, mod, r) for one u: the outcome is the tag of the family that
    u = 2km^2 gives, with the least modulus at which an admissible s must be a
    multiple of km and the r with discriminant r^2 (alpha*n^2 - gamma)/beta at
    s = kmn; or the reason u gives no kite, with the modulus that decides it."""
    q_sq = 16 + 128 // (u - 8)
    if all(exact_sqrt(q_sq - x * x) is None for x in range(isqrt(q_sq) + 1)):
        return f"{q_sq} is not a sum of two squares", 1, 0
    multiple = {}  # mod -> the gcd of every admissible s mod u*mod
    for mod in MODULI:
        admissible = _admissible(u, mod)
        if not admissible:
            return ("p is never an integer" if mod == 1
                    else f"s^2 - 4p is not a square mod {mod}"), mod, 0
        multiple[mod] = gcd(u * mod, *admissible)
    tag = next((tag for tag, fam in families.items() if 2 * fam.k * fam.m**2 == u), None)
    if tag is None:
        return "no family row", LOCAL_MODULUS, 0
    fam, spec = families[tag], SPECS[tag]
    km = fam.k * fam.m
    mod = next((mod for mod in MODULI if multiple[mod] % km == 0), None)
    if mod is None:
        return f"{tag}: s need not be a multiple of km", LOCAL_MODULUS, 0
    # at s = kmn the discriminant is c*n^2 - 2u, with c = (km)^2 (u - 8)/u
    c, rem = divmod(km * km * (u - 8), u)
    r = isqrt(c * spec.beta // spec.alpha)
    squarefree = all(spec.beta % (x * x) for x in range(2, spec.beta + 1))
    if rem or not squarefree or (c * spec.beta, 2 * u * spec.beta) != (
            r * r * spec.alpha, r * r * spec.gamma):
        return f"{tag}: the discriminant is not r^2 (alpha*n^2 - gamma)/beta", mod, 0
    return tag, mod, r


def kite_cases(families: dict = FAMILIES) -> dict[int, tuple[int, str, int, int]]:
    """u -> (|AC|^2, outcome, mod, r) for every u with u - 8 dividing 128."""
    return {d + 8: (16 + 128 // d, *kite_case(d + 8, families))
            for d in range(1, 129) if 128 % d == 0}


KITE_CASES = {
    9: (144, "p is never an integer", 1, 0),
    10: (80, "K1", 1, 5),
    12: (48, "48 is not a sum of two squares", 1, 0),
    16: (32, "K3", 16, 8),
    24: (24, "24 is not a sum of two squares", 1, 0),
    40: (20, "K2", 1, 20),
    72: (18, "K4", 3, 12),
    136: (17, "s^2 - 4p is not a square mod 64", 64, 0),
}


def kite_scan(s_max: int) -> list[tuple[int, int, int, int, int]]:
    """Every (a, b, u, |OB|^2, |AC|^2) of an equable kite with integer sides
    a >= b, a + b <= s_max and integer |OB|^2 and |AC|^2: Heron's formula on
    O, A, B with area s = a + b, solved for |OB|^2, and |AC| = 4s/|OB|."""
    hits = []
    for s in range(2, s_max + 1):
        for b in range(1, s // 2 + 1):
            p = (s - b) * b
            t = exact_sqrt(p * p - 4 * s * s)
            if t is None:
                continue
            for v in {p - t, p + t}:
                ob_sq = s * s - 2 * v
                if ob_sq > 0 and 16 * s * s % ob_sq == 0:
                    hits.append((s - b, b, 4 * s * s // v, ob_sq, 16 * s * s // ob_sq))
    return hits


def scan_classes(s_max: int) -> tuple[set[int], set[tuple], int]:
    """The values of u among the scan's kites, the classes of their
    realizations, and the number of kites; each must realize."""
    hits = kite_scan(s_max)
    classes = set()
    for a, b, _, ob_sq, ac_sq in hits:
        quad = realize((a * a, b * b, b * b, a * a), (ob_sq, ac_sq))
        assert quad is not None, (a, b)
        classes.add(signature(quad))
    return {u for _, _, u, _, _ in hits}, classes, len(hits)


def member_classes(s_max: int, families: dict) -> set[tuple]:
    """The classes of the members of `families` with a + b <= s_max."""
    return {signature(km.quad()) for tag in families
            for km in takewhile(lambda km: km.K_A <= s_max, iter_members(tag))}


def live(cases: dict) -> set[int]:
    """The values of u whose outcome is a family."""
    return {u for u, (_, outcome, _, _) in cases.items() if outcome in FAMILIES}


class TestEveryKiteIsAMember:
    def test_the_eight_cases(self):
        cases = kite_cases()
        assert cases == KITE_CASES
        assert live(cases) == {2 * fam.k * fam.m**2 for fam in FAMILIES.values()}
        for q_sq, outcome, _, _ in cases.values():
            if outcome in FAMILIES:
                assert FAMILIES[outcome].q_sq == q_sq

    def test_live_cases_give_the_members_sides(self):
        # a - b = r*i and a + b = kmn
        for _, tag, _, r in KITE_CASES.values():
            if tag in FAMILIES:
                for km in generate(tag, 10):
                    assert (km.a - km.b, km.a + km.b) == (r * km.sol.i, km.K_A), (tag, km.sol)

    def test_k2_skipped_member_is_k1_rhombus(self):
        # K2 at (1, 0): a = b = 5, |OB|^2 = s^2 (u - 8)/u = 80 and |AC|^2 = 20
        ob_sq = 10 * 10 * (40 - 8) // 40
        rhombus = realize((25, 25, 25, 25), (ob_sq, FAMILIES["K2"].q_sq))
        assert signature(rhombus) == signature(member("K1", PellSolution(2, 0)).quad())

    @pytest.mark.parametrize("s_max, counts", [
        (1500, (15, 14)),
        pytest.param(8000, (20, 19), marks=pytest.mark.slow),
    ])
    def test_scan_finds_exactly_the_members(self, s_max, counts):
        u_seen, classes, hits = scan_classes(s_max)
        assert u_seen == live(kite_cases())
        assert classes == member_classes(s_max, FAMILIES)
        assert (hits, len(classes)) == counts

    def test_scan_catches_a_missing_family(self):
        _, classes, _ = scan_classes(300)
        without_k3 = {tag: fam for tag, fam in FAMILIES.items() if tag != "K3"}
        assert classes != member_classes(300, without_k3)
        assert live(kite_cases(without_k3)) != live(kite_cases())

    def test_scan_catches_a_certificate_that_accepts_u_12(self):
        u_seen, _, _ = scan_classes(300)
        assert u_seen != live({**kite_cases(), 12: (48, "K3", 1, 0)})


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
