"""The four infinite families of lattice equable kites.

Each family row turns one Pell solution (n, i) into a concrete kite
O(0,0), A, B, C symmetric about the diagonal OB, with C the reflection of A.
Families K1/K2/K3/K4 pair with the equations n^2-5i^2=4, n^2-5i^2=1,
n^2-2i^2=1 and 2n^2-i^2=1; their members have gcd(a, b) = 5, 5, 4, 3 and
squared cross-diagonal q^2 = 80, 20, 32, 18 respectively.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, NamedTuple

from equilat import pell
from equilat.errors import EquilatError, InconsistencyError
from equilat.geometry import (
    LatticeQuad,
    Point,
    classify,
    is_equable,
    is_simple,
    midpoint,
    orient,
    reflect_point,
)

__all__ = [
    "FamilyId",
    "KiteMember",
    "Convexity",
    "AuditOutcome",
    "FamilyExclusionError",
    "FAMILIES",
    "member",
    "generate",
    "members_within_perimeter",
    "audit_member",
    "convexity",
    "kite_from_parallelogram",
]


class FamilyExclusionError(EquilatError):
    """Parameter row is excluded from its family (K2 with n = 1)."""


class FamilyId(NamedTuple):
    """Constants of one family row.

    M = ((m_n*n + m_i*i) / m_den) * m_dir  is the midpoint of AC,
    A = M + half-chord, C = M - half-chord, B = b_mult*n * b_dir.
    a = (a_n*n + a_i*i) / ab_den and b = (a_n*n - a_i*i) / ab_den are the
    side lengths OA and AB, K_A = k_a * n is the area of triangle OAB, and
    (k, m) are the Vieta constants with ab = k(m^2 + n^2), a + b = k*m*n.
    """

    tag: str
    k: int
    m: int
    m_n: int
    m_i: int
    m_den: int
    m_dir: tuple[int, int]
    half_chord: tuple[int, int, int]  # (dx, dy, den)
    b_mult: int
    b_dir: tuple[int, int]
    k_a: int
    a_n: int
    a_i: int
    ab_den: int
    gcd_ab: int
    q_sq: int


FAMILIES: dict[str, FamilyId] = {
    "K1": FamilyId("K1", 5, 1, 1, 5, 2, (2, 1), (2, -4, 1), 1, (2, 1), 5, 5, 5, 2, 5, 80),
    "K2": FamilyId("K2", 5, 2, 2, 5, 1, (2, 1), (1, -2, 1), 4, (2, 1), 10, 5, 10, 1, 5, 20),
    "K3": FamilyId("K3", 8, 1, 1, 2, 1, (2, 2), (2, -2, 1), 4, (1, 1), 8, 4, 4, 1, 4, 32),
    "K4": FamilyId("K4", 9, 2, 4, 3, 2, (3, 3), (3, -3, 2), 12, (1, 1), 18, 9, 6, 1, 3, 18),
}


class Convexity(enum.Enum):
    CONVEX = "convex"
    DART = "dart"


class KiteMember(NamedTuple):
    """One realized kite with its audit quantities."""

    family: FamilyId
    sol: pell.PellSolution
    M: tuple[Fraction, Fraction]  # midpoint of AC
    A: Point
    B: Point
    C: Point
    K_A: int
    a: int
    b: int

    def quad(self) -> LatticeQuad:
        return LatticeQuad((Point(0, 0), self.A, self.B, self.C))

    @property
    def perimeter(self) -> int:
        return 2 * self.K_A


def member(tag: str, sol: pell.PellSolution) -> KiteMember:
    """Materialize the row of family `tag` for one Pell solution.

    The solution must satisfy the family's equation; K2 rejects n = 1, whose
    kite duplicates the K1 rhombus.
    """
    fam = FAMILIES[tag]
    spec = pell.SPECS[tag]
    if not spec.satisfies(sol.n, sol.i):
        raise ValueError(f"{sol} does not satisfy the {tag} equation")
    if tag == "K2" and sol.n == 1:
        raise FamilyExclusionError("K2 requires n > 1; the n = 1 kite is the K1 rhombus")

    scale = Fraction(fam.m_n * sol.n + fam.m_i * sol.i, fam.m_den)
    mx = scale * fam.m_dir[0]
    my = scale * fam.m_dir[1]
    hx = Fraction(fam.half_chord[0], fam.half_chord[2])
    hy = Fraction(fam.half_chord[1], fam.half_chord[2])

    ax, ay = mx + hx, my + hy
    cx, cy = mx - hx, my - hy
    # always lattice points by the parity facts of the equations
    if ax.denominator != 1 or ay.denominator != 1 or cx.denominator != 1 or cy.denominator != 1:
        raise InconsistencyError(f"{tag}{sol}: A or C is not a lattice point")
    a_len, rem_a = divmod(fam.a_n * sol.n + fam.a_i * sol.i, fam.ab_den)
    b_len, rem_b = divmod(fam.a_n * sol.n - fam.a_i * sol.i, fam.ab_den)
    if rem_a or rem_b:
        raise InconsistencyError(f"{tag}{sol}: side lengths are not integers")

    return KiteMember(
        family=fam,
        sol=sol,
        M=(mx, my),
        A=Point(int(ax), int(ay)),
        B=Point(fam.b_mult * sol.n * fam.b_dir[0], fam.b_mult * sol.n * fam.b_dir[1]),
        C=Point(int(cx), int(cy)),
        K_A=fam.k_a * sol.n,
        a=a_len,
        b=b_len,
    )


def iter_members(tag: str) -> Iterator[KiteMember]:
    for sol in pell.iter_solutions(pell.SPECS[tag]):
        if tag == "K2" and sol.n == 1:
            continue
        yield member(tag, sol)


def generate(tag: str, count: int) -> list[KiteMember]:
    """First `count` admissible members in increasing n."""
    if count < 1:
        raise ValueError("count must be positive")
    return list(islice(iter_members(tag), count))


def members_within_perimeter(tag: str, p_max: int) -> list[KiteMember]:
    """All members with perimeter (= area = 2*K_A) at most p_max."""
    out = []
    for km in iter_members(tag):
        if km.perimeter > p_max:
            break
        out.append(km)
    return out


class AuditOutcome(NamedTuple):
    passed: bool
    failed_check: str | None = None
    detail: str | None = None


def audit_member(km: KiteMember) -> AuditOutcome:
    """Recompute every claimed quantity from the raw coordinates.

    Failures are data, not exceptions: the outcome names the first check that
    does not hold.
    """
    fam = km.family
    o = Point(0, 0)

    checks: list[tuple[str, bool, str]] = []

    simple = is_simple((o, km.A, km.B, km.C))
    checks.append(("simple", simple, "O,A,B,C is not a simple quadrilateral"))
    if simple:
        q = km.quad()
        checks.append(("equable", is_equable(q), "area differs from perimeter"))
        checks.append(("kite", classify(q).is_kite, "no two disjoint equal adjacent pairs"))
    checks.append(
        ("K_A", orient(o, km.A, km.B) == 2 * km.K_A, f"triangle area != {km.K_A}")
    )
    checks.append(("a", o.dist_sq(km.A) == km.a * km.a, f"|OA| != {km.a}"))
    checks.append(("b", km.A.dist_sq(km.B) == km.b * km.b, f"|AB| != {km.b}"))
    checks.append(("K_A=a+b", km.K_A == km.a + km.b, "half-quad equability fails"))
    checks.append(
        ("gcd", gcd(km.a, km.b) == fam.gcd_ab, f"gcd(a,b) != {fam.gcd_ab}")
    )
    checks.append(
        ("q_sq", km.A.dist_sq(km.C) == fam.q_sq == Fraction(16 * fam.k * fam.m**2, fam.k * fam.m**2 - 4),
         f"|AC|^2 != {fam.q_sq}")
    )
    k, m, n = fam.k, fam.m, km.sol.n
    checks.append(
        ("vieta", km.a * km.b == k * (m * m + n * n) and km.a + km.b == k * m * n,
         "Vieta relations fail"),
    )
    checks.append(
        ("reflection", reflect_point(km.A, o, km.B) == km.C,
         "C is not the reflection of A in OB"),
    )
    checks.append(("midpoint", midpoint(km.A, km.C) == km.M, "M is not the midpoint of AC"))

    for name, ok, detail in checks:
        if not ok:
            return AuditOutcome(False, name, detail)
    return AuditOutcome(True)


def convexity(km: KiteMember) -> Convexity:
    """Convex iff M falls strictly between O and B along the symmetry axis."""
    mx, my = km.M
    if 0 < mx * km.B.x + my * km.B.y < km.B.x * km.B.x + km.B.y * km.B.y:
        return Convexity.CONVEX
    return Convexity.DART


def kite_from_parallelogram(a: Point, b: Point) -> LatticeQuad | None:
    """Reverse the cut-and-rearrange construction.

    Reflect A across the diagonal O-B of the parallelogram O, A, B, C'; when
    the image is a lattice point and O, A, B, image close up into a simple
    quadrilateral, that quadrilateral is the kite.  Returns None otherwise.
    """
    o = Point(0, 0)
    if orient(o, a, b) == 0:
        raise ValueError("O, A, B must span a nondegenerate triangle")
    cx, cy = reflect_point(a, o, b)
    if cx.denominator != 1 or cy.denominator != 1:
        return None
    pts = (o, a, b, Point(int(cx), int(cy)))
    if not is_simple(pts):
        return None
    return LatticeQuad(pts)
