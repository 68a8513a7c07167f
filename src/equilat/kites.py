"""The four infinite families of lattice equable kites, and why there are no
others.

Each family row places the kite O(0,0), A, B, C, symmetric about the diagonal
OB with C the reflection of A, for one Pell solution (n, i).
Families K1/K2/K3/K4 pair with the equations n^2-5i^2=4, n^2-5i^2=1,
n^2-2i^2=1 and 2n^2-i^2=1; their members have gcd(a, b) = 5, 5, 4, 3.
Every other constant follows from the Vieta pair (k, m) = (5, 1), (5, 2),
(8, 1), (9, 2): the area of triangle OAB is K_A = k*m*n, the sides
a = |OA| >= b = |AB| are the roots of X^2 - K_A*X + k(m^2 + n^2), and the
squared cross-diagonal is q^2 = |AC|^2 = 16km^2 / (km^2 - 4) = 80, 20, 32, 18.

Each member takes its (n, i) from the family's checked stream
`pell.iter_solutions`, and its placement from the recurrence that extends that
stream, v_{j+1} = t*v_j - v_{j-1} + w, run over (A, B, C) from the row's first
two placements, with t = 3, 18, 6, 6 the `rec` of the family's equation.  B
and the midpoint of AC are linear in (n, i), and the chord A - C is the same
for every member, so w is 0 on B, w_A = (2 - t)(A_0 - C_0)/2 and w_C = -w_A.
`audit_member` checks the coordinates against the paper's closed forms in
(n, i).

Every lattice equable kite is congruent to a member.  Place it as O, A, B, C,
symmetric in OB, with the integer sides a = |OA| >= b = |AB| (every side of
an LEQ is an integer; see `search`), and let s = a + b and p = ab.  The
kite is twice the triangle OAB, so it is equable iff that triangle's area is
s, and then |OB| * |AC| = 4s.  Heron's formula on (a, b, |OB|) reads
16s^2 = (s^2 - |OB|^2)(|OB|^2 - (a - b)^2), a quadratic in s^2 - |OB|^2
with roots 2(p - t) and 2(p + t), t^2 = p^2 - 4s^2; |OB|^2 is an integer,
so t is one.  So |OB|^2 = s^2 - 2v for one factor v of
(p - t)(p + t) = 4s^2.  Let u = 4s^2/v be the other.  Then
|OB|^2 = s^2 (u - 8)/u, so u > 8, and |AC|^2 = 16u/(u - 8) = 16 + 128/(u - 8).
A lattice |AC|^2 is an integer, so u - 8 divides 128.  In each of the eight
cases p = (u + 4s^2/u)/2 must be an integer and the discriminant
(a - b)^2 = s^2 - 4p = |OB|^2 - 2u a square:

    u    |AC|^2  outcome
    9    144     9 | 4s^2 forces 3 | s, so 4s^2/9 is even and p is never
                 an integer
    10   80      K1
    12   48      48 is not a sum of two squares, so not a lattice length
    16   32      K3
    24   24      24 is not a sum of two squares
    40   20      K2
    72   18      K4
    136  17      s = 34x, and s^2 - 4p = 272(4x^2 - 1) is a square only if
                 4x^2 - 1 = 17w^2, which has no solution mod 4

In the four live cases u = 2km^2 for the row's Vieta pair (k, m), and an
integer p with a square discriminant forces km | s (p alone does for K1 and
K2; modulo 16 for K3 and modulo 3 for K4).  With s = kmn the discriminant is
r^2 (alpha*n^2 - gamma)/beta for the row's equation and r = 5, 20, 8, 12;
beta is squarefree, so it is a square iff (n, i) solves the equation, with
a - b = r*i.  Then a, b and |OB| are the member's at (n, i), so the kite is
congruent to it, and `pell` shows that each stream holds every nonnegative
solution.  K2's skipped n = 1 is K1's rhombus at n = 2, with its diagonals
swapped.  (k, m) cannot shrink to u: u = 2km^2 does not fix k*m, which
K_A = kmn needs.  The tests carry the computation of the eight cases, and
a scan over (a, b) as an oracle.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice
from math import gcd

from equilat import pell
from equilat.errors import InconsistencyError
from equilat.geometry import (
    LatticeQuad,
    classify,
    dist_sq,
    exact_sqrt,
    is_equable,
    is_simple,
    twice_area,
)

__all__ = [
    "FamilyId",
    "KiteMember",
    "FAMILIES",
    "iter_members",
    "generate",
    "audit_member",
]


class FamilyId(namedtuple("FamilyId", ("k", "m", "gcd_ab", "first", "seeds"))):
    """Constants of one family row: the Vieta pair (k, m) of the module
    docstring, gcd(a, b), the index `first` of the first member's (n, i) in
    the family's Pell stream, and `seeds`, the first two placements as
    (Ax, Ay, Bx, By, Cx, Cy), which the module's recurrence extends."""

    __slots__ = ()

    @property
    def q_sq(self) -> int:
        """|AC|^2 = 16km^2 / (km^2 - 4); audit_member checks it against A and C."""
        return 16 * self.k * self.m**2 // (self.k * self.m**2 - 4)


FAMILIES: dict[str, FamilyId] = {
    # k, m, gcd_ab, first, then the seeds (Ax, Ay, Bx, By, Cx, Cy)
    "K1": FamilyId(5, 1, 5, 0, ((4, -3, 4, 2, 0, 5), (10, 0, 6, 3, 6, 8))),
    # K2 starts at (9, 4): its kite at n = 1 is K1's rhombus
    "K2": FamilyId(5, 2, 5, 1, ((77, 36, 72, 36, 75, 40), (1365, 680, 1288, 644, 1363, 684))),
    "K3": FamilyId(8, 1, 4, 0, ((4, 0, 4, 4, 0, 4), (16, 12, 12, 12, 12, 16))),
    "K4": FamilyId(9, 2, 3, 0, ((12, 9, 12, 12, 9, 12), (63, 60, 60, 60, 60, 63))),
}


class KiteMember(namedtuple("KiteMember", ("family", "sol", "A", "B", "C", "K_A", "a", "b"))):
    """One realized kite with its audit quantities: its FamilyId, its
    PellSolution, the vertices A, B and C, the area K_A of triangle OAB and
    the sides a >= b."""

    __slots__ = ()

    def quad(self) -> LatticeQuad:
        return LatticeQuad(((0, 0), self.A, self.B, self.C))

    @property
    def perimeter(self) -> int:
        return 2 * self.K_A


def iter_members(tag: str) -> Iterator[KiteMember]:
    """Members in increasing n: (n, i) from the family's checked Pell stream,
    the placement from the row's seeds by the recurrence, a >= b by Vieta."""
    if tag not in FAMILIES:
        raise ValueError(f"family must be one of {', '.join(FAMILIES)}, got {tag!r}")
    fam, spec = FAMILIES[tag], pell.SPECS[tag]
    ax0, ay0, _, _, cx0, cy0 = fam.seeds[0]
    wx, wy = (2 - spec.rec) * (ax0 - cx0) // 2, (2 - spec.rec) * (ay0 - cy0) // 2
    steps = pell.recurrence(spec.rec, *fam.seeds, (wx, wy, 0, 0, -wx, -wy))
    sols = islice(pell.iter_solutions(spec), fam.first, None)
    for sol, (ax, ay, bx, by, cx, cy) in zip(sols, steps):
        k_a = fam.k * fam.m * sol.n
        root = exact_sqrt(k_a * k_a - 4 * fam.k * (fam.m**2 + sol.n**2))
        if root is None or (k_a - root) % 2:
            raise InconsistencyError(f"{tag}{tuple(sol)}: side lengths are not integers")
        yield KiteMember(fam, sol, (ax, ay), (bx, by), (cx, cy),
                         k_a, (k_a + root) // 2, (k_a - root) // 2)


def generate(tag: str, count: int) -> list[KiteMember]:
    """First `count` admissible members in increasing n."""
    if not isinstance(count, int):
        raise ValueError("count must be an integer")
    if not 1 <= count <= sys.maxsize:  # islice takes at most sys.maxsize
        raise ValueError(f"count must lie in [1, {sys.maxsize}]")
    return list(islice(iter_members(tag), count))


def audit_member(km: KiteMember) -> str | None:
    """Check the closed forms in (n, i), K_A, a, b, q^2, Vieta and gcd,
    against the coordinates the recurrence gave, and the kite itself.

    Failures are data: the name of the first check that does not hold, or
    None.  No check asks that C be A's mirror in OB, as it could never fail
    first: with a != b, kite forces |OC| = a and |BC| = b, so C is A (not
    simple) or A's mirror.  Vieta allows a = b only at K1 n = 2, K3 n = 1 and
    K2 n = 1, and there any other C on OB's perpendicular bisector at
    |AC|^2 = q^2 is not simple or has an irrational |OC|, failing equable.
    """
    fam = km.family
    o = (0, 0)

    simple = is_simple((o, km.A, km.B, km.C))
    checks = [("simple", simple)]
    if simple:
        q = km.quad()
        checks += [("equable", is_equable(q)), ("kite", classify(q).is_kite)]
    k, m, n = fam.k, fam.m, km.sol.n
    checks += [
        ("K_A", twice_area((o, km.A, km.B)) == 2 * km.K_A),
        ("a", km.a > 0 and dist_sq(o, km.A) == km.a * km.a),
        ("b", km.b > 0 and dist_sq(km.A, km.B) == km.b * km.b),
        ("K_A=a+b", km.K_A == km.a + km.b),
        ("gcd", gcd(km.a, km.b) == fam.gcd_ab),
        ("q_sq", dist_sq(km.A, km.C) == fam.q_sq),
        ("vieta", km.a * km.b == k * (m * m + n * n) and km.a + km.b == k * m * n),
    ]
    return next((name for name, ok in checks if not ok), None)
