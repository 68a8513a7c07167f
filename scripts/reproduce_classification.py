#!/usr/bin/env python3
"""Regenerate every classification result and cross-check it against the
exhaustive search catalog at the default bound.  Prints a compact summary;
exits nonzero if any cross-check fails."""

import sys

from equilat import cyclic, kites, pell, search, trapezoids
from equilat.figures import NAMED_QUADS
from equilat.geometry import signature


def main() -> int:
    ok = True

    print("== Pell streams ==")
    for spec in pell.builtin_specs():
        ns = [s.n for s in pell.solutions(spec, 6)]
        print(f"  {spec.name:<12} n: {ns}")

    print("== Kite families (first members, convexity) ==")
    for tag in kites.FAMILIES:
        for km in kites.generate(tag, 3):
            flag = kites.convexity(km).value
            audit = kites.audit_member(km)
            ok &= audit.passed
            print(f"  {tag} n={km.sol.n:<5} A={km.A} B={km.B} {flag} audit={'ok' if audit.passed else audit.failed_check}")

    print("== Equable trapezoids ==")
    for sol in trapezoids.all_equable_trapezoids():
        emb = trapezoids.lattice_embedding(sol)
        print(f"  {sol.quad_sides} f={sol.f} c={sol.c} h={sol.h} -> {[(p.x, p.y) for p in emb.v]}")

    print("== Cyclic solutions ==")
    for sol in cyclic.solutions():
        realizable = [o for o, e in sol.orderings if e is not None]
        print(f"  wxyz={sol.wxyz} sides={sol.sides} realizable orders: {realizable}")

    print("== Search audit at p_max 42 ==")
    catalog = search.get_catalog(42)
    report = search.audit_theorems(catalog, 42)
    kites_match = report.kites_found == report.kites_expected
    ok &= kites_match
    ok &= len(report.trapezoids_found) == 5
    ok &= len(report.cyclic_found) == 4
    ok &= report.diagonal_exceptions == (
        (signature(NAMED_QUADS["right-trapezoid-6-4-3-5"]), 5),
    )
    print(f"  classes: {len(catalog)}")
    print(f"  kites found == closed-form families: {kites_match}")
    print(f"  trapezoid classes: {len(report.trapezoids_found)} (expect 5)")
    print(f"  cyclic classes: {len(report.cyclic_found)} (expect 4)")
    print(f"  rational interior diagonals: {[(s, l) for s, l in report.diagonal_exceptions]}")

    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
