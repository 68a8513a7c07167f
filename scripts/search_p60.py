#!/usr/bin/env python3
"""Search at p_max 60 (any bound in 12..1000 with --p-max): finds the concave
class with an external diagonal of length 12 and prints the full catalog with
diagonal data."""

import argparse
import time

from equilat import search
from equilat.figures import NAMED_QUADS
from equilat.geometry import signature


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p-max", type=int, default=60, dest="p_max")
    args = parser.parse_args()

    start = time.monotonic()
    catalog = search.enumerate_leqs(args.p_max)
    elapsed = time.monotonic() - start
    print(f"{len(catalog)} classes with perimeter <= {args.p_max} ({elapsed:.2f}s)")

    for sig, cls in catalog.classes.items():
        diag = ", ".join(
            f"{'int' if d in cls.diagonals.interior else 'ext'} {d.sq}"
            + (f" (={d.length})" if d.rational else "")
            for d in (*cls.diagonals.interior, *cls.diagonals.exterior)
        )
        print(f"  P={cls.perimeter:>3} {sig} rep={[(p.x, p.y) for p in cls.representative.v]} diag: {diag}")

    concave = signature(NAMED_QUADS["concave-60"])
    print(f"concave example with external diagonal 12 present: {concave in catalog}")


if __name__ == "__main__":
    main()
