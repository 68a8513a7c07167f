"""`equilat trapezoids`: the equable trapezoids with integer sides."""

from __future__ import annotations

import argparse
from math import isqrt

from equilat import geometry, trapezoids
from equilat.commands import drawing, quad_json


def build(args: argparse.Namespace) -> dict:
    sols = []
    # Each realized class is shown as its drawing O, A, B, C, whose sides in
    # vertex order are c + f, the published leg AB, c and the leg CO.
    for s in trapezoids.all_equable_trapezoids(args.p_max):
        tag, shown = drawing(trapezoids.lattice_embedding(s))
        edges = zip(shown, shown[1:] + shown[:1])
        sides = tuple(isqrt(geometry.dist_sq(p, q)) for p, q in edges)
        sols.append((s, tag, shown, sides, s.h_terms))
    header = ["a", "b", "c", "d", "f", "h_num", "h_den", "source_triangle", "figure_tag"]
    return {
        "json": lambda: [
            {
                "sides": list(sides), "f": s.f, "c": s.c,
                "h": {"num": h_num, "den": h_den},
                "triangle": list(s.triangle), "figure": tag, "embedding": quad_json(shown),
            }
            for s, tag, shown, sides, (h_num, h_den) in sols
        ],
        "csv": lambda: (header, [
            [*sides, s.f, *h, "-".join(map(str, s.triangle)), tag]
            for s, tag, _, sides, h in sols
        ]),
        "text": lambda: [
            f"{sides} from triangle {s.triangle} with f={s.f}: c={s.c}, "
            f"h={h_num}{'' if h_den == 1 else f'/{h_den}'} [{tag}]"
            for s, tag, _, sides, (h_num, h_den) in sols
        ] + [f"{len(sols)} equable trapezoids (scan bound {args.p_max})"],
    }
