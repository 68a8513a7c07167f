"""`equilat trapezoids`: the equable trapezoids with integer sides."""

from math import isqrt
from types import SimpleNamespace

from equilat import geometry, trapezoids
from equilat.commands import drawing, quad_json


def build(args: SimpleNamespace) -> dict:
    sols = []
    # Each realized class is shown as its drawing O, A, B, C, whose sides in
    # vertex order are c + f, the published leg AB, c and the leg CO.
    for t, f in trapezoids.all_equable_trapezoids(args.p_max):
        tag, shown = drawing(trapezoids.lattice_embedding(t, f))
        edges = zip(shown, shown[1:] + shown[:1])
        sides = tuple(isqrt(geometry.dist_sq(p, q)) for p, q in edges)
        c, h = trapezoids.strip_width(t, f), trapezoids.height_terms(t, f)
        sols.append((t, f, c, h, tag, shown, sides))
    header = ["a", "b", "c", "d", "f", "h_num", "h_den", "source_triangle", "figure_tag"]
    return {
        "json": lambda: [
            {
                "sides": list(sides), "f": f, "c": c,
                "h": {"num": h_num, "den": h_den},
                "triangle": list(t), "figure": tag, "embedding": quad_json(shown),
            }
            for t, f, c, (h_num, h_den), tag, shown, sides in sols
        ],
        "csv": lambda: (header, [
            [*sides, f, *h, "-".join(map(str, t)), tag]
            for t, f, _, h, tag, _, sides in sols
        ]),
        "text": lambda: [
            f"{sides} from triangle {t} with f={f}: c={c}, "
            f"h={h_num}{'' if h_den == 1 else f'/{h_den}'} [{tag}]"
            for t, f, c, (h_num, h_den), tag, _, sides in sols
        ] + [f"{len(sols)} equable trapezoids (scan bound {args.p_max})"],
    }
