"""`equilat cyclic`: the cyclic candidates and solutions."""

from __future__ import annotations

from types import SimpleNamespace

from equilat import cyclic
from equilat.commands import drawing, quad_json


def build(args: SimpleNamespace) -> dict:
    candidates = cyclic.enumerate_candidates()
    sols = []
    for wxyz in cyclic.solutions():
        sides = cyclic.sides(wxyz)
        # each realized order is shown as its class's drawing
        orderings = [(order, emb and drawing(emb)[1])
                     for order, emb in cyclic.realizable_orderings(sides)]
        sols.append((wxyz, sides, orderings))
    return {
        "json": lambda: {
            "candidates": len(candidates),
            "solutions": [
                {
                    **dict(zip("wxyz", wxyz)),
                    **dict(zip("abcd", sides)),
                    "orderings": [
                        {"order": list(order), "realizable": emb is not None,
                         "embedding": quad_json(emb)}
                        for order, emb in orderings
                    ],
                }
                for wxyz, sides, orderings in sols
            ],
        },
        "text": lambda: [f"{len(candidates)} candidates, {len(sols)} solutions"] + [
            f"wxyz={wxyz} sides={sides}: " + "; ".join(
                f"{order}" + ("" if emb is None else f" -> {list(emb)}")
                for order, emb in orderings
            )
            for wxyz, sides, orderings in sols
        ],
    }
