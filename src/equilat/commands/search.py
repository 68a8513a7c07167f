"""`equilat search`: the exhaustive catalog of LEQ classes up to a perimeter bound."""

from __future__ import annotations

from types import SimpleNamespace

from equilat import search
from equilat.commands import check_workers, quad_json

# The classification flags of a search class, as its JSON row and CSV name them.
_FLAGS = ("convex", "kite", "dart", "parallelogram", "trapezoid",
          "isosceles_trapezoid", "right_trapezoid", "cyclic")


def build(args: SimpleNamespace) -> dict:
    check_workers(args)
    rows = [
        {
            "signature": list(cls.signature),
            "vertices": quad_json(cls.representative),
            "perimeter": cls.perimeter,
            "convex": cls.classification.convex,
            "reflex_index": cls.classification.reflex_index,
            **{flag: getattr(cls.classification, "is_" + flag) for flag in _FLAGS[1:]},
            "diagonals": {
                side: [
                    {"ends": list(d.ends), "sq": d.sq, "rational": d.rational, "length": d.length}
                    for d in getattr(cls.diagonals, side)
                ]
                for side in ("interior", "exterior")
            },
            "embeddings_seen": cls.embeddings_seen,
        }
        for cls in search.enumerate_leqs(args.p_max).values()
    ]
    return {
        "json": lambda: {"p_max": args.p_max, "classes": rows},
        "csv": lambda: (["signature", "perimeter", *_FLAGS], [
            [" ".join(map(str, r["signature"])), r["perimeter"], *(r[flag] for flag in _FLAGS)]
            for r in rows
        ]),
        "text": lambda: [f"{len(rows)} classes with perimeter <= {args.p_max}"] + [
            f"P={r['perimeter']:>3} sig={tuple(r['signature'])} "
            f"rep={[tuple(v) for v in r['vertices']]}"
            for r in rows
        ],
    }
