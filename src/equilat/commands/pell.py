"""`equilat pell`: the built-in Pell equation solution streams."""

from __future__ import annotations

from types import SimpleNamespace

from equilat import pell


def build(args: SimpleNamespace) -> dict:
    keys = ("name", "alpha", "beta", "gamma", "rec")
    rows = [
        {
            **{key: getattr(spec, key) for key in keys},
            "solutions": [[s.n, s.i] for s in pell.solutions(spec, args.count)],
        }
        for spec in pell.SPECS.values()
    ]
    return {
        "json": lambda: rows,
        "csv": lambda: ([*keys, "index", "n", "i"], [
            [*(r[key] for key in keys), j, *s]
            for r in rows
            for j, s in enumerate(r["solutions"])
        ]),
        "text": lambda: [
            f"{r['name']}: {r['alpha']}n^2-{r['beta']}i^2={r['gamma']} rec={r['rec']}: "
            + " ".join(f"({n},{i})" for n, i in r["solutions"])
            for r in rows
        ],
    }
