"""`equilat kites`: kite family members with audit columns."""

from types import SimpleNamespace

from equilat import geometry, kites


def build(args: SimpleNamespace) -> dict:
    tags = [args.family] if args.family else list(kites.FAMILIES)
    rows = [
        {
            "family": tag, "n": km.sol.n, "i": km.sol.i,
            "A": list(km.A), "B": list(km.B), "C": list(km.C),
            "K_A": km.K_A, "a": km.a, "b": km.b, "q_sq": km.family.q_sq,
            "convexity": "dart" if geometry.classify(km.quad()).is_dart else "convex",
        }
        for tag in tags
        for km in kites.generate(tag, args.count)
    ]
    header = ["family", "n", "i", "Ax", "Ay", "Bx", "By", "Cx", "Cy",
              "K_A", "a", "b", "q_sq", "convexity"]
    return {
        "json": lambda: rows,
        "csv": lambda: (header, [
            [r["family"], r["n"], r["i"], *r["A"], *r["B"], *r["C"],
             r["K_A"], r["a"], r["b"], r["q_sq"], r["convexity"]]
            for r in rows
        ]),
        "text": lambda: [
            f"{r['family']} n={r['n']} i={r['i']} A={tuple(r['A'])} B={tuple(r['B'])} "
            f"C={tuple(r['C'])} K_A={r['K_A']} a={r['a']} b={r['b']} q^2={r['q_sq']} "
            f"{r['convexity']}"
            for r in rows
        ],
    }
