"""Command-line interface.

    equilat <pell|kites|trapezoids|cyclic|search|audit|render>
            [--family K1..K4] [--count N] [--p-max N] [--workers N]
            [--format json|csv|svg|text] [--out PATH] [--figure NAME] [--pretty]

Data goes to stdout (or --out); errors go to stderr.  Exit codes: 0 success,
1 domain error, unwritable --out or failed audit cross-check, 2 usage error,
130 interrupted (Ctrl-C).
JSON output is canonical: sorted keys, no floating point anywhere, rationals
serialized as {"num": ..., "den": ...}.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from equilat import cyclic, kites, pell, render, search, trapezoids
from equilat.errors import EquilatError
from equilat.geometry import LatticeQuad

__all__ = ["run", "main"]

DEFAULT_P_MAX = 42


def _p_max(args: argparse.Namespace) -> int:
    """--p-max when given, else 42."""
    return DEFAULT_P_MAX if args.p_max is None else args.p_max


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise EquilatError("workers must be positive")


def _rat(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _quad_json(q: LatticeQuad) -> list[list[int]]:
    return [[p.x, p.y] for p in q.v]


def to_json(payload, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only --format csv needs it, so it stays out of startup

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------- pell


def _cmd_pell(args: argparse.Namespace) -> None:
    count = 6 if args.count is None else args.count
    rows = []
    for spec in pell.builtin_specs():
        sols = pell.solutions(spec, count)
        rows.append(
            {
                "name": spec.name,
                "alpha": spec.alpha,
                "beta": spec.beta,
                "gamma": spec.gamma,
                "rec": spec.rec,
                "solutions": [[s.n, s.i] for s in sols],
            }
        )
    if args.format == "json":
        _emit(to_json(rows, args.pretty), args.out)
    elif args.format == "csv":
        flat = [
            [r["name"], r["alpha"], r["beta"], r["gamma"], r["rec"], j, s[0], s[1]]
            for r in rows
            for j, s in enumerate(r["solutions"])
        ]
        _emit(_csv_text(["name", "alpha", "beta", "gamma", "rec", "index", "n", "i"], flat), args.out)
    else:
        lines = []
        for r in rows:
            sols = " ".join(f"({n},{i})" for n, i in r["solutions"])
            lines.append(
                f"{r['name']}: {r['alpha']}n^2-{r['beta']}i^2={r['gamma']} rec={r['rec']}: {sols}"
            )
        _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------- kites


def _cmd_kites(args: argparse.Namespace) -> None:
    count = 4 if args.count is None else args.count
    tags = [args.family] if args.family else list(kites.FAMILIES)
    rows = []
    for tag in tags:
        for km in kites.generate(tag, count):
            rows.append(
                {
                    "family": tag,
                    "n": km.sol.n,
                    "i": km.sol.i,
                    "A": [km.A.x, km.A.y],
                    "B": [km.B.x, km.B.y],
                    "C": [km.C.x, km.C.y],
                    "K_A": km.K_A,
                    "a": km.a,
                    "b": km.b,
                    "q_sq": km.q_sq,
                    "convexity": kites.convexity(km).value,
                }
            )
    if args.format == "json":
        _emit(to_json(rows, args.pretty), args.out)
    elif args.format == "csv":
        header = ["family", "n", "i", "Ax", "Ay", "Bx", "By", "Cx", "Cy", "K_A", "a", "b", "q_sq", "convexity"]
        flat = [
            [r["family"], r["n"], r["i"], *r["A"], *r["B"], *r["C"], r["K_A"], r["a"], r["b"], r["q_sq"], r["convexity"]]
            for r in rows
        ]
        _emit(_csv_text(header, flat), args.out)
    else:
        lines = [
            f"{r['family']} n={r['n']} i={r['i']} A={tuple(r['A'])} B={tuple(r['B'])} "
            f"C={tuple(r['C'])} K_A={r['K_A']} a={r['a']} b={r['b']} q^2={r['q_sq']} {r['convexity']}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------- trapezoids


def _cmd_trapezoids(args: argparse.Namespace) -> None:
    bound = trapezoids.TRAPEZOID_SCAN_BOUND if args.p_max is None else args.p_max
    sols = trapezoids.all_equable_trapezoids(bound)
    if args.format == "json":
        rows = []
        for s in sols:
            emb = trapezoids.lattice_embedding(s)
            rows.append(
                {
                    "sides": list(s.quad_sides),
                    "f": s.f,
                    "c": s.c,
                    "h": _rat(s.h),
                    "triangle": list(s.triangle.sides),
                    "figure": s.figure_tag,
                    "embedding": _quad_json(emb) if emb else None,
                }
            )
        _emit(to_json(rows, args.pretty), args.out)
    elif args.format == "csv":
        header = ["a", "b", "c", "d", "f", "h_num", "h_den", "source_triangle", "figure_tag"]
        flat = [
            [*s.quad_sides, s.f, s.h.numerator, s.h.denominator,
             "-".join(map(str, s.triangle.sides)), s.figure_tag or ""]
            for s in sols
        ]
        _emit(_csv_text(header, flat), args.out)
    else:
        lines = [
            f"{s.quad_sides} from triangle {s.triangle.sides} with f={s.f}: "
            f"c={s.c}, h={s.h} [{s.figure_tag}]"
            for s in sols
        ]
        lines.append(f"{len(sols)} equable trapezoids (scan bound {bound})")
        _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------- cyclic


def _cmd_cyclic(args: argparse.Namespace) -> None:
    candidates = cyclic.enumerate_candidates()
    sols = cyclic.solutions()
    if args.format == "json":
        rows = []
        for s in sols:
            w, x, y, z = s.wxyz
            a, b, c, d = s.sides
            rows.append(
                {
                    "w": w, "x": x, "y": y, "z": z,
                    "a": a, "b": b, "c": c, "d": d,
                    "orderings": [
                        {
                            "order": list(order),
                            "realizable": emb is not None,
                            "embedding": _quad_json(emb) if emb else None,
                        }
                        for order, emb in s.orderings
                    ],
                }
            )
        _emit(to_json({"candidates": len(candidates), "solutions": rows}, args.pretty), args.out)
    else:
        lines = [f"{len(candidates)} candidates, {len(sols)} solutions"]
        for s in sols:
            parts = [
                f"{order}{'' if emb is None else ' -> ' + str([(p.x, p.y) for p in emb.v])}"
                for order, emb in s.orderings
            ]
            lines.append(f"wxyz={s.wxyz} sides={s.sides}: " + "; ".join(parts))
        _emit("\n".join(lines) + "\n", args.out)


# ---------------------------------------------------------------- search / audit


def _catalog_payload(catalog: search.LeqCatalog) -> dict:
    classes = []
    for sig, cls in catalog.classes.items():
        cl = cls.classification
        diag = {
            side: [
                {
                    "ends": list(d.ends),
                    "sq": d.sq,
                    "rational": d.rational,
                    "length": d.length,
                }
                for d in getattr(cls.diagonals, side)
            ]
            for side in ("interior", "exterior")
        }
        classes.append(
            {
                "signature": list(sig),
                "vertices": _quad_json(cls.representative),
                "perimeter": cls.perimeter,
                "convex": cl.convex,
                "reflex_index": cl.reflex_index,
                "kite": cl.is_kite,
                "dart": cl.is_dart,
                "parallelogram": cl.is_parallelogram,
                "trapezoid": cl.is_trapezoid,
                "isosceles_trapezoid": cl.is_isosceles_trapezoid,
                "right_trapezoid": cl.is_right_trapezoid,
                "cyclic": cl.is_cyclic,
                "diagonals": diag,
                "embeddings_seen": cls.embeddings_seen,
            }
        )
    return {"p_max": catalog.p_max, "classes": classes}


def _cmd_search(args: argparse.Namespace) -> None:
    _check_workers(args)
    catalog = search.enumerate_leqs(_p_max(args))
    if args.format == "json":
        _emit(to_json(_catalog_payload(catalog), args.pretty), args.out)
    elif args.format == "csv":
        header = ["signature", "perimeter", "convex", "kite", "dart", "parallelogram",
                  "trapezoid", "isosceles_trapezoid", "right_trapezoid", "cyclic"]
        rows = []
        for sig, cls in catalog.classes.items():
            cl = cls.classification
            rows.append([
                " ".join(map(str, sig)), cls.perimeter, cl.convex, cl.is_kite, cl.is_dart,
                cl.is_parallelogram, cl.is_trapezoid, cl.is_isosceles_trapezoid,
                cl.is_right_trapezoid, cl.is_cyclic,
            ])
        _emit(_csv_text(header, rows), args.out)
    else:
        lines = [f"{len(catalog)} classes with perimeter <= {catalog.p_max}"]
        for sig, cls in catalog.classes.items():
            lines.append(
                f"P={cls.perimeter:>3} sig={sig} rep={[(p.x, p.y) for p in cls.representative.v]}"
            )
        _emit("\n".join(lines) + "\n", args.out)


def _cmd_audit(args: argparse.Namespace) -> int:
    _check_workers(args)
    p_max = _p_max(args)
    catalog = search.enumerate_leqs(p_max)
    report = search.audit_theorems(catalog, p_max)
    payload = {
        "p_max": report.p_max,
        "kites_found": sorted(list(s) for s in report.kites_found),
        "kites_expected": sorted(list(s) for s in report.kites_expected),
        "kites_match": report.kites_found == report.kites_expected,
        "trapezoids_found": sorted(list(s) for s in report.trapezoids_found),
        "cyclic_found": sorted(list(s) for s in report.cyclic_found),
        "diagonal_exceptions": [
            {"signature": list(sig), "length": length}
            for sig, length in report.diagonal_exceptions
        ],
    }
    if args.format == "json":
        _emit(to_json(payload, args.pretty), args.out)
    else:
        lines = [
            f"audit at p_max={p_max}:",
            f"  kite classes found:      {len(report.kites_found)}"
            f" (closed-form match: {payload['kites_match']})",
            f"  trapezoid classes found: {len(report.trapezoids_found)}",
            f"  cyclic classes found:    {len(report.cyclic_found)}",
            f"  rational interior diagonals: {len(report.diagonal_exceptions)}",
        ]
        for sig, length in report.diagonal_exceptions:
            lines.append(f"    {sig} has an interior diagonal of length {length}")
        _emit("\n".join(lines) + "\n", args.out)
    if not payload["kites_match"]:
        print("equilat audit: kite classes found differ from the closed-form families",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- render


def _cmd_render(args: argparse.Namespace) -> None:
    command = "equilat render --figure " + args.figure
    _emit(render.render_figure(args.figure, command), args.out)


# ---------------------------------------------------------------- driver

_FORMATS = {
    "pell": ("text", ["text", "json", "csv"]),
    "kites": ("text", ["text", "json", "csv"]),
    "trapezoids": ("text", ["text", "json", "csv"]),
    "cyclic": ("text", ["text", "json"]),
    "search": ("text", ["text", "json", "csv"]),
    "audit": ("text", ["text", "json"]),
    "render": ("svg", ["svg"]),
}

_HANDLERS = {
    "pell": _cmd_pell,
    "kites": _cmd_kites,
    "trapezoids": _cmd_trapezoids,
    "cyclic": _cmd_cyclic,
    "search": _cmd_search,
    "audit": _cmd_audit,
    "render": _cmd_render,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilat",
        description="Exact classification toolkit for lattice equable quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "pell": "print the built-in Pell equation solution streams",
        "kites": "list kite family members with audit columns",
        "trapezoids": "list the equable trapezoids with integer sides",
        "cyclic": "enumerate cyclic candidates and solutions",
        "search": "exhaustive catalog of LEQ classes up to a perimeter bound",
        "audit": "cross-check the catalog against the classification results",
        "render": "draw a named figure as SVG",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        default_fmt, allowed = _FORMATS[name]
        p.add_argument("--format", choices=allowed, default=default_fmt)
        p.add_argument("--out", metavar="PATH", default=None)
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        if name in ("pell", "kites"):
            p.add_argument("--count", type=int, default=None, metavar="N")
        if name == "kites":
            p.add_argument("--family", choices=list(kites.FAMILIES), default=None)
        if name in ("trapezoids", "search", "audit"):
            p.add_argument("--p-max", type=int, default=None, dest="p_max", metavar="N")
        if name in ("search", "audit"):
            p.add_argument("--workers", type=int, default=1, metavar="N",
                           help="accepted for compatibility; has no effect (must be >= 1)")
        if name == "render":
            p.add_argument("--figure", choices=render.figure_names(), required=True)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _HANDLERS[args.command](args)
    except (EquilatError, ValueError, KeyError, OSError) as exc:
        print(f"equilat {args.command}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"equilat {args.command}: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as shells report it
    return 0 if code is None else code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
