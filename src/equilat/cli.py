"""Command-line interface.

    equilat <pell|kites|trapezoids|cyclic|search|audit|render>
            [--family K1..K4] [--count N] [--p-max N] [--workers N]
            [--format json|csv|svg|text] [--out PATH] [--figure NAME] [--pretty]

Each command builds its data once and returns {format: builder}, where a
builder gives the JSON payload, the CSV header and rows, the text lines or the
SVG document, and audit adds "failed", the cross-checks that do not hold.
`run` serializes the requested format to stdout or --out.  JSON output is
canonical: sorted keys, no floating point, rationals as {"num": ..., "den": ...};
--pretty indents it and needs --format json.  Errors go to stderr.  Exit codes:
0 success, 1 domain error, unwritable --out or failed audit cross-check (named
on one stderr line), 2 usage error, 130 interrupted (Ctrl-C).  A command
executes only the equilat modules it uses: see `_lazy_submodule`.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys

import equilat
from equilat.errors import EquilatError

__all__ = ["run", "main"]


def _lazy_submodule(name: str):
    """equilat.<name>, registered in sys.modules and on the package but executed
    on its first attribute read, so each command runs only the modules it uses.
    perfbench/trace_shim.py finds the modules it wraps in sys.modules, which is
    why they are not imported inside the functions that use them."""
    full = f"equilat.{name}"
    if full not in sys.modules:  # one already imported is used as it is
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(equilat, name, module)
    return sys.modules[full]


cyclic, geometry, kites, pell, render, search, trapezoids = map(_lazy_submodule, (
    "cyclic", "geometry", "kites", "pell", "render", "search", "trapezoids"))

DEFAULT_P_MAX = 42


def _check_workers(args: argparse.Namespace) -> None:
    if args.workers < 1:
        raise EquilatError("workers must be positive")


def _quad_json(q: geometry.LatticeQuad | None) -> list[list[int]] | None:
    return None if q is None else [[p.x, p.y] for p in q]


def to_json(payload, pretty: bool) -> str:
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(payload, sort_keys=True, **layout) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv  # only --format csv needs it, so it stays out of startup

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


# format: what turns the data a command built, and the --pretty flag, into output
_SERIALIZERS = {
    "json": to_json,
    "csv": lambda data, pretty: _csv_text(*data),
    "text": lambda lines, pretty: "\n".join(lines) + "\n",
    "svg": lambda svg, pretty: svg,
}


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_pell(args: argparse.Namespace) -> dict:
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


def _cmd_kites(args: argparse.Namespace) -> dict:
    tags = [args.family] if args.family else list(kites.FAMILIES)
    rows = [
        {
            "family": tag, "n": km.sol.n, "i": km.sol.i,
            "A": list(km.A), "B": list(km.B), "C": list(km.C),
            "K_A": km.K_A, "a": km.a, "b": km.b, "q_sq": km.family.q_sq,
            "convexity": kites.convexity(km).value,
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


def _cmd_trapezoids(args: argparse.Namespace) -> dict:
    sols = trapezoids.all_equable_trapezoids(args.p_max)
    header = ["a", "b", "c", "d", "f", "h_num", "h_den", "source_triangle", "figure_tag"]
    return {
        "json": lambda: [
            {
                "sides": list(s.quad_sides), "f": s.f, "c": s.c,
                "h": {"num": s.h.numerator, "den": s.h.denominator},
                "triangle": list(s.triangle.sides), "figure": s.figure_tag,
                "embedding": _quad_json(trapezoids.lattice_embedding(s)),
            }
            for s in sols
        ],
        "csv": lambda: (header, [
            [*s.quad_sides, s.f, s.h.numerator, s.h.denominator,
             "-".join(map(str, s.triangle.sides)), s.figure_tag or ""]
            for s in sols
        ]),
        "text": lambda: [
            f"{s.quad_sides} from triangle {s.triangle.sides} with f={s.f}: "
            f"c={s.c}, h={s.h} [{s.figure_tag}]"
            for s in sols
        ] + [f"{len(sols)} equable trapezoids (scan bound {args.p_max})"],
    }


def _cmd_cyclic(args: argparse.Namespace) -> dict:
    candidates = cyclic.enumerate_candidates()
    sols = cyclic.solutions()
    return {
        "json": lambda: {
            "candidates": len(candidates),
            "solutions": [
                {
                    **dict(zip("wxyz", s.wxyz)),
                    **dict(zip("abcd", s.sides)),
                    "orderings": [
                        {"order": list(order), "realizable": emb is not None,
                         "embedding": _quad_json(emb)}
                        for order, emb in s.orderings
                    ],
                }
                for s in sols
            ],
        },
        "text": lambda: [f"{len(candidates)} candidates, {len(sols)} solutions"] + [
            f"wxyz={s.wxyz} sides={s.sides}: " + "; ".join(
                f"{order}" + ("" if emb is None else f" -> {[(p.x, p.y) for p in emb]}")
                for order, emb in s.orderings
            )
            for s in sols
        ],
    }


# The classification flags of a search class, as its JSON row and CSV name them.
_FLAGS = ("convex", "kite", "dart", "parallelogram", "trapezoid",
          "isosceles_trapezoid", "right_trapezoid", "cyclic")


def _cmd_search(args: argparse.Namespace) -> dict:
    _check_workers(args)
    rows = [
        {
            "signature": list(cls.signature),
            "vertices": _quad_json(cls.representative),
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


def _cmd_audit(args: argparse.Namespace) -> dict:
    _check_workers(args)
    report = search.audit_theorems(args.p_max)
    kites_match = report.kites_found == report.kites_expected
    payload = {
        "p_max": report.p_max,
        **{
            key: sorted(map(list, getattr(report, key)))
            for key in ("kites_found", "kites_expected", "trapezoids_found", "cyclic_found")
        },
        "kites_match": kites_match,
        "diagonal_exceptions": [
            {"signature": list(sig), "length": length}
            for sig, length in report.diagonal_exceptions
        ],
    }
    return {
        "json": lambda: payload,
        "text": lambda: [
            f"audit at p_max={report.p_max}:",
            f"  kite classes found:      {len(report.kites_found)}"
            f" (closed-form match: {kites_match})",
            f"  trapezoid classes found: {len(report.trapezoids_found)}",
            f"  cyclic classes found:    {len(report.cyclic_found)}",
            f"  rational interior diagonals: {len(report.diagonal_exceptions)}",
        ] + [
            f"    {sig} has an interior diagonal of length {length}"
            for sig, length in report.diagonal_exceptions
        ],
        "failed": report.failed,
    }


def _cmd_render(args: argparse.Namespace) -> dict:
    svg = render.render_figure(args.figure, "equilat render --figure " + args.figure)
    return {"svg": lambda: svg}


_N = {"type": int, "metavar": "N"}
_CATALOG_OPTIONS = {
    "--p-max": {**_N, "default": DEFAULT_P_MAX},
    "--workers": {
        **_N, "default": 1, "help": "accepted for compatibility; has no effect (must be >= 1)",
    },
}

# name: (handler, help, formats with the default first, options).  options gives
# {flag: argparse settings}; it is called only for the command being run, since
# some settings read a module that only that command loads.
_COMMANDS = {
    "pell": (_cmd_pell, "print the built-in Pell equation solution streams",
             ("text", "json", "csv"), lambda: {"--count": {**_N, "default": 6}}),
    "kites": (_cmd_kites, "list kite family members with audit columns",
              ("text", "json", "csv"), lambda: {
                  "--count": {**_N, "default": 4},
                  "--family": {"choices": list(kites.FAMILIES)},
              }),
    "trapezoids": (_cmd_trapezoids, "list the equable trapezoids with integer sides",
                   ("text", "json", "csv"), lambda: {"--p-max": {
                       **_N, "default": trapezoids.TRAPEZOID_SCAN_BOUND,
                       "help": "source triangle perimeter bound, not the trapezoid's",
                   }}),
    "cyclic": (_cmd_cyclic, "enumerate cyclic candidates and solutions", ("text", "json"), dict),
    "search": (_cmd_search, "exhaustive catalog of LEQ classes up to a perimeter bound",
               ("text", "json", "csv"), lambda: _CATALOG_OPTIONS),
    "audit": (_cmd_audit, "cross-check the catalog against the classification results",
              ("text", "json"), lambda: _CATALOG_OPTIONS),
    "render": (_cmd_render, "draw a named figure as SVG", ("svg",),
               lambda: {"--figure": {"choices": render.figure_names(), "required": True}}),
}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser, with options only on the subparser of `command`: argparse
    parses no other, and the others keep their help line."""
    parser = argparse.ArgumentParser(
        prog="equilat",
        description="Exact classification toolkit for lattice equable quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)
        if "json" in formats:
            p.add_argument("--pretty", action="store_true",
                           help="indent JSON output (needs --format json)")
        for flag, settings in options().items():
            p.add_argument(flag, **settings)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser takes no option with a value, so the first command
    # name in argv is the subcommand argparse will parse it with.
    parser = _build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "pretty", False) and args.format != "json":
        print(f"equilat {args.command}: --pretty needs --format json", file=sys.stderr)
        return 2
    # Pell and kite values outgrow CPython's limit on int-to-str conversion
    # (4300 digits by default, since 3.11): pell --count 3500 does.  So the
    # command builds and writes its output without the limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        out = _COMMANDS[args.command][0](args)
        data = out[args.format]()
        _emit(_SERIALIZERS[args.format](data, getattr(args, "pretty", False)), args.out)
    except (EquilatError, ValueError, KeyError, OSError) as exc:
        print(f"equilat {args.command}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"equilat {args.command}: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as shells report it
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if out.get("failed"):
        print(f"equilat {args.command}: failed cross-checks: {', '.join(out['failed'])}",
              file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
