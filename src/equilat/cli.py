"""Command-line interface.

    equilat <pell|kites|trapezoids|cyclic|search|audit|render>
            [--family K1..K4] [--count N] [--p-max N] [--workers N]
            [--format json|csv|svg|text] [--out PATH] [--figure NAME] [--pretty]

Each command's module in `equilat.commands` has a `build(args)` that builds
its data once and returns {format: builder}, where a builder gives the JSON
payload, the CSV header and rows, the text lines or the SVG document, and
audit adds "failed", the cross-checks that do not hold.  `run` imports only
the module of the command it parsed and serializes the requested format to
stdout or --out.  JSON output is canonical: sorted keys, no floating point,
rationals as {"num": ..., "den": ...}; --pretty indents it and needs --format
json.  `to_json` writes compact JSON with CPython's C encoder, `_json`, so only
--pretty, or an interpreter without `_json`, imports the json package.  Errors
go to stderr.  Exit codes: 0 success, 1 domain error, unwritable --out or
failed audit cross-check (named on one stderr line), 2 usage error, 130
interrupted (Ctrl-C).  A command compiles only its own
command module and executes only the equilat modules it uses: see
`_lazy_submodule`.  `--help` and usage errors import no command module.
`_parse_plain` reads a plain command line, a command name and its exact flags
with their values, from the same option table as the argparse parser, so such
a command never imports argparse; help, usage errors, abbreviated flags and
--flag=value are argparse's to parse and to word.

`main`, the console script, runs `run`, flushes stdout and stderr and ends the
process with `os._exit`, skipping the interpreter's teardown (the exit-time
garbage collection and the freeing of every module), which no command needs:
there are no threads or pools and `--out` is closed by its `with` block.  So
no `atexit` handler runs after `main`, and coverage.py measures the CLI only
with `[run] patch = _exit`.  Library callers and tools call `run`, which
returns the exit code and never exits.
"""

from __future__ import annotations

import importlib.util
import io
import os
import sys
from types import SimpleNamespace

import equilat
from equilat.errors import EquilatError

__all__ = ["run", "main"]


def _lazy_submodule(name: str):
    """equilat.<name>, registered in sys.modules and on the package but executed
    on its first attribute read, so each command runs only the modules it uses.
    perfbench/trace_shim.py finds the modules it wraps in sys.modules, which is
    why they are not imported inside the functions that use them.  The
    command modules read them as attributes of the package, which keeps them
    lazy."""
    full = f"equilat.{name}"
    if full not in sys.modules:  # one already imported is used as it is
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(equilat, name, module)
    return sys.modules[full]


cyclic, figures, geometry, kites, pell, render, search, trapezoids = map(_lazy_submodule, (
    "cyclic", "figures", "geometry", "kites", "pell", "render", "search", "trapezoids"))

DEFAULT_P_MAX = 42


def _not_serializable(value):
    """json.JSONEncoder.default: what the encoder calls on a value it cannot write."""
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(payload, pretty: bool) -> str:
    """`payload` as canonical JSON and a newline: sorted keys, ASCII only, and
    compact unless `pretty`, which indents by 2.  Compact output comes from
    `_json.make_encoder`, the C encoder that `json.dumps` itself calls, given
    what `json.dumps(payload, sort_keys=True, separators=(",", ":"))` gives it,
    so the bytes are the same without importing the json package and its
    decoder.  --pretty, which the C encoder indents only from CPython 3.13 on,
    and an interpreter without `_json` use json.dumps."""
    if not pretty:
        try:
            import _json
        except ImportError:
            pass
        else:
            encode = _json.make_encoder(
                {}, _not_serializable, _json.encode_basestring_ascii, None, ":", ",",
                True, False, True)  # sort_keys, skipkeys, allow_nan
            # a list of chunks before 3.12, a tuple of one string from 3.12 on
            return "".join(encode(payload, 0)) + "\n"
    import json  # only --pretty, or no _json, needs it, so it stays out of startup

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
        sys.stdout.flush()  # inside run, so a failed write is its one-line error
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


_N = {"type": int, "metavar": "N"}
_CATALOG_OPTIONS = {
    "--p-max": {**_N, "default": DEFAULT_P_MAX},
    "--workers": {
        **_N, "default": 1, "help": "accepted for compatibility; has no effect (must be >= 1)",
    },
}

# name: (help, formats with the default first, options); equilat.commands.<name>
# builds the output.  options gives {flag: argparse settings}; it is called only
# for the command being run, since some settings read a module that only that
# command loads.
_COMMANDS = {
    "pell": ("print the built-in Pell equation solution streams",
             ("text", "json", "csv"), lambda: {"--count": {**_N, "default": 6}}),
    "kites": ("list kite family members with audit columns",
              ("text", "json", "csv"), lambda: {
                  "--count": {**_N, "default": 4},
                  "--family": {"choices": list(kites.FAMILIES)},
              }),
    "trapezoids": ("list the equable trapezoids with integer sides",
                   ("text", "json", "csv"), lambda: {"--p-max": {
                       **_N, "default": trapezoids.TRAPEZOID_SCAN_BOUND,
                       "help": "source triangle perimeter bound, not the trapezoid's",
                   }}),
    "cyclic": ("enumerate cyclic candidates and solutions", ("text", "json"), dict),
    "search": ("exhaustive catalog of LEQ classes up to a perimeter bound",
               ("text", "json", "csv"), lambda: _CATALOG_OPTIONS),
    "audit": ("cross-check the catalog against the classification results",
              ("text", "json"), lambda: _CATALOG_OPTIONS),
    "render": ("draw a named figure as SVG", ("svg",),
               lambda: {"--figure": {"choices": render.figure_names(), "required": True}}),
}


def _flags(command: str) -> dict[str, dict]:
    """{flag: argparse settings} of `command`, in the order its help lists them.
    Both parsers read it: `_build_parser` and `_parse_plain`."""
    _, formats, options = _COMMANDS[command]
    flags = {"--format": {"choices": formats, "default": formats[0]},
             "--out": {"metavar": "PATH", "default": None}}
    if "json" in formats:
        flags["--pretty"] = {"action": "store_true", "default": False,
                             "help": "indent JSON output (needs --format json)"}
    return {**flags, **options()}


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser, with a real subparser for `command` only.  argparse parses
    with no other, and its help, usage and invalid-choice messages read only
    their name and help line, so the others are None.  argparse is imported
    here, since a plain command line never needs it (see `_parse_plain`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="equilat",
        description="Exact classification toolkit for lattice equable quadrilaterals.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=lambda real, **kwargs: argparse.ArgumentParser(**kwargs) if real else None,
    )
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, real=name == command)
        if p is None:
            continue
        for flag, settings in _flags(name).items():
            p.add_argument(flag, **settings)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `_build_parser` parses a plain argv into, or None when argv
    is not plain.  Plain is a command name, then only that command's exact
    flags: --pretty bare, every other flag followed by a value that does not
    start with "-" and passes the flag's type and choices, and every required
    flag given.  argparse never reads a word that does not start with "-" as a
    flag, and it keeps the last of repeated flags, as this does.  Everything
    else, help, usage errors, abbreviated flags, --flag=value, "--" and negative
    values among them, is left to argparse, which owns its messages."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _flags(argv[0])
    given = {}
    words = iter(argv[1:])
    for flag in words:
        settings = flags.get(flag)
        if settings is None:
            return None
        if settings.get("action") == "store_true":
            given[flag] = True
            continue
        word = next(words, None)
        if word is None or word.startswith("-"):
            return None
        try:
            value = settings.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        given[flag] = value
    if any(settings.get("required") and flag not in given for flag, settings in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, settings.get("default"))
        for flag, settings in flags.items()})


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        # The top-level parser takes no option with a value, so the first command
        # name in argv is the subcommand argparse will parse it with.
        parser = _build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
        try:
            args = parser.parse_args(argv, namespace=SimpleNamespace())
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
        out = importlib.import_module(f"equilat.commands.{args.command}").build(args)
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
    """Run the command line, flush what is left of its output and end the
    process with its exit code, with no interpreter teardown.  What is left is
    only what argparse printed, since `_emit` flushes the data.  If that flush
    fails, or Ctrl-C arrives in it, a successful run exits 1 (130) with one
    stderr line; a failed one has reported its error and keeps its code."""
    code = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, KeyboardInterrupt) as exc:
        if code == 0:
            code = 130 if isinstance(exc, KeyboardInterrupt) else 1
            message = "interrupted" if code == 130 else exc
            try:
                print(f"equilat: {message}", file=sys.stderr, flush=True)
            except (OSError, KeyboardInterrupt):
                pass  # stderr is gone too: the exit code is all that is left
    os._exit(code)


if __name__ == "__main__":
    main()
