"""Run one equilat command with spans recorded around its public functions.

    python3 perfbench/trace_shim.py TRACE_OUT EQUILAT_ARGS...

The shim imports `equilat.cli`, replaces each function in TARGETS by a
wrapper in every equilat module that binds it, runs the command and writes
the trace to TRACE_OUT as JSON:

    {"import_s": float, "counts": {name: int},
     "spans": [[name, start, end, parent_index], ...]}

Spans stay in memory until the command ends.  The exit code is the
command's.  Pool workers forked by `search --workers N` inherit the wrappers
but their spans are never written, so work done in them is not observed.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, count): count names the counter that adds up len(result).
TARGETS = (
    ("cli", "run", None),
    ("search", "enumerate_leqs", "search.classes"),
    ("search", "integer_norm_vectors", "search.vectors"),
    ("search", "get_catalog", None),
    ("search", "audit_theorems", None),
    ("geometry", "classify", None),
    ("geometry", "interior_diagonals", None),
    ("trapezoids", "enumerate_perimeter_dominant", "trapezoids.triangles"),
    ("trapezoids", "lattice_embedding", None),
    ("cyclic", "solutions", None),
    ("cyclic", "realizable_orderings", None),
    ("kites", "generate", None),
    ("pell", "solutions", None),
    ("render", "render_figure", None),
)
# Wrapped only where the search module binds it: calls from there are the raw
# equable hits of the chain walk, while other modules use it for lookups.
SEARCH_ONLY = ("canonical_signature",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, module: str, name: str, fn, count: str | None):
        label = f"{module}.{name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [label, clock(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(f"{module}.errors")
                raise
            finally:
                span[2] = clock()
                self.stack.pop()
            if count is not None:
                self.count(count, len(result))
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("equilat.") and mod is not None
        }
        for module, name, count in TARGETS:
            original = getattr(modules[module], name)
            wrapper = self.wrap(module, name, original, count)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        search = modules["search"]
        for name in SEARCH_ONLY:
            setattr(search, name, self.wrap("search", name, getattr(search, name), None))


def main(argv: list[str]) -> int:
    trace_out, args = argv[0], argv[1:]
    start = time.perf_counter()
    import equilat.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = None  # stays None when run raises; the wrapper counted that error
    try:
        code = equilat.cli.run(args)
    finally:
        if code not in (0, None):
            tracer.count("cli.errors")
        sys.stdout.flush()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "counts": tracer.counts, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
