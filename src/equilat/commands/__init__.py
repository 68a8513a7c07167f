"""One module per `equilat` command, whose `build(args)` returns {format:
builder}; `cli.run` imports only the parsed command's.  They read the domain
modules as attributes of the package (`from equilat import search`), which
`cli` registers lazily, and so execute only those they use.  They are not in
the domain modules, since `trapezoids` and `cyclic` must not import `figures`.
"""

from __future__ import annotations

from types import SimpleNamespace

from equilat import figures, geometry
from equilat.errors import EquilatError, InconsistencyError


def check_workers(args: SimpleNamespace) -> None:
    if args.workers < 1:
        raise EquilatError("workers must be positive")


def quad_json(q: geometry.LatticeQuad | None) -> list[list[int]] | None:
    return None if q is None else [list(p) for p in q]


def drawing(q: geometry.LatticeQuad | None) -> tuple[str, geometry.LatticeQuad]:
    """The name and drawing shown for the class of the realized quad q."""
    shown = q and figures.CLASS_DRAWINGS.get(geometry.signature(q))
    if shown is None:
        raise InconsistencyError(f"no named drawing of {q}")
    return shown
