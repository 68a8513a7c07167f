"""`equilat render`: a named figure drawn as SVG."""

from __future__ import annotations

from types import SimpleNamespace

from equilat import render


def build(args: SimpleNamespace) -> dict:
    svg = render.render_figure(args.figure, "equilat render --figure " + args.figure)
    return {"svg": lambda: svg}
