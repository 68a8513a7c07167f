"""`equilat render`: a named figure drawn as SVG."""

from __future__ import annotations

import argparse

from equilat import render


def build(args: argparse.Namespace) -> dict:
    svg = render.render_figure(args.figure, "equilat render --figure " + args.figure)
    return {"svg": lambda: svg}
