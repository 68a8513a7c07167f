"""Static SVG drawings of the named figures: lattice dots, shaded
quadrilaterals, labeled vertices.  One lattice unit is a fixed 24 px."""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from equilat.figures import NAMED_QUADS
from equilat.geometry import reflect_point

__all__ = ["UNIT", "FIGURE_PANELS", "figure_names", "render_figure"]

UNIT = 24
PAD = 1  # lattice units of margin around each panel
PANEL_GAP = 36  # px between panels

_FILL = "#4c72b0"
_GRID = "#b0b0b0"

# parallelogram-failure: A reflected in the rectangle's diagonal OB is no lattice point
_O, _A, _B, _ = NAMED_QUADS["rectangle-3-6"]
_C = reflect_point(_A, _O, _B)

# Figure compositions.  Each panel: polygons drawn with vertex labels,
# optional dashed segments, optional marked (possibly non-lattice) points.
FIGURE_PANELS: dict[str, list[dict]] = {
    "rhombus-pair": [
        {"polygons": [NAMED_QUADS["rhombus-5"]], "labels": ["O", "A", "B", "C"]},
        {"polygons": [NAMED_QUADS["rhombus-5-alt"]], "labels": ["O", "A", "B", "C"]},
    ],
    "kite-3-15": [
        {
            "polygons": [NAMED_QUADS["kite-3-15"]],
            "labels": ["O", "A", "B", "C"],
            "dashed": [((0, 0), (12, 12))],
        },
    ],
    "trapezoid-20-4-15-3": [
        {
            "polygons": [NAMED_QUADS["trapezoid-20-4-15-3"]],
            "labels": ["O", "A", "B", "C"],
            "dashed": [((0, 3), (4, 3))],
            "marks": [((4, 3), "A'")],
        },
    ],
    "right-trapezoids": [
        {"polygons": [NAMED_QUADS["right-trapezoid-6-4-3-5"]], "labels": ["O", "A", "B", "C"],
         "dashed": [((3, 0), (3, 4))], "marks": [((3, 0), "A'")]},
        {"polygons": [NAMED_QUADS["right-trapezoid-10-3-6-5"]], "labels": ["O", "A", "B", "C"],
         "dashed": [((4, 0), (4, 3))], "marks": [((4, 0), "A'")]},
    ],
    "isosceles-trapezoids": [
        {"polygons": [NAMED_QUADS["isosceles-trapezoid-8-5-2-5"]], "labels": ["O", "A", "B", "C"],
         "dashed": [((6, 0), (3, 4))], "marks": [((6, 0), "A'")]},
        {"polygons": [NAMED_QUADS["isosceles-trapezoid-14-5-6-5"]], "labels": ["O", "A", "B", "C"],
         "dashed": [((8, 0), (4, 3))], "marks": [((8, 0), "A'")]},
    ],
    "k1-nested": [
        {
            "polygons": [
                NAMED_QUADS["kite-k1-n18"],
                NAMED_QUADS["kite-k1-n7"],
                NAMED_QUADS["dart-10-5"],
            ],
            "labels": None,
        },
    ],
    "parallelogram-failure": [
        {"polygons": [NAMED_QUADS["rectangle-3-6"]], "labels": ["O", "A", "B", "C'"],
         "dashed": [((0, 0), (3, 6))]},
        {
            "polygons": [(_O, _A, _B, _C)],
            "labels": ["O", "A", "B", "C"],
            "dashed": [((0, 0), (3, 6))],
            "marks": [(_C, f"({_C[0]}, {_C[1]})")],
        },
    ],
}


def _escape(text: str) -> str:
    """`html.escape(text, quote=False)` without importing `html`, which
    loads `html.entities` into every command's startup."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def figure_names() -> list[str]:
    return sorted(FIGURE_PANELS)


def _coords(v) -> tuple[Fraction, Fraction]:
    x, y = v
    return Fraction(x), Fraction(y)


def _fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.3f}".rstrip("0").rstrip(".")


class _Panel:
    def __init__(self, spec: dict):
        self.polygons = [[_coords(v) for v in poly] for poly in spec["polygons"]]
        self.labels = spec.get("labels")
        self.dashed = [(_coords(a), _coords(b)) for a, b in spec.get("dashed", ())]
        self.marks = [(_coords(p), text) for p, text in spec.get("marks", ())]
        xs = [x for poly in self.polygons for x, _ in poly]
        ys = [y for poly in self.polygons for _, y in poly]
        for (ax, ay), (bx, by) in self.dashed:
            xs += [ax, bx]
            ys += [ay, by]
        for (px, py), _ in self.marks:
            xs.append(px)
            ys.append(py)
        self.min_x = floor(min(xs)) - PAD
        self.max_x = ceil(max(xs)) + PAD
        self.min_y = floor(min(ys)) - PAD
        self.max_y = ceil(max(ys)) + PAD

    @property
    def width(self) -> int:
        return (self.max_x - self.min_x) * UNIT

    @property
    def height(self) -> int:
        return (self.max_y - self.min_y) * UNIT

    def to_px(self, x: Fraction, y: Fraction, x_off: int) -> tuple[Fraction, Fraction]:
        return (x - self.min_x) * UNIT + x_off, (self.max_y - y) * UNIT

    def svg(self, x_off: int) -> list[str]:
        parts = []
        # the lattice dots sit at integer pixels, so no Fraction is needed
        for gx in range(self.min_x, self.max_x + 1):
            cx = (gx - self.min_x) * UNIT + x_off
            for gy in range(self.min_y, self.max_y + 1):
                cy = (self.max_y - gy) * UNIT
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" fill="{_GRID}"/>')
        for poly in self.polygons:
            pts = " ".join(
                f"{_fmt(px)},{_fmt(py)}"
                for px, py in (self.to_px(x, y, x_off) for x, y in poly)
            )
            parts.append(
                f'<polygon points="{pts}" fill="{_FILL}" fill-opacity="0.15" '
                f'stroke="{_FILL}" stroke-width="2"/>'
            )
        for (ax, ay), (bx, by) in self.dashed:
            x1, y1 = self.to_px(ax, ay, x_off)
            x2, y2 = self.to_px(bx, by, x_off)
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="#333" stroke-width="1.5" stroke-dasharray="6,4"/>'
            )
        for poly in self.polygons:
            for i, (x, y) in enumerate(poly):
                cx, cy = self.to_px(x, y, x_off)
                parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="{_FILL}"/>')
                if self.labels:
                    parts.append(
                        f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" '
                        f'font-size="15" font-family="sans-serif">{_escape(self.labels[i])}</text>'
                    )
        for (px, py), text in self.marks:
            cx, cy = self.to_px(px, py, x_off)
            parts.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4.5" fill="none" '
                f'stroke="#c44" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_fmt(cx + 7)}" y="{_fmt(cy + 14)}" '
                f'font-size="13" font-family="sans-serif" fill="#c44">{_escape(text)}</text>'
            )
        return parts


def render_figure(name: str, command: str = "") -> str:
    """SVG document for one named figure; multi-panel figures are laid out
    side by side.  The generating command is embedded as a comment."""
    if name not in FIGURE_PANELS:
        raise KeyError(f"unknown figure {name!r}; choose from {figure_names()}")
    panels = [_Panel(spec) for spec in FIGURE_PANELS[name]]
    width = sum(p.width for p in panels) + PANEL_GAP * (len(panels) - 1)
    height = max(p.height for p in panels)

    body = []
    x_off = 0
    for panel in panels:
        body.extend(panel.svg(x_off))
        x_off += panel.width + PANEL_GAP

    # XML comments cannot contain "--", so the generating command is embedded
    # in the SVG-native <desc> element instead
    desc = f"<desc>{_escape(command)}</desc>" if command else ""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f"{desc}\n" + "\n".join(body) + "\n</svg>\n"
    )
