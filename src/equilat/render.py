"""Static SVG drawings of the named figures: lattice dots, shaded
quadrilaterals, labeled vertices.  One lattice unit is a fixed 24 px."""

from collections.abc import Callable
from math import ceil, floor

from equilat.figures import NAMED_QUADS
from equilat.geometry import side_swap

# "Fraction" in the annotations is fractions.Fraction, the type of the point
# that side_swap moves.  The annotations that name it are strings, so nothing
# imports it for them.

__all__ = ["UNIT", "FIGURE_PANELS", "figure_names", "render_figure"]

UNIT = 24
PAD = 1  # lattice units of margin around each panel
PANEL_GAP = 36  # px between panels

_FILL = "#4c72b0"
_GRID = "#b0b0b0"

_LABELS = ["O", "A", "B", "C"]
_KITE = NAMED_QUADS["kite-3-15"]


def _trapezoid(name: str) -> dict:
    """Panel of the trapezoid drawing O, A, B, C with legs AB and CO.  It marks
    A' = A - B + C, which ends the base OA' = f of the source triangle OA'C,
    and dashes the cut A'C, from its lower end, that leaves the strip A'ABC."""
    _, (ax, ay), (bx, by), (cx, cy) = q = NAMED_QUADS[name]
    a1 = (ax - bx + cx, ay - by + cy)
    cut = tuple(sorted((a1, (cx, cy)), key=lambda p: (p[1], p[0])))
    return {"polygons": [q], "labels": _LABELS, "dashed": [cut], "marks": [(a1, "A'")]}


def _parallelogram_failure() -> list[dict]:
    """Panels of the rectangle and of its swap on OB, which moves C' to a C
    that is no lattice point.  C is a pair of Fractions, so only this figure
    loads fractions."""
    rect = NAMED_QUADS["rectangle-3-6"]
    c = side_swap(rect, 2)[3]
    return [
        {"polygons": [rect], "labels": ["O", "A", "B", "C'"], "dashed": [rect[::2]]},
        {"polygons": [(*rect[:3], c)], "labels": _LABELS, "dashed": [rect[::2]],
         "marks": [(c, f"({c[0]}, {c[1]})")]},
    ]


# Figure compositions: each name gives a function that builds its panels, so
# a figure is computed only when it is drawn.  Each panel: polygons drawn with
# vertex labels, optional dashed segments, optional marked (possibly
# non-lattice) points.
FIGURE_PANELS: dict[str, Callable[[], list[dict]]] = {
    "rhombus-pair": lambda: [
        {"polygons": [NAMED_QUADS["rhombus-5"]], "labels": _LABELS},
        {"polygons": [NAMED_QUADS["rhombus-5-alt"]], "labels": _LABELS},
    ],
    "kite-3-15": lambda: [{"polygons": [_KITE], "labels": _LABELS, "dashed": [_KITE[::2]]}],
    "trapezoid-20-4-15-3": lambda: [_trapezoid("trapezoid-20-4-15-3")],
    "right-trapezoids": lambda: [
        _trapezoid("right-trapezoid-6-4-3-5"),
        _trapezoid("right-trapezoid-10-3-6-5"),
    ],
    "isosceles-trapezoids": lambda: [
        _trapezoid("isosceles-trapezoid-8-5-2-5"),
        _trapezoid("isosceles-trapezoid-14-5-6-5"),
    ],
    "k1-nested": lambda: [
        {
            "polygons": [NAMED_QUADS[n] for n in ("kite-k1-n18", "kite-k1-n7", "dart-10-5")],
            "labels": None,
        },
    ],
    "parallelogram-failure": _parallelogram_failure,
}


def _escape(text: str) -> str:
    """`html.escape(text, quote=False)` without importing `html`, which
    loads `html.entities` into every command's startup."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def figure_names() -> list[str]:
    return sorted(FIGURE_PANELS)


def _fmt(value: "int | Fraction") -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{float(value):.3f}".rstrip("0").rstrip(".")


class _Panel:
    """One panel's shapes; coordinates are ints or Fractions, as given."""

    def __init__(self, spec: dict):
        self.polygons = spec["polygons"]
        self.labels = spec.get("labels")
        self.dashed = spec.get("dashed", ())
        self.marks = spec.get("marks", ())
        points = [p for part in (*self.polygons, *self.dashed) for p in part]
        xs, ys = zip(*points, *(p for p, _ in self.marks))
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

    def to_px(self, x: "Fraction", y: "Fraction", x_off: int) -> "tuple[Fraction, Fraction]":
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
    panels = [_Panel(spec) for spec in FIGURE_PANELS[name]()]
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
