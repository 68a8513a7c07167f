import html

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from equilat.figures import CLASS_DRAWINGS
from equilat.geometry import dist_sq, signature
from equilat.render import FIGURE_PANELS, _escape, figure_names, render_figure
from equilat.trapezoids import all_equable_trapezoids, lattice_embedding


@given(st.text(alphabet=st.sampled_from("&<>\"'ax;#")))
@example("&<>\"'")
@example("<desc>&amp;</desc>")
def test_escape_matches_html_escape(text):
    assert _escape(text) == html.escape(text, quote=False)


def test_trapezoid_panels_match_the_construction():
    # each trapezoid panel marks A' at distance f from O, so that OA'C is the
    # source triangle, and dashes the cut A'C
    panels = [panel for build in FIGURE_PANELS.values() for panel in build()]
    sols = all_equable_trapezoids()
    assert len(sols) == 5
    for t, f in sols:
        _, drawing = CLASS_DRAWINGS[signature(lattice_embedding(t, f))]
        [panel] = [panel for panel in panels if panel["polygons"] == [drawing]]
        [(a1, label)] = panel["marks"]
        o, _, _, c = drawing
        assert label == "A'"
        assert dist_sq(o, a1) == f**2
        sides_sq = sorted((dist_sq(o, a1), dist_sq(a1, c), dist_sq(c, o)))
        assert sides_sq == [s * s for s in t]
        [cut] = panel["dashed"]
        assert set(cut) == {a1, c}


def test_unknown_figure_lists_the_figures():
    with pytest.raises(KeyError) as exc:
        render_figure("nope")
    assert exc.value.args == (f"unknown figure 'nope'; choose from {figure_names()}",)
