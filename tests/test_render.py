import html

from hypothesis import example, given
from hypothesis import strategies as st

from equilat.render import _escape


@given(st.text(alphabet=st.sampled_from("&<>\"'ax;#")))
@example("&<>\"'")
@example("<desc>&amp;</desc>")
def test_escape_matches_html_escape(text):
    assert _escape(text) == html.escape(text, quote=False)
