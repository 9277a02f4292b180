"""SVG charts: the text they embed is escaped as the standard library would."""
from hypothesis import given
from hypothesis import strategies as st
from reference_ops import escape as reference_escape

from marketgraph.charts import escape


@given(st.text(alphabet=st.sampled_from("&<>;amp#x\"' é") | st.characters()))
def test_escape_equals_the_standard_library_escape(text):
    assert escape(text) == reference_escape(text)
