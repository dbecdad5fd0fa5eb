"""Property test: the CLI's report encoder writes exactly json.dumps' indented layout."""

import contextlib
import io
import json

import pytest

from relgauge import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e22]
)
_SCALARS = st.none() | st.booleans() | st.integers() | st.text() | _FLOATS
_TREES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(_FLOATS)
        | st.lists(st.integers())
        | st.lists(st.text())
        | st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_TREES)
def test_emit_matches_json_dumps(tree):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(tree, None)
    assert out.getvalue() == json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n"
