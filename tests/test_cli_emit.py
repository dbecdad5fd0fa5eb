"""Property tests: the CLI's report encoder and error line write exactly what json.dumps writes."""

import _json
import contextlib
import enum
import io
import json
import json.encoder

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


class _Kind(str):
    pass


class _Level(float):
    pass


class _Code(enum.IntEnum):
    TWO = 2


def test_emit_writes_scalar_subclasses_as_json_dumps_does():
    tree = {"kind": _Kind("jm"), "level": _Level(0.5), "items": [_Code.TWO, _Kind("\u00e9"), 1.5]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(tree, None)
    assert out.getvalue() == json.dumps(tree, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with pytest.raises(TypeError) as raised:
        json.dumps({"x": [object()]})
    with pytest.raises(TypeError) as written:
        cli._emit({"x": [object()]}, None)
    assert str(written.value) == str(raised.value)


def test_encoder_is_the_one_json_uses():
    """cli takes the C function from _json; it is the one json.encoder hands out."""
    assert _json.encode_basestring_ascii is json.encoder.encode_basestring_ascii


# Messages with what json escapes: quotes, backslashes, controls, non-ASCII and astral characters.
_ESCAPED = st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028", "\U0001f600"])
_MESSAGES = st.text(st.characters(codec="utf-8") | _ESCAPED)
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True) | _MESSAGES.filter(
    lambda name: "\x00" not in name  # type() refuses a class name with a null character
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    name=_NAMES,
    message=_MESSAGES,
    code=st.sampled_from([1, 2, 3]),
)
def test_error_line_matches_json_dumps(name, message, code):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli._fail(type(name, (Exception,), {})(message), code) == code
    line = json.dumps({"error": name, "message": message, "exit_code": code})
    assert err.getvalue() == line + "\n"
