"""Property tests: the CLI's report encoder and error line write exactly what json.dumps writes."""

import _json
import contextlib
import enum
import io
import json
import json.encoder
import math

import pytest

from relgauge import cli
from relgauge.errors import OutOfRange

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


_LONG = [i / 7.0 for i in range(3 * cli._BLOCK)]


@pytest.mark.parametrize(
    "item",
    [
        lambda i: [i, i % 5],
        lambda i: {"tau": i / 3.0, "failures": i % 7, "name": "p"},
        lambda i: i,
        lambda i: i % 2 == 0,
        lambda i: None if i % 3 else str(i),
        lambda i: _Code.TWO if i % 2 else 0.5,
    ],
    ids=["pairs", "dicts", "ints", "bools", "mixed-scalars", "scalar-subclass"],
)
def test_emit_lists_of_more_than_one_block_match_json_dumps(tmp_path, item):
    """A list's items are joined a block at a time, whatever they are: the text is json.dumps's."""
    report = {"a": 1, "xs": [item(i) for i in range(2 * cli._BLOCK + 3)], "z": []}
    path = tmp_path / "report.json"
    cli._emit(report, str(path))
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (object(), TypeError, "^Object of type object is not JSON serializable$"),
        (
            math.inf,
            OutOfRange,
            f"^report field z\\[{3 * cli._BLOCK - 1}\\] holds a value that is not a finite number: "
            "Out of range float values are not JSON compliant: inf$",
        ),
    ],
    ids=["type-error", "out-of-range"],
)
def test_emit_error_in_the_last_block_writes_nothing(tmp_path, bad, error, message):
    """A report longer than one block with a bad value in its last: nothing on stdout, no output file."""
    report = {"a": _LONG, "z": _LONG[:-1] + [bad]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(error, match=message):
        cli._emit(report, None)
    assert out.getvalue() == ""
    path = tmp_path / "report.json"
    with pytest.raises(error, match=message):
        cli._emit(report, str(path))
    assert not path.exists()


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
