"""Property test: the columnar fast path reads exactly what the row-by-row reader reads."""

import csv

import pytest

from relgauge import failure_data
from relgauge.errors import RelgaugeError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

LAYOUTS = [
    (("epoch", float),),
    (("tau", float), ("corrected", int)),
    (("run", int), ("p", float), ("y", int)),
    (("duration", float), ("outcome", str)),
    (("outcome", str),),
]
# Tokens each callable accepts, some with characters that str.splitlines
# would split on or that float and int strip.
_VALID = {
    float: ["1", "1.5", " 2 ", "1e3", "1_0", "nan", "inf", "-0.5", "3\v", "4\f", "5\x85", "6 "],
    int: ["0", "1", " 7 ", "1_0", "-3", "5 ", "2\x1c"[:1]],
    str: ["success", "Failure", " x ", "", "a\x1eb", '"q"', 'a"b'],
}
_LONG = csv.field_size_limit() + 1
# Tokens that may break a row: quotes, separators and control characters,
# NUL, values no callable takes, and fields past csv's and int's limits.
_ODD = st.sampled_from(
    ['"1.5"', '"', "1\x1c", "\x1f2", "\x1d", "9\x00", "\x00", "x", "", " ", "1.5.2", "0x1f",
     "9" * _LONG, " " * _LONG + "1", "1" * 4301, "1\r2", "1\n2", "1\r\n", " "]
) | st.text(alphabet='0123456789.-e_ "\r\n\t\v\f\x00\x1c\x1d\x1e\x1f\x85  ,', max_size=5)
_EDITS = st.sampled_from(["odd token", "extra field", "missing field", "blank line", "spaces line"])


@st.composite
def _csv_texts(draw):
    columns = draw(st.sampled_from(LAYOUTS))
    names = ",".join(name for name, _ in columns)
    header = draw(st.sampled_from([names, names, names.upper(), f" {names} ", "x"]))
    rows = [
        [draw(st.sampled_from(_VALID[kind])) for _, kind in columns]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for edit in draw(st.lists(_EDITS, max_size=2)) if rows else []:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if edit == "odd token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
        elif edit == "extra field":
            row.append(draw(st.sampled_from(_VALID[float])))
        elif edit == "missing field" and row:
            row.pop()
        elif edit in ("blank line", "spaces line"):
            row[:] = [] if edit == "blank line" else ["   "]
    ending = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = ending.join([header, *map(",".join, rows)])
    if draw(st.booleans()):
        text += ending  # else the last line has no newline
    return columns, text


def _outcome(read):
    """The rows read, with values by repr so that nan equals nan, or the error raised."""
    try:
        return "rows", [(row_number, list(map(repr, values))) for row_number, values in read()]
    except (RelgaugeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _read_columns_by_row(text, columns):
    """read_columns' rows and columns zipped back into (row_number, values) pairs."""
    rows, table = failure_data.read_columns(text, columns)
    return zip(rows, zip(*table))


_FLOAT_STR = LAYOUTS[3]
_LONG_FIELD = " " * _LONG + "1"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_csv_texts())
@hypothesis.example((_FLOAT_STR, 'duration,outcome\n1,"a"\n'))  # csv drops the quotes
@hypothesis.example((_FLOAT_STR, "duration,outcome\n1\n2,3,b\n"))  # widths that cancel out
@hypothesis.example((LAYOUTS[4], "outcome\na\n\nb\n"))  # csv skips the blank line
@hypothesis.example((LAYOUTS[0], f"epoch\n{_LONG_FIELD}\n"))  # float takes it, csv does not
@hypothesis.example((LAYOUTS[0], "epoch\n" + "1\n" * 40_000))  # text longer than the limit
@hypothesis.example((LAYOUTS[0], "epoch\n" + "1\n" * 40_000 + "x\n"))  # a bad token late in the text
@hypothesis.example((LAYOUTS[1], "tau,corrected\n" + "1,2\n" * 20_000 + "3\n"))  # a short row late
@hypothesis.example((LAYOUTS[1], "tau,corrected\n" + "1,7\n1,7\n1,07\n1, 7\n1,+7\n" * 8_000))  # one int, four spellings
@hypothesis.example((LAYOUTS[2], "run,p,y\n" + "7,0.5,0\n7,0.5,0\n7,0.5,1\n" * 33_333 + "7,0.5,2\n"))  # a 2 late in a 0/1 column
@hypothesis.example((LAYOUTS[2], "run,p,y\n" + "7,0.5,0\n7,0.5,0\n7,0.5,1\n" * 33_333 + "7,0.5,x\n"))  # an x late in a 0/1 column
@hypothesis.example((LAYOUTS[0], "epoch\n" + "1\n" * 40_000 + "1,2\n"))  # a comma late in a one-column file
@hypothesis.example((LAYOUTS[4], "outcome\n" + "a\n" * 40_000 + "a,b\n"))  # where str would take it
@hypothesis.example((LAYOUTS[1], "tau,corrected\r\n1,2\r3,4\n5,6\r\n"))  # three line ends in one file
@hypothesis.example((LAYOUTS[0], "epoch\n1\n2\r"))  # a carriage return as the last character
@hypothesis.example((_FLOAT_STR, "duration,outcome\r\n1,a\r\n\r\n"))  # a trailing blank CRLF line
@hypothesis.example((LAYOUTS[4], "outcome\na\rb\n"))  # a carriage return inside a token ends its line
@hypothesis.example((LAYOUTS[1], "tau,corrected\n1,2\r3\n"))  # and leaves a short row after it
def test_fast_path_matches_row_reader(case):
    columns, text = case
    reference = _outcome(lambda: failure_data._read_rows(text, columns))
    assert _outcome(lambda: _read_columns_by_row(text, columns)) == reference
    table = failure_data._split_columns(text, columns)
    if table is not None:
        assert [values for _, values in reference[1]] == [list(map(repr, row)) for row in zip(*table)]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(LAYOUTS), st.text(max_size=30))
def test_fast_path_matches_row_reader_on_any_text(columns, body):
    text = ",".join(name for name, _ in columns) + "\n" + body
    reference = _outcome(lambda: failure_data._read_rows(text, columns))
    assert _outcome(lambda: _read_columns_by_row(text, columns)) == reference
