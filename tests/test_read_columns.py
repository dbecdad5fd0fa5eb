"""Property test: the columnar fast path reads exactly what the row-by-row reader reads."""

import csv
import io
import struct
import warnings
from unittest import mock

import pytest

from relgauge import failure_data, numerics
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


# From numerics.ARRAY_MIN lines on, read_columns(..., arrays=True) reads a regular file of two
# or more columns with numpy's C reader.  It must take a file exactly when its tokens give the
# row reader's values, and leave every other file to the row reader.
_NUMERIC_LAYOUTS = [
    (("run", int), ("p", float), ("y", int)),
    (("p", float), ("y", int)),
    (("tau", float), ("corrected", int), ("exposure", float), ("failures", int)),
]
# Padding that float(), int() or str.strip() take, and the valid tokens it pads.
_PADS = ["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", " ", "\x85"]
_NUMBERS = {
    float: ["0.5", "1", "-0.0", "1e3", "2.5E-3", ".5", "5.", "+7", "1e400", "1e-400", "0.1000000000000000055511151231257827"],
    int: ["0", "1", "7", "-3", "+5", "007", "-0", str(2**63 - 1), str(-(2**63))],
}
# Tokens the row reader may take but numpy's reader does not, or that neither takes.
_OTHERS = {
    float: ["1_0", "١", "١.٥", "１", "inf", "-Infinity", "nan", "-nan", "+NaN", "infinit",
            "nan(1)", "0x10", "1.5e", "", " ", "x", "1 2", "1\x002", "1#2"],
    int: ["1.0", "1e2", "1_0", str(2**63), str(-(2**63) - 1), "١", "７", "\xb2", "", " ", "x", "0x1f",
          "1" * 4301, "- 1", "1#2"],
}
_ROW_EDITS = st.sampled_from(["token", "token", "trailing comma", "short", "long", "blank", "spaces"])


@st.composite
def _numeric_texts(draw):
    """A file of at least ARRAY_MIN rows: one row repeated, with some rows edited."""
    columns = draw(st.sampled_from(_NUMERIC_LAYOUTS))
    base = [draw(st.sampled_from(_NUMBERS[kind])) for _, kind in columns]
    lines = [list(base) for _ in range(numerics.ARRAY_MIN + draw(st.integers(0, 40)))]
    for edit in draw(st.lists(_ROW_EDITS, max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if edit == "token" and line:
            j = draw(st.integers(0, len(line) - 1))
            kind = columns[j][1] if j < len(columns) else float
            token = draw(st.sampled_from(_NUMBERS[kind] + _OTHERS[kind]))
            line[j] = draw(st.sampled_from(_PADS)) + token + draw(st.sampled_from(_PADS))
        elif edit == "trailing comma":
            line.append("")
        elif edit == "short" and line:
            line.pop()
        elif edit == "long":
            line.append(draw(st.sampled_from(_NUMBERS[float])))
        elif edit in ("blank", "spaces"):
            lines.insert(i, [] if edit == "blank" else [draw(st.sampled_from(["  ", "\t", "\xa0"]))])
    text = "\n".join([",".join(name for name, _ in columns), *map(",".join, lines)])
    return columns, text + draw(st.sampled_from(["", "\n", "\n\n"]))


def _bits(value):
    """A float by its bits, so that -0.0, nan and -nan differ; an int as itself, tagged with its type."""
    return struct.pack("<d", value).hex() if type(value) is float else (type(value).__name__, value)


def _values(read):
    """The (row number, values by _bits) pairs that ``read()`` gives, or the error it raises."""
    try:
        return "rows", [(row, [_bits(v) for v in values]) for row, values in read()]
    except (RelgaugeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _read_columns_by_row_as_python(text, columns):
    rows, table = failure_data.read_columns(text, columns, arrays=True)
    return zip(rows, zip(*(column if type(column) is list else column.tolist() for column in table)))


@hypothesis.settings(max_examples=120, deadline=None, database=None)
@hypothesis.given(case=_numeric_texts(), split=st.sampled_from([64, 1 << 16]))
@hypothesis.example(case=(_NUMERIC_LAYOUTS[0], "run,p,y\n" + "1,0.5,0\n" * 300), split=64)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,1\n" * 300 + "\n" * 200 + "0.5,1\n"), split=64)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + "0.5,1.0\n"), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + f"0.5,{2**63}\n"), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "1_0,0\n" * 300), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + "0.5,1#2\n"), split=1 << 16)  # no comments
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + " -nan\x1c,\xa01 \n" * 300), split=1 << 16)
def test_numpys_reader_gives_the_row_readers_columns_or_leaves_the_file_to_it(case, split):
    """Blocks of ``split`` characters make numpy's reader read the file in several blocks."""
    columns, text = case
    reference = _values(lambda: failure_data._read_rows(text, columns))
    with mock.patch.object(failure_data, "_SPLIT_CHARS", split), warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        table = failure_data._split_columns(text, columns, arrays=True)
        assert _values(lambda: _read_columns_by_row_as_python(text, columns)) == reference
    if table is not None:  # numpy's reader took the file: an array per column, of the row reader's values
        assert {type(column).__name__ for column in table} == {"ndarray"}
        rows = range(2, len(table[0]) + 2)
        assert _values(lambda: zip(rows, zip(*(column.tolist() for column in table)))) == reference


def test_numpys_reader_takes_padded_tokens_and_leaves_the_rest_to_the_row_reader():
    pytest.importorskip("numpy")
    columns = _NUMERIC_LAYOUTS[0]
    rows = numerics.ARRAY_MIN
    taken = "run,p,y\n" + "\x1c 7\xa0,\t-nan , 1\x0c\n" * rows
    table = failure_data._split_columns(taken, columns, arrays=True)
    assert [column.dtype.str for column in table] == ["<i8", "<f8", "<i8"]
    assert table[0].tolist() == [7] * rows and table[2].tolist() == [1] * rows
    assert struct.pack("<d", float(table[1][0])) == struct.pack("<d", float("-nan"))
    for odd in ("1_0,0.5,0", "١,0.5,0", "1,0.5,1.0", f"{2**63},0.5,0", "1,0.5,0,", "1,0.5", "", "  ", "1,0.5,0#"):
        text = "run,p,y\n" + "1,0.5,0\n" * rows + odd + "\n1,0.5,0\n"
        assert failure_data._split_columns(text, columns, arrays=True) is None, odd
    # Below ARRAY_MIN lines, and for one column, the split reads the file.
    assert type(failure_data._split_columns("run,p,y\n" + "1,0.5,0\n" * (rows - 1), columns, True)[0]) is list
    assert type(failure_data._split_columns("p\n" + "0.5\n" * rows, (("p", float),), True)[0]).__name__ == "ndarray"


def test_any_warning_from_numpys_reader_leaves_the_file_to_the_row_reader():
    """As numpy 1.23-1.26 did for "1.0" in an int64 field: a DeprecationWarning, and the value truncated."""
    np = pytest.importorskip("numpy")
    loadtxt = np.loadtxt

    def truncating(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    text = "p,y\n" + "0.5,1\n" * numerics.ARRAY_MIN
    with mock.patch.object(np, "loadtxt", truncating), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert failure_data._split_columns(text, _NUMERIC_LAYOUTS[1], arrays=True) is None
    assert len(failure_data._split_columns(text, _NUMERIC_LAYOUTS[1], arrays=True)[0]) == numerics.ARRAY_MIN


@pytest.mark.parametrize("token", ["1.0", "1e2", "1_0"])
def test_numpy_refuses_a_float_spelling_in_an_int64_field(token):
    """numpy 1.23-1.26 read such a token into an int field with a DeprecationWarning, truncated;
    from 2.0 on loadtxt raises, and the row reader reports the row (pyproject.toml: numpy>=2.0)."""
    np = pytest.importorskip("numpy")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            np.loadtxt(io.StringIO(f"0.5,{token}\n"), np.dtype([("p", "f8"), ("y", "i8")]), delimiter=",",
                       comments=None, ndmin=1)
