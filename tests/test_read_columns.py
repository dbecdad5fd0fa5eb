"""Property test: the array path reads exactly what the row-by-row reader reads."""

import builtins
import contextlib
import csv
import re
import struct
import warnings
from unittest import mock

import pytest

from relgauge import decimal_columns, failure_data, numerics
from relgauge.errors import ParseError, RelgaugeError

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
    """read_columns' rows and columns, as Python values, zipped back into (row_number, values) pairs."""
    rows, table = failure_data.read_columns(text, columns, arrays=True)
    return zip(rows, zip(*failure_data.listed(table)))


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


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(LAYOUTS), st.text(max_size=30))
def test_fast_path_matches_row_reader_on_any_text(columns, body):
    text = ",".join(name for name, _ in columns) + "\n" + body
    reference = _outcome(lambda: failure_data._read_rows(text, columns))
    assert _outcome(lambda: _read_columns_by_row(text, columns)) == reference


# From numerics.ARRAY_MIN lines on, read_columns(..., arrays=True) converts a regular file of
# float and int columns with decimal_columns.  It must take a file exactly when its tokens give
# the row reader's values, and leave every other file to the row reader.
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
# Tokens that are not plain decimals: the callables take some, the row reader some more after
# str.strip, and neither takes the rest.
_OTHERS = {
    float: ["1_0", "١", "١.٥", "１", "inf", "-Infinity", "nan", "-nan", "+NaN", "infinit",
            "nan(1)", "0x10", "1.5e", ".", "1..2", "", " ", "x", "1 2", "1\x002", "1#2"],
    int: ["1.0", "1.", ".", "1e2", "1_0", str(2**63), str(-(2**63) - 1), "١", "７", "\xb2", "", " ", "x", "0x1f",
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


def _check_numeric_text(case, split):
    """Blocks of ``split`` characters make the converter read the file in several blocks."""
    columns, text = case
    reference = _values(lambda: failure_data._read_rows(text, columns))
    with mock.patch.object(decimal_columns, "BLOCK_CHARS", split), warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may reach stderr
        table = failure_data._array_columns(text, columns)
        assert _values(lambda: _read_columns_by_row(text, columns)) == reference
    if table is not None:  # the converter took the file: an array per column, of the row reader's values
        assert {type(column).__name__ for column in table} == {"ndarray"}
        rows = range(2, len(table[0]) + 2)
        assert _values(lambda: zip(rows, zip(*(column.tolist() for column in table)))) == reference


@hypothesis.settings(max_examples=120, deadline=None, database=None)
@hypothesis.given(case=_numeric_texts(), split=st.sampled_from([64, 1 << 16]))
@hypothesis.example(case=(_NUMERIC_LAYOUTS[0], "run,p,y\n" + "1,0.5,0\n" * 300), split=64)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,1\n" * 300 + "\n" * 200 + "0.5,1\n"), split=64)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + "0.5,1.0\n"), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + f"0.5,{2**63}\n"), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "1_0,0\n" * 300), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + "0.5,1#2\n"), split=1 << 16)  # no comments
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + " -nan\x1c,\xa01 \n" * 300), split=1 << 16)
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + ".,0\n"), split=64)  # a dot alone
@hypothesis.example(case=(_NUMERIC_LAYOUTS[1], "p,y\n" + "0.5,0\n" * 300 + "1\n1,1,1\n"), split=1 << 16)  # widths that cancel out
def test_numpys_reader_gives_the_row_readers_columns_or_leaves_the_file_to_it(case, split):
    _check_numeric_text(case, split)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(case=_numeric_texts(), split=st.sampled_from([64, 1 << 16]))
def test_the_token_by_token_branch_gives_the_row_readers_columns_or_leaves_the_file_to_it(case, split):
    """As where np.longdouble is not x87's format: every token goes to its column's callable."""
    with mock.patch.object(decimal_columns, "X87", False):
        _check_numeric_text(case, split)


def test_numpys_reader_takes_padded_tokens_and_leaves_the_rest_to_the_row_reader():
    """A token its column's callable takes as it is stays on the array path, with the row
    reader's value: padding, "1_0", digits that are not ASCII.  The row reader takes the rest."""
    columns = _NUMERIC_LAYOUTS[0]
    rows = numerics.ARRAY_MIN
    taken = "run,p,y\n" + " 7\xa0,\t-nan , 1\x0c\n" * (rows - 2) + "1_0,1_0.5,\u0661\n" + "+7,5.,007\n"
    table = failure_data._array_columns(taken, columns)
    assert [column.dtype.str for column in table] == ["<i8", "<f8", "<i8"]
    assert table[0].tolist() == [7] * (rows - 2) + [10, 7] and table[2].tolist() == [1] * (rows - 2) + [1, 7]
    assert struct.pack("<d", float(table[1][0])) == struct.pack("<d", float("-nan"))
    assert table[1][-2:].tolist() == [10.5, 5.0]
    for odd in ("\x1c1,0.5,0", "1,0.5,1.0", f"{2**63},0.5,0", "1,0.5,0,", "1,0.5", "", "  ", "1,0.5,0#", "1,.,0", "1,,0", "1,0.5,",
                "1,1\n1,1,1,1"):  # the last: a short and a long line, as many fields as two lines
        text = "run,p,y\n" + "1,0.5,0\n" * rows + odd + "\n1,0.5,0\n"
        assert failure_data._array_columns(text, columns) is None, odd
    # Below ARRAY_MIN lines the row reader reads the file into lists; from there a one-column file too is converted.
    small = "run,p,y\n" + "1,0.5,0\n" * (rows - 1)
    assert failure_data._array_columns(small, columns) is None
    assert type(failure_data.read_columns(small, columns, arrays=True)[1][0]) is list
    assert type(failure_data._array_columns("p\n" + "0.5\n" * rows, (("p", float),))[0]).__name__ == "ndarray"


def test_numpys_integer_reader_sees_only_digits_and_commas():
    """np.fromstring warns only where it meets text it cannot read, and numpy's warnings are
    left alone: a token that is not plain reaches it as zeros, with no sign, dot or exponent."""
    fromstring, seen = decimal_columns.np.fromstring, []

    def recording(data, *args, **kwargs):
        seen.append(data)
        return fromstring(data, *args, **kwargs)

    odd = ["-0.0", "1e5", "+2", " 3 ", "1_0", "9" * 30, "0." + "0" * 30 + "1", "nan", "-inf"]
    taken = "p,y\n" + "".join(f"{token},{i % 2}\n" for i, token in enumerate(odd * 30))
    refused = taken + "..,0\n.,1\n1.2.3,0\n"
    columns = _NUMERIC_LAYOUTS[1]
    with mock.patch.object(decimal_columns.np, "fromstring", recording), warnings.catch_warnings():
        warnings.simplefilter("error")
        table = failure_data._array_columns(taken, columns)
        assert failure_data._array_columns(refused, columns) is None
    assert len(seen) == 2 and all(re.fullmatch(rb"[0-9]+(,[0-9]+)*", data) for data in seen)
    reference = _values(lambda: failure_data._read_rows(taken, columns))
    assert _values(lambda: zip(range(2, len(table[0]) + 2), zip(*(c.tolist() for c in table)))) == reference


@pytest.mark.parametrize("token", ["1.0", "1e2", "1.", ".5", "0x1"])
def test_a_float_spelling_in_an_int_column_leaves_the_file_to_the_row_reader(token):
    """int() refuses it, so the row reader reads the file and names the row; "1_0", which int() takes, stays."""
    text = "p,y\n" + "0.5,0\n" * numerics.ARRAY_MIN + f"0.5,{token}\n"
    columns = _NUMERIC_LAYOUTS[1]
    for x87 in sorted({decimal_columns.X87, False}):
        with mock.patch.object(decimal_columns, "X87", x87):
            assert failure_data._array_columns(text, columns) is None
            with pytest.raises(ParseError, match=f"could not parse y from {re.escape(repr(token))}") as caught:
                failure_data.read_columns(text, columns, arrays=True)
            assert caught.value.row == numerics.ARRAY_MIN + 2
            table = failure_data._array_columns(text.replace(token, "1_0"), columns)
            assert table[1].tolist() == [0] * numerics.ARRAY_MIN + [10]


# Tokens that neither the row reader nor the converter takes, for the threshold test.
_BAD = ["x", "1.5.2", "1e", "--1", "1 2", "0x1f", "1,2", "1\x002"]


@st.composite
def _threshold_texts(draw):
    """Columns, a regular row, one bad token with its row and column, and a line end."""
    columns = draw(st.sampled_from([(("epoch", float),), *_NUMERIC_LAYOUTS]))
    row = [draw(st.sampled_from(_NUMBERS[kind])) for _, kind in columns]
    bad = (draw(st.integers(0, numerics.ARRAY_MIN - 2)), draw(st.integers(0, len(columns) - 1)), draw(st.sampled_from(_BAD)))
    return columns, row, bad, draw(st.sampled_from(["\n", "\r\n", "\r"]))


@contextlib.contextmanager
def _imports():
    """The (name, fromlist) of each import statement run in the block."""
    seen, real = [], builtins.__import__

    def recording(name, *args):
        seen.append((name, args[2] if len(args) > 2 else None))
        return real(name, *args)

    with mock.patch("builtins.__import__", recording):
        yield seen


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(_threshold_texts())
def test_both_sides_of_the_array_threshold_give_the_row_readers_values_and_errors(case):
    """ARRAY_MIN - 1 rows take the row reader and ARRAY_MIN rows the converter: the same values,
    and one bad token gives the same first error and row on both sides.  Below the threshold
    a read loads neither decimal_columns nor numpy."""
    columns, row, (bad_row, bad_column, token), newline = case
    errors = []
    for rows in (numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN):
        lines = [list(row) for _ in range(rows)]
        for text in (None, token):
            if text is not None:
                lines[bad_row][bad_column] = token
            text = newline.join([",".join(name for name, _ in columns), *map(",".join, lines)]) + newline
            reference = _values(lambda: failure_data._read_rows(text, columns))
            with _imports() as imported:
                got = _values(lambda: _read_columns_by_row(text, columns))
            assert got == reference
            if rows < numerics.ARRAY_MIN:
                assert not [i for i in imported if "numpy" in str(i) or "decimal_columns" in str(i)], imported
        assert got[0] != "rows"
        errors.append(got)
    assert errors[0] == errors[1]
