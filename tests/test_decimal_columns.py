"""Property test: decimal_columns gives each token float()'s bits or int()'s value, or None.

Every test runs on both branches: the long-double one where np.longdouble is
x87's format, and the token-by-token one that every other host takes.
"""

import math
from decimal import Decimal
from unittest import mock

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from relgauge import decimal_columns  # noqa: E402

BRANCHES = sorted({decimal_columns.X87, False})
_DIGITS = "0123456789"


def _with_dot(digits, at):
    return digits[:at] + "." + digits[at:]


def _truncated_midpoint(x, digits):
    """The exact decimal midpoint between x and the next double up, cut after ``digits`` digits."""
    exact = format(Decimal(x) + (Decimal(math.nextafter(x, math.inf)) - Decimal(x)) / 2, "f")
    cut, seen = 0, 0
    while cut < len(exact) and seen < digits:
        seen += exact[cut] != "."
        cut += 1
    return exact[:cut].rstrip(".") or "0"


# Plain tokens: reprs in fixed notation with up to 17 significant digits, digit strings of
# 1-19 digits with the dot anywhere and leading zeros, and 27 or 28 digits after the dot.
_PLAIN = st.one_of(
    st.builds(lambda m, e: repr(math.ldexp(m, e)), st.integers(2**52, 2**53 - 1), st.integers(-66, 0)),
    st.floats(1e-4, 1e16).map(repr),
    st.builds(_with_dot, st.text(_DIGITS, min_size=1, max_size=19), st.integers(0, 19)),
    st.text(_DIGITS, min_size=1, max_size=19),
    st.builds(lambda d, f: "0." + d.rjust(f, "0"), st.text(_DIGITS, min_size=1, max_size=18), st.sampled_from([27, 28])),
)
# Exact midpoints between doubles, which the long double holds as they are, and cut expansions of others.
_MIDPOINTS = st.one_of(
    st.integers(0, 2**52 - 1).map(lambda a: str(2**53 + 2 * a + 1)),
    st.integers(0, 2**52 - 1).map(lambda a: f"{2**52 + a}.5"),
    st.builds(lambda a, q: f"{2**51 + a}.{q}", st.integers(0, 2**51 - 1), st.sampled_from(["25", "75"])),
    st.builds(_truncated_midpoint, st.floats(1e-5, 1e17), st.integers(15, 22)),
)
# Tokens float() reads that are not plain, and tokens it refuses.
_OTHER_FLOATS = st.sampled_from([
    "-0.0", "+0", "-1.5", "1e5", "1E-5", "2.5e+300", "1e-400", "1e400", " 2.5", "2.5\t", "\xa01", "1_0.5",
    ".5", "5.", "00.000", "nan", "-nan", "inf", "-Infinity", "١.٥", "9" * 25, "0." + "0" * 40 + "1",
])
_BAD_FLOATS = st.sampled_from(["", ".", "..", "1.2.3", "1e", "x", "1 2", "0x1", "\x1c1", "1__0"])
_FLOATS = st.one_of(_PLAIN, _PLAIN, _MIDPOINTS, _OTHER_FLOATS, st.floats().map(repr))
_INTS = st.one_of(
    st.integers(0, 10**18).map(str),
    st.integers(-(2**64), 2**64).map(str),
    st.builds(lambda z, n: "0" * z + str(n), st.integers(1, 25), st.integers(0, 10**19)),
    st.sampled_from(["-0", "+7", " 7 ", "1_0", "١", str(2**63 - 1), str(-(2**63))]),
)
_BAD_INTS = st.sampled_from(["", "1.0", "1.", ".5", "1e2", str(2**63), str(-(2**63) - 1), "x", "1" * 4301])


def _expected(rows, kinds):
    """Each column converted by its callable into an ndarray, or None where one token is refused."""
    try:
        return [np.array([kind(row[c]) for row in rows], {float: np.float64, int: np.int64}[kind])
                for c, kind in enumerate(kinds)]
    except (ValueError, OverflowError):
        return None


def _bits(table):
    """The columns by their bits, so that -0.0 and the NaNs differ, or None."""
    return None if table is None else [(column.dtype.str, column.view(np.uint64).tolist()) for column in table]


def _converted(rows, kinds, x87, block_chars):
    text = "\n".join(",".join(row[: len(kinds)]) for row in rows)
    with mock.patch.object(decimal_columns, "X87", x87), mock.patch.object(decimal_columns, "BLOCK_CHARS", block_chars):
        return decimal_columns.arrays(text, 0, len(text), kinds, len(rows))


@pytest.mark.parametrize("x87", BRANCHES)
@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(
    rows=st.lists(st.tuples(_FLOATS, _INTS, _FLOATS), min_size=1, max_size=30),
    kinds=st.sampled_from([[float], [float, int], [float, int, float]]),
    block_chars=st.integers(1, 120),
)
@hypothesis.example(rows=[("9007199254740993", "0", "4503599627370497.5")], kinds=[float, int, float], block_chars=1)
@hypothesis.example(rows=[("0.000000000000000000000000001", "1", "0.0000000000000000000000000001")],
                    kinds=[float, int, float], block_chars=64)
def test_each_value_has_floats_bits_or_ints_value(x87, rows, kinds, block_chars):
    """Blocks of 1 to 120 characters put block ends anywhere among the lines."""
    assert _bits(_converted(rows, kinds, x87, block_chars)) == _bits(_expected(rows, kinds))


@pytest.mark.parametrize("x87", BRANCHES)
@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(
    rows=st.lists(st.tuples(_FLOATS, _INTS), min_size=1, max_size=12),
    bad=st.tuples(_BAD_FLOATS, _BAD_INTS),
    column=st.integers(0, 1),
    at=st.integers(0, 12),
)
def test_a_refused_token_anywhere_gives_none(x87, rows, bad, column, at):
    row = list(rows[min(at, len(rows) - 1)])
    row[column] = bad[column]
    rows = [*rows[:at], tuple(row), *rows[at:]]
    assert _converted(rows, [float, int], x87, 32) is None


@pytest.mark.parametrize("x87", BRANCHES)
def test_seeded_reprs_and_digit_strings_match_float(x87):
    """20,000 reprs over 50 decades and 20,000 digit strings of 1-19 digits with a dot."""
    rng = np.random.default_rng(41)
    values = np.abs(rng.standard_normal(20_000)) * 10.0 ** rng.integers(-20, 30, 20_000)
    lengths = rng.integers(1, 20, 20_000)
    digits = ["".join(map(str, rng.integers(0, 10, n))) for n in lengths]
    strings = [_with_dot(d, int(rng.integers(0, len(d) + 1))) for d in digits]
    rows = [(token,) for token in [*map(repr, values.tolist()), *strings]]
    assert _bits(_converted(rows, [float], x87, 1 << 18)) == _bits(_expected(rows, [float]))


def test_the_powers_of_ten_are_exact():
    assert [int(p) for p in decimal_columns._POWERS] == [10**f for f in range(28)]


def test_a_block_that_is_not_ascii_is_read_token_by_token():
    """It gives the callables' values on either branch."""
    rows = [("١.5", "٧"), ("2.5", "3")]
    for x87 in BRANCHES:
        got = _converted(rows, [float, int], x87, 1 << 18)
        assert [column.tolist() for column in got] == [[1.5, 2.5], [7, 3]]
