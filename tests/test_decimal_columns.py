"""Property test: decimal_columns gives each token float()'s bits or int()'s value, or None.

Every test of the values runs on both branches: the long-double one where
np.longdouble is x87's format, and the token-by-token one that every other
host takes.  The threads that convert a body's blocks give the columns of
one thread, start none that outlives the call, and pass on what one raises.
"""

import contextlib
import math
import sys
import threading
from decimal import Decimal
from unittest import mock

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from relgauge import decimal_columns, failure_data, model_nelson  # noqa: E402

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


def _converted(rows, kinds, x87, block_chars, cpus=None):
    """The columns of ``rows`` read in blocks of ``block_chars``, on ``cpus`` threads where given."""
    text = "\n".join(",".join(row[: len(kinds)]) for row in rows)
    threads = mock.patch.object(decimal_columns, "_cpus", lambda: cpus) if cpus else contextlib.nullcontext()
    with mock.patch.object(decimal_columns, "X87", x87), mock.patch.object(decimal_columns, "BLOCK_CHARS", block_chars):
        with threads:
            return decimal_columns.arrays(text, 0, len(text), kinds)


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


@pytest.mark.parametrize("x87", BRANCHES)
@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(
    rows=st.lists(st.tuples(_FLOATS, _INTS, _FLOATS), min_size=2, max_size=30),
    kinds=st.sampled_from([[float], [float, int], [float, int, float]]),
    block_chars=st.integers(1, 120),
    helpers=st.integers(0, 3),
    bad=st.none() | st.tuples(_BAD_FLOATS, st.integers(0, 28)),
)
@hypothesis.example(rows=[("1.5", "1", "2.5")] * 6, kinds=[float, int], block_chars=1, helpers=3, bad=("x", 1))
def test_helper_threads_give_the_columns_of_one_thread(x87, rows, kinds, block_chars, helpers, bad):
    """Blocks converted on the calling thread and 0-3 helpers: the same bits, or None where one
    thread gives None, as where a refused token sits in a block before the last."""
    if bad is not None:  # a refused float on a row followed by at least one more
        token, at = bad
        at = min(at, len(rows) - 2)
        rows = [*rows[:at], (token, *rows[at][1:]), *rows[at + 1 :]]
    one = _converted(rows, kinds, x87, block_chars, cpus=1)
    assert _bits(_converted(rows, kinds, x87, block_chars, cpus=helpers + 1)) == _bits(one)
    if bad is not None:
        assert one is None


class _Refused(Exception):
    pass


@pytest.mark.parametrize(
    "helpers, raise_on",
    [(helpers, raise_on) for helpers in (0, 1, 3) for raise_on in (None, 0, 2, 7, "helper") if helpers or raise_on != "helper"],
)
def test_no_thread_outlives_the_call_and_a_helpers_exception_reaches_the_caller(helpers, raise_on):
    """``_exact_block`` raising on its ``raise_on``-th block, or on the first block a helper
    thread takes: that very exception is raised by ``arrays``, and the threads after the call
    are those before it."""
    text = "\n".join(f"{j}.5,{j}" for j in range(400))
    caller, calls, lock, raised = threading.current_thread(), [], threading.Lock(), []
    helper_raised = threading.Event()  # the calling thread waits for it, so a helper takes a block
    convert = decimal_columns._exact_block

    def exact_block(block, kinds):
        with lock:
            calls.append(block)
            call = len(calls) - 1
            helper = threading.current_thread() is not caller
            fail = call == raise_on or (raise_on == "helper" and helper and not raised)
            if fail:
                raised.append(_Refused(f"block {call}"))
        if fail:
            helper_raised.set()
            raise raised[-1]
        if raise_on == "helper" and not helper:
            assert helper_raised.wait(60)
        return convert(block, kinds)

    before = threading.enumerate()
    with mock.patch.object(decimal_columns, "_exact_block", exact_block), \
            mock.patch.object(decimal_columns, "_cpus", lambda: helpers + 1), \
            mock.patch.object(decimal_columns, "BLOCK_CHARS", 200), mock.patch.object(decimal_columns, "X87", True):
        if raise_on is None:
            floats, ints = decimal_columns.arrays(text, 0, len(text), [float, int])
            assert floats.tolist() == [j + 0.5 for j in range(400)] and ints.tolist() == list(range(400))
            assert len(calls) > 7
        else:
            with pytest.raises(_Refused) as caught:
                decimal_columns.arrays(text, 0, len(text), [float, int])
            assert caught.value is raised[0]
    assert threading.enumerate() == before


def test_threads_parsing_at_once_read_the_same_records():
    """Four threads, more than this host's CPUs may be, parse one profile and one epoch file of
    several blocks each at once, switching threads every 10 microseconds."""
    rng = np.random.default_rng(43)
    epochs = np.cumsum(rng.exponential(1.0, 60_000))
    epoch_text = "epoch\n" + "".join(f"{e!r}\n" for e in epochs.tolist())
    probs = rng.dirichlet(np.ones(20), size=1_500)
    profile_text = "run,p,y\n" + "".join(
        f"{j // 20 + 1},{p!r},{int(p < 0.01)}\n" for j, p in enumerate(probs.ravel().tolist()))
    assert min(len(epoch_text), len(profile_text)) > 3 * decimal_columns.BLOCK_CHARS
    expected = failure_data.parse_failure_epochs(epoch_text), model_nelson.parse_profiles(profile_text)
    start, results = threading.Barrier(4), [None] * 4

    def parse(i):
        start.wait()
        results[i] = [(failure_data.parse_failure_epochs(epoch_text), model_nelson.parse_profiles(profile_text))
                      for _ in range(3)]

    threads = [threading.Thread(target=parse, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in results:
        for epoch_record, profile_record in result:
            assert epoch_record.epochs.tobytes() == expected[0].epochs.tobytes()
            assert profile_record.probs.tobytes() == expected[1].probs.tobytes() and profile_record == expected[1]
