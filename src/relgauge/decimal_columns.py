"""Decimal CSV bodies converted into float64 and int64 columns in numpy passes, with float()'s bits.

:func:`failure_data.read_columns` hands this module the body of a regular
file of at least ``numerics.ARRAY_MIN`` rows read with ``arrays=True``, so
a smaller call never compiles it.  The body is taken a block of lines at a
time, and the blocks are converted on the calling thread plus one helper
thread per further CPU the process may run on; no thread outlives the call
(see :func:`arrays`).  In an ASCII block, a plain token (ASCII digits with
at most one ".") is an exact integer significand m with f digits after the
dot, and ``np.fromstring`` reads every m of the block at once.  Where m <
10**18 and f <= 27, both m and 10**f are exact in an x87 long double, whose
significand has 64 bits, so q = m / 10**f is rounded once there and once
more to float64.  The two roundings differ from float()'s one only where q
lies exactly halfway between two doubles, and such a token is read again by
float().  This is the exact-significand route of Clinger ("How to read
floating point numbers accurately", PLDI 1990) and Lemire ("Number parsing
at a gigabyte per second", SPE 51(8), 2021).

Every other token (a sign, an exponent, padding, "1_0", a longer
significand, a midpoint) goes to its column's own callable, one at a time,
and so does every token of a block that is not ASCII or of a host whose
long double has another format.  So each value has float()'s bits or
int()'s value.  A block of another shape, a token the callable rejects, or
an int beyond int64 gives None, and the row reader reads the file.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

# About the text converted at a time.  On the benchmark's fit-large files
# (10^5 rows; a 2-vCPU x86-64 VM), whole files gave 15.9 operations/s with
# a 101.5 MB peak, and blocks of 2^16 and 2^18 characters 22.2/s and
# 22.6/s with 80.4 MB.
BLOCK_CHARS = 1 << 18
# Whether np.longdouble is x87's 80-bit format, its 64-bit significand the
# low word of 16 bytes; a host with any other takes every token one at a time.
X87 = (
    np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16 and sys.byteorder == "little"
)
_EXACT_SIGNIFICAND = 10**18  # m below it is exact in int64 and in a 64-bit significand
_MAX_DIGITS_AFTER_DOT = 27  # 10**27 = 2**27 * 5**27, and 5**27 < 2**64 < 5**28
# 10**f for f = 0..27, each product exact.
_POWERS = np.multiply.accumulate(np.array([1] + [10] * _MAX_DIGITS_AFTER_DOT, np.longdouble))
_MIDPOINT, _LOW_BITS = 0x400, 0x7FF  # the 11 bits a float64 drops from a 64-bit significand
_COMMA, _NEWLINE, _DOT, _ZERO = b",\n.0"
_COMMA_LINES = bytes.maketrans(b"\n", b",")
_DTYPES = {float: np.float64, int: np.int64}


def arrays(text: str, start: int, stop: int, kinds: list) -> list | None:
    """The read-only float64 or int64 column of each kind in the body ``text[start:stop]``, or None.

    ``kinds`` holds ``float`` or ``int`` per column, and the body has no
    blank line at its end.  The lines are not counted: a line the converter
    takes holds a character per field and a separator after each, so the
    columns are made that long, filled a block at a time and cut to the
    lines read.  Pages of the tail are never written, so they never take
    memory, and the cut gives them back.

    The blocks are converted on the calling thread and on one helper thread
    per further CPU the process may run on (none for a one-block body or a
    one-CPU process); most of numpy's passes release the GIL.  Each thread
    slices and converts the next block, and converted blocks are copied
    into the columns in order, so at most two blocks per thread are held at
    once.  Every helper is joined before the call returns, and an exception
    raised in one is raised here.
    """
    width = len(kinds)
    table = [np.empty((stop - start + 1) // (2 * width), _DTYPES[kind]) for kind in kinds]
    spans = []
    while start < stop:
        end = text.find("\n", start + BLOCK_CHARS, stop)
        end = stop if end < 0 else end
        spans.append((start, end))
        start = end + 1
    conversion = _Conversion(text, spans, kinds, table, min(_cpus(), len(spans)))
    helpers = []
    try:
        while len(helpers) < conversion.threads - 1:
            helper = threading.Thread(target=conversion.run)
            helper.start()
            helpers.append(helper)
        conversion.run()
    finally:
        for helper in helpers:
            helper.join()
    if conversion.error is not None:
        error, conversion.error = conversion.error, None  # the traceback's frames hold the conversion
        raise error
    if conversion.failed:
        return None
    for column in table:
        column.resize(conversion.row, refcheck=False)  # no view of it exists yet
        column.flags.writeable = False  # so a record holds it as it is
    return table


def _cpus() -> int:
    """The CPUs this process may run on: its affinity where the host reports one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _Conversion:
    """The blocks of one body, converted by each thread that calls :meth:`run` and copied into ``table`` in order."""

    def __init__(self, text: str, spans: list, kinds: list, table: list, threads: int) -> None:
        self.text, self.spans, self.kinds, self.table, self.threads = text, spans, kinds, table, threads
        self.ready = threading.Condition()
        self.taken = self.copied = self.row = 0  # blocks taken, blocks copied, rows copied
        self.converted = {}  # blocks converted before an earlier one, by index
        self.failed = False  # a block gave None, or a thread raised
        self.error = None  # the first exception a thread raised

    def run(self) -> None:
        """Converts and copies blocks until none is left or one has failed."""
        try:
            while (index := self._take()) is not None:
                start, end = self.spans[index]
                block, kinds = self.text[start:end], self.kinds
                # ``values`` holds a block's columns until the next block's are made: freed at
                # once, they made one-thread reads of 10^5 epochs about 15 % slower (2-vCPU x86-64 VM).
                values = _exact_block(block, kinds) if X87 and block.isascii() else _each_token(block, kinds)
                self._put(index, values)
        except BaseException as error:  # kept for the caller, which raises it once every helper is joined
            with self.ready:
                self.failed = True
                if self.error is None:
                    self.error = error
                self.ready.notify_all()

    def _take(self) -> int | None:
        """The index of the next block, once fewer than two per thread are taken and not copied; None when done."""
        with self.ready:
            while not self.failed and self.taken < len(self.spans) and self.taken - self.copied >= 2 * self.threads:
                self.ready.wait()
            if self.failed or self.taken == len(self.spans):
                return None
            self.taken += 1
            return self.taken - 1

    def _put(self, index: int, values: list | None) -> None:
        """Keeps a converted block, and copies every block that now follows the copied ones into the table."""
        with self.ready:
            self.failed |= values is None
            self.converted[index] = values
            while not self.failed and self.copied in self.converted:
                values = self.converted.pop(self.copied)
                count = len(values[0])
                for column, column_values in zip(self.table, values):
                    column[self.row : self.row + count] = column_values
                self.row += count
                self.copied += 1
            self.ready.notify_all()


def _each_token(block: str, kinds: list) -> list | None:
    """The block's columns, each token converted by its column's callable, or None."""
    tokens = _block_columns(block, len(kinds))
    if tokens is None:
        return None
    count = len(tokens[0])
    try:
        return [np.fromiter(map(kind, column), _DTYPES[kind], count) for kind, column in zip(kinds, tokens)]
    except (ValueError, OverflowError):  # a token the callable rejects, or an int beyond int64
        return None


def _block_columns(block: str, width: int) -> list[list[str]] | None:
    """The tokens of each column of a block of lines, or None unless each line has ``width`` fields."""
    if width == 1:
        tokens = block.split("\n")
        return None if "" in tokens else [tokens]  # an empty token is a blank line
    # A "\n" token between lines marks where each line's fields end; no
    # field holds a "\n", so the marks sit every width + 1 tokens exactly
    # when every line has one field per column, and a blank line has one.
    stride = width + 1
    lines = block.count("\n") + 1
    tokens = block.replace("\n", ",\n,").split(",")
    if len(tokens) != lines * stride - 1 or tokens[width::stride].count("\n") != lines - 1:
        return None
    return [tokens[i::stride] for i in range(width)]


def _exact_block(block: str, kinds: list) -> list | None:
    """The columns of an ASCII block, plain tokens converted in numpy passes, or None."""
    width = len(kinds)
    raw = block.encode("ascii")
    b = np.frombuffer(raw, np.uint8)
    newline, dot = b == _NEWLINE, b == _DOT
    mark = newline | dot | (b == _COMMA)
    marks = np.flatnonzero(mark)  # every separator and dot, in order
    is_dot = dot[marks]
    at_dots = np.flatnonzero(is_dot)
    separators, dots = marks[np.flatnonzero(~is_dot)], marks[at_dots]
    ends = np.append(separators, len(raw))
    lengths = np.diff(ends, prepend=-1) - 1
    # One field per column on every line (the line ends sit every width
    # tokens), and no empty token, which no callable takes.
    if (
        len(ends) != (np.count_nonzero(newline) + 1) * width
        or not (b[separators[width - 1 :: width]] == _NEWLINE).all()
        or not lengths.all()
    ):
        return None
    dotted = at_dots - np.arange(len(dots))  # the token of each dot: the separators before it
    digits_after_dot = np.full(len(ends), -1)  # -1 where a token has no dot; take's clip reads it as 10**0
    digits_after_dot[dotted] = ends[dotted] - dots - 1
    # Plain: ASCII digits, at least one, with at most one dot among them.
    plain = np.ones(len(ends), bool)
    plain[dotted[1:][dotted[1:] == dotted[:-1]]] = False
    plain[dotted[lengths[dotted] == 1]] = False
    non_digit = np.subtract(b, _ZERO, dtype=np.uint8) > 9
    others = np.flatnonzero(non_digit ^ mark) if np.count_nonzero(non_digit) > len(marks) else marks[:0]
    plain[np.searchsorted(separators, others)] = False
    if plain.all():
        digits = raw.translate(_COMMA_LINES, b".")
    else:  # each other byte reads as a 0, and so does each dot of a token that is not plain
        zeroed = b.copy()
        zeroed[others] = zeroed[dots[~plain[dotted]]] = _ZERO
        digits = zeroed.tobytes().translate(_COMMA_LINES, b".")
    # Only digits and single commas remain, so no token is unmatched; strtoll
    # saturates a significand beyond int64, which the bound below sends to the callable.
    significands = np.fromstring(digits, np.int64, sep=",")
    columns = []
    for c, kind in enumerate(kinds):
        m, f = significands[c::width], digits_after_dot[c::width]
        exact = plain[c::width] & (m < _EXACT_SIGNIFICAND)
        if kind is int:
            exact &= f < 0
            values = m
        else:
            exact &= f <= _MAX_DIGITS_AFTER_DOT
            q = m.astype(np.longdouble) / _POWERS.take(f, mode="clip")
            values = q.astype(np.float64)
            exact &= (q.view(np.uint64)[::2] & _LOW_BITS) != _MIDPOINT  # the significand's low word
        slow = np.flatnonzero(~exact)
        if len(slow):
            tokens = slow * width + c
            spans = zip(ends[tokens].tolist(), lengths[tokens].tolist())
            try:
                values[slow] = [kind(block[e - n : e]) for e, n in spans]
            except (ValueError, OverflowError):  # a token the callable rejects, or an int beyond int64
                return None
        columns.append(values)
    return columns
