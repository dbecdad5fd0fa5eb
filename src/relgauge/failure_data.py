"""Failure observations and the CSV formats they travel in.

Three record shapes cover every estimator in the package: per-run outcome
logs, and cumulative failure epochs and per-debugging-period counts, held
as the parser's columns by :class:`record.Columns` records.  Every CSV
parser in the package reads through :func:`read_columns`, which reports
the offending 1-based row (the header is row 1) so bad files can be fixed
without guesswork.  Asked for arrays, a regular file of float and int
columns and ``numerics.ARRAY_MIN`` rows or more (epochs, periods, profiles,
discovery rows) is converted by :mod:`relgauge.decimal_columns` into
float64 and int64 columns, in numpy passes that give float()'s bits and
int()'s values, CR and CRLF line ends read as LF.  Every other file (run
logs, weights, schedules, smaller files, and any file that converter
refuses) is read row by row by csv's reader, which owns every error
message.  A parser checks its values in one ``build`` hook, which
:func:`read_columns` runs once, so the first bad row in file order is
reported whichever path the file takes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum

from . import numerics
from .errors import DomainError, NoFailures, NotMonotone, ParseError
from .numerics import all_at_least
from .record import Columns, Record


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class RunRecord(Record):
    """One test run: how long it ran and whether it failed."""

    _fields = ("duration", "outcome")

    def _check(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise DomainError(f"run duration must be finite and positive, got {self.duration}")
        if not isinstance(self.outcome, Outcome):
            raise DomainError(f"outcome must be an Outcome value, got {self.outcome!r}")


class RunLog(Record):
    """An ordered collection of test runs."""

    _fields = ("runs",)

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.runs if r.outcome is Outcome.FAILURE)


class RunSummary(Record):
    """Exposure-based rate summary of a run log."""

    _fields = ("exposure", "lambda_hat", "t_hat")


class FailureEpochs(Columns):
    """Cumulative failure times, strictly increasing and positive: one column, whose rows are the epochs."""

    _fields = ("epochs",)

    def _check(self) -> None:
        e = self.epochs
        # Increasing from a positive first to a finite last: each finite and positive.
        # An array is compared whole, and a NaN fails the comparison.
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if not len(e) or (
                e[0] > 0.0
                and math.isfinite(e[-1])
                and (all(map(operator.lt, e, e[1:])) if type(e) is tuple else (e[1:] > e[:-1]).all())
            ):
                return
        prev = 0.0
        for i, t in enumerate(self):  # Python numbers, so the first bad epoch is named as in a tuple
            if not (math.isfinite(t) and t > 0.0):
                raise DomainError(f"epoch {i + 1} must be finite and positive, got {t}")
            if t <= prev:
                raise NotMonotone(
                    f"epochs must be strictly increasing: epoch {i + 1} is {t} after {prev}"
                )
            prev = t

    def _row(self, views: list, j: int) -> float:
        return views[0][j]


class DebugPeriod(Record):
    """One debugging period: elapsed debug time, corrections so far, test exposure, failures seen."""

    _fields = ("tau", "corrected", "exposure", "failures")

    def _check(self) -> None:
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise DomainError(f"debug time must be finite and non-negative, got {self.tau}")
        if not (isinstance(self.corrected, int) and self.corrected >= 0):
            raise DomainError(f"corrected count must be a non-negative integer, got {self.corrected}")
        if not (math.isfinite(self.exposure) and self.exposure > 0.0):
            raise DomainError(f"exposure must be finite and positive, got {self.exposure}")
        if not (isinstance(self.failures, int) and self.failures >= 0):
            raise DomainError(f"failure count must be a non-negative integer, got {self.failures}")


class DebugPeriods(Columns):
    """Debugging periods held column by column, as :func:`parse_debug_periods` returns them.

    The rows are DebugPeriod records.  The columns are checked once, with
    DebugPeriod's rules, in C or whole-array passes; where one fails, the
    periods are checked in order, so the first bad one raises.
    """

    _fields = DebugPeriod._fields

    def _check(self) -> None:
        if not (
            _all_counts(self.corrected)
            and _all_counts(self.failures)
            and all_at_least(self.tau, 0.0)
            and all_at_least(self.exposure, 0.0, strict=True)
        ):
            list(map(DebugPeriod, *self._views()))  # each period checks itself, so the first bad one raises

    def _row(self, views: list, j: int) -> DebugPeriod:
        return DebugPeriod._unchecked(*[view[j] for view in views])

    @classmethod
    def of(cls, periods: Iterable[DebugPeriod]) -> DebugPeriods:
        """``periods`` as columns; a DebugPeriods is returned as it is."""
        if isinstance(periods, DebugPeriods):
            return periods
        periods = list(periods)
        return cls(*(tuple(getattr(p, name) for p in periods) for name in cls._fields))


def _all_counts(values: Sequence) -> bool:
    """Whether every value is a non-negative int, in C passes; False when unsure."""
    if type(values) is tuple:
        return set(map(type, values)) <= {int} and min(values, default=0) >= 0
    return values.dtype.kind in "iu" and values.min(initial=0) >= 0


_ColumnSpec = Sequence[tuple[str, Callable[[str], object]]]


def read_columns(
    text: str,
    columns: _ColumnSpec,
    build: Callable[[Sequence[int], list], object] = lambda rows, table: (rows, table),
    *,
    arrays: bool = False,
) -> object:
    """``build(rows, table)`` of the row numbers and the columns (one list each) of CSV ``text``.

    ``columns`` names each expected column with the callable (``float``,
    ``int``, ``str``) that converts its token.  The header must match the
    names case-insensitively, blank rows are skipped, every other row must
    have one field per column, and any line ending is accepted.  Structural
    problems raise ParseError with the 1-based row (the header is row 1).

    ``build``, which checks the values and makes the parser's result, runs
    exactly once.  When a row cannot be parsed it runs on the rows before
    that one, and that row's ParseError is raised unless ``build`` raises
    first, so the first bad row in file order is the one reported.
    Without it the row numbers and the columns are returned.

    With ``arrays``, a regular file (see :func:`_array_columns`) of at least
    ``numerics.ARRAY_MIN`` rows and only float and int columns gives arrays
    of the same values instead of lists: a float64 or int64 ndarray per
    column, converted by :mod:`relgauge.decimal_columns`.  Every other file,
    and one that converter cannot take token for token, the row reader
    reads, into lists.
    """
    table = _array_columns(text, columns) if arrays else None
    if table is not None:
        return build(range(2, len(table[0]) + 2), table)
    rows, values = [], []
    try:
        for row_number, row in _read_rows(text, columns):
            rows.append(row_number)
            values.append(row)
    except ParseError:
        build(rows, _transposed(values, len(columns)))
        raise
    return build(rows, _transposed(values, len(columns)))


def _transposed(rows: list[list], width: int) -> list[list]:
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


def _array_columns(text: str, columns: _ColumnSpec) -> list | None:
    """The ndarray columns of ``text`` from :mod:`relgauge.decimal_columns`, or None.

    Only a regular file of float and int columns and at least
    ``numerics.ARRAY_MIN`` lines is converted.  Regular means: no quote, no
    field over csv's size limit, and a matching header.  csv then splits the
    body at its commas and line ends alone, and the converter gives None for
    any line or token that the callables do not take as they are, so the
    values are those of the row reader.  "\r\n" and "\r" become "\n" as in
    the row reader, and lines are split on "\n" alone: csv ends a line at no
    other character (str.splitlines would also split on \v, \f, \x1c-\x1e,
    \x85, \u2028 and \u2029).
    """
    kinds = [kind for _, kind in columns]
    if not set(kinds) <= {float, int} or '"' in text:
        return None
    if "\r" in text:  # the test costs a fortieth of the two scans it spares
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # A field over the limit, which float() would read as inf, would hold a
    # whole aligned block of half the limit with no separator in it.
    block = max(csv.field_size_limit() // 2, 1)
    for start in range(0, len(text) - block + 1, block):
        if text.find(",", start, start + block) < 0 and text.find("\n", start, start + block) < 0:
            return None
    newline = text.find("\n")
    header = text if newline < 0 else text[:newline]
    if [h.strip().lower() for h in header.split(",")] != [name for name, _ in columns]:
        return None
    # The body, text[start:stop], is read in place: a copy of it would double the text's memory.
    start, stop = len(header) + 1, len(text)
    while stop > start and text[stop - 1] == "\n":  # csv skips the blank lines at the end
        stop -= 1
    # ARRAY_MIN lines or more: the line ends are found up to that many lines, not counted.
    lines, end = int(stop > start), start
    while lines < numerics.ARRAY_MIN:
        end = text.find("\n", end, stop) + 1
        if not end:
            return None
        lines += 1
    from . import decimal_columns  # here, so a smaller file never compiles it

    return decimal_columns.arrays(text, start, stop, kinds)


def listed(table: list) -> list[list]:
    """Each column of ``table`` as a list of Python floats and ints: an ndarray's by ``tolist``."""
    return [column if type(column) is list else column.tolist() for column in table]


def _read_rows(text: str, columns: _ColumnSpec) -> Iterator[tuple[int, list]]:
    """The row-by-row reader behind :func:`read_columns`, for any file."""
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]
    width = len(columns)
    reader = csv.reader(io.StringIO(text, newline=None))
    row_number = 0  # the last row read; csv errors belong to the next one
    try:
        header = next(reader, None)
        row_number = 1
        if header is None:
            raise ParseError(f"empty input, expected header {','.join(names)!r}", row=1)
        if [h.strip().lower() for h in header] != names:
            raise ParseError(
                f"expected header {','.join(names)!r}, got {_shown(','.join(header))}", row=1
            )
        for row in reader:
            row_number += 1
            if len(row) == width:
                try:
                    # float and int accept the surrounding whitespace themselves.
                    values = [kind(token) for kind, token in zip(kinds, row)]
                except ValueError:
                    pass
                else:
                    yield row_number, values
                    continue
            if all(not field.strip() for field in row):
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", row=row_number)
            # Strip before converting again: str.strip also removes the
            # separators \x1c-\x1f, which float and int reject.
            yield row_number, [
                _convert(kind, token.strip(), name, row_number)
                for name, kind, token in zip(names, kinds, row)
            ]
    except csv.Error as exc:
        raise ParseError(str(exc), row=row_number + 1) from None


# Longer tokens are cut in error messages, which must stay one short line.
_SHOWN_CHARS = 40


def _shown(token: str) -> str:
    """``token`` quoted for an error message, its head and length if it is long."""
    if len(token) <= _SHOWN_CHARS:
        return repr(token)
    return f"{token[:_SHOWN_CHARS]!r}... ({len(token)} characters)"


def _convert(kind: Callable[[str], object], token: str, name: str, row_number: int) -> object:
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"could not parse {name} from {_shown(token)}", row=row_number) from None


def parse_run_log(text: str) -> RunLog:
    """Parse ``duration,outcome`` CSV text into a RunLog.

    Outcome tokens are matched case-insensitively.  Raises ParseError for
    structural problems and DomainError (with the row number) for values
    outside the domain.
    """
    columns = (("duration", float), ("outcome", str))
    return read_columns(text, columns, _run_log)


def _run_log(rows: Sequence[int], table: list[list]) -> RunLog:
    """The runs of the columns: the durations checked in C passes, each distinct outcome token read once."""
    durations, tokens = table
    outcome_of = {token: _known_outcome(token.strip().lower()) for token in set(tokens)}
    outcomes = list(map(outcome_of.__getitem__, tokens))
    if not (all_at_least(durations, 0.0, strict=True) and None not in outcomes):
        for row_number, duration, token, outcome in zip(rows, durations, tokens, outcomes):
            if not (math.isfinite(duration) and duration > 0.0):
                raise DomainError(f"row {row_number}: run duration must be positive, got {duration}")
            if outcome is None:
                raise DomainError(f"row {row_number}: unknown outcome token {_shown(token.strip())}")
    return RunLog(tuple(map(RunRecord, durations, outcomes)))


def _known_outcome(key: str) -> Outcome | None:
    try:
        return Outcome(key)
    except ValueError:
        return None


def parse_failure_epochs(text: str) -> FailureEpochs:
    """Parse single-column ``epoch`` CSV text into validated FailureEpochs.

    The epochs are :func:`numerics.floats` of the column read: a tuple below
    ``numerics.ARRAY_MIN`` rows, a read-only float64 ndarray from there on.
    """
    _, (column,) = read_columns(text, (("epoch", float),), arrays=True)
    return FailureEpochs(numerics.floats(column))  # the reader's array as it is


def parse_debug_periods(text: str) -> DebugPeriods:
    """Parse ``tau,corrected,exposure,failures`` CSV text into checked period columns."""
    columns = (("tau", float), ("corrected", int), ("exposure", float), ("failures", int))
    return read_columns(text, columns, _debug_periods, arrays=True)


def _debug_periods(rows: Sequence[int], table: list) -> DebugPeriods:
    try:
        return DebugPeriods(*table)
    except DomainError:
        for row_number, *values in zip(rows, *listed(table)):
            try:
                DebugPeriod(*values)
            except DomainError as exc:
                raise DomainError(f"row {row_number}: {exc}") from None
        raise


def summarize_runs(log: RunLog) -> RunSummary:
    """Turn a run log into exposure, failure rate, and mean time to failure.

    The rate is failures over total exposure; its reciprocal is the mean
    time to failure.  Raises NoFailures (carrying the exposure) when the log
    records no failures at all, and DomainError for an empty log.
    """
    if not log.runs:
        raise DomainError("cannot summarize an empty run log")
    exposure = math.fsum(r.duration for r in log.runs)
    failures = log.failure_count
    if failures == 0:
        raise NoFailures(
            f"no failures in {log.total_runs} runs over exposure {exposure}", exposure=exposure
        )
    lambda_hat = failures / exposure
    return RunSummary(exposure=exposure, lambda_hat=lambda_hat, t_hat=exposure / failures)


def intervals_from_epochs(epochs: FailureEpochs):
    """Difference cumulative failure epochs into inter-failure intervals.

    They are differenced on :func:`numerics.floats` of the epochs: a list
    below ``numerics.ARRAY_MIN`` epochs, so a small fit loads no numpy, and
    one ``np.diff`` of a float64 ndarray from there on.  The first interval
    is measured from time zero.  A running sum of the intervals gives the
    epochs back only when every subtraction is exact.
    """
    x = numerics.floats(epochs.epochs)
    if type(x) is list:
        return list(map(operator.sub, x, [0.0, *x[:-1]]))
    import numpy as np  # floats has loaded it

    return np.diff(x, prepend=0.0)
