"""Tests for run logs, failure epochs, debugging periods, and their CSV forms."""

import csv
import itertools
import math
import operator
from unittest import mock

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from relgauge.debug_economics import parse_discovery
from relgauge import failure_data, model_jm, model_weibull, numerics
from relgauge.errors import DomainError, NoFailures, NotMonotone, ParseError
from relgauge.failure_data import (
    DebugPeriod,
    DebugPeriods,
    FailureEpochs,
    Outcome,
    RunLog,
    RunRecord,
    intervals_from_epochs,
    parse_debug_periods,
    parse_failure_epochs,
    parse_run_log,
    summarize_runs,
)
from relgauge.model_nelson import parse_profiles, parse_weights
from relgauge.model_schumann import parse_schedule


def _csv(header: str, rows) -> str:
    """CSV text: ``header``, then one line per row with its values joined by commas."""
    return "".join(f"{line}\n" for line in [header, *(",".join(map(str, row)) for row in rows)])


def test_parse_run_log_basic():
    log = parse_run_log("duration,outcome\n1.5,success\n0.5,failure\n")
    assert log.total_runs == 2
    assert log.runs[0] == RunRecord(1.5, Outcome.SUCCESS)
    assert log.runs[1] == RunRecord(0.5, Outcome.FAILURE)


def test_parse_run_log_negative_duration():
    with pytest.raises(DomainError, match="row 2"):
        parse_run_log("duration,outcome\n-1,success\n")


def test_parse_run_log_header_only():
    assert parse_run_log("duration,outcome\n").total_runs == 0


def test_parse_run_log_case_insensitive_outcomes():
    log = parse_run_log("duration,outcome\n1,SUCCESS\n2,Failure\n")
    assert [r.outcome for r in log.runs] == [Outcome.SUCCESS, Outcome.FAILURE]


def test_parse_run_log_unknown_outcome():
    with pytest.raises(DomainError, match="row 3"):
        parse_run_log("duration,outcome\n1,success\n2,crashed\n")


def test_parse_run_log_bad_structure():
    with pytest.raises(ParseError, match="row 2"):
        parse_run_log("duration,outcome\n1,success,extra\n")
    with pytest.raises(ParseError, match="row 2"):
        parse_run_log("duration,outcome\nabc,success\n")
    with pytest.raises(ParseError, match="row 1"):
        parse_run_log("time,outcome\n1,success\n")
    with pytest.raises(ParseError):
        parse_run_log("")


def test_long_tokens_are_cut_in_messages():
    # Short tokens keep their full quoted form.
    with pytest.raises(ParseError, match=r"^row 2: could not parse duration from 'abc'$"):
        parse_run_log("duration,outcome\nabc,success\n")
    long = "x" * 5000
    cases = [
        (ParseError, f"duration,outcome\n{long},success\n"),
        (DomainError, f"duration,outcome\n1,{long}\n"),
        (ParseError, f"{long}\n1,success\n"),
    ]
    for error, text in cases:
        with pytest.raises(error) as info:
            parse_run_log(text)
        message = str(info.value)
        assert f"{'x' * 40}'... (" in message
        assert len(message) < 150


def test_run_log_round_trip():
    text = "duration,outcome\n1.5,success\n0.25,failure\n3.75,success\n"
    log = parse_run_log(text)
    assert _csv("duration,outcome", ((r.duration, r.outcome.value) for r in log.runs)) == text


def _run_log_row_by_row(text):
    """parse_run_log as each row was once checked: duration, then outcome, row by row."""
    rows, (durations, tokens) = failure_data.read_columns(text, (("duration", float), ("outcome", str)))
    runs = []
    for row_number, duration, token in zip(rows, durations, tokens):
        if not (math.isfinite(duration) and duration > 0.0):
            raise DomainError(f"row {row_number}: run duration must be positive, got {duration}")
        try:
            outcome = Outcome(token.strip().lower())
        except ValueError:
            raise DomainError(f"row {row_number}: unknown outcome token {failure_data._shown(token.strip())}") from None
        runs.append(RunRecord(duration, outcome))
    return RunLog(tuple(runs))


_DURATIONS = st.sampled_from(["1.5", "0.25", " 3 ", "-1", "0", "nan", "inf", "-0.0", "1e-320"])
_OUTCOMES = st.sampled_from(["success", "failure", "SUCCESS", " Failure ", "crashed", "", "x" * 60])


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(
    rows=st.lists(st.tuples(_DURATIONS, _OUTCOMES), max_size=8),
    ending=st.sampled_from(["\n", "\r\n", '\n"1",success\n']),  # the last sends the file to the row reader
)
def test_run_log_reports_what_a_row_by_row_check_reports(rows, ending):
    text = "duration,outcome" + "".join(f"\n{d},{o}" for d, o in rows) + ending
    assert _outcome(lambda: parse_run_log(text)) == _outcome(lambda: _run_log_row_by_row(text))


def test_summarize_runs_example():
    """Eight successes totaling 9.0 plus two failures totaling 1.0: exposure 10,
    rate 0.2, mean time to failure 5."""
    runs = [RunRecord(9.0 / 8.0, Outcome.SUCCESS)] * 8 + [RunRecord(0.5, Outcome.FAILURE)] * 2
    summary = summarize_runs(RunLog(tuple(runs)))
    assert summary.exposure == pytest.approx(10.0, rel=1e-12)
    assert summary.lambda_hat == pytest.approx(0.2, rel=1e-12)
    assert summary.t_hat == pytest.approx(5.0, rel=1e-12)


def test_summarize_single_failure():
    summary = summarize_runs(RunLog((RunRecord(4.0, Outcome.FAILURE),)))
    assert summary.exposure == 4.0
    assert summary.lambda_hat == 0.25
    assert summary.t_hat == 4.0


def test_summarize_no_failures():
    log = RunLog(tuple(RunRecord(2.0, Outcome.SUCCESS) for _ in range(3)))
    with pytest.raises(NoFailures) as excinfo:
        summarize_runs(log)
    assert excinfo.value.exposure == pytest.approx(6.0)


def test_summarize_empty_log():
    with pytest.raises(DomainError):
        summarize_runs(RunLog(()))


def test_summarize_exposure_conservation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        durations = rng.uniform(0.1, 5.0, size=n)
        outcomes = rng.integers(0, 2, size=n)
        if not outcomes.any():
            outcomes[0] = 1
        runs = tuple(
            RunRecord(float(d), Outcome.FAILURE if o else Outcome.SUCCESS)
            for d, o in zip(durations, outcomes)
        )
        summary = summarize_runs(RunLog(runs))
        assert summary.exposure == pytest.approx(float(durations.sum()), rel=1e-12)


def test_epochs_validation():
    FailureEpochs((1.0, 3.0, 6.0))
    with pytest.raises(NotMonotone):
        FailureEpochs((2.0, 2.0))
    with pytest.raises(DomainError):
        FailureEpochs((0.0, 1.0))
    with pytest.raises(DomainError):
        FailureEpochs((-1.0, 1.0))


def _epochs_check_before(e):
    """FailureEpochs' check before its one ordered pass: a finiteness and sign pass, then the order.

    Returns ``e`` when it passes.
    """
    try:
        fast = all(map(math.isfinite, e)) and min(e, default=math.inf) > 0.0
    except (TypeError, ValueError, OverflowError):
        fast = False
    if fast and all(map(operator.lt, e, e[1:])):
        return e
    prev = 0.0
    for i, t in enumerate(e):
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"epoch {i + 1} must be finite and positive, got {t}")
        if t <= prev:
            raise NotMonotone(f"epochs must be strictly increasing: epoch {i + 1} is {t} after {prev}")
        prev = t
    return e


def _outcome(compute):
    try:
        return "ok", compute()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


_EPOCH_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308,
                1, 2**53, 2**53 + 1, 10**400, None, "1.0"]
_EPOCH_VALUES = st.floats() | st.sampled_from(_EPOCH_EDGES) | st.integers(-3, 2**60)


@st.composite
def _epoch_tuples(draw):
    """Any few values, or increasing ones with equal, decreasing or extreme neighbours put in."""
    if draw(st.booleans()):
        return tuple(draw(st.lists(_EPOCH_VALUES, max_size=6)))
    values = sorted(draw(st.lists(st.floats(5e-324, 1e308) | st.integers(1, 2**60), max_size=6)))
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        i = draw(st.integers(0, len(values) - 1))
        how = draw(st.sampled_from(["equal", "swap", "edge"]))
        if how == "equal":
            values.insert(i, values[i])
        elif how == "swap" and i + 1 < len(values):
            values[i], values[i + 1] = values[i + 1], values[i]
        else:
            values[i] = draw(st.sampled_from(_EPOCH_EDGES))
    return tuple(values)


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(epochs=_epoch_tuples())
@hypothesis.example(epochs=())
@hypothesis.example(epochs=(math.nan,))
@hypothesis.example(epochs=(1.0, 10**400))
@hypothesis.example(epochs=(1, 10**400, 2))
@hypothesis.example(epochs=(2**53, 2**53 + 1))
@hypothesis.example(epochs=(-0.0, 1.0))
def test_epochs_check_accepts_and_rejects_as_before(epochs):
    got = _outcome(lambda: FailureEpochs(epochs).epochs)
    assert got == _outcome(lambda: _epochs_check_before(epochs))


def _fit_outcomes(intervals):
    """The JM fit with its covariance and both Weibull moment fits, as reprs or errors."""
    jm = _outcome(lambda: repr(model_jm.covariance(model_jm.fit_mle(intervals), intervals)))
    weibull = [_outcome(lambda: repr(model_weibull.fit_moments(intervals, form)))
               for form in model_weibull.MomentForm]
    return jm, weibull


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(steps=st.lists(st.floats(1e-300, 1e300) | st.floats(0.5, 2.0), min_size=1, max_size=40))
def test_fits_give_the_same_bits_on_the_interval_array_and_its_list(steps):
    epochs = tuple(itertools.accumulate(steps))
    hypothesis.assume(all(map(operator.lt, epochs, epochs[1:])) and math.isfinite(epochs[-1]))
    differences = list(map(float.hex, map(operator.sub, epochs, itertools.chain((0.0,), epochs))))
    with mock.patch.object(numerics, "ARRAY_MIN", 0):  # the array path at every size
        intervals = intervals_from_epochs(FailureEpochs(epochs))
        array = _fit_outcomes(intervals)
        assert _fit_outcomes(intervals.tolist()) == array
    assert intervals.dtype == np.float64
    assert list(map(float.hex, intervals.tolist())) == differences
    listed = intervals_from_epochs(FailureEpochs(epochs))  # the list path below ARRAY_MIN epochs
    assert type(listed) is list
    assert list(map(float.hex, listed)) == differences
    assert _fit_outcomes(listed) == array


def test_fits_give_the_same_bits_on_the_interval_array_and_its_list_at_1e5():
    rng = np.random.default_rng(22)
    rates = (125_000.0 - np.arange(100_000)) / 125_000.0
    epochs = tuple(np.cumsum(rng.exponential(1.0 / rates)).tolist())
    intervals = intervals_from_epochs(FailureEpochs(epochs))
    outcomes = _fit_outcomes(intervals)
    assert outcomes[0][0] == "ok" and all(kind == "ok" for kind, _ in outcomes[1])
    assert outcomes == _fit_outcomes(intervals.tolist())


def test_intervals_examples():
    assert intervals_from_epochs(FailureEpochs((1.0, 3.0, 6.0))) == [1.0, 2.0, 3.0]
    assert intervals_from_epochs(FailureEpochs((5.0,))) == [5.0]


def test_intervals_round_trip_exact():
    """Cumulative-summing the intervals reproduces the epochs exactly.

    Uses dyadic epochs (multiples of 1/1024 below 2**12) so every
    subtraction and addition is exact in binary floating point; the
    property is then a strict equality, not a tolerance check.
    """
    rng = np.random.default_rng(99)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        steps = rng.integers(1, 4096, size=k).astype(float) / 1024.0
        epochs = tuple(np.cumsum(steps))
        intervals = intervals_from_epochs(FailureEpochs(epochs))
        acc = 0.0
        rebuilt = []
        for dt in intervals:
            acc += dt
            rebuilt.append(acc)
        assert tuple(rebuilt) == epochs


def test_parse_failure_epochs():
    epochs = parse_failure_epochs("epoch\n1\n3\n6\n")
    assert epochs.epochs == (1.0, 3.0, 6.0)
    with pytest.raises(NotMonotone):
        parse_failure_epochs("epoch\n3\n1\n")
    with pytest.raises(ParseError, match="row 3"):
        parse_failure_epochs("epoch\n1\nxyz\n")


def test_failure_epochs_round_trip():
    epochs = FailureEpochs((0.5, 1.25, 9.0))
    assert parse_failure_epochs(_csv("epoch", ((t,) for t in epochs.epochs))) == epochs


def test_debug_period_validation():
    DebugPeriod(0.0, 0, 1.0, 0)
    with pytest.raises(DomainError):
        DebugPeriod(-1.0, 0, 1.0, 0)
    with pytest.raises(DomainError):
        DebugPeriod(0.0, -1, 1.0, 0)
    with pytest.raises(DomainError):
        DebugPeriod(0.0, 0, 0.0, 0)
    with pytest.raises(DomainError):
        DebugPeriod(0.0, 0, 1.0, -2)


def test_parse_debug_periods():
    text = "tau,corrected,exposure,failures\n1.0,20,1000.0,10\n2.0,50,1600.0,10\n"
    periods = parse_debug_periods(text)
    assert periods == [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 50, 1600.0, 10)]
    rows = ((p.tau, p.corrected, p.exposure, p.failures) for p in periods)
    assert parse_debug_periods(_csv("tau,corrected,exposure,failures", rows)) == periods


def test_debug_periods_hold_columns():
    rows = [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 50, 1600.0, 10)]
    periods = DebugPeriods.of(rows)
    assert periods == rows and rows == periods
    assert len(periods) == 2 and periods[1] == rows[1] and periods[-2] == rows[0]
    assert list(periods) == rows and periods[:1] == rows[:1]
    assert periods.exposure == (1000.0, 1600.0)
    assert DebugPeriods.of(periods) is periods
    assert DebugPeriods((0.0,), (True,), (1.0,), (0,))  # bools pass, as DebugPeriod takes them
    with pytest.raises(DomainError, match="^exposure must be finite and positive, got -5.0$"):
        DebugPeriods((1.0, 2.0), (0, 1), (1.0, -5.0), (0, 0))
    with pytest.raises(DomainError, match="^corrected count must be a non-negative integer, got 1.5$"):
        DebugPeriods((1.0,), (1.5,), (1.0,), (0,))
    with pytest.raises(DomainError, match="equal lengths"):
        DebugPeriods((1.0,), (0, 1), (1.0,), (0,))


def test_parse_debug_periods_errors():
    with pytest.raises(ParseError, match="row 2"):
        parse_debug_periods("tau,corrected,exposure,failures\n1.0,20.5,1000,10\n")
    with pytest.raises(DomainError, match="row 2"):
        parse_debug_periods("tau,corrected,exposure,failures\n1.0,20,-5,10\n")


def test_blank_rows_are_skipped():
    log = parse_run_log("duration,outcome\n1,success\n\n2,failure\n")
    assert log.total_runs == 2


# Every parser goes through failure_data.read_columns; this contract is the one
# place a change to the shared reader shows up.  Each case: the parser, its
# header, two valid data rows, and a row whose bad token belongs to `name`.
PARSER_CASES = [
    (parse_run_log, "duration,outcome", ["1.5,success", "0.5,failure"], " x ,success", "duration"),
    (parse_failure_epochs, "epoch", ["1.5", "2.5"], " x ", "epoch"),
    (
        parse_debug_periods,
        "tau,corrected,exposure,failures",
        ["1.0,20,1000.0,10", "2.0,50,1600.0,10"],
        "3.0,60,1600.0, x ",
        "failures",
    ),
    (
        parse_schedule,
        "tau,corrected,exposure",
        ["1.0,10,1570.0", "2.0,30,1570.0"],
        "3.0, x ,1.0",
        "corrected",
    ),
    (parse_discovery, "tau,corrected", ["10,63.2", "20,86.5"], "30, x ", "corrected"),
    (parse_profiles, "p,y", ["0.25,1", "0.75,0"], "0.5, x ", "y"),
    (parse_profiles, "run,p,y", ["1,0.5,0", "1,0.5,1"], " x ,0.5,0", "run"),
    (parse_weights, "weight", ["1.5", "0.5"], " x ", "weight"),
]


@pytest.mark.parametrize(
    "parser, header, rows, bad_row, name",
    PARSER_CASES,
    ids=[f"{case[0].__name__}-{case[1]}" for case in PARSER_CASES],
)
def test_parser_contract(parser, header, rows, bad_row, name):
    def text(*lines):
        return "\n".join(lines) + "\n"

    width = header.count(",") + 1
    expected = parser(text(header, *rows))
    assert expected  # the valid rows parse to something

    with pytest.raises(ParseError, match="^row 1: expected header"):
        parser(text("wrong," + header, *rows))
    if width > 1:
        short = rows[1].rsplit(",", 1)[0]
        with pytest.raises(ParseError, match=f"^row 3: expected {width} fields, got {width - 1}$"):
            parser(text(header, rows[0], short))
    with pytest.raises(ParseError, match=f"^row 3: expected {width} fields, got {width + 1}$"):
        parser(text(header, rows[0], rows[1] + ",1"))
    with pytest.raises(ParseError, match=f"^row 4: could not parse {name} from 'x'$"):
        parser(text(header, rows[0], rows[1], bad_row))

    assert parser(text(header, "", rows[0], "   ", "," * (width - 1), rows[1], "")) == expected
    assert parser(text(header, *rows).replace("\n", "\r\n")) == expected
    assert parser(text(header, *rows).replace("\n", "\r")) == expected


def test_bad_value_is_reported_before_a_later_parse_error():
    """Row checks run as rows are read, whatever path the file takes."""
    header = "tau,corrected,exposure,failures"
    for tail in ("", '\n"2.0",x,1,1'):  # a regular file, then one read row by row
        with pytest.raises(DomainError, match="^row 3: exposure must be finite"):
            parse_debug_periods(f"{header}\n1.0,20,1000,10\n2.0,30,-5,1{tail}\n")
        with pytest.raises(ParseError, match="^row 4: run 1 reappears"):
            parse_profiles(f"run,p,y\n1,1.0,0\n2,1.0,0\n1,1.0,0{tail.replace('x,1,1', 'x,0')}\n")
    with pytest.raises(ParseError, match="^row 3: could not parse p"):
        parse_profiles("run,p,y\n1,1.0,0\n2,x,0\n1,1.0,0\n")
    for newline in ("\n", "\r\n"):  # the x on row 4 sends both to the row reader
        run_log = newline.join(["duration,outcome", "1.0,success", "-1,failure", "x,success", ""])
        with pytest.raises(DomainError, match="^row 3: run duration must be positive, got -1.0$"):
            parse_run_log(run_log)
        schedule = newline.join(["tau,corrected,exposure", "0.0,10,1570", "1.0,20,-5", "x,30,1570", ""])
        with pytest.raises(DomainError, match="^row 3: exposure must be positive, got -5.0$"):
            parse_schedule(schedule)


def test_read_columns_builds_once():
    """build runs once: on every row, or on the rows before the first unparseable one."""
    calls = []

    def build(rows, table):
        calls.append((list(rows), table))
        return "built"

    columns = (("a", float), ("b", int))
    for text in ("a,b\n1,2\n3,4\n", "a,b\r\n1,2\r\n\r\n3,4\r\n"):  # LF, then CRLF with a blank line
        assert failure_data.read_columns(text, columns, build) == "built"
    assert calls == [([2, 3], [[1.0, 3.0], [2, 4]]), ([2, 4], [[1.0, 3.0], [2, 4]])]
    calls.clear()
    with pytest.raises(ParseError, match="^row 4: could not parse b from 'x'$"):
        failure_data.read_columns("a,b\n1,2\n\n3,x\n5,6\n", columns, build)
    with pytest.raises(ParseError, match="^row 1: expected header"):
        failure_data.read_columns("b,a\n1,2\n", columns, build)
    assert calls == [([2], [[1.0], [2]]), ([], [[], []])]


def test_each_value_is_checked_once(monkeypatch):
    """Each run is checked once, and the period columns are checked whole, with or without a blank line."""
    records, periods = [], []
    run_record, debug_period = failure_data.RunRecord, failure_data.DebugPeriod
    monkeypatch.setattr(failure_data, "RunRecord", lambda *args: records.append(1) or run_record(*args))
    monkeypatch.setattr(failure_data, "DebugPeriod", lambda *args: periods.append(1) or debug_period(*args))
    for blank in ([], [""]):
        parse_run_log("\n".join(["duration,outcome", "1.0,success", *blank, "2.0,failure", "3.0,success", ""]))
        assert len(records) == 3
        periods_text = ["tau,corrected,exposure,failures", "1.0,20,1000,10", *blank, "2.0,50,1600,10", ""]
        parse_debug_periods("\n".join(periods_text))
        assert not periods  # the columns are checked whole
        records.clear()


def _fallback_cases():
    """The parser cases above, with their valid rows and the width of each."""
    for parser, header, rows, _, _ in PARSER_CASES:
        yield parser, header, rows, header.count(",") + 1


# The parsers that read with arrays=True, with the i-th valid row of a file of ARRAY_MIN rows.
ARRAY_CASES = [
    (parse_failure_epochs, "epoch", lambda i: f"{i + 1}.5"),
    (parse_debug_periods, "tau,corrected,exposure,failures", lambda i: f"{i + 1}.0,{i},1000.0,{i % 3}"),
    (parse_discovery, "tau,corrected", lambda i: f"{i + 1},{i}.5"),
    (parse_profiles, "p,y", lambda i: f"{1 / numerics.ARRAY_MIN!r},{i % 2}"),
    (parse_profiles, "run,p,y", lambda i: f"{i // 8 + 1},0.125,{i % 2}"),
]


def _all_cases():
    """The parser cases, then the files of ARRAY_MIN rows, which a regular file keeps on the array path."""
    yield from _fallback_cases()
    for parser, header, row in ARRAY_CASES:
        yield parser, header, [*map(row, range(numerics.ARRAY_MIN))], header.count(",") + 1


def test_line_ends_are_read_whole(monkeypatch):
    """CRLF, CR and trailing blank lines give the LF result, and keep a file of ARRAY_MIN rows on the array path."""
    reads = []
    row_reader = failure_data._read_rows
    monkeypatch.setattr(failure_data, "_read_rows", lambda *args: reads.append(1) or row_reader(*args))
    for parser, header, rows, _ in _all_cases():
        plain = "\n".join([header, *rows]) + "\n"
        expected = parser(plain)
        for newline in ("\r\n", "\r"):
            assert parser(plain.replace("\n", newline)) == expected, (parser.__name__, newline)
            assert parser(plain.replace("\n", newline) + newline * 2) == expected, (parser.__name__, newline)
        assert parser(plain + "\n\n") == expected, parser.__name__
        assert bool(reads) == (len(rows) < numerics.ARRAY_MIN), (parser.__name__, header)
        reads.clear()


# Each way a file leaves the array path, with what the row reader makes of it:
# the same result as the plain file, or its own ParseError.  Each edits the first two rows.
FALLBACK_TRIGGERS = {
    "quoted token": (lambda h, r, w: [h, '"' + r[0].replace(",", '","') + '"', *r[1:]], None),
    "blank line": (lambda h, r, w: [h, r[0], "", *r[1:]], None),
    "wrong width": (lambda h, r, w: [h, r[0], r[1] + ",1", *r[2:]], "^row 3: expected {w} fields, got {w1}$"),
    "field over the csv limit": (
        lambda h, r, w: [h, r[0], " " * csv.field_size_limit() + r[1], *r[2:]],
        r"^row 3: field larger than field limit \(\d+\)$",
    ),
    "failed conversion": (
        lambda h, r, w: [h, r[0], ",".join(["?", *r[1].split(",")[1:]]), *r[2:]],
        "^row 3: could not parse .* from '\\?'$",
    ),
}


@pytest.mark.parametrize("trigger", list(FALLBACK_TRIGGERS))
def test_fallback_trigger(trigger, monkeypatch):
    build, error = FALLBACK_TRIGGERS[trigger]
    reads = []
    row_reader = failure_data._read_rows
    monkeypatch.setattr(failure_data, "_read_rows", lambda *args: reads.append(1) or row_reader(*args))
    for parser, header, rows, width in _all_cases():
        expected = parser("\n".join([header, *rows]) + "\n")
        assert bool(reads) == (len(rows) < numerics.ARRAY_MIN), parser.__name__  # a large file is read whole
        text = "\n".join(build(header, rows, width)) + "\n"
        if error is None:
            assert parser(text) == expected
        else:
            with pytest.raises(ParseError, match=error.format(w=width, w1=width + 1)):
                parser(text)
        assert reads, parser.__name__
        reads.clear()
