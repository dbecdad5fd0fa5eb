"""The reader's columns give what the row reader's lists give: records, fit reports and first errors.

From ``numerics.ARRAY_MIN`` rows on, a regular periods, discovery or profile
file is read into numpy columns, which ``DebugPeriods``, ``parse_discovery``
and ``RunProfiles`` hold as they are and hand on to the fits.  Its twin,
the same file with one token quoted, is read by csv's row reader into
lists.  Each file here is drawn at ``ARRAY_MIN - 1`` rows, at ``ARRAY_MIN``
and past it, read in blocks of 97 characters or of the real block size, so
that block ends fall among its lines, and must give its twin's records
(compared by their reprs, so a numpy scalar would show), CLI report and
first error.
"""

import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from relgauge import decimal_columns, model_nelson, model_schumann, numerics  # noqa: E402
from relgauge.cli import run_cli  # noqa: E402
from relgauge.debug_economics import parse_discovery  # noqa: E402
from relgauge.errors import DomainError  # noqa: E402
from relgauge.failure_data import DebugPeriods, parse_debug_periods  # noqa: E402
from relgauge.model_nelson import RunProfiles, parse_profiles  # noqa: E402

ROWS = st.sampled_from([numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN, numerics.ARRAY_MIN + 37])
SPLITS = st.sampled_from([97, decimal_columns.BLOCK_CHARS])
SEEDS = st.integers(0, 2**32 - 1)


def _quoted(text):
    """The twin: the first token of the first data row quoted, so the row reader reads the file."""
    header, first, rest = text.split("\n", 2)
    token, _, tail = first.partition(",")
    return "\n".join([header, f'"{token}"' + (f",{tail}" if tail else ""), rest])


def _edited(lines, rng, edits):
    """``lines`` (lists of tokens) with one of ``edits`` (column, token) at a random row, or, as often, as they are."""
    edit = rng.choice([None] * len(edits) + edits)
    if edit is not None:
        column, token = edit
        lines[rng.randrange(len(lines))][column] = token
    return lines


def _text(header, lines):
    return header + "\n" + "".join(",".join(line) + "\n" for line in lines)


def _parsed(parse, text):
    """The reprs of the records ``parse`` makes of ``text``, or its error."""
    try:
        return [repr(record) for record in parse(text)]
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


def _cli(args, text):
    """run_cli's exit code, report less provenance, and stderr, on ``text`` given as the file ``{}``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([arg.format(path) for arg in args])
    report = json.loads(out.getvalue()) if code == 0 else None
    if report is not None:
        del report["provenance"]
    return code, report, err.getvalue()


def _same_as_twin(parse, args, text, split):
    twin = _quoted(text)
    with mock.patch.object(decimal_columns, "BLOCK_CHARS", split):
        assert _parsed(parse, text) == _parsed(parse, twin)
        assert _cli(args, text) == _cli(args, twin)


@st.composite
def _period_files(draw):
    """Periods of a growing program: corrected counts from 0 or from 2^53, failures falling with
    them, and their sum past 2^63 when drawn so."""
    rows, rng = draw(ROWS), random.Random(draw(SEEDS))
    base = rng.randrange(2**53, 2**62) if draw(st.booleans()) else 0
    scale = 2**57 if draw(st.booleans()) else 40
    corrected = [base + 3 * j + rng.randrange(3) for j in range(rows)]
    lines = [
        [repr(0.5 * j), str(n), repr(rng.uniform(1.0, 100.0)), str(int(scale * rng.random() * (rows - j) / rows))]
        for j, n in enumerate(corrected)
    ]
    edits = [(2, "-5.0"), (0, "nan"), (3, "-1"), (1, "1.5"), (2, "x"), (1, str(2**63))]
    return _text("tau,corrected,exposure,failures", _edited(lines, rng, edits))


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(text=_period_files(), split=SPLITS)
def test_periods_give_their_quoted_twins_records_report_and_error(text, split):
    args = ["fit", "schumann", "--input", "{}", "--instructions", "1000000"]
    _same_as_twin(parse_debug_periods, args, text, split)


@st.composite
def _discovery_files(draw):
    rows, rng = draw(ROWS), random.Random(draw(SEEDS))
    tau0, count, lines = rng.uniform(5.0, 500.0), 0.0, []
    for j in range(rows):
        tau = 0.25 * (j + 1) * tau0 / 20.0
        count = max(count, 300.0 * -math.expm1(-tau / tau0) + rng.uniform(-0.5, 0.5))
        lines.append([repr(tau), repr(count)])
    edits = [(0, "0"), (1, "-1.0"), (0, "nan"), (1, "x"), (0, "inf")]
    return _text("tau,corrected", _edited(lines, rng, edits))


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(text=_discovery_files(), split=SPLITS)
def test_discovery_rows_give_their_quoted_twins_pairs_report_and_error(text, split):
    args = ["economics", "--fit", "{}", "--size", "10000", "--tempo", "1000", "--cost-error", "7.5",
            "--cost-test", "1", "--horizon", "1"]
    _same_as_twin(parse_discovery, args, text, split)


@st.composite
def _profile_files(draw):
    rows, rng = draw(ROWS), random.Random(draw(SEEDS))
    lines, run = [], 0
    while len(lines) < rows:
        run += 1
        size = min(rng.randrange(1, 40), rows - len(lines))
        weights = [rng.random() + 1e-3 for _ in range(size)]
        total = math.fsum(weights)
        lines += [[str(run), repr(w / total), str(int(rng.random() < 0.1))] for w in weights]
    edits = [(1, "-0.5"), (1, "1e-6"), (2, "2"), (0, "1"), (1, "x"), (2, "1.0")]
    return _text("run,p,y", _edited(lines, rng, edits))


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(text=_profile_files(), split=SPLITS)
def test_profiles_give_their_quoted_twins_runs_report_and_error(text, split):
    _same_as_twin(parse_profiles, ["fit", "nelson", "--profile", "{}"], text, split)


def test_regular_files_are_held_as_the_readers_columns():
    """At ARRAY_MIN rows the three parsers hold numpy columns, read-only, and compare equal to
    the tuples of their twins."""
    rows = numerics.ARRAY_MIN
    periods = "".join(f"{0.5 * j!r},{3 * j},{10.0 + j!r},{rows - j}\n" for j in range(rows))
    text = "tau,corrected,exposure,failures\n" + periods
    held = parse_debug_periods(text)
    assert [column.dtype.str for column in (held.tau, held.corrected, held.exposure, held.failures)] == [
        "<f8", "<i8", "<f8", "<i8"]
    assert not held.corrected.flags.writeable and held == parse_debug_periods(_quoted(text))
    assert type(parse_debug_periods(_quoted(text)).tau) is tuple
    discovery = "tau,corrected\n" + "".join(f"{j + 1}.0,{j}.5\n" for j in range(rows))
    rows_held = parse_discovery(discovery)
    assert not rows_held.taus.flags.writeable and rows_held == list(parse_discovery(_quoted(discovery)))
    assert rows_held[-1] == (float(rows), rows - 0.5) and type(rows_held[0][0]) is float
    assert rows_held[:2] == [(1.0, 0.5), (2.0, 1.5)]


# RunProfiles screens each run's sum with np.add.reduceat and leaves to math.fsum only the runs
# the screen cannot place; runs whose exact sum is a few ulps either side of 1 +- _SUM_TOL must be
# accepted or refused as math.fsum's test accepts or refuses them.
_EDGES = [1.0 + model_nelson._SUM_TOL, 1.0 - model_nelson._SUM_TOL]


def _run_near(rng, size, target):
    """``size`` non-negative floats whose math.fsum is ``target`` or a float next to it."""
    head = [rng.random() / size for _ in range(size - 1)]
    last = target - math.fsum(head)
    return [*head, last]


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(
    seed=SEEDS,
    sizes=st.lists(st.integers(1, 600), min_size=1, max_size=6),
    edge=st.sampled_from(_EDGES),
    ulps=st.integers(-6, 6),
)
def test_run_sums_a_few_ulps_from_the_tolerance_are_judged_as_fsum_judges_them(seed, sizes, edge, ulps):
    rng = random.Random(seed)
    target = edge + ulps * math.ulp(edge)
    at = rng.randrange(len(sizes))  # the run on the edge; the others sum to 1 within rounding
    runs = [_run_near(rng, size, target if j == at else 1.0) for j, size in enumerate(sizes)]
    probs = [p for run in runs for p in run]
    starts = [0, *itertools.accumulate(len(run) for run in runs[:-1])]
    expected = all(abs(math.fsum(run) - 1.0) <= model_nelson._SUM_TOL for run in runs)
    indicators = [0] * len(probs)
    for columns in ((probs, indicators), (np.array(probs), np.array(indicators, np.int64))):
        try:
            RunProfiles(*columns, starts)
        except DomainError as exc:
            assert not expected and str(exc).startswith("profile probabilities must sum to 1, got ")
        else:
            assert expected


# Counts from 2^53 on, and failure sums past 2^63: int64 columns give the tuples' fit, covariance
# and residuals, with no int64 sum wrapped and no corrected / instructions rounded twice.
@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(
    seed=SEEDS,
    base=st.sampled_from([0, 2**53 - 300, 2**53, 2**62, 2**63 - 2**12]),
    failures=st.sampled_from([40, 2**53, 2**57, 2**62]),
    instructions=st.sampled_from([1, 1000, 2**53 + 1, 3**40]),
)
def test_large_counts_give_the_tuples_results(seed, base, failures, instructions):
    rng = random.Random(seed)
    rows = numerics.ARRAY_MIN
    corrected = sorted(min(base + rng.randrange(4 * rows), 2**63 - 1) for _ in range(rows))
    columns = (
        [0.5 * j for j in range(rows)],
        corrected,
        [rng.uniform(1.0, 100.0) for _ in range(rows)],
        [rng.randrange(failures) * (rows - j) // rows for j in range(rows)],
    )
    arrays = [np.array(column, np.float64 if j % 2 == 0 else np.int64) for j, column in enumerate(columns)]
    for array in arrays:
        array.flags.writeable = False
    outcomes = []
    for periods in (DebugPeriods(*arrays), DebugPeriods(*map(tuple, columns))):
        outcome = []
        try:
            fit = model_schumann.fit_mle(periods, instructions)
            outcome.append(repr(fit))
            outcome.append(repr(model_schumann.covariance(fit, periods)))
            outcome.append(model_schumann.stationarity_residuals(fit, periods))
        except Exception as exc:  # the type and message are what is compared
            outcome.append((type(exc).__name__, str(exc)))
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
