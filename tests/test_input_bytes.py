"""The CLI's error contract over the bytes of every input file.

Whatever a file holds, ``run_cli`` either returns 0 with strict JSON on
stdout and nothing on stderr, or returns 1, 2 or 3 with exactly one JSON
line on stderr.  It never raises, and no warning escapes.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from relgauge import model_jm
from relgauge.cli import run_cli
from relgauge.errors import NoConvergence, NoGrowthEvidence, OutOfRange

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EXTREMES = [
    "0", "-0.0", "5e-324", "1e-310", "1e300", "1.7976931348623157e308",
    "nan", "inf", "-inf", str(2**63), str(10**400),
]
FLOATS = st.floats(1e-3, 1e4).map(repr)
INTS = st.integers(0, 60).map(str)
ANY = st.one_of(
    st.sampled_from(EXTREMES + ["", "x", "-1", "success", '"1"']), st.floats().map(repr), st.integers().map(str)
)
# Ordinary tokens by column name; any other column holds floats.
COLUMNS = {
    "corrected": INTS,
    "failures": INTS,
    "run": st.integers(1, 3).map(str),
    "y": st.sampled_from(["0", "1"]),
    "outcome": st.sampled_from(["success", "failure", "FAILURE"]),
}

PROFILE = "run,p,y\n1,0.9,0\n1,0.1,1\n2,0.8,0\n2,0.2,1\n"
RUNS = "duration,outcome\n5.0,success\n3.0,failure\n"
ECONOMICS = ["--size", "10000", "--tempo", "1000", "--cost-error", "7.4", "--cost-test", "1", "--horizon", "1"]

# argv before the fuzzed flag, the flag, and the header of the fuzzed file.
CASES = {
    "fit-jm": (["fit", "jm"], "--input", "epoch"),
    "fit-weibull": (["fit", "weibull"], "--input", "epoch"),
    "fit-schumann": (["fit", "schumann", "--instructions", "1000"], "--input", "tau,corrected,exposure,failures"),
    "nelson-profile": (["fit", "nelson"], "--profile", "run,p,y"),
    "nelson-single-profile": (["fit", "nelson"], "--profile", "p,y"),
    "nelson-simplified": (["fit", "nelson", "--profile", "profile.csv"], "--simplified", "duration,outcome"),
    "nelson-weights": (
        ["fit", "nelson", "--profile", "profile.csv", "--simplified", "runs.csv"], "--weights", "weight"
    ),
    "economics-fit": (["economics", *ECONOMICS], "--fit", "tau,corrected"),
    "simulate-schedule": (
        ["simulate", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000", "--seed", "1"],
        "--schedule",
        "tau,corrected,exposure",
    ),
}


def _ascending(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.inf


@st.composite
def csv_bytes(draw, header: str) -> bytes:
    """The right header over rows of ordinary tokens, some of them extreme or
    malformed; sometimes any text or bytes at all."""
    kind = draw(st.sampled_from(["rows"] * 6 + ["text", "bytes"]))
    if kind == "text":
        return draw(st.text(max_size=60)).encode("utf-8")
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    names = header.split(",")
    if draw(st.integers(0, 9)) == 0:
        names = names[: draw(st.integers(0, len(names)))] + ["extra"] * draw(st.integers(0, 1))
    odd = draw(st.sampled_from([0, 0, 2, 8]))  # about one token in odd is extreme or malformed
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        ordinary = [COLUMNS.get(name, FLOATS) for name in names]
        rows.append([draw(ANY if odd and draw(st.integers(1, odd)) == 1 else o) for o in ordinary])
    if draw(st.integers(0, 3)) > 0:  # ascending columns reach the fits more often
        rows = list(dict.fromkeys(zip(*(sorted(column, key=_ascending) for column in zip(*rows)))))
    return (header + "\n" + "".join(",".join(r) + "\n" for r in rows)).encode("utf-8")


HUGE = 1.7976931348623157e308
# Values a valid file or flag may hold, from the float and int limits inwards.
POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-30, 1e30, 1e300, HUGE]), st.floats(5e-324, HUGE)
)
COUNTS = st.one_of(
    st.sampled_from([2**31, 2**53 + 1, 2**63 - 1, 2**63, 10**18, 10**300]), st.integers(0, 2**64)
)
UNIT = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 2**-53, 0.5, 1 - 2**-53, 1.0]), st.floats(0.0, 1.0))
LEVELS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 2**-53, 0.5, 1 - 2**-52, 1 - 2**-53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
SIZES = st.one_of(st.sampled_from([1, 2**53 + 1, 2**63, 10**18, 10**300]), st.integers(1, 10**300))
# Ordinary values of each column of a valid file, the extremes one of them
# may be moved to, and the columns that must ascend or should descend.
ORDINARY = {
    "corrected": st.integers(0, 60),
    "failures": st.integers(0, 60),
    "outcome": st.sampled_from(["success", "failure"]),
}
ORDINARY_FLOATS = st.floats(1e-3, 1e4)
EXTREME = {"corrected": COUNTS, "failures": COUNTS}
STRICTLY_ASCENDING = {"epoch", "tau"}
ASCENDING = STRICTLY_ASCENDING | {"corrected"}
DESCENDING = {"failures"}  # so that most periods show reliability growth
# The flags each case draws, after the fixed ones of its argv: the last value given wins.
FLAGS = {
    "fit-jm": {"--confidence": LEVELS},
    "fit-weibull": {"--moment-form": st.sampled_from(["cv", "literal"])},
    "fit-schumann": {"--instructions": SIZES, "--confidence": LEVELS},
    "economics-fit": {"--size": SIZES},
    "simulate-schedule": {"--instructions": SIZES, "--c": POSITIVE},
}


@st.composite
def valid_file_with_one_extreme(draw, header: str) -> bytes:
    """Ordinary rows that make a valid file for ``header``, one value of them moved to an extreme."""
    names = header.split(",")
    if names[-2:] == ["p", "y"]:  # a profile: each run's two probabilities sum to 1
        runs = draw(st.integers(1, 3)) if "run" in names else 1
        extreme = draw(st.integers(0, runs - 1))
        rows = []
        for run in range(runs):
            p = draw(UNIT if run == extreme else st.floats(0.01, 0.99))
            rows += [[run + 1, p, draw(st.integers(0, 1))], [run + 1, 1.0 - p, draw(st.integers(0, 1))]]
        rows = [row[-len(names) :] for row in rows]
    elif names == ["weight"]:  # as many weights as RUNS has runs, summing to that count
        w = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 2.0, 2.0 - 2**-52]), st.floats(0.0, 2.0)))
        rows = draw(st.permutations([[w], [2.0 - w]]))
    else:
        count = draw(st.integers(3, 8))
        columns = [
            draw(st.lists(ORDINARY.get(name, ORDINARY_FLOATS), min_size=count, max_size=count,
                          unique=name in STRICTLY_ASCENDING))
            for name in names
        ]
        i = draw(st.sampled_from([i for i, name in enumerate(names) if name != "outcome"]))
        columns[i][draw(st.integers(0, count - 1))] = draw(EXTREME.get(names[i], POSITIVE))
        for name, column in zip(names, columns):
            if name in ASCENDING or name in DESCENDING:
                column.sort(reverse=name in DESCENDING)
        rows = zip(*columns)
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reject(token: str):
    raise ValueError(f"non-finite constant {token} in a report")


def _check_contract(argv: list[str]) -> None:
    """run_cli(argv) ends in strict JSON on stdout or one JSON error line, with no warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = run_cli(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject)
        assert err.getvalue() == ""
    else:
        assert code in (1, 2, 3)
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["exit_code"] == code


def _case_dir(case: str, tmp_path_factory):
    """A directory holding the fixed files of ``case``, and its argv before the fuzzed flag."""
    prefix, _, _ = CASES[case]
    workdir = tmp_path_factory.mktemp(case)
    (workdir / "profile.csv").write_text(PROFILE)
    (workdir / "runs.csv").write_text(RUNS)
    return workdir, [str(workdir / a) if a.endswith(".csv") else a for a in prefix]


@pytest.mark.parametrize("case", sorted(CASES))
def test_any_input_file_ends_in_a_report_or_one_error_line(case, tmp_path_factory):
    _, flag, header = CASES[case]
    workdir, argv = _case_dir(case, tmp_path_factory)
    target = workdir / "fuzzed.csv"

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(data=csv_bytes(header))
    def check(data):
        target.write_bytes(data)
        _check_contract([*argv, flag, str(target)])

    check()


@pytest.mark.parametrize("case", sorted(CASES))
def test_valid_file_with_an_extreme_value_ends_in_a_report_or_one_error_line(case, tmp_path_factory):
    """Files that parse and pass their domain checks, so most examples reach
    the fit or generator, with one value and the case's numeric flags drawn
    up to the float and int limits."""
    _, flag, header = CASES[case]
    workdir, argv = _case_dir(case, tmp_path_factory)
    target = workdir / "fuzzed.csv"
    flags = st.fixed_dictionaries(FLAGS.get(case, {}))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(data=valid_file_with_one_extreme(header), drawn=flags)
    def check(data, drawn):
        target.write_bytes(data)
        _check_contract([*argv, *(f"{k}={v}" for k, v in drawn.items()), flag, str(target)])

    check()


INTERVALS = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from([5e-324, 1e-310, 1.0, 2.0, 1e200, 1e300, 1.7976931348623157e308]),
)


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(intervals=st.lists(INTERVALS, min_size=2, max_size=12))
def test_jm_reports_no_growth_only_below_the_threshold(intervals):
    """A JM fit on any positive intervals returns a fit or raises one of three
    errors, and NoGrowthEvidence only when B/A is at most (k-1)/2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model_jm.fit_mle(intervals)
        except NoGrowthEvidence as exc:
            assert exc.diagnostic["b_over_a"] <= exc.diagnostic["threshold"]
        except (NoConvergence, OutOfRange):
            pass
