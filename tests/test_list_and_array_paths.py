"""The fits give the same bits on Python lists as on numpy arrays.

Below ``numerics.ARRAY_MIN`` values the JM, Weibull and Schumann fits and
their covariances run on lists, from there on on numpy arrays.  Each case
here runs twice, with the constant patched to 0 (every input takes the
array path) and to a size above the input (every input takes the list
path), and every float of every result must have the same bits, and every
exception the same type and message.  Sizes are drawn on both sides of the
real constant and at one below it; values come from the ranges the
extreme-input tests use, scaled by powers of two up to the float limits.
"""

import itertools
import json
import math
import warnings
from unittest import mock

import pytest

from relgauge import cli, failure_data, model_jm, model_schumann, model_weibull, numerics
from relgauge.failure_data import DebugPeriod, FailureEpochs, intervals_from_epochs, parse_failure_epochs
from relgauge.record import Record

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SIZES = st.integers(2, 40) | st.sampled_from(
    [numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN, numerics.ARRAY_MIN + 1]
)


def _bits(value):
    if hasattr(value, "dtype"):  # an array from the array path
        assert value.dtype == float
        value = value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, Record):  # every field, the ones == leaves out too
        return {name: _bits(getattr(value, name)) for name in value._fields}
    return value


def _outcome(call):
    try:
        return _bits(call())
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


def _both_paths(run, size):
    """``run()`` on the array path and on the list path."""
    outcomes = []
    for limit in (0, size + 1):
        with mock.patch.object(numerics, "ARRAY_MIN", limit):
            outcomes.append(run())
    return outcomes


def _epoch_fits(intervals):
    outcomes = []
    epochs = tuple(itertools.accumulate(intervals))
    if math.isfinite(epochs[-1]) and all(map(float.__lt__, epochs, epochs[1:])):
        outcomes.append(_outcome(lambda: failure_data.intervals_from_epochs(failure_data.FailureEpochs(epochs))))
    try:
        fit = model_jm.fit_mle(intervals)
    except Exception as exc:
        outcomes.append((type(exc).__name__, str(exc)))
    else:
        outcomes.append(_bits(fit))
        outcomes.append(_outcome(lambda: model_jm.covariance(fit, intervals)))
        unit = [math.ldexp(x, -math.frexp(max(intervals))[1]) for x in intervals]  # B/A cannot overflow
        beta = math.fsum(map(float.__mul__, map(float, range(len(unit))), unit)) / math.fsum(unit)
        for to in (-math.inf, math.inf):  # beside the pole, where a term may divide by zero
            e0 = math.nextafter(fit.e0_hat, to)
            outcomes.append(_outcome(lambda: model_jm.stationarity_residual(e0, fit.k_obs, beta)))
    for form in model_weibull.MomentForm:
        outcomes.append(_outcome(lambda: model_weibull.fit_moments(intervals, form)))
    return outcomes


@st.composite
def _intervals(draw):
    n = draw(SIZES)
    kind = draw(st.sampled_from(["jm", "scaled", "wide"]))
    if kind == "jm":  # drawn JM-like: the rate falls with each fix, so a fit mostly exists
        e0 = n - 1 + draw(st.floats(1e-9, 2.0 * n))
        draws = draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n))
        intervals = [u / (e0 - i) for i, u in enumerate(draws)]
    elif kind == "scaled":  # the power-of-two tests' values
        intervals = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        if draw(st.booleans()):  # later intervals longer
            intervals.sort()
    else:  # the failure-data tests' values
        intervals = draw(st.lists(st.floats(1e-300, 1e300) | st.floats(0.5, 2.0), min_size=n, max_size=n))
    if kind != "wide":  # scaled by up to 2^+-1000, toward the float limits
        j = draw(st.sampled_from([0, -1000, 1000]) | st.integers(-1000, 1000))
        intervals = [math.ldexp(x, j) for x in intervals]
    return intervals


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(intervals=_intervals())
@hypothesis.example(intervals=[8.710478184300544e299, 5.313456262806313e307 - 8.710478184300544e299])
@hypothesis.example(intervals=[math.ldexp(x, 1000) for x in (1.0, 3.0, 2.0)])
@hypothesis.example(intervals=[math.ldexp(x, -1000) for x in (1.0, 3.0, 2.0)])
def test_epoch_fits_give_the_same_bits_on_lists_and_arrays(intervals):
    array, listed = _both_paths(lambda: _epoch_fits(intervals), len(intervals))
    assert listed == array


@st.composite
def _periods(draw):
    count = draw(SIZES)
    corrected = list(itertools.accumulate(draw(st.lists(st.integers(0, 50), min_size=count, max_size=count))))
    if draw(st.booleans()):  # about ten failures per unit exposure per remaining error share: growth
        e0 = corrected[-1] + draw(st.integers(1, 100))
        exposures = draw(st.lists(st.floats(0.5, 1.5), min_size=count, max_size=count))
        noise = draw(st.lists(st.floats(0.5, 1.5), min_size=count, max_size=count))
        failures = [round(10.0 * u * h * (e0 - c) / e0) for c, h, u in zip(corrected, exposures, noise)]
    else:  # the oracle tests' draws, with exposures out to the float limits
        exposure = st.floats(1e-300, 1e300) if draw(st.booleans()) else st.floats(0.01, 1e3)
        exposures = draw(st.lists(exposure, min_size=count, max_size=count))
        failures = draw(st.lists(st.integers(0, 60), min_size=count, max_size=count))
    return [DebugPeriod(float(j), c, h, n) for j, (c, h, n) in enumerate(zip(corrected, exposures, failures))]


def _schumann_fit(periods, instructions):
    try:
        fit = model_schumann.fit_mle(periods, instructions)
    except Exception as exc:
        return [(type(exc).__name__, str(exc))]
    return [_bits(fit), _outcome(lambda: model_schumann.covariance(fit, periods))]


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(
    periods=_periods(),
    # 10^158 and 10^165 put I^2 and the squared residuals beyond a float's range.
    instructions=st.sampled_from([1, 10**3, 10**6]) | st.sampled_from([10**158, 10**165]) | st.integers(1, 10**300),
)
def test_schumann_fit_gives_the_same_bits_on_lists_and_arrays(periods, instructions):
    array, listed = _both_paths(lambda: _schumann_fit(periods, instructions), len(periods))
    assert listed == array


@pytest.mark.parametrize(
    "exposures, instructions",
    [((1000.0, 1600.0), 10**165), ((1000.0, 1600.0), 10**158), ((1e170, 1.6e170), 1000), ((1e160, 1.6e160), 1000)],
)
def test_schumann_singular_information_is_the_same_on_lists_and_arrays(exposures, instructions):
    """Squares and entries beyond a float's range, where Python raises and numpy gives inf or 0."""
    periods = [DebugPeriod(1.0, 20, exposures[0], 10), DebugPeriod(2.0, 50, exposures[1], 10)]
    array, listed = _both_paths(lambda: _schumann_fit(periods, instructions), len(periods))
    assert listed == array
    assert array[-1][0] == "SingularInformation"


def test_schumann_zero_residual_is_out_of_range_without_a_warning():
    """A residual of 0 makes a rate term infinite: OutOfRange on both paths,
    and numpy's divide warning is no longer printed before it."""
    periods = [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 50, 1600.0, 10)]
    fit = model_schumann.SchumannFit(e0_hat=50.0, c_hat=1.0, instructions=1)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = _outcome(lambda: model_schumann.stationarity_residuals(fit, periods))
        return outcome, [str(w.message) for w in caught]

    error = ("OutOfRange", "an estimate of c at e0 = 50.0 is not a positive finite float")
    assert _both_paths(run, len(periods)) == [(error, []), (error, [])]


def test_schumann_nan_estimate_is_out_of_range():
    """A period with no failures at a residual of 0 makes its rate term 0/0 = NaN:
    the NaN estimate of c fails the check on both paths, though the other one is finite."""
    periods = [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 50, 1600.0, 0)]
    fit = model_schumann.SchumannFit(e0_hat=50.0, c_hat=1.0, instructions=1)
    error = ("OutOfRange", "an estimate of c at e0 = 50.0 is not a positive finite float")
    residuals = lambda: model_schumann.stationarity_residuals(fit, periods)  # noqa: E731
    assert _both_paths(lambda: _outcome(residuals), len(periods)) == [error, error]


def test_quotients_and_squares_give_numpy_results_where_python_raises():
    np = pytest.importorskip("numpy")
    a = [1.0, -1.0, 0.0, math.nan, math.inf, 2.0, 3.0]
    b = [0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 1.5]
    with np.errstate(all="ignore"):
        expected = (np.array(a) / np.array(b)).tolist()
        squared = np.float_power(np.array([1e200, -1e200, 1e-200, -3.0, 0.5]), 2).tolist()
    assert _bits(numerics.quotients(a, b)) == _bits(expected)
    assert _bits(numerics.squares([1e200, -1e200, 1e-200, -3.0, 0.5])) == _bits(squared)


@pytest.mark.parametrize("count", [numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN, 10_000])
def test_cli_epoch_fits_match_the_library_fits_on_the_same_floats(tmp_path, count):
    """The CLI reads the file onto the list path below ARRAY_MIN epochs and into an array from
    there on; its reports must be those of the library fits on a tuple of the same floats."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(count)
    e0 = 1.25 * count
    epochs = tuple(np.cumsum(rng.exponential(e0 / (e0 - np.arange(count)))).tolist())
    path = tmp_path / "epochs.csv"
    path.write_text("epoch\n" + "".join(f"{t!r}\n" for t in epochs))
    intervals = intervals_from_epochs(FailureEpochs(epochs))
    jm = model_jm.covariance(model_jm.fit_mle(intervals), intervals)
    expected = {
        "jm": model_jm.report(jm, 0.95),
        "weibull": model_weibull.report(model_weibull.fit_moments(intervals), count),
    }
    for model, report in expected.items():
        out = tmp_path / f"{model}.json"
        assert cli.run_cli(["fit", model, "--input", str(path), "--output", str(out)]) == 0
        written = json.loads(out.read_text())
        del written["provenance"]
        assert _bits(written) == _bits(json.loads(json.dumps(report))), model


_EPOCH = (("epoch", float),)
_EPOCH_SIZES = st.integers(0, 6) | st.sampled_from(
    [numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN, numerics.ARRAY_MIN + 1, 3 * numerics.ARRAY_MIN]
)
_EPOCH_EDITS = st.sampled_from(["crlf", "cr", "quote", "blank", "bad", "nan", "inf", "repeat", "decrease"])


@st.composite
def _epoch_texts(draw):
    """Increasing epochs as text, with some of: other line ends, a quoted token, a blank line,
    a token float() rejects, nan or inf, an epoch repeated or one that decreases."""
    n = draw(_EPOCH_SIZES)
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 2.0**-1000, 2.0**900]))
    lines = [repr(t * scale) for t in itertools.accumulate(steps)]
    edits = draw(st.lists(_EPOCH_EDITS, max_size=3)) if lines else []
    for edit in edits:
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "quote":
            lines[i] = f'"{lines[i]}"'
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  "])))
        elif edit == "bad":
            lines[i] = draw(st.sampled_from(["x", "1.5.2", "0x1f", "1\x1c", "", "1,2"]))
        elif edit in ("nan", "inf"):
            lines[i] = draw(st.sampled_from([edit, f"-{edit}", f" {edit.upper()} "]))
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "decrease" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    ending = "\r\n" if "crlf" in edits else "\r" if "cr" in edits else "\n"
    return ending.join(["epoch", *lines]) + draw(st.sampled_from(["", ending, ending * 2]))


def _reference_intervals(text):
    """The row reader's floats as a tuple, differenced on the tuple path."""
    epochs = tuple(value for _, (value,) in failure_data._read_rows(text, _EPOCH))
    return intervals_from_epochs(FailureEpochs(epochs))


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(text=_epoch_texts(), split=st.sampled_from([64, 1 << 16]))
@hypothesis.example(text="epoch\n" + "".join(f"{i}.5\n" for i in range(numerics.ARRAY_MIN)), split=64)
@hypothesis.example(text="epoch\n" + "".join(f"{i}.5\n" for i in range(numerics.ARRAY_MIN, 0, -1)), split=64)
@hypothesis.example(text="epoch\n" + "".join(f"{i // 2 * 2 + 1}\n" for i in range(numerics.ARRAY_MIN)), split=64)
@hypothesis.example(text="epoch\n" + "".join(f"{i + 1}\n" for i in range(numerics.ARRAY_MIN)) + "nan\n", split=64)
@hypothesis.example(text="epoch\n" + "".join(f"{i + 1}\n" for i in range(numerics.ARRAY_MIN)) + "inf\n", split=64)
def test_parsed_epochs_give_the_tuple_paths_intervals_and_errors(text, split):
    """Blocks of ``split`` characters make the array fill span several blocks."""
    np = pytest.importorskip("numpy")
    with mock.patch.object(failure_data, "_SPLIT_CHARS", split):
        got = _outcome(lambda: intervals_from_epochs(parse_failure_epochs(text)))
        assert got == _outcome(lambda: _reference_intervals(text))
        if isinstance(got, list):  # parsed and checked: a tuple below ARRAY_MIN epochs, an array from there on
            epochs = parse_failure_epochs(text).epochs
            assert type(epochs) is (tuple if len(epochs) < numerics.ARRAY_MIN else np.ndarray)
