"""The fits give the same bits on Python lists as on numpy arrays.

Below ``numerics.ARRAY_MIN`` values the JM, Weibull and Schumann fits and
their covariances run on lists, from there on on numpy arrays.  Each case
here runs twice, with the constant patched to 0 (every input takes the
array path) and to a size above the input (every input takes the list
path), and every float of every result must have the same bits, and every
exception the same type and message.  Sizes are drawn on both sides of the
real constant and at one below it; values come from the ranges the
extreme-input tests use, scaled by powers of two up to the float limits.
The kernel the fits are made of, ``numerics.power_sum``, is compared on a
list and an array of the same floats, and the CLI's fit reports and small
simulations across numpy's SIMD dispatch levels.
"""

import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from relgauge import cli, debug_economics, draws, failure_data, model_jm, model_nelson, model_schumann, model_weibull
from relgauge import numerics
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
        j = min(j, 1024 - math.frexp(max(intervals))[1])  # finite, and still up to the top binade
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
    """Squares and entries beyond a float's range, where Python raises and numpy gives inf or 0.

    The information in (c, e0) could not hold these, and they were reported
    as SingularInformation.  Formed at unit scale, the information is
    regular: the covariance gives var_c, or OutOfRange where var_c itself
    is beyond a float.
    """
    periods = [DebugPeriod(1.0, 20, exposures[0], 10), DebugPeriod(2.0, 50, exposures[1], 10)]
    array, listed = _both_paths(lambda: _schumann_fit(periods, instructions), len(periods))
    assert listed == array
    outcome = array[-1]
    if type(outcome) is tuple:  # an error's type and message
        assert outcome[0] == "OutOfRange" and outcome[1].startswith("var_c = "), outcome
    else:
        assert float.fromhex(outcome["var_c"]) > 0.0


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


def test_quotients_give_numpy_results_where_python_raises():
    np = pytest.importorskip("numpy")
    a = [1.0, -1.0, 0.0, math.nan, math.inf, 2.0, 3.0]
    b = [0.0, 0.0, 0.0, 0.0, -0.0, -0.0, 1.5]
    with np.errstate(all="ignore"):
        expected = (np.array(a) / np.array(b)).tolist()
    assert _bits(numerics.quotients(a, b)) == _bits(expected)


# Values whose difference from x is zero of either sign, or whose square overflows to inf
# or underflows to 0, beside ordinary ones.
_KERNEL_VALUES = st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e-200, 5e-324, 1.5, -3.0]) | st.floats(
    -1e300, 1e300, allow_subnormal=True
)


def _rounded_square(d):
    """d * d rounded once from the exact square; inf beyond the float range."""
    try:
        return float(Fraction(d) ** 2)
    except OverflowError:
        return math.inf


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(
    x=_KERNEL_VALUES,
    a=st.lists(_KERNEL_VALUES, min_size=1, max_size=12),
    weights=st.none() | st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300]) | st.floats(-1e3, 1e3), min_size=1),
    copies=st.sampled_from([1, numerics.ARRAY_MIN // 4 + 1]),
)
@hypothesis.example(x=0.0, a=[0.0, -0.0], weights=[1.0, -1.0], copies=1)  # +-0 divisors
@hypothesis.example(x=-0.0, a=[0.0], weights=None, copies=1)  # a difference of -0.0
@hypothesis.example(x=0.0, a=[0.0, 1.0], weights=[0.0, 1.0], copies=1)  # 0/0
@hypothesis.example(x=1e200, a=[-1e200, 1.0], weights=None, copies=1)  # squares beyond the float range
@hypothesis.example(x=1e-200, a=[0.0, 3e-200], weights=None, copies=1)  # squares that underflow to 0
# Squares that glibc 2.36's pow, and so np.float_power and **, rounds the wrong way.
@hypothesis.example(x=0.0, a=[0.8060503826503107, 0.5509191621786698], weights=None, copies=1)
def test_power_sum_gives_the_same_bits_on_lists_and_arrays(x, a, weights, copies):
    """Each p on a list and on an ndarray of the same floats: the same bits, or the same error.
    ``copies`` repeats the values past ARRAY_MIN, so the array sum takes its extraction passes."""
    np = pytest.importorskip("numpy")
    a = a * copies
    w = None if weights is None else [weights[j % len(weights)] for j in range(len(a))]
    w_array = None if w is None else np.array(w)
    for p in (2, 1, -1, -2):
        listed = _outcome(lambda: numerics.power_sum(x, a, p, w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor may the array path warn
            assert _outcome(lambda: numerics.power_sum(x, np.array(a), p, w_array)) == listed, p
    if weights is None:  # each square is the correctly rounded one, on both kinds
        expected = _outcome(lambda: math.fsum(_rounded_square(x - v) for v in a))
        assert _outcome(lambda: numerics.power_sum(x, a, 2)) == expected
        assert _outcome(lambda: numerics.power_sum(x, np.array(a), 2)) == expected


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


def _profile_lines(count, layout):
    """``count`` profile rows as text lines, in runs of up to 100 input sets whose p sum to 1."""
    rng = random.Random(count)
    lines, runs = [], []
    for run, start in enumerate(range(0, count, count if layout == "p,y" else 100)):
        weights = [rng.random() for _ in range(min(100, count - start) if layout != "p,y" else count)]
        probs = tuple(w / math.fsum(weights) for w in weights)
        ys = tuple(int(rng.random() < 0.05) for _ in probs)
        runs.append(model_nelson.RunProfile(probs, ys))
        prefix = "" if layout == "p,y" else f"{run + 1},"
        lines += [f"{prefix}{p!r},{y}" for p, y in zip(probs, ys)]
    return [layout, *lines], runs


def _nelson_read_paths(text, count):
    """parse_profiles(text) on numpy's reader and on the lists: (columns' type, profiles) or the error."""
    outcomes = []
    for limit in (0, count + 1):
        with mock.patch.object(numerics, "ARRAY_MIN", limit):
            try:
                profiles = model_nelson.parse_profiles(text)
            except Exception as exc:  # the type, message and row are what is compared
                outcomes.append((type(exc).__name__, str(exc), getattr(exc, "row", None)))
            else:
                outcomes.append((type(profiles.probs).__name__, list(profiles)))
    return outcomes


@pytest.mark.parametrize("layout", ["p,y", "run,p,y"])
@pytest.mark.parametrize("count", [numerics.ARRAY_MIN - 1, numerics.ARRAY_MIN, 10_000])
def test_nelson_fits_give_the_same_bytes_on_both_read_paths(tmp_path, count, layout):
    """fit nelson reads the profile with numpy's reader into columns from ARRAY_MIN rows on, and
    into lists below; either way the runs are today's RunProfile records and the report's bytes
    are the same."""
    pytest.importorskip("numpy")
    lines, runs = _profile_lines(count, layout)
    path = tmp_path / "profile.csv"
    path.write_text("\n".join(lines) + "\n")
    arrays, lists = _nelson_read_paths(path.read_text(), count)
    assert arrays == ("ndarray", runs) and lists == ("tuple", runs)
    assert model_nelson.parse_profiles(path.read_text()) == runs
    reports = []
    for limit in (None, 0, count + 1):
        with mock.patch.object(numerics, "ARRAY_MIN", numerics.ARRAY_MIN if limit is None else limit):
            out = tmp_path / f"{limit}.json"
            assert cli.run_cli(["fit", "nelson", "--profile", str(path), "--output", str(out)]) == 0
            reports.append([line for line in out.read_text().splitlines() if '"generated_at":' not in line])
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(out.read_text())["runs"] == len(runs)


def _edited(line, p=str, y=str):
    *run, prob, flag = line.split(",")
    return ",".join([*run, p(prob), y(flag)])


def _edit_profile(lines, edit):
    """Make ``edit`` in the lines of a profile file; line 0 is the header, so line i is row i + 1."""
    if edit == "reappearing run":  # the last row takes the first run's id
        lines[-1] = "1," + lines[-1].split(",", 1)[1]
    elif edit == "negative p":
        lines[150] = _edited(lines[150], p=lambda p: f"-{p}")
    elif edit == "p sum off by 2e-9":
        lines[-5] = _edited(lines[-5], p=lambda p: repr(float(p) + 2e-9))
    elif edit == "y = 2":
        lines[200] = _edited(lines[200], y=lambda y: "2")
    elif edit == "bad token after a bad value":  # the token's ParseError comes first on both paths
        lines[30] = _edited(lines[30], p=lambda p: f"-{p}")
        lines[-20] = _edited(lines[-20], p=lambda p: "x")


@pytest.mark.parametrize(
    "edit, layout",
    [("reappearing run", "run,p,y")]
    + [(edit, layout) for edit in ("negative p", "p sum off by 2e-9", "y = 2", "bad token after a bad value")
       for layout in ("p,y", "run,p,y")],
)
def test_nelson_profile_errors_are_the_same_on_both_read_paths(edit, layout):
    pytest.importorskip("numpy")
    count = numerics.ARRAY_MIN + 244
    lines, _ = _profile_lines(count, layout)
    _edit_profile(lines, edit)
    arrays, lists = _nelson_read_paths("\n".join(lines) + "\n", count)
    assert arrays == lists and len(arrays) == 3, edit  # an error, not profiles


# argv: the calls as JSON, the output directory and any settings such as draws.DRAWS_MIN=0.
_FIT_CHILD = """
import importlib, json, sys
from relgauge.cli import run_cli
for setting in sys.argv[3:]:
    name, value = setting.split("=")
    module, constant = name.split(".")
    setattr(importlib.import_module(f"relgauge.{module}"), constant, int(value))
for name, argv in json.loads(sys.argv[1]).items():
    assert run_cli([*argv, "--output", f"{sys.argv[2]}/{name}.json"]) == 0, name
"""


def _reports_in_children(tmp_path, calls, children):
    """Each call's report lines, less its time stamp, from one child per (NPY_DISABLE_CPU_FEATURES, argv tail)."""
    home = str(Path(cli.__file__).resolve().parents[1])  # the directory holding the imported relgauge
    reports = []
    for disabled, tail in children:
        out = tmp_path / f"out{len(reports)}"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        child = subprocess.run(
            [sys.executable, "-c", _FIT_CHILD, json.dumps(calls), str(out), *tail],
            env=env, timeout=120, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
        reports.append({
            name: [line for line in (out / f"{name}.json").read_text().splitlines() if '"generated_at":' not in line]
            for name in calls
        })
    return reports


_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_fit_reports_do_not_depend_on_the_simd_dispatch(tmp_path):
    """fit jm, weibull and schumann below and above ARRAY_MIN records, rendered in a child with
    numpy's default dispatch and in one with its AVX-512 kernels switched off (in the child
    only): the reports are the same bytes, apart from the time they were written."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(30)
    calls = {}
    for count in (60, numerics.ARRAY_MIN + 44):
        e0 = 1.25 * count
        epochs = np.cumsum(rng.exponential(e0 / (e0 - np.arange(count))))
        path = tmp_path / f"epochs{count}.csv"
        path.write_text("epoch\n" + "".join(f"{t!r}\n" for t in epochs.tolist()))
        for model in ("jm", "weibull"):
            calls[f"{model}{count}"] = ["fit", model, "--input", str(path)]
        corrected = np.floor(np.linspace(0.0, 0.7 * e0, count)).astype(int)
        exposure = rng.uniform(0.5, 1.5, count)
        failures = rng.poisson(10.0 * (e0 - corrected) / e0 * exposure)
        path = tmp_path / f"periods{count}.csv"
        rows = zip(range(count), corrected.tolist(), exposure.tolist(), failures.tolist())
        path.write_text("tau,corrected,exposure,failures\n" + "".join(f"{j},{c},{h!r},{n}\n" for j, c, h, n in rows))
        calls[f"schumann{count}"] = ["fit", "schumann", "--input", str(path), "--instructions", "1000"]
    calls["economics20"] = _discovery_calls(tmp_path, rng, [20])[0]
    reports = _reports_in_children(tmp_path, calls, [(None, []), (_NO_AVX512, [])])
    assert reports[0] == reports[1]


def _discovery_calls(tmp_path, rng, sizes):
    """One economics --fit call per size, each on a noisy discovery curve with eps0 about 300."""
    np = pytest.importorskip("numpy")
    calls = []
    for rows in sizes:
        tau0 = float(rng.uniform(5.0, 50.0))
        taus = (tau0 / 8.0 * rng.uniform(0.5, 1.5, rows)).cumsum()
        counts = np.maximum.accumulate(300.0 * -np.expm1(-taus / tau0) * rng.uniform(0.95, 1.05, rows))
        path = tmp_path / f"discovery{len(calls)}.csv"
        path.write_text("tau,corrected\n" + "".join(f"{t!r},{c!r}\n" for t, c in zip(taus.tolist(), counts.tolist())))
        calls.append(["economics", "--fit", str(path), "--size", "10000", "--tempo", "1000",
                      "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1"])
    return calls


def test_small_discovery_fits_give_the_array_paths_bytes_without_avx512(tmp_path):
    """economics --fit below ARRAY_MIN rows runs on lists in ``math`` with numpy's default
    dispatch; its reports are the bytes of the array path, every size forced onto it, in a
    child with numpy's AVX-512 kernels switched off, where numpy's exp and expm1 are libm's."""
    np = pytest.importorskip("numpy")
    sizes = [3, 5, 20, 20, 60, numerics.ARRAY_MIN - 1]
    calls = {f"economics{i}": argv for i, argv in enumerate(_discovery_calls(tmp_path, np.random.default_rng(39), sizes))}
    reports = _reports_in_children(tmp_path, calls, [(None, []), (_NO_AVX512, ["numerics.ARRAY_MIN=0"])])
    assert reports[0] == reports[1]


# Runs hypothesis in a child whose numpy has its AVX-512 kernels switched off: each drawn
# discovery curve is fitted on both paths, whose results or errors must be the same.
_DISCOVERY_CHILD = """
import itertools, math
from unittest import mock
import hypothesis
import hypothesis.strategies as st
from relgauge import numerics
from relgauge.debug_economics import fit_discovery_curve

def outcome(observations, limit):
    with mock.patch.object(numerics, "ARRAY_MIN", limit):
        try:
            return [v.hex() for v in fit_discovery_curve(observations, 1000)]
        except Exception as exc:
            return type(exc).__name__, str(exc)

@st.composite
def curves(draw):
    n = draw(st.integers(3, 40))
    scale = draw(st.sampled_from([1.0, 2.0**-1000, 2.0**-60, 2.0**60, 2.0**1000]))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    taus = [t * scale for t in itertools.accumulate(steps)]
    kind = draw(st.sampled_from(["curve", "curve", "linear", "flat", "huge"]))
    tau0 = draw(st.floats(1e-2, 1e2)) * taus[-1]
    eps0 = draw(st.floats(1e-3, 1e6))
    if kind == "curve":
        counts = [eps0 * -math.expm1(-t / tau0) * draw(st.floats(0.9, 1.1)) for t in taus]
    elif kind == "linear":
        counts = [eps0 * t / taus[-1] for t in taus]
    elif kind == "flat":
        counts = [eps0] * n
    else:
        counts = [eps0 * 1e302 * draw(st.floats(1.0, 100.0)) for _ in taus]
    counts = list(itertools.accumulate(counts, max))
    return list(zip(taus, counts))

@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(observations=curves())
def same_on_both_paths(observations):
    assert outcome(observations, 0) == outcome(observations, 10**9), observations

same_on_both_paths()
"""


def test_drawn_discovery_curves_give_the_same_bits_on_both_paths_without_avx512():
    pytest.importorskip("numpy")
    home = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}
    env["NPY_DISABLE_CPU_FEATURES"] = _NO_AVX512
    child = subprocess.run([sys.executable, "-c", _DISCOVERY_CHILD], env=env, timeout=300, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr[-3000:]


_FIT_ERRORS = [
    [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)],  # constant counts
    [(float(t), 2.0 * t) for t in range(1, 7)],  # the slope never changes sign
    [(float(t), t * t) for t in range(1, 7)],
    [(1.0, 1.0), (2.0, 1e308), (3.0, 1.7e308)],  # the dot products overflow
    [(1e-300, 1.0), (1e10, 2.0), (2e10, 3.0)],  # growth underflows at the upper end
    [(1e-300, 1.0), (1e300, 2.0), (2e300, 3.0)],  # and so does rate . rate
    [(1.0, 5.0), (2.0, 6.0)],
]
_ROW_ERRORS = [
    [(1e306, 1.0), (2e306, 2.0), (3e306, 5.0)],  # the search range overflows
    [(5e-324, 1.0), (1.0, 2.0), (2.0, 5.0)],  # and underflows
    [(1.0, 5.0), (1.0, 6.0), (2.0, 7.0)],  # times that do not increase
    [(1.0, 5.0), (2.0, 4.0), (3.0, 7.0)],  # counts that decrease
    [(1.0, -1.0), (2.0, 4.0), (3.0, 7.0)],
    [(1.0, 5.0), (math.nan, 6.0), (3.0, 7.0)],
    [(1.0, 5.0), (2.0, math.inf), (3.0, 7.0)],
    [(0.0, 5.0), (2.0, 6.0), (3.0, 7.0)],
]


@pytest.mark.parametrize(
    ("observations", "copies"),
    [(rows, 1) for rows in _FIT_ERRORS + _ROW_ERRORS] + [(rows, numerics.ARRAY_MIN) for rows in _ROW_ERRORS],
)
def test_discovery_fit_errors_are_the_same_on_both_paths(observations, copies):
    """Each error of the discovery fit, type and message, on lists and on arrays.  For the
    checks of the rows and of the search range, ``copies`` repeats the last row's count at
    later times, which keeps the first failure where it was."""
    pytest.importorskip("numpy")
    tau, count = observations[-1]
    rows = observations + [(tau * (1.0 + j / 1024), count) for j in range(1, copies)]
    list_path, array_path = _both_paths(lambda: _outcome(lambda: debug_economics.fit_discovery_curve(rows, 1000)), len(rows))
    assert list_path == array_path
    assert list_path[0] in ("OutOfRange", "Underdetermined", "NoConvergence", "DomainError"), list_path


def test_small_simulations_give_baseline_numpys_bytes_on_any_dispatch(tmp_path):
    """simulate jm and weibull below draws.DRAWS_MIN draws run on lists in ``math`` with
    numpy's default dispatch; their reports are the bytes of the array path in a child with
    numpy's AVX-512 kernels switched off.  Weibull shapes 0.5 and 2 take numpy's square and
    square-root fast paths for ``** 2.0`` and ``** 0.5``; shape 1 makes the power exact."""
    shapes = ((0.5, 4000), (1.0, 500), (2.0, 4000), (0.7, 50), (0.3, 4000), (1.5, 500), (3.0, 4000))
    calls = {
        f"weibull{m}": ["simulate", "weibull", "--shape", repr(m), "--scale", "2", "--count", str(n), "--seed", "5"]
        for m, n in shapes
    }
    for e0, k, count in ((50.0, 0.004, 40), (5000.0, 2e-4, 4000), (1e6, 1e-3, 3000)):
        calls[f"jm{count}"] = ["simulate", "jm", "--e0", repr(e0), "--k", repr(k), "--count", str(count), "--seed", "7"]
    assert max(int(argv[argv.index("--count") + 1]) for argv in calls.values()) < draws.DRAWS_MIN
    reports = _reports_in_children(tmp_path, calls, [(None, []), (_NO_AVX512, ["draws.DRAWS_MIN=0"])])
    assert reports[0] == reports[1]


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
    from relgauge import decimal_columns

    with mock.patch.object(decimal_columns, "BLOCK_CHARS", split):
        got = _outcome(lambda: intervals_from_epochs(parse_failure_epochs(text)))
        assert got == _outcome(lambda: _reference_intervals(text))
        if isinstance(got, list):  # parsed and checked: a tuple below ARRAY_MIN epochs, an array from there on
            epochs = parse_failure_epochs(text).epochs
            assert type(epochs) is (tuple if len(epochs) < numerics.ARRAY_MIN else np.ndarray)


def _size_limit_uses(node, function=None):
    """(name, enclosing function or None, line) of each mention of ARRAY_MIN or DRAWS_MIN under ``node``."""
    for child in ast.iter_child_nodes(node):
        for name in ("ARRAY_MIN", "DRAWS_MIN"):
            if name in (getattr(child, "id", None), getattr(child, "attr", None), getattr(child, "name", None)):
                yield name, function, child.lineno
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _size_limit_uses(child, inner)


def test_only_numerics_chooses_a_path_from_the_input_size():
    """Outside ``numerics``, whose ``floats`` and ``index`` make every fit vector, ``ARRAY_MIN``
    is read only by ``failure_data._array_columns``, which chooses how a file is read
    rather than a fit's vectors; outside ``draws``, whose ``uniforms`` and
    ``geometric_pair_sums`` choose where seeded draws come from, ``DRAWS_MIN`` by nothing."""
    owners = {"ARRAY_MIN": "numerics", "DRAWS_MIN": "draws"}
    allowed, found, owned = [], [], set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "relgauge").glob("*.py")):
        for name, function, line in _size_limit_uses(ast.parse(path.read_text())):
            if path.stem == owners[name]:
                owned.add(name)
                continue
            use = f"{name} in {path.stem}.{function}:{line}"
            ok = (name, path.stem, function) == ("ARRAY_MIN", "failure_data", "_array_columns")
            (allowed if ok else found).append(use)
    assert found == []
    assert allowed  # the guard sees the one use it allows
    assert owned == set(owners)  # and the owners' own uses
