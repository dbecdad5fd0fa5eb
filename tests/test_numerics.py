"""Tests for the shared numerical kernels."""

import itertools
import math
import operator
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from relgauge import debug_economics, fault_tolerance, model_jm, model_weibull, numerics
from relgauge.debug_economics import fit_discovery_curve
from relgauge.errors import DomainError, NonFinite, NoSignChange, OutOfRange, SingularInformation
from relgauge.failure_data import DebugPeriod, FailureEpochs, intervals_from_epochs
from relgauge.model_schumann import SchumannFit, covariance
from relgauge.numerics import (
    Bracket,
    find_root_bracketed,
    fsum_array,
    gaussian_intervals,
    at_data_scale,
    interval_array,
    pole_sum,
    scan_bracket,
)
from relgauge.record import Record


def bisect_oracle(f, lo, hi, tol=1e-10):
    """Plain bisection, kept independent of the implementation under test."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if f(lo) * fmid <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_root_of_quadratic():
    root = find_root_bracketed(lambda x: x * x - 4.0, Bracket(0.0, 3.0))
    assert abs(root - 2.0) < 1e-9


def test_root_of_log():
    root = find_root_bracketed(math.log, Bracket(0.5, 2.0))
    assert abs(root - 1.0) < 1e-9


def test_root_of_module_time_equation():
    # 2*0.001*t^2*e^(0.001 t) = 1 has its root near 22.11; the oracle is a
    # plain bisection loop written independently above.
    def f(t):
        return 2.0 * 0.001 * t * t * math.exp(0.001 * t) - 1.0

    oracle = bisect_oracle(f, 1.0, 100.0)
    root = find_root_bracketed(f, Bracket(1.0, 100.0))
    assert abs(root - oracle) < 1e-7
    assert abs(root - 22.11) < 0.01


def test_root_endpoint_hits():
    assert find_root_bracketed(lambda x: x, Bracket(0.0, 1.0)) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, Bracket(0.0, 1.0)) == 1.0


def test_no_sign_change_raises():
    with pytest.raises(NoSignChange):
        find_root_bracketed(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))


def test_non_finite_raises():
    def f(x):
        if x < 0.5:
            return -1.0
        if x > 2.5:
            return 1.0
        return float("nan")

    with pytest.raises(NonFinite):
        find_root_bracketed(f, Bracket(0.0, 3.0))


def test_bracket_validation():
    with pytest.raises(DomainError):
        Bracket(2.0, 1.0)
    with pytest.raises(DomainError):
        Bracket(0.0, 1.0, tol_rel=0.0)


def test_root_residual_property_on_random_cubics():
    """For any polynomial with a verified sign change, the returned root keeps
    |f(root)| below tol_rel times the larger endpoint residual and stays
    inside the bracket."""
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 50:
        coeffs = rng.uniform(-3.0, 3.0, size=4)

        def f(x):
            return ((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]

        lo, hi = sorted(rng.uniform(-5.0, 5.0, size=2))
        if hi - lo < 1e-3 or f(lo) * f(hi) >= 0:
            continue
        tol = 1e-10
        root = find_root_bracketed(f, Bracket(lo, hi, tol_rel=tol))
        assert lo <= root <= hi
        assert abs(f(root)) <= tol * max(abs(f(lo)), abs(f(hi))) + 1e-300
        checked += 1


def test_root_of_step_function_lands_in_the_final_bracket():
    """A jump never meets the residual test: the solve ends once no float lies
    between the bracket ends, at an end of that bracket, next to the jump."""
    calls = []

    def f(x):
        calls.append(x)
        return -1.0 if x < 0.3 else 1.0

    root = find_root_bracketed(f, Bracket(0.0, 1.0))
    assert root in (math.nextafter(0.3, 0.0), 0.3)
    assert abs(root - 0.3) <= 1e-10 * 0.3
    assert len(calls) <= 60


def test_root_does_not_evaluate_the_ends_the_bracket_carries():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    root = find_root_bracketed(f, Bracket(1.0, 2.0, f_lo=-1.0, f_hi=2.0))
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-10)
    assert 1.0 not in calls and 2.0 not in calls
    # A value carried for an end is checked as an evaluated one would be.
    with pytest.raises(NonFinite):
        find_root_bracketed(f, Bracket(1.0, 2.0, f_hi=math.inf))
    with pytest.raises(NoSignChange):
        find_root_bracketed(f, Bracket(1.0, 2.0, f_lo=1.0))


def _discovery_fit():
    taus = [float(t) for t in range(1, 9)]
    fit_discovery_curve([(t, 50.0 * -math.expm1(-t / 3.0)) for t in taus], 100)


def _weibull_fit():
    model_weibull.fit_moments([0.1, 0.3, 1.0, 2.0, 7.0])


def _module_plan():
    fault_tolerance.optimal_module_time(fault_tolerance.DualRunConfig(30.0, 1.0, 0.001))


@pytest.mark.parametrize(
    "module, fit, carried",
    [
        (debug_economics, _discovery_fit, ("lo", "hi")),
        (model_weibull, _weibull_fit, ("lo", "hi")),
        (fault_tolerance, _module_plan, ("hi",)),
    ],
    ids=["discovery", "weibull", "faulttol"],
)
def test_callers_hand_the_ends_they_checked_to_the_solver(monkeypatch, module, fit, carried):
    """A caller that evaluates a bracket end before solving passes the value on,
    so the solver's calls of the objective never include that end."""
    solves = []
    original = module.find_root_bracketed

    def spy(f, bracket):
        calls = []
        root = original(lambda x: calls.append(x) or f(x), bracket)
        solves.append((bracket, calls))
        return root

    monkeypatch.setattr(module, "find_root_bracketed", spy)
    fit()
    [(bracket, calls)] = solves
    for end in carried:
        assert getattr(bracket, f"f_{end}") is not None
        assert calls.count(getattr(bracket, end)) == 0
    assert len(set(calls)) == len(calls)


def test_scan_bracket_finds_sign_change():
    # Scan points sit at 10 + 1e-8 * 16^j; the sign flips between j = 4 and 5.
    bracket = scan_bracket(lambda x: x - 10.001, 10.0)
    assert bracket.lo == 10.0 + 1e-8 * 16**4
    assert bracket.hi == 10.0 + 1e-8 * 16**5
    assert bracket.tol_rel == 1e-13
    # The bracket carries the values the scan saw at its ends.
    assert (bracket.f_lo, bracket.f_hi) == (bracket.lo - 10.001, bracket.hi - 10.001)
    assert find_root_bracketed(lambda x: x - 10.001, bracket) == pytest.approx(10.001, rel=1e-13)


def test_scan_bracket_none_without_sign_change():
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (x - 3.0)

    assert scan_bracket(f, 3.0) is None
    # 16 points, from s = 3 * 1e-9 to s * 16^15 = s * 2^60 above the floor.
    assert len(calls) == 16
    assert calls[-1] == 3.0 + 3.0 * 1e-9 * 2.0**60


def test_scan_bracket_exact_zero_at_scan_point():
    # f vanishes exactly at the third scan point, 1e-9 * 16^2 above the floor 0.
    zero = 256e-9
    bracket = scan_bracket(lambda x: 0.0 if x == zero else x - zero, 0.0)
    assert (bracket.lo, bracket.hi) == (16e-9, zero)
    assert bracket.f_hi == 0.0
    assert find_root_bracketed(lambda x: 0.0 if x == zero else x - zero, bracket) == zero
    # An exact zero at the first point brackets from the grid point below it.
    first = scan_bracket(lambda x: 0.0, 0.0)
    assert (first.lo, first.hi) == (1e-9 / 16, 1e-9)


@pytest.mark.parametrize("scale", [1.0, 2.0**-600, 2.0**500])
def test_dot_is_the_exactly_rounded_sum_of_the_products_on_lists_and_arrays(scale):
    """Products that cancel to far below their size, and ones that overflow: the same
    float or the same exception on a list and on an array of the same values."""
    rng = np.random.default_rng(39)
    n = numerics.ARRAY_MIN + 7
    a = (rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n) * scale).tolist()
    b = rng.standard_normal(n).tolist()
    cases = [(a, b), (a + a, b + [-v for v in b]), ([1e300] * n, [1e10] * n), ([1e300, -1e300] * n, [1e10] * 2 * n)]
    for x, y in cases:
        outcomes = []
        for kind in (list, np.array):
            try:
                outcomes.append(numerics.dot(kind(x), kind(y)))
            except (OverflowError, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if type(outcomes[0]) is float and math.isfinite(outcomes[0]):
            exact = sum(map(Fraction, map(operator.mul, x, y)), Fraction(0))
            assert outcomes[0] == float(exact)


def test_fit_discovery_curve_golden():
    """The fit on one fixed dataset is pinned bit for bit, so a change to the
    root solve that moves tau0 by even one ulp shows up here.  Its 24 rows
    run on lists, in ``math`` with exactly rounded dot products, so the bits
    do not depend on numpy's SIMD dispatch."""
    taus = [float(t) for t in range(5, 125, 5)]
    counts = [29, 60, 85, 117, 140, 161, 178, 192, 202, 214, 226, 236, 246, 255,
              257, 264, 272, 274, 278, 278, 284, 290, 292, 295]
    eps0, tau0 = fit_discovery_curve(list(zip(taus, map(float, counts))), 1000)
    assert eps0 == float.fromhex("0x1.38f5df684b3f3p+8")
    assert tau0 == float.fromhex("0x1.571d5e0a7a5a0p+5")

    t, c = np.array(taus), np.array(counts, dtype=float)

    def sse(eps0, tau0):
        resid = c + eps0 * np.expm1(-t / tau0)
        return float(resid @ resid)

    def slope(tau0):
        """The normalised slope of the profiled error that the fit solves for."""
        x = t / tau0
        growth = -np.expm1(-x)
        rate = x * np.exp(-x)
        resid = c - (c @ growth) / (growth @ growth) * growth
        return float(resid @ rate / np.sqrt(rate @ rate))

    # The pair pinned when a bounded minimiser fitted this curve fits it no better.
    old_tau0 = float.fromhex("0x1.571d5de91ab79p+5")
    growth = -np.expm1(-t / old_tau0)
    assert sse(eps0, tau0) <= sse(float(c @ growth / (growth @ growth)), old_tau0)
    # The root the bisection-and-secant solver pinned has the larger stationarity residual.
    assert abs(slope(tau0)) <= abs(slope(float.fromhex("0x1.571d5e0a7a86ap+5")))


def _sum_outcome(total, values):
    """``total(values)`` as comparable bits, or the type and message of its error."""
    try:
        result = total(values)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(result) else float(result).hex()


# Values at the edges of the float range, subnormals and signed zeros.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 8.98846567431158e307, 1e16, -1e16, 1.0, -1.0, 1e-16]


def _drawn_array(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "spread":  # magnitudes over 10^-300 .. 10^300
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    if kind == "cancel":  # +-1e16 terms that cancel down to the small ones
        big = rng.standard_normal(n // 2) * 1e16
        x = np.concatenate([big, -big[::-1], rng.standard_normal(n - 2 * (n // 2))])
        x[::7] += rng.standard_normal(len(x[::7]))
        return x
    if kind == "subnormal":
        return rng.integers(-(2**52), 2**52, n) * 5e-324
    if kind == "huge":  # sigma leaves the float range; the sum may overflow
        return rng.uniform(-1.0, 1.0, n) * 1.7976931348623157e308
    if kind == "indexed":
        return np.arange(n, dtype=float) * rng.exponential(1.0, n)
    if kind == "binade":  # one binade, so the sum reaches n times the largest value
        return rng.uniform(0.5, 1.0, n)
    return rng.weibull(0.7, n)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(
    kind=st.sampled_from(["spread", "cancel", "subnormal", "huge", "indexed", "binade", "weibull"]),
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
    edges=st.lists(st.sampled_from(_EDGES) | st.floats(allow_nan=False, allow_infinity=False), max_size=20),
)
def test_fsum_array_has_the_bits_of_math_fsum(kind, n, seed, edges):
    x = np.concatenate([_drawn_array(kind, n, seed), edges])
    np.random.default_rng(seed).shuffle(x)
    assert _sum_outcome(fsum_array, x) == _sum_outcome(math.fsum, x.tolist())


@pytest.mark.parametrize(
    "kind, n",
    [(kind, 10**6) for kind in ("weibull", "cancel", "indexed", "binade")]
    + [(kind, 10**5) for kind in ("weibull", "spread", "cancel")],
)
def test_fsum_array_has_the_bits_of_math_fsum_on_large_arrays(kind, n):
    x = _drawn_array(kind, n, seed=n + len(kind))
    assert fsum_array(x) == math.fsum(x.tolist())


@pytest.mark.parametrize("n", [64, 10**4])
def test_fsum_array_adds_the_remainders_left_after_the_last_pass(n, monkeypatch):
    """1 + 2^-53 is a tie that rounds to even, 1.0; a value 2^-600 far below,
    left over after every extraction pass, breaks it either way.  Pairs
    +-2^(-45 j) that cancel keep each pass from reaching it.  The extraction
    runs at every size, so that n = 64 does not fall to math.fsum."""
    monkeypatch.setattr(numerics, "ARRAY_MIN", 0)
    x = np.zeros(n)
    x[[0, n // 2]] = 1.0, 2.0**-53
    x[1:21] = [sign * 2.0 ** (-45 * j) for j in range(1, 11) for sign in (1.0, -1.0)]
    for tiny, total in ((2.0**-600, 1.0 + 2.0**-52), (-(2.0**-600), 1.0), (0.0, 1.0)):
        x[-1] = tiny
        assert fsum_array(x) == math.fsum(x.tolist()) == total


@pytest.mark.parametrize("m", [7, 14, 17])
def test_fsum_array_needs_sigma_of_at_least_n_plus_2_times_the_largest(m, monkeypatch):
    """n = 2^m - 3 values below 1 sum to more than 2^(m-1); a sigma of only
    2^(m-1) would leave the extracted sum needing one bit more than a float
    has, and the 2^-100 below it could no longer break the tie.  The
    extraction runs at every size, so that n = 125 does not fall to math.fsum."""
    monkeypatch.setattr(numerics, "ARRAY_MIN", 0)
    n = 2**m - 3
    x = np.full(n, 0.75)
    g = 2.0 ** (m - 54)
    x[-3:] = 2 * g, -g, 2.0**-100
    assert fsum_array(x) == math.fsum(x.tolist()) == 0.75 * (n - 3) + 2 * g


def test_fsum_array_raises_where_math_fsum_raises():
    for x in (np.full(64, 1e308), np.full(100, -1.7976931348623157e308)):
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            fsum_array(x)
    x = np.ones(100)
    x[[3, 70]] = math.inf, -math.inf
    with pytest.raises(ValueError, match=r"^-inf \+ inf in fsum$"):
        fsum_array(x)
    x[70] = 2.0
    assert fsum_array(x) == math.inf
    near_max = np.tile([1.7976931348623157e308, -1.7976931348623157e308, 3.0], 40)
    assert fsum_array(near_max) == 120.0


@pytest.mark.parametrize("n", [10, 1000])
def test_fsum_array_of_nan_is_nan(n):
    x = np.ones(n)
    x[n // 2] = math.nan
    assert math.isnan(fsum_array(x))
    x[n // 3] = math.inf
    assert math.isnan(fsum_array(x))


def test_fsum_array_of_zeros_and_of_nothing_is_positive_zero():
    for x in (np.array([]), np.full(10, -0.0), np.full(1000, -0.0), np.tile([1.5, -1.5], 500)):
        assert math.copysign(1.0, fsum_array(x)) == 1.0 and fsum_array(x) == 0.0


def test_fsum_array_leaves_the_array_unchanged():
    x = np.random.default_rng(3).weibull(0.7, 10**4)
    x[::9] *= 1e-200
    before = x.copy()
    total = fsum_array(x)
    assert np.array_equal(x, before)
    x.flags.writeable = False  # nothing may be written through it
    assert fsum_array(x) == total == math.fsum(before.tolist())
    strided = before[::3]
    assert fsum_array(strided) == math.fsum(strided.tolist())


def test_fsum_array_bits_do_not_depend_on_the_simd_dispatch():
    """numpy's AVX-512 kernels are switched off in the child only; every
    step of the extraction is exact, so the bits stay those of math.fsum."""
    code = (
        "import math, sys, numpy as np\n"
        "from relgauge.numerics import fsum_array\n"
        "rng = np.random.default_rng(11)\n"
        "arrays = [rng.weibull(0.7, 10**5), rng.standard_normal(5000) * 10.0 ** rng.uniform(-300, 300, 5000),\n"
        "          np.arange(10**4) * rng.exponential(1.0, 10**4), np.concatenate([np.full(99, 1e16), -np.full(99, 1e16), [0.5]])]\n"
        "for x in arrays:\n"
        "    print(fsum_array(x).hex(), math.fsum(x.tolist()).hex())\n"
    )
    home = str(Path(numerics.__file__).resolve().parents[1])  # the directory holding the imported relgauge
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")])),
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    }
    child = subprocess.run([sys.executable, "-c", code], env=env, timeout=120, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.split("\n")[:-1]
    assert len(lines) == 4
    for line in lines:
        kernel, reference = line.split()
        assert kernel == reference


# interval_array's two paths: the container it returns, and a numerics.ARRAY_MIN
# that selects it for every input in these tests.
_PATHS = ((np.ndarray, 0), (list, 1 << 62))


def test_interval_array_returns_the_checked_floats(monkeypatch):
    for path, limit in _PATHS:
        monkeypatch.setattr(numerics, "ARRAY_MIN", limit)
        x, e = interval_array([1, 2.5, 1e-300])
        assert type(x) is path
        assert path is list or x.dtype == np.float64
        assert e == 2
        assert list(x) == [0.25, 0.625, 0.25e-300]
        for value, scaled, exponent in ((5e-324, 0.5, -1073), (1.7976931348623157e308, 1.0 - 2.0**-53, 1024)):
            x, e = interval_array([value])
            assert (list(x), e) == ([scaled], exponent)
        x, e = interval_array([])
        assert (list(x), e) == ([], 0)


def test_at_data_scale_is_an_exact_power_of_two_or_out_of_range():
    assert at_data_scale(0.75, -1000, "lam") == math.ldexp(0.75, 1000)
    for rate, e in ((1.5, -1024), (math.inf, 0), (1.0, 1075)):
        with pytest.raises(OutOfRange, match="^lam = "):
            at_data_scale(rate, e, "lam")


def test_interval_array_names_the_first_bad_interval(monkeypatch):
    for (_, limit), (bad, shown) in itertools.product(
        _PATHS, ((0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"), (math.nan, "nan"))
    ):
        monkeypatch.setattr(numerics, "ARRAY_MIN", limit)
        with pytest.raises(DomainError, match=f"^intervals must be finite and positive, got {shown}$"):
            interval_array([1.0, bad, -2.0])


def _interval_array_before(intervals, container=np.ndarray):
    """interval_array before its ndarray pass-through: every value goes through float().

    The scaled values come as an ndarray, or as a list for ``container=list``."""
    x = np.fromiter(map(float, intervals), dtype=float)
    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        raise DomainError(f"intervals must be finite and positive, got {float(x[ok.argmin()])}")
    e = math.frexp(x.max(initial=0.0))[1]
    x = np.ldexp(x, -e)
    return (x.tolist() if container is list else x), e


def _scaled_outcome(scale, values):
    """The container, dtype and bytes of the scaled values and the exponent, or the error."""
    try:
        x, e = scale(values)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return type(x), np.asarray(x).dtype.str, np.asarray(x).tobytes(), e


def _read_only(values):
    values.flags.writeable = False
    return values


# Values that numpy and float() might convert differently, in lists and
# tuples, where the first bad value must be the one named.
_ODD_VALUES = [
    None, "2.5", " 3 ", "x", b"1.5", "nan", Decimal("0.1"), Decimal("sNaN"), Fraction(1, 3), True, False,
    2**60 + 1, 10**400, np.float32(0.1),
]
_ODD_LISTS = [
    container(values)
    for odd in _ODD_VALUES
    for container in (list, tuple)
    for values in ([1.0, odd, 2.0], [odd], [odd, None], [odd, "x"], [0.5, odd, -1.0])
]


# At least ARRAY_MIN values, increasing unless a value is bad.
_LONG = numerics.ARRAY_MIN + 3
_LONG_INPUTS = [
    [0.5 + 0.1 * i for i in range(_LONG)],
    tuple(0.5 + 0.1 * i for i in range(_LONG)),
    lambda: (0.25 * i for i in range(1, _LONG + 1)),  # a generator, made afresh for each call
    np.arange(1, _LONG + 1, dtype=np.float32) * np.float32(0.1),
    (np.arange(1.0, _LONG + 1) * 0.1).astype(">f8"),
    _read_only(np.arange(1.0, _LONG + 1) * 0.3),
    _read_only(np.concatenate(([3.0, 0.0, -1.0], np.arange(1.0, _LONG + 1)))),
    [1.0, 2.0, None, *range(3, _LONG)],
    [2**60 + 1 + 1000 * i for i in range(_LONG)],
    tuple(2**60 + 1 + 1000 * i for i in range(_LONG)),
]


@pytest.mark.parametrize(
    "values",
    [
        _read_only(np.array([3.0, 0.5, 1e-300])),
        _read_only(np.array([3.0, 0.0, 1.0])),
        np.arange(1.0, 20.0)[::3],
        np.arange(1.0, 20.0)[::-2],
        np.array([1.0, np.nan, 2.0, 4.0])[::2],
        np.array([1.0, np.nan, 2.0, 4.0])[1::2],
        np.array([[1.0], [2.5]]),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([1, 2, 7], dtype=np.int64),
        np.array([1, 0], dtype=np.int64),
        np.array([0.1, 3.0], dtype=np.float32),
        np.array([0.1, 3.0, 2.0**-1074], dtype=">f8"),
        np.array([0.1, -3.0], dtype=">f8"),
        np.array(2.5),
        np.array([]),
        [1.0, None],
        *_ODD_LISTS,
        *_LONG_INPUTS,
    ],
)
def test_interval_array_gives_the_value_by_value_result_on_any_input(values, monkeypatch):
    """A 1-D native float64 ndarray is read as it is and anything else value
    by value, with the result or error that converting every value with
    float() gives, on both paths and at the constant as it is; the caller's
    array keeps its values."""
    make = values if callable(values) else lambda: values
    before = np.copy(values) if isinstance(values, np.ndarray) else None
    try:
        size = len(make())
    except TypeError:  # a generator, which interval_array lists first, or a 0-d array
        size = len(list(make())) if callable(values) else 0
    real = np.ndarray if size >= numerics.ARRAY_MIN else list
    for path, limit in (*_PATHS, (real, numerics.ARRAY_MIN)):
        monkeypatch.setattr(numerics, "ARRAY_MIN", limit)
        expected = _scaled_outcome(lambda v: _interval_array_before(v, path), make())
        assert _scaled_outcome(interval_array, make()) == expected
        if before is not None:
            assert values.tobytes() == before.tobytes()


def _float_outcome(call, values):
    """``call`` on np.fromiter(map(float, values)), or the error float() raises on a value."""
    try:
        x = np.fromiter(map(float, values), dtype=float)
    except Exception as exc:
        return type(exc), str(exc)
    return _fit_outcome(call, x)


def _fit_outcome(call, values):
    try:
        result = call(values)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(result) if isinstance(result, Record) else (np.asarray(result).dtype.str, np.asarray(result).tobytes())


@pytest.mark.parametrize("values", _LONG_INPUTS)
def test_fits_read_a_long_input_as_float_reads_each_value(values):
    """At ARRAY_MIN values or more the JM and Weibull fits, and the intervals of
    epochs held in a tuple or an array, have the values of np.fromiter(map(float,
    ...)) and the errors of float(); floats passes a native float64 ndarray
    through as the same object."""
    make = values if callable(values) else lambda: values
    for call in (model_jm.fit_mle, model_weibull.fit_moments):
        assert _fit_outcome(call, make()) == _float_outcome(call, make())
    if isinstance(values, (tuple, np.ndarray)) and np.all(np.diff(values, prepend=0.0) > 0.0):
        intervals = lambda e: intervals_from_epochs(FailureEpochs(e))  # noqa: E731
        assert _fit_outcome(intervals, values) == _float_outcome(lambda x: np.diff(x, prepend=0.0), values)
    if not callable(values):  # floats takes a sequence
        assert _fit_outcome(numerics.floats, values) == _float_outcome(lambda x: x, values)
    if isinstance(values, np.ndarray):
        native = values.dtype.isnative and values.dtype == np.float64
        assert (numerics.floats(values) is values) == native


def test_gaussian_intervals_half_widths():
    z = 1.959963984540054  # the 0.975 normal quantile
    ci = gaussian_intervals(0.95, e0=(10.0, 4.0), c=(0.5, 0.0))
    assert list(ci) == ["e0", "c"]
    assert ci["e0"] == pytest.approx((10.0 - 2.0 * z, 10.0 + 2.0 * z), rel=1e-15)
    assert ci["c"] == (0.5, 0.5)


def test_gaussian_intervals_at_the_largest_level_below_one():
    """0.5 + level / 2 rounds to 1 there; the half width is the 1 - 2^-54 quantile."""
    (lo, hi), = gaussian_intervals(1.0 - 2.0**-53, e0=(10.0, 4.0)).values()
    (lo_next, hi_next), = gaussian_intervals(1.0 - 2.0**-52, e0=(10.0, 4.0)).values()
    z = -NormalDist().inv_cdf(2.0**-54)
    assert (lo, hi) == (10.0 - 2.0 * z, 10.0 + 2.0 * z)
    assert lo < lo_next < hi_next < hi


def test_gaussian_intervals_call_the_kernel_statistics_calls():
    """gaussian_intervals calls _statistics' kernel directly, so z has NormalDist().inv_cdf's bits."""
    import _statistics
    import statistics

    assert _statistics._normal_dist_inv_cdf is statistics._normal_dist_inv_cdf


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_gaussian_intervals_level_must_lie_in_the_open_unit_interval(level):
    with pytest.raises(DomainError, match=r"^confidence level must lie in \(0, 1\), got "):
        gaussian_intervals(level, e0=(10.0, 4.0))


def schumann_information(n1, n2, c, r, h):
    """A Schumann fit whose 2x2 information matrix is (N/c^2, h, N/r^2), N = n1 + n2.

    One instruction, two periods with nothing corrected and exposures h/2:
    each residual is e0 = r, and the off-diagonal sum(H_j)/I is h.
    """
    periods = [DebugPeriod(1.0, 0, h / 2, n1), DebugPeriod(2.0, 0, h / 2, n2)]
    return SchumannFit(r, c, 1), periods


def test_invert_singular():
    """The inline 2x2 inverse in the Schumann covariance refuses (1, 1, 1)."""
    fit, periods = schumann_information(2, 2, 2.0, 2.0, 1.0)
    with pytest.raises(SingularInformation):
        covariance(fit, periods)


def test_invert_round_trip_random():
    """J times the inverse built from the reported variances is the identity
    to 1e-12 whenever the determinant is comfortably positive."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        c, r = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        total = n1 + n2
        a11, a22 = total / c**2, total / r**2
        a12 = rng.uniform(0.05, 0.9) * math.sqrt(a11 * a22)
        det = a11 * a22 - a12**2
        if det <= 1e-9:
            continue
        fit = covariance(*schumann_information(n1, n2, c, r, a12))
        matrix = np.array([[a11, a12], [a12, a22]])
        inverse = np.array([[fit.var_c, -a12 / det], [-a12 / det, fit.var_e0]])
        np.testing.assert_allclose(matrix @ inverse, np.eye(2), atol=1e-12)


def direct_pole_sum(e0, k):
    return math.fsum(1.0 / (e0 - np.arange(1, k + 1) + 1))


@pytest.mark.parametrize("k", [64, 65, 100, 1_000, 12_345, 100_000, 1_000_000])
def test_pole_sum_matches_direct_sum(k):
    for lower in (1e-9, 1e-3, 0.5, 1.0, 15.5, 16.0, 17.25, 1e3, 1e8, 1e15):
        e0 = lower + (k - 1)
        assert pole_sum(e0, k) == pytest.approx(direct_pole_sum(e0, k), rel=1e-14, abs=0.0)


def test_pole_sum_is_the_direct_sum_up_to_64_terms():
    rng = np.random.default_rng(64)
    for _ in range(500):
        k = int(rng.integers(0, 65))
        e0 = float(k - 1 + 10.0 ** rng.uniform(-9.0, 6.0))
        assert pole_sum(e0, k) == math.fsum(1.0 / (e0 - i + 1) for i in range(1, k + 1))


def test_pole_sum_requires_e0_above_the_pole():
    with pytest.raises(DomainError):
        pole_sum(99.0, 100)
    with pytest.raises(DomainError):
        pole_sum(math.nan, 3)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(
    values=st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(2**53 - 4, 2**53 + 4), min_size=1, max_size=300),
    divisor=st.integers(1, 2**53 + 4) | st.integers(1, 2**70),
)
def test_int64_columns_give_pythons_sums_bounds_floats_and_quotients(values, divisor):
    """An int64 column and its list of ints: the same exact sums (past int64 too), bounds, floats
    (each int rounded once) and v / divisor (rounded once, as int / int rounds it)."""
    column = np.array(values, np.int64)
    weights = column[::-1].copy()
    assert numerics.int_sum(column) == sum(values)
    assert numerics.int_sum(column, weights) == sum(map(operator.mul, values, values[::-1]))
    assert numerics.int_bounds(column) == (min(values), max(values))
    if any(values):
        assert numerics.int_bounds(column, weights) == numerics.int_bounds(values, values[::-1])
    assert [x.hex() for x in np.asarray(numerics.floats(column)).tolist()] == [float(v).hex() for v in values]
    ratios = np.asarray(numerics.int_ratios(column, divisor)).tolist()
    assert [x.hex() for x in ratios] == [(v / divisor).hex() for v in values]
