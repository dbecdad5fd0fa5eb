"""Property tests of the bracketed root finder and of the fits built on it."""

import functools
import math
import sys

import pytest

from relgauge import model_jm, model_schumann, model_weibull
from relgauge.errors import NoConvergence, NoGrowthEvidence, RelgaugeError
from relgauge.numerics import Bracket, find_root_bracketed

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TOL = 1e-10
# Bisection from a bracket at most 20 wide to 1e-10 of a root of size at
# least 0.5 takes 39 halvings; the solver may call f twice as often, plus
# once at each end.
MAX_EVALS = 2 * 39 + 2


def bisect(f, lo, hi, tol):
    """Plain bisection to a bracket narrower than tol relative to its midpoint."""
    f_lo = f(lo)
    while hi - lo > tol * abs(0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


slopes = st.floats(1e-6, 1e6)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    root=st.floats(0.5, 100.0) | st.floats(-100.0, -0.5),
    below=st.floats(1e-3, 10.0),
    above=st.floats(1e-3, 10.0),
    linear=slopes,
    cubic=st.floats(0.0, 1e3),
    bend=st.floats(0.0, 1e3),
    sharpness=slopes,
    kink=slopes,
    sign=st.sampled_from([1.0, -1.0]),
)
def test_solver_agrees_with_bisection(root, below, above, linear, cubic, bend, sharpness, kink, sign):
    """On continuous functions with one sign change (linear, cubic and tanh
    parts, with another slope right of the root), the solver returns the
    root that bisection finds, to the tolerance, in a bounded number of calls."""

    def f(x):
        d = x - root
        y = linear * d + cubic * d**3 + bend * math.tanh(sharpness * d)
        return sign * (y if d < 0.0 else kink * y)

    calls = []
    lo, hi = root - below, root + above
    got = find_root_bracketed(lambda x: calls.append(x) or f(x), Bracket(lo, hi, TOL))
    assert lo <= got <= hi
    assert abs(got - bisect(f, lo, hi, TOL)) <= 2.0 * TOL * abs(root)
    assert len(calls) <= MAX_EVALS


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(5, 400),
    surplus=st.floats(1.05, 4.0),
)
def test_seeded_jm_fits_are_stationary(seed, count, surplus):
    """A JM fit on seeded synthetic intervals either finds no growth or
    returns a root whose term-by-term stationarity residual is within 1e-9."""
    e0 = surplus * count
    intervals = model_jm.generate_intervals(e0, 1.0 / e0, count, seed=seed)
    try:
        fit = model_jm.fit_mle(intervals)
    except NoGrowthEvidence:
        return
    beta = math.fsum(i * x for i, x in enumerate(intervals)) / math.fsum(intervals)
    assert abs(model_jm.stationarity_residual(fit.e0_hat, count, beta)) <= 1e-9


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    periods=st.integers(2, 300),
    surplus=st.floats(1.05, 4.0),
)
def test_seeded_schumann_fits_are_stationary(seed, periods, surplus):
    """A Schumann fit on a seeded synthetic schedule either finds no root
    above the feasibility boundary or returns residuals within 1e-9."""
    instructions = 10_000
    total = 10 * periods
    schedule = [(float(j + 1), j * total // periods, 1.0 + j % 7) for j in range(periods)]
    data = model_schumann.generate_periods(surplus * total, 50_000.0, instructions, schedule, seed=seed)
    hypothesis.assume(sum(p.failures for p in data) >= 2)
    try:
        fit = model_schumann.fit_mle(data, instructions)
    except NoConvergence as exc:
        assert "no root above the feasibility boundary" in str(exc)
        return
    assert max(model_schumann.stationarity_residuals(fit, data)) <= 1e-9


def _outcome(fit, intervals):
    try:
        return fit(intervals)
    except RelgaugeError as exc:
        return type(exc)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    intervals=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
    j=st.integers(-900, 900),
)
@hypothesis.example(intervals=[1.0, 3.0, 2.0], j=1000)
@hypothesis.example(intervals=[1.0, 3.0, 2.0], j=-1000)
def test_fits_are_invariant_under_power_of_two_scaling(intervals, j):
    """Fitting the intervals times 2^j gives the same e0, residual and m bits,
    with k_hat and lam times exactly 2^-j, or the same error."""
    scaled = [math.ldexp(x, j) for x in intervals]
    fits = [model_jm.fit_mle, *(functools.partial(model_weibull.fit_moments, form=f) for f in model_weibull.MomentForm)]
    for fit in fits:
        base, moved = _outcome(fit, intervals), _outcome(fit, scaled)
        if isinstance(base, model_jm.JmFit):
            assert (moved.e0_hat, moved.residual) == (base.e0_hat, base.residual)
            assert moved.k_hat == math.ldexp(base.k_hat, -j)
        elif isinstance(base, model_weibull.WeibullFit):
            assert moved.m == base.m
            assert moved.lam == math.ldexp(base.lam, -j)
        else:
            assert moved is base


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    intervals=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
    j=st.integers(-400, 400),
)
@hypothesis.example(intervals=[1.0, 3.0, 2.0], j=400)
@hypothesis.example(intervals=[1.0, 3.0, 2.0], j=-400)
def test_jm_covariance_is_invariant_under_power_of_two_scaling(intervals, j):
    """The covariance of the intervals times 2^j has the same var_e0 and rho
    bits, and var_k times exactly 2^-2j, wherever that is a normal float."""
    try:
        base = model_jm.covariance(model_jm.fit_mle(intervals), intervals)
    except RelgaugeError:
        hypothesis.assume(False)
    expected = math.ldexp(base.var_k, -2 * j)
    hypothesis.assume(sys.float_info.min <= expected < math.inf)
    scaled = [math.ldexp(x, j) for x in intervals]
    moved = model_jm.covariance(model_jm.fit_mle(scaled), scaled)
    assert (moved.var_e0, moved.rho) == (base.var_e0, base.rho)
    assert moved.var_k == expected
