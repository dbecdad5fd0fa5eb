"""Tests for the Weibull failure-time model and its moment fit."""

import math
import warnings

import numpy as np
import pytest

from relgauge import model_weibull
from relgauge.errors import DegenerateSample, DomainError, NoConvergence, OutOfRange, TooFewIntervals
from relgauge.model_weibull import (
    MomentForm,
    WeibullFit,
    fit_moments,
    gamma_moment_ratio,
    generate,
    hazard,
    mttf,
    reliability,
)

# One-spike samples [1, ..., 1, 1+w] engineered so that the population
# dispersion ratio s^2/tbar^2 hits an exact target:
#   k = 3, w = 3 + 3*sqrt(2)      -> ratio 1 (CV equation gives m = 1)
#   k = 7, w = 35 + sqrt(1470)    -> ratio 5 (CV equation gives m = 0.5)
#   k = 8, w = 48 + sqrt(2688)    -> ratio 6 (raw-ratio equation gives m = 0.5)
RATIO1_DATA = [1.0, 1.0, 1.0 + 3.0 + 3.0 * math.sqrt(2.0)]
RATIO5_DATA = [1.0] * 6 + [1.0 + 35.0 + math.sqrt(1470.0)]
RATIO6_DATA = [1.0] * 7 + [1.0 + 48.0 + math.sqrt(2688.0)]


def test_hazard_constant_when_exponential():
    fit = WeibullFit(m=1.0, lam=0.5)
    for t in (0.5, 1.0, 7.0, 500.0):
        assert hazard(fit, t) == pytest.approx(0.5, rel=1e-12)


def test_hazard_examples():
    assert hazard(WeibullFit(m=2.0, lam=1.0), 3.0) == pytest.approx(6.0, rel=1e-12)
    assert hazard(WeibullFit(m=0.5, lam=1.0), 4.0) == pytest.approx(0.25, rel=1e-12)


def test_hazard_at_zero():
    assert hazard(WeibullFit(m=2.0, lam=1.0), 0.0) == 0.0
    with pytest.raises(DomainError):
        hazard(WeibullFit(m=0.5, lam=1.0), 0.0)
    with pytest.raises(DomainError):
        hazard(WeibullFit(m=1.0, lam=1.0), -1.0)


def test_reliability_examples():
    assert reliability(WeibullFit(m=2.0, lam=0.5), 0.0) == 1.0
    assert reliability(WeibullFit(m=2.0, lam=0.5), 2.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )


@pytest.mark.parametrize(
    "m, lam, t, exact",
    [
        (2.196217713707e-311, 4.94984165082482e-165, 3.68820164174e-313, 0.36787944117144232),
        (0.007, 1e-60, 1e-290, 0.99645815329659572),  # lam t underflows to 0
        (0.001, 1e300, 1e300, 0.018665624561518915),  # lam t overflows
    ],
)
def test_reliability_where_lam_t_leaves_the_normal_range(m, lam, t, exact):
    """(lam t)^m formed in logs; each exact value is mpmath's at 60 digits."""
    assert abs(reliability(WeibullFit(m=m, lam=lam), t) - exact) <= 2 * math.ulp(exact)
    assert reliability(WeibullFit(m=m, lam=lam), 0.0) == 1.0


@pytest.mark.parametrize("m, lam, t", [(400.0, 1.0, 10.0), (1e308, 1.0, 2.0), (2.0, 1e154, 1e154)])
def test_overflow_gives_zero_reliability_and_an_out_of_range_hazard(m, lam, t):
    """(lam t)^m beyond a float makes exp(-(lam t)^m) exactly 0; a hazard that
    overflows, in ** or in the product, is OutOfRange naming the hazard, not
    the C library's errno text."""
    fit = WeibullFit(m=m, lam=lam)
    assert reliability(fit, t) == 0.0
    with pytest.raises(OutOfRange) as raised:
        hazard(fit, t)
    assert str(raised.value) == f"the hazard at t = {t} overflows a float for shape {m} and scale {lam}"


@pytest.mark.parametrize(
    "m, lam, t, expected",
    [
        (400.0, 1e10, 1e-10, 4e12),  # lam^m overflows, t^(m - 1) underflows
        (400.0, 1e-10, 1e10, 4e-8),  # the other way round
        (400.0, 0.1, 5.0, 400.0 * 0.1 * 0.5**399),  # lam^m underflows to 0 alone
        (400.0, 5.85, 1e-5, 0.0),  # m lam^m overflows and t^(m - 1) is 0: inf * 0
        (400.0, 10.0, 0.0, 0.0),  # lam^m overflows at t = 0
    ],
)
def test_hazard_whose_factors_leave_the_float_range_is_formed_from_lam_t(m, lam, t, expected):
    assert hazard(WeibullFit(m=m, lam=lam), t) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_hazard_in_logs_where_lam_t_to_the_m_minus_1_leaves_the_float_range():
    """lam^m overflows and (lam t)^(m - 1) underflows, though the hazard is a float."""
    mpmath = pytest.importorskip("mpmath")
    m, lam, t = 11.430170286001507, 3.338723491881624e90, 7.435155108076496e-124
    with mpmath.workdps(60):
        exact = mpmath.mpf(m) * mpmath.mpf(lam) ** m * mpmath.mpf(t) ** (mpmath.mpf(m) - 1)
        assert abs(hazard(WeibullFit(m=m, lam=lam), t) - exact) <= 1e-12 * exact
    assert float(exact) == pytest.approx(3.1958039123225714e-249, rel=1e-15)


def test_hazard_keeps_the_bits_of_its_written_form_where_that_is_a_float():
    for m, lam, t in [(0.5, 2.0, 1.0), (2.0, 1.0, 3.0), (0.7, 0.013, 41.0), (3.7, 1e-3, 1e5)]:
        assert hazard(WeibullFit(m=m, lam=lam), t) == m * lam**m * t ** (m - 1.0)


def test_reliability_median_identity():
    for m in (0.5, 1.0, 2.0, 3.7):
        lam = 0.8
        t_median = math.log(2.0) ** (1.0 / m) / lam
        assert reliability(WeibullFit(m=m, lam=lam), t_median) == pytest.approx(
            0.5, rel=1e-12
        )


def test_mttf_examples():
    assert mttf(WeibullFit(m=0.5, lam=1.0)) == pytest.approx(2.0, rel=1e-12)
    assert mttf(WeibullFit(m=1.0, lam=1.0)) == pytest.approx(1.0, rel=1e-12)
    assert mttf(WeibullFit(m=2.0, lam=1.0)) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-12
    )
    assert mttf(WeibullFit(m=1.0, lam=0.25)) == pytest.approx(4.0, rel=1e-12)


def test_mttf_when_the_gamma_factor_alone_overflows():
    # Gamma(201) is about 7.9e374, past a float; divided by 1e300 it is not.
    expected = math.exp(math.lgamma(201.0) - math.log(1e300))
    assert mttf(WeibullFit(m=0.005, lam=1e300)) == pytest.approx(expected, rel=1e-11)
    # A mean past a float is OutOfRange naming the mttf, whichever step overflows.
    for m, lam in [(0.001, 1.0), (1e-300, 1.0), (0.05, 1e-320)]:
        with pytest.raises(OutOfRange, match=f"^the mttf overflows a float for shape {m} and scale {lam}$"):
            mttf(WeibullFit(m=m, lam=lam))


def test_gamma_moment_ratio_values():
    assert gamma_moment_ratio(1.0) == pytest.approx(2.0, rel=1e-12)
    assert gamma_moment_ratio(0.5) == pytest.approx(6.0, rel=1e-12)
    assert gamma_moment_ratio(2.0) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_gamma_moment_ratio_strictly_decreasing():
    grid = np.geomspace(0.05, 20.0, 1000)
    values = [gamma_moment_ratio(float(m)) for m in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_fit_exact_ratio_one():
    fit = fit_moments(RATIO1_DATA)
    assert fit.m == pytest.approx(1.0, abs=1e-9)
    t_bar = math.fsum(RATIO1_DATA) / 3.0
    assert fit.lam == pytest.approx(1.0 / t_bar, rel=1e-9)
    assert fit.moment_form is MomentForm.CV_CORRECTED


def test_fit_exact_ratio_five():
    fit = fit_moments(RATIO5_DATA)
    assert fit.m == pytest.approx(0.5, abs=1e-9)
    t_bar = math.fsum(RATIO5_DATA) / 7.0
    assert fit.lam == pytest.approx(2.0 / t_bar, rel=1e-9)


def test_fit_raw_ratio_form():
    fit = fit_moments(RATIO6_DATA, form=MomentForm.RAW_RATIO)
    assert fit.m == pytest.approx(0.5, abs=1e-9)
    assert fit.moment_form is MomentForm.RAW_RATIO
    # Under the CV equation the same sample targets G(m) = 7 instead of 6,
    # so the fitted shape comes out strictly smaller.
    cv_fit = fit_moments(RATIO6_DATA, form=MomentForm.CV_CORRECTED)
    assert cv_fit.m < fit.m


def test_fit_shape_warning_above_one():
    # A shape >= 1 is an ordinary result; the CLI report carries the signal,
    # so the library touches no process-global warning state.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_moments([1.0, 1.2, 1.4, 1.6])
    assert fit.m > 1.0
    assert caught == []


def test_fit_degenerate_sample():
    with pytest.raises(DegenerateSample):
        fit_moments([2.0, 2.0, 2.0])


def test_fit_tiny_dispersion_has_no_solution():
    with pytest.raises(NoConvergence):
        fit_moments([1.0, 1.0001, 1.0002])


def test_fit_bits_match_the_scalar_moments():
    # Taken with the moments summed as math.fsum((x - tbar) ** 2 for x in xs)
    # and the gamma function from math.lgamma.
    rng = np.random.default_rng(2024)
    sample = (rng.weibull(0.7, 1000) * 3.0).tolist()
    cv = fit_moments(sample, MomentForm.CV_CORRECTED)
    raw = fit_moments(sample, MomentForm.RAW_RATIO)
    assert (cv.m.hex(), cv.lam.hex()) == ("0x1.657acc21e4881p-1", "0x1.5a1ddffc5fae9p-2")
    assert (raw.m.hex(), raw.lam.hex()) == ("0x1.dd83dec683060p-1", "0x1.19aef7c87b759p-2")

    # Against the shapes the bisection-and-secant solver pinned: each moved by
    # less than the solver's 1e-13 tolerance, and the CV shape's moment
    # residual is no larger.  The raw-ratio shape's is 2.2e-15 against
    # 1.3e-15, both at the rounding noise of the gamma ratio.
    old_cv, old_raw = float.fromhex("0x1.657acc21e487cp-1"), float.fromhex("0x1.dd83dec683059p-1")
    assert cv.m == pytest.approx(old_cv, rel=1e-13, abs=0.0)
    assert raw.m == pytest.approx(old_raw, rel=1e-13, abs=0.0)
    t_bar = math.fsum(sample) / len(sample)
    target = math.fsum((x - t_bar) ** 2 for x in sample) / len(sample) / t_bar**2 + 1.0
    assert abs(gamma_moment_ratio(cv.m) - target) <= abs(gamma_moment_ratio(old_cv) - target)


@pytest.mark.parametrize("form", list(MomentForm))
def test_fit_objective_evaluation_count(monkeypatch, form):
    """A seeded fit evaluates the gamma ratio at most 20 times, end checks included."""
    calls = []
    ratio = gamma_moment_ratio
    monkeypatch.setattr(model_weibull, "gamma_moment_ratio", lambda m: calls.append(m) or ratio(m))
    sample = (np.random.default_rng(2024).weibull(0.7, 1000) * 3.0).tolist()
    fit_moments(sample, form)
    assert len(calls) <= 20
    assert len(set(calls)) == len(calls)


def test_fit_near_the_top_of_the_float_range_is_the_unit_scale_fit():
    """The squared deviation of 1e300 and 1.5e308 overflows at the data's
    scale; at unit scale it does not, and the fit is that of the same
    intervals scaled down exactly by 2^1000."""
    fit = fit_moments([1e300, 1.5e308])
    down = fit_moments([math.ldexp(1e300, -1000), math.ldexp(1.5e308, -1000)])
    assert fit.m == down.m
    assert fit.lam == math.ldexp(down.lam, -1000)


def test_fit_of_equal_intervals_at_the_float_limit_is_degenerate():
    """fsum of 1.7e308 twice overflows at the data's scale; at unit scale the
    two equal intervals have zero variance."""
    for form in MomentForm:
        with pytest.raises(DegenerateSample, match="^zero sample variance"):
            fit_moments([1.7e308, 1.7e308], form)


def test_fit_of_nearly_equal_intervals_near_1e160_has_no_shape():
    """The mean's square overflows at the data's scale; at unit scale the
    dispersion ratio is 2.5e-15, below what any shape up to 20 gives."""
    for form in MomentForm:
        with pytest.raises(NoConvergence, match="^dispersion ratio 2.49999974642"):
            fit_moments([1e160, 1.0000001e160], form)


def test_fit_rejects_bad_input():
    with pytest.raises(DomainError, match="^intervals must be finite and positive, got -1.0$"):
        fit_moments([-1.0])
    with pytest.raises(DomainError, match="^intervals must be finite and positive, got nan$"):
        fit_moments([1.0, 2.0, math.nan, -1.0])
    for intervals in ([1.0], []):
        with pytest.raises(
            TooFewIntervals, match=f"^need at least 2 intervals to fit two parameters, got {len(intervals)}$"
        ):
            fit_moments(intervals)
    with pytest.raises(DomainError):
        fit_moments([1.0, -2.0])
    with pytest.raises(DomainError):
        fit_moments([1.0, 0.0])


def test_generate_deterministic():
    a = generate(0.5, 2.0, 100, seed=5)
    b = generate(0.5, 2.0, 100, seed=5)
    assert a == b
    assert generate(0.5, 2.0, 100, seed=6) != a
    assert all(x > 0.0 for x in a)


def test_generate_count_zero():
    assert generate(0.5, 2.0, 0, seed=1) == []
    with pytest.raises(DomainError, match="^sample size must be an integer >= 0, got -1$"):
        generate(0.5, 2.0, -1, seed=1)


def test_generate_sample_means():
    """Sample means for several shapes stay within three standard errors of
    Gamma(1 + 1/m)/lam."""
    n = 100_000
    lam = 2.0
    for m, seed in ((0.5, 11), (1.0, 12), (2.0, 13)):
        draws = np.array(generate(m, lam, n, seed=seed))
        mean = math.gamma(1.0 + 1.0 / m) / lam
        var = (math.gamma(1.0 + 2.0 / m) - math.gamma(1.0 + 1.0 / m) ** 2) / lam**2
        assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(var / n)


def test_generate_fit_round_trip():
    draws = generate(0.5, 2.0, 100_000, seed=404)
    fit = fit_moments(draws)
    assert fit.m == pytest.approx(0.5, rel=0.02)
    assert fit.lam == pytest.approx(2.0, rel=0.02)


def test_generate_overflow_raises_without_warning():
    """(-ln u)^(1/m) overflows for m = 0.001: the draw is reported as
    OutOfRange, and numpy's overflow warning never reaches the caller."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            generate(1e-3, 1.0, 3, seed=1)
