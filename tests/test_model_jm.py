"""Tests for the stepwise-intensity failure model."""

import math

import numpy as np
import pytest

from relgauge.errors import (
    DomainError,
    NoConvergence,
    NoGrowthEvidence,
    OutOfRange,
    ResidualNonPositive,
    SingularInformation,
    TooFewIntervals,
)
from relgauge import model_jm
from relgauge.model_jm import (
    JmFit,
    confidence_intervals,
    covariance,
    fit_mle,
    generate_intervals,
    intensity,
    reliability,
    stationarity_residual,
)
from relgauge import model_schumann, numerics
from relgauge.numerics import find_root_bracketed, scan_bracket


def _beta(intervals):
    """B/A as fit_mle forms it: each sum is exactly rounded, and B/A does not depend on the scale."""
    return math.fsum(i * x for i, x in enumerate(intervals)) / math.fsum(intervals)


def test_intensity_examples():
    assert intensity(2.0, 0.5, 1) == pytest.approx(1.0, rel=1e-12)
    assert intensity(2.0, 0.5, 2) == pytest.approx(0.5, rel=1e-12)
    assert intensity(5.0, 0.1, 1) == pytest.approx(0.5, rel=1e-12)


def test_intensity_decreasing():
    values = [intensity(10.0, 0.3, i) for i in range(1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_intensity_exhausted():
    with pytest.raises(ResidualNonPositive):
        intensity(2.0, 0.5, 4)
    with pytest.raises(ResidualNonPositive):
        intensity(3.0, 0.5, 4)  # e0 - i + 1 = 0 exactly


def test_intensity_overflow_is_out_of_range():
    with pytest.raises(OutOfRange, match=r"k \* \(e0 - i \+ 1\) = 1e\+308 \* 1e\+308 overflows"):
        intensity(1e308, 1e308, 1)
    assert reliability(1e308, 1e308, 1, 1.0) == 0.0  # the survival probability itself is 0


@pytest.mark.parametrize("e0", [math.nan, math.inf, -math.inf])
def test_non_finite_e0_is_a_domain_error(e0):
    for call in (lambda: intensity(e0, 1.0, 1), lambda: reliability(e0, 1.0, 1, 1.0)):
        with pytest.raises(DomainError, match=f"^e0 must be finite, got {e0}$"):
            call()


def test_reliability_examples():
    assert reliability(2.0, 0.5, 2, 0.0) == 1.0
    assert reliability(2.0, 0.5, 2, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_reliability_over_no_time_is_one_where_the_rate_overflows():
    """k (e0 - i + 1) = inf: -inf * 0 would be NaN, and over any time it is 0."""
    assert reliability(1e308, 1e308, 1, 0.0) == 1.0
    assert reliability(1e308, 1e308, 1, 1e-300) == 0.0


def test_reliability_matches_schumann():
    """With k = c/I and corrected = i - 1 the two growth models describe the
    same process; their reliabilities agree to 1e-12."""
    rng = np.random.default_rng(314)
    for _ in range(100):
        instructions = int(rng.integers(100, 100_000))
        e0 = float(rng.uniform(5.0, 200.0))
        c = float(rng.uniform(0.01, 5.0))
        i = int(rng.integers(1, 5))
        dt = float(rng.uniform(0.0, 50.0))
        if e0 - i + 1 <= 0:
            continue
        k_jm = c / instructions
        jm_value = reliability(e0, k_jm, i, dt)
        fit = model_schumann.SchumannFit(e0_hat=e0, c_hat=c, instructions=instructions)
        schumann_value = model_schumann.reliability(fit, (i - 1) / instructions, dt)
        assert abs(jm_value - schumann_value) <= 1e-12


def test_fit_exact_two_intervals():
    """Intervals [1, 2]: the stationarity equation reduces to the quadratic
    identity (2 e0 - 1)(3 e0 - 2) = 6 e0 (e0 - 1) whose root is e0 = 2, and
    then k = 2 / (2*3 - 2) = 0.5.  A grid search confirms the root is unique
    in (1, 50]."""
    fit = fit_mle([1.0, 2.0])
    assert fit.e0_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.k_hat == pytest.approx(0.5, abs=1e-9)
    assert fit.k_obs == 2

    grid = np.linspace(1.001, 50.0, 200_000)
    values = np.array([stationarity_residual(float(e0), 2, 2.0 / 3.0) for e0 in grid])
    signs = np.sign(values)
    crossings = np.nonzero(np.diff(signs))[0]
    assert len(crossings) == 1
    assert grid[crossings[0]] < 2.0 < grid[crossings[0] + 1]


def test_fit_no_growth():
    """Shrinking intervals mean worsening reliability; the residual keeps one
    sign across the whole e0 range, so there is no root to find."""
    with pytest.raises(NoGrowthEvidence) as excinfo:
        fit_mle([2.0, 1.0])
    assert excinfo.value.diagnostic["b_over_a"] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert excinfo.value.diagnostic["threshold"] == 0.5
    for e0 in np.linspace(1.01, 1e4, 500):
        assert stationarity_residual(float(e0), 2, 1.0 / 3.0) > 0.0


@pytest.mark.parametrize(
    "intervals",
    [[1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 2.0, 1.0], [5.0] * 5, [2.0, 1.0, 1.0, 2.0], [1.0] * 100],
    ids=["1-1", "2-2-2", "1-2-1", "5x5", "2-1-1-2", "100-ones"],
)
def test_fit_on_the_no_growth_boundary_is_no_growth(intervals):
    """B/A equals (k - 1)/2 exactly: the exact objective is positive for every
    e0 above the pole, so no finite maximiser exists.  The O(1) objective
    rounds to zero far above the pole, and the scan used to bracket that
    rounding and return e0 between 7e7 and 7e9."""
    with pytest.raises(NoGrowthEvidence) as excinfo:
        fit_mle(intervals)
    diagnostic = excinfo.value.diagnostic
    assert diagnostic["b_over_a"] == diagnostic["threshold"] == (len(intervals) - 1) / 2


def test_fit_on_the_boundary_is_decided_before_the_scan(monkeypatch):
    """The boundary test needs no objective evaluation at all."""
    monkeypatch.setattr(numerics, "scan_bracket", lambda f, floor: pytest.fail("scanned"))
    with pytest.raises(NoGrowthEvidence):
        fit_mle([1.0, 2.0, 1.0])


@pytest.mark.parametrize(
    "intervals",
    [[1e-300, 3e-300], [1e-200, 2e-200, 4e-200], [1e-160, 3e-160]],
    ids=["1e-300", "1e-200", "1e-160"],
)
def test_covariance_with_var_k_beyond_the_float_range_is_out_of_range(intervals):
    """Real growth fits with k_hat above 1e154: var_k is formed at unit scale,
    so only var_k itself leaves the float range, where k_hat**2 used to raise
    a bare OverflowError."""
    fit = fit_mle(intervals)
    assert fit.k_hat > 1e154
    with pytest.raises(OutOfRange, match="^var_k = "):
        covariance(fit, intervals)


def test_covariance_with_var_k_below_the_float_range_is_out_of_range():
    """k_hat = 6.7e-201 and var_k about 1e-400: var_k used to underflow to 0.0,
    a zero variance that gave k the interval [k_hat, k_hat]."""
    intervals = [1e200, 3e200]
    with pytest.raises(OutOfRange, match=r"^var_k = .* \* 2\*\*-1332 is not a positive finite float$"):
        covariance(fit_mle(intervals), intervals)
    fit = covariance(fit_mle([1e150, 4e150]), [1e150, 4e150])
    assert fit.var_k == 1.0624999999999994e-300


def test_fit_overflowing_k_hat_is_out_of_range():
    """Subnormal intervals put k_hat = k / (e0 A - B) beyond the float range:
    OutOfRange, where JmFit used to raise DomainError for an infinite k_hat."""
    with pytest.raises(OutOfRange, match="k_hat"):
        fit_mle([1e-310, 3e-310])


def test_fit_root_within_float_resolution_of_the_pole_passes_the_gate():
    """Within about 1e-7 of the pole at e0 = 1, one ulp of e0 moves the
    residual by about 1e-8, more than the 1e-9 gate.  The root's residual is
    2.8e-9, but it changes sign between the floats next to e0, so the fit
    stands; it used to raise NoConvergence."""
    intervals = [8.710478184300544e299, 5.313456262806313e307 - 8.710478184300544e299]
    fit = fit_mle(intervals)
    assert fit.e0_hat == 1.0000000163932439
    assert 1e-9 < fit.residual < 3e-9
    beta = _beta(intervals)
    below, above = (stationarity_residual(math.nextafter(fit.e0_hat, to), 2, beta) for to in (0.0, math.inf))
    assert below > 0.0 > above


def test_fit_residual_above_the_gate_without_a_sign_change_is_no_convergence(monkeypatch):
    """A residual above 1e-9 that keeps its sign at both neighbouring floats fails the fit."""
    monkeypatch.setattr(model_jm, "stationarity_residual", lambda e0, k, beta: 2e-9)
    with pytest.raises(NoConvergence, match="keeps its sign at the floats next to it"):
        fit_mle([1.0, 2.0])


def test_fit_too_few():
    with pytest.raises(TooFewIntervals):
        fit_mle([1.0])


def test_fit_rejects_bad_intervals():
    with pytest.raises(DomainError):
        fit_mle([1.0, 0.0])
    with pytest.raises(DomainError):
        fit_mle([1.0, -2.0])


def test_fit_synthetic_residual():
    intervals = generate_intervals(50.0, 0.004, 40, seed=7)
    fit = fit_mle(intervals)
    assert abs(stationarity_residual(fit.e0_hat, len(intervals), _beta(intervals))) <= 1e-9
    assert fit.e0_hat > 39.0


def test_fit_scale_equivariance():
    """Scaling every interval by s leaves e0 alone and divides k by s."""
    rng = np.random.default_rng(12)
    checked = 0
    for seed in range(100):
        if checked >= 10:
            break
        intervals = list(generate_intervals(30.0, 0.01, 20, seed=seed))
        s = float(rng.uniform(0.1, 50.0))
        try:
            base = fit_mle(intervals)
        except NoGrowthEvidence:
            # Some draws genuinely show no improvement; they are not fixtures
            # for this property.
            continue
        scaled = fit_mle([x * s for x in intervals])
        assert scaled.e0_hat == pytest.approx(base.e0_hat, rel=1e-9)
        assert scaled.k_hat == pytest.approx(base.k_hat / s, rel=1e-9)
        checked += 1
    assert checked == 10


def test_covariance_example():
    """Hand arithmetic at (e0=2, k=0.5, A=3, k_obs=2): S2 = 1.25, so the
    denominator is 2*1.25 - 9*0.25 = 0.25, var_e0 = 8, var_k = 1.25, and
    rho = 1.5/sqrt(2.5).  Cross-checked against numpy's inverse of the
    information matrix [[k/k_hat^2, A], [A, S2]]."""
    fit = covariance(JmFit(e0_hat=2.0, k_hat=0.5, k_obs=2), [1.0, 2.0])
    assert fit.var_e0 == pytest.approx(8.0, abs=1e-6)
    assert fit.var_k == pytest.approx(1.25, abs=1e-6)
    assert fit.rho == pytest.approx(1.5 / math.sqrt(2.5), abs=1e-6)
    assert fit.rho == pytest.approx(0.94868, abs=1e-5)

    info = np.array([[2.0 / 0.5**2, 3.0], [3.0, 1.25]])
    oracle = np.linalg.inv(info)
    assert fit.var_k == pytest.approx(oracle[0, 0], rel=1e-9)
    assert fit.var_e0 == pytest.approx(oracle[1, 1], rel=1e-9)


def test_covariance_single_interval_singular():
    # k = 1 with the matching stationary k_hat makes the determinant exactly
    # zero: S2 = 1/e0^2 and (A*k_hat)^2 = 1/e0^2.
    fit = JmFit(e0_hat=5.0, k_hat=1.0 / (5.0 * 2.0), k_obs=1)
    with pytest.raises(SingularInformation):
        covariance(fit, [2.0])


def test_covariance_rho_bounded():
    rng = np.random.default_rng(27)
    for seed in range(15):
        count = int(rng.integers(5, 40))
        intervals = generate_intervals(60.0, 0.002, count, seed=seed)
        try:
            fit = covariance(fit_mle(intervals), intervals)
        except NoGrowthEvidence:
            continue
        assert abs(fit.rho) < 1.0
        assert fit.var_e0 > 0.0 and fit.var_k > 0.0


def test_covariance_interval_count_mismatch():
    fit = JmFit(e0_hat=2.0, k_hat=0.5, k_obs=2)
    with pytest.raises(DomainError):
        covariance(fit, [1.0, 2.0, 3.0])


def test_confidence_intervals():
    fit = covariance(JmFit(e0_hat=2.0, k_hat=0.5, k_obs=2), [1.0, 2.0])
    ci = confidence_intervals(fit, level=0.95)
    half = 1.959963985 * math.sqrt(8.0)
    assert ci["e0"][0] == pytest.approx(2.0 - half, rel=1e-6)
    assert ci["e0"][1] == pytest.approx(2.0 + half, rel=1e-6)
    with pytest.raises(DomainError):
        confidence_intervals(JmFit(2.0, 0.5, 2))


def test_generate_deterministic():
    a = generate_intervals(50.0, 0.004, 40, seed=123)
    b = generate_intervals(50.0, 0.004, 40, seed=123)
    assert a == b
    assert generate_intervals(50.0, 0.004, 40, seed=124) != a


def test_generate_count_zero():
    assert generate_intervals(50.0, 0.004, 0, seed=1) == []


def test_generate_rejects_excess_count():
    with pytest.raises(DomainError):
        generate_intervals(10.0, 0.01, 11, seed=1)


def test_generate_interval_means():
    """Replicated draws of the first and last interval stay within three
    standard errors of the exponential means 1/(k (e0 - i + 1))."""
    e0, k_jm, count, reps = 50.0, 0.004, 40, 2000
    first = np.empty(reps)
    last = np.empty(reps)
    for seed in range(reps):
        intervals = generate_intervals(e0, k_jm, count, seed=seed)
        first[seed] = intervals[0]
        last[seed] = intervals[-1]
    mean_first = 1.0 / (k_jm * e0)
    mean_last = 1.0 / (k_jm * (e0 - count + 1))
    # Exponential sd equals its mean.
    assert abs(first.mean() - mean_first) <= 3.0 * mean_first / math.sqrt(reps)
    assert abs(last.mean() - mean_last) <= 3.0 * mean_last / math.sqrt(reps)


@pytest.mark.parametrize("k", [1_000, 10_000])
def test_fit_matches_direct_sum_objective(k):
    """The O(1) objective finds the root that the term-by-term stationarity
    residual would find, to 1e-10 relative, and passes the 1e-9 gate."""
    intervals = generate_intervals(1.25 * k, 1.0 / (1.25 * k), k, seed=1)
    beta = _beta(intervals)

    def direct(e0):
        return stationarity_residual(e0, k, beta)

    e0_direct = find_root_bracketed(direct, scan_bracket(direct, float(k - 1)))
    fit = fit_mle(intervals)
    assert fit.e0_hat == pytest.approx(e0_direct, rel=1e-10)
    assert abs(direct(fit.e0_hat)) <= 1e-9


def test_fit_checks_the_direct_residual_once(monkeypatch):
    """The O(k) stationarity residual is only the final gate: a fit at
    k = 10^4 calls it exactly once, so its cost cannot grow with the
    number of objective evaluations."""
    calls = []
    original = model_jm.stationarity_residual

    def counted(e0, k, beta):
        calls.append(e0)
        return original(e0, k, beta)

    monkeypatch.setattr(model_jm, "stationarity_residual", counted)
    fit = fit_mle(generate_intervals(12_500.0, 8e-5, 10_000, seed=2))
    assert calls == [fit.e0_hat]


def test_fit_objective_evaluation_count(monkeypatch):
    """A seeded fit evaluates its O(1) objective at most 25 times, scan included."""
    calls = []
    original = numerics.pole_sum
    monkeypatch.setattr(numerics, "pole_sum", lambda e0, k: calls.append(e0) or original(e0, k))
    fit_mle(generate_intervals(125.0, 0.01, 100, seed=7))
    assert 0 < len(calls) <= 25


def test_covariance_bits_match_direct_sum():
    """S2 is summed from numpy terms; fsum is exactly rounded, so the
    variances equal the term-by-term formula bit for bit."""
    intervals = generate_intervals(60.0, 0.02, 50, seed=4)
    fit = covariance(fit_mle(intervals), intervals)
    k, e0 = fit.k_obs, fit.e0_hat
    s2 = math.fsum(1.0 / (e0 - i + 1) ** 2 for i in range(1, k + 1))
    denom = k * s2 - (math.fsum(intervals) * fit.k_hat) ** 2
    assert fit.var_e0 == k / denom
    assert fit.var_k == s2 * fit.k_hat**2 / denom


def test_fit_carries_its_checked_residual():
    """fit_mle keeps the residual it checked, so a report need not recompute it."""
    intervals = generate_intervals(60.0, 0.02, 50, seed=4)
    fit = fit_mle(intervals)
    assert fit.residual == stationarity_residual(fit.e0_hat, len(intervals), _beta(intervals))
    assert covariance(fit, intervals).residual == fit.residual
    assert fit == JmFit(e0_hat=fit.e0_hat, k_hat=fit.k_hat, k_obs=fit.k_obs)


def test_bad_interval_is_named():
    with pytest.raises(DomainError, match="^intervals must be finite and positive, got -2.0$"):
        fit_mle([1.0, -2.0, math.nan])
    with pytest.raises(DomainError, match="^intervals must be finite and positive, got inf$"):
        covariance(JmFit(e0_hat=2.0, k_hat=0.5, k_obs=2), [1.0, math.inf])
