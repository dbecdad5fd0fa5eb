"""Tests for the exponential error-discovery economics."""

import math

import numpy as np
import pytest

from relgauge import debug_economics
from relgauge.debug_economics import (
    DiscoveryParams,
    EconParams,
    cumulative_corrected,
    failure_probability,
    fit_discovery_curve,
    mttf,
    mttf_at_optimum,
    optimal_debug_time,
    parse_discovery,
    reliability,
    residual_errors,
    total_cost,
)
from relgauge.errors import DomainError, NoConvergence, OutOfRange, Underdetermined


def exp_series(x, terms=30):
    """Taylor-series exponential, independent of libm for oracle duty."""
    total, term = 0.0, 1.0
    for n in range(1, terms + 1):
        total += term
        term *= x / n
    return total


PARAMS = DiscoveryParams(eps0=100.0, tau0=10.0, commands=10_000, tempo=1000.0)
ECON = EconParams(cost_error=7.389056, cost_test=1.0, horizon=1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        DiscoveryParams(eps0=0.0, tau0=10.0, commands=100, tempo=1.0)
    with pytest.raises(DomainError):
        DiscoveryParams(eps0=1.0, tau0=10.0, commands=0, tempo=1.0)
    with pytest.raises(DomainError):
        EconParams(cost_error=1.0, cost_test=-1.0, horizon=1.0)


def test_cumulative_corrected():
    assert cumulative_corrected(PARAMS, 0.0) == 0.0
    assert cumulative_corrected(PARAMS, 1e6 * PARAMS.tau0) == pytest.approx(0.01, abs=1e-12)
    expected = 0.01 * (1.0 - exp_series(-1.0))
    assert cumulative_corrected(PARAMS, 10.0) == pytest.approx(expected, abs=1e-12)
    assert cumulative_corrected(PARAMS, 10.0) == pytest.approx(0.0063212, abs=1e-7)


def test_residual_errors():
    assert residual_errors(PARAMS, 0.0) == 0.01
    expected = 0.01 * exp_series(-1.0)
    assert residual_errors(PARAMS, 10.0) == pytest.approx(expected, abs=1e-12)
    assert residual_errors(PARAMS, 10.0) == pytest.approx(0.0036788, abs=1e-7)


def test_conservation_on_grid():
    for i in range(1000):
        tau = i * (10.0 * PARAMS.tau0 / 999.0)
        total = cumulative_corrected(PARAMS, tau) + residual_errors(PARAMS, tau)
        assert abs(total - 0.01) <= 1e-12


def test_conservation_random_params():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        p = DiscoveryParams(
            eps0=float(rng.uniform(1.0, 500.0)),
            tau0=float(rng.uniform(0.1, 100.0)),
            commands=int(rng.integers(10, 10_000_000)),
            tempo=float(rng.uniform(0.1, 1e4)),
        )
        level = p.eps0 / p.commands
        for i in range(100):
            tau = i * (10.0 * p.tau0 / 99.0)
            total = cumulative_corrected(p, tau) + residual_errors(p, tau)
            assert abs(total - level) <= 1e-12 * max(1.0, level)


def test_failure_probability():
    assert failure_probability(PARAMS, 5.0, 0.0) == 0.0
    p = failure_probability(PARAMS, 10.0, 0.01)
    assert p == pytest.approx(0.0036788 * 10.0, rel=1e-4)
    with pytest.raises(OutOfRange):
        failure_probability(PARAMS, 0.0, 1.0)  # 0.01 * 1000 * 1 = 10


def test_mttf_growth():
    assert mttf(PARAMS, 0.0) == pytest.approx(0.1, rel=1e-12)
    assert mttf(PARAMS, 10.0) == pytest.approx(0.1 * math.e, rel=1e-12)
    assert mttf(PARAMS, 20.0) == pytest.approx(0.1 * math.e**2, rel=1e-12)


def test_mttf_monotone_residual_antitone():
    taus = [i * 0.37 for i in range(100)]
    m = [mttf(PARAMS, t) for t in taus]
    r = [residual_errors(PARAMS, t) for t in taus]
    assert all(a < b for a, b in zip(m, m[1:]))
    assert all(a > b for a, b in zip(r, r[1:]))


def test_mttf_is_reciprocal_rate():
    for i in range(200):
        tau = i * 0.25
        product = mttf(PARAMS, tau) * residual_errors(PARAMS, tau) * PARAMS.tempo
        assert abs(product - 1.0) <= 1e-12


def test_exp_growth_predictions():
    params = DiscoveryParams(eps0=100.0, tau0=5.0, commands=1000, tempo=10.0)
    assert params.tempo * params.eps0 / params.commands == 1.0
    assert reliability(params, 0.0, 0.0) == 1.0
    assert mttf(params, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert mttf(params, 5.0) == pytest.approx(math.e, rel=1e-12)
    at_tau0 = reliability(params, 5.0, 1.0)
    assert at_tau0 == pytest.approx(math.exp(-math.exp(-1.0)), rel=1e-12)
    assert at_tau0 == pytest.approx(0.69220, abs=1e-5)
    with pytest.raises(DomainError):
        reliability(params, 5.0, -1.0)


def test_expected_corrected_fraction():
    params = DiscoveryParams(eps0=100.0, tau0=5.0, commands=1000, tempo=10.0)
    assert cumulative_corrected(params, 0.0) == 0.0
    assert cumulative_corrected(params, 5.0) == pytest.approx(
        0.1 * (1.0 - math.exp(-1.0)), rel=1e-12
    )


def test_total_cost():
    assert total_cost(PARAMS, ECON, 0.0) == pytest.approx(
        ECON.cost_error * ECON.horizon * PARAMS.eps0 * PARAMS.tempo / PARAMS.commands,
        rel=1e-12,
    )
    expected_20 = 7.389056 * 1.0 * 10.0 * exp_series(-2.0) + 20.0
    assert total_cost(PARAMS, ECON, 20.0) == pytest.approx(expected_20, abs=1e-9)
    assert total_cost(PARAMS, ECON, 20.0) == pytest.approx(30.000, abs=1e-3)
    assert total_cost(PARAMS, ECON, 19.0) == pytest.approx(30.052, abs=1e-3)


def test_optimal_debug_time_interior():
    """cost_error was chosen so the log argument is e^2 times tau0/tau0: the
    stationary point sits at exactly two time constants."""
    optimum = optimal_debug_time(PARAMS, ECON)
    assert not optimum.boundary
    assert optimum.tau_m == pytest.approx(20.0, abs=1e-6)
    assert optimum.cost == pytest.approx(30.0, abs=1e-3)
    # Grid cross-check over [0, 5*tau0] at step 1e-3.
    taus = np.arange(0.0, 50.0 + 1e-9, 1e-3)
    costs = [total_cost(PARAMS, ECON, float(t)) for t in taus]
    assert optimum.cost <= min(costs) + 1e-9


def test_optimal_debug_time_boundary():
    params = DiscoveryParams(eps0=1.0, tau0=10.0, commands=10_000, tempo=1.0)
    # Argument 0.5: scale cost_error to hit it exactly.
    arg_one = EconParams(
        cost_error=10_000.0 * 10.0 / (1.0 * 1.0), cost_test=1.0, horizon=1.0
    )
    assert optimal_debug_time(params, arg_one).tau_m == 0.0
    assert not optimal_debug_time(params, arg_one).boundary
    half = EconParams(cost_error=arg_one.cost_error / 2.0, cost_test=1.0, horizon=1.0)
    optimum = optimal_debug_time(params, half)
    assert optimum.tau_m == 0.0
    assert optimum.boundary
    assert optimum.cost == pytest.approx(total_cost(params, half, 0.0), rel=1e-12)


def test_optimality_random_params():
    rng = np.random.default_rng(321)
    found = 0
    while found < 50:
        p = DiscoveryParams(
            eps0=float(rng.uniform(5.0, 500.0)),
            tau0=float(rng.uniform(0.5, 50.0)),
            commands=int(rng.integers(100, 1_000_000)),
            tempo=float(rng.uniform(1.0, 1e4)),
        )
        e = EconParams(
            cost_error=float(rng.uniform(0.1, 100.0)),
            cost_test=float(rng.uniform(0.1, 10.0)),
            horizon=float(rng.uniform(0.1, 100.0)),
        )
        optimum = optimal_debug_time(p, e)
        if optimum.boundary or optimum.tau_m > 4.9 * p.tau0:
            continue
        taus = np.linspace(0.0, 5.0 * p.tau0, 10_000)
        costs = np.array([total_cost(p, e, float(t)) for t in taus])
        assert optimum.cost <= costs.min() + 1e-9 * max(1.0, costs.min())
        found += 1


def test_fit_discovery_round_trip():
    truth = DiscoveryParams(eps0=100.0, tau0=10.0, commands=10_000, tempo=1.0)
    observations = [
        (tau, truth.commands * cumulative_corrected(truth, tau)) for tau in (10.0, 20.0, 30.0)
    ]
    assert observations[0][1] == pytest.approx(63.212, abs=1e-3)
    eps0, tau0 = fit_discovery_curve(observations, truth.commands)
    assert eps0 == pytest.approx(100.0, rel=1e-6)
    assert tau0 == pytest.approx(10.0, rel=1e-6)


def _profiled_sse(observations, tau0):
    """Squared error of the curve with time constant tau0 and the best eps0 for it."""
    taus, counts = np.array(observations).T
    growth = -np.expm1(-taus / tau0)
    resid = counts - (counts @ growth) / (growth @ growth) * growth
    return float(resid @ resid)


def test_fit_discovery_round_trip_random():
    rng = np.random.default_rng(8080)
    noise = np.random.default_rng(8081)
    for _ in range(20):
        eps0 = float(rng.uniform(10.0, 1000.0))
        tau0 = float(rng.uniform(0.5, 80.0))
        p = DiscoveryParams(eps0=eps0, tau0=tau0, commands=1000, tempo=1.0)
        taus = np.sort(rng.uniform(0.2 * tau0, 4.0 * tau0, size=6))
        observations = [(float(t), 1000 * cumulative_corrected(p, float(t))) for t in taus]
        got_eps0, got_tau0 = fit_discovery_curve(observations, 1000)
        assert got_eps0 == pytest.approx(eps0, rel=1e-6)
        assert got_tau0 == pytest.approx(tau0, rel=1e-6)
        # Each increment off by up to 10 %: the fit is a local least-squares minimum.
        counts = np.cumsum(np.diff([0.0] + [c for _, c in observations]) * noise.uniform(0.9, 1.1, 6))
        noisy = list(zip(taus.tolist(), counts.tolist()))
        _, fit_tau0 = fit_discovery_curve(noisy, 1000)
        at_fit = _profiled_sse(noisy, fit_tau0 * (1.0 - 1e-12))
        for step in (1.0 - 1e-4, 1.0 + 1e-4):
            assert _profiled_sse(noisy, fit_tau0 * step) >= at_fit


def test_fit_discovery_round_trip_at_unit_tau0(monkeypatch):
    """tau0 = 1 puts log tau0 at 0; the fit still ends in a bounded number of evaluations."""
    truth = DiscoveryParams(eps0=100.0, tau0=1.0, commands=1000, tempo=1.0)
    observations = [(t, 1000 * cumulative_corrected(truth, t)) for t in (0.3, 0.7, 1.0, 1.5, 2.5, 4.0)]
    # Each evaluation of the profiled error takes four dot products.
    calls = []
    dot = debug_economics.dot
    monkeypatch.setattr(debug_economics, "dot", lambda a, b: calls.append(a) or dot(a, b))
    eps0, tau0 = fit_discovery_curve(observations, 1000)
    assert eps0 == pytest.approx(100.0, rel=1e-6)
    assert tau0 == pytest.approx(1.0, rel=1e-6)
    assert len(calls) % 4 == 0 and 0 < len(calls) // 4 <= 24


def test_fit_discovery_edge_optimum_is_no_convergence():
    """Counts that grow linearly, faster than linearly, or only at the last point
    are fitted best at an edge of the tau0 range, not at an interior optimum."""
    taus = [float(t) for t in range(1, 7)]
    for counts in ([2.0 * t for t in taus], [t * t for t in taus], [0.0] * 5 + [10.0]):
        with pytest.raises(NoConvergence, match="no interior optimum"):
            fit_discovery_curve(list(zip(taus, counts)), 10)


def test_fit_discovery_underdetermined():
    with pytest.raises(Underdetermined):
        fit_discovery_curve([(1.0, 5.0), (2.0, 8.0)], 100)
    with pytest.raises(Underdetermined):
        fit_discovery_curve([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)], 100)


def test_fit_discovery_input_validation():
    with pytest.raises(DomainError):
        fit_discovery_curve([(1.0, 5.0), (1.0, 6.0), (2.0, 7.0)], 100)
    with pytest.raises(DomainError):
        fit_discovery_curve([(1.0, 5.0), (2.0, 4.0), (3.0, 7.0)], 100)


def test_parse_discovery():
    observations = parse_discovery("tau,corrected\n10,63.2\n20,86.5\n")
    assert observations == [(10.0, 63.2), (20.0, 86.5)]


def test_optimal_debug_time_takes_an_overflowing_argument_in_logs():
    """Where the log argument overflows (or its denominator underflows), tau_m = tau0 ln(arg)
    comes from a sum of logs and the cost there is cost_test (tau0 + tau_m); a cost beyond a
    float, and a tau_m that overflows, are the computation's own limit, not bad input."""
    mpmath = pytest.importorskip("mpmath")
    overflow = DiscoveryParams(eps0=1e300, tau0=1e-3, commands=1, tempo=1e300)
    econ = EconParams(cost_error=1e300, cost_test=1e-300, horizon=1.0)
    optimum = optimal_debug_time(overflow, econ)
    with mpmath.workdps(50):
        e = mpmath.mpf
        tau_m = e(1e-3) * mpmath.log(e(1e300) ** 3 / (e(1e-300) * e(1e-3)))
        cost = e(1e-300) * e(1e-3) + e(1e-300) * tau_m
        assert abs(optimum.tau_m - tau_m) <= 1e-14 * tau_m and abs(optimum.cost - cost) <= 1e-14 * cost
    assert optimum.boundary is False
    underflow = DiscoveryParams(eps0=1.0, tau0=1e-200, commands=1, tempo=1.0)
    with pytest.raises(OutOfRange, match="^the cost at the optimum .* is beyond a float$"):
        optimal_debug_time(underflow, EconParams(cost_error=1.0, cost_test=1e-200, horizon=1.0))
    # arg is finite, but tau0 * ln(arg) is not.
    huge_tau0 = DiscoveryParams(eps0=1.7e308, tau0=1e306, commands=1, tempo=1.0)
    with pytest.raises(OutOfRange, match="tau0"):
        optimal_debug_time(huge_tau0, EconParams(cost_error=1.0, cost_test=1e-300, horizon=1.0))


def test_the_cost_and_mttf_at_a_subnormal_tau0_are_within_1e_12_of_their_50_digit_values():
    """300 seeded draws with a subnormal tau0 and the other values over the float range: the
    cost at the optimum, cost_test * tau0 * (1 + ln arg) where that is interior, and the mttf
    there are each within 1e-12 of its 50-digit value or one unit of the least subnormal, or
    OutOfRange where it is beyond a float.  Summing a subnormal tau_m into the cost once put
    costs outside that bound, and taking the mttf from the rounded tau_m / tau0 put mttfs outside it."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(47)

    def draw(lo, hi):
        return math.ldexp(float(rng.uniform(0.5, 1.0)), int(rng.integers(lo, hi)))

    costs = mttfs = 0
    for _ in range(300):
        params = DiscoveryParams(draw(-1074, 1024), draw(-1074, -1021), int(rng.integers(1, 2**62)), draw(-1074, 1024))
        econ = EconParams(cost_error=draw(-1074, 1024), cost_test=draw(-1074, 1024), horizon=draw(-1074, 1024))
        try:
            optimum = optimal_debug_time(params, econ)
        except OutOfRange:
            continue
        costs += 1
        with mpmath.workdps(50):
            eps0, tau0, commands, tempo = (mpmath.mpf(getattr(params, f)) for f in DiscoveryParams._fields)
            losses = mpmath.mpf(econ.cost_error) * econ.horizon * eps0 * tempo / commands
            tau_m = max(tau0 * mpmath.log(losses / (econ.cost_test * tau0)), 0)
            exact = losses * mpmath.exp(-tau_m / tau0) + econ.cost_test * tau_m
            assert abs(optimum.cost - exact) <= 1e-12 * exact + 2.0**-1074, (params, econ)
            exact = commands / (eps0 * tempo) * mpmath.exp(tau_m / tau0)
            if mpmath.mpf(2) ** -1075 < exact < mpmath.mpf(2) ** 1024:
                mttfs += 1
                assert abs(mttf_at_optimum(params, econ, optimum) - exact) <= 1e-12 * exact + 2.0**-1074, (params, econ)
            else:
                with pytest.raises(OutOfRange, match="^the mttf commands / [(]eps0 [*] tempo[)]"):
                    mttf_at_optimum(params, econ, optimum)
    assert costs > 100 and mttfs > 50
