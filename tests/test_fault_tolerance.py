"""Tests for double-execution planning and its Monte Carlo oracle."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from relgauge.errors import DomainError, OutOfRange
from relgauge.fault_tolerance import (
    DualRunConfig,
    expected_executions,
    optimal_module_time,
    rerun_probability,
    simulate_dual_execution,
    success_probability,
    total_time,
)

CONFIG = DualRunConfig(total_time=1000.0, overhead=1.0, failure_rate=0.001)


def bisect_oracle(f, lo, hi, tol=1e-10):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_config_validation():
    with pytest.raises(DomainError):
        DualRunConfig(total_time=0.0, overhead=1.0, failure_rate=0.001)


def test_rerun_probability_failure_free():
    assert rerun_probability(1.0, 2) == 1.0
    assert rerun_probability(1.0, 3) == 0.0
    assert rerun_probability(1.0, 7) == 0.0


def test_rerun_probability_examples():
    assert rerun_probability(0.9, 2) == pytest.approx(0.81, rel=1e-12)
    assert rerun_probability(0.9, 3) == pytest.approx(0.162, rel=1e-12)
    assert rerun_probability(0.9, 4) == pytest.approx(0.0243, rel=1e-12)
    assert rerun_probability(0.5, 3) == pytest.approx(0.25, rel=1e-12)


def test_rerun_probability_domain():
    with pytest.raises(DomainError):
        rerun_probability(0.0, 2)
    with pytest.raises(DomainError):
        rerun_probability(1.5, 2)
    with pytest.raises(DomainError):
        rerun_probability(0.5, 1)


def test_distribution_normalization_and_mean():
    """Truncated sums of the execution-count distribution reproduce both the
    normalization and the closed-form mean 2/p1 to 1e-9."""
    for p1 in (0.5, 0.7, 0.9, 0.99):
        total = math.fsum(rerun_probability(p1, i) for i in range(2, 501))
        mean = math.fsum(i * rerun_probability(p1, i) for i in range(2, 501))
        assert abs(total - 1.0) <= 1e-9
        assert abs(mean - expected_executions(p1)) <= 1e-9


def test_expected_executions():
    assert expected_executions(1.0) == 2.0
    assert expected_executions(0.5) == 4.0
    with pytest.raises(DomainError):
        expected_executions(0.0)


def test_total_time_failure_free_limit():
    config = DualRunConfig(total_time=1000.0, overhead=1.0, failure_rate=1e-12)
    assert total_time(config, 10.0) == pytest.approx(2100.0, rel=1e-9)


def test_total_time_near_optimum():
    assert total_time(CONFIG, 22.115) == pytest.approx(2089.95, abs=0.01)


def test_total_time_single_module():
    t = CONFIG.total_time
    expected = 2.0 * t * math.exp(CONFIG.failure_rate * t) + CONFIG.overhead
    assert total_time(CONFIG, t) == pytest.approx(expected, rel=1e-12)


def test_total_time_domain():
    with pytest.raises(DomainError):
        total_time(CONFIG, 0.0)
    with pytest.raises(DomainError):
        total_time(CONFIG, 1000.1)


def test_optimal_module_time():
    plan = optimal_module_time(CONFIG)

    def stationarity(t):
        return 2.0 * CONFIG.failure_rate * t * t * math.exp(CONFIG.failure_rate * t) - CONFIG.overhead

    oracle = bisect_oracle(stationarity, 1.0, 100.0)
    assert plan.t_star == pytest.approx(oracle, abs=1e-6)
    assert plan.t_star == pytest.approx(22.11, abs=0.01)
    assert plan.tp_min == pytest.approx(2089.95, abs=0.1)
    assert plan.module_count == pytest.approx(1000.0 / plan.t_star, rel=1e-12)
    assert plan.p1_at_t == pytest.approx(math.exp(-0.001 * plan.t_star), rel=1e-12)
    assert not plan.boundary
    # Small-argument approximation sqrt(a / (2 lam)) is an upper bound.
    assert plan.t_star < math.sqrt(CONFIG.overhead / (2.0 * CONFIG.failure_rate))


def test_optimal_module_time_boundary():
    config = DualRunConfig(total_time=1000.0, overhead=1e9, failure_rate=0.001)
    plan = optimal_module_time(config)
    assert plan.boundary
    assert plan.t_star == 1000.0
    assert plan.module_count == 1.0


def test_optimality_random_configs():
    rng = np.random.default_rng(1234)
    found = 0
    while found < 20:
        config = DualRunConfig(
            total_time=float(rng.uniform(10.0, 5000.0)),
            overhead=float(rng.uniform(0.01, 50.0)),
            failure_rate=float(rng.uniform(1e-5, 0.05)),
        )
        plan = optimal_module_time(config)
        if plan.boundary:
            continue
        grid = np.linspace(config.total_time / 10_000.0, config.total_time, 10_000)
        values = [total_time(config, float(t)) for t in grid]
        assert plan.tp_min <= min(values) + 1e-9 * min(values)
        assert plan.tp_min >= 2.0 * config.total_time
        found += 1


def test_simulation_failure_free():
    config = DualRunConfig(total_time=1000.0, overhead=1.0, failure_rate=1e-300)
    result = simulate_dual_execution(config, 10.0, 500, seed=3)
    assert result.mean_executions == 2.0
    assert result.histogram == {2: 500}
    assert result.elapsed == pytest.approx(10.0 * 1000 + 1.0 * 500, rel=1e-12)


def test_simulation_deterministic():
    a = simulate_dual_execution(CONFIG, 22.0, 10_000, seed=42)
    b = simulate_dual_execution(CONFIG, 22.0, 10_000, seed=42)
    assert a == b
    c = simulate_dual_execution(CONFIG, 22.0, 10_000, seed=43)
    assert c != a


def test_simulation_matches_analytic_mean():
    t = -math.log(0.9) / CONFIG.failure_rate  # p1 = 0.9 exactly
    modules = 100_000
    result = simulate_dual_execution(CONFIG, t, modules, seed=2024)
    mean = expected_executions(0.9)
    variance = 2.0 * (1.0 - 0.9) / 0.9**2  # sum of two geometrics
    se = math.sqrt(variance / modules)
    assert abs(result.mean_executions - mean) <= 3.0 * se


def test_simulation_histogram_matches_distribution():
    t = -math.log(0.7) / CONFIG.failure_rate
    modules = 100_000
    result = simulate_dual_execution(CONFIG, t, modules, seed=77)
    for i, count in sorted(result.histogram.items()):
        p = rerun_probability(0.7, int(i))
        expected = modules * p
        if expected < 10.0:
            continue
        se = math.sqrt(modules * p * (1.0 - p))
        assert abs(count - expected) <= 4.0 * se


def test_simulation_domain():
    with pytest.raises(DomainError):
        simulate_dual_execution(CONFIG, 0.0, 10, seed=1)
    with pytest.raises(DomainError):
        simulate_dual_execution(CONFIG, 10.0, 0, seed=1)


def test_success_probability_bounds():
    assert success_probability(CONFIG, 1e-9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        success_probability(CONFIG, -1.0)


def _exact_t_star(overhead, failure_rate):
    """The root of 2 lam t^2 exp(lam t) = a: t = (2 / lam) W(sqrt(a lam / 8)), W being Lambert's function."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, lam = mp.mpf(overhead), mp.mpf(failure_rate)
        return 2 / lam * mp.lambertw(mp.sqrt(a * lam / 8)).real


def _exact_boundary(total, overhead, failure_rate):
    """Whether the log form log(2 lam / a) + 2 log T + lam T is at most 0, exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        T, a, lam = mp.mpf(total), mp.mpf(overhead), mp.mpf(failure_rate)
        return mp.log(2 * lam / a) + 2 * mp.log(T) + lam * T <= 0


@pytest.mark.parametrize(
    "total, overhead, failure_rate, simulate",
    [
        ("100", "0.5", "7.2", False),  # 2 lam T^2 exp(lam T) overflows math.exp at T
        ("100", "0.5", "7.0", False),  # ... or the product at T
        ("100", "1e-300", "0.01", False),  # the root lies below T * 1e-15
        ("100", "0.5", "7.2", True),
        # Below T * 1e-15 again, where that bracket's direct form was still finite.
        ("1.9570707304426177e-75", "6.751356133072974e-293", "1e-131", False),
        # Boundary plans where 2 lam overflows, once with T * 1e-15 below the
        # log form's low end and once below the smallest normal float.
        ("1e-306", "5.986657101827642e-118", "1.7976931348623157e308", False),
        ("1e-313", "1.8499666953795915e-124", "1.7976931348623157e308", False),
    ],
    # The plans with T = 100 are named by their other inputs, the rest by what they test.
    ids=["0.5-7.2-False", "0.5-7.0-False", "1e-300-0.01-False", "0.5-7.2-True",
         "root-below-T*1e-15", "boundary-2lam-overflows", "boundary-subnormal-T"],
)
def test_plans_the_fixed_bracket_misses_have_the_exact_root(tmp_path, total, overhead, failure_rate, simulate):
    from relgauge.cli import run_cli

    out = tmp_path / "plan.json"
    argv = ["faulttol", "--total-time", total, "--overhead", overhead, "--failure-rate", failure_rate]
    if simulate:
        argv += ["--simulate", "1000", "--seed", "3"]
    assert run_cli([*argv, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    T = float(total)
    assert report["boundary"] == _exact_boundary(T, float(overhead), float(failure_rate))
    if report["boundary"]:
        assert report["t_star"] == T
    else:
        exact = _exact_t_star(float(overhead), float(failure_rate))
        # The log form's terms reach about 1400 at the extremes; its rounding moves t* by about 1e-13.
        assert abs(report["t_star"] - exact) <= 2e-13 * exact
    assert report["module_count"] == T / report["t_star"]
    if simulate:
        assert report["simulation"]["module_time"] == report["t_star"]
        assert report["simulation"]["modules"] == 1000


def test_minimal_time_is_a_float_where_t_times_a_is_not():
    """T a = 1e400 is beyond a float, but T (2 / p1 + a / t*) = 5.8e277 is not:
    the plan exits 0 with tp_min within 1e-13 of its 50-digit value."""
    from relgauge.cli import run_cli

    mp = pytest.importorskip("mpmath")
    total, overhead, failure_rate = "1e200", "1e200", "1e-120"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(["faulttol", "--total-time", total, "--overhead", overhead, "--failure-rate", failure_rate]) == 0
    report = json.loads(out.getvalue())
    with mp.workdps(50):
        T, a, lam = mp.mpf(total), mp.mpf(overhead), mp.mpf(failure_rate)
        t = mp.mpf(_exact_t_star(overhead, failure_rate))
        exact = T * (2 * mp.exp(lam * t) + a / t)
        assert abs(report["tp_min"] - exact) <= 1e-13 * exact


def test_plan_whose_success_probability_underflows_is_out_of_range():
    with pytest.raises(OutOfRange, match="underflows a float"):
        optimal_module_time(DualRunConfig(total_time=1e5, overhead=1e300, failure_rate=1e300))


def test_simulated_module_whose_success_probability_underflows_is_out_of_range():
    """exp(-lam * t) = 0 at a module length the caller chose: OutOfRange, not numpy's ValueError."""
    config = DualRunConfig(total_time=100.0, overhead=1.0, failure_rate=2.0**63)
    with pytest.raises(OutOfRange, match=r"exp\(-lam \* t\) at t = 20.0 underflows a float"):
        success_probability(config, 20.0)
    with pytest.raises(OutOfRange, match="underflows a float"):
        simulate_dual_execution(config, 20.0, 5, seed=3)
