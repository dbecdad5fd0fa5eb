"""Tests for the shared numerical kernels."""

import math

import numpy as np
import pytest

from relgauge.debug_economics import fit_discovery_curve
from relgauge.errors import DomainError, NonFinite, NoSignChange, SingularInformation
from relgauge.failure_data import DebugPeriod
from relgauge.model_schumann import SchumannFit, covariance
from relgauge.numerics import (
    Bracket,
    find_root_bracketed,
    gaussian_intervals,
    interval_array,
    pole_sum,
    scan_bracket,
)


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


def test_scan_bracket_finds_sign_change():
    # Scan points sit at 10 + 1e-8 * 2^j; the sign flips between j = 16 and 17.
    bracket = scan_bracket(lambda x: x - 10.001, 10.0)
    assert bracket.lo == 10.0 + 1e-8 * 2**16
    assert bracket.hi == 10.0 + 1e-8 * 2**17
    assert bracket.tol_rel == 1e-13
    assert find_root_bracketed(lambda x: x - 10.001, bracket) == pytest.approx(10.001, rel=1e-13)


def test_scan_bracket_none_without_sign_change():
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (x - 3.0)

    assert scan_bracket(f, 3.0) is None
    assert len(calls) == 61


def test_scan_bracket_exact_zero_at_scan_point():
    # f vanishes exactly at the third scan point, 1e-9 * 4 above the floor 0.
    zero = 4e-9
    bracket = scan_bracket(lambda x: 0.0 if x == zero else x - zero, 0.0)
    assert (bracket.lo, bracket.hi) == (2e-9, zero)
    assert find_root_bracketed(lambda x: 0.0 if x == zero else x - zero, bracket) == zero
    # An exact zero at the first point brackets from half its offset.
    first = scan_bracket(lambda x: 0.0, 0.0)
    assert (first.lo, first.hi) == (0.5e-9, 1e-9)


def test_fit_discovery_curve_golden():
    """The fit on one fixed dataset is pinned bit for bit, so a change to the
    root solve that moves tau0 by even one ulp shows up here."""
    taus = [float(t) for t in range(5, 125, 5)]
    counts = [29, 60, 85, 117, 140, 161, 178, 192, 202, 214, 226, 236, 246, 255,
              257, 264, 272, 274, 278, 278, 284, 290, 292, 295]
    eps0, tau0 = fit_discovery_curve(list(zip(taus, map(float, counts))), 1000)
    assert eps0 == float.fromhex("0x1.38f5df684b4e1p+8")
    assert tau0 == float.fromhex("0x1.571d5e0a7a86ap+5")

    # The pair pinned when a bounded minimiser fitted this curve fits it no better.
    t, c = np.array(taus), np.array(counts, dtype=float)

    def sse(eps0, tau0):
        resid = c + eps0 * np.expm1(-t / tau0)
        return float(resid @ resid)

    old_tau0 = float.fromhex("0x1.571d5de91ab79p+5")
    growth = -np.expm1(-t / old_tau0)
    assert sse(eps0, tau0) <= sse(float(c @ growth / (growth @ growth)), old_tau0)


def test_interval_array_returns_the_checked_floats():
    x = interval_array([1, 2.5, 1e-300])
    assert x.dtype == np.float64
    assert x.tolist() == [1.0, 2.5, 1e-300]


def test_interval_array_names_the_first_bad_interval():
    for bad, shown in ((0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(DomainError, match=f"^intervals must be finite and positive, got {shown}$"):
            interval_array([1.0, bad, -2.0])


def test_gaussian_intervals_half_widths():
    z = 1.959963984540054  # the 0.975 normal quantile
    ci = gaussian_intervals(0.95, e0=(10.0, 4.0), c=(0.5, 0.0))
    assert list(ci) == ["e0", "c"]
    assert ci["e0"] == pytest.approx((10.0 - 2.0 * z, 10.0 + 2.0 * z), rel=1e-15)
    assert ci["c"] == (0.5, 0.5)


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
