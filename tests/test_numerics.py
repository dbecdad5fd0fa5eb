"""Tests for the shared numerical kernels."""

import math

import numpy as np
import pytest

from relgauge.debug_economics import fit_discovery_curve
from relgauge.errors import DomainError, NonFinite, NoSignChange, SingularInformation
from relgauge.numerics import (
    Bracket,
    Info2x2,
    find_root_bracketed,
    invert_information,
    log_gamma,
    minimize_bounded,
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


def test_minimize_bounded_parabola():
    x = minimize_bounded(lambda x: (x - 1.25) ** 2 + 3.0, -4.0, 7.0)
    assert x == pytest.approx(1.25, abs=1e-7)


def test_minimize_bounded_minimum_at_edge():
    # Increasing over the whole interval: the minimiser closes on the left end.
    x = minimize_bounded(lambda x: math.exp(x), 2.0, 5.0)
    assert 2.0 <= x < 2.0 + 1e-6
    x = minimize_bounded(lambda x: -x, 2.0, 5.0)
    assert 5.0 - 1e-6 < x <= 5.0


def test_fit_discovery_curve_golden():
    """The fit on one fixed dataset is pinned bit for bit, so a change to the
    minimiser that moves tau0 by even one ulp shows up here."""
    taus = [float(t) for t in range(5, 125, 5)]
    counts = [29, 60, 85, 117, 140, 161, 178, 192, 202, 214, 226, 236, 246, 255,
              257, 264, 272, 274, 278, 278, 284, 290, 292, 295]
    eps0, tau0 = fit_discovery_curve(list(zip(taus, map(float, counts))), 1000)
    assert eps0 == float.fromhex("0x1.38f5df5d3bcc3p+8")
    assert tau0 == float.fromhex("0x1.571d5de91ab79p+5")


def test_log_gamma_small_integers():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
    assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2.0), abs=1e-13)


def test_log_gamma_against_stdlib():
    # math.lgamma is an independent implementation; 1e-12 relative over the
    # working range, absolute near the zeros of ln Gamma.
    for i in range(1001):
        x = 0.5 + i * (49.5 / 1000.0)
        expected = math.lgamma(x)
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_log_gamma_recurrence():
    for i in range(500):
        x = 0.5 + i * (19.5 / 499.0)
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12


def test_log_gamma_below_half():
    for x in (0.05, 0.2, 0.49):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.0)


def test_invert_identity():
    inv = invert_information(Info2x2(1.0, 0.0, 1.0))
    assert (inv.var1, inv.var2, inv.cov) == (1.0, 1.0, 0.0)


def test_invert_diagonal():
    inv = invert_information(Info2x2(4.0, 0.0, 1.0))
    assert (inv.var1, inv.var2, inv.cov) == (0.25, 1.0, 0.0)


def test_invert_singular():
    with pytest.raises(SingularInformation):
        invert_information(Info2x2(1.0, 1.0, 1.0))


def test_invert_round_trip_random():
    """J times its reported inverse is the identity to 1e-12 whenever the
    determinant is comfortably positive."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        ell = np.array([[rng.uniform(0.5, 2.0), 0.0], [rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)]])
        j = ell @ ell.T
        info = Info2x2(a11=float(j[0, 0]), a12=float(j[0, 1]), a22=float(j[1, 1]))
        det = info.a11 * info.a22 - info.a12**2
        if det <= 1e-9:
            continue
        inv = invert_information(info)
        matrix = np.array([[info.a11, info.a12], [info.a12, info.a22]])
        inverse = np.array([[inv.var1, inv.cov], [inv.cov, inv.var2]])
        np.testing.assert_allclose(matrix @ inverse, np.eye(2), atol=1e-12)


def test_info_validation():
    with pytest.raises(DomainError):
        Info2x2(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        Info2x2(1.0, 0.0, -1.0)


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
