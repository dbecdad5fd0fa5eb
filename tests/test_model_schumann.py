"""Tests for the exponential reliability-growth model over debugging periods."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from relgauge import model_jm, model_schumann, numerics
from relgauge.errors import (
    DegenerateGamma,
    DomainError,
    NegativeEstimate,
    NoConvergence,
    NoGrowthEvidence,
    NonFinite,
    OutOfRange,
    ResidualNonPositive,
    SingularInformation,
    Underdetermined,
)
from relgauge.failure_data import DebugPeriod, intervals_from_epochs, parse_failure_epochs
from relgauge.model_schumann import (
    SchumannFit,
    confidence_intervals,
    covariance,
    fit_mle,
    fit_two_period,
    fit_two_period_from_totals,
    generate_periods,
    mttf,
    parse_schedule,
    reliability,
    report,
    stationarity_residuals,
)

# Constructed scenario: two periods at corrected counts 20 and 50 with
# exposures 1000 and 1600 and ten failures each, program size 1000.  The
# generating parameters are e0 = 100, c = 0.125.
PERIODS = [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 50, 1600.0, 10)]
FIT = SchumannFit(e0_hat=100.0, c_hat=0.125, instructions=1000)


def test_reliability_examples():
    assert reliability(FIT, 0.02, 0.0) == 1.0
    assert reliability(FIT, 0.02, 10.0) == pytest.approx(math.exp(-0.1), rel=1e-12)
    assert mttf(FIT, 0.02) == pytest.approx(100.0, rel=1e-12)


def test_reliability_residual_exhausted():
    with pytest.raises(ResidualNonPositive):
        reliability(FIT, 0.1, 1.0)
    with pytest.raises(ResidualNonPositive):
        mttf(FIT, 0.25)


def test_two_period_example():
    e0, c = fit_two_period(100.0, 160.0, 0.02, 0.05, 1000)
    assert e0 == pytest.approx(100.0, rel=1e-9)
    assert c == pytest.approx(0.125, rel=1e-9)


def test_two_period_from_totals():
    """Totals (1000, 10) and (1600, 10) reduce to per-failure exposures
    (100, 160) and must give the identical estimate."""
    direct = fit_two_period(100.0, 160.0, 0.02, 0.05, 1000)
    from_totals = fit_two_period_from_totals(1000.0, 10, 1600.0, 10, 0.02, 0.05, 1000)
    assert from_totals == direct


def test_two_period_degenerate():
    with pytest.raises(DegenerateGamma):
        fit_two_period(100.0, 100.0, 0.02, 0.05, 1000)


def test_two_period_inconsistent():
    # Growing per-failure exposure is required; reversed inputs imply a
    # non-positive residual error count.
    with pytest.raises(NegativeEstimate):
        fit_two_period(160.0, 100.0, 0.02, 0.05, 1000)


def test_two_period_validation():
    with pytest.raises(DomainError):
        fit_two_period(100.0, 160.0, 0.05, 0.02, 1000)
    with pytest.raises(DomainError):
        fit_two_period(-1.0, 160.0, 0.02, 0.05, 1000)


def test_mle_matches_construction():
    fit = fit_mle(PERIODS, 1000)
    assert fit.e0_hat == pytest.approx(100.0, rel=1e-9)
    assert fit.c_hat == pytest.approx(0.125, rel=1e-9)
    r1, r2 = stationarity_residuals(fit, PERIODS)
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_mle_matches_closed_form_random():
    """k=2 maximum likelihood must coincide with the closed form.  Scenarios
    are built backwards from known parameters so the closed form is exact."""
    rng = np.random.default_rng(60601)
    done = 0
    while done < 20:
        instructions = int(rng.integers(500, 5000))
        c2 = int(rng.integers(10, instructions // 4))
        c1 = int(rng.integers(0, c2))
        e0 = float(c2 + rng.uniform(5.0, instructions // 2))
        c = float(rng.uniform(0.01, 2.0))
        n1, n2 = int(rng.integers(2, 50)), int(rng.integers(2, 50))
        r1 = e0 / instructions - c1 / instructions
        r2 = e0 / instructions - c2 / instructions
        h1, h2 = n1 / (c * r1), n2 / (c * r2)
        periods = [
            DebugPeriod(1.0, c1, h1, n1),
            DebugPeriod(2.0, c2, h2, n2),
        ]
        closed = fit_two_period(h1 / n1, h2 / n2, c1 / instructions, c2 / instructions, instructions)
        fit = fit_mle(periods, instructions)
        assert fit.e0_hat == pytest.approx(closed[0], rel=1e-9)
        assert fit.c_hat == pytest.approx(closed[1], rel=1e-9)
        done += 1


def test_mle_identical_corrected_counts():
    periods = [DebugPeriod(1.0, 30, 1000.0, 10), DebugPeriod(2.0, 30, 1600.0, 4)]
    with pytest.raises(Underdetermined):
        fit_mle(periods, 1000)


def test_mle_no_growth():
    # Failures concentrated late (after more corrections) contradict growth:
    # the exposure-weighted mean corrected count 35 does not exceed the
    # failure-weighted one, (20 * 2 + 50 * 40) / 42.
    periods = [DebugPeriod(1.0, 20, 1000.0, 2), DebugPeriod(2.0, 50, 1000.0, 40)]
    with pytest.raises(NoGrowthEvidence) as excinfo:
        fit_mle(periods, 1000)
    assert excinfo.value.diagnostic == {"b_over_a": 35.0, "threshold": 2040 / 42}


def test_mle_needs_two_periods():
    with pytest.raises(Underdetermined):
        fit_mle(PERIODS[:1], 1000)


def test_mle_synthetic_five_periods():
    schedule = [(float(j), 10 + 15 * j, 1570.0) for j in range(5)]
    periods = generate_periods(100.0, 0.125, 1000, schedule, seed=41)
    fit = fit_mle(periods, 1000)
    r1, r2 = stationarity_residuals(fit, periods)
    assert r1 <= 1e-9 and r2 <= 1e-9


def test_covariance_against_hand_matrix():
    """Information entries for the constructed scenario are (1280, 2.6,
    0.0055625); numpy's inverse is the independent oracle here."""
    fit = covariance(SchumannFit(100.0, 0.125, 1000), PERIODS)
    matrix = np.array([[1280.0, 2.6], [2.6, 0.0055625]])
    oracle = np.linalg.inv(matrix)
    assert fit.var_c == pytest.approx(oracle[0, 0], rel=1e-9)
    assert fit.var_e0 == pytest.approx(oracle[1, 1], rel=1e-9)
    assert fit.var_c == pytest.approx(0.015451, abs=1e-5)
    assert fit.var_e0 == pytest.approx(3555.556, abs=1e-2)
    assert fit.rho == pytest.approx(0.97439, abs=1e-4)
    assert abs(fit.rho) < 1.0


def test_covariance_single_period():
    with pytest.raises(SingularInformation):
        covariance(FIT, PERIODS[:1])


def test_covariance_identical_corrected_is_singular():
    periods = [DebugPeriod(1.0, 20, 1000.0, 10), DebugPeriod(2.0, 20, 1600.0, 10)]
    with pytest.raises(SingularInformation):
        covariance(FIT, periods)


def test_covariance_without_failures_is_singular():
    """No failures make a11 = 0: the determinant check answers before rho
    could divide by sqrt(0)."""
    periods = [DebugPeriod(1.0, 20, 1000.0, 0), DebugPeriod(2.0, 50, 1600.0, 0)]
    with pytest.raises(SingularInformation, match="determinant"):
        covariance(FIT, periods)


def test_covariance_rho_bounded_random():
    """The information matrix at an actual interior likelihood maximum is
    positive definite, so every successful fit gets |rho| < 1 and positive
    variances."""
    rng = np.random.default_rng(2121)
    done = 0
    while done < 20:
        instructions = 1000
        c2 = int(rng.integers(10, 250))
        c1 = int(rng.integers(0, c2))
        e0 = float(c2 + rng.uniform(10.0, 400.0))
        c = float(rng.uniform(0.01, 1.0))
        n1, n2 = int(rng.integers(2, 60)), int(rng.integers(2, 60))
        h1 = n1 / (c * (e0 - c1) / instructions)
        h2 = n2 / (c * (e0 - c2) / instructions)
        periods = [DebugPeriod(1.0, c1, h1, n1), DebugPeriod(2.0, c2, h2, n2)]
        fit = covariance(fit_mle(periods, instructions), periods)
        assert abs(fit.rho) < 1.0
        assert fit.var_e0 > 0.0 and fit.var_c > 0.0
        done += 1


def test_confidence_intervals():
    fit = covariance(SchumannFit(100.0, 0.125, 1000), PERIODS)
    ci = confidence_intervals(fit)
    # 95% halfwidth = 1.959964 * sd.
    assert ci["e0"][1] - ci["e0"][0] == pytest.approx(2 * 1.959963985 * math.sqrt(fit.var_e0), rel=1e-6)
    assert ci["c"][0] < 0.125 < ci["c"][1]
    with pytest.raises(DomainError):
        confidence_intervals(FIT)  # no variances attached


def test_confidence_intervals_narrow_with_the_level():
    fit = covariance(SchumannFit(100.0, 0.125, 1000), PERIODS)
    wide, narrow = confidence_intervals(fit), confidence_intervals(fit, level=0.9)
    for name in ("e0", "c"):
        assert wide[name][0] < narrow[name][0] < narrow[name][1] < wide[name][1]


def test_report():
    fit = covariance(SchumannFit(99.6, 0.125, 1000, residuals=(0.0, 1e-12)), PERIODS)
    body = report(fit, 0.9, len(PERIODS))
    assert body == {
        "model": "schumann",
        "e0": 99.6,
        "e0_rounded": 100,
        "c": 0.125,
        "instructions": 1000,
        "var_e0": fit.var_e0,
        "var_c": fit.var_c,
        "rho": fit.rho,
        "confidence": 0.9,
        "ci": confidence_intervals(fit, level=0.9),
        "residuals": (0.0, 1e-12),
        "k": 2,
    }
    assert type(body["e0_rounded"]) is int


def test_generate_zero_intensity():
    periods = generate_periods(100.0, 0.125, 1000, [(0.0, 100, 500.0)], seed=5)
    assert periods[0].failures == 0


def test_generate_deterministic():
    schedule = [(0.0, 10, 1000.0), (1.0, 30, 1000.0)]
    a = generate_periods(100.0, 0.125, 1000, schedule, seed=9)
    b = generate_periods(100.0, 0.125, 1000, schedule, seed=9)
    assert a == b


def test_generate_mean_counts():
    """Across 200 seeded replications the mean count per period stays within
    three standard errors of the analytic Poisson mean c * r_j * H_j."""
    schedule = [(0.0, 10, 1570.0), (1.0, 40, 1570.0)]
    means = np.array([0.125 * (100 - 10) / 1000 * 1570.0, 0.125 * (100 - 40) / 1000 * 1570.0])
    reps = 200
    counts = np.zeros(2)
    for seed in range(reps):
        periods = generate_periods(100.0, 0.125, 1000, schedule, seed=seed)
        counts += [p.failures for p in periods]
    sample_mean = counts / reps
    se = np.sqrt(means / reps)
    assert np.all(np.abs(sample_mean - means) <= 3.0 * se)


def test_generate_validates_schedule():
    with pytest.raises(DomainError):
        generate_periods(100.0, 0.125, 1000, [(0.0, 50, 100.0), (1.0, 20, 100.0)], seed=1)
    with pytest.raises(DomainError):
        generate_periods(100.0, 0.125, 1000, [(0.0, 150, 100.0)], seed=1)
    # A bad exposure or tau is bad input, caught before any draw, with DebugPeriod's message.
    for tau, exposure, message in [
        (0.0, -1.0, "exposure must be finite and positive, got -1.0"),
        (0.0, math.nan, "exposure must be finite and positive, got nan"),
        (0.0, math.inf, "exposure must be finite and positive, got inf"),
        (-1.0, 100.0, "debug time must be finite and non-negative, got -1.0"),
    ]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            generate_periods(100.0, 0.125, 1000, [(0.0, 10, 100.0), (tau, 20, exposure)], seed=1)


def test_parse_schedule():
    schedule = parse_schedule("tau,corrected,exposure\n0.0,10,1570\n1.0,40,1570\n")
    assert schedule == [(0.0, 10, 1570.0), (1.0, 40, 1570.0)]
    with pytest.raises(DomainError, match="row 2"):
        parse_schedule("tau,corrected,exposure\n0.0,10,-4\n")


def test_generate_poisson_mean_overflow():
    with pytest.raises(OutOfRange):
        generate_periods(1e300, 1e300, 1, [(0.0, 0, 1e300)], seed=1)
    # Finite, but beyond what numpy's Poisson sampler accepts.
    with pytest.raises(OutOfRange):
        generate_periods(1e20, 1.0, 1, [(0.0, 0, 1.0)], seed=1)


def test_poisson_mean_limit_is_numpys():
    int64_max = np.iinfo(np.int64).max
    limit = int64_max - 10 * math.sqrt(int64_max)
    assert model_schumann._POISSON_MEAN_MAX.hex() == limit.hex()


def _golden_periods():
    rng = np.random.default_rng(20261018)
    instructions = 100_000
    corrected = np.sort(rng.integers(0, 4_000, 1_000))
    exposure = rng.uniform(1.0, 10.0, 1_000)
    failures = rng.poisson(40.0 * (5_000.0 - corrected) / instructions * exposure)
    periods = [
        DebugPeriod(float(j), int(m), float(h), int(n))
        for j, (m, h, n) in enumerate(zip(corrected, exposure, failures))
    ]
    return periods, instructions


def test_mle_golden_thousand_periods():
    """A seeded 1000-period fit is pinned bit for bit, and its e0 is within
    2 ulps of the root of the stationarity condition computed to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    periods, instructions = _golden_periods()
    fit = fit_mle(periods, instructions)
    assert fit.e0_hat == float.fromhex("0x1.3dcd0bd4f80dfp+12")
    assert fit.c_hat == float.fromhex("0x1.3999436455e82p+5")
    with mpmath.workdps(50):
        a, w, h = ([mpmath.mpf(getattr(p, name)) for p in periods] for name in ("corrected", "failures", "exposure"))
        m = mpmath.fsum(x * y for x, y in zip(a, h)) / mpmath.fsum(h)
        n = mpmath.fsum(w)
        root = mpmath.findroot(lambda x: mpmath.fsum(v / (x - c) for v, c in zip(w, a)) * (x - m) / n - 1, fit.e0_hat)
        assert abs(fit.e0_hat - root) <= 2 * math.ulp(fit.e0_hat)
    # The pair the bisection-and-secant solver pinned has residuals no smaller.
    old_e0, old_c = float.fromhex("0x1.3dcd0bd4f80d9p+12"), float.fromhex("0x1.3999436455e8dp+5")
    old = SchumannFit(old_e0, old_c, instructions)
    assert max(fit.residuals) <= max(stationarity_residuals(old, periods))


def test_mle_golden_evaluation_count(monkeypatch):
    """The 1000-period fit makes at most 25 O(P) sums: B, scan, solve and final check."""
    calls = []
    original = numerics.power_sum
    monkeypatch.setattr(numerics, "power_sum", lambda *args: calls.append(args[0]) or original(*args))
    fit_mle(*_golden_periods())
    assert 0 < len(calls) <= 25


def test_mle_scan_past_the_float_range_is_out_of_range():
    """A largest corrected count of 1e300 with almost no exposure.  The scan's
    last offsets used to pass the largest float, where the objective divided
    0 by 0, and then the estimates of c left the float range (OutOfRange).
    B/A = 1 is below the failure-weighted mean count 5e299, so the fit now
    stops at the growth test, before any scan."""
    periods = [DebugPeriod(1.0, 0, 1.0, 1), DebugPeriod(2.0, 10**300, 1e-300, 1)]
    with pytest.raises(NoGrowthEvidence):
        fit_mle(periods, 1)


class _WatchedPeriod(DebugPeriod):
    """A period that counts attribute reads while ``watching`` is set."""

    watching = False
    reads = 0

    def __getattribute__(self, name):
        if _WatchedPeriod.watching:
            _WatchedPeriod.reads += 1
        return super().__getattribute__(name)


def test_mle_objective_reads_no_period_after_setup(monkeypatch):
    """The objective works on arrays built once: no DebugPeriod attribute is
    read while the bracket is scanned or the root is solved."""
    periods, instructions = _golden_periods()
    watched = [_WatchedPeriod(p.tau, p.corrected, p.exposure, p.failures) for p in periods[:200]]

    calls = []

    def watch(solver):
        def wrapped(*args):
            calls.append(solver.__name__)
            _WatchedPeriod.watching = True
            try:
                return solver(*args)
            finally:
                _WatchedPeriod.watching = False

        return wrapped

    monkeypatch.setattr(numerics, "scan_bracket", watch(numerics.scan_bracket))
    monkeypatch.setattr(model_schumann, "find_root_bracketed", watch(model_schumann.find_root_bracketed))
    monkeypatch.setattr(_WatchedPeriod, "reads", 0)
    fit = fit_mle(watched, instructions)
    assert fit.e0_hat > max(p.corrected for p in periods[:200])
    assert _WatchedPeriod.reads == 0
    assert calls == ["scan_bracket", "find_root_bracketed"]  # both watched, the scan first


def test_fit_carries_its_checked_residuals():
    """fit_mle keeps the residuals it checked, so a report need not rebuild the columns:
    0 for the exposure form of c, which is c itself, and the stationarity residual at e0."""
    periods, instructions = _golden_periods()
    fit = fit_mle(periods, instructions)
    h, _ = numerics.interval_array([p.exposure for p in periods])
    likelihood = numerics.GrowthLikelihood(h, [p.corrected for p in periods], [p.failures for p in periods])
    e0, _, residual = likelihood.fit(numerics.find_root_bracketed, likelihood.residual)
    assert e0 == fit.e0_hat and fit.residuals == (0.0, abs(residual)) == (0.0, abs(likelihood.residual(e0)))
    assert max(stationarity_residuals(fit, periods)) <= 1e-15
    assert covariance(fit, periods).residuals == fit.residuals
    assert fit == SchumannFit(fit.e0_hat, fit.c_hat, instructions)


def test_covariance_bits_match_the_period_loop():
    """JM's information formulas at (e0, c / I), summed period by period over
    the exposures at unit scale, H_j 2^-e with the largest in [0.5, 1)."""
    periods, instructions = _golden_periods()
    fit = covariance(fit_mle(periods, instructions), periods)
    e = math.frexp(max(p.exposure for p in periods))[1]
    size, f = math.frexp(instructions)
    rate = math.ldexp(fit.c_hat, e - f) / size
    total = sum(p.failures for p in periods)
    s2 = math.fsum(p.failures / ((fit.e0_hat - p.corrected) * (fit.e0_hat - p.corrected)) for p in periods)
    a_rate = math.fsum(math.ldexp(p.exposure, -e) for p in periods) * rate
    denom = total * s2 - a_rate * a_rate
    assert fit.var_e0 == total / denom
    assert fit.var_c == math.ldexp(s2 * (rate * rate) / denom * size * size, 2 * (f - e))
    assert fit.rho == a_rate / math.sqrt(total * s2)


def test_covariance_names_the_first_exhausted_period():
    periods = PERIODS + [DebugPeriod(3.0, 120, 10.0, 1), DebugPeriod(4.0, 150, 10.0, 1)]
    with pytest.raises(ResidualNonPositive, match="corrected count 120 "):
        covariance(FIT, periods)


NTDS = Path(__file__).with_name("ntds_epochs.csv")


def _jm_and_one_failure_periods(intervals):
    """Both fits with covariance: JM over the intervals, and Schumann over one
    period per interval with corrected count i - 1, one failure and I = 1."""
    periods = [DebugPeriod(float(j), j, x, 1) for j, x in enumerate(intervals)]
    jm = model_jm.covariance(model_jm.fit_mle(intervals), intervals)
    schumann = covariance(fit_mle(periods, 1), periods)
    return jm, schumann


def _assert_same_fit(jm, schumann):
    pairs = [(jm.e0_hat, schumann.e0_hat), (jm.k_hat, schumann.c_hat), (jm.var_e0, schumann.var_e0),
             (jm.var_k, schumann.var_c), (jm.rho, schumann.rho)]
    for a, b in pairs:
        assert b == pytest.approx(a, rel=1e-13, abs=0.0)


def test_jm_is_schumann_with_one_failure_per_interval():
    intervals = list(intervals_from_epochs(parse_failure_epochs(NTDS.read_text())))
    _assert_same_fit(*_jm_and_one_failure_periods(intervals))


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(
    k=st.integers(2, 300),
    spare=st.floats(0.5, 50.0),
    scale=st.floats(1e-3, 1e3),
    draws=st.lists(st.floats(0.05, 5.0), min_size=300, max_size=300),
)
def test_jm_is_schumann_with_one_failure_per_interval_on_drawn_samples(k, spare, scale, draws):
    """Intervals drawn from a JM process with e0 = k - 1 + spare: wherever JM fits, so does Schumann."""
    e0 = k - 1 + spare
    intervals = [scale * u / (e0 - i) for i, u in enumerate(draws[:k])]
    try:
        model_jm.fit_mle(intervals)
    except (NoGrowthEvidence, NoConvergence):
        hypothesis.assume(False)
    _assert_same_fit(*_jm_and_one_failure_periods(intervals))


@st.composite
def _integer_periods(draw):
    count = draw(st.integers(2, 30))
    counts = st.integers(0, 2**20 - 1)
    corrected = sorted(draw(st.lists(counts, min_size=count, max_size=count)))
    exposures = draw(st.lists(st.integers(1, 2**20 - 1), min_size=count, max_size=count))
    failures = draw(st.lists(st.integers(0, 2**20 - 1) | st.integers(0, 5), min_size=count, max_size=count))
    return [DebugPeriod(float(j), c, float(h), n) for j, (c, h, n) in enumerate(zip(corrected, exposures, failures))]


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(periods=_integer_periods())
@hypothesis.example(periods=[DebugPeriod(1.0, 0, 2.0, 1), DebugPeriod(2.0, 2, 2.0, 1)])  # D = 0
def test_growth_test_is_exact_on_integer_periods(periods):
    """Integer exposures and counts below 2^20: every sum is exact, and B/A and
    the failure-weighted mean count are each rounded once, so rounding keeps
    their order.  D = sum(n_j (B/A - corrected_j)) <= 0, computed exactly,
    always raises NoGrowthEvidence, and so does a B/A at or above the largest
    corrected count with a failure, where no root exists; otherwise it is
    raised only where the two means round to the same float, or B/A rounds
    up to that count."""
    corrected = [p.corrected for p in periods]
    failures = [p.failures for p in periods]
    hypothesis.assume(sum(failures) >= 2 and len(set(corrected)) >= 2)
    m = Fraction(sum(c * int(p.exposure) for c, p in zip(corrected, periods)), sum(int(p.exposure) for p in periods))
    threshold = Fraction(sum(map(int.__mul__, corrected, failures)), sum(failures))
    top = max(c for c, n in zip(corrected, failures) if n)
    try:
        fit_mle(periods, 1000)
        raised = False
    except NoGrowthEvidence:
        raised = True
    except (NoConvergence, OutOfRange, NonFinite):
        raised = False
    if m <= threshold or m >= top:
        assert raised
    elif raised:
        assert float(m) in (float(threshold), top)


def test_periods_whose_failures_lie_at_or_below_b_over_a_have_no_growth_evidence():
    """Ten failure-free periods at corrected count 0, two failures at 0, none at 1:
    B/A = 1/12 exceeds the failure-weighted mean count 0, but every failure sits
    at or below B/A, so G(x) > 0 for every x and the likelihood has no root.
    The fit used to scan 16 points and end in NoConvergence."""
    periods = [DebugPeriod(float(j), 0, 1.0, 0) for j in range(10)]
    periods += [DebugPeriod(10.0, 0, 1.0, 2), DebugPeriod(11.0, 1, 1.0, 0)]
    with pytest.raises(NoGrowthEvidence, match="largest corrected count with a failure") as raised:
        fit_mle(periods, 1)
    assert raised.value.diagnostic == {"b_over_a": 1 / 12, "threshold": 0.0}
