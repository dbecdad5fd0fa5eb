"""Exact oracles, at 40 significant digits, for the equations the fits solve.

Each root is compared with the exact root of the same equation over the
exact values of the same float inputs.  The solver stops on a bracket
narrower than TOL relative to the root, around a sign change of the
float objective; the float objective is off by a few ulps, which moves its
sign change by kappa ulps relative, with kappa = 1 / |x f'(x)| at the root
(the condition of the root under a relative perturbation of the
objective).  So each bound is TOL * max(1, kappa): one solver tolerance,
scaled by the condition.  Nothing is asserted about bits.
"""

import itertools
import math
import statistics
import sys

import numpy as np
import pytest

from relgauge import debug_economics, fault_tolerance, model_jm, model_schumann, model_weibull
from relgauge.errors import (
    DataError,
    DegenerateSample,
    EstimationError,
    NoConvergence,
    NoGrowthEvidence,
    OutOfRange,
)
from relgauge.failure_data import DebugPeriod
from relgauge.numerics import DEFAULT_TOL_REL, find_root_bracketed, pole_sum, scan_bracket

mp = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TOL = 1e-13  # the relative bracket width scan_bracket hands the solver
JM_SEEDS = range(40)
SMALL_SAMPLES = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30)


@pytest.fixture(autouse=True)
def forty_digits():
    with mp.workdps(40):
        yield


def _exact_root(f, guess):
    """The root of f near ``guess`` and its condition 1 / |x f'(x)|."""
    root = mp.findroot(f, mp.mpf(guess))
    return root, 1 / abs(root * mp.diff(f, root))


def _relative(x: float, exact) -> float:
    return float(abs(mp.mpf(x) - exact) / abs(exact))


@pytest.mark.parametrize("k", [65, 1000, 10**5])
@pytest.mark.parametrize("gap", [1e-9, 0.5, 16.0, 1e6])
def test_pole_sum_matches_the_digamma_difference(k, gap):
    e0 = (k - 1) + gap
    exact = mp.digamma(mp.mpf(e0) + 1) - mp.digamma(mp.mpf(e0) - k + 1)
    assert _relative(pole_sum(e0, k), exact) <= 1e-15


def _jm_exact(intervals, guess):
    """The exact root of S(e0) (e0 - B/A) / k = 1 over the exact interval values."""
    k = len(intervals)
    a = mp.fsum(mp.mpf(x) for x in intervals)
    beta = mp.fsum(i * mp.mpf(x) for i, x in enumerate(intervals)) / a
    return _exact_root(lambda e0: (mp.digamma(e0 + 1) - mp.digamma(e0 - k + 1)) * (e0 - beta) / k - 1, guess)


def _head_form_root(intervals) -> float:
    """The root of the objective as written before it was put in B/A: S / (k A / (e0 A - B)) - 1."""
    a, b = math.fsum(intervals), math.fsum(i * x for i, x in enumerate(intervals))
    k = len(intervals)

    def objective(e0):
        return pole_sum(e0, k) / (k * a / (e0 * a - b)) - 1.0

    return find_root_bracketed(objective, scan_bracket(objective, float(k - 1)))


def test_jm_roots_are_within_tolerance_of_the_exact_root_and_no_farther_than_before():
    """On seeded fits of 20, 100 and 1000 intervals each root lies within
    TOL * max(1, kappa) of the exact root, and the median distance of the
    B/A form is no larger than that of the form it replaced."""
    distances, before = [], []
    for count in (20, 100, 1000):
        for seed in JM_SEEDS:
            intervals = model_jm.generate_intervals(1.25 * count, 1.0 / count, count, seed)
            try:
                fit = model_jm.fit_mle(intervals)
            except NoGrowthEvidence:
                continue
            root, kappa = _jm_exact(intervals, fit.e0_hat)
            distances.append(_relative(fit.e0_hat, root))
            assert distances[-1] <= TOL * max(1.0, float(kappa)), (count, seed)
            before.append(_relative(_head_form_root(intervals), root))
    assert len(distances) >= 100
    assert statistics.median(distances) <= statistics.median(before)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(intervals=SMALL_SAMPLES)
def test_jm_root_of_a_drawn_sample_is_within_tolerance_of_the_exact_root(intervals):
    try:
        fit = model_jm.fit_mle(intervals)
    except (NoGrowthEvidence, NoConvergence):
        return
    root, kappa = _jm_exact(intervals, fit.e0_hat)
    assert _relative(fit.e0_hat, root) <= TOL * max(1.0, float(kappa))


def test_jm_root_beside_the_pole_lies_between_the_exact_sign_change_floats():
    """The intervals behind the root 1.6e-8 above the pole, whose float
    residual exceeds 1e-9: the exact objective changes sign between the
    floats next to the fitted e0, so no float lies closer to the root."""
    intervals = [8.710478184300544e299, 5.313456262806313e307 - 8.710478184300544e299]
    e0 = model_jm.fit_mle(intervals).e0_hat
    a = mp.fsum(mp.mpf(x) for x in intervals)
    beta = mp.fsum(i * mp.mpf(x) for i, x in enumerate(intervals)) / a

    def exact(x):
        x = mp.mpf(x)
        return (mp.digamma(x + 1) - mp.digamma(x - 1)) * (x - beta) / 2 - 1

    assert exact(math.nextafter(e0, 0.0)) > 0 > exact(math.nextafter(e0, math.inf))


def _schumann_exact(periods, instructions, guess):
    """The exact root of c1 = c2, with every corrected_j / I exact."""
    total = sum(p.failures for p in periods)
    exposure_sum = mp.fsum(mp.mpf(p.exposure) for p in periods)

    def objective(e0):
        residuals = [(e0 - p.corrected) / instructions for p in periods]
        c1 = total / mp.fsum(r * mp.mpf(p.exposure) for r, p in zip(residuals, periods))
        c2 = mp.fsum(p.failures / r for r, p in zip(residuals, periods)) / exposure_sum
        return c1 / c2 - 1

    return _exact_root(objective, guess)


@pytest.mark.parametrize("count", [5, 40, 300])
@pytest.mark.parametrize("seed", range(4))
def test_schumann_root_is_within_tolerance_of_the_exact_root(count, seed):
    instructions, corrected = 10_000, 10 * count
    schedule = [(float(j + 1), j * corrected // count, 1.0 + j % 7) for j in range(count)]
    periods = model_schumann.generate_periods(1.5 * corrected, 50_000.0, instructions, schedule, seed)
    fit = model_schumann.fit_mle(periods, instructions)
    root, kappa = _schumann_exact(periods, instructions, fit.e0_hat)
    assert _relative(fit.e0_hat, root) <= TOL * max(1.0, float(kappa))


@st.composite
def _drawn_periods(draw):
    """2 to 25 periods with non-decreasing corrected counts."""
    count = draw(st.integers(2, 25))
    steps = draw(st.lists(st.integers(0, 50), min_size=count, max_size=count))
    exposures = draw(st.lists(st.floats(0.01, 1e3), min_size=count, max_size=count))
    failures = draw(st.lists(st.integers(0, 60), min_size=count, max_size=count))
    return [
        DebugPeriod(float(j), corrected, exposure, n)
        for j, (corrected, exposure, n) in enumerate(zip(itertools.accumulate(steps), exposures, failures))
    ]


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(periods=_drawn_periods(), instructions=st.sampled_from([1, 10**3, 10**6]))
def test_schumann_root_of_drawn_periods_is_within_tolerance_of_the_exact_root(periods, instructions):
    try:
        fit = model_schumann.fit_mle(periods, instructions)
    except (EstimationError, DataError):  # a draw the fit rejects: draw another
        hypothesis.reject()
    root, kappa = _schumann_exact(periods, instructions, fit.e0_hat)
    assert _relative(fit.e0_hat, root) <= TOL * max(1.0, float(kappa))


def _weibull_exact(intervals, form, guess):
    """The exact root of G(m) / target - 1, with the target from the exact moments."""
    k = len(intervals)
    xs = [mp.mpf(x) for x in intervals]
    t_bar = mp.fsum(xs) / k
    ratio = mp.fsum((x - t_bar) ** 2 for x in xs) / k / t_bar**2
    target = ratio + 1 if form is model_weibull.MomentForm.CV_CORRECTED else ratio
    return _exact_root(lambda m: mp.gamma(1 + 2 / m) / mp.gamma(1 + 1 / m) ** 2 / target - 1, guess)


@pytest.mark.parametrize("form", list(model_weibull.MomentForm))
@pytest.mark.parametrize("shape", [0.4, 0.7, 0.9])
def test_weibull_shape_is_within_tolerance_of_the_exact_root(form, shape):
    """Both moment forms, on seeded samples of 10 to 1000 draws; shapes below
    one give a dispersion ratio above one, so the raw-ratio form has a root."""
    for seed, count in enumerate((10, 100, 1000)):
        intervals = (np.random.default_rng(seed).weibull(shape, count) * 3.0).tolist()
        fit = model_weibull.fit_moments(intervals, form)
        root, kappa = _weibull_exact(intervals, form, fit.m)
        assert _relative(fit.m, root) <= TOL * max(1.0, float(kappa)), (seed, count)


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(intervals=SMALL_SAMPLES, form=st.sampled_from(list(model_weibull.MomentForm)))
def test_weibull_shape_of_a_drawn_sample_is_within_tolerance_of_the_exact_root(intervals, form):
    try:
        fit = model_weibull.fit_moments(intervals, form)
    except (DegenerateSample, NoConvergence):
        return
    root, kappa = _weibull_exact(intervals, form, fit.m)
    assert _relative(fit.m, root) <= TOL * max(1.0, float(kappa))


def test_weibull_subnormal_sample_has_the_shape_of_its_exact_moments():
    """At the data's scale the squared deviations of these subnormal intervals
    underflowed to zero ("zero sample variance").  Their exact scale
    Gamma(1 + 1/m) / tbar lies past the largest float, so the fit is
    OutOfRange naming lam; the same intervals scaled up exactly by 2^1000
    fit the shape of the exact root."""
    intervals = [1e-310, 3e-310, 2e-310]
    with pytest.raises(OutOfRange, match="^lam = "):
        model_weibull.fit_moments(intervals)
    fit = model_weibull.fit_moments([math.ldexp(x, 1000) for x in intervals])
    root, kappa = _weibull_exact(intervals, model_weibull.MomentForm.CV_CORRECTED, fit.m)
    assert _relative(fit.m, root) <= TOL * max(1.0, float(kappa))
    t_bar = mp.fsum(mp.mpf(x) for x in intervals) / len(intervals)
    assert mp.gamma(1 + 1 / root) / t_bar > mp.mpf(sys.float_info.max)


def test_weibull_nearly_equal_sample_near_1e160_has_no_shape_in_range():
    """At the data's scale tbar^2 overflowed.  The exact dispersion ratio of
    these intervals is 2.5e-15, below G(20) - 1 = 0.0038, and G decreases,
    so neither moment equation has a root in [0.05, 20]: NoConvergence,
    naming the ratio.  The two intervals lie within a factor of two, so
    their deviations are exact and the reported ratio carries a few
    roundings."""
    intervals = [1e160, 1.0000001e160]
    xs = [mp.mpf(x) for x in intervals]
    t_bar = mp.fsum(xs) / 2
    ratio = mp.fsum((x - t_bar) ** 2 for x in xs) / 2 / t_bar**2
    assert ratio < mp.gamma(1 + mp.mpf(2) / 20) / mp.gamma(1 + mp.mpf(1) / 20) ** 2 - 1
    for form in model_weibull.MomentForm:
        with pytest.raises(NoConvergence) as info:
            model_weibull.fit_moments(intervals, form)
        assert _relative(float(str(info.value).split()[2]), ratio) <= 1e-15


def _discovery_exact(observations, guess):
    """The exact root in tau0 of the profiled error's slope, resid @ rate over |rate| |counts|."""
    taus = [mp.mpf(t) for t, _ in observations]
    counts = [mp.mpf(c) for _, c in observations]
    norm = mp.sqrt(mp.fsum(c * c for c in counts))

    def slope(tau0):
        xs = [t / tau0 for t in taus]
        growth = [-mp.expm1(-x) for x in xs]
        eps0 = mp.fsum(c * g for c, g in zip(counts, growth)) / mp.fsum(g * g for g in growth)
        rate = [x * mp.exp(-x) for x in xs]
        resid = mp.fsum((c - eps0 * g) * r for c, g, r in zip(counts, growth, rate))
        return resid / (mp.sqrt(mp.fsum(r * r for r in rate)) * norm)

    return _exact_root(slope, guess)


@pytest.mark.parametrize("seed", range(8))
def test_discovery_tau0_is_within_tolerance_of_the_exact_root(seed):
    """Seeded noisy discovery curves: each increment of the exact curve off by up to 10 %."""
    rng = np.random.default_rng(seed)
    tau0 = float(rng.uniform(0.5, 80.0))
    taus = np.sort(rng.uniform(0.2 * tau0, 4.0 * tau0, size=6))
    exact = float(rng.uniform(10.0, 1000.0)) * -np.expm1(-taus / tau0)
    counts = np.cumsum(np.diff(exact, prepend=0.0) * rng.uniform(0.9, 1.1, taus.size))
    observations = list(zip(taus.tolist(), counts.tolist()))
    _, fit_tau0 = debug_economics.fit_discovery_curve(observations, 1000)
    root, kappa = _discovery_exact(observations, fit_tau0)
    assert _relative(fit_tau0, root) <= DEFAULT_TOL_REL * max(1.0, float(kappa))


FAULTTOL_TOL = 1e-14  # the relative bracket width optimal_module_time hands the solver
# Beyond the benchmark's ranges the log form's terms reach about 1400, so
# its rounding moves t* by up to about 1e-13 relative.
FAULTTOL_FULL_RANGE_TOL = 2e-13
SUBNORMAL_ULP = 5e-324


def _full_range_value(rng, low=-1074, high=1024):
    """A positive float with a binary exponent drawn from [low, high)."""
    return math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(low, high)))


@pytest.mark.parametrize("seed", range(8))
def test_faulttol_t_star_is_within_tolerance_of_the_exact_root(seed):
    """Seeded plans with an interior optimum: the root of 2 lam t^2 exp(lam t) / a - 1.

    Then plans drawn over the whole float range, a fifth of them with a
    subnormal root: the boundary flag is g(T) <= 0 for the exact log form g,
    and an interior t* is within FAULTTOL_FULL_RANGE_TOL of the exact root
    (2 / lam) W(sqrt(a lam / 8)), or within one ulp where that is wider.
    Only a success probability exp(-lam t*) that underflows may raise.
    """
    rng = np.random.default_rng(seed)
    total, lam = float(rng.uniform(10.0, 1e4)), float(10.0 ** rng.uniform(-6.0, -1.0))
    overhead = float(rng.uniform(1e-3, 0.5)) * 2.0 * lam * total**2 * np.exp(min(lam * total, 50.0))
    plan = fault_tolerance.optimal_module_time(fault_tolerance.DualRunConfig(total, overhead, lam))
    assert not plan.boundary
    a, lam = mp.mpf(overhead), mp.mpf(lam)
    root, kappa = _exact_root(lambda t: 2 * lam * t * t * mp.exp(lam * t) / a - 1, plan.t_star)
    assert _relative(plan.t_star, root) <= FAULTTOL_TOL * max(1.0, float(kappa))

    for draw in range(500):
        if draw % 5:
            total, overhead, lam = (_full_range_value(rng) for _ in range(3))
        else:
            total, overhead, lam = _full_range_value(rng), _full_range_value(rng, high=-997), _full_range_value(rng, 1014)
        config = fault_tolerance.DualRunConfig(total, overhead, lam)
        try:
            plan = fault_tolerance.optimal_module_time(config)
        except OutOfRange as error:
            assert "underflows a float" in str(error), config
            continue
        with mp.workdps(50):
            T, a, lam = mp.mpf(total), mp.mpf(overhead), mp.mpf(lam)
            assert plan.boundary == (mp.log(2 * lam / a) + 2 * mp.log(T) + lam * T <= 0), config
            if plan.boundary:
                assert plan.t_star == total
                continue
            root = 2 / lam * mp.lambertw(mp.sqrt(a * lam / 8)).real
            bound = max(FAULTTOL_FULL_RANGE_TOL * root, SUBNORMAL_ULP if root < sys.float_info.min else 0)
            assert abs(mp.mpf(plan.t_star) - root) <= bound, config
