"""Exponential reliability-growth model over debugging periods (Schumann model).

The program starts with E0 latent errors spread over I machine
instructions.  After debugging has corrected ``corrected`` of them, the
per-instruction residual is ``r = E0/I - corrected/I`` and failures arrive
at intensity ``C * r`` during test execution.  Reliability over an
exposure ``t`` is ``exp(-C * r * t)``.

Two estimation routes are provided: a closed form from two debugging
periods, and a maximum-likelihood fit over any number of periods with
asymptotic variances, correlation, and Gaussian confidence intervals from
the observed information matrix.  A seeded period generator supports
round-trip testing.  Reliability growth over debugging time, with residual
errors decaying exponentially, lives in :mod:`debug_economics`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DegenerateGamma, DomainError, NegativeEstimate, OutOfRange, ResidualNonPositive
from .errors import SingularInformation, Underdetermined
from .failure_data import DebugPeriod, DebugPeriods, read_columns
from .numerics import GrowthLikelihood, at_data_scale, find_root_bracketed, floats, fsum_array, gaussian_intervals
from .numerics import int_bounds, int_ratios, int_sum, interval_array, power_sum
from .record import Record

# The largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX),
# written with the int64 maximum; draws.poisson_draw keeps to it too.
_POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


class SchumannFit(Record):
    """Fitted error content and detection coefficient.

    ``e0_hat`` is the estimated initial error count (continuous), ``c_hat``
    the per-residual failure intensity.  Variance fields are populated by
    :func:`covariance`.  ``residuals`` are the stationarity residuals that
    fit_mle checked at this root; they take no part in ``==`` or ``hash``.
    """

    _fields = ("e0_hat", "c_hat", "instructions", "var_e0", "var_c", "rho", "residuals")
    _defaults = {"var_e0": None, "var_c": None, "rho": None, "residuals": None}
    _uncompared = ("residuals",)

    def _check(self) -> None:
        if not (isinstance(self.instructions, int) and self.instructions >= 1):
            raise DomainError(f"instructions must be an integer >= 1, got {self.instructions}")
        if not (math.isfinite(self.e0_hat) and self.e0_hat > 0.0):
            raise DomainError(f"e0_hat must be positive, got {self.e0_hat}")
        if not (math.isfinite(self.c_hat) and self.c_hat > 0.0):
            raise DomainError(f"c_hat must be positive, got {self.c_hat}")


def _residual_fraction(fit: SchumannFit, eps_b: float) -> float:
    if not (math.isfinite(eps_b) and eps_b >= 0.0):
        raise DomainError(f"corrected fraction must be non-negative, got {eps_b}")
    residual = fit.e0_hat / fit.instructions - eps_b
    if residual <= 0.0:
        raise ResidualNonPositive(
            f"corrected fraction {eps_b} leaves no residual errors "
            f"(estimate {fit.e0_hat / fit.instructions} per instruction)"
        )
    return residual


def reliability(fit: SchumannFit, eps_b: float, t: float) -> float:
    """Probability of faultless operation for exposure ``t`` at corrected fraction ``eps_b``."""
    residual = _residual_fraction(fit, eps_b)
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"exposure must be finite and non-negative, got {t}")
    return math.exp(-fit.c_hat * residual * t)


def mttf(fit: SchumannFit, eps_b: float) -> float:
    """Mean time to failure at corrected fraction ``eps_b``."""
    residual = _residual_fraction(fit, eps_b)
    rate = fit.c_hat * residual
    if rate == 0.0:
        raise OutOfRange(f"the failure rate c * r = {fit.c_hat} * {residual} underflows to 0")
    if rate == math.inf:
        raise OutOfRange(f"the failure rate c * r = {fit.c_hat} * {residual} overflows a float")
    return 1.0 / rate


def fit_two_period(
    t_hat_1: float,
    t_hat_2: float,
    eps_b_1: float,
    eps_b_2: float,
    instructions: int,
) -> tuple[float, float]:
    """Closed-form (e0, c) from per-failure exposures of two debugging periods.

    ``t_hat_j`` is the mean exposure per failure observed in period j and
    ``eps_b_j`` the corrected fraction in force during it.  With
    ``gamma = t_hat_1 / t_hat_2``:

        e0 = I * (gamma * eps_b_1 - eps_b_2) / (gamma - 1)
        c  = 1 / (t_hat_1 * (e0 / I - eps_b_1))
    """
    if not (isinstance(instructions, int) and instructions >= 1):
        raise DomainError(f"instructions must be an integer >= 1, got {instructions}")
    for name, value in (("t_hat_1", t_hat_1), ("t_hat_2", t_hat_2)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive, got {value}")
    if not (0.0 <= eps_b_1 < eps_b_2):
        raise DomainError(
            f"corrected fractions must satisfy 0 <= first < second, got {eps_b_1}, {eps_b_2}"
        )
    gamma = t_hat_1 / t_hat_2
    if gamma == 1.0:
        raise DegenerateGamma(
            "equal per-failure exposures in both periods leave the error count unidentifiable"
        )
    e0 = instructions * (gamma * eps_b_1 - eps_b_2) / (gamma - 1.0)
    if e0 <= instructions * eps_b_2:
        raise NegativeEstimate(
            f"estimated error count {e0} does not exceed the corrected count "
            f"{instructions * eps_b_2}; inputs are inconsistent with growth"
        )
    c = 1.0 / (t_hat_1 * (e0 / instructions - eps_b_1))
    return e0, c


def fit_two_period_from_totals(
    exposure_1: float,
    failures_1: int,
    exposure_2: float,
    failures_2: int,
    eps_b_1: float,
    eps_b_2: float,
    instructions: int,
) -> tuple[float, float]:
    """Same closed form, with per-failure exposures formed as total/count."""
    for name, value in (("failures_1", failures_1), ("failures_2", failures_2)):
        if not (isinstance(value, int) and value >= 1):
            raise DomainError(f"{name} must be an integer >= 1, got {value}")
    for name, value in (("exposure_1", exposure_1), ("exposure_2", exposure_2)):
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive, got {value}")
    return fit_two_period(
        exposure_1 / failures_1, exposure_2 / failures_2, eps_b_1, eps_b_2, instructions
    )


def stationarity_residuals(fit: SchumannFit, periods: Sequence[DebugPeriod]) -> tuple[float, float]:
    """Relative residuals of c1 = sum(n_j) / sum(r_j H_j) and c2 = sum(n_j / r_j) / sum(H_j) at the fit.

    r_j = e0/I - corrected_j/I; each sum is exactly rounded, apart from
    :func:`fit_mle`'s likelihood.  OutOfRange when an estimate is not a
    positive finite float, which an infinite or NaN term makes it.
    """
    periods = DebugPeriods.of(periods)
    scaled = fit.e0_hat / fit.instructions
    corrected = int_ratios(periods.corrected, fit.instructions)
    exposure = floats(periods.exposure)
    exposed = power_sum(scaled, corrected, 1, exposure)
    c1 = int_sum(periods.failures) / exposed if exposed else math.inf
    c2 = power_sum(scaled, corrected, -1, floats(periods.failures)) / fsum_array(exposure)
    # Each on its own, so that a NaN estimate fails too.
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise OutOfRange(f"an estimate of c at e0 = {fit.e0_hat} is not a positive finite float")
    return abs(c1 / fit.c_hat - 1.0), abs(c2 / fit.c_hat - 1.0)


def _check_periods(periods: DebugPeriods, instructions: int) -> None:
    if not (isinstance(instructions, int) and instructions >= 1):
        raise DomainError(f"instructions must be an integer >= 1, got {instructions}")
    if len(periods) < 2:
        raise Underdetermined(f"need at least 2 debugging periods, got {len(periods)}")
    if int_sum(periods.failures) < 2:
        raise DomainError("need at least 2 failures overall to fit two parameters")
    least, largest = int_bounds(periods.corrected)
    if least == largest:
        raise Underdetermined("all periods share one corrected count, so the error total is unidentifiable")


def fit_mle(periods: Sequence[DebugPeriod], instructions: int) -> SchumannFit:
    """Maximum-likelihood (e0, c) over any number of debugging periods.

    With A = sum(H_j), B = sum(corrected_j H_j) and N = sum(n_j), e0 solves
    sum_j n_j / (e0 - corrected_j) * (e0 - B/A) / N = 1 above the largest
    corrected count, and c = I N / (e0 A - B): :class:`numerics.GrowthLikelihood`
    with rate c / I, one exactly rounded O(P) sum per evaluation.
    NoGrowthEvidence, before any scan, unless B/A exceeds the failure-weighted
    mean corrected count and lies below the largest corrected count with a
    failure; NoConvergence when the scan misses the root or the
    residual fails its 1e-9 check; OutOfRange when c leaves the float range.
    """
    periods = DebugPeriods.of(periods)
    _check_periods(periods, instructions)
    h, e = interval_array(periods.exposure)
    likelihood = GrowthLikelihood(h, periods.corrected, periods.failures)
    e0, rate, residual = likelihood.fit(find_root_bracketed, likelihood.residual)
    size, f = math.frexp(instructions)  # I = size * 2^f, so I * rate cannot overflow at unit scale
    c = at_data_scale(rate * size, e - f, "c_hat")
    # c is the exposure-form estimate itself, so its residual is exactly 0.
    return SchumannFit(e0_hat=e0, c_hat=c, instructions=instructions, residuals=(0.0, abs(residual)))


def covariance(fit: SchumannFit, periods: Sequence[DebugPeriod]) -> SchumannFit:
    """Attach asymptotic variances and correlation from the observed information at (e0, c / I).

    :meth:`numerics.GrowthLikelihood.information` forms var(c) at unit scale
    and scales it back once, so it is OutOfRange only when it leaves the
    float range itself.  SingularInformation for one period, whose
    information has rank 1, or a determinant that is not positive and
    finite; ResidualNonPositive when a corrected count is not below e0.
    """
    if len(periods) < 2:
        raise SingularInformation("a single period carries rank-1 information")
    periods = DebugPeriods.of(periods)
    if int_bounds(periods.corrected)[1] >= fit.e0_hat:  # an int and a float compare exactly
        exhausted = next(p.corrected for p in periods if p.corrected >= fit.e0_hat)
        raise ResidualNonPositive(
            f"period with corrected count {exhausted} has non-positive residual at the fit"
        )
    h, e = interval_array(periods.exposure)
    size, f = math.frexp(fit.instructions)
    likelihood = GrowthLikelihood(h, periods.corrected, periods.failures)
    var_e0, var_rate, rho = likelihood.information(fit.e0_hat, math.ldexp(fit.c_hat, e - f) / size)
    var_c = at_data_scale(var_rate * size * size, 2 * (e - f), "var_c")
    return fit.replace(var_e0=var_e0, var_c=var_c, rho=rho)


def confidence_intervals(fit: SchumannFit, level: float = 0.95) -> dict[str, tuple[float, float]]:
    """Two-sided Gaussian confidence intervals for e0 and c."""
    if fit.var_e0 is None or fit.var_c is None:
        raise DomainError("confidence intervals need variances; run covariance first")
    return gaussian_intervals(level, e0=(fit.e0_hat, fit.var_e0), c=(fit.c_hat, fit.var_c))


def report(fit: SchumannFit, level: float, k: int) -> dict:
    """The ``fit schumann`` report of a fit with covariance to ``k`` periods, its intervals at ``level``."""
    return {
        "model": "schumann",
        "e0": fit.e0_hat,
        "e0_rounded": round(fit.e0_hat),
        "c": fit.c_hat,
        "instructions": fit.instructions,
        "var_e0": fit.var_e0,
        "var_c": fit.var_c,
        "rho": fit.rho,
        "confidence": level,
        "ci": confidence_intervals(fit, level),
        "residuals": fit.residuals,
        "k": k,
    }


def generate_periods(
    e0: float,
    c: float,
    instructions: int,
    schedule: Sequence[tuple[float, int, float]],
    seed: int,
) -> list[DebugPeriod]:
    """Draw synthetic failure counts for a debugging schedule.

    ``schedule`` lists (tau, corrected, exposure) triples with non-decreasing
    corrected counts not exceeding ``e0``.  Failure counts are Poisson with
    mean ``c * (e0/I - corrected/I) * exposure``, drawn as numpy's
    ``default_rng(seed).poisson`` draws them, without loading numpy.
    """
    if not (math.isfinite(e0) and e0 > 0.0 and math.isfinite(c) and c > 0.0):
        raise DomainError(f"model parameters must be positive, got e0={e0}, c={c}")
    if not (isinstance(instructions, int) and instructions >= 1):
        raise DomainError(f"instructions must be an integer >= 1, got {instructions}")
    previous = 0
    for tau, corrected, exposure in schedule:
        if not (isinstance(corrected, int) and previous <= corrected <= e0):
            raise DomainError(
                f"corrected counts must be non-decreasing integers bounded by e0={e0}, got {corrected}"
            )
        DebugPeriod(tau, corrected, exposure, 0)  # raises for a bad tau or exposure
        previous = corrected
    from .draws import poisson_draw, seeded_doubles  # here, so a call that draws nothing never compiles them

    doubles = seeded_doubles(seed)
    periods = []
    for tau, corrected, exposure in schedule:
        mean = c * (e0 / instructions - corrected / instructions) * exposure
        if not mean <= _POISSON_MEAN_MAX:
            raise OutOfRange(
                f"Poisson mean {mean} for the period at corrected count {corrected} "
                f"exceeds the sampler's limit {_POISSON_MEAN_MAX:.6g}"
            )
        count = poisson_draw(doubles, mean)
        periods.append(DebugPeriod(tau=tau, corrected=corrected, exposure=exposure, failures=count))
    return periods


def parse_schedule(text: str) -> list[tuple[float, int, float]]:
    """Parse ``tau,corrected,exposure`` CSV text into generator schedule triples."""
    columns = (("tau", float), ("corrected", int), ("exposure", float))
    return read_columns(text, columns, _schedule)


def _schedule(rows: Sequence[int], table: list[list]) -> list[tuple[float, int, float]]:
    schedule = list(zip(*table))
    for row_number, (tau, _, exposure) in zip(rows, schedule):
        if not (math.isfinite(tau) and tau >= 0.0):
            raise DomainError(f"row {row_number}: tau must be non-negative, got {tau}")
        if not (math.isfinite(exposure) and exposure > 0.0):
            raise DomainError(f"row {row_number}: exposure must be positive, got {exposure}")
    return schedule
