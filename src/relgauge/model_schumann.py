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
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import (
    DegenerateGamma,
    DomainError,
    NegativeEstimate,
    NoConvergence,
    OutOfRange,
    ResidualNonPositive,
    SingularInformation,
    Underdetermined,
)
from .failure_data import DebugPeriod, DebugPeriods, read_columns
from .numerics import find_root_bracketed, fsum_array, gaussian_intervals, scan_bracket, seeded_rng

_RESIDUAL_LIMIT = 1e-9
# The largest mean numpy's Poisson sampler accepts (its POISSON_LAM_MAX),
# written with the int64 maximum so that importing this module loads no numpy.
_POISSON_MEAN_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)


@dataclass(frozen=True)
class SchumannFit:
    """Fitted error content and detection coefficient.

    ``e0_hat`` is the estimated initial error count (continuous), ``c_hat``
    the per-residual failure intensity.  Variance fields are populated by
    :func:`covariance`.
    """

    e0_hat: float
    c_hat: float
    instructions: int
    var_e0: float | None = None
    var_c: float | None = None
    rho: float | None = None
    # The stationarity residuals that fit_mle checked at this root.
    residuals: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
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


def _c_estimates(periods: DebugPeriods, instructions: int) -> Callable[[float], tuple[float, float]]:
    """e0 -> the two likelihood expressions for c, from exposures and from rates.

    Each call sums, with fsum, two arrays formed from the residuals
    e0/I - corrected_j/I; OutOfRange when an estimate is not a positive finite float.
    """
    import numpy as np

    corrected = np.array([n / instructions for n in periods.corrected], dtype=float)
    exposure = np.array(periods.exposure, dtype=float)
    failures = np.array(periods.failures, dtype=float)
    total = sum(periods.failures)
    exposure_sum = fsum_array(exposure)

    def estimates(e0: float) -> tuple[float, float]:
        residual = e0 / instructions - corrected
        with np.errstate(over="ignore"):  # an infinite term makes its sum infinite
            exposed = fsum_array(residual * exposure)
            rates = fsum_array(failures / residual)
        c = (total / exposed if exposed else math.inf), rates / exposure_sum
        if not (0.0 < min(c) and max(c) < math.inf):
            raise OutOfRange(f"an estimate of c at e0 = {e0} is not a positive finite float")
        return c

    return estimates


def stationarity_residuals(fit: SchumannFit, periods: Sequence[DebugPeriod]) -> tuple[float, float]:
    """Relative residuals of the two likelihood expressions for c at the fit."""
    c1, c2 = _c_estimates(DebugPeriods.of(periods), fit.instructions)(fit.e0_hat)
    return abs(c1 / fit.c_hat - 1.0), abs(c2 / fit.c_hat - 1.0)


def _check_periods(periods: DebugPeriods, instructions: int) -> None:
    if not (isinstance(instructions, int) and instructions >= 1):
        raise DomainError(f"instructions must be an integer >= 1, got {instructions}")
    if len(periods) < 2:
        raise Underdetermined(f"need at least 2 debugging periods, got {len(periods)}")
    if sum(periods.failures) < 2:
        raise DomainError("need at least 2 failures overall to fit two parameters")
    if len(set(periods.corrected)) < 2:
        raise Underdetermined(
            "all periods share one corrected count, so the error total is unidentifiable"
        )


def fit_mle(periods: Sequence[DebugPeriod], instructions: int) -> SchumannFit:
    """Maximum-likelihood (e0, c) over any number of debugging periods.

    The two likelihood expressions for c,

        c = sum(n_j) / sum((e0/I - corrected_j/I) * H_j)
        c = sum(n_j / (e0/I - corrected_j/I)) / sum(H_j),

    agree only at the stationary e0, which is located by scanning upward
    from the feasibility boundary (e0 slightly above the largest corrected
    count) at offsets that grow 16-fold, then root-finding on the bracketed
    sign change.  Both expressions come from one closure that builds the
    per-period arrays once, so each evaluation is one O(P) pass.  Raises
    OutOfRange when an estimate of c leaves the float range, and
    NoConvergence when no sign change appears within 2^60 first offsets,
    the signature of data without reliability growth.
    """
    periods = DebugPeriods.of(periods)
    _check_periods(periods, instructions)
    estimates = _c_estimates(periods, instructions)

    def objective(e0: float) -> float:
        c1, c2 = estimates(e0)
        return c1 / c2 - 1.0

    bracket = scan_bracket(objective, float(max(periods.corrected)))
    if bracket is None:
        raise NoConvergence(
            "the likelihood stationarity condition has no root above the feasibility "
            "boundary within 2^60 scan offsets; the periods show no reliability growth"
        )
    e0 = find_root_bracketed(objective, bracket)
    c, c2 = estimates(e0)
    # c is the exposure-form estimate itself, so its residual is exactly 0.
    fit = SchumannFit(e0_hat=e0, c_hat=c, instructions=instructions, residuals=(0.0, abs(c2 / c - 1.0)))
    if max(fit.residuals) > _RESIDUAL_LIMIT:
        raise NoConvergence(
            f"stationarity residuals exceed {_RESIDUAL_LIMIT} at the located root"
        )
    return fit


def covariance(fit: SchumannFit, periods: Sequence[DebugPeriod]) -> SchumannFit:
    """Attach asymptotic variances and correlation from the observed information.

    The information matrix in (c, e0) order is

        [[sum(n_j)/c^2,           sum(H_j)/I        ],
         [sum(H_j)/I,             sum(n_j/r_j^2)/I^2]]

    with r_j the per-instruction residual in period j.  Its inverse gives
    var(c) = a22/det and var(e0) = a11/det; the correlation magnitude is
    ``sum(n_j/r_j) / sqrt(sum(n_j) * sum(n_j/r_j^2))``.  Raises
    SingularInformation when the determinant is not positive and finite,
    and when a square overflows or underflows a float, so that the entries
    cannot be formed.
    """
    if len(periods) < 2:
        raise SingularInformation("a single period carries rank-1 information")
    import numpy as np

    periods = DebugPeriods.of(periods)
    I = fit.instructions
    residuals = fit.e0_hat / I - np.array([c / I for c in periods.corrected], dtype=float)
    if not residuals.min() > 0.0:
        corrected = next(c for c, r in zip(periods.corrected, residuals) if r <= 0.0)
        raise ResidualNonPositive(
            f"period with corrected count {corrected} has non-positive residual at the fit"
        )
    total = sum(periods.failures)
    # float_power calls the C library's pow, as Python's ** does, so each
    # square keeps the bits of the scalar expression; a term n/r^2 that
    # overflows makes S2 infinite, which the determinant check rejects.
    with np.errstate(over="ignore"):
        squares = np.float_power(residuals, 2)
        if not (squares.min() > 0.0 and squares.max() < math.inf):
            raise SingularInformation("a squared per-instruction residual is not a positive finite float")
        try:
            failures = np.array(periods.failures, dtype=float)
            s2 = fsum_array(failures / squares)
            a11 = total / fit.c_hat**2
            a22 = s2 / I**2
        except (ZeroDivisionError, OverflowError) as exc:
            # A count, c^2 or I^2 beyond a float's range: the entries cannot be formed in floats.
            raise SingularInformation(f"an information entry is not a finite float: {exc}") from None
        rho_numerator = fsum_array(failures / residuals)
    a12 = fsum_array(np.array(periods.exposure, dtype=float)) / I
    det = a11 * a22 - a12 * a12
    if not 0.0 < det < math.inf:
        raise SingularInformation(
            f"information determinant a11*a22 - a12^2 = {det} is not positive and finite"
        )
    rho = rho_numerator / math.sqrt(total * s2)
    return replace(fit, var_c=a22 / det, var_e0=a11 / det, rho=rho)


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
    mean ``c * (e0/I - corrected/I) * exposure``; deterministic per seed.
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
    rng = seeded_rng(seed)
    periods = []
    for tau, corrected, exposure in schedule:
        mean = c * (e0 / instructions - corrected / instructions) * exposure
        if not mean <= _POISSON_MEAN_MAX:
            raise OutOfRange(
                f"Poisson mean {mean} for the period at corrected count {corrected} "
                f"exceeds the sampler's limit {_POISSON_MEAN_MAX:.6g}"
            )
        count = int(rng.poisson(mean))
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
