"""Jelinski-Moranda model: stepwise intensity over inter-failure intervals.

Between failures i-1 and i the program still contains ``e0 - i + 1`` of
its original ``e0`` errors and fails at intensity ``k_jm * (e0 - i + 1)``.
Fitting maximizes the likelihood of the observed intervals; the estimate
exists only when early intervals are shorter on average than later ones,
and the fitter reports the absence of that trend as a first-class outcome
(NoGrowthEvidence) rather than a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import (
    DomainError,
    NoConvergence,
    NoGrowthEvidence,
    OutOfRange,
    ResidualNonPositive,
    SingularInformation,
    TooFewIntervals,
)
from .numerics import at_data_scale, find_root_bracketed, fsum_array, gaussian_intervals
from .numerics import interval_array, pole_sum, scan_bracket, seeded_rng

_RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class JmFit:
    """Fitted error count and per-error intensity, with optional uncertainty."""

    e0_hat: float
    k_hat: float
    k_obs: int
    var_e0: float | None = None
    var_k: float | None = None
    rho: float | None = None
    # The stationarity residual that fit_mle checked at this root.
    residual: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.k_obs, int) and self.k_obs >= 1):
            raise DomainError(f"k_obs must be an integer >= 1, got {self.k_obs}")
        if not (math.isfinite(self.e0_hat) and self.e0_hat > self.k_obs - 1):
            raise DomainError(
                f"e0_hat must exceed k_obs - 1 = {self.k_obs - 1}, got {self.e0_hat}"
            )
        if not (math.isfinite(self.k_hat) and self.k_hat > 0.0):
            raise DomainError(f"k_hat must be positive, got {self.k_hat}")


def _residual_count(e0: float, i: int) -> float:
    if not (isinstance(i, int) and i >= 1):
        raise DomainError(f"failure index must be an integer >= 1, got {i}")
    residual = e0 - i + 1
    if residual <= 0.0:
        raise ResidualNonPositive(
            f"no residual errors at failure index {i} for e0 = {e0}"
        )
    return residual


def intensity(e0: float, k_jm: float, i: int) -> float:
    """Failure intensity while waiting for failure ``i``: k_jm * (e0 - i + 1)."""
    if not (math.isfinite(k_jm) and k_jm > 0.0):
        raise DomainError(f"k_jm must be positive, got {k_jm}")
    return k_jm * _residual_count(e0, i)


def reliability(e0: float, k_jm: float, i: int, dt: float) -> float:
    """Probability of surviving ``dt`` beyond failure i-1 without failure i."""
    rate = intensity(e0, k_jm, i)
    if not (math.isfinite(dt) and dt >= 0.0):
        raise DomainError(f"dt must be finite and non-negative, got {dt}")
    return math.exp(-rate * dt)


def stationarity_residual(e0: float, k: int, beta: float) -> float:
    """Relative defect of the likelihood stationarity condition at ``e0``.

    Zero exactly when sum(1/(e0 - i + 1)) equals k/(e0 - beta), beta = B/A.
    The sum is taken term by term, so this is an O(k) check independent of
    the O(1) :func:`numerics.pole_sum` that :func:`fit_mle`'s objective uses.
    """
    import numpy as np

    with np.errstate(divide="ignore"):  # the sum is infinite at a pole
        lhs = fsum_array(1.0 / (e0 - np.arange(1, k + 1) + 1))
    return lhs * (e0 - beta) / k - 1.0


def fit_mle(intervals: Sequence[float]) -> JmFit:
    """Maximum-likelihood (e0, k_jm) from ordered inter-failure intervals.

    With A = sum(x_i), B = sum((i-1) * x_i) and beta = B/A, the stationary
    e0 solves

        sum_{i=1..k} 1/(e0 - i + 1) * (e0 - beta) / k = 1

    and then k_hat = k / (e0 * A - B).  A and B are summed once, over the
    intervals at unit scale (:func:`numerics.interval_array`); the sum is
    :func:`numerics.pole_sum`, so each objective evaluation is O(1) and a
    fit costs one O(k) pass for the sums plus one for the final
    :func:`stationarity_residual` check.  That residual must be within
    1e-9, or change sign between the floats next to e0 where one ulp moves
    it by more (roots within about 1e-7 of the pole).  The root is
    bracketed at offsets growing 16-fold above the pole at e0 = k - 1.  A
    finite root exists only when beta > (k-1)/2, i.e. when later intervals
    are longer.  That is tested before the scan, which on the threshold
    would bracket the O(1) objective's rounding to zero far above the pole;
    NoGrowthEvidence carries the diagnostic.  NoConvergence when the scan
    misses the root.
    OutOfRange when k_hat leaves the float range.
    """
    import numpy as np

    x, e = interval_array(intervals)
    k = len(x)
    if k < 2:
        raise TooFewIntervals(f"need at least 2 intervals to fit two parameters, got {k}")
    a = fsum_array(x)
    b = fsum_array(np.arange(k, dtype=float) * x)
    beta = b / a

    threshold = (k - 1) / 2.0
    if beta <= threshold:
        raise NoGrowthEvidence(
            "the likelihood has no finite maximizer: early intervals are not shorter "
            f"on average (interval-weighted mean index {beta:.6g} vs threshold {threshold:.6g})",
            diagnostic={"b_over_a": beta, "threshold": threshold},
        )

    def objective(e0: float) -> float:
        return pole_sum(e0, k) * (e0 - beta) / k - 1.0

    bracket = scan_bracket(objective, float(k - 1))
    if bracket is None:
        raise NoConvergence(
            f"interval-weighted mean index {beta:.17g} exceeds threshold {threshold:.6g}, but the "
            "stationarity condition changes sign nowhere in the scanned range, from 1e-9 to "
            f"2^60 * 1e-9 times {max(k - 1, 1)} above the pole at e0 = {k - 1}"
        )
    e0 = find_root_bracketed(objective, bracket)
    # The bracket keeps e0 above k - 1 >= B/A by far more than rounding, so e0 * A > B.
    k_hat = at_data_scale(k / (e0 * a - b), e, "k_hat")
    residual = stationarity_residual(e0, k, beta)
    if abs(residual) > _RESIDUAL_LIMIT:
        sides = [stationarity_residual(math.nextafter(e0, to), k, beta) for to in (-math.inf, math.inf)]
        if min(sides) > 0.0 or max(sides) < 0.0:
            raise NoConvergence(
                f"stationarity residual {residual:.3g} at the located root e0 = {e0!r} exceeds "
                f"{_RESIDUAL_LIMIT} and keeps its sign at the floats next to it"
            )
    return JmFit(e0_hat=e0, k_hat=k_hat, k_obs=k, residual=residual)


def covariance(fit: JmFit, intervals: Sequence[float]) -> JmFit:
    """Attach asymptotic variances and correlation to a fit.

    With S2 = sum(1/(e0 - i + 1)^2) and A = sum(x_i):

        var(e0) = k / (k*S2 - A^2*k_hat^2)
        var(k)  = S2 * k_hat^2 / (k*S2 - A^2*k_hat^2)
        rho     = A * k_hat / sqrt(k * S2)

    var(k) is formed from k_hat for the intervals at unit scale and scaled
    back once, so it is OutOfRange only when it leaves the float range
    itself.  Raises SingularInformation when the denominator is not
    positive, which includes every single-interval fit.
    """
    import numpy as np

    x, e = interval_array(intervals)
    if len(x) != fit.k_obs:
        raise DomainError(
            f"fit was made from {fit.k_obs} intervals but {len(x)} were supplied"
        )
    k = fit.k_obs
    k_unit = math.ldexp(fit.k_hat, e)  # k_hat for the intervals at unit scale
    a_k = fsum_array(x) * k_unit  # A * k_hat, from A at unit scale
    # float_power calls the C library's pow, as Python's ** does, so each
    # term keeps the bits of the scalar expression.  A square that overflows
    # makes its term 0; one that underflows to 0 makes S2 infinite, which
    # the determinant check below rejects.
    with np.errstate(over="ignore", divide="ignore"):
        s2 = fsum_array(1.0 / np.float_power(fit.e0_hat - np.arange(1, k + 1) + 1, 2))
    denom = k * s2 - a_k**2
    if not 0.0 < denom < math.inf:
        raise SingularInformation(
            f"information determinant k*S2 - (A*k_hat)^2 = {denom} is not positive and finite"
        )
    return replace(
        fit,
        var_e0=k / denom,
        var_k=at_data_scale(s2 * k_unit**2 / denom, 2 * e, "var_k"),
        rho=a_k / math.sqrt(k * s2),
    )


def confidence_intervals(fit: JmFit, level: float = 0.95) -> dict[str, tuple[float, float]]:
    """Two-sided Gaussian confidence intervals for e0 and k_jm."""
    if fit.var_e0 is None or fit.var_k is None:
        raise DomainError("confidence intervals need variances; run covariance first")
    return gaussian_intervals(level, e0=(fit.e0_hat, fit.var_e0), k=(fit.k_hat, fit.var_k))


def report(fit: JmFit, level: float) -> dict:
    """The ``fit jm`` report of a fit with covariance, its intervals at ``level``."""
    return {
        "model": "jm",
        "e0": fit.e0_hat,
        "e0_rounded": round(fit.e0_hat),
        "k": fit.k_hat,
        "k_obs": fit.k_obs,
        "var_e0": fit.var_e0,
        "var_k": fit.var_k,
        "rho": fit.rho,
        "confidence": level,
        "ci": confidence_intervals(fit, level),
        "residuals": [abs(fit.residual)],
    }


def generate_intervals(e0: float, k_jm: float, count: int, seed: int) -> list[float]:
    """Draw ``count`` intervals with exponential law of rate k_jm * (e0 - i + 1).

    Inverse-CDF sampling on a seeded uniform stream; deterministic per seed.
    """
    if not (math.isfinite(e0) and e0 > 0.0 and math.isfinite(k_jm) and k_jm > 0.0):
        raise DomainError(f"model parameters must be positive, got e0={e0}, k_jm={k_jm}")
    if not (isinstance(count, int) and count >= 0):
        raise DomainError(f"count must be a non-negative integer, got {count}")
    if count > e0:
        raise DomainError(f"cannot observe {count} failures from e0 = {e0} errors")
    if count == 0:
        return []
    import numpy as np

    u = seeded_rng(seed).random(count)
    # A rate or a draw may overflow or underflow for extreme e0 or k_jm;
    # errstate is context-local, so this stays silent and thread-safe.
    with np.errstate(all="ignore"):
        rates = k_jm * (e0 - np.arange(count))
        draws = -np.log1p(-u) / rates
    if not (np.isfinite(rates).all() and np.isfinite(draws).all()):
        raise OutOfRange(
            f"a failure rate or interval is not a finite float for e0 {e0} and k_jm {k_jm}"
        )
    # A uniform draw of exactly 0.0 would yield a zero interval, which the
    # likelihood cannot accept; clip to the smallest positive normal float.
    draws = np.maximum(draws, np.finfo(float).tiny)
    return draws.tolist()
