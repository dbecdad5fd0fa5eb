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
import sys
from collections.abc import Sequence

from .errors import DomainError, OutOfRange, ResidualNonPositive, TooFewIntervals
from .numerics import GrowthLikelihood, at_data_scale, find_root_bracketed, gaussian_intervals, index
from .numerics import interval_array, power_sum, quotients
from .record import Record


class JmFit(Record):
    """Fitted error count and per-error intensity, with optional uncertainty.

    ``residual`` is the stationarity residual that fit_mle checked at this
    root; it takes no part in ``==`` or ``hash``.
    """

    _fields = ("e0_hat", "k_hat", "k_obs", "var_e0", "var_k", "rho", "residual")
    _defaults = {"var_e0": None, "var_k": None, "rho": None, "residual": None}
    _uncompared = ("residual",)

    def _check(self) -> None:
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
    if not math.isfinite(e0):
        raise DomainError(f"e0 must be finite, got {e0}")
    residual = e0 - i + 1
    if residual <= 0.0:
        raise ResidualNonPositive(
            f"no residual errors at failure index {i} for e0 = {e0}"
        )
    return residual


def _rate(e0: float, k_jm: float, i: int) -> float:
    if not (math.isfinite(k_jm) and k_jm > 0.0):
        raise DomainError(f"k_jm must be positive, got {k_jm}")
    return k_jm * _residual_count(e0, i)


def intensity(e0: float, k_jm: float, i: int) -> float:
    """Failure intensity while waiting for failure ``i``: k_jm * (e0 - i + 1).

    OutOfRange when the product of e0 - i + 1 and k_jm overflows a float.
    """
    rate = _rate(e0, k_jm, i)
    if rate == math.inf:
        raise OutOfRange(
            f"the intensity k * (e0 - i + 1) = {k_jm} * {e0 - i + 1} overflows a float"
        )
    return rate


def reliability(e0: float, k_jm: float, i: int, dt: float) -> float:
    """Probability of surviving ``dt`` beyond failure i-1 without failure i."""
    rate = _rate(e0, k_jm, i)  # an overflowing rate gives 0 for any dt > 0
    if not (math.isfinite(dt) and dt >= 0.0):
        raise DomainError(f"dt must be finite and non-negative, got {dt}")
    return math.exp(-rate * dt) if dt > 0.0 else 1.0  # surviving no time is sure, and -inf * 0 is NaN


def stationarity_residual(e0: float, k: int, beta: float) -> float:
    """Relative defect of the stationarity condition sum(1/(e0 - i + 1)) = k/(e0 - beta) at ``e0``.

    The sum is taken term by term (:func:`numerics.power_sum`, infinite at a
    pole): an O(k) check apart from the O(1) :func:`numerics.pole_sum`.
    """
    return power_sum(e0, index(k), -1) * (e0 - beta) / k - 1.0


def fit_mle(intervals: Sequence[float]) -> JmFit:
    """Maximum-likelihood (e0, k_jm) from ordered inter-failure intervals.

    With A = sum(x_i), B = sum((i-1) * x_i) and beta = B/A, e0 solves
    sum_{i=1..k} 1/(e0 - i + 1) * (e0 - beta) / k = 1 above the pole at
    k - 1, and k_hat = k / (e0 * A - B): :class:`numerics.GrowthLikelihood`
    with one failure per interval.  Each objective evaluation is O(1), so a
    fit costs one O(k) pass for the sums plus one for the final
    :func:`stationarity_residual` check.  NoGrowthEvidence, before any scan,
    unless beta > (k-1)/2, i.e. later intervals are longer; NoConvergence
    when the scan misses the root or the residual fails its 1e-9 check;
    OutOfRange when k_hat leaves the float range.
    """
    x, e = interval_array(intervals)
    k = len(x)
    if k < 2:
        raise TooFewIntervals(f"need at least 2 intervals to fit two parameters, got {k}")
    likelihood = GrowthLikelihood(x)
    e0, rate, residual = likelihood.fit(find_root_bracketed, lambda root: stationarity_residual(root, k, likelihood.m))
    return JmFit(e0_hat=e0, k_hat=at_data_scale(rate, e, "k_hat"), k_obs=k, residual=residual)


def covariance(fit: JmFit, intervals: Sequence[float]) -> JmFit:
    """Attach asymptotic variances and correlation to a fit.

    With S2 = sum(1/(e0 - i + 1)^2), A = sum(x_i) and d = k S2 - (A k_hat)^2,
    var(e0) = k / d, var(k) = S2 k_hat^2 / d and rho = A k_hat / sqrt(k S2)
    (:meth:`numerics.GrowthLikelihood.information`).  var(k) is formed at unit
    scale and scaled back once, so it is OutOfRange only when it leaves the
    float range itself.  SingularInformation unless d > 0, as for one interval.
    """
    x, e = interval_array(intervals)
    if len(x) != fit.k_obs:
        raise DomainError(
            f"fit was made from {fit.k_obs} intervals but {len(x)} were supplied"
        )
    var_e0, var_k, rho = GrowthLikelihood(x).information(fit.e0_hat, math.ldexp(fit.k_hat, e))
    return fit.replace(var_e0=var_e0, var_k=at_data_scale(var_k, 2 * e, "var_k"), rho=rho)


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
    Below draws.DRAWS_MIN the uniforms are a list and the same
    steps run in ``math``, whose bits are numpy's without its AVX-512 kernels.
    """
    if not (math.isfinite(e0) and e0 > 0.0 and math.isfinite(k_jm) and k_jm > 0.0):
        raise DomainError(f"model parameters must be positive, got e0={e0}, k_jm={k_jm}")
    if not (isinstance(count, int) and count >= 0):
        raise DomainError(f"count must be a non-negative integer, got {count}")
    if count > e0:
        raise DomainError(f"cannot observe {count} failures from e0 = {e0} errors")
    if count == 0:
        return []
    # A uniform draw of exactly 0.0 would yield a zero interval, which the
    # likelihood cannot accept; each draw is clipped to the smallest positive
    # normal float, which leaves an infinite or NaN draw as it is.
    from .draws import uniforms  # here, so a call that draws nothing never compiles it

    u = uniforms(seed, count)
    if type(u) is list:
        rates = [k_jm * (e0 - i) for i in range(count)]
        draws = [max(d, sys.float_info.min) for d in quotients([-math.log1p(-v) for v in u], rates)]
        finite = all(map(math.isfinite, rates)) and all(map(math.isfinite, draws))
    else:
        import numpy as np

        # A rate or a draw may overflow or underflow for extreme e0 or k_jm;
        # errstate is context-local, so this stays silent and thread-safe.
        with np.errstate(all="ignore"):
            rates = k_jm * (e0 - np.arange(count))
            draws = np.maximum(-np.log1p(-u) / rates, sys.float_info.min)
        finite = np.isfinite(rates).all() and np.isfinite(draws).all()
        draws = draws.tolist()
    if not finite:
        raise OutOfRange(
            f"a failure rate or interval is not a finite float for e0 {e0} and k_jm {k_jm}"
        )
    return draws
