"""Weibull failure-time model with method-of-moments fitting.

Hazard ``m * lam^m * t^(m-1)``, reliability ``exp(-(lam*t)^m)``.  A shape
below one means the hazard falls with time (reliability growth), which is
the regime debugging data is expected to occupy; fits with m >= 1 are
allowed, and their :func:`report` flags them.

The moment fit equates the sample coefficient of variation with its model
expression through the gamma-ratio function G(m) = Gamma(1+2/m) /
Gamma(1+1/m)^2.  G is strictly decreasing, so the bracketed root search
over m has a unique solution.  Two forms of the moment equation are offered:
``CV_CORRECTED`` solves G(m) - 1 = s^2/tbar^2 (the coefficient-of-variation
identity for central sample variance) and ``RAW_RATIO`` solves
G(m) = s^2/tbar^2, which treats the dispersion statistic as a second raw
moment ratio instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DegenerateSample, DomainError, NoConvergence, OutOfRange, TooFewIntervals
from .numerics import Bracket, at_data_scale, find_root_bracketed, fsum_array, interval_array, seeded_rng

_M_LO = 0.05
_M_HI = 20.0


class MomentForm(Enum):
    CV_CORRECTED = "cv"
    RAW_RATIO = "literal"


@dataclass(frozen=True)
class WeibullFit:
    """Shape and scale of a Weibull failure-time law."""

    m: float
    lam: float
    moment_form: MomentForm = MomentForm.CV_CORRECTED

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"shape must be positive, got {self.m}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"scale must be positive, got {self.lam}")
        if not isinstance(self.moment_form, MomentForm):
            raise DomainError(f"moment_form must be a MomentForm, got {self.moment_form!r}")


def hazard(fit: WeibullFit, t: float) -> float:
    """Failure intensity at time ``t``; constant (equal to lam) iff m = 1."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and non-negative, got {t}")
    if t == 0.0 and fit.m < 1.0:
        raise DomainError("hazard diverges at t = 0 for shapes below 1")
    return fit.m * fit.lam**fit.m * t ** (fit.m - 1.0)


def reliability(fit: WeibullFit, t: float) -> float:
    """Probability of surviving to time ``t``."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and non-negative, got {t}")
    return math.exp(-((fit.lam * t) ** fit.m))


def mttf(fit: WeibullFit) -> float:
    """Mean failure time Gamma(1 + 1/m) / lam.

    Where Gamma(1 + 1/m) alone overflows, the quotient is taken in log space.
    """
    log_g = math.lgamma(1.0 + 1.0 / fit.m)
    try:
        return math.exp(log_g) / fit.lam
    except OverflowError:
        return math.exp(log_g - math.log(fit.lam))


def gamma_moment_ratio(m: float) -> float:
    """G(m) = Gamma(1 + 2/m) / Gamma(1 + 1/m)^2, strictly decreasing in m."""
    if not (math.isfinite(m) and m > 0.0):
        raise DomainError(f"shape must be positive, got {m}")
    return math.exp(math.lgamma(1.0 + 2.0 / m) - 2.0 * math.lgamma(1.0 + 1.0 / m))


def fit_moments(
    intervals: Sequence[float], form: MomentForm = MomentForm.CV_CORRECTED
) -> WeibullFit:
    """Method-of-moments (m, lam) from failure intervals.

    Sample moments use the 1/k normalization, over the intervals at unit
    scale (:func:`numerics.interval_array`): tbar = mean, s2 = mean squared
    deviation.  The shape solves the gamma-ratio equation for the selected
    ``form`` on m in [0.05, 20]; the scale follows as Gamma(1+1/m)/tbar.

    Raises TooFewIntervals for fewer than two intervals, DegenerateSample
    when the sample variance vanishes, OutOfRange when lam leaves the float
    range, and NoConvergence when the dispersion ratio is outside the range
    the bracket can reach.  A fitted shape >= 1 is returned like any other;
    callers that expect reliability growth check ``fit.m < 1`` themselves.
    """
    import numpy as np

    x, e = interval_array(intervals)
    k = len(x)
    if k < 2:
        raise TooFewIntervals(f"need at least 2 intervals to fit two parameters, got {k}")
    t_bar = fsum_array(x) / k
    # float_power calls the C library's pow, as Python's ** does, so each
    # square keeps the bits of the scalar expression.
    s2 = fsum_array(np.float_power(x - t_bar, 2)) / k
    if s2 == 0.0:
        raise DegenerateSample("zero sample variance; the shape estimate diverges")
    ratio = s2 / t_bar**2
    target = ratio + 1.0 if form is MomentForm.CV_CORRECTED else ratio

    def objective(m: float) -> float:
        return gamma_moment_ratio(m) - target

    lo_val = objective(_M_LO)
    hi_val = objective(_M_HI)
    if not (lo_val > 0.0 > hi_val):
        raise NoConvergence(
            f"dispersion ratio {ratio} has no shape solution in [{_M_LO}, {_M_HI}] "
            f"under the {form.name} moment equation"
        )
    m_hat = find_root_bracketed(objective, Bracket(_M_LO, _M_HI, tol_rel=1e-13, f_lo=lo_val, f_hi=hi_val))
    lam = at_data_scale(math.exp(math.lgamma(1.0 + 1.0 / m_hat)) / t_bar, e, "lam")
    return WeibullFit(m=m_hat, lam=lam, moment_form=form)


def report(fit: WeibullFit, k: int) -> dict:
    """The ``fit weibull`` report of a fit to ``k`` intervals, with a warning when m >= 1."""
    body = {
        "model": "weibull",
        "m": fit.m,
        "lambda": fit.lam,
        "mttf": mttf(fit),
        "moment_form": fit.moment_form.value,
        "k_obs": k,
    }
    if fit.m >= 1.0:
        body["warning"] = f"fitted shape {fit.m:.6g} is >= 1: the data show no reliability growth"
    return body


def generate(m: float, lam: float, n: int, seed: int) -> list[float]:
    """Draw ``n`` failure times by inverting the survival function on seeded uniforms."""
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"parameters must be positive, got m={m}, lam={lam}")
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"sample size must be an integer >= 0, got {n}")
    import numpy as np

    rng = seeded_rng(seed)
    u = 1.0 - rng.random(n)  # in (0, 1], so the log below never overflows
    # The power or the division may still overflow for extreme m or lam;
    # errstate is context-local, so this stays silent and thread-safe.
    with np.errstate(over="ignore"):
        draws = (-np.log(u)) ** (1.0 / m) / lam
    if not np.isfinite(draws).all():
        raise OutOfRange(f"a failure time overflows a float for shape {m} and scale {lam}")
    # u exactly 1 would give a zero time; clip to keep every draw positive.
    draws = np.maximum(draws, np.finfo(float).tiny)
    return draws.tolist()
