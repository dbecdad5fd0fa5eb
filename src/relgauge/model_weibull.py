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
import sys
from enum import Enum
from collections.abc import Sequence

from .errors import DegenerateSample, DomainError, NoConvergence, OutOfRange, TooFewIntervals
from .numerics import Bracket, at_data_scale, find_root_bracketed, fsum_array, interval_array, power_sum
from .record import Record, set_field

_M_LO = 0.05
_M_HI = 20.0


class MomentForm(Enum):
    CV_CORRECTED = "cv"
    RAW_RATIO = "literal"


class WeibullFit(Record):
    """Shape and scale of a Weibull failure-time law."""

    _fields = ("m", "lam", "moment_form")

    def __init__(
        self, m: float, lam: float, moment_form: MomentForm = MomentForm.CV_CORRECTED
    ) -> None:
        set_field(self, "m", m)
        set_field(self, "lam", lam)
        set_field(self, "moment_form", moment_form)
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise DomainError(f"shape must be positive, got {self.m}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"scale must be positive, got {self.lam}")
        if not isinstance(self.moment_form, MomentForm):
            raise DomainError(f"moment_form must be a MomentForm, got {self.moment_form!r}")


def hazard(fit: WeibullFit, t: float) -> float:
    """Failure intensity at time ``t``, constant (equal to lam) iff m = 1; OutOfRange if it overflows."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and non-negative, got {t}")
    if t == 0.0 and fit.m < 1.0:
        raise DomainError("hazard diverges at t = 0 for shapes below 1")
    try:
        rate = fit.m * fit.lam**fit.m * t ** (fit.m - 1.0)
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        # Only lam^m or t^(m - 1) left the float range.  This form is not the first
        # choice because its power multiplies the rounding error of lam t by m - 1.
        try:
            rate = fit.m * fit.lam * (fit.lam * t) ** (fit.m - 1.0)
        except OverflowError:
            rate = math.inf
        except ZeroDivisionError:  # lam t underflowed to 0 for a shape below 1: the hazard in logs
            try:
                rate = math.exp(math.log(fit.m) + fit.m * math.log(fit.lam) + (fit.m - 1.0) * math.log(t))
            except OverflowError:
                rate = math.inf
    if not rate < math.inf:
        raise OutOfRange(f"the hazard at t = {t} overflows a float for shape {fit.m} and scale {fit.lam}")
    return rate


def reliability(fit: WeibullFit, t: float) -> float:
    """Probability of surviving to time ``t``."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"time must be finite and non-negative, got {t}")
    try:
        return math.exp(-((fit.lam * t) ** fit.m))
    except OverflowError:  # (lam * t)^m beyond a float: exp(-inf) = 0 exactly
        return 0.0


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
    deviation, each an exactly rounded sum.  The shape solves the
    gamma-ratio equation for the selected ``form`` on m in [0.05, 20]; the
    scale follows as Gamma(1+1/m)/tbar.

    Raises TooFewIntervals for fewer than two intervals, DegenerateSample
    when the sample variance vanishes, OutOfRange when lam leaves the float
    range, and NoConvergence when the dispersion ratio is outside the range
    the bracket can reach.  A fitted shape >= 1 is returned like any other;
    callers that expect reliability growth check ``fit.m < 1`` themselves.
    """
    x, e = interval_array(intervals)
    k = len(x)
    if k < 2:
        raise TooFewIntervals(f"need at least 2 intervals to fit two parameters, got {k}")
    t_bar = fsum_array(x) / k
    s2 = power_sum(t_bar, x, 2) / k  # the deviations lie in (-1, 1), so no square overflows
    if s2 == 0.0:
        raise DegenerateSample("zero sample variance; the shape estimate diverges")
    ratio = s2 / (t_bar * t_bar)
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
    """Draw ``n`` failure times by inverting the survival function on seeded uniforms.

    Below draws.DRAWS_MIN the uniforms are a list and the same steps
    run in ``math``, whose bits are numpy's without its AVX-512 kernels: a
    power of 2.0 is a square and one of 0.5 a square root, as numpy's
    ``ndarray ** scalar`` takes them.
    """
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"parameters must be positive, got m={m}, lam={lam}")
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"sample size must be an integer >= 0, got {n}")
    # 1 - u lies in (0, 1], so the log never overflows.  u exactly 0 would
    # give a zero time: each draw is clipped to the smallest positive normal
    # float, which leaves an infinite one as it is.
    from .draws import uniforms  # here, so a call that draws nothing never compiles it

    u = uniforms(seed, n)
    power = 1.0 / m
    if type(u) is list:
        times = [-math.log(1.0 - v) for v in u]
        if power == 2.0:
            times = [t * t for t in times]
        elif power == 0.5:
            times = list(map(math.sqrt, times))
        else:
            try:
                times = [t**power for t in times]
            except OverflowError:  # numpy's power gives an infinity there
                times = [math.inf]
        draws = [max(t / lam, sys.float_info.min) for t in times]
        finite = all(map(math.isfinite, draws))
    else:
        import numpy as np

        # The power or the division may still overflow for extreme m or lam;
        # errstate is context-local, so this stays silent and thread-safe.
        with np.errstate(over="ignore"):
            draws = np.maximum((-np.log(1.0 - u)) ** power / lam, sys.float_info.min)
        finite = np.isfinite(draws).all()
        draws = draws.tolist()
    if not finite:
        raise OutOfRange(f"a failure time overflows a float for shape {m} and scale {lam}")
    return draws
