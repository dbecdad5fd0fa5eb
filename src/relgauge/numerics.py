"""Numerical kernels used by the estimation modules.

Provides a doubling scan that brackets the first sign change above a pole,
a bracketed scalar root finder (bisection with secant acceleration, so
convergence is guaranteed whenever the bracket is valid), Brent's bounded
scalar minimiser, the pole sum sum(1/(e0 - i + 1)) in O(1) through the
digamma function, an exactly rounded array sum, the checked array of
failure intervals that the JM and Weibull fits read, the seeded generator
every simulation draws from, and two-sided Gaussian confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

from .errors import DomainError, NonFinite, NoSignChange

DEFAULT_TOL_REL = 1e-10

_MAX_ITER = 600
_WIDTH_FLOOR = 1e-30

_SCAN_DOUBLINGS = 60
_SCAN_TOL_REL = 1e-13

_MIN_XATOL = 1e-13
_MIN_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)  # relative resolution of the minimiser's steps
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

_POLE_SUM_DIRECT = 64  # up to this many terms the pole sum is added term by term
_DIGAMMA_ASYMPTOTIC = 16.0  # smallest argument handed to the digamma expansion
# B_2j / (2j) for j = 1..7: the coefficients of z^-2j in the asymptotic
# expansion of the digamma function (Abramowitz & Stegun 6.3.18).
_DIGAMMA_COEFFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] expected to contain a sign change of the target function."""

    lo: float
    hi: float
    tol_rel: float = DEFAULT_TOL_REL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DomainError(f"bracket requires finite lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.tol_rel) and self.tol_rel > 0.0):
            raise DomainError(f"bracket tolerance must be positive, got {self.tol_rel}")


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise NonFinite(f"function evaluated to {y!r} at x={x!r}")
    return float(y)


def find_root_bracketed(f: Callable[[float], float], bracket: Bracket) -> float:
    """Return x in [lo, hi] with f(x) ~ 0, given a sign change over the bracket.

    Alternates secant estimates with plain bisection, so the interval width
    is guaranteed to halve at least every other iteration no matter how the
    function behaves.  Iteration stops once the residual has dropped below
    ``tol_rel`` times the larger endpoint residual and the interval is
    narrower than ``tol_rel`` relative to the root location.

    Raises NoSignChange if f has the same sign at both ends, and NonFinite
    if any evaluation produces NaN or infinity.
    """
    a, b = bracket.lo, bracket.hi
    fa = _eval_checked(f, a)
    if fa == 0.0:
        return a
    fb = _eval_checked(f, b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(
            f"no sign change over bracket: f({a})={fa}, f({b})={fb}"
        )

    f_tol = bracket.tol_rel * max(abs(fa), abs(fb))
    best_x, best_f = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    use_secant = False
    for _ in range(_MAX_ITER):
        width = b - a
        x = 0.5 * (a + b)
        if use_secant:
            # fb - fa cannot vanish here: the endpoints have opposite signs.
            s = b - fb * width / (fb - fa)
            # Accept the secant point only when it lands comfortably inside
            # the interval; otherwise keep the bisection midpoint.
            margin = 0.125 * width
            if a + margin < s < b - margin:
                x = s
        use_secant = not use_secant
        fx = _eval_checked(f, x)
        if abs(fx) < best_f:
            best_x, best_f = x, abs(fx)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        narrow = (b - a) <= bracket.tol_rel * max(abs(best_x), _WIDTH_FLOOR)
        if best_f <= f_tol and narrow:
            return best_x
    return best_x


def scan_bracket(f: Callable[[float], float], floor: float) -> Bracket | None:
    """Bracket the first sign change of ``f`` above ``floor``, or return None.

    Evaluates f at floor + d for d = s, 2s, 4s, ... with s = 1e-9 * max(floor, 1),
    at most 61 points, and stops at the first point whose sign differs from
    the one before it or where f is exactly zero.  The bracket carries a
    1e-13 relative tolerance for :func:`find_root_bracketed`.
    """
    offset = max(floor, 1.0) * 1e-9
    previous: tuple[float, float] | None = None
    for _ in range(_SCAN_DOUBLINGS + 1):
        value = f(floor + offset)
        if value == 0.0:
            lo = offset * 0.5 if previous is None else previous[0]
            return Bracket(floor + lo, floor + offset, tol_rel=_SCAN_TOL_REL)
        if previous is not None and (value > 0.0) != (previous[1] > 0.0):
            return Bracket(floor + previous[0], floor + offset, tol_rel=_SCAN_TOL_REL)
        previous = (offset, value)
        offset *= 2.0
    return None


def minimize_bounded(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Return x in the finite interval [lo, hi] minimising ``f``, by Brent's bounded method.

    Golden-section steps safeguard parabolic interpolation through the three
    best points; iteration stops once the bracket around the best point is
    within 1e-13 absolute plus sqrt(eps) relative, or after 500 evaluations.
    The best point found is returned either way.
    """
    a, b = lo, hi
    # x: best point so far, w: second best, v: the previous w.
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(_MIN_MAX_EVALS - 1):
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _MIN_XATOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                # Never evaluate closer than tol2 to either end.
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a - x) if x >= xm else (b - x)
            d = _GOLDEN * e
        u = x + (1.0 if d >= 0.0 else -1.0) * max(abs(d), tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def fsum_array(values) -> float:
    """Exactly rounded sum of a 1-D float array.

    math.fsum reads the array through a memoryview, which hands it Python
    floats one at a time: no list is built and the bits equal fsum over
    the same values held in a list.
    """
    return math.fsum(memoryview(values))


def all_at_least(values: Sequence, low: float, strict: bool = False) -> bool:
    """Whether every value is finite and at least ``low`` (above it if ``strict``), in C passes.

    Anything else, a value of an unexpected type included, gives False and
    never an exception: callers then check item by item, which finds the
    first bad value and raises its own error.
    """
    try:
        if not all(map(math.isfinite, values)):
            return False
        least = min(values, default=math.inf)
        return least > low if strict else least >= low
    except (TypeError, ValueError, OverflowError):
        return False


def interval_array(intervals: Sequence[float]):
    """The intervals as a float array; DomainError names the first not finite and positive."""
    import numpy as np  # loaded by the fits that call this; numerics itself needs no numpy

    x = np.fromiter(map(float, intervals), dtype=float)
    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        raise DomainError(f"intervals must be finite and positive, got {float(x[ok.argmin()])}")
    return x


def seeded_rng(seed: int):
    """numpy's default generator seeded with ``seed``; DomainError unless it is an int >= 0."""
    if not (isinstance(seed, int) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    import numpy as np

    return np.random.default_rng(seed)


def check_level(level: float) -> None:
    """Raise DomainError unless ``level`` is a confidence level, strictly between 0 and 1."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")


def gaussian_intervals(level: float, **estimates: tuple[float, float]) -> dict[str, tuple[float, float]]:
    """Two-sided Gaussian confidence intervals at ``level``, one per name=(estimate, variance)."""
    check_level(level)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    intervals = {}
    for name, (estimate, variance) in estimates.items():
        half = z * math.sqrt(variance)
        intervals[name] = (estimate - half, estimate + half)
    return intervals


def _digamma_tail(z: float) -> float:
    """sum_j B_2j / (2j * z^2j): what ln z - 1/(2z) - psi(z) leaves for large z."""
    w = 1.0 / (z * z)
    tail = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        tail = w * (c + tail)
    return tail


def pole_sum(e0: float, k: int) -> float:
    """Return sum_{i=1..k} 1/(e0 - i + 1), i.e. psi(e0 + 1) - psi(e0 - k + 1), for e0 > k - 1.

    Up to 64 terms the sum is the exactly rounded fsum of the terms.  Beyond
    that, the terms with an argument below 16 are added directly and the
    remaining n terms, with arguments lo..lo + n - 1, come from the digamma
    expansion written without cancellation:

        log1p(n / lo) + n / (2 lo (lo + n)) + tail(lo) - tail(lo + n)

    so the cost no longer depends on k.  Relative error is below 1e-15.
    """
    if not e0 > k - 1:
        raise DomainError(f"pole sum needs e0 > k - 1 = {k - 1}, got {e0}")
    if k <= _POLE_SUM_DIRECT:
        return math.fsum(1.0 / (e0 - i + 1) for i in range(1, k + 1))
    terms = []
    n = k
    while e0 - n + 1 < _DIGAMMA_ASYMPTOTIC:
        terms.append(1.0 / (e0 - n + 1))
        n -= 1
    lo = e0 - n + 1
    hi = lo + n
    terms += (math.log1p(n / lo), n / (2.0 * lo * hi), _digamma_tail(lo) - _digamma_tail(hi))
    return math.fsum(terms)
