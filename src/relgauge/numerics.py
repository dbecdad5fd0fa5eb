"""Numerical kernels used by the estimation modules.

Provides a geometric scan that brackets the first sign change above a
pole, the one scalar solver that the fits and the planner share (a
bracketed root finder, inverse quadratic interpolation safeguarded by
bisection, which keeps the root bracketed and never evaluates an end whose
value the bracket carries), the pole sum
sum(1/(e0 - i + 1)) in O(1) through the digamma function, an exactly
rounded array sum with the bits of math.fsum (a few numpy passes of
error-free extraction, and math.fsum itself below ARRAY_MIN values or for
zero, infinite, NaN or near-overflow values), the exactly rounded sums
sum(w_j * (x - a_j)^p) that the JM, Weibull and Schumann fits are made
of, the exactly rounded dot product of the discovery-curve fit, exact
sums, bounds and quotients of int count columns, the
checked failure intervals at unit scale that those fits read, the one
likelihood of the JM and Schumann fits with its growth test, residual
check and information, and two-sided Gaussian confidence intervals.  The
seeded draws the simulations take live in ``relgauge.draws``.

Below ARRAY_MIN values a fit's vectors are Python lists and the fit never
imports numpy, whose import costs more than such a fit; from there on
they are numpy arrays, whose per-element cost is lower.  Only
:func:`floats`, which makes them from a caller's values, and :func:`index`
choose between the two.  Every per-element step is +, -, * or / under
IEEE 754 rules, a square is d * d and every sum is exactly rounded, so
both paths give the same bits on any CPU.  The one exception is the
discovery-curve fit's exp and expm1: ``math`` takes them from the C
library and numpy from its own kernels, which agree wherever numpy's
AVX-512 dispatch is off, and there only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Sequence
from itertools import chain, repeat

from .errors import DomainError, NoConvergence, NoGrowthEvidence, NonFinite, NoSignChange, OutOfRange
from .errors import SingularInformation
from .record import Record

DEFAULT_TOL_REL = 1e-10

_MAX_ITER = 600
_WIDTH_FLOOR = 1e-30

_SCAN_FACTOR = 16.0
_SCAN_POINTS = 16  # offsets s, 16 s, ..., 16^15 s = 2^60 s
_SCAN_TOL_REL = 1e-13

_RESIDUAL_LIMIT = 1e-9  # the largest stationarity residual a growth fit accepts

# The fewest values the fits hand to numpy; below it they run on lists and
# fsum_array is math.fsum itself.  With numpy already loaded, a whole fit
# with its covariance costs the same on both paths at about 224-256
# intervals for JM and Weibull and 208-224 periods for Schumann.
ARRAY_MIN = 256
_EXTRACT_PASSES = 6  # then math.fsum adds the remainders that are still nonzero

_POLE_SUM_DIRECT = 64  # up to this many terms the pole sum is added term by term
_DIGAMMA_ASYMPTOTIC = 16.0  # smallest argument handed to the digamma expansion
# B_2j / (2j) for j = 1..7: the coefficients of z^-2j in the asymptotic
# expansion of the digamma function (Abramowitz & Stegun 6.3.18).
_DIGAMMA_COEFFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


class Bracket(Record):
    """Interval [lo, hi] expected to contain a sign change of the target function.

    ``f_lo`` and ``f_hi`` are the function's values at the ends when the
    caller has already evaluated them; :func:`find_root_bracketed` then
    uses them instead of evaluating the ends again.
    """

    _fields = ("lo", "hi", "tol_rel", "f_lo", "f_hi")
    _defaults = {"tol_rel": DEFAULT_TOL_REL, "f_lo": None, "f_hi": None}

    def _check(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DomainError(f"bracket requires finite lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.tol_rel) and self.tol_rel > 0.0):
            raise DomainError(f"bracket tolerance must be positive, got {self.tol_rel}")


def _checked(y: float, x: float) -> float:
    if not math.isfinite(y):
        raise NonFinite(f"function evaluated to {y!r} at x={x!r}")
    return float(y)


def find_root_bracketed(f: Callable[[float], float], bracket: Bracket) -> float:
    """Return x in [lo, hi] with f(x) ~ 0, given a sign change over the bracket.

    Chandrupatla's method (Adv. Eng. Software 28, 1997): each new point
    comes from inverse quadratic interpolation through the two bracket ends
    and the end dropped last, when the three points make that interpolant
    monotone, and from bisection otherwise.  The root stays bracketed
    throughout, and while the bracket is wider than the tolerance each new
    point keeps half a tolerance away from both ends, so the end that
    interpolation approaches from one side is overtaken once it is close.
    Iteration stops once the residual has dropped below ``tol_rel`` times
    the larger endpoint residual and the bracket is narrower than
    ``tol_rel`` relative to the root location, or once no float lies
    strictly between the bracket ends.  The result is the bracket end with
    the smaller residual, so it always lies in the final bracket.  Ends
    whose values the bracket carries are not evaluated again.

    Raises NoSignChange if f has the same sign at both ends, and NonFinite
    if any evaluation produces NaN or infinity.
    """
    a, b = bracket.lo, bracket.hi
    fa = _checked(f(a) if bracket.f_lo is None else bracket.f_lo, a)
    if fa == 0.0:
        return a
    fb = _checked(f(b) if bracket.f_hi is None else bracket.f_hi, b)
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(
            f"no sign change over bracket: f({a})={fa}, f({b})={fb}"
        )

    f_tol = bracket.tol_rel * max(abs(fa), abs(fb))
    # x1 is the newest point, x2 the other end of the bracket and x3 the
    # end dropped last, so f3 has the sign of f1 and x1 lies between x2 and x3.
    x1, f1, x2, f2 = b, fb, a, fa
    t = 0.5
    for _ in range(_MAX_ITER):
        x = x1 + t * (x2 - x1)
        fx = _checked(f(x), x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f1 > 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        width = abs(x2 - x1)
        tol = bracket.tol_rel * max(abs(xm), _WIDTH_FLOOR)
        if (abs(fm) <= f_tol and width <= tol) or math.nextafter(x1, x2) == x2:
            return xm
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            alpha = (x3 - x1) / (x2 - x1)
            t = f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3)
        else:
            t = 0.5
        margin = min(0.5 * tol / width, 0.5)
        t = min(max(t, margin), 1.0 - margin)
    return xm


def scan_bracket(f: Callable[[float], float], floor: float) -> Bracket | None:
    """Bracket the first sign change of ``f`` above ``floor``, or return None.

    Evaluates f at floor + d for d = s, 16s, 256s, ... with
    s = 1e-9 * max(floor, 1), at most 16 points (the offsets span 2^60),
    and stops at the first point whose sign differs from the one before it
    or where f is exactly zero.  The bracket carries a 1e-13 relative
    tolerance for :func:`find_root_bracketed` and the values seen at its
    ends, so the solver does not evaluate them again.
    """
    offset = max(floor, 1.0) * 1e-9
    previous: tuple[float, float] | None = None
    for _ in range(_SCAN_POINTS):
        value = f(floor + offset)
        if value == 0.0 or (previous is not None and (value > 0.0) != (previous[1] > 0.0)):
            lo, f_lo = (offset / _SCAN_FACTOR, None) if previous is None else previous
            return Bracket(floor + lo, floor + offset, tol_rel=_SCAN_TOL_REL, f_lo=f_lo, f_hi=value)
        previous = (offset, value)
        offset *= _SCAN_FACTOR
    return None


def fsum_array(values) -> float:
    """Exactly rounded sum of a 1-D float64 array, or of a list below ARRAY_MIN floats: math.fsum's bits.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31(1), 2008, ExtractVector).
    With 2^m >= n + 2 and max|p| < 2^e, sigma = 2^(m + e) splits each value
    exactly into q = (sigma + p) - sigma, a multiple of 2^-53 sigma, and
    p - q, at most 2^-53 sigma.  The q sum to less than sigma, so their sum
    is exact in any order and numpy's pairwise, SIMD sum returns it as is.
    Each pass extracts the next 53 - m bits of the remainders, until they
    are all zero or for at most 6 passes; math.fsum of the exact pass sums
    and the nonzero remainders then rounds once.  Every step is exact, so
    the bits do not depend on the CPU's SIMD dispatch.  The passes use two
    scratch arrays and never write to ``values``.

    Below ARRAY_MIN values, when the largest magnitude is 0, infinite or
    NaN, or when sigma would leave the float range, the sum is math.fsum
    over the list or over a memoryview of the array, which hands it the
    values one at a time; so every NaN, OverflowError and ValueError of
    math.fsum stays as it is.
    """
    n = len(values)
    m = (n + 1).bit_length()
    top = max(values.max(), -values.min()) if n >= ARRAY_MIN else 0.0
    if not (0.0 < top < math.inf and m + math.frexp(top)[1] < 1024):
        return math.fsum(values if type(values) is list else memoryview(values))
    import numpy as np  # the callers' arrays have loaded it already

    p, q = values, np.empty(n)
    sums = []
    for _ in range(_EXTRACT_PASSES):
        sigma = math.ldexp(1.0, m + math.frexp(top)[1])
        np.add(p, sigma, out=q)
        q -= sigma
        sums.append(q.sum())
        if p is values:  # the first remainder goes to q, so values is only read
            p, q = np.subtract(values, q, out=q), np.empty(n)
        else:
            p -= q
        top = max(p.max(), -p.min())
        if top == 0.0:
            return math.fsum(sums)
    return math.fsum(chain(sums, memoryview(p[p != 0.0])))


def all_at_least(values: Sequence, low: float, strict: bool = False) -> bool:
    """Whether every value is finite and at least ``low`` (above it if ``strict``), in C passes.

    An ndarray is tested in whole-array passes.  Anything else, a value of
    an unexpected type included, gives False and never an exception:
    callers then check item by item, which finds the first bad value and
    raises its own error.
    """
    try:
        if hasattr(values, "dtype"):  # an ndarray: a NaN fails both tests
            least = values.min() if len(values) else math.inf
            return (least > low if strict else least >= low) and (not len(values) or values.max() < math.inf)
        if not all(map(math.isfinite, values)):
            return False
        least = min(values, default=math.inf)
        return least > low if strict else least >= low
    except (TypeError, ValueError, OverflowError):
        return False


def interval_array(intervals: Sequence[float]):
    """The checked intervals at unit scale, (x * 2^-e, e) with the largest in [0.5, 1).

    x is :func:`floats` of the intervals, listed first if they have no len().
    DomainError names the first that is not finite and positive.  The
    scaling, into a new array, rounds nothing for intervals within 2^1021
    of the largest.
    """
    try:
        len(intervals)
    except TypeError:
        intervals = list(intervals)
    x = floats(intervals)
    if type(x) is list:
        bad = next((v for v in x if not 0.0 < v < math.inf), None)
        if bad is not None:
            raise DomainError(f"intervals must be finite and positive, got {bad}")
        e = math.frexp(max(x, default=0.0))[1]
        return [math.ldexp(v, -e) for v in x], e
    import numpy as np  # floats has loaded it

    ok = (x > 0.0) & (x < math.inf)
    if not ok.all():
        raise DomainError(f"intervals must be finite and positive, got {float(x[ok.argmin()])}")
    e = math.frexp(x.max(initial=0.0))[1]
    return np.ldexp(x, -e), e


def _quotient(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:  # IEEE 754: a signed infinity, or NaN for 0/0 and NaN/0
        return math.copysign(math.inf, a) * math.copysign(1.0, b) if a and a == a else math.nan


def quotients(numerators: Iterable[float], denominators: Sequence[float]) -> list[float]:
    """a / b for each pair, as numpy divides: a zero b gives an infinity or NaN where Python raises.

    The numerators are read once, or twice when a b is zero: pass a list or
    an ``itertools.repeat``.
    """
    try:
        return list(map(operator.truediv, numerators, denominators))
    except ZeroDivisionError:
        return list(map(_quotient, numerators, denominators))


def floats(values: Sequence):
    """float() of each value: a list below ARRAY_MIN values, a float64 ndarray from there on.

    Every fit vector is made here.  A 1-D native float64 ndarray is returned
    as it is, and an int64 one is cast, which rounds each int to nearest,
    ties to even, as float() does; other values go through float(), whose
    errors they raise.
    """
    if len(values) < ARRAY_MIN:
        return list(map(float, values))
    import numpy as np

    if type(values) is np.ndarray and values.ndim == 1 and values.dtype in (np.float64, np.int64):
        return values if values.dtype == float else values.astype(float)
    return np.fromiter(map(float, values), float, count=len(values))


def _int_array(values) -> bool:
    """Whether ``values`` is an int64 ndarray, told without importing numpy."""
    return getattr(values, "dtype", None) == "int64"


def int_sum(values: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """The exact sum of the ints ``values``, each times its weight if ``weights`` is given.

    Two int64 ndarrays are summed in int64 where no partial sum can leave
    it, len * max|v| * max|w| < 2^63; otherwise, as any other values are,
    over Python ints.
    """
    if _int_array(values):
        bound = len(values) and len(values) * _magnitude(values) * (1 if weights is None else _magnitude(weights))
        if bound < 2**63:
            return int(values.sum() if weights is None else values @ weights)
        values, weights = values.tolist(), None if weights is None else weights.tolist()
    return sum(values) if weights is None else sum(map(operator.mul, values, weights))


def _magnitude(values) -> int:
    return max(int(values.max()), -int(values.min()))


def int_ratios(values: Sequence[int], divisor: int):
    """:func:`floats` of v / divisor for the ints ``values``, each rounded once, as int / int rounds it.

    An int64 ndarray within 2^53, with a divisor within it too, is divided
    as float64, whose quotient of two exact floats is rounded once.
    """
    if _int_array(values) and len(values) and max(_magnitude(values), abs(divisor)) <= 2**53:
        return floats(values / float(divisor))
    return floats([v / divisor for v in (values.tolist() if _int_array(values) else values)])


def int_bounds(values: Sequence[int], where: Sequence[int] | None = None) -> tuple[int, int]:
    """The least and the largest of the ints ``values``, of those whose ``where`` is nonzero if given."""
    if _int_array(values):
        if where is not None:
            values = values[where != 0]
        return int(values.min()), int(values.max())
    if where is not None:
        values = [v for v, w in zip(values, where) if w]
    return min(values), max(values)


def index(k: int):
    """0, 1, ..., k - 1 as floats: a list below ARRAY_MIN, a float64 ndarray from there on."""
    if k < ARRAY_MIN:
        return list(map(float, range(k)))
    import numpy as np

    return np.arange(k, dtype=float)


def power_sum(x: float, a, p: int, w=None) -> float:
    """Exactly rounded sum over j of w_j * (x - a_j)^p, for p in (2, 1, -1, -2); w_j = 1 when w is None.

    ``a`` and ``w`` are both lists or both float64 ndarrays, as
    :func:`floats`, :func:`index` and :func:`interval_array` give them.  On
    either kind a square is d * d, which IEEE 754 rounds the same way
    everywhere, and a quotient follows IEEE 754: a zero divisor gives a
    signed infinity, or NaN for 0/0, never an exception.  So both kinds
    give the same bits, and an infinite or NaN term makes the sum infinite
    or NaN (or math.fsum's ValueError for inf - inf).
    """
    if type(a) is list:
        d = [x - v for v in a]
        if p in (2, -2):
            d = [v * v for v in d]
        if p > 0:
            return math.fsum(d if w is None else map(operator.mul, w, d))
        return math.fsum(quotients(repeat(1.0) if w is None else w, d))
    import numpy as np  # the caller's arrays have loaded it already

    with np.errstate(all="ignore"):  # context-local, so silent and thread-safe
        d = x - a  # the one new array: fewer live arrays keep the passes in cache
        if p in (2, -2):
            d *= d
        if p < 0:
            np.divide(1.0 if w is None else w, d, out=d)
        elif w is not None:
            d *= w
    return fsum_array(d)


def dot(a, b) -> float:
    """Exactly rounded sum over j of a_j * b_j, for two lists or two float64 ndarrays of one length.

    Each product is rounded once under IEEE 754 and the sum once, by
    math.fsum on lists and :func:`fsum_array` on arrays, so both kinds give
    the same bits; an infinite or NaN product makes the sum infinite or NaN,
    or raises math.fsum's ValueError or OverflowError, on both.
    """
    if type(a) is list:
        return math.fsum(map(operator.mul, a, b))
    import numpy as np  # the caller's arrays have loaded it already

    with np.errstate(all="ignore"):  # context-local, so silent and thread-safe
        return fsum_array(a * b)


def at_data_scale(rate: float, e: int, name: str) -> float:
    """A rate fitted at unit scale, rate * 2^-e; OutOfRange naming ``name`` unless finite and positive."""
    try:
        scaled = math.ldexp(rate, -e)
    except OverflowError:
        scaled = math.inf
    if not 0.0 < scaled < math.inf:
        raise OutOfRange(f"{name} = {rate!r} * 2**{-e} is not a positive finite float")
    return scaled


def check_level(level: float) -> None:
    """Raise DomainError unless ``level`` is a confidence level, strictly between 0 and 1."""
    if not (0.0 < level < 1.0):
        raise DomainError(f"confidence level must lie in (0, 1), got {level}")


def gaussian_intervals(level: float, **estimates: tuple[float, float]) -> dict[str, tuple[float, float]]:
    """Two-sided Gaussian confidence intervals at ``level``, one per name=(estimate, variance).

    z is from the C kernel of ``statistics.NormalDist().inv_cdf``, without loading statistics.
    """
    from _statistics import _normal_dist_inv_cdf as inv_cdf  # only the fits with intervals need it

    check_level(level)
    upper = 0.5 + level / 2.0
    # upper rounds to 1 only at the largest level below 1; the lower tail is exact there.
    z = inv_cdf(upper, 0.0, 1.0) if upper < 1.0 else -inv_cdf(0.5 - level / 2.0, 0.0, 1.0)
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


class GrowthLikelihood:
    """The likelihood of the JM and Schumann fits: sum_j w_j log(rate (x - a_j)) - rate sum_j (x - a_j) H_j.

    Over corrected counts a_j, failures w_j and exposures H_j at unit scale
    (:func:`interval_array`); Schumann's x is e0 and its rate c / I, and JM's
    a_j = j = 0..k-1 with one failure each when ``corrected`` and ``failures``
    are left out.  With A = sum(H_j), B = sum(a_j H_j), m = B/A and
    N = sum(w_j), the rate is N / (x A - B) and x solves S1(x) (x - m) / N = 1
    above the pole at the largest a_j; S1(x) = sum_j w_j / (x - a_j) is O(1)
    for JM (:func:`pole_sum`).  :meth:`fit` sums B and m, which a covariance does not need.
    """

    def __init__(self, h, corrected: Sequence[int] | None = None, failures: Sequence[int] | None = None):
        self.h, self.counts = h, (corrected, failures)
        self.a = index(len(h)) if corrected is None else floats(corrected)
        self.w = None if failures is None else floats(failures)
        self.n = len(h) if failures is None else int_sum(failures)
        self.pole = len(h) - 1 if corrected is None else int_bounds(corrected)[1]
        self.sum_h = fsum_array(h)

    def fit(self, solve: Callable, residual: Callable) -> tuple[float, float, float]:
        """The stationary x, the rate N / (x A - B) there and ``residual(x)``, checked.

        The bracket comes from :func:`scan_bracket`.  Callers pass their
        module's find_root_bracketed, so whatever replaces that name there
        sees each solve.  The objective is
        -G(x)/N with G(x) = sum_j w_j (m - a_j) / (x - a_j) <= (m - t) S1(x)
        by Chebyshev's sum inequality, t = sum(w_j a_j) / N being the
        failure-weighted mean count.  So NoGrowthEvidence unless m > t,
        tested first on m and t each rounded once; and for Schumann unless m
        lies below the largest a_j with a failure, since G(x) >= 0 otherwise.
        NoConvergence when the scan finds no sign change, or when the
        residual exceeds 1e-9 and keeps its sign at the floats next to x.  x lies above m by far more than
        rounding, so x A > B.
        """
        self.sum_ah = -power_sum(0.0, self.h, 1, self.a)  # B = -sum(a_j (0 - H_j)): negation is exact
        self.m = self.sum_ah / self.sum_h
        if self.w is None:
            threshold = (len(self.h) - 1) / 2.0
        else:
            threshold = int_sum(*self.counts) / self.n
        if self.m <= threshold:
            raise NoGrowthEvidence(
                "the likelihood has no finite maximizer: early intervals are not shorter "
                f"on average (interval-weighted mean index {self.m:.6g} vs threshold {threshold:.6g})",
                diagnostic={"b_over_a": self.m, "threshold": threshold},
            )
        if self.w is not None:
            top = int_bounds(*self.counts)[1]
            if not self.m < top:  # then every a_j with a failure is at most m, and G(x) >= 0 for all x
                raise NoGrowthEvidence(
                    "the likelihood has no finite maximizer: the exposure-weighted mean corrected "
                    f"count {self.m:.6g} is not below {top}, the largest corrected count with a failure",
                    diagnostic={"b_over_a": self.m, "threshold": float(top)},
                )
        bracket = scan_bracket(self.objective, float(self.pole))
        if bracket is None:
            raise NoConvergence(
                f"interval-weighted mean index {self.m:.17g} exceeds threshold {threshold:.6g}, but the "
                "stationarity condition changes sign nowhere in the scanned range, from 1e-9 to "
                f"2^60 * 1e-9 times {max(self.pole, 1)} above the pole at e0 = {self.pole}"
            )
        x = solve(self.objective, bracket)
        value = residual(x)
        if abs(value) > _RESIDUAL_LIMIT:
            sides = [residual(math.nextafter(x, to)) for to in (-math.inf, math.inf)]
            if min(sides) > 0.0 or max(sides) < 0.0:
                raise NoConvergence(
                    f"stationarity residual {value:.3g} at the located root e0 = {x!r} exceeds "
                    f"{_RESIDUAL_LIMIT} and keeps its sign at the floats next to it"
                )
        return x, self.n / (x * self.sum_h - self.sum_ah), value

    def objective(self, x: float) -> float:
        s1 = pole_sum(x, len(self.h)) if self.w is None else power_sum(x, self.a, -1, self.w)
        return s1 * (x - self.m) / self.n - 1.0

    def residual(self, x: float) -> float:
        """The objective with S1 summed term by term: an O(P) check, infinite at a pole."""
        return power_sum(x, self.a, -1, self.w) * (x - self.m) / self.n - 1.0

    def information(self, x: float, rate: float) -> tuple[float, float, float]:
        """(var(x), var(rate), rho) from the observed information at (x, rate), the rate at unit scale.

        With S2 = sum(w_j / (x - a_j)^2) and d = N S2 - (A rate)^2: var(x) = N / d,
        var(rate) = S2 rate^2 / d and rho = A rate / sqrt(N S2); SingularInformation
        unless d is positive and finite, as for any single interval.
        """
        a_rate = self.sum_h * rate
        # A square that overflows makes its term 0; one that underflows to 0
        # makes S2 infinite, which the determinant check below rejects.
        s2 = power_sum(x, self.a, -2, self.w)
        denom = self.n * s2 - a_rate * a_rate
        if not 0.0 < denom < math.inf:
            raise SingularInformation(
                f"information determinant k*S2 - (A*k_hat)^2 = {denom} is not positive and finite"
            )
        return self.n / denom, s2 * (rate * rate) / denom, a_rate / math.sqrt(self.n * s2)
