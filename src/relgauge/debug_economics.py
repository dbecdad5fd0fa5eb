"""Economics of a debugging campaign with exponentially decaying error discovery.

The error-discovery rate during debugging is modeled as
``f(t) = (eps0 / tau0) * exp(-t / tau0)``: a program starts with ``eps0``
latent errors and the yield of further debugging decays with time constant
``tau0``.  Normalizing by program size (``commands`` machine instructions)
and multiplying by the execution tempo ``delta`` (instructions per unit
time) links the residual error mass to an in-service failure probability,
a mean time to failure, and finally a total-cost curve whose minimizer is
the economically optimal amount of debugging.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, NoConvergence, OutOfRange, Underdetermined
from .numerics import Bracket, dot, find_root_bracketed, floats
from .record import Columns, Record


class DiscoveryParams(Record):
    """Exponential error-discovery model of one program under debugging.

    eps0
        Initial number of latent errors.
    tau0
        Decay time constant of the discovery rate.
    commands
        Program size in machine instructions.
    tempo
        Execution speed in instructions per unit of operating time.
    """

    _fields = ("eps0", "tau0", "commands", "tempo")

    def _check(self) -> None:
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise DomainError(f"eps0 must be positive, got {self.eps0}")
        if not (math.isfinite(self.tau0) and self.tau0 > 0.0):
            raise DomainError(f"tau0 must be positive, got {self.tau0}")
        if not (isinstance(self.commands, int) and self.commands >= 1):
            raise DomainError(f"commands must be an integer >= 1, got {self.commands}")
        if not (math.isfinite(self.tempo) and self.tempo > 0.0):
            raise DomainError(f"tempo must be positive, got {self.tempo}")


class EconParams(Record):
    """Costs and horizon for the debugging trade-off.

    cost_error
        Loss incurred by one failure in service.
    cost_test
        Cost of one unit of debugging time.
    horizon
        Planned operating time of the released program.
    """

    _fields = ("cost_error", "cost_test", "horizon")

    def _check(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive, got {value}")


def _check_tau(tau: float) -> float:
    if not (math.isfinite(tau) and tau >= 0.0):
        raise DomainError(f"debugging time must be finite and non-negative, got {tau}")
    return float(tau)


def cumulative_corrected(params: DiscoveryParams, tau: float) -> float:
    """Errors corrected per instruction after debugging for ``tau``.

    Rises from zero toward the saturation level ``eps0 / commands``.
    """
    tau = _check_tau(tau)
    return -(params.eps0 / params.commands) * math.expm1(-tau / params.tau0)


def residual_errors(params: DiscoveryParams, tau: float) -> float:
    """Errors remaining per instruction after debugging for ``tau``."""
    tau = _check_tau(tau)
    return (params.eps0 / params.commands) * math.exp(-tau / params.tau0)


def failure_probability(params: DiscoveryParams, tau: float, dt: float) -> float:
    """Probability of a failure within an operating window of length ``dt``.

    The window must be short enough that the rate-times-window product stays
    a probability; OutOfRange is raised otherwise.
    """
    tau = _check_tau(tau)
    if not (math.isfinite(dt) and dt >= 0.0):
        raise DomainError(f"operating window must be finite and non-negative, got {dt}")
    prob = residual_errors(params, tau) * params.tempo * dt
    if prob > 1.0:
        raise OutOfRange(
            f"rate-times-window product {prob} exceeds 1; shorten the window"
        )
    return prob


def mttf(params: DiscoveryParams, tau: float) -> float:
    """Mean operating time to failure after debugging for ``tau``.

    Grows exponentially in ``tau``: each time constant of debugging
    multiplies the expected life by e.  Where eps0 * tempo or the product
    leaves the float range it is taken in logs, and OutOfRange only where
    the mttf itself is beyond a float.
    """
    tau = _check_tau(tau)
    rate = params.eps0 * params.tempo
    if 0.0 < rate < math.inf:
        try:
            value = params.commands / rate * math.exp(tau / params.tau0)
        except OverflowError:
            value = math.inf
        if 0.0 < value < math.inf:
            return value
    # The rate or the product leaves the float range, though the mttf may not: taken in logs.
    log_mttf = math.fsum([math.log(params.commands), -math.log(params.eps0), -math.log(params.tempo), tau / params.tau0])
    return _exp_of(log_mttf, f"the mttf commands / (eps0 * tempo) * exp(tau / tau0) = exp({log_mttf})")


def _exp_of(log_value: float, name: str) -> float:
    """exp(log_value); OutOfRange naming ``name`` where that is beyond a float."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise OutOfRange(f"{name} is beyond a float")
    return value


def reliability(params: DiscoveryParams, tau: float, t: float) -> float:
    """Probability of no failure over operating time ``t`` after debugging for ``tau``."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"operating time must be finite and non-negative, got {t}")
    return math.exp(-residual_errors(params, tau) * params.tempo * t)


def total_cost(params: DiscoveryParams, econ: EconParams, tau: float) -> float:
    """Expected in-service failure losses plus debugging cost at ``tau``; the losses in logs
    where a partial product of cost_error * horizon * eps0 * tempo leaves the normal range."""
    tau = _check_tau(tau)
    product = _normal_product(econ.cost_error, econ.horizon, params.eps0, params.tempo)
    if product:
        failure_losses = product / params.commands * math.exp(-tau / params.tau0)
    else:  # the exp of an exactly rounded sum of logs
        logs = map(math.log, (econ.cost_error, econ.horizon, params.eps0, params.tempo))
        log_losses = math.fsum([*logs, -math.log(params.commands), -tau / params.tau0])
        failure_losses = math.exp(log_losses) if log_losses < _LOG_MAX else math.inf
    return failure_losses + econ.cost_test * tau


# The largest log whose exp is a float, and the least normal float.
_LOG_MAX, _NORMAL_MIN = math.log(1.7976931348623157e308), 2.2250738585072014e-308


def _normal_product(*factors: float) -> float:
    """The product of ``factors`` left to right; 0.0 where a partial product leaves the normal range."""
    product = 1.0
    for factor in factors:
        product *= factor
        if not _NORMAL_MIN <= product < math.inf:
            return 0.0
    return product


class DiscoveryRows(Columns):
    """(tau, cumulative corrected count) pairs held as two columns, as :func:`parse_discovery` returns them.

    The rows are (tau, count) tuples of Python floats, and
    :func:`fit_discovery_curve` takes the columns as they are.
    """

    _fields = ("taus", "counts")

    def _row(self, views: list, j: int) -> tuple[float, float]:
        return float(views[0][j]), float(views[1][j])


# The optimal debugging time tau_m, the expected cost there, and whether tau_m is the boundary 0.
DebugOptimum = namedtuple("DebugOptimum", ("tau_m", "cost", "boundary"))


def optimal_debug_time(params: DiscoveryParams, econ: EconParams) -> DebugOptimum:
    """Debugging time that minimizes :func:`total_cost`.

    The stationary point is ``tau0 * ln(arg)`` with
    ``arg = cost_error * horizon * eps0 * tempo / (cost_test * commands * tau0)``.
    When ``arg`` is below one the stationary point would be negative, so the
    minimum sits at the boundary tau = 0 and the result is flagged.  Where
    ``arg`` is not a finite float, or a partial product of its numerator or
    denominator is not a normal one, or :func:`total_cost` at the optimum
    underflows to 0, ln(arg) is an exactly rounded sum of logs, and the cost
    at tau_m is cost_test * (tau0 + tau_m), or at the boundary the failure
    losses in logs.  Where tau0 or tau_m is subnormal, the cost at tau_m is
    :func:`_interior_cost`.  OutOfRange where the cost is beyond a float,
    a cost that underflows to 0 included.
    """
    numerator = _normal_product(econ.cost_error, econ.horizon, params.eps0, params.tempo)
    denominator = _normal_product(econ.cost_test, params.commands, params.tau0)
    arg = numerator / denominator if numerator and denominator else math.inf
    if math.isfinite(arg):
        if arg < 1.0:
            optimum = DebugOptimum(0.0, total_cost(params, econ, 0.0), True)
        else:
            log_arg = math.log(arg)
            tau_m = params.tau0 * log_arg
            if not math.isfinite(tau_m):
                raise OutOfRange(
                    f"the optimal debugging time tau0 * ln(arg) overflows: tau0 = {params.tau0}, arg = {arg}"
                )
            if _subnormal(params.tau0, tau_m):
                return DebugOptimum(tau_m, _interior_cost(params, econ, log_arg), False)
            optimum = DebugOptimum(tau_m, total_cost(params, econ, tau_m), False)
        if optimum.cost:
            return optimum
    # A partial product or arg leaves the float range, or the cost underflows to 0, though
    # ln(arg) may not: a sum of logs, rounded once.
    log_losses = [*map(math.log, (econ.cost_error, econ.horizon, params.eps0, params.tempo)), -math.log(params.commands)]
    log_arg = math.fsum([*log_losses, -math.log(econ.cost_test), -math.log(params.tau0)])
    if log_arg < 0.0:  # the cost at tau = 0 is the failure losses
        log_cost = math.fsum(log_losses)
        return DebugOptimum(0.0, _exp_of(log_cost, f"the cost at tau = 0, exp({log_cost}),"), True)
    tau_m = params.tau0 * log_arg
    if not math.isfinite(tau_m):
        raise OutOfRange(
            f"the optimal debugging time tau0 * ln(arg) overflows: tau0 = {params.tau0}, ln(arg) = {log_arg}"
        )
    if _subnormal(params.tau0, tau_m):
        return DebugOptimum(tau_m, _interior_cost(params, econ, log_arg), False)
    # At tau_m the failure losses are arg * cost_test * tau0 * exp(-tau_m / tau0) = cost_test * tau0.
    cost = econ.cost_test * (params.tau0 + tau_m)
    if not 0.0 < cost < math.inf:
        raise OutOfRange(
            f"the cost at the optimum cost_test * (tau0 + tau_m) = {econ.cost_test} * ({params.tau0} + {tau_m}) "
            "is beyond a float"
        )
    return DebugOptimum(tau_m, cost, False)


def mttf_at_optimum(params: DiscoveryParams, econ: EconParams, optimum: DebugOptimum) -> float:
    """:func:`mttf` at ``optimum.tau_m``, or from ln arg where a subnormal tau0 or tau_m is too coarse for that.

    exp(tau_m / tau0) = arg at an interior optimum, so the mttf there is
    commands / (eps0 * tempo) * arg = cost_error * horizon / (cost_test * tau0),
    taken where every partial product is normal, else in logs; OutOfRange
    where it is beyond a float.
    """
    if optimum.boundary or not _subnormal(params.tau0, optimum.tau_m):
        return mttf(params, optimum.tau_m)
    numerator = _normal_product(econ.cost_error, econ.horizon)
    denominator = _normal_product(econ.cost_test, params.tau0)
    value = numerator / denominator if numerator and denominator else 0.0
    if _NORMAL_MIN <= value < math.inf:
        return value
    logs = [math.log(econ.cost_error), math.log(econ.horizon), -math.log(econ.cost_test), -math.log(params.tau0)]
    log_mttf = math.fsum(logs)
    return _exp_of(log_mttf, f"the mttf commands / (eps0 * tempo) * arg = exp({log_mttf})")


def _subnormal(*values: float) -> bool:
    """Whether one of the non-negative ``values`` is subnormal."""
    return any(0.0 < value < _NORMAL_MIN for value in values)


def _interior_cost(params: DiscoveryParams, econ: EconParams, log_arg: float) -> float:
    """The cost at tau_m = tau0 * ln(arg), cost_test * tau0 * (1 + ln arg), for a subnormal tau0 or tau_m.

    The failure losses there are cost_test * tau0, so no subnormal tau_m
    enters the cost.  The product is taken left to right where each partial
    product is a normal float, else as the exp of an exactly rounded sum of
    logs; OutOfRange where the cost is beyond a float.
    """
    cost = _normal_product(econ.cost_test, params.tau0, 1.0 + log_arg)
    if cost:
        return cost
    log_cost = math.fsum([math.log(econ.cost_test), math.log(params.tau0), math.log1p(log_arg)])
    return _exp_of(log_cost, f"the cost at the optimum cost_test * tau0 * (1 + ln arg) = exp({log_cost})")


def fit_discovery_curve(
    observations: Sequence[tuple[float, float]], commands: int
) -> tuple[float, float]:
    """Least-squares fit of (eps0, tau0) to cumulative corrected counts.

    ``observations`` is a sequence of (tau, cumulative corrected count)
    pairs at strictly increasing positive times with non-decreasing counts.
    For fixed tau0 the best eps0 is available in closed form.  By the
    envelope theorem the slope of the error so profiled, taken in log tau0,
    is 2 * eps0 * resid . rate with rate = (tau / tau0) * exp(-tau / tau0),
    so the fitted tau0 is where resid . rate turns from negative to
    positive, solved for over [tau_min / 100, 100 * tau_max].

    Below numerics.ARRAY_MIN observations the fit runs on lists in
    ``math``, from there on on numpy arrays; every dot product is
    :func:`numerics.dot`, exactly rounded, so both give the same bits
    wherever numpy's exp and expm1 are the C library's.

    Returns the fitted (eps0, tau0) pair, with eps0 in error counts (not
    per instruction).  Raises Underdetermined when fewer than three points
    or no variation in the counts is provided, NoConvergence when the slope
    does not turn from negative to positive over the search range, so the
    least-squares optimum sits at an edge of it, and OutOfRange when the
    search range or the least-squares fit leaves the range of a float.
    """
    if not (isinstance(commands, int) and commands >= 1):
        raise DomainError(f"commands must be an integer >= 1, got {commands}")
    if not isinstance(observations, DiscoveryRows):  # zip's strict pass refuses pairs of unequal lengths
        observations = DiscoveryRows(*(list(zip(*observations, strict=True)) or [(), ()]))
    taus, counts = floats(observations.taus), floats(observations.counts)  # the reader's columns as they are
    if len(taus) < 3:
        raise Underdetermined(f"need at least 3 observations to fit two parameters, got {len(taus)}")
    _check_observations(taus, counts)
    if counts[0] == counts[-1]:  # the counts do not decrease, so they are all equal
        raise Underdetermined("corrected counts show no variation, tau0 is not identifiable")

    lo, hi = float(taus[0]) / 100.0, float(taus[-1]) * 100.0
    if not (lo > 0.0 and hi < math.inf):
        raise OutOfRange(f"the search range [{lo}, {hi}] for tau0 leaves the float range")
    if type(taus) is not list:
        import numpy as np  # floats has loaded it

    fitted = {}  # the best eps0 at each tau0 evaluated; the root is one of them

    def profile(tau0: float) -> float:
        """resid . rate / |rate|, of the sign of the profiled error's slope; the best eps0 goes to ``fitted``."""
        # Extreme counts or times overflow here, as a non-finite value or an
        # exception of math or math.fsum; the check below reports them.
        try:
            if type(taus) is list:
                x = [t / tau0 for t in taus]
                growth = [-math.expm1(-v) for v in x]
                rate = [v * math.exp(-v) for v in x]
                eps0 = dot(counts, growth) / dot(growth, growth)
                resid = [c - eps0 * g for c, g in zip(counts, growth)]
            else:
                with np.errstate(all="ignore"):
                    x = taus / tau0
                    growth = -np.expm1(-x)
                    rate = x * np.exp(-x)
                    eps0 = dot(counts, growth) / dot(growth, growth)
                    resid = counts - eps0 * growth
            # Normalised, so the slope is not ~1e-41 at the low end, where a
            # root solver that keeps the smallest |f| would stop.
            slope = dot(resid, rate) / math.sqrt(dot(rate, rate))
        except (OverflowError, ValueError, ZeroDivisionError):
            slope = eps0 = math.nan
        if not (math.isfinite(slope) and math.isfinite(eps0)):
            raise OutOfRange(f"the least-squares fit at tau0 = {tau0} is not a finite float")
        fitted[tau0] = eps0
        return slope

    slope_lo, slope_hi = profile(lo), profile(hi)
    if not (slope_lo < 0.0 < slope_hi):
        raise NoConvergence(f"no interior optimum for the discovery time constant within [{lo}, {hi}]")
    # Solved in tau0 itself: the solver's relative tolerance has no scale at log tau0 = 0.
    tau0 = find_root_bracketed(profile, Bracket(lo, hi, f_lo=slope_lo, f_hi=slope_hi))
    return fitted[tau0], tau0


def _check_observations(taus, counts) -> None:
    """DomainError for the first observation whose time is not positive and above the one before,
    or whose count is not finite and at least the one before (and 0)."""
    if type(taus) is not list:
        import numpy as np  # floats has loaded it

        if (
            np.isfinite(taus).all() and np.isfinite(counts).all() and taus[0] > 0.0 and counts[0] >= 0.0
            and (taus[1:] > taus[:-1]).all() and (counts[1:] >= counts[:-1]).all()
        ):
            return  # whole-column passes; the rows are read one by one only to name a bad one
        taus, counts = taus.tolist(), counts.tolist()
    prev_tau, prev_count = 0.0, 0.0
    for tau, count in zip(taus, counts):
        if not (math.isfinite(tau) and tau > 0.0 and tau > prev_tau):
            raise DomainError(f"observation times must be positive and strictly increasing, got {tau}")
        if not (math.isfinite(count) and count >= prev_count):
            raise DomainError(f"corrected counts must be non-decreasing, got {count}")
        prev_tau, prev_count = tau, count


def parse_discovery(text: str) -> DiscoveryRows:
    """Parse ``tau,corrected`` CSV text into (time, cumulative count) pairs, held as the columns read."""
    from .failure_data import read_columns  # here, so economics from parameters does not load it

    _, columns = read_columns(text, (("tau", float), ("corrected", float)), arrays=True)
    return DiscoveryRows(*columns)
