"""Planning double-execution fault tolerance for a long computation.

A computation of total length T is cut into modules of length t.  Every
module is executed until two runs of it have succeeded (results are only
trusted when two executions agree), and each module completion costs a
bookkeeping overhead ``a``.  With failures arriving at rate ``lam`` the
single-execution success probability of one module is
``p1 = exp(-lam * t)``, the number of executions needed by one module
follows ``P(i) = (i - 1) * p1^2 * (1 - p1)^(i - 2)`` for i >= 2, and the
expected wall time of the whole computation is

    Tp(t) = 2 * T * exp(lam * t) + T * a / t.

Short modules waste overhead, long modules waste rework; the planner picks
the module length minimizing the expected total.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .errors import DomainError, OutOfRange
from .numerics import Bracket, find_root_bracketed
from .record import Record


class DualRunConfig(Record):
    """Double-execution planning inputs.

    total_time
        Length T of one full pass over the computation.
    overhead
        Comparison and checkpoint cost a paid once per module.
    failure_rate
        Failure intensity lam of a single execution.
    """

    _fields = ("total_time", "overhead", "failure_rate")

    def _check(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be positive, got {value}")


class DualRunPlan(Record):
    """Chosen module length and the performance it implies."""

    _fields = ("t_star", "module_count", "tp_min", "p1_at_t", "boundary")


def rerun_probability(p1: float, i: int) -> float:
    """Probability that a module needs exactly ``i`` executions.

    The i-th execution is the second success, so the first i - 1 executions
    hold exactly one success: ``(i - 1) * p1^2 * (1 - p1)^(i - 2)``.
    """
    if not (math.isfinite(p1) and 0.0 < p1 <= 1.0):
        raise DomainError(f"success probability must be in (0, 1], got {p1}")
    if not (isinstance(i, int) and i >= 2):
        raise DomainError(f"execution count must be an integer >= 2, got {i}")
    return (i - 1) * p1 * p1 * (1.0 - p1) ** (i - 2)


def expected_executions(p1: float) -> float:
    """Mean executions per module until two successes: ``2 / p1``."""
    if not (math.isfinite(p1) and 0.0 < p1 <= 1.0):
        raise DomainError(f"success probability must be in (0, 1], got {p1}")
    return 2.0 / p1


def success_probability(config: DualRunConfig, t: float) -> float:
    """Probability that a single execution of a length-``t`` module succeeds.

    OutOfRange when exp(-lam * t) underflows to 0, which no module length
    with any chance of success gives.
    """
    if not (math.isfinite(t) and 0.0 < t <= config.total_time):
        raise DomainError(
            f"module length must lie in (0, {config.total_time}], got {t}"
        )
    p1 = math.exp(-config.failure_rate * t)
    if p1 == 0.0:
        raise OutOfRange(f"the success probability exp(-lam * t) at t = {t} underflows a float")
    return p1


def total_time(config: DualRunConfig, t: float) -> float:
    """Expected wall time T (2 / p1 + a / t) with module length ``t``; a float even where T a is not.

    Where a / t overflows it is 2 T / p1 + a (T / t): T / t >= 1, so that is infinite only where the
    wall time is beyond a float.
    """
    T, p1 = config.total_time, success_probability(config, t)
    value = T * (expected_executions(p1) + config.overhead / t)
    return value if value < math.inf else 2.0 * T / p1 + config.overhead * (T / t)


def optimal_module_time(config: DualRunConfig) -> DualRunPlan:
    """Module length minimizing :func:`total_time`.

    The stationary condition is ``2 * lam * t^2 * exp(lam * t) = a``, solved
    in its log form g(t) = log(2 lam / a) + 2 log t + lam t.  g increases,
    so either a unique interior root exists in (0, T) or the expected time
    is still decreasing at t = T (g(T) <= 0), in which case the plan sits on
    the boundary t = T and is flagged.  With x0 = sqrt(a / (2 lam)) and
    s = lam x0 / 2, the root is x0 W(s) / s, W being Lambert's function, and
    s / (1 + s) <= W(s) <= log1p(s) places it in [x0 / (1 + s), x0 log1p(s) / s].
    Halving the low end and doubling the high one moves g by more than
    2 log 2 beyond it, far past the rounding of the ends, which are formed
    from logarithms so that none of them overflows.  Over the bracket lam t
    is at most about 4 log1p(s), so g is finite wherever it is solved; a
    g(T) that is infinite leaves T above the bracket's high end.
    """
    T, a, lam = config.total_time, config.overhead, config.failure_rate
    log_2lam_over_a = math.log(2.0) + math.log(lam) - math.log(a)

    def log_form(t: float) -> float:
        return log_2lam_over_a + 2.0 * math.log(t) + lam * t

    at_end = log_form(T)
    if at_end <= 0.0:
        t_star, boundary = T, True
    else:
        log_x0 = -0.5 * log_2lam_over_a
        s = math.sqrt(a / 8.0) * math.sqrt(lam)
        lo = math.exp(log_x0 - math.log1p(s) - math.log(2.0))
        log_hi = log_x0 + math.log(2.0) + (math.log(math.log1p(s) / s) if s > 0.0 else 0.0)
        hi, f_hi = (T, at_end) if log_hi >= math.log(T) else (math.exp(log_hi), None)
        t_star = find_root_bracketed(log_form, Bracket(lo, hi, tol_rel=1e-14, f_hi=f_hi))
        boundary = False
    return DualRunPlan(
        t_star=t_star,
        module_count=T / t_star,
        tp_min=total_time(config, t_star),
        p1_at_t=success_probability(config, t_star),
        boundary=boundary,
    )


def check_plan(config: DualRunConfig, plan: DualRunPlan) -> None:
    """OutOfRange naming the formula of a module count or tp_min of ``plan`` that is beyond a float."""
    for field, formula in (("module_count", "T / t*"), ("tp_min", "2 T / p1 + a T / t*")):
        if getattr(plan, field) == math.inf:
            T = config.total_time
            raise OutOfRange(f"{field} = {formula} overflows a float for T = {T}, t* = {plan.t_star}")


# Mean executions per module, {execution count: modules}, and the simulated elapsed time.
SimulationResult = namedtuple("SimulationResult", ("mean_executions", "histogram", "elapsed"))


# Sorted values compared at a time in _histogram: its bools are this many, not n.
_RUN_BLOCK = 1 << 16


def _histogram(executions) -> dict[int, int]:
    """Each value of the int64 array ``executions``, in ascending order, with its count; sorts it in place.

    The runs' starts are found _RUN_BLOCK values at a time, so no other
    array of its length is made: neither np.unique's sorted copy nor an n-long
    comparison.
    """
    import numpy as np

    executions.sort()
    n = executions.size
    starts = [np.zeros(1, dtype=np.intp)]
    for start in range(0, n - 1, _RUN_BLOCK):
        window = executions[start : start + _RUN_BLOCK + 1]
        starts.append(np.flatnonzero(window[1:] != window[:-1]) + (start + 1))
    starts = np.concatenate(starts)
    counts = np.diff(starts, append=n)
    return dict(zip(executions[starts].tolist(), counts.tolist()))


def simulate_dual_execution(
    config: DualRunConfig, t: float, modules: int, seed: int
) -> SimulationResult:
    """Simulate every module's executions until two of them succeed.

    Each execution of a module succeeds independently with probability
    ``p1(t)``; a module completes at the second success.  The number of
    trials to the second success is the sum of two independent geometric
    draws, which is how each module is sampled.  Results are deterministic
    for a fixed seed.

    Returns the sample mean executions per module, a histogram of execution
    counts, and the elapsed time ``t * total_executions + a * modules``.
    """
    if not (isinstance(modules, int) and modules >= 1):
        raise DomainError(f"module count must be a positive integer, got {modules}")
    p1 = success_probability(config, t)
    from .draws import geometric_pair_sums  # here, so a plan without a simulation never compiles it

    executions = geometric_pair_sums(seed, p1, modules)
    if type(executions) is list:
        histogram = dict(sorted(Counter(executions).items()))
    else:
        histogram = _histogram(executions)
    # numpy clips a draw beyond the int64 range, so the sum of two wraps
    # negative; a largest count under this bound keeps the total in range.
    values = list(histogram)
    if values[0] < 2 or values[-1] > (2**63 - 1) // modules:
        raise OutOfRange(f"execution counts overflow a 64-bit integer at success probability {p1}")
    total = sum(v * c for v, c in histogram.items())
    return SimulationResult(
        mean_executions=total / modules,
        histogram=histogram,
        elapsed=float(t * total + config.overhead * modules),
    )
