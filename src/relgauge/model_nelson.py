"""Structural reliability estimation from input-profile runs (Nelson model).

Each test run draws inputs from a probability profile over N input sets;
an input set either triggers a failure (indicator 1) or not.  The failure
probability of run j is the profile-weighted indicator sum Q_j, reliability
over n runs is the product of survival probabilities, and a per-run failure
rate falls out of the exponential form of that product.  A simplified
weighted estimator and a partitioned single-run form are also provided.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from collections.abc import Sequence

from .errors import DomainError, ParseError, WeightSumMismatch
from .failure_data import read_columns
from .numerics import all_at_least
from .record import Record, set_field

_SUM_TOL = 1e-9


class RunProfile(Record):
    """Input-set probabilities and failure indicators for one run."""

    _fields = ("probs", "indicators")

    def __init__(self, probs: tuple[float, ...], indicators: tuple[int, ...]) -> None:
        set_field(self, "probs", probs)
        set_field(self, "indicators", indicators)
        if len(self.probs) != len(self.indicators) or not self.probs:
            raise DomainError("probs and indicators must be non-empty and of equal length")
        # One pass per test accepts a valid profile: a NaN fails the sum
        # test, and an infinity the minimum or the sum test.
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if (
                min(self.probs) >= 0.0
                and abs(math.fsum(self.probs) - 1.0) <= _SUM_TOL
                and set(self.indicators) <= {0, 1}
            ):
                return
        if not all_at_least(self.probs, 0.0):
            p = next(p for p in self.probs if not (math.isfinite(p) and p >= 0.0))
            raise DomainError(f"profile probabilities must be non-negative, got {p}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"profile probabilities must sum to 1, got {total}")
        with contextlib.suppress(TypeError):  # an unhashable indicator is named below
            if set(self.indicators) <= {0, 1}:
                return
        y = next(y for y in self.indicators if y not in (0, 1))
        raise DomainError(f"failure indicators must be 0 or 1, got {y}")


class PartitionSpec(Record):
    """Disjoint input-domain paths with their hit probabilities and error rates."""

    _fields = ("path_probs", "path_error_rates")

    def __init__(self, path_probs: tuple[float, ...], path_error_rates: tuple[float, ...]) -> None:
        set_field(self, "path_probs", path_probs)
        set_field(self, "path_error_rates", path_error_rates)
        if len(self.path_probs) != len(self.path_error_rates) or not self.path_probs:
            raise DomainError("path lists must be non-empty and of equal length")
        for p in self.path_probs:
            if not (math.isfinite(p) and p >= 0.0):
                raise DomainError(f"path probabilities must be non-negative, got {p}")
        if math.fsum(self.path_probs) > 1.0 + _SUM_TOL:
            raise DomainError("path probabilities must not sum above 1")
        for e in self.path_error_rates:
            if not (math.isfinite(e) and 0.0 <= e < 1.0):
                raise DomainError(f"path error rates must lie in [0, 1), got {e}")


def run_failure_prob(profile: RunProfile) -> float:
    """Failure probability of one run: profile mass on failing input sets, whose y is 1."""
    q = math.fsum(itertools.compress(profile.probs, profile.indicators))
    return min(1.0, max(0.0, q))


def reliability_n(qs: Sequence[float]) -> float:
    """Product-form reliability over runs with failure probabilities ``qs``.

    Evaluated as exp(sum(log1p(-q))) so that many near-zero factors do not
    lose precision.  A certain failure (some q = 1) yields 0.0; callers that
    need to flag that case can test for it directly.
    """
    for q in qs:
        if not (math.isfinite(q) and 0.0 <= q <= 1.0):
            raise DomainError(f"run failure probabilities must lie in [0, 1], got {q}")
    if any(q == 1.0 for q in qs):
        return 0.0
    return math.exp(math.fsum(math.log1p(-q) for q in qs))


def failure_rate(q: float, dt: float) -> float:
    """Constant rate reproducing failure probability ``q`` over duration ``dt``."""
    if not (math.isfinite(q) and 0.0 <= q < 1.0):
        raise DomainError(f"failure probability must lie in [0, 1), got {q}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"run duration must be positive, got {dt}")
    return -math.log1p(-q) / dt


def simplified_reliability(error_free: Sequence[int], weights: Sequence[float]) -> float:
    """Weighted fraction of error-free runs: (1/N) * sum(E_i * W_i).

    Weights must sum to the number of runs (they reweight a non-representative
    run mix back to the operational profile); WeightSumMismatch otherwise.
    """
    n = len(error_free)
    if n == 0 or len(weights) != n:
        raise DomainError("need equally many indicators and weights, at least one each")
    for e in error_free:
        if e not in (0, 1):
            raise DomainError(f"error-free indicators must be 0 or 1, got {e}")
    for w in weights:
        if not (math.isfinite(w) and w >= 0.0):
            raise DomainError(f"weights must be non-negative, got {w}")
    total = math.fsum(weights)
    if abs(total - n) > _SUM_TOL:
        raise WeightSumMismatch(f"weights sum to {total}, expected the run count {n}")
    return math.fsum(e * w for e, w in zip(error_free, weights)) / n


def partitioned_single_run(spec: PartitionSpec) -> float:
    """Single-run reliability 1 - sum(p_j * eps_j) over disjoint input paths."""
    failure_mass = math.fsum(
        p * e for p, e in zip(spec.path_probs, spec.path_error_rates)
    )
    return min(1.0, max(0.0, 1.0 - failure_mass))


def parse_profiles(text: str) -> list[RunProfile]:
    """Parse profile CSV text into per-run profiles.

    Two layouts are accepted, told apart by the header: ``p,y`` for a single
    run, or ``run,p,y`` where consecutive rows sharing a run id form one
    profile.  The rows of one run must be contiguous (ParseError names the
    row where an earlier id reappears); runs keep their file order.
    """
    columns = (("p", float), ("y", int))
    if not text.partition("\n")[0].strip().lstrip('"').lower().startswith("run"):
        _, (probs, indicators) = read_columns(text, columns)
        starts = [0]
    else:
        starts, probs, indicators = read_columns(text, (("run", int),) + columns, _run_starts)
    if not probs:
        raise ParseError("profile file contains no data rows", row=2)
    ends = starts[1:] + [len(probs)]
    probs, indicators = tuple(probs), tuple(indicators)  # so that each slice is a tuple
    return [RunProfile(probs[start:end], indicators[start:end]) for start, end in zip(starts, ends)]


def _run_starts(rows: Sequence[int], table: list[list]) -> tuple[list[int], list, list]:
    """Where each run starts, then the p and y columns; ParseError where a run id reappears."""
    runs, probs, indicators = table
    # A run starts where its id differs from the row before.
    changed = map(operator.ne, runs, itertools.chain((None,), runs))
    starts = list(itertools.compress(range(len(runs)), changed))
    seen: set[int] = set()
    for start in starts:
        if runs[start] in seen:
            raise ParseError(
                f"run {runs[start]} reappears after other runs; the rows of one run must be contiguous",
                row=rows[start],
            )
        seen.add(runs[start])
    return starts, probs, indicators


def parse_weights(text: str) -> list[float]:
    """Parse single-column ``weight`` CSV text."""
    _, (weights,) = read_columns(text, (("weight", float),))
    return weights
