"""Structural reliability estimation from input-profile runs (Nelson model).

Each test run draws inputs from a probability profile over N input sets;
an input set either triggers a failure (indicator 1) or not.  The failure
probability of run j is the profile-weighted indicator sum Q_j, reliability
over n runs is the product of survival probabilities, and a per-run failure
rate falls out of the exponential form of that product.  A simplified
weighted estimator and a partitioned single-run form are also provided.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence

from .errors import DomainError, ParseError, WeightSumMismatch
from .failure_data import read_columns
from .numerics import all_at_least
from .record import Columns, Record

_SUM_TOL = 1e-9


class RunProfile(Record):
    """Input-set probabilities and failure indicators for one run."""

    _fields = ("probs", "indicators")

    def _check(self) -> None:
        if len(self.probs) != len(self.indicators) or not self.probs:
            raise DomainError("probs and indicators must be non-empty and of equal length")
        for p in self.probs:
            if not (math.isfinite(p) and p >= 0.0):
                raise DomainError(f"profile probabilities must be non-negative, got {p}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"profile probabilities must sum to 1, got {total}")
        for y in self.indicators:
            if y not in (0, 1):
                raise DomainError(f"failure indicators must be 0 or 1, got {y}")


class RunProfiles(Columns):
    """Run profiles held as two columns, as :func:`parse_profiles` returns them.

    Run j is rows ``starts[j]`` up to the next start of ``probs`` and
    ``indicators``, two columns of equal length; ``starts`` begins at 0 and
    increases within them.  A row of the record is a run's RunProfile.  The
    columns are checked once, with RunProfile's rules: tuples in C passes,
    numpy's in whole-array passes, each run's sum screened by
    :func:`_unsettled`.  Where one fails, the first bad run raises.  The
    record holds at least one run, so a slice that selects none is ``()``.
    """

    _fields = ("probs", "indicators", "starts")
    _columns = ("starts",)

    def _check(self) -> None:
        probs, indicators, starts = self.probs, self.indicators, self.starts
        if len(probs) != len(indicators) or not len(probs):
            raise DomainError("probs and indicators must be non-empty and of equal length")
        increasing = all(map(operator.lt, starts, starts[1:]))
        if not (len(starts) and starts[0] == 0 and starts[-1] < len(probs) and increasing):
            raise DomainError("run starts must begin at 0 and increase within the columns")
        if type(indicators) is tuple:
            binary = set(indicators) <= {0, 1}
        else:
            binary = ((indicators == 0) | (indicators == 1)).all()
        valid = all_at_least(probs, 0.0) and binary
        unsettled = range(len(starts)) if type(probs) is tuple else _unsettled(probs, starts) if valid else []
        p, y, at = self._views()
        spans = list(zip(at, (*at[1:], len(p))))
        if not (valid and all(abs(math.fsum(p[slice(*spans[j])]) - 1.0) <= _SUM_TOL for j in unsettled)):
            for s, e in spans:
                RunProfile(tuple(p[s:e]), tuple(y[s:e]))  # raises for the first bad run

    def _row(self, views: list, j: int) -> RunProfile:
        probs, indicators, starts = views
        end = starts[j + 1] if j + 1 < len(starts) else len(probs)
        return RunProfile._unchecked(tuple(probs[starts[j] : end]), tuple(indicators[starts[j] : end]))

    def _sliced(self, index: slice) -> RunProfiles | tuple:
        runs = [self[j] for j in range(len(self))[index]]
        if not runs:
            return ()
        return RunProfiles(
            [p for run in runs for p in run.probs],
            [y for run in runs for y in run.indicators],
            list(itertools.accumulate([len(run.probs) for run in runs[:-1]], initial=0)),
        )


def _unsettled(probs, starts: Sequence[int]) -> list[int]:
    """The runs of finite non-negative ``probs`` whose sum a screen cannot place within _SUM_TOL of 1.

    ``np.add.reduceat`` sums each run in some order of float64 additions.
    For n non-negative terms any such order errs by at most
    (n - 1) u / (1 - (n - 1) u) times the exact sum S, u = 2^-53 (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., 4.2), which
    is below (n - 1) 2^-52 where S is near 1; rounding S, as math.fsum does,
    moves it by at most 2^-52 more.  So a run whose computed sum lies within
    _SUM_TOL - (n + 2) 2^-52 of 1 passes math.fsum's test, and only the
    others are left to it.
    """
    import numpy as np  # the caller's arrays have loaded it

    with np.errstate(all="ignore"):  # a sum may overflow; context-local, so silent and thread-safe
        off = np.abs(np.add.reduceat(probs, starts) - 1.0)
    lengths = np.diff(starts, append=len(probs))
    return np.flatnonzero(~(off <= _SUM_TOL - (lengths + 2) * 2.0**-52)).tolist()


class PartitionSpec(Record):
    """Disjoint input-domain paths with their hit probabilities and error rates."""

    _fields = ("path_probs", "path_error_rates")

    def _check(self) -> None:
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


def parse_profiles(text: str) -> RunProfiles:
    """Parse profile CSV text into per-run profiles, held as columns.

    Two layouts are accepted, told apart by the header: ``p,y`` for a single
    run, or ``run,p,y`` where consecutive rows sharing a run id form one
    profile.  The rows of one run must be contiguous (ParseError names the
    row where an earlier id reappears); runs keep their file order.  From
    ``numerics.ARRAY_MIN`` rows on, a regular file is read into numpy
    columns (see :func:`failure_data.read_columns`).
    """
    columns = (("p", float), ("y", int))
    header = text[: text.find("\n")] if "\n" in text else text  # not a copy of the body
    if not header.strip().lstrip('"').lower().startswith("run"):
        _, (probs, indicators) = read_columns(text, columns, arrays=True)
        starts = [0]
    else:
        starts, probs, indicators = read_columns(text, (("run", int),) + columns, _run_starts, arrays=True)
    if not len(probs):
        raise ParseError("profile file contains no data rows", row=2)
    return RunProfiles(probs, indicators, starts)


def _run_starts(rows: Sequence[int], table: list) -> tuple[list[int], object, object]:
    """Where each run starts, then the p and y columns; ParseError where a run id reappears."""
    runs, probs, indicators = table
    # A run starts where its id differs from the row before.
    if type(runs) is list:
        changed = map(operator.ne, runs, itertools.chain((None,), runs))
        starts = list(itertools.compress(range(len(runs)), changed))
    else:  # numpy's int64 column, of at least one row
        starts = [0, *((runs[1:] != runs[:-1]).nonzero()[0] + 1).tolist()]
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
