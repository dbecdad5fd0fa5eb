"""Failure observations and the CSV formats they travel in.

Three record shapes cover every estimator in the package: per-run outcome
logs, cumulative failure epochs, and per-debugging-period counts.  Every
CSV parser in the package reads through :func:`read_rows`, which reports
the offending 1-based row (the header is row 1) so bad files can be fixed
without guesswork.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, Sequence

from .errors import DomainError, NoFailures, NotMonotone, ParseError


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class RunRecord:
    """One test run: how long it ran and whether it failed."""

    duration: float
    outcome: Outcome

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise DomainError(f"run duration must be finite and positive, got {self.duration}")
        if not isinstance(self.outcome, Outcome):
            raise DomainError(f"outcome must be an Outcome value, got {self.outcome!r}")


@dataclass(frozen=True)
class RunLog:
    """An ordered collection of test runs."""

    runs: tuple[RunRecord, ...]

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    @property
    def failure_count(self) -> int:
        return sum(1 for r in self.runs if r.outcome is Outcome.FAILURE)


@dataclass(frozen=True)
class RunSummary:
    """Exposure-based rate summary of a run log."""

    exposure: float
    lambda_hat: float
    t_hat: float


@dataclass(frozen=True)
class FailureEpochs:
    """Cumulative failure times, strictly increasing and positive."""

    epochs: tuple[float, ...]

    def __post_init__(self) -> None:
        prev = 0.0
        for i, t in enumerate(self.epochs):
            if not (math.isfinite(t) and t > 0.0):
                raise DomainError(f"epoch {i + 1} must be finite and positive, got {t}")
            if t <= prev:
                raise NotMonotone(
                    f"epochs must be strictly increasing: epoch {i + 1} is {t} after {prev}"
                )
            prev = t


@dataclass(frozen=True)
class DebugPeriod:
    """One debugging period: elapsed debug time, corrections so far, test exposure, failures seen."""

    tau: float
    corrected: int
    exposure: float
    failures: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise DomainError(f"debug time must be finite and non-negative, got {self.tau}")
        if not (isinstance(self.corrected, int) and self.corrected >= 0):
            raise DomainError(f"corrected count must be a non-negative integer, got {self.corrected}")
        if not (math.isfinite(self.exposure) and self.exposure > 0.0):
            raise DomainError(f"exposure must be finite and positive, got {self.exposure}")
        if not (isinstance(self.failures, int) and self.failures >= 0):
            raise DomainError(f"failure count must be a non-negative integer, got {self.failures}")


def read_rows(
    text: str, columns: Sequence[tuple[str, Callable[[str], Any]]]
) -> Iterator[tuple[int, list]]:
    """Yield ``(row_number, values)`` for each data row of CSV ``text``.

    ``columns`` names each expected column with the callable (``float``,
    ``int``, ``str``) that converts its token.  The header must match the
    names case-insensitively, blank rows are skipped, every other row must
    have one field per column, and any line ending is accepted.  Structural
    problems raise ParseError with the 1-based row (the header is row 1).
    """
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]
    width = len(columns)
    reader = csv.reader(io.StringIO(text, newline=None))
    row_number = 0  # the last row read; csv errors belong to the next one
    try:
        header = next(reader, None)
        row_number = 1
        if header is None:
            raise ParseError(f"empty input, expected header {','.join(names)!r}", row=1)
        if [h.strip().lower() for h in header] != names:
            raise ParseError(
                f"expected header {','.join(names)!r}, got {_shown(','.join(header))}", row=1
            )
        for row in reader:
            row_number += 1
            if len(row) == width:
                try:
                    # float and int accept the surrounding whitespace themselves.
                    values = [kind(token) for kind, token in zip(kinds, row)]
                except ValueError:
                    pass
                else:
                    yield row_number, values
                    continue
            if all(not field.strip() for field in row):
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", row=row_number)
            # Strip before converting again: str.strip also removes the
            # separators \x1c-\x1f, which float and int reject.
            yield row_number, [
                _convert(kind, token.strip(), name, row_number)
                for name, kind, token in zip(names, kinds, row)
            ]
    except csv.Error as exc:
        raise ParseError(str(exc), row=row_number + 1) from None


# Longer tokens are cut in error messages, which must stay one short line.
_SHOWN_CHARS = 40


def _shown(token: str) -> str:
    """``token`` quoted for an error message, its head and length if it is long."""
    if len(token) <= _SHOWN_CHARS:
        return repr(token)
    return f"{token[:_SHOWN_CHARS]!r}... ({len(token)} characters)"


def _convert(kind: Callable[[str], Any], token: str, name: str, row_number: int) -> Any:
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"could not parse {name} from {_shown(token)}", row=row_number) from None


def parse_run_log(text: str) -> RunLog:
    """Parse ``duration,outcome`` CSV text into a RunLog.

    Outcome tokens are matched case-insensitively.  Raises ParseError for
    structural problems and DomainError (with the row number) for values
    outside the domain.
    """
    runs: list[RunRecord] = []
    for row_number, (duration, outcome_token) in read_rows(
        text, (("duration", float), ("outcome", str))
    ):
        if not (math.isfinite(duration) and duration > 0.0):
            raise DomainError(f"row {row_number}: run duration must be positive, got {duration}")
        outcome_token = outcome_token.strip()
        try:
            outcome = Outcome(outcome_token.lower())
        except ValueError:
            raise DomainError(
                f"row {row_number}: unknown outcome token {_shown(outcome_token)}"
            ) from None
        runs.append(RunRecord(duration, outcome))
    return RunLog(tuple(runs))


def serialize_run_log(log: RunLog) -> str:
    lines = ["duration,outcome"]
    lines.extend(f"{r.duration!r},{r.outcome.value}" for r in log.runs)
    return "\n".join(lines) + "\n"


def parse_failure_epochs(text: str) -> FailureEpochs:
    """Parse single-column ``epoch`` CSV text into validated FailureEpochs."""
    return FailureEpochs(tuple(epoch for _, (epoch,) in read_rows(text, (("epoch", float),))))


def serialize_failure_epochs(epochs: FailureEpochs) -> str:
    lines = ["epoch"]
    lines.extend(f"{t!r}" for t in epochs.epochs)
    return "\n".join(lines) + "\n"


def parse_debug_periods(text: str) -> list[DebugPeriod]:
    """Parse ``tau,corrected,exposure,failures`` CSV text into DebugPeriod records."""
    periods: list[DebugPeriod] = []
    columns = (("tau", float), ("corrected", int), ("exposure", float), ("failures", int))
    for row_number, values in read_rows(text, columns):
        try:
            periods.append(DebugPeriod(*values))
        except DomainError as exc:
            raise DomainError(f"row {row_number}: {exc}") from None
    return periods


def serialize_debug_periods(periods: Sequence[DebugPeriod]) -> str:
    lines = ["tau,corrected,exposure,failures"]
    lines.extend(f"{p.tau!r},{p.corrected},{p.exposure!r},{p.failures}" for p in periods)
    return "\n".join(lines) + "\n"


def summarize_runs(log: RunLog) -> RunSummary:
    """Turn a run log into exposure, failure rate, and mean time to failure.

    The rate is failures over total exposure; its reciprocal is the mean
    time to failure.  Raises NoFailures (carrying the exposure) when the log
    records no failures at all, and DomainError for an empty log.
    """
    if not log.runs:
        raise DomainError("cannot summarize an empty run log")
    exposure = math.fsum(r.duration for r in log.runs)
    failures = log.failure_count
    if failures == 0:
        raise NoFailures(
            f"no failures in {log.total_runs} runs over exposure {exposure}", exposure=exposure
        )
    lambda_hat = failures / exposure
    return RunSummary(exposure=exposure, lambda_hat=lambda_hat, t_hat=exposure / failures)


def intervals_from_epochs(epochs: FailureEpochs) -> list[float]:
    """Difference cumulative failure epochs into inter-failure intervals.

    The first interval is measured from time zero.  The cumulative sum of
    the result reproduces the epochs.
    """
    out: list[float] = []
    prev = 0.0
    for t in epochs.epochs:
        out.append(t - prev)
        prev = t
    return out
