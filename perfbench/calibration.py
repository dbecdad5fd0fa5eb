"""Host calibration: fixed work shaped like each workload that never touches relgauge.

The speed of a shared virtual machine drifts: the same pure-Python loop can
take 1.4 times longer for seconds or minutes at a time, set by other
tenants' load.  A run times a calibration unit before each operation and
after the last, and scales each operation's time by ``REFERENCE_S / (mean
of the two units around it)``.  A scaled time reads as the time on a host
where the unit takes its reference time.  When the state flips within a
second or two, operations of one kind split into a fast and a slow group;
their median then jumps between the groups, but the units nearest to each
operation tell which group it fell in.  Set-ups, spans and probes, which
are not bracketed one by one, are scaled by the run's mean unit instead,
each unit capped at twice the median so that one stalled unit cannot move
it.

Each unit mimics the code its workload spends its time in, so that the
unit slows down about as much as the operations do:

- ``cli-cold``: a fresh interpreter that imports a few standard modules;
- ``fit-large``: float parsing of CSV-like text and an O(n) Python sum;
- ``simulate-emit``: numpy draws turned into a list and
  ``json.dumps(..., indent=2)``, plus a pass over an 8 MB array.  A
  cache-resident ``json.dumps`` alone slowed down by 1.7x where the 5 MB
  reports slowed down by 1.4x; the memory-bound part brings the unit
  closer to the operations.

The units depend only on the standard library and numpy, so a change to
relgauge cannot change them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_FLOATS = np.random.default_rng(0).exponential(1.0, 10_000).tolist()
_TEXT = "\n".join(repr(x) for x in _FLOATS)


def _cold() -> None:
    subprocess.run([sys.executable, "-c", "import json, csv, argparse"], check=True, timeout=60)


def _fit() -> None:
    xs = [float(t) for t in _TEXT.split("\n")]
    s = 0.0
    for i, x in enumerate(xs):
        s += x / (1.0 + i)


def _emit() -> None:
    draws = np.random.default_rng(0).exponential(1.0, 20_000)
    json.dumps({"times": draws.tolist()}, indent=2)
    (np.ones(1_000_000) * 2.0).sum()


# Set-up is mostly a cold ``import relgauge.cli``, so it uses the cold unit.
UNITS = {"cli-cold": _cold, "fit-large": _fit, "simulate-emit": _emit, "set-up": _cold}
# Median unit time on the host the benchmark was tuned on (2 vCPU VM), in
# its slower state; the scaled times are only comparable across runs of
# the same unit, never across workloads.
REFERENCE_S = {"cli-cold": 0.115, "fit-large": 0.008, "simulate-emit": 0.050, "set-up": 0.115}


def unit(workload: str) -> float:
    """Time, in seconds, of one calibration unit for ``workload``."""
    start = perf_counter()
    UNITS[workload]()
    return perf_counter() - start


def step_factor(workload: str, before: float, after: float) -> float:
    """Factor from one step's raw time to its time on the reference host."""
    return REFERENCE_S[workload] / (0.5 * (before + after))


def factor(workload: str, units: list[float]) -> float:
    """Factor from raw times to times on the reference host, given all of a run's unit times."""
    cap = 2.0 * statistics.median(units)
    return REFERENCE_S[workload] / statistics.mean(min(u, cap) for u in units)
