"""Reliability estimation for tested software.

Growth-model fitting (exponential debugging-period model, stepwise
intensity model, Weibull moments), input-profile reliability, debugging
economics, and double-execution fault-tolerance planning, with seeded
generators for every stochastic model and a JSON-reporting command line.

A cold call pays only for the code it runs:

- ``import relgauge`` loads no submodule. Each name in ``__all__`` is
  imported from its module on first access (PEP 562), so
  ``from relgauge import JmFit`` loads ``model_jm`` and what it needs, and
  ``from relgauge import *`` loads them all.
- ``relgauge.cli`` imports a model module inside the handler that calls it,
  so ``relgauge predict jm`` loads ``model_jm`` and none of the others, and
  ``failure_data`` only for the verbs that read its formats or records.
- numpy is imported inside the functions that build or draw arrays, never
  at module level (``decimal_columns``, which imports it, is itself
  imported by the reader only for a file of ``numerics.ARRAY_MIN`` rows or
  more), so the closed-form calls (predictions, economics from
  given parameters, fault-tolerance planning) do not pay its start-up
  cost, nor do fits on fewer than ``numerics.ARRAY_MIN`` records or rows
  (the discovery-curve fit of ``economics --fit`` and the input-profile
  estimate included) or seeded simulations of fewer than
  ``draws.DRAWS_MIN`` draws, which draw numpy's stream in pure Python.
- argparse is imported only for ``--help``, ``--version`` and command
  lines the CLI's own reader does not take, which are usage errors or
  forms such as ``--flag=value``.
- Records are built on the small ``record.Record`` base rather than as
  dataclasses: each names its fields once, in ``_fields`` with
  ``_defaults``, and ``Record``'s one constructor binds and checks them, so
  no call imports ``dataclasses`` or compiles a record's methods when its
  module loads.

tests/test_cli.py guards all five in fresh interpreters that import the
copy the tests imported, so CI runs them on the installed package.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each public name, in the order of __all__, and the submodule that defines it.
_EXPORTS = {
    "Bracket": "numerics",
    "DataError": "errors",
    "DebugOptimum": "debug_economics",
    "DebugPeriod": "failure_data",
    "DebugPeriods": "failure_data",
    "DiscoveryParams": "debug_economics",
    "DualRunConfig": "fault_tolerance",
    "DualRunPlan": "fault_tolerance",
    "EconParams": "debug_economics",
    "EstimationError": "errors",
    "FailureEpochs": "failure_data",
    "JmFit": "model_jm",
    "MomentForm": "model_weibull",
    "Outcome": "failure_data",
    "PartitionSpec": "model_nelson",
    "RelgaugeError": "errors",
    "RunLog": "failure_data",
    "RunProfile": "model_nelson",
    "RunRecord": "failure_data",
    "RunSummary": "failure_data",
    "SchumannFit": "model_schumann",
    "SimulationResult": "fault_tolerance",
    "WeibullFit": "model_weibull",
    "cumulative_corrected": "debug_economics",
    "expected_executions": "fault_tolerance",
    "failure_probability": "debug_economics",
    "find_root_bracketed": "numerics",
    "fit_discovery_curve": "debug_economics",
    "intervals_from_epochs": "failure_data",
    "optimal_debug_time": "debug_economics",
    "optimal_module_time": "fault_tolerance",
    "parse_debug_periods": "failure_data",
    "parse_failure_epochs": "failure_data",
    "parse_run_log": "failure_data",
    "rerun_probability": "fault_tolerance",
    "residual_errors": "debug_economics",
    "simulate_dual_execution": "fault_tolerance",
    "summarize_runs": "failure_data",
    "total_cost": "debug_economics",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import ``name`` from its submodule on first access and keep it in the namespace."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
