"""Reliability estimation for tested software.

Growth-model fitting (exponential debugging-period model, stepwise
intensity model, Weibull moments), input-profile reliability, debugging
economics, and double-execution fault-tolerance planning, with seeded
generators for every stochastic model and a JSON-reporting command line.

numpy is imported inside the functions that build or draw arrays, never at
module level, so importing the package and the closed-form calls (predictions,
economics from given parameters, fault-tolerance planning, the input-profile
estimate) do not pay its start-up cost; tests/test_cli.py guards this.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .debug_economics import (
    DebugOptimum,
    DiscoveryParams,
    EconParams,
    cumulative_corrected,
    failure_probability,
    fit_discovery_curve,
    optimal_debug_time,
    residual_errors,
    total_cost,
)
from .errors import DataError, EstimationError, RelgaugeError
from .failure_data import (
    DebugPeriod,
    DebugPeriods,
    FailureEpochs,
    Outcome,
    RunLog,
    RunRecord,
    RunSummary,
    intervals_from_epochs,
    parse_debug_periods,
    parse_failure_epochs,
    parse_run_log,
    summarize_runs,
)
from .fault_tolerance import (
    DualRunConfig,
    DualRunPlan,
    SimulationResult,
    expected_executions,
    optimal_module_time,
    rerun_probability,
    simulate_dual_execution,
)
from .model_jm import JmFit
from .model_nelson import PartitionSpec, RunProfile
from .model_schumann import SchumannFit
from .model_weibull import MomentForm, WeibullFit
from .numerics import Bracket, find_root_bracketed

__all__ = [
    "__version__",
    "Bracket",
    "DataError",
    "DebugOptimum",
    "DebugPeriod",
    "DebugPeriods",
    "DiscoveryParams",
    "DualRunConfig",
    "DualRunPlan",
    "EconParams",
    "EstimationError",
    "FailureEpochs",
    "JmFit",
    "MomentForm",
    "Outcome",
    "PartitionSpec",
    "RelgaugeError",
    "RunLog",
    "RunProfile",
    "RunRecord",
    "RunSummary",
    "SchumannFit",
    "SimulationResult",
    "WeibullFit",
    "cumulative_corrected",
    "expected_executions",
    "failure_probability",
    "find_root_bracketed",
    "fit_discovery_curve",
    "intervals_from_epochs",
    "optimal_debug_time",
    "optimal_module_time",
    "parse_debug_periods",
    "parse_failure_epochs",
    "parse_run_log",
    "rerun_probability",
    "residual_errors",
    "simulate_dual_execution",
    "summarize_runs",
    "total_cost",
]
