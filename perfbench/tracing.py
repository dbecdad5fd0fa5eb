"""Spans around relgauge's public module attributes, and the layer metrics derived from them.

The tracer replaces module attributes (public functions, plus ``cli._emit``
for the emit layer) with timing wrappers, so calls made through those names
(from the CLI, or from inside the module through its globals) record a
span: name, start, end, parent span, operation id and,
for ``find_root_bracketed``, how many times the solver evaluated the
function it was given.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, EVALS, SIZE = range(7)
ROOT = "numerics.find_root_bracketed"


def _rows(args, result) -> int:
    return len(result.epochs) if hasattr(result, "epochs") else len(getattr(result, "runs", result))


def _first_len(args, result) -> int:
    return len(args[0])


# (module, attribute, span name, size of the call or None, count solver evaluations)
POINTS = [
    ("cli", "run_cli", "cli.run_cli", None, False),
    ("cli", "_emit", "cli.emit", None, False),
    ("cli", "parse_failure_epochs", "failure_data.parse_failure_epochs", _rows, False),
    ("cli", "parse_debug_periods", "failure_data.parse_debug_periods", _rows, False),
    ("cli", "parse_run_log", "failure_data.parse_run_log", _rows, False),
    ("cli", "intervals_from_epochs", "failure_data.intervals_from_epochs", None, False),
    ("model_jm", "fit_mle", "model_jm.fit_mle", _first_len, False),
    ("model_jm", "stationarity_residual", "model_jm.stationarity_residual", None, False),
    ("model_jm", "covariance", "model_jm.covariance", None, False),
    ("model_jm", "confidence_intervals", "model_jm.confidence_intervals", None, False),
    ("model_jm", "generate_intervals", "model_jm.generate_intervals", None, False),
    ("model_jm", "find_root_bracketed", ROOT, None, True),
    ("model_schumann", "fit_mle", "model_schumann.fit_mle", None, False),
    ("model_schumann", "covariance", "model_schumann.covariance", None, False),
    ("model_schumann", "generate_periods", "model_schumann.generate_periods", None, False),
    ("model_schumann", "find_root_bracketed", ROOT, None, True),
    ("model_weibull", "fit_moments", "model_weibull.fit_moments", None, False),
    ("model_weibull", "gamma_moment_ratio", "model_weibull.gamma_moment_ratio", None, False),
    ("model_weibull", "generate", "model_weibull.generate", None, False),
    ("model_weibull", "find_root_bracketed", ROOT, None, True),
    ("model_nelson", "parse_profiles", "model_nelson.parse_profiles", None, False),
    ("model_nelson", "run_failure_prob", "model_nelson.run_failure_prob", None, False),
    ("debug_economics", "parse_discovery", "debug_economics.parse_discovery", None, False),
    ("debug_economics", "fit_discovery_curve", "debug_economics.fit_discovery_curve", None, False),
    ("fault_tolerance", "optimal_module_time", "fault_tolerance.optimal_module_time", None, False),
    ("fault_tolerance", "simulate_dual_execution", "fault_tolerance.simulate_dual_execution", None, False),
    ("fault_tolerance", "find_root_bracketed", ROOT, None, True),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, size, count in POINTS:
            module = importlib.import_module(f"relgauge.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, size, count))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, size, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, 0, None]
            stack.append(len(spans))
            spans.append(span)
            if count:
                f = args[0]

                def counted(x):
                    span[EVALS] += 1
                    return f(x)

                args = (counted, *args[1:])
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, result)
            return result

        return traced


def _median(values):
    return statistics.median(values) if values else None


def _ms(values):
    m = _median(values)
    return None if m is None else 1e3 * m


def _child_time(spans: list[list]) -> dict[int, float]:
    """Time each span spent in its direct child spans."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return child


def self_time_by_layer(spans: list[list]) -> dict[str, float]:
    """Total self time, in seconds, of each layer (the module part of the span name)."""
    child = _child_time(spans)
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        totals[s[NAME].split(".")[0]] += s[END] - s[START] - child[i]
    return dict(totals)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics from one set of spans; None where no span was recorded.

    Times are medians over the spans of one function (self time for
    ``cli.run_cli``, summed per operation for the per-run ``q`` loop);
    counts are medians per fit or per solve.
    """
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
    child_time = _child_time(spans)

    def dur(name):
        return [spans[i][END] - spans[i][START] for i in by_name[name]]

    def evals_under(leaf, fit):
        """Per fit span: all ``leaf`` calls beneath it, and those outside a root solve."""
        total, scan = defaultdict(int), defaultdict(int)
        for i in by_name[leaf]:
            in_root = False
            p = spans[i][PARENT]
            while p is not None and spans[p][NAME] != fit:
                in_root = in_root or spans[p][NAME] == ROOT
                p = spans[p][PARENT]
            if p is not None:
                total[p] += 1
                scan[p] += not in_root
        fits = by_name[fit]
        return [total[f] for f in fits], [scan[f] for f in fits]

    jm_evals, jm_scan = evals_under("model_jm.stationarity_residual", "model_jm.fit_mle")
    weibull_evals, _ = evals_under("model_weibull.gamma_moment_ratio", "model_weibull.fit_moments")
    jm_elems = [e * spans[f][SIZE] for e, f in zip(jm_evals, by_name["model_jm.fit_mle"])]
    roots = [spans[i] for i in by_name[ROOT]]
    schumann_roots = [
        s[EVALS] for s in roots if s[PARENT] is not None and spans[s[PARENT]][NAME] == "model_schumann.fit_mle"
    ]
    q_per_op = defaultdict(float)
    for i in by_name["model_nelson.run_failure_prob"]:
        q_per_op[spans[i][OP]] += spans[i][END] - spans[i][START]
    parse_names = [n for n in by_name if n.startswith("failure_data.parse_")]
    objective = _median(jm_evals)
    scan = _median(jm_scan)
    return {
        "cli.self_ms": _ms([spans[i][END] - spans[i][START] - child_time[i] for i in by_name["cli.run_cli"]]),
        "cli.emit_ms": _ms(dur("cli.emit")),
        "failure_data.parse_ms": _ms([d for n in parse_names for d in dur(n)]),
        "failure_data.rows_parsed": _median([spans[i][SIZE] for n in parse_names for i in by_name[n]]),
        "failure_data.intervals_ms": _ms(dur("failure_data.intervals_from_epochs")),
        "model_jm.fit_ms": _ms(dur("model_jm.fit_mle")),
        "model_jm.objective_evals": objective,
        "model_jm.scan_evals": scan,
        "model_jm.scan_share": None if not objective else scan / objective,
        "model_jm.objective_elems": _median(jm_elems),
        "model_jm.covariance_ms": _ms(dur("model_jm.covariance")),
        "model_jm.ci_ms": _ms(dur("model_jm.confidence_intervals")),
        "model_jm.generate_ms": _ms(dur("model_jm.generate_intervals")),
        "numerics.root_ms": _ms([s[END] - s[START] for s in roots]),
        "numerics.root_evals": _median([s[EVALS] for s in roots]),
        "model_schumann.fit_ms": _ms(dur("model_schumann.fit_mle")),
        "model_schumann.root_evals": _median(schumann_roots),
        "model_schumann.covariance_ms": _ms(dur("model_schumann.covariance")),
        "model_weibull.fit_ms": _ms(dur("model_weibull.fit_moments")),
        "model_weibull.objective_evals": _median(weibull_evals),
        "model_weibull.generate_ms": _ms(dur("model_weibull.generate")),
        "model_nelson.parse_ms": _ms(dur("model_nelson.parse_profiles")),
        "model_nelson.q_ms": _ms(list(q_per_op.values())),
        "debug_economics.parse_ms": _ms(dur("debug_economics.parse_discovery")),
        "debug_economics.fit_ms": _ms(dur("debug_economics.fit_discovery_curve")),
        "fault_tolerance.plan_ms": _ms(dur("fault_tolerance.optimal_module_time")),
        "fault_tolerance.simulate_ms": _ms(dur("fault_tolerance.simulate_dual_execution")),
    }
