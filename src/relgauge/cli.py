"""Command line entry point producing reproducible JSON reports.

Verbs: ``fit`` (estimate model parameters from CSV data), ``economics``
(optimal debugging stop time), ``faulttol`` (double-execution planning),
``simulate`` (seeded synthetic data), ``predict`` (point predictions from
given parameters).  Exit codes: 0 success, 1 usage error, 2 malformed or
out-of-domain data, 3 estimation failure.  Errors are reported as a single
JSON line on standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

# Each handler imports the model module it calls, so a call loads only its own
# model. A fit's report is built by its model's ``report``; the handlers here
# only read, fit and attach the covariance. The failure_data names stay globals
# here because perfbench/tracing.py wraps them as cli attributes.
from . import __version__
from .errors import DataError, DomainError, EstimationError, OutOfRange, ParseError
from .failure_data import (
    Outcome,
    intervals_from_epochs,
    parse_debug_periods,
    parse_failure_epochs,
    parse_run_log,
)
from .numerics import check_level


class UsageError(Exception):
    """The command line itself is wrong: an unknown verb, a missing or malformed flag."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print usage and exit."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


# Handlers read their input files through this: read(role, path) -> text.
_Read = Callable[[str, str], str]

# The most 8-byte items one array can hold; numpy refuses more with a ValueError.
_MAX_ITEMS = sys.maxsize // 8


def _check_count(flag: str, count: int) -> None:
    """Raise DomainError naming ``flag`` when no array can hold ``count`` draws."""
    if count > _MAX_ITEMS:
        raise DomainError(f"{flag} {count} is more than one array can hold (at most {_MAX_ITEMS})")


def _read_input(inputs: list[dict], role: str, path: str) -> str:
    """Read an input file once: record its SHA-256 for provenance, decode it as UTF-8.

    One leading byte-order mark, as spreadsheet programs write it, is dropped.
    """
    import hashlib

    data = Path(path).read_bytes()
    inputs.append({"role": role, "path": path, "sha256": hashlib.sha256(data).hexdigest()})
    try:
        # Drop the mark after decoding, so an error offset counts from the file's start.
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # The sentinel byte makes a partial last line count as a line.
        row = len((data[: exc.start] + b".").splitlines())
        raise ParseError(
            f"{path} is not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}", row=row
        ) from None


def _provenance(inputs: list[dict], seed: int | None) -> dict:
    return {
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


_BLOCK = 4096  # floats joined at a time

# How json.dumps writes each plain scalar type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _encode(value, pad: str = "") -> str:
    """``value`` laid out as json.dumps(indent=2, sort_keys=True, allow_nan=False) does.

    json's indented encoder is pure Python and handles each item on its
    own; a list of plain floats is joined here in C, a block at a time.
    Dict keys must be strings.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        brackets = "{}"
        items = (
            f"{encode_basestring_ascii(key)}: {_encode(value[key], inner)}" for key in sorted(value)
        )
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        brackets = "[]"
        if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
            # Joined a block at a time, so the item strings of one block at most are alive.
            sep = f",\n{inner}"
            items = (
                sep.join(map(float.__repr__, value[i : i + _BLOCK]))
                for i in range(0, len(value), _BLOCK)
            )
        else:
            # Item by item; a non-finite float raises when it is reached.
            items = [
                write(x) if (write := _SCALARS.get(type(x))) else _encode(x, inner) for x in value
            ]
    elif isinstance(value, float):
        return _float(value)
    else:
        return json.dumps(value)  # a str or int subclass; TypeError for any other type
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _emit(report: dict, output: str | None) -> None:
    try:
        body = _encode(report) + "\n"
    except ValueError as exc:
        raise OutOfRange(f"report holds a value that is not a finite number: {exc}") from exc
    if output:
        Path(output).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _handle_fit_schumann(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_schumann

    check_level(ns.confidence)  # before the input is read, so a failing fit cannot hide it
    periods = parse_debug_periods(read("input", ns.input))
    fit = model_schumann.fit_mle(periods, ns.instructions)
    fit = model_schumann.covariance(fit, periods)
    return model_schumann.report(fit, ns.confidence, len(periods))


def _handle_fit_jm(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_jm

    check_level(ns.confidence)  # before the input is read, so a failing fit cannot hide it
    intervals = intervals_from_epochs(parse_failure_epochs(read("input", ns.input)))
    fit = model_jm.fit_mle(intervals)
    fit = model_jm.covariance(fit, intervals)
    return model_jm.report(fit, ns.confidence)


def _handle_fit_weibull(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_weibull

    intervals = intervals_from_epochs(parse_failure_epochs(read("input", ns.input)))
    fit = model_weibull.fit_moments(intervals, model_weibull.MomentForm(ns.moment_form))
    return model_weibull.report(fit, len(intervals))


def _handle_fit_nelson(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_nelson

    if ns.weights and not ns.simplified:
        raise UsageError("--weights requires --simplified")
    profiles = model_nelson.parse_profiles(read("profile", ns.profile))
    qs = [model_nelson.run_failure_prob(p) for p in profiles]
    report = {
        "model": "nelson",
        "runs": len(qs),
        "q": qs,
        "reliability": model_nelson.reliability_n(qs),
        "certain_failure": any(q == 1.0 for q in qs),
    }
    if ns.simplified:
        log = parse_run_log(read("simplified", ns.simplified))
        error_free = [1 if r.outcome is Outcome.SUCCESS else 0 for r in log.runs]
        if ns.weights:
            weights = model_nelson.parse_weights(read("weights", ns.weights))
        else:
            weights = [1.0] * len(error_free)
        report["simplified"] = model_nelson.simplified_reliability(error_free, weights)
    return report


def _handle_economics(ns: argparse.Namespace, read: _Read) -> dict:
    from . import debug_economics

    if ns.fit and (ns.eps0 is not None or ns.tau0 is not None):
        raise UsageError("--fit cannot be combined with --eps0 or --tau0")
    report: dict = {}
    eps0, tau0 = ns.eps0, ns.tau0
    if ns.fit:
        observations = debug_economics.parse_discovery(read("discovery", ns.fit))
        eps0, tau0 = debug_economics.fit_discovery_curve(observations, ns.size)
        report["fitted"] = {"eps0": eps0, "tau0": tau0}
    if eps0 is None or tau0 is None:
        raise UsageError("economics requires --eps0 and --tau0, or --fit with a discovery file")
    params = debug_economics.DiscoveryParams(
        eps0=eps0, tau0=tau0, commands=ns.size, tempo=ns.tempo
    )
    econ = debug_economics.EconParams(
        cost_error=ns.cost_error, cost_test=ns.cost_test, horizon=ns.horizon
    )
    optimum = debug_economics.optimal_debug_time(params, econ)
    report.update(
        {
            "tau_m": optimum.tau_m,
            "cost_at_tau_m": optimum.cost,
            "boundary": optimum.boundary,
            "mttf_at_tau_m": debug_economics.mttf(params, optimum.tau_m),
        }
    )
    return report


def _handle_faulttol(ns: argparse.Namespace, read: _Read) -> dict:
    from . import fault_tolerance

    for flag, value in (("--module-time", ns.module_time), ("--seed", ns.seed)):
        if value is not None and ns.simulate is None:
            raise UsageError(f"{flag} requires --simulate")
    config = fault_tolerance.DualRunConfig(
        total_time=ns.total_time, overhead=ns.overhead, failure_rate=ns.failure_rate
    )
    plan = fault_tolerance.optimal_module_time(config)
    report = dataclasses.asdict(plan)
    if ns.simulate is not None:
        if ns.seed is None:
            raise UsageError("--simulate requires --seed")
        _check_count("--simulate", ns.simulate)
        t = ns.module_time if ns.module_time is not None else plan.t_star
        result = fault_tolerance.simulate_dual_execution(config, t, ns.simulate, ns.seed)
        report["simulation"] = {
            "module_time": t,
            "modules": ns.simulate,
            "mean_executions": result.mean_executions,
            "histogram": [[i, c] for i, c in sorted(result.histogram.items())],
            "elapsed": result.elapsed,
        }
    return report


def _handle_simulate_jm(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_jm

    _check_count("--count", ns.count)
    intervals = model_jm.generate_intervals(ns.e0, ns.k, ns.count, ns.seed)
    return {
        "model": "jm",
        "intervals": intervals,
        "epochs": list(itertools.accumulate(intervals)),
    }


def _handle_simulate_schumann(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_schumann

    schedule = model_schumann.parse_schedule(read("schedule", ns.schedule))
    periods = model_schumann.generate_periods(
        ns.e0, ns.c, ns.instructions, schedule, ns.seed
    )
    return {"model": "schumann", "periods": list(map(vars, periods))}


def _handle_simulate_weibull(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_weibull

    _check_count("--count", ns.count)
    times = model_weibull.generate(ns.shape, ns.scale, ns.count, ns.seed)
    return {"model": "weibull", "times": times}


def _handle_predict_schumann(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_schumann

    fit = model_schumann.SchumannFit(
        e0_hat=ns.e0, c_hat=ns.c, instructions=ns.instructions
    )
    eps_b = ns.corrected / ns.instructions
    return {
        "model": "schumann",
        "reliability": model_schumann.reliability(fit, eps_b, ns.time),
        "mttf": model_schumann.mttf(fit, eps_b),
    }


def _handle_predict_jm(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_jm

    return {
        "model": "jm",
        "intensity": model_jm.intensity(ns.e0, ns.k, ns.index),
        "reliability": model_jm.reliability(ns.e0, ns.k, ns.index, ns.dt),
    }


def _handle_predict_weibull(ns: argparse.Namespace, read: _Read) -> dict:
    from . import model_weibull

    fit = model_weibull.WeibullFit(m=ns.shape, lam=ns.scale)
    report = {
        "model": "weibull",
        "reliability": model_weibull.reliability(fit, ns.time),
        "mttf": model_weibull.mttf(fit),
    }
    if ns.time > 0.0 or fit.m >= 1.0:
        report["hazard"] = model_weibull.hazard(fit, ns.time)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relgauge", description="Reliability estimation for tested software")
    parser.add_argument("--version", action="version", version=f"relgauge {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True)
    commands = []

    def command(group, name: str, handler, **help) -> argparse.ArgumentParser:
        p = group.add_parser(name, **help)
        p.set_defaults(handler=handler)
        commands.append(p)
        return p

    def subcommands(name: str, help: str):
        return verbs.add_parser(name, help=help).add_subparsers(dest="model", required=True)

    fit = subcommands("fit", "estimate model parameters from CSV data")

    p = command(
        fit, "schumann", _handle_fit_schumann, help="exponential growth model over debugging periods"
    )
    p.add_argument("--input", required=True, help="periods.csv (tau,corrected,exposure,failures)")
    p.add_argument("--instructions", type=int, required=True, help="program size in instructions")
    p.add_argument("--confidence", type=float, default=0.95)

    p = command(fit, "jm", _handle_fit_jm, help="stepwise intensity model over failure epochs")
    p.add_argument("--input", required=True, help="failures.csv (epoch)")
    p.add_argument("--confidence", type=float, default=0.95)

    p = command(fit, "weibull", _handle_fit_weibull, help="Weibull moment fit over failure epochs")
    p.add_argument("--input", required=True, help="failures.csv (epoch)")
    p.add_argument(
        "--moment-form",
        # The MomentForm values, spelled out so the parser does not load model_weibull.
        choices=["cv", "literal"],
        default="cv",
    )

    p = command(fit, "nelson", _handle_fit_nelson, help="input-profile reliability estimate")
    p.add_argument("--profile", required=True, help="profile.csv (p,y or run,p,y)")
    p.add_argument("--simplified", help="runs.csv for the weighted run-fraction estimate")
    p.add_argument("--weights", help="w.csv (weight) matching the runs file")

    p = command(verbs, "economics", _handle_economics, help="optimal debugging stop time")
    p.add_argument("--eps0", type=float, help="initial error count")
    p.add_argument("--tau0", type=float, help="discovery decay time constant")
    p.add_argument("--size", type=int, required=True, help="program size in commands")
    p.add_argument("--tempo", type=float, required=True, help="commands executed per time unit")
    p.add_argument("--cost-error", type=float, required=True, help="loss per in-service failure")
    p.add_argument("--cost-test", type=float, required=True, help="cost per debugging time unit")
    p.add_argument("--horizon", type=float, required=True, help="planned operating time")
    p.add_argument("--fit", help="discovery.csv (tau,corrected) to fit eps0 and tau0 from")

    p = command(verbs, "faulttol", _handle_faulttol, help="double-execution module planning")
    p.add_argument("--total-time", type=float, required=True, help="single-pass program time")
    p.add_argument("--overhead", type=float, required=True, help="per-module comparison overhead")
    p.add_argument("--failure-rate", type=float, required=True, help="failure intensity")
    p.add_argument("--simulate", type=int, help="also simulate this many modules")
    p.add_argument("--seed", type=int, help="seed for --simulate")
    p.add_argument("--module-time", type=float, help="simulate at this module time instead of t*")

    simulate = subcommands("simulate", "generate seeded synthetic data")

    p = command(simulate, "jm", _handle_simulate_jm, help="inter-failure intervals")
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command(simulate, "schumann", _handle_simulate_schumann, help="debugging-period failure counts")
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--instructions", type=int, required=True)
    p.add_argument("--schedule", required=True, help="schedule.csv (tau,corrected,exposure)")
    p.add_argument("--seed", type=int, required=True)

    p = command(simulate, "weibull", _handle_simulate_weibull, help="failure times")
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    predict = subcommands("predict", "point predictions from given parameters")

    # No help: a help string would list the model in `relgauge predict --help`.
    p = command(predict, "schumann", _handle_predict_schumann)
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--instructions", type=int, required=True)
    p.add_argument("--corrected", type=int, required=True, help="errors corrected so far")
    p.add_argument("--time", type=float, required=True, help="exposure to survive")

    p = command(predict, "jm", _handle_predict_jm)
    p.add_argument("--e0", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--index", type=int, required=True, help="failure index being awaited")
    p.add_argument("--dt", type=float, required=True, help="time beyond the last failure")

    p = command(predict, "weibull", _handle_predict_weibull)
    p.add_argument("--shape", type=float, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--time", type=float, required=True)

    # Last, so that every command's help lists its own flags first.
    for p in commands:
        p.add_argument("--output", help="write the JSON report here instead of stdout")
    return parser


def _fail(exc: BaseException, code: int) -> int:
    line = json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    )
    print(line, file=sys.stderr)
    return code


def run_cli(args: list[str]) -> int:
    inputs: list[dict] = []
    try:
        ns = _build_parser().parse_args(args)
        report = ns.handler(ns, functools.partial(_read_input, inputs))
        report["provenance"] = _provenance(inputs, getattr(ns, "seed", None))
        _emit(report, ns.output)
    except SystemExit:
        return 0  # --help or --version, printed by argparse; usage errors raise UsageError
    except UsageError as exc:
        return _fail(exc, 1)
    except DataError as exc:
        return _fail(exc, 2)
    except EstimationError as exc:
        return _fail(exc, 3)
    except OverflowError as exc:
        return _fail(OutOfRange(f"a result overflowed a float: {exc}"), 2)
    except MemoryError as exc:
        return _fail(OutOfRange(f"not enough memory: {exc}"), 2)
    except OSError as exc:
        return _fail(exc, 2)
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
