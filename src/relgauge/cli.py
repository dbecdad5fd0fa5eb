"""Command line entry point producing reproducible JSON reports.

Verbs: ``fit`` (estimate model parameters from CSV data), ``economics``
(optimal debugging stop time), ``faulttol`` (double-execution planning),
``simulate`` (seeded synthetic data), ``predict`` (point predictions from
given parameters).  Exit codes: 0 success, 1 usage error, 2 malformed or
out-of-domain data, 3 estimation failure.  Errors are reported as a single
JSON line on standard error.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import sys
import time
from _json import encode_basestring_ascii  # the C function json.encoder hands out on CPython
from collections.abc import Callable
from types import SimpleNamespace

# Each handler imports the model module it calls, so a call loads only its own
# model, and failure_data is loaded only by the verbs that read its formats. A
# fit's report is built by its model's ``report``; the handlers here only read,
# fit and attach the covariance.
from . import __version__
from .errors import DataError, DomainError, EstimationError, OutOfRange, ParseError
from .numerics import check_level

# The failure_data functions the handlers call, as attributes of this module:
# __getattr__ imports them on first use, and the handlers call them through
# _cli, so a wrapper set on the module (perfbench/tracing.py sets one) is the
# function called.
_FAILURE_DATA = (
    "intervals_from_epochs",
    "parse_debug_periods",
    "parse_failure_epochs",
    "parse_run_log",
)
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """Import the failure_data function ``name`` on first access and keep it in the namespace."""
    if name not in _FAILURE_DATA:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import failure_data

    value = getattr(failure_data, name)
    globals()[name] = value  # later lookups skip this function
    return value


class UsageError(Exception):
    """The command line itself is wrong: an unknown verb, a missing or malformed flag."""


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

    with open(path, "rb") as file:
        data = file.read()
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


def _utc_now() -> str:
    """The current UTC time as datetime's isoformat writes it, without importing datetime."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def _provenance(inputs: list[dict], seed: int | None) -> dict:
    return {
        "inputs": inputs,
        "seed": seed,
        "version": __version__,
        "generated_at": _utc_now(),
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
    # A subclass of a scalar type (an IntEnum, say) is written as json.dumps writes its base type.
    write = next((_SCALARS[t] for t in type(value).__mro__ if t in _SCALARS), None)
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
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _non_finite(value, path: str = "") -> str | None:
    """The key path, such as ``ci.e0[1]``, of the first non-finite float in ``value``, in _encode's order."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, value[key]) for key in sorted(value))
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return path if isinstance(value, float) and not math.isfinite(value) else None
    return next((found for key, item in items if (found := _non_finite(item, key)) is not None), None)


def _emit(report: dict, output: str | None) -> None:
    try:
        body = _encode(report) + "\n"
    except ValueError as exc:
        field = _non_finite(report)
        raise OutOfRange(f"report field {field} holds a value that is not a finite number: {exc}") from exc
    if output:
        with open(output, "w", encoding="utf-8") as file:
            file.write(body)
    else:
        sys.stdout.write(body)


def _handle_fit_schumann(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_schumann

    check_level(ns.confidence)  # before the input is read, so a failing fit cannot hide it
    periods = _cli.parse_debug_periods(read("input", ns.input))
    fit = model_schumann.fit_mle(periods, ns.instructions)
    fit = model_schumann.covariance(fit, periods)
    return model_schumann.report(fit, ns.confidence, len(periods))


def _handle_fit_jm(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_jm

    check_level(ns.confidence)  # before the input is read, so a failing fit cannot hide it
    intervals = _cli.intervals_from_epochs(_cli.parse_failure_epochs(read("input", ns.input)))
    fit = model_jm.fit_mle(intervals)
    fit = model_jm.covariance(fit, intervals)
    return model_jm.report(fit, ns.confidence)


def _handle_fit_weibull(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_weibull

    intervals = _cli.intervals_from_epochs(_cli.parse_failure_epochs(read("input", ns.input)))
    fit = model_weibull.fit_moments(intervals, model_weibull.MomentForm(ns.moment_form))
    return model_weibull.report(fit, len(intervals))


def _handle_fit_nelson(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_nelson
    from .failure_data import Outcome

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
        log = _cli.parse_run_log(read("simplified", ns.simplified))
        error_free = [1 if r.outcome is Outcome.SUCCESS else 0 for r in log.runs]
        if ns.weights:
            weights = model_nelson.parse_weights(read("weights", ns.weights))
        else:
            weights = [1.0] * len(error_free)
        report["simplified"] = model_nelson.simplified_reliability(error_free, weights)
    return report


def _handle_economics(ns: SimpleNamespace, read: _Read) -> dict:
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
            "mttf_at_tau_m": debug_economics.mttf_at_optimum(params, econ, optimum),
        }
    )
    return report


def _handle_faulttol(ns: SimpleNamespace, read: _Read) -> dict:
    from . import fault_tolerance

    for flag, value in (("--module-time", ns.module_time), ("--seed", ns.seed)):
        if value is not None and ns.simulate is None:
            raise UsageError(f"{flag} requires --simulate")
    config = fault_tolerance.DualRunConfig(
        total_time=ns.total_time, overhead=ns.overhead, failure_rate=ns.failure_rate
    )
    plan = fault_tolerance.optimal_module_time(config)
    report = dict(vars(plan))
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
    fault_tolerance.check_plan(config, plan)  # after the simulation's own errors
    return report


def _handle_simulate_jm(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_jm

    _check_count("--count", ns.count)
    intervals = model_jm.generate_intervals(ns.e0, ns.k, ns.count, ns.seed)
    return {
        "model": "jm",
        "intervals": intervals,
        "epochs": list(itertools.accumulate(intervals)),
    }


def _handle_simulate_schumann(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_schumann

    schedule = model_schumann.parse_schedule(read("schedule", ns.schedule))
    periods = model_schumann.generate_periods(
        ns.e0, ns.c, ns.instructions, schedule, ns.seed
    )
    return {"model": "schumann", "periods": list(map(vars, periods))}


def _handle_simulate_weibull(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_weibull

    _check_count("--count", ns.count)
    times = model_weibull.generate(ns.shape, ns.scale, ns.count, ns.seed)
    return {"model": "weibull", "times": times}


def _handle_predict_schumann(ns: SimpleNamespace, read: _Read) -> dict:
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


def _handle_predict_jm(ns: SimpleNamespace, read: _Read) -> dict:
    from . import model_jm

    return {
        "model": "jm",
        "intensity": model_jm.intensity(ns.e0, ns.k, ns.index),
        "reliability": model_jm.reliability(ns.e0, ns.k, ns.index, ns.dt),
    }


def _handle_predict_weibull(ns: SimpleNamespace, read: _Read) -> dict:
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


# The verbs that take a model, with their help.
_GROUPS = {
    "fit": "estimate model parameters from CSV data",
    "simulate": "generate seeded synthetic data",
    "predict": "point predictions from given parameters",
}
_REQUIRED_FLOAT = {"type": float, "required": True}
_REQUIRED_INT = {"type": int, "required": True}


def _command(handler: Callable, help: str | None, flags: dict) -> tuple:
    # --output last, so that every command's help lists its own flags first.
    return handler, help, {**flags, "--output": {"help": "write the JSON report here instead of stdout"}}


# Each command once: (verb, model or None) -> (handler, help, flags), each flag
# with the keywords argparse's add_argument takes for it.  A command without
# help is not listed in its verb's help.
_COMMANDS = {
    ("fit", "schumann"): _command(_handle_fit_schumann, "exponential growth model over debugging periods", {
        "--input": {"required": True, "help": "periods.csv (tau,corrected,exposure,failures)"},
        "--instructions": {**_REQUIRED_INT, "help": "program size in instructions"},
        "--confidence": {"type": float, "default": 0.95},
    }),
    ("fit", "jm"): _command(_handle_fit_jm, "stepwise intensity model over failure epochs", {
        "--input": {"required": True, "help": "failures.csv (epoch)"},
        "--confidence": {"type": float, "default": 0.95},
    }),
    ("fit", "weibull"): _command(_handle_fit_weibull, "Weibull moment fit over failure epochs", {
        "--input": {"required": True, "help": "failures.csv (epoch)"},
        # The MomentForm values, spelled out so the parser does not load model_weibull.
        "--moment-form": {"choices": ["cv", "literal"], "default": "cv"},
    }),
    ("fit", "nelson"): _command(_handle_fit_nelson, "input-profile reliability estimate", {
        "--profile": {"required": True, "help": "profile.csv (p,y or run,p,y)"},
        "--simplified": {"help": "runs.csv for the weighted run-fraction estimate"},
        "--weights": {"help": "w.csv (weight) matching the runs file"},
    }),
    ("economics", None): _command(_handle_economics, "optimal debugging stop time", {
        "--eps0": {"type": float, "help": "initial error count"},
        "--tau0": {"type": float, "help": "discovery decay time constant"},
        "--size": {**_REQUIRED_INT, "help": "program size in commands"},
        "--tempo": {**_REQUIRED_FLOAT, "help": "commands executed per time unit"},
        "--cost-error": {**_REQUIRED_FLOAT, "help": "loss per in-service failure"},
        "--cost-test": {**_REQUIRED_FLOAT, "help": "cost per debugging time unit"},
        "--horizon": {**_REQUIRED_FLOAT, "help": "planned operating time"},
        "--fit": {"help": "discovery.csv (tau,corrected) to fit eps0 and tau0 from"},
    }),
    ("faulttol", None): _command(_handle_faulttol, "double-execution module planning", {
        "--total-time": {**_REQUIRED_FLOAT, "help": "single-pass program time"},
        "--overhead": {**_REQUIRED_FLOAT, "help": "per-module comparison overhead"},
        "--failure-rate": {**_REQUIRED_FLOAT, "help": "failure intensity"},
        "--simulate": {"type": int, "help": "also simulate this many modules"},
        "--seed": {"type": int, "help": "seed for --simulate"},
        "--module-time": {"type": float, "help": "simulate at this module time instead of t*"},
    }),
    ("simulate", "jm"): _command(_handle_simulate_jm, "inter-failure intervals", {
        "--e0": _REQUIRED_FLOAT, "--k": _REQUIRED_FLOAT, "--count": _REQUIRED_INT, "--seed": _REQUIRED_INT,
    }),
    ("simulate", "schumann"): _command(_handle_simulate_schumann, "debugging-period failure counts", {
        "--e0": _REQUIRED_FLOAT,
        "--c": _REQUIRED_FLOAT,
        "--instructions": _REQUIRED_INT,
        "--schedule": {"required": True, "help": "schedule.csv (tau,corrected,exposure)"},
        "--seed": _REQUIRED_INT,
    }),
    ("simulate", "weibull"): _command(_handle_simulate_weibull, "failure times", {
        "--shape": _REQUIRED_FLOAT, "--scale": _REQUIRED_FLOAT, "--count": _REQUIRED_INT, "--seed": _REQUIRED_INT,
    }),
    # No help: a help string would list the model in `relgauge predict --help`.
    ("predict", "schumann"): _command(_handle_predict_schumann, None, {
        "--e0": _REQUIRED_FLOAT,
        "--c": _REQUIRED_FLOAT,
        "--instructions": _REQUIRED_INT,
        "--corrected": {**_REQUIRED_INT, "help": "errors corrected so far"},
        "--time": {**_REQUIRED_FLOAT, "help": "exposure to survive"},
    }),
    ("predict", "jm"): _command(_handle_predict_jm, None, {
        "--e0": _REQUIRED_FLOAT,
        "--k": _REQUIRED_FLOAT,
        "--index": {**_REQUIRED_INT, "help": "failure index being awaited"},
        "--dt": {**_REQUIRED_FLOAT, "help": "time beyond the last failure"},
    }),
    ("predict", "weibull"): _command(_handle_predict_weibull, None, {
        "--shape": _REQUIRED_FLOAT, "--scale": _REQUIRED_FLOAT, "--time": _REQUIRED_FLOAT,
    }),
}


def _read_args(args: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``args`` when they read ``verb [model] --flag value ...``, else None.

    Every flag must be one of the command's, in full and at most once, and
    every required one present; no value may start with "-", and each must
    convert with its flag's type and be one of its choices.  Anything else,
    help and usage errors included, is left to argparse.
    """
    if not args or not all(type(arg) is str for arg in args):
        return None
    key = (args[0], args[1] if args[0] in _GROUPS and len(args) > 1 else None)
    if key not in _COMMANDS:
        return None
    handler, _, flags = _COMMANDS[key]
    rest = args[1 if key[1] is None else 2 :]
    given = dict(zip(rest[::2], rest[1::2]))
    if len(rest) % 2 or len(given) < len(rest) // 2 or not given.keys() <= flags.keys():
        return None
    values = {"verb": key[0], **({} if key[1] is None else {"model": key[1]}), "handler": handler}
    for flag, spec in flags.items():
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default")
            continue
        text = given[flag]
        if text.startswith("-"):
            return None
        try:
            values[dest] = spec.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and values[dest] not in spec["choices"]:
            return None
    return SimpleNamespace(**values)


@functools.cache  # parse_args leaves the parser as it is, so one serves every call and thread
def _build_parser():
    """argparse's parser for ``_COMMANDS``, for the command lines :func:`_read_args` leaves to it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """An argument parser that raises UsageError where argparse would print usage and exit."""

        def error(self, message: str):
            raise UsageError(f"{self.prog}: {message}")

    parser = Parser(prog="relgauge", description="Reliability estimation for tested software")
    parser.add_argument("--version", action="version", version=f"relgauge {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True)
    groups = {}
    for (verb, model), (handler, help, flags) in _COMMANDS.items():
        if model is not None and verb not in groups:  # created at its first model, so verbs keep their order
            groups[verb] = verbs.add_parser(verb, help=_GROUPS[verb]).add_subparsers(dest="model", required=True)
        group = verbs if model is None else groups[verb]
        p = group.add_parser(model or verb, **({} if help is None else {"help": help}))
        p.set_defaults(handler=handler)
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
    return parser


def _fail(exc: BaseException, code: int) -> int:
    name, message = map(encode_basestring_ascii, (type(exc).__name__, str(exc)))
    print(f'{{"error": {name}, "message": {message}, "exit_code": {code}}}', file=sys.stderr)
    return code


def run_cli(args: list[str]) -> int:
    inputs: list[dict] = []
    try:
        ns = _read_args(args) or _build_parser().parse_args(args)
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
    code = run_cli(sys.argv[1:])
    # The objects made so far leave the collector's view, so the collection at
    # interpreter exit skips them; the OS frees their memory with the process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
