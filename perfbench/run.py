"""relgauge benchmark: cold CLI calls, large-record fits and large simulate/emit.

Usage, from the repository root:

    python3 perfbench/run.py --workload {cli-cold,fit-large,simulate-emit}
                             --seed N --seconds S --trace {0,1}

Each workload is a closed loop: one client runs one operation at a time and
checks its output (verify.py) before sending the next.  With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics instead.  The last line of standard output is one JSON
object; the lines before it are the same figures for people, and a detailed
record (environment, inputs, every operation, spans) goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import tracing
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXE = sys.executable
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
COLD = [EXE, "-m", "relgauge.cli"]
SETUP_REPEATS = 3
SETUP_UNITS = 2
# The tail rank n - 10 lies above the median only from 21 samples on.
MIN_SAMPLES = 21
BASELINE_MIN_S = 1.0
LOAD_MODEL = "closed loop, one client, one operation at a time, no threads or pools"


class Runner:
    """Executes operations in-process through ``relgauge.cli.run_cli`` or as cold processes."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.out = workdir / "out.json"
        self.spans_file = workdir / "spans.json"
        self.tracer = None
        self.cold_spans: list[list] = []
        self.first_digest: str | None = None
        self.failures: list[dict] = []
        self.units: list[float] = []

    def execute(self, op, op_id: int) -> dict:
        self.out.unlink(missing_ok=True)
        self.spans_file.unlink(missing_ok=True)
        stderr = ""
        if self.workload.in_process:
            from relgauge import cli

            if self.tracer is not None:
                self.tracer.op = op_id
            start = perf_counter()
            try:
                code = cli.run_cli([*op.args, "--output", str(self.out)])
            except Exception:  # a traceback is a failed operation, not the end of the run
                code, stderr = None, traceback.format_exc()
            latency = perf_counter() - start
        else:
            if self.tracer is not None:
                cmd = [EXE, str(HERE / "traced_cli.py"), str(self.spans_file), str(op_id)]
            else:
                cmd = COLD
            start = perf_counter()
            proc = subprocess.run(
                [*cmd, *op.args, "--output", str(self.out)],
                env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170,
            )
            latency = perf_counter() - start
            code, stderr = proc.returncode, proc.stderr
            if self.tracer is not None and self.spans_file.exists():
                offset = len(self.cold_spans)
                for s in json.loads(self.spans_file.read_text(encoding="utf-8")):
                    s[3] = None if s[3] is None else s[3] + offset
                    self.cold_spans.append(s)
        record = {"op": op_id, "kind": op.kind, "latency_s": latency, "exit": code}
        error, text = self._check(op, code, stderr)
        if text is not None:
            record["bytes"] = len(text.encode("utf-8"))
            if op_id == 0:
                self.first_digest = _digest(text)
        if error is not None:
            record["error"] = error
            self.failures.append(record)
        return record

    def _check(self, op, code: int, stderr: str):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}", None
        try:
            text = self.out.read_text(encoding="utf-8")
            op.check(verify.strict_json(text))
        except OSError as exc:
            return f"no report: {exc}", None
        except (verify.Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}", text
        return None, text

    def loop(self, cycles: int, first: int = 0) -> list[dict]:
        """Run ``cycles`` whole cycles of the mix between calibration units.

        Each record gets ``scaled_s``, its latency on the reference host.
        """
        name, ops = self.workload.name, self.workload.ops
        records = []
        self.units.append(calibration.unit(name))
        for i in range(first, first + cycles * len(ops)):
            record = self.execute(ops[i % len(ops)], i)
            self.units.append(calibration.unit(name))
            record["scaled_s"] = record["latency_s"] * calibration.step_factor(name, *self.units[-2:])
            records.append(record)
        return records

    def repeat_first(self, op_id: int) -> dict:
        """Run operation 0 again: its report must match byte for byte apart from generated_at."""
        record = self.execute(self.workload.ops[0], op_id)
        if "error" not in record:
            if self.first_digest != _digest(self.out.read_text(encoding="utf-8")):
                record["error"] = "repeated operation 0 gave a different report"
                self.failures.append(record)
        return record


def _digest(text: str) -> str:
    return hashlib.sha256(verify.without_timestamp(text).encode("utf-8")).hexdigest()


def set_up(name: str, seed: int, workdir: Path):
    """Generate and write the inputs, then import relgauge.cli in a fresh interpreter; repeated.

    Returns the workload, the set-up times and the calibration units timed
    between them, SETUP_UNITS at a time.
    """
    times, units = [], []
    for _ in range(SETUP_REPEATS):
        units.extend(calibration.unit("set-up") for _ in range(SETUP_UNITS))
        start = perf_counter()
        workload = workloads.build(name, seed, workdir)
        subprocess.run([EXE, "-c", "import relgauge.cli"], env=ENV, check=True, timeout=170)
        times.append(perf_counter() - start)
    units.extend(calibration.unit("set-up") for _ in range(SETUP_UNITS))
    return workload, times, units


def cycles_for(workload, seconds: float) -> int:
    """Whole cycles per run: about ``seconds`` at this commit, and at least MIN_SAMPLES operations.

    The count depends only on ``seconds`` and the mix, never on how fast the
    host or the program is, so each rank picks the same operation kind.
    """
    return max(math.ceil(MIN_SAMPLES / len(workload.ops)), round(seconds / workload.cycle_s))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest percentile with ten samples above it.

    That is the eleventh-largest sample; runs make at least MIN_SAMPLES
    operations, so it lies above the median.
    """
    xs = sorted(latencies)
    rank = len(xs) - 10
    return 100.0 * rank / len(xs), xs[rank - 1], len(xs) - rank


def ops_per_s(records: list[dict], key: str = "latency_s") -> float:
    return len(records) / sum(r[key] for r in records)


def kind_medians(records: list[dict], key: str = "latency_s") -> dict[str, float]:
    """Median latency, in seconds, of each operation kind."""
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r[key])
    return {k: statistics.median(v) for k, v in kinds.items()}


def p50_of_kinds(records: list[dict], key: str = "latency_s") -> float:
    """Median over operation kinds of each kind's median latency.

    With whole cycles this is the pooled median's kind, without the
    pooled median's dependence on how two kinds of similar cost overlap.
    """
    return statistics.median(kind_medians(records, key).values())


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _package_import_us(stderr: str, package: str) -> int:
    """Cumulative -X importtime of ``package`` and its submodules, outermost entries only."""
    entries = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw = fields[2]
        entries.append(((len(raw) - len(raw.lstrip()) - 1) // 2, raw.strip(), int(fields[1])))
    total, stack = 0, []  # entries are listed children first, so walk them parents first
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = name == package or name.startswith(package + ".")
        if match and not inside:
            total += cumulative
        stack.append((level, inside or match))
    return total


def import_probe(repeats: int = 3) -> dict:
    """Import layer of a cold call: -X importtime on the entry point, plus the bare interpreter."""
    samples = {"relgauge": [], "scipy": [], "numpy": []}
    for _ in range(repeats):
        proc = subprocess.run(
            [EXE, "-X", "importtime", *COLD[1:], "--version"],
            env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True, timeout=170,
        )
        for package, values in samples.items():
            values.append(_package_import_us(proc.stderr, package) / 1e3)
    bare = []
    for _ in range(2 * repeats):
        start = perf_counter()
        subprocess.run([EXE, "-c", "pass"], env=ENV, check=True, timeout=170)
        bare.append(perf_counter() - start)
    metrics = {f"import.{p}_ms": statistics.median(v) for p, v in samples.items()}
    metrics["import.interpreter_ms"] = 1e3 * statistics.median(bare)
    return metrics


def baseline_table(seed: int) -> tuple[dict, list[dict]]:
    """ROADMAP baseline: the fit functions called directly at k = 1e3..1e5, P = 1e4, n = 1e6.

    Runs untraced; returns the metrics and one checked record per fit.
    """
    from relgauge import model_jm, model_schumann, model_weibull
    from relgauge.failure_data import DebugPeriod

    rng = np.random.default_rng([seed, 1])
    cases = []
    for label, k in (("k1e3", 1_000), ("k1e4", 10_000), ("k1e5", 100_000)):
        xs = verify.intervals_of(workloads.jm_epochs(rng, k, 1.25 * k))
        cases.append((
            f"model_jm.fit_ms.{label}", lambda xs=xs.tolist(): model_jm.fit_mle(xs),
            lambda fit, xs=xs: verify.jm_fit({"e0": fit.e0_hat, "k": fit.k_hat, "k_obs": fit.k_obs}, xs),
        ))
    instructions = 1_000_000
    periods = workloads.schumann_periods(rng, 10_000, 50_000.0, instructions)
    debug_periods = [
        DebugPeriod(float(t), int(c), float(h), int(n))
        for t, c, h, n in zip(periods["tau"], periods["corrected"], periods["exposure"], periods["failures"])
    ]
    cases.append((
        "model_schumann.fit_ms.p1e4", lambda: model_schumann.fit_mle(debug_periods, instructions),
        lambda fit: verify.schumann_fit({"e0": fit.e0_hat, "c": fit.c_hat}, periods, instructions),
    ))
    draws = rng.weibull(0.7, 1_000_000)
    cases.append((
        "model_weibull.fit_ms.n1e6", lambda xs=draws.tolist(): model_weibull.fit_moments(xs),
        lambda fit: verify.weibull_fit({"m": fit.m, "lambda": fit.lam}, draws),
    ))
    metrics, records = {}, []
    for name, call, check in cases:
        times = []
        try:
            while not times or (sum(times) < BASELINE_MIN_S and len(times) < 5):
                start = perf_counter()
                fit = call()
                times.append(perf_counter() - start)
            check(fit)
        except Exception as exc:  # a fit that raises or fails its check is a failed operation
            records.append({"kind": name, "error": f"{type(exc).__name__}: {exc}"})
        else:
            records.append({"kind": name, "latency_s": statistics.median(times)})
        if times:
            metrics[name] = 1e3 * statistics.median(times)
    return metrics, records


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "load_model": LOAD_MODEL,
        "cold_entry": "python -m relgauge.cli, with src on PYTHONPATH",
    }


def per_kind_p50(records: list[dict]) -> dict:
    return {f"op.{k}.p50_ms": 1e3 * v for k, v in kind_medians(records).items()}


def coverage_pass(seed: int, workdir: Path) -> tuple[dict, list[dict], list[dict]]:
    """Every cold-mix operation once, in-process and traced, for layers the workload never enters."""
    cold = dataclasses.replace(workloads.build("cli-cold", seed, workdir), in_process=True)
    runner = Runner(cold, workdir)
    runner.tracer = tracing.Tracer()
    runner.tracer.install()
    try:
        records = [runner.execute(op, i) for i, op in enumerate(cold.ops)]
    finally:
        runner.tracer.uninstall()
    return tracing.layer_metrics(runner.tracer.spans), records, runner.failures


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> tuple[dict, dict]:
    bench_start = perf_counter()
    workload, setup_times, setup_units = set_up(name, seed, workdir)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "environment": environment(),
        "inputs": {"sizes": workload.sizes, "sha256": workloads.sha256s(workload)},
        "mix": [{"kind": op.kind, "args": op.args} for op in workload.ops],
        "setup_s_samples": setup_times,
    }
    if workload.in_process or traced:
        sys.path.insert(0, str(SRC))
        import relgauge.cli  # noqa: F401  the in-process import is part of set-up

        if not Path(relgauge.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"relgauge was imported from {relgauge.cli.__file__}, not from {SRC}")
    detail["first_op_after_s"] = perf_counter() - bench_start
    detail["peak_rss_mb_before_loop"] = peak_rss_mb(workload.in_process)
    runner = Runner(workload, workdir)
    cycles = cycles_for(workload, seconds)

    if not traced:
        records = runner.loop(cycles)
        repeat = runner.repeat_first(len(records))
        _calibrate(name, runner.units, setup_units, detail)
        p, value, beyond = tail([r["scaled_s"] for r in records])
        metrics = {
            "setup_s": (statistics.median(setup_times) * detail["calibration"]["setup_factor"], "s"),
            "ops_per_s": (ops_per_s(records, "scaled_s"), "1/s"),
            "latency_p50_ms": (1e3 * p50_of_kinds(records, "scaled_s"), "ms"),
            "latency_tail_ms": (1e3 * value, "ms"),
            "peak_rss_mb": (peak_rss_mb(workload.in_process), "MB"),
        }
        detail["latency_tail"] = {"percentile": p, "samples": len(records), "samples_beyond": beyond}
        detail["unscaled"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops_per_s(records),
            "latency_p50_ms": 1e3 * p50_of_kinds(records),
            "latency_tail_ms": 1e3 * tail([r["latency_s"] for r in records])[1],
        }
        attempted = [*records, repeat]
        failures = runner.failures
    else:
        half = max(1, cycles // 2)
        plain = runner.loop(half)
        runner.tracer = tracing.Tracer()
        if workload.in_process:
            runner.tracer.install()
        try:
            traced_records = runner.loop(half, first=len(plain))
        finally:
            runner.tracer.uninstall()
        spans = runner.tracer.spans if workload.in_process else runner.cold_spans
        runner.tracer = None
        repeat = runner.repeat_first(len(plain) + len(traced_records))
        records = [*plain, *traced_records]
        layers = tracing.layer_metrics(spans)
        ops = per_kind_p50(records)
        cover_layers, cover_records, cover_failures = coverage_pass(seed, workdir / "coverage")
        cover_ops = per_kind_p50(cover_records)
        from_coverage = sorted(k for k, v in layers.items() if v is None) + sorted(cover_ops.keys() - ops.keys())
        layers.update({k: cover_layers[k] for k in from_coverage if k in layers})
        baseline, baseline_records = baseline_table(seed)
        scale = _calibrate(name, runner.units, setup_units, detail)
        values = {
            **import_probe(),
            **layers,
            "cli.emit_bytes": statistics.median(r["bytes"] for r in records if "bytes" in r),
            **cover_ops,
            **ops,
            **baseline,
            "trace.overhead_frac": ops_per_s(plain, "scaled_s") / ops_per_s(traced_records, "scaled_s") - 1.0,
        }
        metrics = {k: (scale * v if _unit(k) == "ms" else v, _unit(k)) for k, v in values.items()}
        metrics["host.calibration_ms"] = (1e3 * calibration.REFERENCE_S[name] / scale, "ms")
        detail["from_coverage_pass"] = from_coverage
        detail["self_ms_per_op"] = {
            layer: 1e3 * total / len(traced_records) for layer, total in tracing.self_time_by_layer(spans).items()
        }
        detail["spans"] = {"fields": ["name", "start", "end", "parent", "op", "evals", "size"], "workload": spans}
        attempted = [*records, repeat, *cover_records, *baseline_records]
        failures = [*runner.failures, *cover_failures, *(r for r in baseline_records if "error" in r)]
    detail["operations"] = records
    detail["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def _calibrate(name: str, units: list[float], setup_units: list[float], detail: dict) -> float:
    """Record the run's calibration units; returns the factor for times not bracketed one by one."""
    detail["calibration"] = {
        "units_s": units,
        "reference_s": calibration.REFERENCE_S[name],
        "factor": calibration.factor(name, units),
        "setup_units_s": setup_units,
        "setup_factor": calibration.factor("set-up", setup_units),
    }
    return detail["calibration"]["factor"]


def _unit(name: str) -> str:
    if name.endswith("_ms") or ".fit_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac") or name.endswith("_share"):
        return "fraction"
    return "count"


def report(result: dict, detail: dict) -> None:
    print(f"relgauge benchmark: workload={detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']}")
    print("environment: " + json.dumps(detail["environment"]))
    print("inputs: " + json.dumps(detail["inputs"]))
    for name, m in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            t = detail["latency_tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} samples, {t['samples_beyond']} beyond)"
        if name in detail.get("from_coverage_pass", ()):
            note = "  (from the coverage pass)"
        if name in detail.get("unscaled", {}):
            note += f"  (unscaled {detail['unscaled'][name]:.6g})"
        if name == "peak_rss_mb":
            note = f"  (before the first operation {detail['peak_rss_mb_before_loop']:.1f})"
        print(f"  {name:34s} {m['value']!r:>22} {m['unit']}{note}")
    cal = detail["calibration"]
    mean = cal["reference_s"] / cal["factor"]
    print(f"calibration unit: mean {1e3 * mean:.3f} ms over {len(cal['units_s'])}, reference "
          f"{1e3 * cal['reference_s']:.3f} ms; operations are scaled by the units around each, "
          f"set-up by {cal['setup_factor']:.4f}, spans and probes by {cal['factor']:.4f}")
    if "self_ms_per_op" in detail:
        print("self time per traced operation, by layer (ms): " + json.dumps(detail["self_ms_per_op"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':34s} {failed / attempted!r:>22} fraction  ({failed} of {attempted} operations)")
    for f in detail["failures"][:5]:
        print(f"  FAILED {f.get('kind')}: {f.get('error')}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli-cold", "fit-large", "simulate-emit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "relgauge" / "cli.py").is_file():
        print(f"relgauge sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, **detail}), encoding="utf-8")
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
