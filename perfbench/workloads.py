"""Seeded inputs and operation mixes for the three workloads.

All inputs are drawn with numpy from the ``--seed`` argument, from models
that show genuine reliability growth, so that every fit exists; relgauge's
own generators are never used, so the program cannot change its inputs.
Every operation carries a check built from the same arrays (see verify.py).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import verify


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind (``<verb>_<model>``), argv without --output, and its check."""

    kind: str
    args: list[str]
    check: Callable[[dict], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    in_process: bool
    # Rough time of one cycle at this commit.  It only sets how many whole
    # cycles a run makes for a given --seconds, so the number is fixed and
    # every run times the same multiset of operation kinds.
    cycle_s: float
    sizes: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)


def _f(x: float) -> str:
    return repr(float(x))


def _write(workdir: Path, name: str, header: str, columns: list, fmt: list) -> Path:
    rows = zip(*[[f(v) for v in col] for col, f in zip(columns, fmt)])
    path = workdir / name
    path.write_text(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
    return path


def jm_epochs(rng: np.random.Generator, k: int, e0: float) -> np.ndarray:
    """k JM failure epochs from e0 errors: each fix lowers the failure rate."""
    rates = (e0 - np.arange(k)) / e0
    return np.cumsum(rng.exponential(1.0 / rates))


def schumann_periods(rng: np.random.Generator, count: int, e0: float, instructions: int) -> dict:
    """Periods over which 70 % of e0 errors get corrected; failures are Poisson."""
    corrected = np.floor(np.linspace(0.0, 0.7 * e0, count)).astype(np.int64)
    exposure = rng.uniform(0.5, 1.5, count)
    c = 10.0 * instructions / e0  # about ten failures per period at the start
    failures = rng.poisson(c * (e0 - corrected) / instructions * exposure)
    return {
        "tau": np.arange(1.0, count + 1.0),
        "corrected": corrected,
        "exposure": exposure,
        "failures": failures,
        "e0": e0,
        "c": c,
    }


def nelson_profile(rng: np.random.Generator, runs: int, sets: int, q0: float) -> dict:
    """Per-run input profiles whose failing mass shrinks as debugging proceeds."""
    p = rng.dirichlet(np.ones(sets), size=runs)
    fail_prob = q0 * np.exp(-3.0 * np.arange(runs) / runs)
    y = (rng.random((runs, sets)) < fail_prob[:, None]).astype(np.int64)
    return {"p": p, "y": y}


def discovery(rng: np.random.Generator, count: int, eps0: float, tau0: float) -> dict:
    """Cumulative corrected counts from an exponentially decaying discovery rate."""
    taus = np.linspace(3.0 * tau0 / count, 3.0 * tau0, count)
    mass = -np.diff(np.exp(-taus / tau0), prepend=1.0)
    counts = np.cumsum(rng.poisson(eps0 * mass)).astype(float)
    return {"taus": taus, "counts": counts}


def _write_epochs(workdir: Path, epochs: np.ndarray) -> Path:
    return _write(workdir, "epochs.csv", "epoch", [epochs], [_f])


def _write_periods(workdir: Path, periods: dict) -> Path:
    cols = [periods[c] for c in ("tau", "corrected", "exposure", "failures")]
    return _write(workdir, "periods.csv", "tau,corrected,exposure,failures", cols, [_f, str, _f, str])


def _write_profile(workdir: Path, profile: dict) -> Path:
    runs, sets = profile["p"].shape
    run_ids = np.repeat(np.arange(1, runs + 1), sets)
    cols = [run_ids, profile["p"].ravel(), profile["y"].ravel()]
    return _write(workdir, "profile.csv", "run,p,y", cols, [str, _f, str])


def _write_discovery(workdir: Path, disc: dict) -> Path:
    return _write(workdir, "discovery.csv", "tau,corrected", [disc["taus"], disc["counts"]], [_f, _f])


def _econ_flags(rng: np.random.Generator) -> dict:
    return {
        "size": int(rng.integers(5_000, 20_000)),
        "tempo": float(rng.uniform(1e5, 1e6)),
        "cost_error": float(rng.uniform(50.0, 200.0)),
        "cost_test": float(rng.uniform(5.0, 20.0)),
        "horizon": float(rng.uniform(500.0, 2000.0)),
    }


def _econ_args(flags: dict) -> list[str]:
    return [
        "--size", str(flags["size"]), "--tempo", _f(flags["tempo"]),
        "--cost-error", _f(flags["cost_error"]), "--cost-test", _f(flags["cost_test"]),
        "--horizon", _f(flags["horizon"]),
    ]


def _economics_fit_op(path: Path, disc: dict, flags: dict) -> Op:
    def check(report: dict) -> None:
        eps0, tau0 = verify.discovery_fit(report, disc["taus"], disc["counts"])
        verify.economics(report, eps0, tau0, flags)

    return Op("economics_fit", ["economics", "--fit", str(path), *_econ_args(flags)], check)


def _fault_flags(rng: np.random.Generator) -> dict:
    return {
        "total_time": float(rng.uniform(500.0, 2000.0)),
        "overhead": float(rng.uniform(0.5, 2.0)),
        "failure_rate": float(rng.uniform(0.005, 0.02)),
    }


def _faulttol_op(flags: dict, modules: int | None, seed: int) -> Op:
    args = [
        "faulttol", "--total-time", _f(flags["total_time"]), "--overhead", _f(flags["overhead"]),
        "--failure-rate", _f(flags["failure_rate"]),
    ]
    if modules is None:
        return Op("faulttol_plan", args, lambda r: verify.faulttol(r, flags))
    sim_flags = {**flags, "modules": modules}
    return Op(
        "faulttol_simulate",
        [*args, "--simulate", str(modules), "--seed", str(seed)],
        lambda r: verify.faulttol(r, sim_flags),
    )


def _simulate_jm_op(count: int, seed: int) -> Op:
    e0 = 1.25 * count

    def check(report: dict) -> None:
        verify.positive_records("simulate jm intervals", report["intervals"], count)
        verify.positive_records("simulate jm epochs", report["epochs"], count)

    args = ["simulate", "jm", "--e0", _f(e0), "--k", _f(1.0 / e0), "--count", str(count), "--seed", str(seed)]
    return Op("simulate_jm", args, check)


def _simulate_weibull_op(count: int, seed: int) -> Op:
    args = ["simulate", "weibull", "--shape", "0.7", "--scale", "1.0", "--count", str(count), "--seed", str(seed)]
    return Op("simulate_weibull", args, lambda r: verify.positive_records("simulate weibull", r["times"], count))


def _fit_epoch_ops(path: Path, epochs: np.ndarray) -> list[Op]:
    intervals = verify.intervals_of(epochs)
    return [
        Op("fit_jm", ["fit", "jm", "--input", str(path)], lambda r: verify.jm_fit(r, intervals)),
        Op("fit_weibull", ["fit", "weibull", "--input", str(path)], lambda r: verify.weibull_fit(r, intervals)),
    ]


def _fit_schumann_op(path: Path, periods: dict, instructions: int) -> Op:
    return Op(
        "fit_schumann",
        ["fit", "schumann", "--input", str(path), "--instructions", str(instructions)],
        lambda r: verify.schumann_fit(r, periods, instructions),
    )


def cli_cold(rng: np.random.Generator, workdir: Path) -> Workload:
    """Acceptance-sized inputs: every verb and model once per cycle."""
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, 4)]
    # With e0 this close to k the likelihood had a finite maximum for every
    # one of 20 000 seeds tried; with k = 30 and e0 = 1.25 k about 2 % had none.
    epochs = jm_epochs(rng, 50, 52.0)
    instructions = 10_000
    periods = schumann_periods(rng, 40, 200.0, instructions)
    profile = nelson_profile(rng, 8, 6, 0.2)
    disc = discovery(rng, 20, 300.0, 50.0)
    econ = _econ_flags(rng)
    fault = _fault_flags(rng)
    pj = {"e0": float(rng.uniform(40.0, 60.0)), "k": float(rng.uniform(0.01, 0.1)),
          "index": int(rng.integers(1, 30)), "dt": float(rng.uniform(0.1, 10.0))}
    pw = {"m": float(rng.uniform(0.5, 0.9)), "lam": float(rng.uniform(0.5, 2.0)), "t": float(rng.uniform(0.1, 5.0))}
    ps = {"e0": float(rng.uniform(150.0, 250.0)), "c": float(rng.uniform(100.0, 1000.0)),
          "corrected": int(rng.integers(0, 100)), "t": float(rng.uniform(0.1, 5.0))}
    eps0, tau0 = float(rng.uniform(100.0, 500.0)), float(rng.uniform(10.0, 100.0))

    runs = profile["p"].shape[0]
    error_free = (profile["y"].sum(axis=1) == 0).astype(np.int64)
    raw = rng.uniform(0.5, 1.5, runs)
    weights = raw * runs / raw.sum()
    profile["simplified"] = (error_free, weights)

    files = {
        "epochs": _write_epochs(workdir, epochs),
        "periods": _write_periods(workdir, periods),
        "schedule": _write(
            workdir, "schedule.csv", "tau,corrected,exposure",
            [periods["tau"], periods["corrected"], periods["exposure"]], [_f, str, _f],
        ),
        "profile": _write_profile(workdir, profile),
        "runs": _write(
            workdir, "runs.csv", "duration,outcome",
            [np.ones(runs), error_free], [_f, lambda e: "success" if e else "failure"],
        ),
        "weights": _write(workdir, "weights.csv", "weight", [weights], [_f]),
        "discovery": _write_discovery(workdir, disc),
    }
    ops = [
        _simulate_jm_op(40, seeds[0]),
        *_fit_epoch_ops(files["epochs"], epochs),
        Op(
            "predict_jm",
            ["predict", "jm", "--e0", _f(pj["e0"]), "--k", _f(pj["k"]), "--index", str(pj["index"]), "--dt", _f(pj["dt"])],
            lambda r: verify.predict_jm(r, pj["e0"], pj["k"], pj["index"], pj["dt"]),
        ),
        _simulate_weibull_op(50, seeds[1]),
        Op(
            "predict_weibull",
            ["predict", "weibull", "--shape", _f(pw["m"]), "--scale", _f(pw["lam"]), "--time", _f(pw["t"])],
            lambda r: verify.predict_weibull(r, pw["m"], pw["lam"], pw["t"]),
        ),
        _fit_schumann_op(files["periods"], periods, instructions),
        Op(
            "simulate_schumann",
            ["simulate", "schumann", "--e0", _f(periods["e0"]), "--c", _f(periods["c"]),
             "--instructions", str(instructions), "--schedule", str(files["schedule"]), "--seed", str(seeds[2])],
            lambda r: verify.simulate_schumann(r, periods),
        ),
        Op(
            "predict_schumann",
            ["predict", "schumann", "--e0", _f(ps["e0"]), "--c", _f(ps["c"]), "--instructions", str(instructions),
             "--corrected", str(ps["corrected"]), "--time", _f(ps["t"])],
            lambda r: verify.predict_schumann(r, ps["e0"], ps["c"], instructions, ps["corrected"], ps["t"]),
        ),
        Op(
            "fit_nelson",
            ["fit", "nelson", "--profile", str(files["profile"]), "--simplified", str(files["runs"]),
             "--weights", str(files["weights"])],
            lambda r: verify.nelson_fit(r, profile),
        ),
        Op(
            "economics_params",
            ["economics", "--eps0", _f(eps0), "--tau0", _f(tau0), *_econ_args(econ)],
            lambda r: verify.economics(r, eps0, tau0, econ),
        ),
        _economics_fit_op(files["discovery"], disc, econ),
        _faulttol_op(fault, None, 0),
        _faulttol_op(fault, 1000, seeds[3]),
    ]
    sizes = {"epochs": 50, "periods": 40, "profile_rows": profile["p"].size, "discovery_rows": 20}
    return Workload("cli-cold", ops, in_process=False, cycle_s=22.0, sizes=sizes, files=files)


def fit_large(rng: np.random.Generator, workdir: Path) -> Workload:
    """The read and fit path at ROADMAP sizes."""
    epochs = jm_epochs(rng, 100_000, 125_000.0)
    instructions = 1_000_000
    periods = schumann_periods(rng, 10_000, 50_000.0, instructions)
    profile = nelson_profile(rng, 1_000, 100, 0.05)
    disc = discovery(rng, 10_000, 1e5, 100.0)
    econ = _econ_flags(rng)
    files = {
        "epochs": _write_epochs(workdir, epochs),
        "periods": _write_periods(workdir, periods),
        "profile": _write_profile(workdir, profile),
        "discovery": _write_discovery(workdir, disc),
    }
    ops = [
        _economics_fit_op(files["discovery"], disc, econ),
        *_fit_epoch_ops(files["epochs"], epochs),
        _fit_schumann_op(files["periods"], periods, instructions),
        Op("fit_nelson", ["fit", "nelson", "--profile", str(files["profile"])], lambda r: verify.nelson_fit(r, profile)),
    ]
    sizes = {"epochs": 100_000, "periods": 10_000, "profile_rows": profile["p"].size, "discovery_rows": 10_000}
    return Workload("fit-large", ops, in_process=True, cycle_s=5.0, sizes=sizes, files=files)


def simulate_emit(rng: np.random.Generator, workdir: Path) -> Workload:
    """The write path: generate and serialise large reports."""
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, 3)]
    ops = [
        _simulate_jm_op(100_000, seeds[0]),
        _simulate_weibull_op(200_000, seeds[1]),
        _faulttol_op(_fault_flags(rng), 1_000_000, seeds[2]),
    ]
    sizes = {"simulate_jm_count": 100_000, "simulate_weibull_count": 200_000, "faulttol_modules": 1_000_000}
    return Workload("simulate-emit", ops, in_process=True, cycle_s=1.3, sizes=sizes)


MIXES = {"cli-cold": cli_cold, "fit-large": fit_large, "simulate-emit": simulate_emit}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return MIXES[name](np.random.default_rng(seed), workdir)


def sha256s(workload: Workload) -> dict:
    return {role: hashlib.sha256(path.read_bytes()).hexdigest() for role, path in workload.files.items()}
