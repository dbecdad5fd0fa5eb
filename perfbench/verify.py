"""Independent checks of relgauge reports.

Every check recomputes the quantity from the benchmark's own copy of the
inputs with numpy sums and ``math.lgamma``; none of them calls into the
package, so a change to the program cannot change what counts as correct.
A check raises ``Mismatch`` with a one-line reason.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


class Mismatch(Exception):
    pass


def _reject_constant(token: str):
    raise Mismatch(f"report is not strict JSON: contains {token}")


def strict_json(text: str) -> dict:
    """Parse a report, refusing the NaN and Infinity tokens json.loads accepts."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"report is not JSON: {exc}") from None


_STAMP = re.compile(r'"generated_at": "[^"]*"')


def without_timestamp(text: str) -> str:
    return _STAMP.sub('"generated_at": ""', text)


def close(name: str, got, want: float, rel: float) -> None:
    if not (isinstance(got, (int, float)) and math.isfinite(got)):
        raise Mismatch(f"{name}: got {got!r}, expected a finite number")
    if abs(got - want) > rel * abs(want):
        raise Mismatch(f"{name}: got {got!r}, expected {want!r} within {rel:g} relative")


def intervals_of(epochs: np.ndarray) -> np.ndarray:
    """Inter-failure intervals, measured from time zero as the CLI does."""
    return np.diff(epochs, prepend=0.0)


def _lgamma_ratio(m: float) -> float:
    return math.exp(math.lgamma(1.0 + 2.0 / m) - 2.0 * math.lgamma(1.0 + 1.0 / m))


def jm_fit(report: dict, intervals: np.ndarray) -> None:
    """The reported e0 zeroes the JM stationarity equation, k_hat follows from it."""
    k = len(intervals)
    e0 = report["e0"]
    if report["k_obs"] != k or not e0 > k - 1:
        raise Mismatch(f"jm: k_obs {report['k_obs']} / e0 {e0!r} inconsistent with {k} intervals")
    i = np.arange(1, k + 1, dtype=float)
    a = intervals.sum()
    b = ((i - 1.0) * intervals).sum()
    lhs = (1.0 / (e0 - i + 1.0)).sum()
    rhs = k * a / (e0 * a - b)
    residual = lhs / rhs - 1.0
    if not abs(residual) <= 1e-8:
        raise Mismatch(f"jm: stationarity residual {residual!r} at e0 {e0!r}")
    close("jm k", report["k"], k / (e0 * a - b), 1e-9)


def weibull_fit(report: dict, intervals: np.ndarray) -> None:
    """G(m) equals the coefficient-of-variation target 1 + s^2/tbar^2."""
    m, lam = report["m"], report["lambda"]
    t_bar = intervals.mean()
    s2 = ((intervals - t_bar) ** 2).mean()
    close("weibull G(m)", _lgamma_ratio(m), s2 / t_bar**2 + 1.0, 1e-8)
    close("weibull lambda", lam, math.exp(math.lgamma(1.0 + 1.0 / m)) / t_bar, 1e-9)
    if "mttf" in report:
        close("weibull mttf", report["mttf"], math.exp(math.lgamma(1.0 + 1.0 / m)) / lam, 1e-9)


def schumann_fit(report: dict, periods: dict, instructions: int) -> None:
    """The exposure and rate expressions for c agree at the reported e0."""
    e0, c = report["e0"], report["c"]
    corrected, exposure, failures = periods["corrected"], periods["exposure"], periods["failures"]
    if not e0 > corrected.max():
        raise Mismatch(f"schumann: e0 {e0!r} does not exceed the corrected count")
    r = e0 / instructions - corrected / instructions
    c_exposure = failures.sum() / (r * exposure).sum()
    c_rates = (failures / r).sum() / exposure.sum()
    close("schumann c (rate form)", c_rates, c_exposure, 1e-8)
    close("schumann c", c, c_exposure, 1e-8)


def nelson_fit(report: dict, profile: dict) -> None:
    """q = sum(p*y) per run; reliability is the product of the survivals."""
    q_want = np.clip((profile["p"] * profile["y"]).sum(axis=1), 0.0, 1.0)
    q_got = np.asarray(report["q"], dtype=float)
    if q_got.shape != q_want.shape or not np.all(np.abs(q_got - q_want) <= 1e-12):
        raise Mismatch("nelson: per-run q differs from sum(p*y)")
    certain = bool(np.any(q_got == 1.0))
    if report["certain_failure"] != certain:
        raise Mismatch("nelson: certain_failure flag disagrees with q")
    reliability = 0.0 if certain else math.exp(np.log1p(-q_got).sum())
    close("nelson reliability", report["reliability"], reliability, 1e-9)
    if "simplified" in profile:
        error_free, weights = profile["simplified"]
        want = float((error_free * weights).sum()) / len(error_free)
        close("nelson simplified", report["simplified"], want, 1e-12)


def economics(report: dict, eps0: float, tau0: float, flags: dict) -> None:
    """tau_m = tau0 * ln(arg), or the boundary tau_m = 0 when arg < 1."""
    arg = (
        flags["cost_error"] * flags["horizon"] * eps0 * flags["tempo"]
        / (flags["cost_test"] * flags["size"] * tau0)
    )
    if arg < 1.0:
        if report["tau_m"] != 0.0 or not report["boundary"]:
            raise Mismatch("economics: expected the boundary optimum tau_m = 0")
        return
    tau_m = tau0 * math.log(arg)
    close("economics tau_m", report["tau_m"], tau_m, 1e-12)
    mttf = flags["size"] / (eps0 * flags["tempo"]) * math.exp(tau_m / tau0)
    close("economics mttf", report["mttf_at_tau_m"], mttf, 1e-9)


def discovery_fit(report: dict, taus: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """The fitted tau0 is a local least-squares minimum; returns (eps0, tau0)."""
    eps0, tau0 = report["fitted"]["eps0"], report["fitted"]["tau0"]

    def sse(t: float) -> tuple[float, float]:
        growth = -np.expm1(-taus / t)
        scale = float(counts @ growth) / float(growth @ growth)
        resid = counts - scale * growth
        return float(resid @ resid), scale

    best, scale = sse(tau0)
    close("economics fitted eps0", eps0, scale, 1e-9)
    for step in (1.0 - 1e-4, 1.0 + 1e-4):
        if sse(tau0 * step)[0] < best * (1.0 - 1e-12):
            raise Mismatch(f"economics: tau0 {tau0!r} is not a least-squares minimum")
    return eps0, tau0


def faulttol(report: dict, flags: dict) -> None:
    """t* solves 2*lam*t^2*exp(lam*t) = a; the simulation histogram adds up."""
    T, a, lam = flags["total_time"], flags["overhead"], flags["failure_rate"]
    t = report["t_star"]
    if not report["boundary"]:
        close("faulttol stationarity", 2.0 * lam * t * t * math.exp(lam * t), a, 1e-9)
    close("faulttol module_count", report["module_count"], T / t, 1e-12)
    close("faulttol tp_min", report["tp_min"], 2.0 * T * math.exp(lam * t) + T * a / t, 1e-12)
    close("faulttol p1", report["p1_at_t"], math.exp(-lam * t), 1e-12)
    if "modules" in flags:
        sim = report["simulation"]
        hist = np.asarray(sim["histogram"], dtype=np.int64).reshape(-1, 2)
        modules = flags["modules"]
        if hist[:, 1].sum() != modules or hist[:, 0].min() < 2:
            raise Mismatch("faulttol: histogram does not cover every module with >= 2 runs")
        executions = int((hist[:, 0] * hist[:, 1]).sum())
        close("faulttol mean_executions", sim["mean_executions"], executions / modules, 1e-12)
        close("faulttol elapsed", sim["elapsed"], sim["module_time"] * executions + a * modules, 1e-12)


def positive_records(name: str, values, count: int) -> None:
    xs = np.asarray(values, dtype=float)
    if xs.shape != (count,):
        raise Mismatch(f"{name}: {xs.size} records, expected {count}")
    if not np.all(np.isfinite(xs) & (xs > 0.0)):
        raise Mismatch(f"{name}: a record is not finite and positive")


def simulate_schumann(report: dict, schedule: dict) -> None:
    periods = report["periods"]
    if len(periods) != len(schedule["corrected"]):
        raise Mismatch("simulate schumann: period count differs from the schedule")
    for p, corrected, exposure in zip(periods, schedule["corrected"], schedule["exposure"]):
        if p["corrected"] != corrected or p["exposure"] != exposure:
            raise Mismatch("simulate schumann: period does not echo its schedule row")
        if not (isinstance(p["failures"], int) and p["failures"] >= 0):
            raise Mismatch(f"simulate schumann: failure count {p['failures']!r}")


def predict_jm(report: dict, e0: float, k: float, index: int, dt: float) -> None:
    rate = k * (e0 - index + 1)
    close("predict jm intensity", report["intensity"], rate, 1e-12)
    close("predict jm reliability", report["reliability"], math.exp(-rate * dt), 1e-12)


def predict_weibull(report: dict, m: float, lam: float, t: float) -> None:
    close("predict weibull reliability", report["reliability"], math.exp(-((lam * t) ** m)), 1e-12)
    close("predict weibull mttf", report["mttf"], math.exp(math.lgamma(1.0 + 1.0 / m)) / lam, 1e-9)
    close("predict weibull hazard", report["hazard"], m * lam**m * t ** (m - 1.0), 1e-12)


def predict_schumann(report: dict, e0: float, c: float, instructions: int, corrected: int, t: float) -> None:
    r = e0 / instructions - corrected / instructions
    close("predict schumann reliability", report["reliability"], math.exp(-c * r * t), 1e-12)
    close("predict schumann mttf", report["mttf"], 1.0 / (c * r), 1e-12)
