"""End-to-end tests for the command line interface."""

import argparse
import ast
import builtins
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from relgauge import cli, failure_data, model_jm, numerics
from relgauge.cli import run_cli
from relgauge.errors import OutOfRange
from relgauge.draws import DRAWS_MIN
from relgauge.numerics import ARRAY_MIN

NTDS = Path(__file__).with_name("ntds_epochs.csv")
EPOCHS_GROWTH = "epoch\n1.0\n3.0\n"
EPOCHS_NO_GROWTH = "epoch\n2.0\n3.0\n"
PERIODS_TWO = (
    "tau,corrected,exposure,failures\n"
    "1.0,20,1000.0,10\n"
    "2.0,50,1600.0,10\n"
)
PROFILE_TWO_RUNS = (
    "run,p,y\n"
    "1,0.9,0\n"
    "1,0.1,1\n"
    "2,0.8,0\n"
    "2,0.2,1\n"
)


def run(capsys, *args):
    code = run_cli(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert code == 0, err
    return json.loads(out)


def error_json(err):
    return json.loads(err.strip().splitlines()[-1])


def test_fit_jm(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_text(EPOCHS_GROWTH)
    report = run_json(capsys, "fit", "jm", "--input", str(path))
    assert report["model"] == "jm"
    assert report["e0"] == pytest.approx(2.0, abs=1e-9)
    assert report["k"] == pytest.approx(0.5, abs=1e-9)
    assert report["k_obs"] == 2
    assert report["residuals"][0] <= 1e-9
    assert report["ci"]["e0"][0] < 2.0 < report["ci"]["e0"][1]
    (entry,) = report["provenance"]["inputs"]
    assert entry["role"] == "input"
    assert len(entry["sha256"]) == 64
    assert report["provenance"]["version"]


def test_fit_jm_no_growth_is_estimation_error(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_text(EPOCHS_NO_GROWTH)
    code, out, err = run(capsys, "fit", "jm", "--input", str(path))
    assert code == 3
    assert out == ""
    payload = error_json(err)
    assert payload["error"] == "NoGrowthEvidence"
    assert payload["exit_code"] == 3


def test_fit_jm_on_constant_intervals_is_no_growth(tmp_path, capsys):
    """Epochs 1, 2 are intervals 1, 1, on the no-growth boundary; the fit used
    to exit 0 with e0 = 72,057,595.04."""
    path = tmp_path / "failures.csv"
    path.write_text("epoch\n1\n2\n")
    code, out, err = run(capsys, "fit", "jm", "--input", str(path))
    assert (code, out, len(err.strip().splitlines())) == (3, "", 1)
    assert error_json(err)["error"] == "NoGrowthEvidence"


def test_fit_jm_malformed_csv(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_text("epoch\nbanana\n")
    code, _, err = run(capsys, "fit", "jm", "--input", str(path))
    assert code == 2
    payload = error_json(err)
    assert payload["error"] == "ParseError"
    assert "row 2" in payload["message"]


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_bytes(b"epoch\n1\n\xff\xfe2\n")
    code, out, err = run(capsys, "fit", "jm", "--input", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    payload = error_json(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("row 3: ")
    assert "UTF-8" in payload["message"]


def test_byte_order_mark_is_dropped(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"epoch\n1\n3\n6\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbfepoch\n1\n3\n6\n")
    reports = [run_json(capsys, "fit", "jm", "--input", str(p)) for p in (plain, marked)]
    provenance = [r.pop("provenance") for r in reports]
    assert reports[0] == reports[1]
    # The digest is taken over the file's bytes, mark included.
    digests = [prov["inputs"][0]["sha256"] for prov in provenance]
    assert digests[0] != digests[1]


def test_byte_order_mark_keeps_file_offsets(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_bytes(b"\xef\xbb\xbfepoch\n1\n\xff2\n")
    code, out, err = run(capsys, "fit", "jm", "--input", str(path))
    assert code == 2
    assert out == ""
    message = error_json(err)["message"]
    assert message.startswith("row 3: ")
    assert "byte 0xff at offset 11" in message


def test_long_token_is_cut_in_parse_error(tmp_path, capsys):
    path = tmp_path / "periods.csv"
    path.write_text("tau,corrected,exposure,failures\n1.0," + "1" * 5000 + ",1000.0,10\n")
    code, out, err = run(capsys, "fit", "schumann", "--input", str(path), "--instructions", "1000")
    assert code == 2
    assert out == ""
    (line,) = err.strip().splitlines()
    assert len(line) < 200
    payload = json.loads(line)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("row 2: could not parse corrected from '1111")
    assert "(5000 characters)" in payload["message"]


def test_oversized_field_is_parse_error(tmp_path, capsys):
    # csv's default field limit is 131072 characters; it stays in force.
    path = tmp_path / "failures.csv"
    path.write_text("epoch\n1\n" + "9" * 200_000 + "\n")
    code, out, err = run(capsys, "fit", "jm", "--input", str(path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    payload = error_json(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("row 3: field larger than field limit")


def test_each_input_file_is_read_once(tmp_path, capsys, monkeypatch):
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_TWO_RUNS)
    runs = tmp_path / "runs.csv"
    runs.write_text("duration,outcome\n5.0,success\n3.0,failure\n")
    weights = tmp_path / "w.csv"
    weights.write_text("weight\n1.5\n0.5\n")
    opened = []
    builtin_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.path.basename(file))
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    report = run_json(
        capsys,
        "fit", "nelson",
        "--profile", str(profile), "--simplified", str(runs), "--weights", str(weights),
    )
    assert opened == ["profile.csv", "runs.csv", "w.csv"]
    inputs = report["provenance"]["inputs"]
    assert [e["path"] for e in inputs] == [str(profile), str(runs), str(weights)]


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "jm", "--input", str(tmp_path / "absent.csv"))
    assert code == 2
    assert error_json(err)["exit_code"] == 2


def test_os_errors_are_one_json_line_naming_the_path(tmp_path, capsys):
    absent, output = str(tmp_path / "absent.csv"), str(tmp_path / "missing" / "r.json")
    predict = ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"]
    for argv, error, number, path in [
        (["fit", "jm", "--input", absent], FileNotFoundError, errno.ENOENT, absent),
        (["fit", "jm", "--input", str(tmp_path)], IsADirectoryError, errno.EISDIR, str(tmp_path)),
        ([*predict, "--output", output], FileNotFoundError, errno.ENOENT, output),
    ]:
        message = str(error(number, os.strerror(number), path))
        line = json.dumps({"error": error.__name__, "message": message, "exit_code": 2})
        assert run(capsys, *argv) == (2, "", line + "\n"), argv


ECONOMICS_COSTS = (
    "--size", "1000", "--tempo", "1", "--cost-error", "1", "--cost-test", "1", "--horizon", "1",
)


def test_usage_errors_exit_one(capsys):
    for argv in [
        ("fit", "jm"),  # missing --input
        ("fit", "jm", "--bogus", "x"),
        ("frobnicate",),
        ("fit",),  # missing model
        ("simulate", "jm", "--e0", "5", "--k", "1", "--count", "x", "--seed", "1"),
        ("economics", *ECONOMICS_COSTS),  # neither --eps0/--tau0 nor --fit
        ("faulttol", "--total-time", "1", "--overhead", "0.1", "--failure-rate", "0.1",
         "--simulate", "3"),  # --simulate without --seed
    ]:
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout, len(err.splitlines())) == (1, "", 1), argv
        line = json.loads(err)
        assert list(line) == ["error", "message", "exit_code"]
        assert (line["error"], line["exit_code"]) == ("UsageError", 1)
    # argparse's own message, prefixed with the subcommand it came from.
    assert json.loads(run(capsys, "fit", "jm")[2])["message"] == (
        "relgauge fit jm: the following arguments are required: --input"
    )


VERB_GROUPS = [["fit"], ["simulate"], ["predict"]]
COMMANDS = [
    *(["fit", model] for model in ("schumann", "jm", "weibull", "nelson")),
    ["economics"],
    ["faulttol"],
    *(["simulate", model] for model in ("jm", "schumann", "weibull")),
    *(["predict", model] for model in ("schumann", "jm", "weibull")),
]


def test_version_and_help_exit_zero(capsys):
    for argv, text in (
        (["--version"], "relgauge 0."),
        (["--help"], "usage: relgauge"),
        *(([*words, "--help"], " ".join(["usage: relgauge", *words])) for words in VERB_GROUPS + COMMANDS),
    ):
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert stdout.startswith(text)


def _subcommands(parser):
    """(name, parser) of each subcommand of ``parser``; none for a command."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices.items()
    return ()


def test_every_command_has_one_output_flag_last_and_a_handler():
    commands = []
    levels = [([], cli._build_parser())]
    while levels:
        words, parser = levels.pop()
        children = _subcommands(parser)
        levels.extend(([*words, name], child) for name, child in children)
        if children:
            assert parser.get_default("handler") is None, words
            continue
        commands.append(words)
        options = [action for action in parser._actions if action.option_strings]
        assert [a for a in options if "--output" in a.option_strings] == [options[-1]], words
        assert callable(parser.get_default("handler")), words
    assert sorted(commands) == sorted(COMMANDS)


def test_fit_schumann(tmp_path, capsys):
    path = tmp_path / "periods.csv"
    path.write_text(PERIODS_TWO)
    report = run_json(
        capsys, "fit", "schumann", "--input", str(path), "--instructions", "1000"
    )
    assert report["e0"] == pytest.approx(100.0, abs=1e-6)
    assert report["c"] == pytest.approx(0.125, abs=1e-9)
    assert report["e0_rounded"] == 100
    assert max(report["residuals"]) <= 1e-9
    assert report["k"] == 2
    assert 0.0 < report["rho"] < 1.0


def test_fit_schumann_confidence_echoes_the_flag(tmp_path, capsys):
    path = tmp_path / "periods.csv"
    path.write_text(PERIODS_TWO)
    args = ["fit", "schumann", "--input", str(path), "--instructions", "1000"]
    wide = run_json(capsys, *args)
    narrow = run_json(capsys, *args, "--confidence", "0.9")
    assert (wide["confidence"], narrow["confidence"]) == (0.95, 0.9)
    for name in ("e0", "c"):
        assert wide["ci"][name][0] < narrow["ci"][name][0] < narrow["ci"][name][1] < wide["ci"][name][1]


def test_fit_jm_and_schumann_reject_a_level_alike(tmp_path, capsys):
    epochs, periods = tmp_path / "failures.csv", tmp_path / "periods.csv"
    epochs.write_text(EPOCHS_GROWTH)
    periods.write_text(PERIODS_TWO)
    payloads = []
    for args in (
        ["fit", "jm", "--input", str(epochs)],
        ["fit", "schumann", "--input", str(periods), "--instructions", "1000"],
    ):
        code, stdout, err = run(capsys, *args, "--confidence", "1.5")
        assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
        payloads.append(error_json(err))
    assert payloads[0] == payloads[1]
    assert payloads[0]["message"] == "confidence level must lie in (0, 1), got 1.5"


@pytest.mark.parametrize(
    "args, text",
    [
        (["fit", "jm"], EPOCHS_NO_GROWTH),  # the fit raises NoGrowthEvidence
        (  # the covariance raises SingularInformation
            ["fit", "schumann", "--instructions", str(10**165)],
            "tau,corrected,exposure,failures\n1,20,1000,10\n2,50,1600,10\n",
        ),
    ],
    ids=["jm-no-growth", "schumann-singular"],
)
def test_bad_level_is_reported_before_the_fit(tmp_path, capsys, args, text):
    path = tmp_path / "input.csv"
    path.write_text(text)
    for input_path in (path, tmp_path / "missing.csv"):  # the input is not even read
        code, stdout, err = run(capsys, *args, "--input", str(input_path), "--confidence", "1.5")
        assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
        assert error_json(err) == {
            "error": "DomainError",
            "message": "confidence level must lie in (0, 1), got 1.5",
            "exit_code": 2,
        }


@pytest.mark.parametrize(
    "exposures, instructions, var_c",
    [
        (("1000", "1600"), 10**165, None),  # var_c is about 1.5e322
        (("1000", "1600"), 10**158, 1.5451388888888889e308),
        (("1.0e170", "1.6e170"), 1000, None),  # var_c is about 1.5e-342
        (("1.0e160", "1.6e160"), 1000, 1.5451388888888889e-316),
    ],
    ids=["residual-square", "instructions-square", "c-square", "infinite-entry"],
)
def test_fit_schumann_non_finite_information_is_singular(tmp_path, capsys, exposures, instructions, var_c):
    """Periods whose squared residual, I^2, c^2 or N / c^2 leaves the float range.

    The information matrix in (c, e0) could not hold these, and they were
    reported as SingularInformation.  The information is formed at unit
    scale now and is well conditioned here: var_c is reported where it is a
    float, and is OutOfRange, naming it, where it is not.
    """
    path = tmp_path / "periods.csv"
    path.write_text(
        "tau,corrected,exposure,failures\n"
        f"1,20,{exposures[0]},10\n"
        f"2,50,{exposures[1]},10\n"
    )
    code, stdout, err = run(
        capsys, "fit", "schumann", "--input", str(path), "--instructions", str(instructions)
    )
    if var_c is None:
        assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
        payload = error_json(err)
        assert payload["error"] == "OutOfRange" and payload["message"].startswith("var_c = "), payload
    else:
        assert (code, err) == (0, "")
        report = json.loads(stdout)
        assert report["var_c"] == pytest.approx(var_c, rel=1e-9)
        assert report["e0"] == pytest.approx(100.0, rel=1e-12)


def test_fit_weibull_and_moment_forms(tmp_path, capsys):
    spike = 1.0 + 35.0 + math.sqrt(1470.0)
    epochs = []
    acc = 0.0
    for x in [1.0] * 6 + [spike]:
        acc += x
        epochs.append(acc)
    path = tmp_path / "failures.csv"
    path.write_text("epoch\n" + "".join(f"{t!r}\n" for t in epochs))
    report = run_json(capsys, "fit", "weibull", "--input", str(path))
    assert report["m"] == pytest.approx(0.5, abs=1e-9)
    assert report["moment_form"] == "cv"
    assert "warning" not in report
    literal = run_json(
        capsys, "fit", "weibull", "--input", str(path), "--moment-form", "literal"
    )
    assert literal["moment_form"] == "literal"
    assert literal["m"] < report["m"] * 1.2  # same data, nearby shape


def test_fit_weibull_reports_warning(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_text("epoch\n1.0\n2.2\n3.6\n5.2\n")
    report = run_json(capsys, "fit", "weibull", "--input", str(path))
    assert report["m"] > 1.0
    assert "no reliability growth" in report["warning"]


def test_fit_nelson(tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_TWO_RUNS)
    runs = tmp_path / "runs.csv"
    runs.write_text("duration,outcome\n5.0,success\n3.0,failure\n")
    weights = tmp_path / "w.csv"
    weights.write_text("weight\n1.5\n0.5\n")
    report = run_json(
        capsys,
        "fit",
        "nelson",
        "--profile",
        str(profile),
        "--simplified",
        str(runs),
        "--weights",
        str(weights),
    )
    assert report["runs"] == 2
    assert report["q"] == pytest.approx([0.1, 0.2], rel=1e-12)
    assert report["reliability"] == pytest.approx(0.72, rel=1e-12)
    assert report["certain_failure"] is False
    assert report["simplified"] == pytest.approx(0.75, rel=1e-12)
    assert [e["role"] for e in report["provenance"]["inputs"]] == [
        "profile",
        "simplified",
        "weights",
    ]


def test_economics(capsys):
    report = run_json(
        capsys,
        "economics",
        "--eps0", "100",
        "--tau0", "10",
        "--size", "10000",
        "--tempo", "1000",
        "--cost-error", repr(math.exp(2.0)),
        "--cost-test", "1",
        "--horizon", "1",
    )
    assert report["tau_m"] == pytest.approx(20.0, abs=1e-6)
    assert report["cost_at_tau_m"] == pytest.approx(30.0, abs=1e-3)
    assert report["boundary"] is False
    assert report["mttf_at_tau_m"] == pytest.approx(0.1 * math.exp(2.0), rel=1e-9)


def test_economics_fit_from_discovery(tmp_path, capsys):
    rows = ["tau,corrected"]
    for tau in (5.0, 10.0, 20.0, 40.0):
        rows.append(f"{tau!r},{100.0 * -math.expm1(-tau / 10.0)!r}")
    path = tmp_path / "discovery.csv"
    path.write_text("\n".join(rows) + "\n")
    report = run_json(
        capsys,
        "economics",
        "--fit", str(path),
        "--size", "10000",
        "--tempo", "1000",
        "--cost-error", repr(math.exp(2.0)),
        "--cost-test", "1",
        "--horizon", "1",
    )
    assert report["fitted"]["eps0"] == pytest.approx(100.0, rel=1e-6)
    assert report["fitted"]["tau0"] == pytest.approx(10.0, rel=1e-6)
    assert report["tau_m"] == pytest.approx(20.0, abs=1e-4)


def test_economics_requires_parameters_or_fit(capsys):
    code, _, err = run(
        capsys,
        "economics",
        "--size", "10000",
        "--tempo", "1000",
        "--cost-error", "1",
        "--cost-test", "1",
        "--horizon", "1",
    )
    assert code == 1
    assert "--eps0" in err


def test_faulttol_plan(capsys):
    report = run_json(
        capsys,
        "faulttol",
        "--total-time", "1000",
        "--overhead", "1",
        "--failure-rate", "0.001",
    )
    assert report["t_star"] == pytest.approx(22.11, abs=0.01)
    assert report["tp_min"] == pytest.approx(2089.95, abs=0.1)
    assert report["boundary"] is False
    assert report.keys() == {"boundary", "module_count", "p1_at_t", "provenance", "t_star", "tp_min"}


def test_faulttol_simulate_needs_seed(capsys):
    code, _, err = run(
        capsys,
        "faulttol",
        "--total-time", "1000",
        "--overhead", "100",
        "--failure-rate", "0.001",
        "--simulate", "50",
    )
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fit", "nelson", "--profile", "profile.csv", "--weights", "w.csv"),
         "--weights requires --simplified"),
        (("faulttol", "--total-time", "1000", "--overhead", "100", "--failure-rate", "0.001",
          "--module-time", "20"), "--module-time requires --simulate"),
        (("faulttol", "--total-time", "1000", "--overhead", "1", "--failure-rate", "0.001",
          "--seed", "5"), "--seed requires --simulate"),
        (("economics", "--fit", "discovery.csv", "--eps0", "1", *ECONOMICS_COSTS),
         "--fit cannot be combined with --eps0 or --tau0"),
        (("economics", "--fit", "discovery.csv", "--tau0", "1", *ECONOMICS_COSTS),
         "--fit cannot be combined with --eps0 or --tau0"),
    ],
    ids=["weights", "module-time", "seed", "fit-eps0", "fit-tau0"],
)
def test_flag_that_would_be_ignored_is_a_usage_error(capsys, argv, message):
    # Checked before any file is read, so the named files need not exist.
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, len(err.splitlines())) == (1, "", 1)
    assert json.loads(err) == {"error": "UsageError", "message": message, "exit_code": 1}


def test_faulttol_simulation_block(capsys):
    report = run_json(
        capsys,
        "faulttol",
        "--total-time", "1000",
        "--overhead", "100",
        "--failure-rate", "0.001",
        "--simulate", "200",
        "--seed", "7",
    )
    sim = report["simulation"]
    assert sim["modules"] == 200
    assert sim["mean_executions"] >= 2.0
    counts = dict((i, c) for i, c in sim["histogram"])
    assert sum(counts.values()) == 200
    assert min(counts) >= 2
    assert report["provenance"]["seed"] == 7


def test_simulate_jm_round_trip(tmp_path, capsys):
    report = run_json(
        capsys,
        "simulate", "jm",
        "--e0", "50",
        "--k", "0.004",
        "--count", "40",
        "--seed", "7",
    )
    assert len(report["intervals"]) == 40
    assert report["epochs"] == pytest.approx(
        [sum(report["intervals"][: i + 1]) for i in range(40)], rel=1e-12
    )
    path = tmp_path / "failures.csv"
    path.write_text("epoch\n" + "".join(f"{t!r}\n" for t in report["epochs"]))
    fit = run_json(capsys, "fit", "jm", "--input", str(path))
    assert fit["residuals"][0] <= 1e-9


def test_simulate_schumann(tmp_path, capsys):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(
        "tau,corrected,exposure\n1.0,10,1570.0\n2.0,30,1570.0\n3.0,50,1570.0\n"
    )
    report = run_json(
        capsys,
        "simulate", "schumann",
        "--e0", "100",
        "--c", "0.125",
        "--instructions", "1000",
        "--schedule", str(schedule),
        "--seed", "11",
    )
    assert [p["corrected"] for p in report["periods"]] == [10, 30, 50]
    assert all(p["failures"] >= 0 for p in report["periods"])


def test_simulate_weibull_deterministic(capsys):
    args = (
        "simulate", "weibull",
        "--shape", "0.5",
        "--scale", "2.0",
        "--count", "25",
        "--seed", "3",
    )
    first = run_json(capsys, *args)
    second = run_json(capsys, *args)
    assert first["times"] == second["times"]
    assert len(first["times"]) == 25


def test_predict_schumann(capsys):
    report = run_json(
        capsys,
        "predict", "schumann",
        "--e0", "100",
        "--c", "0.125",
        "--instructions", "1000",
        "--corrected", "20",
        "--time", "1.0",
    )
    assert report["reliability"] == pytest.approx(math.exp(-0.01), rel=1e-12)
    assert report["mttf"] == pytest.approx(100.0, rel=1e-12)


def test_predict_jm(capsys):
    report = run_json(
        capsys,
        "predict", "jm",
        "--e0", "2",
        "--k", "0.5",
        "--index", "2",
        "--dt", "2.0",
    )
    assert report["intensity"] == pytest.approx(0.5, rel=1e-12)
    assert report["reliability"] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_predict_weibull(capsys):
    report = run_json(
        capsys,
        "predict", "weibull",
        "--shape", "0.5",
        "--scale", "1.0",
        "--time", "4.0",
    )
    assert report["reliability"] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert report["hazard"] == pytest.approx(0.25, rel=1e-12)
    assert report["mttf"] == pytest.approx(2.0, rel=1e-12)
    at_zero = run_json(
        capsys,
        "predict", "weibull",
        "--shape", "0.5",
        "--scale", "1.0",
        "--time", "0.0",
    )
    assert "hazard" not in at_zero  # diverges at t = 0 for shapes below 1
    assert at_zero["reliability"] == 1.0


def test_predict_weibull_mttf_past_the_gamma_overflow(capsys):
    # Gamma(1 + 1/0.005) overflows a float; the mean, about 7.9e74, does not.
    report = run_json(
        capsys, "predict", "weibull", "--shape", "0.005", "--scale", "1e300", "--time", "1"
    )
    assert report["mttf"] == pytest.approx(math.exp(math.lgamma(201.0) - math.log(1e300)), rel=1e-11)


def test_non_finite_report_value_is_out_of_range(tmp_path, capsys):
    # The intensity overflows to infinity, which strict JSON cannot carry.
    out = tmp_path / "report.json"
    args = ["predict", "jm", "--e0", "1e308", "--k", "1e308", "--index", "1", "--dt", "1"]
    code, stdout, err = run(capsys, *args, "--output", str(out))
    assert code == 2
    assert stdout == ""
    assert not out.exists()
    assert len(err.strip().splitlines()) == 1
    assert error_json(err)["error"] == "OutOfRange"
    assert error_json(err)["exit_code"] == 2


def test_overflow_in_handler_is_out_of_range(capsys):
    # Gamma(1 + 1/m) overflows a float for m = 0.001.
    code, stdout, err = run(
        capsys, "predict", "weibull", "--shape", "0.001", "--scale", "1", "--time", "1"
    )
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert error_json(err)["error"] == "OutOfRange"


def test_simulate_schumann_poisson_mean_overflow_is_out_of_range(tmp_path, capsys):
    # The Poisson mean c * (e0/I) * exposure overflows to infinity.
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("tau,corrected,exposure\n0.0,0,1e300\n")
    code, stdout, err = run(
        capsys,
        "simulate", "schumann",
        "--e0", "1e300", "--c", "1e300", "--instructions", "1",
        "--schedule", str(schedule), "--seed", "1",
    )
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert error_json(err)["error"] == "OutOfRange"


def test_economics_overflowed_optimum_is_out_of_range(capsys):
    # cost_error * horizon * eps0 * tempo overflows; the flags themselves are finite. The
    # optimum, taken in logs, is a float (tau_m = 2.77); the mttf there, e^1388, is not.
    code, stdout, err = run(
        capsys,
        "economics",
        "--eps0", "1e300", "--tau0", "1e-3", "--size", "1", "--tempo", "1e300",
        "--cost-error", "1e300", "--cost-test", "1e-300", "--horizon", "1",
    )
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert error_json(err)["error"] == "OutOfRange"
    assert error_json(err)["message"].startswith("the mttf ")


def test_predict_schumann_underflowing_rate_is_out_of_range(capsys):
    # c * (e0/I - corrected/I) = 1e-300 * 1e-300 underflows to 0, the MTTF's denominator.
    code, stdout, err = run(
        capsys,
        "predict", "schumann",
        "--e0", "1e-300", "--c", "1e-300", "--instructions", "1", "--corrected", "0", "--time", "1",
    )
    assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"


def test_predict_schumann_overflowing_rate_is_out_of_range(capsys):
    # c * (e0/I - corrected/I) = 1e308 * 100 overflows; the MTTF was reported as 0.0.
    code, stdout, err = run(
        capsys,
        "predict", "schumann",
        "--e0", "100", "--c", "1e308", "--instructions", "1", "--corrected", "0", "--time", "1",
    )
    assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
    assert error_json(err) == {
        "error": "OutOfRange",
        "message": "the failure rate c * r = 1e+308 * 100.0 overflows a float",
        "exit_code": 2,
    }


@pytest.mark.parametrize(
    "ns",
    [
        0,
        1_700_000_000_000_000_000,  # a whole second: no fraction, as isoformat writes it
        1_700_000_000_000_000_999,  # under a microsecond past it, which is dropped
        1_700_000_000_000_001_000,
        1_700_000_000_123_456_789,
        253_402_300_799_999_999_000,  # the last microsecond of 9999
    ],
)
def test_generated_at_is_written_as_datetime_writes_it(monkeypatch, ns):
    import datetime
    import time

    monkeypatch.setattr(time, "time_ns", lambda: ns)
    epoch = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
    expected = (epoch + datetime.timedelta(microseconds=ns // 1000)).isoformat()
    assert cli._provenance([], None)["generated_at"] == expected


def test_predict_jm_overflowing_intensity_is_out_of_range(capsys):
    # k * (e0 - i + 1) = 1e308 * 1e308 overflows; the report used to hold inf.
    code, stdout, err = run(
        capsys, "predict", "jm", "--e0", "1e308", "--k", "1e308", "--index", "1", "--dt", "1"
    )
    assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
    assert error_json(err) == {
        "error": "OutOfRange",
        "message": "the intensity k * (e0 - i + 1) = 1e+308 * 1e+308 overflows a float",
        "exit_code": 2,
    }


def test_economics_underflowing_rate_is_out_of_range(capsys):
    # eps0 * tempo = 1e-300 * 1e-300 underflows to 0, the MTTF's denominator.
    code, stdout, err = run(
        capsys,
        "economics",
        "--eps0", "1e-300", "--tau0", "1e-300", "--size", "1", "--tempo", "1e-300",
        "--cost-error", "1", "--cost-test", "1", "--horizon", "1",
    )
    assert (code, stdout, len(err.strip().splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"


def test_simulate_weibull_overflow_emits_no_warning(capsys):
    # (-ln u)^(1/m) overflows for m = 0.001; numpy must not warn on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "simulate", "weibull", "--shape", "1e-3", "--scale", "1", "--count", "3", "--seed", "1"
        )
    assert code == 2
    assert stdout == ""
    assert len(err.strip().splitlines()) == 1
    assert error_json(err)["error"] == "OutOfRange"


def test_simulate_jm_overflow_is_out_of_range_without_warning(capsys):
    # k * e0 = 1e308 * 50 overflows the rate; the run used to exit 0 with clipped intervals.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "simulate", "jm", "--e0", "50", "--k", "1e308", "--count", "2", "--seed", "50"
        )
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"


def test_simulate_jm_overflowing_interval_emits_no_warning(capsys):
    # -log1p(-u) / (k * e0) with k = 5e-324 overflows the interval, not the rate.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "simulate", "jm", "--e0", "50", "--k", "5e-324", "--count", "2", "--seed", "5"
        )
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "jm", "--e0", "50", "--k", "0.004", "--count", "3"),
        ("simulate", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000"),
        ("simulate", "weibull", "--shape", "0.5", "--scale", "2", "--count", "3"),
        ("faulttol", "--total-time", "100", "--overhead", "1", "--failure-rate", "0.01",
         "--simulate", "3"),
    ],
    ids=["jm", "schumann", "weibull", "faulttol"],
)
def test_negative_seed_is_a_domain_error(tmp_path, capsys, argv):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("tau,corrected,exposure\n0.0,0,100.0\n")
    if "schumann" in argv:
        argv = (*argv, "--schedule", str(schedule))
    code, stdout, err = run(capsys, *argv, "--seed=-5")
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert json.loads(err) == {
        "error": "DomainError",
        "message": "seed must be a non-negative integer, got -5",
        "exit_code": 2,
    }


def test_faulttol_simulation_overflowing_int64_is_out_of_range(capsys):
    # p1 = exp(-0.5 * 90) ~ 3e-20: geometric draws pass 2**63 and their sum
    # used to wrap, reporting negative executions and elapsed time with exit 0.
    code, stdout, err = run(
        capsys,
        "faulttol", "--total-time", "100", "--overhead", "1", "--failure-rate", "0.5",
        "--module-time", "90", "--simulate", "3", "--seed", "1",
    )
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"


# Each verb that draws an array, with the flag that sizes it last.
_COUNTED = [
    ("simulate", "weibull", "--shape", "1", "--scale", "1", "--seed", "1", "--count"),
    ("simulate", "jm", "--e0", "1e300", "--k", "1", "--seed", "1", "--count"),
    ("faulttol", "--total-time", "100", "--overhead", "1", "--failure-rate", "0.01",
     "--seed", "1", "--simulate"),
]


@pytest.mark.parametrize("argv", _COUNTED, ids=["weibull", "jm", "faulttol"])
@pytest.mark.parametrize("count", [2**63, cli._MAX_ITEMS + 1])
def test_count_beyond_any_array_names_the_flag(capsys, argv, count):
    # numpy used to raise "Maximum allowed dimension exceeded" through a traceback.
    code, stdout, err = run(capsys, *argv, str(count))
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert json.loads(err) == {
        "error": "DomainError",
        "message": f"{argv[-1]} {count} is more than one array can hold (at most {cli._MAX_ITEMS})",
        "exit_code": 2,
    }


@pytest.mark.skipif(sys.maxsize < 2**63 - 1, reason="on a 32-bit build this count can be allocated")
@pytest.mark.parametrize("argv", _COUNTED, ids=["weibull", "jm", "faulttol"])
def test_count_beyond_memory_is_out_of_range(capsys, argv):
    # 8 EiB of draws: more than any address space, so the allocation fails at once.
    code, stdout, err = run(capsys, *argv, str(cli._MAX_ITEMS))
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    line = json.loads(err)
    assert line["error"] == "OutOfRange"
    assert line["message"].startswith("not enough memory: ")


def _fit_discovery(tmp_path, capsys, rows):
    path = tmp_path / "discovery.csv"
    path.write_text("tau,corrected\n" + "".join(f"{t},{c}\n" for t, c in rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "economics", "--fit", str(path), *ECONOMICS_COSTS)
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert error_json(err)["error"] == "OutOfRange"
    return error_json(err)["message"]


def test_economics_fit_search_range_overflow_is_out_of_range(tmp_path, capsys):
    # 100 * 3e306 overflows the upper end of the tau0 search; this used to die
    # with a ZeroDivisionError traceback after a RuntimeWarning.
    message = _fit_discovery(tmp_path, capsys, [("1e306", 1), ("2e306", 2), ("3e306", 5)])
    assert "search range" in message


def test_economics_fit_search_range_underflow_is_out_of_range(tmp_path, capsys):
    # 5e-324 / 100 underflows the lower end to 0; its log used to raise ValueError.
    message = _fit_discovery(tmp_path, capsys, [("5e-324", 1), ("1", 2), ("2", 5)])
    assert "search range" in message


def test_economics_fit_overflowing_profile_is_out_of_range(tmp_path, capsys):
    # counts @ growth overflows; numpy used to warn before an exit-3 line.
    message = _fit_discovery(tmp_path, capsys, [("1", "1"), ("2", "1e308"), ("3", "1.7e308")])
    assert "least-squares" in message


def _fit_error(tmp_path, capsys, model, text, *flags):
    """Run a fit that must fail: one JSON line on stderr, nothing on stdout, no warning."""
    path = tmp_path / "input.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "fit", model, "--input", str(path), *flags)
    assert (stdout, len(err.splitlines())) == ("", 1)
    payload = error_json(err)
    assert payload["exit_code"] == code
    return payload


def test_fit_schumann_overflowing_exposure_is_out_of_range(tmp_path, capsys):
    # residual * H overflowed during the scan at the data's scale: numpy used
    # to warn before an exit-3 NoConvergence line, and then the estimates of
    # c were OutOfRange.  At unit scale B/A rounds to the largest corrected
    # count with a failure, 50, so the root, if any, lies closer to the pole
    # than a float resolves: NoGrowthEvidence before any scan (NoConvergence
    # after a 16-point scan until the growth test compared B/A with that count).
    text = "tau,corrected,exposure,failures\n1.0,20,1000.0,10\n2.0,50,1.7976931348623157e308,10\n"
    payload = _fit_error(tmp_path, capsys, "schumann", text, "--instructions", "1000")
    assert (payload["exit_code"], payload["error"]) == (3, "NoGrowthEvidence")
    assert "corrected count 50 is not below 50" in payload["message"]


def test_fit_schumann_overflowing_c_square_is_a_singular_determinant(tmp_path, capsys):
    # c is about 1.25e172, so c * c is inf: a11 = sum(n_j) / c^2 was 0 and the
    # determinant of the information in (c, e0) was 0.  At unit scale the
    # information is regular, and var_c, about 1.5e344, is beyond a float.
    text = "tau,corrected,exposure,failures\n1.0,20,1e-170,10\n2.0,50,1.6e-170,10\n"
    payload = _fit_error(tmp_path, capsys, "schumann", text, "--instructions", "1000")
    assert (payload["exit_code"], payload["error"]) == (2, "OutOfRange")
    assert payload["message"].startswith("var_c = ") and payload["message"].endswith(
        " is not a positive finite float"
    )


def test_fit_jm_weighted_sum_past_the_float_range_is_no_convergence(tmp_path, capsys):
    # (i - 1) * x_i overflows in B at the data's scale, not at unit scale.
    # There B/A rounds to k - 1 = 2, so the root lies within about 1e-306 of
    # the pole, closer than the scan reaches.
    payload = _fit_error(tmp_path, capsys, "jm", "epoch\n1\n99\n1.7976931348623157e308\n")
    assert (payload["exit_code"], payload["error"]) == (3, "NoConvergence")
    assert "mean index 2 exceeds threshold 1" in payload["message"]


@pytest.mark.parametrize("last", ["1e300", "1e200"], ids=["e0-times-a-overflow", "root-at-pole"])
def test_fit_jm_root_beside_the_pole_is_no_convergence(tmp_path, capsys, last):
    # B/A rounds to 1 > (k - 1)/2, so a root exists, but within 2e-200 of the
    # pole at e0 = 1.  With 1e300, e0 * A used to overflow into a
    # ZeroDivisionError traceback; with 1e200 the run used to report
    # NoGrowthEvidence with a mean index above its threshold.
    payload = _fit_error(tmp_path, capsys, "jm", f"epoch\n2\n{last}\n")
    assert (payload["exit_code"], payload["error"]) == (3, "NoConvergence")
    assert "scanned range" in payload["message"]


def test_output_file_and_determinism(tmp_path, capsys):
    path = tmp_path / "failures.csv"
    path.write_text(EPOCHS_GROWTH)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, stdout, _ = run(
            capsys, "fit", "jm", "--input", str(path), "--output", str(out)
        )
        assert code == 0
        assert stdout == ""

    def stable_lines(p):
        return [l for l in p.read_text().splitlines() if "generated_at" not in l]

    assert stable_lines(out1) == stable_lines(out2)
    # Only the timestamp line may differ.
    diff = [
        (a, b)
        for a, b in zip(out1.read_text().splitlines(), out2.read_text().splitlines())
        if a != b
    ]
    assert all("generated_at" in a for a, _ in diff)


def _child_env() -> dict[str, str]:
    """The environment of a new interpreter that imports the relgauge this process imported.

    Its parent directory goes first on the child's PYTHONPATH, so the fresh-interpreter guards
    check whichever copy the suite runs against: ``src`` with PYTHONPATH=src, and the installed
    package when the suite runs without it, as CI runs it.
    """
    home = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the relgauge this process imported."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_child_env(), check=True, timeout=120, capture_output=True, text=True
    )


@pytest.mark.parametrize("unbuffered", [True, False], ids=["PYTHONUNBUFFERED=1", "buffered"])
@pytest.mark.parametrize(
    "args, taken",
    [
        (["simulate", "weibull", "--shape", "0.7", "--scale", "1", "--count", "200000", "--seed", "1"], b'{\n  "model'),
        (["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2"], b""),
    ],
    ids=["cut-short", "small-report"],
)
def test_closed_stdout_exits_2_with_one_line(unbuffered, args, taken):
    """The reader takes a few bytes, or none, and closes the pipe: the call exits 2 with one error line.

    Cut short, the next block's write fails: unbuffered, one write of the whole report would lose
    the rest without an error and exit 0.  A small report fails at its flush, not at exit, where
    Python would print a traceback and exit 120.
    """
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "relgauge.cli", *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.read(len(taken)) == taken
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=120)
    assert (code, len(err.splitlines())) == (2, 1), err
    assert error_json(err) == {"error": "BrokenPipeError", "message": "[Errno 32] Broken pipe", "exit_code": 2}


def test_cli_import_does_not_load_scipy():
    _fresh_python(
        "import relgauge.cli, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )


# Whether numpy is loaded after `import relgauge`, after `import relgauge.cli`
# and after one CLI call, printed with the call's exit code as the last line.
_NUMPY_PROBE = """
import json, sys
import relgauge
loaded = ["numpy" in sys.modules]
import relgauge.cli
loaded.append("numpy" in sys.modules)
code = relgauge.cli.run_cli(sys.argv[1:])
loaded.append("numpy" in sys.modules)
print(json.dumps([code, loaded]))
"""


def _numpy_probe(args: list[str]) -> list:
    return json.loads(_fresh_python(_NUMPY_PROBE, *args).stdout.splitlines()[-1])


def test_closed_form_verbs_do_not_load_numpy(tmp_path):
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_TWO_RUNS)
    runs = tmp_path / "runs.csv"
    runs.write_text("duration,outcome\n5.0,success\n3.0,failure\n")
    weights = tmp_path / "w.csv"
    weights.write_text("weight\n1.5\n0.5\n")
    for args in (
        ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
        ["predict", "weibull", "--shape", "0.5", "--scale", "1.0", "--time", "4.0"],
        ["predict", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000",
         "--corrected", "20", "--time", "1.0"],
        ["economics", "--eps0", "100", "--tau0", "10", "--size", "10000", "--tempo", "1000",
         "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1"],
        ["faulttol", "--total-time", "1000", "--overhead", "1", "--failure-rate", "0.001"],
        ["fit", "nelson", "--profile", str(profile), "--simplified", str(runs), "--weights", str(weights)],
    ):
        assert _numpy_probe(args) == [0, [False, False, False]], args


def test_simulate_loads_numpy_when_it_draws(tmp_path):
    """Seeded draws come from numpy's generator from draws.DRAWS_MIN draws on, and at any
    size for a faulttol success probability below 1/3, where numpy's geometric sampler inverts."""
    faulttol = ["faulttol", "--total-time", "1000000", "--seed", "3"]
    for draws, loaded in ((DRAWS_MIN - 1, False), (DRAWS_MIN, True)):
        for args in (
            ["simulate", "jm", "--e0", str(2 * DRAWS_MIN), "--k", "0.004", "--count", str(draws), "--seed", "7"],
            ["simulate", "weibull", "--shape", "0.5", "--scale", "2.0", "--count", str(draws), "--seed", "3"],
            # p1 = exp(-lam t) at the planned t is about 0.82; two draws a module
            [*faulttol, "--overhead", "100", "--failure-rate", "0.001", "--simulate", str(draws // 2)],
        ):
            assert _numpy_probe(args) == [0, [False, False, loaded]], args
    # p1 is about 0.22 at the planned t: below numpy's 1/3 for the geometric search
    args = [*faulttol, "--overhead", "20200", "--failure-rate", "0.001", "--simulate", "10"]
    assert _numpy_probe(args) == [0, [False, False, True]]


def test_small_fits_do_not_load_numpy(tmp_path):
    periods = tmp_path / "periods.csv"
    periods.write_text(PERIODS_TWO)
    for args in (
        ["fit", "jm", "--input", str(NTDS)],
        ["fit", "weibull", "--input", str(NTDS)],
        ["fit", "schumann", "--input", str(periods), "--instructions", "1000"],
    ):
        assert _numpy_probe(args) == [0, [False, False, False]], args


def _discovery_text(rows: int) -> str:
    """A discovery file of ``rows`` counts rising toward 300 with tau0 = rows / 3, and a little noise."""
    counts = itertools.accumulate(
        max(300.0 * (math.exp(-(t - 1) / (rows / 3)) - math.exp(-t / (rows / 3))) + (t % 3 - 1) * 0.25, 0.0)
        for t in range(1, rows + 1)
    )
    return "tau,corrected\n" + "".join(f"{t}.0,{c!r}\n" for t, c in enumerate(counts, 1))


def test_numpy_free_verbs_do_not_import_typing(tmp_path):
    """Without site (which may import typing or pathlib itself), no verb that runs
    without numpy loads typing, nor pathlib, json, statistics, fractions or decimal,
    nor argparse (with its gettext and shutil), which only help and usage errors need;
    the seeded draws and the discovery fit are among them at the benchmark's cli-cold sizes,
    and so is fit nelson on a profile of ARRAY_MIN - 1 rows."""
    periods = tmp_path / "periods.csv"
    periods.write_text(PERIODS_TWO)
    discovery = tmp_path / "discovery.csv"
    discovery.write_text(_discovery_text(20))
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_TWO_RUNS)
    wide_profile = tmp_path / "wide_profile.csv"  # one row short of numpy's reader
    wide_profile.write_text("p,y\n" + "".join(f"{1 / (ARRAY_MIN - 1)!r},{j % 2}\n" for j in range(ARRAY_MIN - 1)))
    schedule = tmp_path / "schedule.csv"  # Poisson means from about 20 down to 4: both of numpy's samplers
    schedule.write_text("tau,corrected,exposure\n" + "".join(f"{j + 1}.0,{2 * j},1570.0\n" for j in range(40)))
    calls = [
        ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
        ["predict", "weibull", "--shape", "0.5", "--scale", "1.0", "--time", "4.0"],
        ["predict", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000",
         "--corrected", "20", "--time", "1.0"],
        ["economics", "--eps0", "100", "--tau0", "10", "--size", "10000", "--tempo", "1000",
         "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1"],
        ["faulttol", "--total-time", "1000", "--overhead", "1", "--failure-rate", "0.001"],
        ["fit", "nelson", "--profile", str(profile)],
        ["fit", "nelson", "--profile", str(wide_profile)],
        ["fit", "jm", "--input", str(NTDS)],
        ["fit", "weibull", "--input", str(NTDS)],
        ["fit", "schumann", "--input", str(periods), "--instructions", "1000"],
        ["simulate", "jm", "--e0", "50", "--k", "0.004", "--count", "40", "--seed", "7"],
        ["simulate", "weibull", "--shape", "0.7", "--scale", "1.0", "--count", "50", "--seed", "3"],
        ["simulate", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000",
         "--schedule", str(schedule), "--seed", "11"],
        ["faulttol", "--total-time", "1000", "--overhead", "100", "--failure-rate", "0.001",
         "--simulate", "1000", "--seed", "3"],
        ["economics", "--fit", str(discovery), "--size", "10000", "--tempo", "1000",
         "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1"],
    ]
    unwanted = ["typing", "numpy", "pathlib", "json", "statistics", "fractions", "decimal", "argparse", "gettext", "shutil"]
    # The child loads nothing but relgauge: its calls arrive as a literal and its result leaves as a repr.
    code = (
        "import sys\n"
        "import relgauge.cli\n"
        f"codes = [relgauge.cli.run_cli([*args, '--output', sys.argv[1]]) for args in {calls!r}]\n"
        f"print(repr([codes, [m for m in {unwanted!r} if m in sys.modules]]))\n"
    )
    home = str(Path(cli.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tmp_path / "out.json")],
        env={**os.environ, "PYTHONPATH": home}, check=True, timeout=120, capture_output=True, text=True,
    )
    assert ast.literal_eval(child.stdout.splitlines()[-1]) == [[0] * len(calls), []]


def test_fits_load_numpy_from_array_min_values_on(tmp_path):
    """The list path ends at numerics.ARRAY_MIN epochs, whatever sizes the benchmark uses."""
    for count, loaded in ((ARRAY_MIN - 1, False), (ARRAY_MIN, True)):
        path = tmp_path / f"epochs{count}.csv"
        # Intervals 1/(e0 - i + 1) for e0 = count + 9: growth, so the fit exists.
        epochs = itertools.accumulate(1.0 / (count + 10 - i) for i in range(1, count + 1))
        path.write_text("epoch\n" + "".join(f"{t!r}\n" for t in epochs))
        assert _numpy_probe(["fit", "jm", "--input", str(path)]) == [0, [False, False, loaded]], count


def test_economics_fit_loads_numpy_from_array_min_rows_on(tmp_path):
    """The discovery fit runs on lists below numerics.ARRAY_MIN rows and on arrays from there on."""
    for rows, loaded in ((ARRAY_MIN - 1, False), (ARRAY_MIN, True)):
        path = tmp_path / f"discovery{rows}.csv"
        path.write_text(_discovery_text(rows))
        args = ["economics", "--fit", str(path), "--size", "10000", "--tempo", "1000",
                "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1"]
        assert _numpy_probe(args) == [0, [False, False, loaded]], rows


# cli.main() on the argv after the script's, with an exit hook that prints whether the
# collector is frozen: main freezes it between run_cli and sys.exit; run_cli alone never does.
_MAIN_PROBE = """
import atexit, gc, sys
from relgauge import cli
if sys.argv[1] == "run_cli":
    code = cli.run_cli(sys.argv[2:])
    print("frozen", gc.get_freeze_count() > 0)
    sys.exit(code)
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
sys.argv[1:] = sys.argv[2:]
cli.main()
"""


@pytest.mark.parametrize("entry", ["main", "run_cli"])
def test_main_freezes_the_collector_before_exit_and_run_cli_never_does(tmp_path, entry):
    report = tmp_path / "report.json"
    home = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))}
    args = ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"]
    for argv, code in (([*args, "--output", str(report)], 0), ([*args[:-1], "x"], 1)):
        child = subprocess.run(
            [sys.executable, "-c", _MAIN_PROBE, entry, *argv], env=env, timeout=120, capture_output=True, text=True
        )
        assert child.returncode == code, child.stderr
        assert child.stdout == f"frozen {entry == 'main'}\n"
        assert len(child.stderr.splitlines()) == code  # one JSON error line for the usage error
    expected = {"model": "jm", "intensity": 0.5, "reliability": math.exp(-1.0)}
    written = json.loads(report.read_text())
    assert written.pop("provenance")["inputs"] == []
    assert written == pytest.approx(expected, rel=1e-15)


# run_cli on ``args`` with its report going to ``output``: the exit code and
# the report without its timestamp.  Errors go to the process's stderr.
_ONE_CALL = """
import json, sys
from pathlib import Path
import relgauge.cli

def call(args, output):
    code = relgauge.cli.run_cli([*args, "--output", output])
    report = json.loads(Path(output).read_text()) if Path(output).exists() else None
    if report:
        del report["provenance"]["generated_at"]
    return [code, report]
"""


def test_calls_in_one_process_give_what_fresh_processes_give(tmp_path):
    """The parser is built once per process: a usage error, then a JM fit,
    then a Weibull fit with its defaults, each as a fresh process gives it."""
    calls = [
        ["fit", "jm", "--confidence", "x"],
        ["fit", "jm", "--input", str(NTDS)],
        ["fit", "weibull", "--input", str(NTDS)],
    ]
    program = _ONE_CALL + (
        "print(json.dumps([call(a, f'{sys.argv[1]}{i}.json') for i, a in enumerate(json.loads(sys.argv[2]))]))"
    )
    fresh = [_fresh_python(program, str(tmp_path / f"fresh{i}-"), json.dumps([args])) for i, args in enumerate(calls)]
    serial = _fresh_python(program, str(tmp_path / "serial-"), json.dumps(calls))
    assert json.loads(serial.stdout) == [json.loads(child.stdout)[0] for child in fresh]
    assert serial.stderr == "".join(child.stderr for child in fresh)
    assert [code for code, _ in json.loads(serial.stdout)] == [1, 0, 0]


def test_cli_calls_are_safe_across_threads(tmp_path):
    """Four threads make their first run_cli calls at once, on mixed verbs; each result is the serial one."""
    periods = tmp_path / "periods.csv"
    periods.write_text(PERIODS_TWO)
    calls = [
        ["fit", "jm", "--input", str(NTDS)],
        ["fit", "weibull", "--input", str(NTDS), "--moment-form", "literal"],
        ["fit", "schumann", "--input", str(periods), "--instructions", "1000"],
        ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
        ["fit", "jm", "--confidence", "x"],
    ]
    _fresh_python(_ONE_CALL + """
import threading
out, calls = sys.argv[1], json.loads(sys.argv[2])
start = threading.Barrier(4, timeout=60)
results = [None] * 4

def work(i):
    start.wait()
    results[i] = [call(calls[(i + j) % len(calls)], f"{out}/{i}-{j}.json") for j in range(len(calls))]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
serial = [call(args, f"{out}/serial-{j}.json") for j, args in enumerate(calls)]
for i, result in enumerate(results):
    assert result == serial[i:] + serial[:i], (i, result)
""", str(tmp_path), json.dumps(calls))


def test_reports_on_stdout_from_threads_come_whole(monkeypatch):
    """Four threads write reports of four blocks or more to one stdout at once: each comes whole, as a solo call writes it."""
    args = ["simulate", "weibull", "--shape", "0.7", "--scale", "1", "--count", str(3 * cli._BLOCK + 1), "--seed"]
    solo = []
    for seed in range(4):
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert run_cli([*args, str(seed)]) == 0
        solo.append(sys.stdout.getvalue())
    start = threading.Barrier(4, timeout=60)
    codes = [None] * 4

    def work(seed):
        start.wait()
        codes[seed] = run_cli([*args, str(seed)])

    monkeypatch.setattr(sys, "stdout", io.StringIO())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * 4
    reports = [report + "\n}\n" for report in sys.stdout.getvalue().split("\n}\n")[:-1]]

    def timeless(text):
        return re.sub(r'"generated_at": "[^"]*"', "", text)

    assert sorted(map(timeless, reports)) == sorted(map(timeless, solo))


def test_first_generator_calls_are_safe_across_threads():
    """Four threads make their first generator calls at once: two small draws, which run on
    the pure-Python stream, and one at draws.DRAWS_MIN, which imports numpy, so that
    numpy's first import is raced too, and the first import of relgauge.draws; results match serial calls."""
    _fresh_python(f"""
import sys, threading
from relgauge import model_jm, model_weibull

assert "numpy" not in sys.modules
draws = [
    lambda seed: model_jm.generate_intervals(50.0, 0.004, 40, seed),
    lambda seed: model_weibull.generate(0.5, 2.0, 25, seed),
    lambda seed: model_jm.generate_intervals(1e4, 0.004, {DRAWS_MIN}, seed),
]
start = threading.Barrier(4, timeout=60)
results = [None] * 4

def work(i):
    start.wait()
    results[i] = [draw(i) for draw in draws[i % 3 :] + draws[: i % 3]]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
assert "numpy" in sys.modules
assert results == [[draw(i) for draw in draws[i % 3 :] + draws[: i % 3]] for i in range(4)], results
""")


def test_package_import_loads_no_submodule():
    _fresh_python(
        "import relgauge, sys; "
        "assert [m for m in sys.modules if m.startswith('relgauge.')] == [], sys.modules"
    )


def test_cli_import_and_parser_load_no_model_module():
    models = {f"relgauge.{m}" for m in _COLD_KINDS.values()} | {"relgauge.failure_data"}
    unwanted = sorted(models) + ["dataclasses", "datetime", "hashlib", "statistics"]
    _fresh_python(f"""
import sys
import relgauge.cli
relgauge.cli._build_parser()
loaded = [m for m in {unwanted!r} if m in sys.modules]
assert loaded == [], loaded
""")


# The relgauge submodules loaded by one CLI call and whether it loaded
# dataclasses, printed with its exit code.
_MODULE_PROBE = """
import json, sys
import relgauge.cli
code = relgauge.cli.run_cli(sys.argv[1:])
relgauge_modules = sorted(m for m in sys.modules if m.startswith("relgauge."))
print(json.dumps([code, relgauge_modules, "dataclasses" in sys.modules]))
"""


# The benchmark's 14 cli-cold kinds and the one model module each needs.
_COLD_KINDS = {
    "fit_jm": "model_jm",
    "fit_weibull": "model_weibull",
    "fit_schumann": "model_schumann",
    "fit_nelson": "model_nelson",
    "economics_params": "debug_economics",
    "economics_fit": "debug_economics",
    "faulttol_plan": "fault_tolerance",
    "faulttol_simulate": "fault_tolerance",
    "simulate_jm": "model_jm",
    "simulate_schumann": "model_schumann",
    "simulate_weibull": "model_weibull",
    "predict_jm": "model_jm",
    "predict_schumann": "model_schumann",
    "predict_weibull": "model_weibull",
}

# The kinds that load failure_data: those that read one of its formats, and
# the Schumann ones, whose model holds periods as failure_data records.
_READS_FAILURE_DATA = {
    "fit_jm",
    "fit_weibull",
    "fit_schumann",
    "fit_nelson",
    "economics_fit",
    "simulate_schumann",
    "predict_schumann",
}

# The kinds that draw, which alone load the seeded-draw module.
_DRAWS = {"simulate_jm", "simulate_schumann", "simulate_weibull", "faulttol_simulate"}


def _cold_argv(tmp_path, kind):
    weights = tmp_path / "w.csv"
    weights.write_text("weight\n1.5\n0.5\n")
    argvs = {}
    for args in _verb_args(tmp_path):
        if args[0] == "economics":
            argvs["economics_fit" if "--fit" in args else "economics_params"] = args
        elif args[0] == "faulttol":
            argvs["faulttol_plan"] = args[: args.index("--simulate")]
            argvs["faulttol_simulate"] = args
        else:
            argvs[f"{args[0]}_{args[1]}"] = args
    argvs["fit_nelson"] = [*argvs["fit_nelson"], "--weights", str(weights)]
    assert argvs.keys() == _COLD_KINDS.keys()
    return argvs[kind]


@pytest.mark.parametrize("kind", _COLD_KINDS)
def test_each_cold_kind_loads_only_its_model_module(tmp_path, kind):
    args = _cold_argv(tmp_path, kind)
    probe = _fresh_python(_MODULE_PROBE, *args).stdout.splitlines()[-1]
    code, loaded, dataclasses = json.loads(probe)
    assert code == 0, args
    base = ["cli", "errors", "numerics", "record", _COLD_KINDS[kind]]
    if kind in _READS_FAILURE_DATA:
        base.append("failure_data")
    if kind in _DRAWS:
        base.append("draws")
    assert loaded == sorted(f"relgauge.{m}" for m in base), args
    assert not dataclasses, args


def test_every_export_resolves_and_is_listed():
    _fresh_python("""
import relgauge
listed = dir(relgauge)
for name in relgauge.__all__:
    assert name in listed, name
    assert getattr(relgauge, name) is not None, name
namespace = {}
exec("from relgauge import *", namespace)
assert all(namespace[name] is getattr(relgauge, name) for name in relgauge.__all__)
try:
    relgauge.NoSuchName
except AttributeError as exc:
    assert "NoSuchName" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
""")


def test_first_touch_of_exports_is_safe_across_threads():
    """Four threads resolve two lazy exports at once; all get the objects a serial import gives."""
    _fresh_python("""
import sys, threading
import relgauge

start = threading.Barrier(4, timeout=60)
results = [None] * 4

def work(i):
    start.wait()
    names = ["JmFit", "WeibullFit"][:: 1 if i % 2 else -1]
    results[i] = {name: getattr(relgauge, name) for name in names}

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
from relgauge.model_jm import JmFit
from relgauge.model_weibull import WeibullFit
assert results == [{"JmFit": JmFit, "WeibullFit": WeibullFit}] * 4, results  # classes compare by identity
""")


def test_moment_form_choices_are_the_enum_values():
    from relgauge.model_weibull import MomentForm

    parser = cli._build_parser()
    for name in ("fit", "weibull"):
        verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = verbs.choices[name]
    moment_form = next(a for a in parser._actions if a.dest == "moment_form")
    assert moment_form.choices == [f.value for f in MomentForm]
    assert moment_form.default == MomentForm.CV_CORRECTED.value


def test_emit_long_float_lists_match_json_dumps(tmp_path):
    # Float lists are joined a block at a time; lengths around the block size.
    xs = [i / 7.0 for i in range(2 * cli._BLOCK + 1)] + [-0.0, 5e-324, 1e22]
    report = {"a": {"xs": xs}, "b": [xs[: cli._BLOCK], xs[: cli._BLOCK + 1]], "c": xs[:1]}
    out = tmp_path / "report.json"
    cli._emit(report, str(out))
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_peak(report: dict, output: str | None) -> int:
    """The most memory, by tracemalloc, that one _emit call holds at once beyond what it was given."""
    cli._emit(report, output)  # the first call sets up the codec and the file layers outside the count
    tracemalloc.start()
    try:
        cli._emit(report, output)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
def test_emit_holds_a_few_blocks_of_text(tmp_path, monkeypatch, to_file):
    """Two float lists of 2^17 floats: the text of a few blocks is alive at once, never the report's."""
    rng = np.random.default_rng(3)
    report = {"a": rng.random(1 << 17).tolist(), "b": rng.exponential(1.0, 1 << 17).tolist()}
    out = tmp_path / "report.json"
    cli._emit(report, str(out))
    block_chars = out.stat().st_size * cli._BLOCK / (2 << 17)
    if not to_file:
        monkeypatch.setattr(sys, "stdout", open(os.devnull, "w"))
    try:
        peak = _emit_peak(report, str(out) if to_file else None)
    finally:
        if not to_file:
            sys.stdout.close()
    assert peak <= 8 * block_chars


_LAST_BLOCK = 2 * cli._BLOCK + 5  # the index of a float in a float list's third block


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "place",
    [
        lambda x: {"xs": [1.0, x, 2.0]},
        lambda x: {"xs": [[1, 2.0], [3, x]]},
        lambda x: {"a": {"b": x}, "z": [1.0]},
        lambda x: {"a": [0.5] * _LAST_BLOCK, "xs": [0.25] * _LAST_BLOCK + [x]},
    ],
    ids=["float-list", "nested-list", "dict-value", "last-block"],
)
def test_emit_non_finite_is_out_of_range(tmp_path, capsys, bad, place):
    """The error is raised before the file is opened and before a byte reaches stdout."""
    out = tmp_path / "report.json"
    for output in (str(out), None):
        with pytest.raises(OutOfRange) as info:
            cli._emit(place(bad), output)
        assert f"Out of range float values are not JSON compliant: {bad!r}" in str(info.value)
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "report, field",
    [
        ({"xs": [1.0, math.inf, 2.0]}, "xs[1]"),
        ({"xs": [[1, 2.0], [3, math.nan]], "a": -math.inf}, "a"),
        ({"z": {"b": math.nan}, "a": {"b": 1.0, "c": (0.5, -math.inf)}}, "a.c[1]"),
        ({"xs": [0.5] * _LAST_BLOCK + [math.inf]}, f"xs[{_LAST_BLOCK}]"),
    ],
    ids=["float-list", "first-in-key-order", "nested-dict", "last-block"],
)
def test_emit_names_the_first_non_finite_field(tmp_path, report, field):
    with pytest.raises(OutOfRange, match=f"^report field {re.escape(field)} holds a value that is not a finite number: "):
        cli._emit(report, str(tmp_path / "report.json"))


def test_non_finite_plan_field_is_named(capsys):
    """T / t* = 1e300 / 7.1e-156 is beyond a float: the error names module_count and its formula."""
    code, stdout, err = run(capsys, "faulttol", "--total-time", "1e300", "--overhead", "1e-300", "--failure-rate", "1e10")
    assert (code, stdout, len(err.splitlines())) == (2, "", 1)
    assert error_json(err) == {
        "error": "OutOfRange",
        "message": "module_count = T / t* overflows a float for T = 1e+300, t* = 7.071067811865493e-156",
        "exit_code": 2,
    }


def _verb_args(tmp_path):
    epochs = tmp_path / "failures.csv"
    epochs.write_text(EPOCHS_GROWTH)
    periods = tmp_path / "periods.csv"
    periods.write_text(PERIODS_TWO)
    profile = tmp_path / "profile.csv"
    profile.write_text(PROFILE_TWO_RUNS)
    runs = tmp_path / "runs.csv"
    runs.write_text("duration,outcome\n5.0,success\n3.0,failure\n")
    discovery = tmp_path / "discovery.csv"
    discovery.write_text(
        "tau,corrected\n"
        + "".join(f"{t!r},{100.0 * -math.expm1(-t / 10.0)!r}\n" for t in (5.0, 10.0, 20.0, 40.0))
    )
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("tau,corrected,exposure\n1.0,10,1570.0\n2.0,30,1570.0\n")
    econ = [
        "--size", "10000", "--tempo", "1000",
        "--cost-error", "7.5", "--cost-test", "1", "--horizon", "1",
    ]
    return [
        ["fit", "jm", "--input", str(epochs)],
        ["fit", "weibull", "--input", str(epochs)],
        ["fit", "schumann", "--input", str(periods), "--instructions", "1000"],
        ["fit", "nelson", "--profile", str(profile), "--simplified", str(runs)],
        ["economics", "--eps0", "100", "--tau0", "10", *econ],
        ["economics", "--fit", str(discovery), *econ],
        ["faulttol", "--total-time", "1000", "--overhead", "100", "--failure-rate", "0.001",
         "--simulate", "200", "--seed", "7"],
        ["simulate", "jm", "--e0", "50", "--k", "0.004", "--count", "40", "--seed", "7"],
        ["simulate", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000",
         "--schedule", str(schedule), "--seed", "11"],
        ["simulate", "weibull", "--shape", "0.5", "--scale", "2.0", "--count", "25", "--seed", "3"],
        ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
        ["predict", "schumann", "--e0", "100", "--c", "0.125", "--instructions", "1000",
         "--corrected", "20", "--time", "1.0"],
        ["predict", "weibull", "--shape", "0.5", "--scale", "1.0", "--time", "4.0"],
    ]


def test_every_report_has_json_dumps_layout(tmp_path, capsys):
    for args in _verb_args(tmp_path):
        code, body, err = run(capsys, *args)
        assert code == 0, (args, err)
        assert body == json.dumps(json.loads(body), indent=2, sort_keys=True) + "\n", args


# The keys of each fit report, with the keys of its nested "ci".
_FIT_KEYS = {
    "jm": ({"model", "e0", "e0_rounded", "k", "k_obs", "var_e0", "var_k", "rho", "confidence",
            "ci", "residuals", "provenance"}, {"e0", "k"}),
    "schumann": ({"model", "e0", "e0_rounded", "c", "instructions", "var_e0", "var_c", "rho",
                  "confidence", "ci", "residuals", "k", "provenance"}, {"e0", "c"}),
    "weibull": ({"model", "m", "lambda", "mttf", "moment_form", "k_obs", "warning", "provenance"},
                None),
    "nelson": ({"model", "runs", "q", "reliability", "certain_failure", "simplified",
                "provenance"}, None),
}


def test_each_fit_report_has_its_keys(tmp_path, capsys):
    fits = [args for args in _verb_args(tmp_path) if args[0] == "fit"]
    assert sorted(args[1] for args in fits) == sorted(_FIT_KEYS)
    for args in fits:
        report = run_json(capsys, *args)
        keys, ci_keys = _FIT_KEYS[args[1]]
        assert report.keys() == keys, args
        assert (report["ci"].keys() if "ci" in report else None) == ci_keys, args
        if "e0_rounded" in report:
            assert report["e0_rounded"] == round(report["e0"]), args
        if args[1] == "schumann":
            assert report["k"] == len(PERIODS_TWO.splitlines()) - 1, args  # one per period row


@pytest.mark.parametrize("model, key", [("jm", "intervals"), ("weibull", "times")])
def test_simulate_count_zero_draws_nothing(capsys, model, key):
    params = {"jm": ["--e0", "50", "--k", "0.004"], "weibull": ["--shape", "0.5", "--scale", "2"]}
    report = run_json(capsys, "simulate", model, *params[model], "--count", "0", "--seed", "1")
    assert report[key] == []


def _large_inputs():
    """Files of k = 2*10^4 epochs, 2*10^3 periods and 2*10^4 profile rows (200 runs)."""
    rng = np.random.default_rng(6)
    k = 20_000
    epochs = np.cumsum(rng.exponential(1.25 * k / (1.25 * k - np.arange(k))))
    count = 2_000
    corrected = np.floor(np.linspace(0.0, 0.7 * 5000, count)).astype(int)
    exposure = rng.uniform(0.5, 1.5, count)
    failures = rng.poisson(10.0 * (5000 - corrected) / 5000 * exposure)
    probs = rng.dirichlet(np.ones(100), size=200)
    indicators = (rng.random((200, 100)) < 0.05).astype(int)
    lines = {
        "epochs": ["epoch", *map(repr, epochs.tolist())],
        "periods": ["tau,corrected,exposure,failures"]
        + [
            f"{i + 1.0!r},{c},{e!r},{f}"
            for i, (c, e, f) in enumerate(zip(corrected.tolist(), exposure.tolist(), failures.tolist()))
        ],
        "profile": ["run,p,y"]
        + [
            f"{run + 1},{p!r},{y}"
            for run in range(200)
            for p, y in zip(probs[run].tolist(), indicators[run].tolist())
        ],
    }
    return lines


def test_fallback_file_gives_the_same_report(tmp_path, capsys, monkeypatch):
    """A quoted token sends a whole file down the row-by-row reader; the report must not change."""
    reads = []
    row_reader = failure_data._read_rows
    monkeypatch.setattr(failure_data, "_read_rows", lambda *args: reads.append(1) or row_reader(*args))
    commands = {
        "epochs": [["fit", "jm"], ["fit", "weibull"]],
        "periods": [["fit", "schumann", "--instructions", "1000000"]],
        "profile": [["fit", "nelson"]],
    }
    for name, lines in _large_inputs().items():
        plain, quoted = tmp_path / f"{name}.csv", tmp_path / f"{name}-quoted.csv"
        plain.write_text("\n".join(lines) + "\n")
        token, _, rest = lines[1].partition(",")
        quoted.write_text("\n".join([lines[0], f'"{token}"' + _ + rest, *lines[2:]]) + "\n")
        flag = "--profile" if name == "profile" else "--input"
        for command in commands[name]:
            reports = []
            for path, fallbacks in ((plain, 0), (quoted, 1)):
                report = run_json(capsys, *command, flag, str(path))
                assert len(reads) == fallbacks, (command, path.name)
                del report["provenance"]
                reports.append(json.dumps(report, sort_keys=True))
                reads.clear()
            assert reports[0] == reports[1], command


def test_fits_report_the_residuals_they_checked(tmp_path, capsys, monkeypatch):
    """Each fit computes its O(k) stationarity check once; the report reuses it."""
    calls = []
    for module, name in ((model_jm, "stationarity_residual"), (numerics.GrowthLikelihood, "residual")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    epochs = tmp_path / "epochs.csv"
    epochs.write_text(EPOCHS_GROWTH)
    periods = tmp_path / "periods.csv"
    periods.write_text(PERIODS_TWO)
    run_json(capsys, "fit", "jm", "--input", str(epochs))
    run_json(capsys, "fit", "schumann", "--input", str(periods), "--instructions", "1000")
    assert calls == ["stationarity_residual", "residual"]
