"""Known answers on published data: the 26 NTDS inter-failure times.

The fixture ``ntds_epochs.csv`` holds the cumulative failure days of the
NTDS production phase (Jelinski & Moranda 1972, as reprinted by Goel &
Okumoto, IEEE Trans. Reliability R-28(3), 1979): the running sums of 9, 12,
11, 4, 7, 2, 5, 8, 5, 7, 1, 6, 1, 9, 4, 1, 3, 3, 6, 1, 11, 33, 7, 91, 2, 1,
whose total, 250, is the published day of the 26th failure.  The values
are pinned within tolerances, not bits, so that a last bit that depends on
the CPU does not fail them.
"""

import json
from pathlib import Path

import pytest

from relgauge import failure_data, model_jm, model_weibull
from relgauge.cli import run_cli

NTDS = Path(__file__).with_name("ntds_epochs.csv")
DAYS = [9, 12, 11, 4, 7, 2, 5, 8, 5, 7, 1, 6, 1, 9, 4, 1, 3, 3, 6, 1, 11, 33, 7, 91, 2, 1]

JM_E0 = 31.2158715734688
JM_K = 0.006849373000606912
WEIBULL_M = {"cv": 0.5852097771289522, "literal": 0.6795204565110442}
REL = 1e-9


def _intervals():
    return failure_data.intervals_from_epochs(failure_data.parse_failure_epochs(NTDS.read_text()))


def test_the_fixture_is_the_published_data():
    assert _intervals() == DAYS
    assert sum(DAYS) == 250


def test_jm_estimates():
    fit = model_jm.fit_mle(_intervals())
    assert fit.e0_hat == pytest.approx(JM_E0, rel=REL)
    assert fit.k_hat == pytest.approx(JM_K, rel=REL)
    assert fit.k_obs == 26


@pytest.mark.parametrize("form", list(model_weibull.MomentForm))
def test_weibull_shapes(form):
    fit = model_weibull.fit_moments(_intervals(), form)
    assert fit.m == pytest.approx(WEIBULL_M[form.value], rel=REL)


def _report(capsys, *args, path=NTDS):
    code = run_cli(["fit", *args, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_fit_jm_on_the_file(capsys, tmp_path):
    report = _report(capsys, "jm")
    assert (report["model"], report["k_obs"], report["e0_rounded"]) == ("jm", 26, 31)
    assert report["e0"] == pytest.approx(JM_E0, rel=REL)
    assert report["k"] == pytest.approx(JM_K, rel=REL)
    assert report["residuals"][0] <= 1e-9
    crlf = tmp_path / "ntds_crlf.csv"
    crlf.write_bytes(NTDS.read_bytes().replace(b"\n", b"\r\n"))
    assert _report(capsys, "jm", path=crlf)["e0"] == report["e0"]


@pytest.mark.parametrize("form", ["cv", "literal"])
def test_fit_weibull_on_the_file(capsys, form):
    report = _report(capsys, "weibull", "--moment-form", form)
    assert (report["model"], report["k_obs"], report["moment_form"]) == ("weibull", 26, form)
    assert report.keys() == {"k_obs", "lambda", "m", "model", "moment_form", "mttf", "provenance"}
    assert report["m"] == pytest.approx(WEIBULL_M[form], rel=REL)
    assert report["mttf"] == pytest.approx(250 / 26, rel=REL)
