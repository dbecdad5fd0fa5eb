"""The byte differential tool, tests/differential.py, on trees whose reports are known."""

import shutil
import subprocess
from pathlib import Path

import pytest

import differential

NTDS = Path(__file__).with_name("ntds_epochs.csv")


def test_head_against_itself_shows_no_move(tmp_path):
    """HEAD checked out in a worktree, run twice over the contract argv: every call is identical."""
    git = ["git", "-C", str(differential.ROOT)]
    head = subprocess.run([*git, "rev-parse", "--verify", "HEAD"], capture_output=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout with a HEAD commit")
    calls = differential.contract_argv(tmp_path)
    with differential.materialised("HEAD") as tree:
        src = tree / "src"
        assert (src / "relgauge" / "cli.py").is_file()
        runs = [differential.run_tree(src, calls, tmp_path / side) for side in ("parent", "change")]
    assert not tree.exists()
    summary = differential.compare(calls, *runs)
    assert summary == {
        "calls": len(calls), "identical": len(calls), "moved": {}, "changed": [], "contract": []
    }
    assert len(calls) > 400


def test_a_float_nudged_by_an_ulp_is_reported_under_its_path(tmp_path):
    """A copy of src whose fit jm report writes e0 one ulp up: only that field moves."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(differential.ROOT / "src", tmp_path / "nudged", ignore=ignore)
    model = tmp_path / "nudged" / "relgauge" / "model_jm.py"
    text = model.read_text()
    assert text.count('"e0": fit.e0_hat,') == 1
    model.write_text(text.replace('"e0": fit.e0_hat,', '"e0": math.nextafter(fit.e0_hat, math.inf),'))
    calls = [["fit", "jm", "--input", str(NTDS)], ["fit", "weibull", "--input", str(NTDS)]]
    parent = differential.run_tree(differential.ROOT / "src", calls, tmp_path / "parent")
    change = differential.run_tree(tmp_path / "nudged", calls, tmp_path / "change")
    summary = differential.compare(calls, parent, change)
    assert (summary["identical"], summary["changed"], summary["contract"]) == (1, [], [])
    assert list(summary["moved"]) == ["fit jm"]
    assert list(summary["moved"]["fit jm"]) == ["e0"]
    move = summary["moved"]["fit jm"]["e0"]
    assert move["calls"] == 1 and 0.0 < move["largest_relative_move"] <= 2.0**-52


def test_a_call_that_raises_is_its_own_outcome(tmp_path):
    """A copy of src whose predict weibull raises: the call is listed as changed, not a crash of the
    tool, and as a broken promise where the checkout raises; the other call is identical."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(differential.ROOT / "src", tmp_path / "raising", ignore=ignore)
    model = tmp_path / "raising" / "relgauge" / "model_weibull.py"
    text = model.read_text()
    head = 'def reliability(fit: WeibullFit, t: float) -> float:\n    """Probability of surviving to time ``t``."""\n'
    assert text.count(head) == 1
    model.write_text(text.replace(head, head + "    1 / 0\n"))
    calls = [["predict", "weibull", "--shape", "2", "--scale", "1", "--time", "1"], ["fit", "jm", "--input", str(NTDS)]]
    raising = differential.run_tree(tmp_path / "raising", calls, tmp_path / "raising-run")
    mended = differential.run_tree(differential.ROOT / "src", calls, tmp_path / "mended-run")
    assert raising[0] == "raised ZeroDivisionError: division by zero"
    summary = differential.compare(calls, raising, mended)
    assert (summary["identical"], summary["contract"]) == (1, [])
    assert summary["changed"] == [{"argv": calls[0], "parent": raising[0], "change": "exit 0"}]
    summary = differential.compare(calls, mended, raising)
    assert summary["contract"] == [{"argv": calls[0], "outcome": raising[0]}]


def test_broken_promises_are_listed():
    """A warning after exit 0, a non-JSON error line and an exit code outside 0-3 are listed."""
    results = [
        (0, "{}", ""),
        (0, "{}", "a warning\n"),
        (2, "", '{"error": "E"}\n'),
        (2, "", "Traceback\n"),
        (4, "", ""),
    ]
    calls = [["verb", str(i)] for i in range(len(results))]
    summary = differential.compare(calls, results, results)
    assert summary["identical"] == len(calls)
    assert [entry["argv"][1] for entry in summary["contract"]] == ["1", "3", "4"]
