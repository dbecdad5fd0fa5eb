"""The benchmark's tracer must still find every attribute it wraps.

perfbench/tracing.py replaces relgauge module attributes by name, so a
rename in the package would break ``perfbench/run.py --trace 1`` without
failing any other test.
"""

from pathlib import Path

from relgauge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_point_and_records_a_fit(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = cli.run_cli
    tracer = tracing.Tracer()
    tracer.install()  # raises AttributeError if any traced attribute is gone
    tracer.uninstall()
    assert cli.run_cli is original

    path = tmp_path / "failures.csv"
    path.write_text("epoch\n1.0\n3.0\n")
    tracer.install()
    try:
        code = cli.run_cli(["fit", "jm", "--input", str(path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"failure_data.parse_failure_epochs", "model_jm.fit_mle"} <= names
