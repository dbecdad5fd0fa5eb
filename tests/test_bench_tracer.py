"""The benchmark's tracer must still find every attribute it wraps.

perfbench/tracing.py replaces relgauge module attributes by name, so a
rename in the package would break ``perfbench/run.py --trace 1`` without
failing any other test, and a call made under another name would leave a
layer metric empty.
"""

import math
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


def test_traced_cli_cold_operations_pass_and_give_finite_layer_metrics(tmp_path, capsys, monkeypatch):
    """Every operation of the cli-cold mix, run in process under the tracer,
    passes its check, and every layer metric it yields is a finite number."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import verify
    import workloads

    workload = workloads.build("cli-cold", 1, tmp_path)
    out = tmp_path / "out.json"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in workload.ops:
            out.unlink(missing_ok=True)
            assert cli.run_cli([*op.args, "--output", str(out)]) == 0, op.kind
            op.check(verify.strict_json(out.read_text(encoding="utf-8")))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    bad = {k: v for k, v in metrics.items() if not (isinstance(v, (int, float)) and math.isfinite(v))}
    assert not bad
