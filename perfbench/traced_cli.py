"""Run one relgauge CLI call under the benchmark's tracer and save its spans.

Usage: python perfbench/traced_cli.py SPANS_JSON OP_ID <relgauge arguments>

The traced half of the cli-cold workload starts this instead of
``python -m relgauge.cli``, with ``src`` on PYTHONPATH, so spans come from
a cold process like the one users run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_path, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    from relgauge import cli

    code = cli.run_cli(args)
    Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
