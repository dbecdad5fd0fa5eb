"""Byte differential of the CLI's reports between a parent tree and this checkout.

    python tests/differential.py --parent REV|PATH

REV is a git revision, checked out with ``git worktree add`` into a
temporary directory that is removed afterwards; PATH is a directory holding
another tree.  Every argv runs through each tree's ``run_cli``, all of one
tree's calls in one child process with that tree's ``src`` first on
PYTHONPATH.  The argv are every operation of the benchmark's cli-cold seeds
1, 2 and 5, fit-large seed 5 and simulate-emit seed 1 (``perfbench/
workloads.py``, read only), and the table of ``tests/test_cli_contract.py``:
each verb's ordinary argv, each flag at each odd value or left out, and
every example.

A call is identical when its exit code, stderr and report, less
``provenance.generated_at``, are the same bytes.  A call where ``run_cli``
raises is recorded as the exception's type and message instead; it is
identical only to the same exception, and a call that raises in this
checkout breaks the contract.  The one JSON line printed
lists how many calls are identical; each moved float field by verb and key
path (list indices written ``[]``) with how many calls moved it and its
largest relative move; each other change of a report; and each changed exit
code or error line.  ``contract`` lists the calls in this checkout that exit
with a code other than 0 to 3 or write anything but one JSON line on stderr
when they fail (nothing when they succeed); the exit status is 1 when there
are any, and 0 however much else moved.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_RUNS = [("cli-cold", 1), ("cli-cold", 2), ("cli-cold", 5), ("fit-large", 5), ("simulate-emit", 1)]

# Runs in each tree's child process: argv lists in a JSON file, one line out per call, either
# [code, stdout, stderr] or, where run_cli raised, the string "raised <type>: <message>".
_CHILD = """
import contextlib, io, json, sys
from relgauge.cli import run_cli
with open(sys.argv[1]) as calls, open(sys.argv[2], "w") as out:
    for argv in json.load(calls):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                result = [run_cli(argv), stdout.getvalue(), stderr.getvalue()]
        except Exception as exc:
            result = f"raised {type(exc).__name__}: {exc}"
        out.write(json.dumps(result) + "\\n")
"""


def contract_argv(workdir: Path) -> list[list[str]]:
    """The contract table's argv, with its input files written to ``workdir``."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]  # the table's module imports relgauge.cli
    from test_cli_contract import EXAMPLES, FILES, ODD_VALUES, VERBS

    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in FILES.items():
        paths[name] = workdir / f"{name}.csv"
        paths[name].write_text(text)

    def argv(verb: str, values: dict) -> list[str]:
        flags = VERBS[verb]
        return [*verb.split(), *(f"{flag}={paths[value] if flags[flag][0] == 'file' else value}"
                                 for flag, value in values.items() if value is not None)]

    calls = []
    for verb, flags in VERBS.items():
        ordinary = {flag: value for flag, (_, value) in flags.items()}
        calls.append(argv(verb, ordinary))
        for flag, (kind, _) in flags.items():
            for odd in [*([] if kind == "file" else ODD_VALUES[kind]), None]:
                calls.append(argv(verb, {**ordinary, flag: odd}))
        calls += [argv(verb, example) for example in EXAMPLES.get(verb, ())]
    return calls


def benchmark_argv(workdir: Path) -> list[list[str]]:
    """Every operation of the benchmark runs in BENCHMARK_RUNS, with their inputs written to ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # workloads.py imports verify
    import workloads

    workloads_run = [workloads.build(name, seed, workdir / f"{name}-{seed}") for name, seed in BENCHMARK_RUNS]
    return [op.args for workload in workloads_run for op in workload.ops]


def run_tree(src: Path, calls: list[list[str]], workdir: Path) -> list[tuple[int, str, str] | str]:
    """(exit code, stdout, stderr) of each call, or the exception it raised as "raised <type>: <message>",
    all run by ``src``'s run_cli in one child process."""
    workdir.mkdir(parents=True, exist_ok=True)
    argv_file, out_file = workdir / "argv.json", workdir / "results.jsonl"
    argv_file.write_text(json.dumps(calls))
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", _CHILD, str(argv_file), str(out_file)], env=env, check=True)
    with open(out_file) as lines:
        return [result if type(result) is str else tuple(result) for result in map(json.loads, lines)]


def _compared(result: tuple[int, str, str] | str) -> tuple[int, str, str] | str:
    """A call's result with the report's generated_at line dropped."""
    if type(result) is str:  # the exception run_cli raised
        return result
    code, stdout, stderr = result
    return code, "".join(line for line in stdout.splitlines(keepends=True) if '"generated_at": ' not in line), stderr


def _walk(path: str, old, new, moved: dict, changed: list) -> None:
    """Record each float of ``new`` that moved from ``old`` in moved[path], and any other difference."""
    if type(old) is float and type(new) is float:
        if old != new:
            moved[path] = max(moved.get(path, 0.0), abs(new - old) / max(abs(old), abs(new)))
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _walk(f"{path}.{key}" if path else key, old[key], new[key], moved, changed)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _walk(f"{path}[]", a, b, moved, changed)
    elif old != new or type(old) is not type(new):
        changed.append({"path": path, "parent": repr(old)[:200], "change": repr(new)[:200]})


def _outcome(result: tuple[int, str, str] | str) -> str:
    if type(result) is str:  # the exception run_cli raised
        return result
    code, _, stderr = result
    return f"exit {code}" + (f": {stderr.strip()}" if stderr else "")


def compare(calls: list[list[str]], parent: list, change: list) -> dict:
    """The summary of ``change``'s results against ``parent``'s, call by call."""
    summary = {"calls": len(calls), "identical": 0, "moved": {}, "changed": [], "contract": []}
    for argv, old, new in zip(calls, parent, change, strict=True):
        if _breaks_contract(new):
            summary["contract"].append({"argv": argv, "outcome": _outcome(new)})
        if _compared(old) == _compared(new):
            summary["identical"] += 1
        elif old[::2] == (0, "") == new[::2]:  # both exit 0 with nothing on stderr: the reports differ
            verb = " ".join(argv[:2] if argv[0] in ("fit", "simulate", "predict") else argv[:1])
            moved, changed = {}, []
            reports = [json.loads(result[1]) for result in (old, new)]
            for report in reports:
                report.get("provenance", {}).pop("generated_at", None)
            _walk("", *reports, moved, changed)
            for path, move in moved.items():
                by_path = summary["moved"].setdefault(verb, {})
                total = by_path.setdefault(path, {"calls": 0, "largest_relative_move": 0.0})
                total["calls"] += 1
                total["largest_relative_move"] = max(total["largest_relative_move"], move)
            summary["changed"] += [{"argv": argv, **entry} for entry in changed]
        else:
            summary["changed"].append({"argv": argv, "parent": _outcome(old), "change": _outcome(new)})
    return summary


def _breaks_contract(result: tuple[int, str, str] | str) -> bool:
    """Whether a call broke the CLI's promise: exit 0 and nothing on stderr, or 1-3 and one JSON line."""
    if type(result) is str:  # run_cli raised
        return True
    code, _, stderr = result
    if code == 0:
        return stderr != ""
    lines = stderr.splitlines()
    try:
        return code not in (1, 2, 3) or len(lines) != 1 or not isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return True


@contextlib.contextmanager
def materialised(parent: str):
    """The parent tree's root: the directory ``parent``, or revision ``parent`` checked out for the block."""
    if Path(parent).is_dir():
        yield Path(parent)
        return
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(tree), parent],
                       check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="a git revision or the path of a parent tree")
    ns = parser.parse_args(args)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp, materialised(ns.parent) as parent:
        work = Path(tmp)
        calls = benchmark_argv(work / "benchmark") + contract_argv(work / "contract")
        parent_results = run_tree(parent / "src", calls, work / "parent")
        summary = compare(calls, parent_results, run_tree(ROOT / "src", calls, work / "change"))
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 1 if summary["contract"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
