"""The CLI's own argv reader gives argparse's namespace, or leaves the command line to argparse.

``cli._read_args`` takes only ``verb [model] --flag value ...`` with each
flag of the command in full at most once, every required one present, no
value starting with "-" and every value converting with its flag's type to
one of its choices.  Drawn here: command lines from the command table, and
near misses of them (an abbreviated, repeated, unknown or foreign flag,
``--flag=value``, a missing value or required flag, a value that starts
with "-" or does not convert, help and version flags, a stray word).  The
reader must return exactly what argparse returns, or None.
"""

import contextlib
import io
import math

import pytest

from relgauge import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_TEXT = {
    int: st.sampled_from(["0", "1", "7", "1000", "1_000", " 12 ", "+3", "1e3", "0x10", "2.5", "99999999999999999999"]),
    float: st.sampled_from(["0", "0.5", "1e-300", "1e400", "nan", "inf", "Infinity", " 2.5", "1_0.5", "1,5", "e"]),
    str: st.sampled_from(["data.csv", "a b.csv", "cv", "literal", "fit", "jm", "--", "@args"]),
}
_NEAR = st.sampled_from(["", "-1", "-0.5", "-", "-x", "--input", "x", "1.5"])


def _words(spec_type) -> st.SearchStrategy:
    return _TEXT[spec_type] | _NEAR


@st.composite
def _argv(draw) -> list[str]:
    (verb, model), (_, _, flags) = draw(st.sampled_from(list(cli._COMMANDS.items())))
    argv = [verb] if model is None else [verb, model]
    # A required flag is left out one time in ten, and an optional one every other time.
    chosen = [flag for flag, spec in flags.items() if draw(st.integers(0, 9) if spec.get("required") else st.booleans())]
    for flag in draw(st.permutations(chosen)):
        spec = flags[flag]
        words = st.sampled_from(spec["choices"]) | _words(str) if "choices" in spec else _words(spec.get("type", str))
        argv += [flag, draw(words)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        flag = draw(st.sampled_from(sorted(flags)))
        miss = draw(st.sampled_from(["drop", "abbreviate", "equals", "repeat", "foreign", "bare", "help", "word"]))
        if miss == "drop" and len(argv) > 1:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif miss == "abbreviate":
            argv[i:i] = [flag[: draw(st.integers(2, max(2, len(flag) - 1)))], "1"]
        elif miss == "equals":
            argv[i:i] = [f"{flag}=1"]
        elif miss == "repeat":
            argv += [flag, "1"]
        elif miss == "foreign":
            argv[i:i] = [draw(st.sampled_from(["--seed", "--fit", "--bogus", "--e0", "--moment-form"])), "2"]
        elif miss == "bare":
            argv.append(flag)
        elif miss == "help":
            argv[i:i] = [draw(st.sampled_from(["--help", "-h", "--version"]))]
        else:
            argv[i:i] = [draw(st.sampled_from(["fit", "jm", "economics", "extra", ""]))]
    return argv


def _typed(namespace) -> dict:
    """The namespace's attributes with their types; repr keeps NaN equal to itself."""
    return {key: (type(value), repr(value)) for key, value in vars(namespace).items()}


def _argparse(argv):
    """argparse's namespace for ``argv``, or None where it prints help or raises a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except (cli.UsageError, SystemExit):
            return None


@hypothesis.settings(max_examples=600, deadline=None, database=None)
@hypothesis.given(argv=_argv())
def test_reader_gives_argparses_namespace_or_defers(argv):
    got = cli._read_args(argv)
    if got is not None:
        expected = _argparse(argv)
        assert expected is not None, argv
        assert _typed(got) == _typed(expected), argv


@pytest.mark.parametrize("argv", [
    ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
    ["predict", "jm", "--dt", "2.0", "--index", "2", "--k", "0.5", "--e0", "2", "--output", "r.json"],
    ["fit", "weibull", "--input", "x.csv", "--moment-form", "literal"],
    ["fit", "schumann", "--input", "p.csv", "--instructions", "1_000", "--confidence", " 0.9"],
    ["economics", "--fit", "d.csv", "--size", "10", "--tempo", "1", "--cost-error", "nan",
     "--cost-test", "1", "--horizon", "inf"],
    ["faulttol", "--total-time", "1", "--overhead", "0.1", "--failure-rate", "0.1"],
    ["simulate", "schumann", "--e0", "1", "--c", "1", "--instructions", "1", "--schedule", "s", "--seed", "1"],
])
def test_reader_takes_the_ordinary_forms(argv):
    got = cli._read_args(argv)
    assert got is not None
    assert _typed(got) == _typed(_argparse(argv))
    assert got.handler is cli._COMMANDS[(argv[0], None if len(argv) % 2 else argv[1])][0]


@pytest.mark.parametrize("argv", [
    [],
    ["--version"],
    ["fit"],
    ["fit", "jm"],
    ["fit", "jm", "--input"],
    ["fit", "jm", "--input", "x", "--input", "y"],
    ["fit", "jm", "--inp", "x"],
    ["fit", "jm", "--input=x"],
    ["fit", "jm", "--input", "x", "--help"],
    ["fit", "weibull", "--input", "x", "--moment-form", "bad"],
    ["predict", "jm", "--e0", "-2", "--k", "0.5", "--index", "2", "--dt", "2.0"],
    ["predict", "jm", "--e0", "2", "--k", "0.5", "--index", "2.5", "--dt", "2.0"],
    ["economics", "--size", "10", "--tempo", "1", "--cost-error", "1", "--cost-test", "1"],
    ["economics", "jm", "--size", "10"],
])
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_args(argv) is None


def test_every_command_keeps_its_defaults():
    """A command line with only the required flags reads every other flag as argparse's default."""
    for (verb, model), (_, _, flags) in cli._COMMANDS.items():
        argv = [verb] if model is None else [verb, model]
        for flag, spec in flags.items():
            if spec.get("required"):
                argv += [flag, "1"]
        got = cli._read_args(argv)
        assert _typed(got) == _typed(_argparse(argv)), argv
        assert got.output is None
    assert math.isclose(cli._read_args(["fit", "jm", "--input", "x"]).confidence, 0.95)
