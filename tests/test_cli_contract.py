"""Property test: every argv ends in one of the two ways the CLI promises.

Either ``run_cli`` returns 0 with strict JSON on stdout and nothing on
stderr, or it returns 1, 2 or 3 with exactly one JSON line on stderr whose
``exit_code`` matches.  It never raises and never lets a warning out.  Each
verb runs on small fixed input files, with flag values drawn from ordinary
values and from the extremes of a float and an int.
"""

import contextlib
import io
import json
import warnings

import pytest

from relgauge.cli import run_cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FILES = {
    "epochs": "epoch\n1.0\n3.0\n4.0\n7.0\n12.0\n",
    "periods": "tau,corrected,exposure,failures\n1.0,20,1000.0,10\n2.0,50,1600.0,10\n",
    "profile": "run,p,y\n1,0.9,0\n1,0.1,1\n2,0.8,0\n2,0.2,1\n",
    "runs": "duration,outcome\n1.0,success\n2.0,failure\n",
    "weights": "weight\n1.5\n0.5\n",
    "discovery": "tau,corrected\n5,29\n10,60\n15,85\n20,117\n25,140\n30,161\n",
    "schedule": "tau,corrected,exposure\n0.0,0,500.0\n1.0,20,800.0\n",
}

EXTREME_FLOATS = [
    "0", "-0.0", "5e-324", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf", "-1", "-2.5",
    str(2**63),
]
EXTREME_INTS = ["0", "-1", "-7", str(2**63), "1e308", "nan"]
COUNTS = ["0", "1", "2", "3", "50", "-1", "-50", "1e308", str(2**63)]

# Each flag: (kind, ordinary value); "file" flags name an entry of FILES.
VERBS = {
    "fit schumann": {"--input": ("file", "periods"), "--instructions": ("int", "1000"),
                     "--confidence": ("float", "0.95")},
    "fit jm": {"--input": ("file", "epochs"), "--confidence": ("float", "0.9")},
    "fit weibull": {"--input": ("file", "epochs"), "--moment-form": ("choice", "cv")},
    "fit nelson": {"--profile": ("file", "profile"), "--simplified": ("file", "runs"),
                   "--weights": ("file", "weights")},
    "economics": {"--eps0": ("float", "100"), "--tau0": ("float", "10"),
                  "--size": ("int", "10000"), "--tempo": ("float", "1000"),
                  "--cost-error": ("float", "7.389056"), "--cost-test": ("float", "1"),
                  "--horizon": ("float", "1"), "--fit": ("file", "discovery")},
    "faulttol": {"--total-time": ("float", "100"), "--overhead": ("float", "1"),
                 "--failure-rate": ("float", "0.01"), "--simulate": ("count", "5"),
                 "--seed": ("int", "3"), "--module-time": ("float", "20")},
    "simulate jm": {"--e0": ("float", "50"), "--k": ("float", "0.004"),
                    "--count": ("count", "10"), "--seed": ("int", "1")},
    "simulate schumann": {"--e0": ("float", "100"), "--c": ("float", "0.125"),
                          "--instructions": ("int", "1000"), "--schedule": ("file", "schedule"),
                          "--seed": ("int", "2")},
    "simulate weibull": {"--shape": ("float", "0.5"), "--scale": ("float", "2"),
                         "--count": ("count", "10"), "--seed": ("int", "4")},
    "predict schumann": {"--e0": ("float", "100"), "--c": ("float", "0.125"),
                         "--instructions": ("int", "1000"), "--corrected": ("int", "20"),
                         "--time": ("float", "10")},
    "predict jm": {"--e0": ("float", "50"), "--k": ("float", "0.004"),
                   "--index": ("int", "3"), "--dt": ("float", "10")},
    "predict weibull": {"--shape": ("float", "0.5"), "--scale": ("float", "2"),
                        "--time": ("float", "1")},
}

ODD_VALUES = {
    "float": EXTREME_FLOATS,
    "int": EXTREME_INTS,
    "count": COUNTS,
    "choice": ["literal", "bogus"],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, text in FILES.items():
        (root / f"{name}.csv").write_text(text)
    return {name: str(root / f"{name}.csv") for name in FILES}


def _flag_values(kind, ordinary):
    """The flag at its ordinary value about two times in three, else odd or left out."""
    odd = [] if kind == "file" else ODD_VALUES[kind]
    return st.sampled_from([ordinary] * (2 * len(odd) + 4) + odd + [None])


def _argvs(verb):
    flags = VERBS[verb]
    return st.fixed_dictionaries(
        {flag: _flag_values(kind, ordinary) for flag, (kind, ordinary) in flags.items()}
    )


def run_contained(argv):
    """run_cli(argv) with its output and every warning captured."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def check_contract(argv):
    code, stdout, stderr, caught = run_contained(argv)
    assert caught == [], argv
    if code == 0:
        assert stderr == "", argv
        assert isinstance(json.loads(stdout, parse_constant=_reject_constant), dict)
    else:
        assert code in (1, 2, 3), argv
        assert stdout == "", argv
        assert len(stderr.splitlines()) == 1 and stderr.endswith("\n"), (argv, stderr)
        line = json.loads(stderr, parse_constant=_reject_constant)
        assert list(line) == ["error", "message", "exit_code"], argv
        assert line["exit_code"] == code, argv


@pytest.mark.parametrize("verb", list(VERBS))
def test_every_argv_ends_in_a_report_or_one_error_line(paths, verb):
    @hypothesis.settings(max_examples=15, deadline=None, database=None)
    @hypothesis.given(_argvs(verb))
    def check(values):
        argv = verb.split()
        for flag, value in values.items():
            if value is not None:
                kind = VERBS[verb][flag][0]
                argv.append(f"{flag}={paths[value] if kind == 'file' else value}")
        check_contract(argv)

    check()
