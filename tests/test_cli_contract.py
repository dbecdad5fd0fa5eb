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

from relgauge import model_weibull
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

# Flag values that random draws reach only now and then, tried on every run.
EXAMPLES = {
    # exp(-lam * t) underflows to 0 at the given module time, which numpy's sampler refuses;
    # and a boundary plan where 2 lam overflows a float.
    "faulttol": [{"--total-time": "100", "--overhead": "1", "--failure-rate": str(2**63), "--simulate": "5",
                  "--seed": "3", "--module-time": "20"},
                 {"--total-time": "1e-306", "--overhead": "5.986657101827642e-118",
                  "--failure-rate": "1.7976931348623157e308"}],
    # The hazard overflows a float, and a hazard that is a float though scale^shape is not.
    "predict weibull": [{"--shape": "400", "--scale": "1", "--time": "10"},
                        {"--shape": "1e308", "--scale": "1", "--time": "2"},
                        {"--shape": "400", "--scale": "1e10", "--time": "1e-10"}],
    # A non-finite e0, which the report could not hold.
    "predict jm": [{"--e0": e0, "--k": "1", "--index": "1", "--dt": "1"} for e0 in ("nan", "inf")],
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

    for values in EXAMPLES.get(verb, ()):
        check = hypothesis.example(values)(check)
    check()


# Shape, scale and time where scale * time underflows to 0 below a shape of 1, once a
# ZeroDivisionError traceback: the hazard is about shape / time = 59.5, and the mttf beyond a float.
_UNDERFLOWING_WEIBULL = ("2.196217713707e-311", "4.94984165082482e-165", "3.68820164174e-313")


@pytest.mark.parametrize(
    "argv, error, message",
    [
        ("predict weibull --shape 400 --scale 1 --time 10", "OutOfRange",
         "the hazard at t = 10.0 overflows a float for shape 400.0 and scale 1.0"),
        ("predict weibull --shape 1e308 --scale 1 --time 2", "OutOfRange",
         "the hazard at t = 2.0 overflows a float for shape 1e+308 and scale 1.0"),
        ("predict weibull --shape {} --scale {} --time {}".format(*_UNDERFLOWING_WEIBULL), "OutOfRange",
         "report field mttf holds a value that is not a finite number: "
         "Out of range float values are not JSON compliant: inf"),
        ("predict jm --e0 nan --k 1 --index 1 --dt 1", "DomainError", "e0 must be finite, got nan"),
        ("predict jm --e0 inf --k 1 --index 1 --dt 1", "DomainError", "e0 must be finite, got inf"),
    ],
)
def test_bad_values_are_named_in_one_error_line(argv, error, message):
    """Exit 2 with one JSON line that names the value: no C errno tuple, and no
    non-finite value left for the emitter to reject."""
    code, stdout, stderr, caught = run_contained(argv.split())
    assert (code, stdout, caught) == (2, "", [])
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": error, "message": message, "exit_code": 2}


def test_a_hazard_whose_scale_times_time_underflows_is_taken_in_logs():
    """m lam^m t^(m - 1) where lam t underflows to 0 for m < 1, against its 50-digit value."""
    mpmath = pytest.importorskip("mpmath")
    m, lam, t = map(float, _UNDERFLOWING_WEIBULL)
    with mpmath.workdps(50):
        exact = mpmath.mpf(m) * mpmath.mpf(lam) ** m * mpmath.mpf(t) ** (mpmath.mpf(m) - 1)
        # The log form's error is that of its exponent, about 720 units of 2^-53 here.
        assert abs(model_weibull.hazard(model_weibull.WeibullFit(m, lam), t) - exact) <= 1e-12 * exact
    assert float(exact) == pytest.approx(59.547116, rel=1e-7)
