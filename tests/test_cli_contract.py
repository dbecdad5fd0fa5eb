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
import math
import warnings

import pytest

from relgauge import debug_economics, model_weibull
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

# Shape, scale and time where scale * time underflows to 0 below a shape of 1, once a
# ZeroDivisionError traceback: the hazard is about shape / time = 59.5, and the mttf beyond a float.
_UNDERFLOWING_WEIBULL = ("2.196217713707e-311", "4.94984165082482e-165", "3.68820164174e-313")

# Total time, overhead and failure rate of a boundary plan (t* = T) whose a / t overflows a float,
# once refused; mpmath gives tp_min 7.3261472786613596e218.
_FLOAT_TP_MIN = ("1.2982733083358023e-294", "7.32614727866136e+218", "3.9657876933994313e-141")

# Flag values that random draws reach only now and then, tried on every run.
EXAMPLES = {
    # exp(-lam * t) underflows to 0 at the given module time, which numpy's sampler refuses;
    # and a boundary plan where 2 lam overflows a float.
    "faulttol": [{"--total-time": "100", "--overhead": "1", "--failure-rate": str(2**63), "--simulate": "5",
                  "--seed": "3", "--module-time": "20"},
                 {"--total-time": "1e-306", "--overhead": "5.986657101827642e-118",
                  "--failure-rate": "1.7976931348623157e308"},
                 # A boundary plan where a / t overflows though tp_min = 2 T / p1 + a T / t does not.
                 dict(zip(("--total-time", "--overhead", "--failure-rate"), _FLOAT_TP_MIN))],
    # The hazard overflows a float; a hazard that is a float though scale^shape is not;
    # one that is a float though scale^shape and (scale * time)^(shape - 1) are not (3.1958e-249);
    # the mttf beyond a float; scale * time underflowing to 0, twice (the second reports a
    # reliability of 0.99646); and scale * time beyond a float, where the reliability
    # exp(-(scale * time)^shape) = 8.13e-110 is not.
    "predict weibull": [{"--shape": "400", "--scale": "1", "--time": "10"},
                        {"--shape": "1e308", "--scale": "1", "--time": "2"},
                        {"--shape": "400", "--scale": "1e10", "--time": "1e-10"},
                        {"--shape": "11.430170286001507", "--scale": "3.338723491881624e+90",
                         "--time": "7.435155108076496e-124"},
                        {"--shape": "0.001", "--scale": "1", "--time": "1"},
                        dict(zip(("--shape", "--scale", "--time"), _UNDERFLOWING_WEIBULL)),
                        {"--shape": "0.007", "--scale": "1e-60", "--time": "1e-290"},
                        {"--shape": "0.004", "--scale": "1e300", "--time": "1e300"}],
    # A non-finite e0, which the report could not hold.
    "predict jm": [{"--e0": e0, "--k": "1", "--index": "1", "--dt": "1"} for e0 in ("nan", "inf")],
    # eps0 * tempo overflows, so the mttf is taken in logs (1e-301, once reported as 0.0); the
    # optimum's argument overflows too, so ln(arg) is a sum of logs (tau_m 2555.87, once refused);
    # and cost_error * horizon * eps0 underflows, where the optimum is interior (tau_m 6.66e-244)
    # and then at the boundary (cost 2.31e-205), each once reported as 0.0; and a subnormal tau0
    # and tau_m, where the mttf exp(730.19) is beyond a float and the cost 3.0567001969047e-42
    # was once off by 3e-12 of itself; and a subnormal tau0 and tau_m where the mttf at tau_m is 12,
    # once reported as 7.389 from the rounded tau_m / tau0.
    "economics": [dict(zip(("--eps0", "--tau0", "--size", "--tempo", "--cost-error", "--horizon", "--cost-test"),
                           values))
                  for values in (("1e200", "10", "1000", "1e200", "1e-300", "1", "1"),
                                 ("1e200", "10", "1000", "1e200", "1e10", "1e5", "1e300"),
                                 ("6.26982053042164e-269", "1.955999494893404e-246", "184771274956356840",
                                  "1.1435223019951218e+248", "1.2843786993804724e-247", "9.010218488621965e+106",
                                  "3.2696963782634816e-80"),
                                 ("3.307854091623683e-262", "1.5513431161395293e-300", "2156118268492546342",
                                  "3.3795731384858986e+291", "9.915586610014672e-107", "4.484050243662316e-111",
                                  "4.055656732371798e+293"),
                                 ("1.338558690376673e-162", "1.95317376e-316", "2421", "5.354522042844848e+222",
                                  "2.5237613490610373e-05", "1.8293719478176978e+277", "1.8123440942738366e+271"),
                                 ("1", "5e-324", "1", "1", "6e-323", "1", "1"))],
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
    return code


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


@pytest.mark.parametrize(
    "argv, error, message",
    [
        ("predict weibull --shape 400 --scale 1 --time 10", "OutOfRange",
         "the hazard at t = 10.0 overflows a float for shape 400.0 and scale 1.0"),
        ("predict weibull --shape 1e308 --scale 1 --time 2", "OutOfRange",
         "the hazard at t = 2.0 overflows a float for shape 1e+308 and scale 1.0"),
        ("predict weibull --shape {} --scale {} --time {}".format(*_UNDERFLOWING_WEIBULL), "OutOfRange",
         "the mttf overflows a float for shape 2.196217713707e-311 and scale 4.94984165082482e-165"),
        ("predict weibull --shape 0.001 --scale 1 --time 1", "OutOfRange",
         "the mttf overflows a float for shape 0.001 and scale 1.0"),
        ("predict jm --e0 nan --k 1 --index 1 --dt 1", "DomainError", "e0 must be finite, got nan"),
        ("predict jm --e0 inf --k 1 --index 1 --dt 1", "DomainError", "e0 must be finite, got inf"),
        ("faulttol --total-time 1e300 --overhead 1e-300 --failure-rate 1", "OutOfRange",
         "module_count = T / t* overflows a float for T = 1e+300, t* = 7.071067811865557e-151"),
        ("faulttol --total-time 1.7e308 --overhead 1 --failure-rate 1e-308", "OutOfRange",
         "tp_min = 2 T / p1 + a T / t* overflows a float for T = 1.7e+308, t* = 7.071067811865526e+153"),
        ("faulttol --total-time 100 --overhead 1 --failure-rate 9223372036854775808 --simulate 5 --seed 3 "
         "--module-time 20", "OutOfRange", "the success probability exp(-lam * t) at t = 20.0 underflows a float"),
        # The failure losses at tau = 0 underflow to 0 from normal partial products: refused, as where
        # a partial product underflows (once reported as a cost of 0.0).
        ("economics --eps0 1 --tau0 1 --size 4000000000000000000 --tempo 1e-7 --cost-error 1e-300 "
         "--cost-test 1 --horizon 1", "OutOfRange", "the cost at tau = 0, exp(-749.7264495841847), is beyond a float"),
    ],
)
def test_bad_values_are_named_in_one_error_line(argv, error, message):
    """Exit 2 with one JSON line that names the value: no C errno tuple, and no
    non-finite value left for the emitter to reject."""
    code, stdout, stderr, caught = run_contained(argv.split())
    assert (code, stdout, caught) == (2, "", [])
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": error, "message": message, "exit_code": 2}


@pytest.mark.parametrize("values", EXAMPLES["economics"])
def test_economics_beyond_the_float_range_is_taken_in_logs(values):
    """tau_m, the cost there and the mttf there, each within 1e-12 of its 50-digit value, or
    within one unit of the least subnormal where it is that small, and the boundary flagged
    where arg is below 1.  Where the mttf is beyond a float, the call exits 2 naming it, and
    tau_m and the cost are those of ``optimal_debug_time`` on the same values."""
    mpmath = pytest.importorskip("mpmath")
    code, stdout, stderr, caught = run_contained(["economics", *(f"{flag}={value}" for flag, value in values.items())])
    floats = [float(v) for v in values.values()]
    with mpmath.workdps(50):
        eps0, tau0, size, tempo, cost_error, horizon, cost_test = map(mpmath.mpf, floats)
        losses = cost_error * horizon * eps0 * tempo / size
        tau_m = max(tau0 * mpmath.log(losses / (cost_test * tau0)), 0)
        exact = {
            "tau_m": tau_m,
            "cost_at_tau_m": losses * mpmath.exp(-tau_m / tau0) + cost_test * tau_m,
            "mttf_at_tau_m": size / (eps0 * tempo) * mpmath.exp(tau_m / tau0),
        }
        if exact["mttf_at_tau_m"] < mpmath.mpf(2) ** 1024:
            assert (code, stderr, caught) == (0, "", [])
            report = json.loads(stdout)
        else:
            assert (code, stdout, caught) == (2, "", [])
            assert json.loads(stderr)["message"].startswith("the mttf commands / (eps0 * tempo)")
            eps0, tau0, size, tempo, cost_error, horizon, cost_test = floats
            optimum = debug_economics.optimal_debug_time(
                debug_economics.DiscoveryParams(eps0, tau0, int(size), tempo),
                debug_economics.EconParams(cost_error=cost_error, cost_test=cost_test, horizon=horizon),
            )
            report = {"tau_m": optimum.tau_m, "cost_at_tau_m": optimum.cost, "boundary": optimum.boundary}
            del exact["mttf_at_tau_m"]
        for key, value in exact.items():
            assert abs(report[key] - value) <= 1e-12 * value + 2.0**-1074, key
    assert report["boundary"] is (tau_m == 0)


def test_a_tp_min_that_is_a_float_is_reported():
    """The boundary plan whose a / t overflows: tp_min within 1e-12 of its 50-digit value."""
    mpmath = pytest.importorskip("mpmath")
    argv = ["faulttol", *(f"{flag}={value}" for flag, value in zip(("--total-time", "--overhead", "--failure-rate"),
                                                                   _FLOAT_TP_MIN))]
    code, stdout, stderr, caught = run_contained(argv)
    assert (code, stderr, caught) == (0, "", [])
    report = json.loads(stdout)
    assert report["boundary"] is True and report["t_star"] == float(_FLOAT_TP_MIN[0])
    with mpmath.workdps(50):
        total, overhead, rate = map(mpmath.mpf, map(float, _FLOAT_TP_MIN))
        exact = 2 * total * mpmath.exp(rate * total) + overhead  # t* = T, so a T / t = a
    assert abs(report["tp_min"] - exact) <= 1e-12 * exact
    assert float(exact) == pytest.approx(7.3261472786613596e218, rel=1e-15)


def test_a_hazard_whose_scale_times_time_underflows_is_taken_in_logs():
    """m lam^m t^(m - 1) where lam t underflows to 0 for m < 1, against its 50-digit value."""
    mpmath = pytest.importorskip("mpmath")
    m, lam, t = map(float, _UNDERFLOWING_WEIBULL)
    with mpmath.workdps(50):
        exact = mpmath.mpf(m) * mpmath.mpf(lam) ** m * mpmath.mpf(t) ** (mpmath.mpf(m) - 1)
        # The log form's error is that of its exponent, about 720 units of 2^-53 here.
        assert abs(model_weibull.hazard(model_weibull.WeibullFit(m, lam), t) - exact) <= 1e-12 * exact
    assert float(exact) == pytest.approx(59.547116, rel=1e-7)


# The closed-form verbs: their other flags at ordinary values, and their float flags.
FULL_RANGE = {
    "predict jm": (["--index=3"], ("--e0", "--k", "--dt")),
    "predict weibull": ([], ("--shape", "--scale", "--time")),
    "economics": (["--size=10000"], ("--eps0", "--tau0", "--tempo", "--cost-error", "--cost-test", "--horizon")),
    "faulttol": ([], ("--total-time", "--overhead", "--failure-rate")),
}
# A positive float of any binary exponent, subnormals included: m 2^e with m in [1, 2).
ANY_EXPONENT = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023))


@pytest.mark.parametrize("verb", list(FULL_RANGE))
def test_float_flags_over_every_binary_exponent_give_a_report_or_one_error_line(verb):
    """Every float flag of a closed-form verb drawn over all binary exponents at once: each call
    exits 0 with strict JSON or 2 with one JSON error line, and lets no warning out."""
    fixed, flags = FULL_RANGE[verb]

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.lists(ANY_EXPONENT, min_size=len(flags), max_size=len(flags)))
    def check(values):
        argv = [*verb.split(), *fixed, *(f"{flag}={value!r}" for flag, value in zip(flags, values))]
        assert check_contract(argv) in (0, 2), argv

    check()
