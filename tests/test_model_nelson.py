"""Tests for structural reliability from input-profile runs."""

import copy
import itertools
import math
import operator
import pickle
import sys
import threading
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from relgauge.errors import DomainError, ParseError, WeightSumMismatch
from relgauge.model_nelson import (
    PartitionSpec,
    RunProfile,
    RunProfiles,
    failure_rate,
    parse_profiles,
    parse_weights,
    partitioned_single_run,
    reliability_n,
    run_failure_prob,
    simplified_reliability,
)


def test_run_failure_prob_examples():
    clean = RunProfile(probs=(0.25, 0.25, 0.25, 0.25), indicators=(0, 0, 0, 0))
    assert run_failure_prob(clean) == 0.0
    one_bad = RunProfile(probs=(0.25, 0.25, 0.25, 0.25), indicators=(1, 0, 0, 0))
    assert run_failure_prob(one_bad) == pytest.approx(0.25, rel=1e-12)
    all_bad = RunProfile(probs=(0.5, 0.5), indicators=(1, 1))
    assert run_failure_prob(all_bad) == pytest.approx(1.0, rel=1e-12)


def test_run_failure_prob_single_failing_input():
    # With exactly one failing input set the run failure probability is that
    # input's profile mass, bit for bit.
    for p in (0.1, 0.3, 0.0625):
        profile = RunProfile(probs=(p, 1.0 - p), indicators=(1, 0))
        assert run_failure_prob(profile) == p


def test_profile_validation():
    with pytest.raises(DomainError):
        RunProfile(probs=(0.5, 0.4), indicators=(0, 0))  # sums to 0.9
    with pytest.raises(DomainError):
        RunProfile(probs=(0.5, 0.5), indicators=(0, 2))
    with pytest.raises(DomainError):
        RunProfile(probs=(0.5, 0.5, 0.0), indicators=(0, 0))
    with pytest.raises(DomainError):
        RunProfile(probs=(), indicators=())
    with pytest.raises(DomainError):
        RunProfile(probs=(1.5, -0.5), indicators=(0, 0))


def test_reliability_examples():
    assert reliability_n([]) == 1.0
    assert reliability_n([0.0, 0.0, 0.0]) == 1.0
    assert reliability_n([0.1, 0.2]) == pytest.approx(0.72, rel=1e-12)


def test_reliability_certain_failure():
    assert reliability_n([0.1, 1.0, 0.2]) == 0.0


def test_reliability_log_form_agrees_with_product():
    qs = [0.01] * 100
    direct = 0.99**100
    assert reliability_n(qs) == pytest.approx(direct, rel=1e-12)
    assert reliability_n(qs) == pytest.approx(0.3660323412732292, rel=1e-10)


def test_reliability_identity_random():
    """Product form, log-sum form, and the rate representation agree to
    1e-12 across random profiles."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        qs = rng.uniform(0.0, 0.9, size=rng.integers(1, 30)).tolist()
        value = reliability_n(qs)
        product = 1.0
        for q in qs:
            product *= 1.0 - q
        assert value == pytest.approx(product, rel=1e-12)
        dts = rng.uniform(0.1, 5.0, size=len(qs)).tolist()
        rate_sum = math.fsum(failure_rate(q, dt) * dt for q, dt in zip(qs, dts))
        assert value == pytest.approx(math.exp(-rate_sum), rel=1e-12)


def test_reliability_strictly_decreasing_in_runs():
    qs = [0.05, 0.1]
    base = reliability_n(qs)
    assert reliability_n(qs + [0.2]) < base
    assert reliability_n(qs + [0.0]) == pytest.approx(base, rel=1e-15)


def test_reliability_rejects_bad_probability():
    with pytest.raises(DomainError):
        reliability_n([0.5, 1.2])
    with pytest.raises(DomainError):
        reliability_n([-0.1])


def test_failure_rate_examples():
    assert failure_rate(0.0, 3.0) == 0.0
    # q = 1 - exp(-0.2) over two time units gives back rate 0.1.
    q = -math.expm1(-0.2)
    assert failure_rate(q, 2.0) == pytest.approx(0.1, rel=1e-12)


def test_failure_rate_inverts_survival():
    rng = np.random.default_rng(8)
    for _ in range(50):
        q = float(rng.uniform(0.0, 0.99))
        dt = float(rng.uniform(0.01, 10.0))
        z = failure_rate(q, dt)
        assert math.exp(-z * dt) == pytest.approx(1.0 - q, rel=1e-12)


def test_failure_rate_domain():
    with pytest.raises(DomainError):
        failure_rate(1.0, 1.0)
    with pytest.raises(DomainError):
        failure_rate(0.5, 0.0)


def test_simplified_examples():
    assert simplified_reliability([1, 1, 1], [1.0, 1.0, 1.0]) == pytest.approx(
        1.0, rel=1e-12
    )
    assert simplified_reliability([1, 1, 1, 0], [1.0] * 4) == pytest.approx(
        0.75, rel=1e-12
    )
    # Reweighting: the error-free run covers underexercised inputs.
    assert simplified_reliability([1, 0], [1.5, 0.5]) == pytest.approx(0.75, rel=1e-12)


def test_simplified_weight_mismatch():
    with pytest.raises(WeightSumMismatch):
        simplified_reliability([1, 0], [1.0, 0.5])
    with pytest.raises(DomainError):
        simplified_reliability([1, 2], [1.0, 1.0])
    with pytest.raises(DomainError):
        simplified_reliability([], [])
    with pytest.raises(DomainError):
        simplified_reliability([1, 0], [3.0, -1.0])


def test_partitioned_examples():
    clean = PartitionSpec(path_probs=(0.5, 0.5), path_error_rates=(0.0, 0.0))
    assert partitioned_single_run(clean) == 1.0
    mixed = PartitionSpec(path_probs=(0.5, 0.5), path_error_rates=(0.2, 0.0))
    assert partitioned_single_run(mixed) == pytest.approx(0.9, rel=1e-12)


def test_partitioned_lower_bound():
    """Reliability is at least 1 - max error rate when the paths cover the
    whole input domain."""
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        raw = rng.uniform(0.1, 1.0, size=n)
        probs = tuple((raw / raw.sum()).tolist())
        rates = tuple(rng.uniform(0.0, 0.9, size=n).tolist())
        value = partitioned_single_run(PartitionSpec(probs, rates))
        assert value >= 1.0 - max(rates) - 1e-12
        assert 0.0 <= value <= 1.0


def test_partition_validation():
    with pytest.raises(DomainError):
        PartitionSpec(path_probs=(0.7, 0.7), path_error_rates=(0.0, 0.0))
    with pytest.raises(DomainError):
        PartitionSpec(path_probs=(0.5,), path_error_rates=(1.0,))
    with pytest.raises(DomainError):
        PartitionSpec(path_probs=(), path_error_rates=())


def test_parse_profiles_single_run():
    text = "p,y\n0.25,1\n0.25,0\n0.25,0\n0.25,0\n"
    profiles = parse_profiles(text)
    assert len(profiles) == 1
    assert run_failure_prob(profiles[0]) == pytest.approx(0.25, rel=1e-12)


def test_parse_profiles_grouped_runs():
    text = (
        "run,p,y\n"
        "1,0.5,0\n"
        "1,0.5,1\n"
        "2,0.25,0\n"
        "2,0.75,0\n"
    )
    profiles = parse_profiles(text)
    assert len(profiles) == 2
    assert run_failure_prob(profiles[0]) == pytest.approx(0.5, rel=1e-12)
    assert run_failure_prob(profiles[1]) == 0.0


def test_parse_profiles_errors():
    with pytest.raises(ParseError):
        parse_profiles("p,y\n")
    with pytest.raises(ParseError):
        parse_profiles("p,y\nnot_a_number,0\n")
    with pytest.raises(ParseError):
        parse_profiles("run,p,y\n1,0.5\n")


def test_parse_weights():
    assert parse_weights("weight\n1.5\n0.5\n") == [1.5, 0.5]
    with pytest.raises(ParseError):
        parse_weights("wrong\n1.0\n")


def test_parse_profiles_run_layout_without_rows():
    with pytest.raises(ParseError, match="^row 2: profile file contains no data rows"):
        parse_profiles("run,p,y\n")


def test_parse_profiles_tells_the_layout_by_the_header_quoted_or_not():
    """A quoted run header, and its CRLF and CR twins, read as the run layout."""
    rows = ["1,0.9,0", "1,0.1,1", "2,0.8,0", "2,0.2,1"]
    expected = parse_profiles("\n".join(["run,p,y", *rows, ""]))
    assert len(expected) == 2
    for header in ('"run","p","y"', '"Run",p,y', " run , p , y "):
        for newline in ("\n", "\r\n", "\r"):
            assert parse_profiles(newline.join([header, *rows, ""])) == expected, (header, newline)
    single = parse_profiles("p,y\n0.9,0\n0.1,1\n")
    assert parse_profiles('"p","y"\r\n0.9,0\r\n0.1,1\r\n') == single
    with pytest.raises(ParseError, match="^row 1: expected header 'run,p,y', got 'runs,p,y'$"):
        parse_profiles("\n".join(["runs,p,y", *rows, ""]))


def test_parse_profiles_rejects_ungrouped_run_ids():
    # Merging the two halves of run 1 would give a valid profile.
    text = "run,p,y\n1,0.5,0\n2,1.0,0\n1,0.5,1\n"
    with pytest.raises(ParseError, match="^row 4: run 1 reappears"):
        parse_profiles(text)


def _q_before(probs, indicators) -> float:
    """RunProfile's check and run_failure_prob before the set check and compress."""
    if len(probs) != len(indicators) or not probs:
        raise DomainError("probs and indicators must be non-empty and of equal length")
    try:
        fast = all(map(math.isfinite, probs)) and min(probs, default=math.inf) >= 0.0
    except (TypeError, ValueError, OverflowError):
        fast = False
    if not fast:
        p = next(p for p in probs if not (math.isfinite(p) and p >= 0.0))
        raise DomainError(f"profile probabilities must be non-negative, got {p}")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"profile probabilities must sum to 1, got {total}")
    if not all(map((0, 1).__contains__, indicators)):
        y = next(y for y in indicators if y not in (0, 1))
        raise DomainError(f"failure indicators must be 0 or 1, got {y}")
    return min(1.0, max(0.0, math.fsum(map(operator.mul, probs, indicators))))


def _outcome(compute):
    try:
        return "ok", compute()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


_GOOD_PROBS = [-0.0, 0.0, 5e-324, 1.0, 0.5]
_PROB_EDGES = _GOOD_PROBS + [math.nan, math.inf, -1.0]


@st.composite
def _profile(draw, indicators=st.sampled_from([0, 1, True, False, 1.0, -0.0, 0.0, 2]) | st.just([1])):
    """Probabilities summing to about 1, at times off by up to or more than 1e-9, or with an edge value."""
    weights = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from(_GOOD_PROBS), min_size=1, max_size=8))
    total = math.fsum(weights)
    probs = [w / total for w in weights] if total > 0.0 else weights
    how = draw(st.sampled_from(["as drawn", "near", "off", "edge"]))
    i = draw(st.integers(0, len(probs) - 1))
    if how in ("near", "off"):
        size = st.floats(1e-12, 9e-10) if how == "near" else st.floats(2e-9, 0.5)
        probs[i] += draw(st.sampled_from([-1.0, 1.0])) * draw(size)
    elif how == "edge":
        probs[i] = draw(st.sampled_from(_PROB_EDGES))
    ys = draw(st.lists(indicators, min_size=len(probs), max_size=len(probs) + 1))
    return tuple(probs), tuple(ys)


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(profile=_profile())
@hypothesis.example(profile=((-0.0, 1.0), (1, 0)))
@hypothesis.example(profile=((5e-324, 1.0), (True, -0.0)))
@hypothesis.example(profile=((0.5, 0.5), (1.0, [1])))
@hypothesis.example(profile=((0.5, 0.5), ([1], 2)))
@hypothesis.example(profile=((0.5, 0.5000000005), (1, 1)))
@hypothesis.example(profile=((0.0, math.nan, 1.0), (0, 0, 1)))  # a NaN after a valid minimum
@hypothesis.example(profile=((math.inf, -math.inf, 1.0), (0, 1, 0)))
@hypothesis.example(profile=(("0.5", 0.5), (0, 1)))
@hypothesis.example(profile=((0, 1), (0, 1)))
@hypothesis.example(profile=((-0.5, 1.5), (0, 1)))  # sums to 1 with a negative probability
def test_run_failure_prob_has_the_bits_and_errors_of_the_products(profile):
    got = _outcome(lambda: float.hex(run_failure_prob(RunProfile(*profile))))
    assert got == _outcome(lambda: float.hex(_q_before(*profile)))


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(
    runs=st.lists(_profile(st.sampled_from([0, 1, 2])), min_size=1, max_size=5), grouped=st.booleans()
)
def test_profile_files_give_the_bits_and_errors_of_the_products(runs, grouped):
    runs = [(probs, ys[: len(probs)]) for probs, ys in (runs if grouped else runs[:1])]
    if grouped:
        rows = [f"{j},{p!r},{y}" for j, (probs, ys) in enumerate(runs) for p, y in zip(probs, ys)]
        text = "run,p,y\n" + "\n".join(rows) + "\n"
    else:
        text = "p,y\n" + "".join(f"{p!r},{y}\n" for p, y in zip(*runs[0]))
    got = _outcome(lambda: [float.hex(run_failure_prob(profile)) for profile in parse_profiles(text)])
    assert got == _outcome(lambda: [float.hex(_q_before(*run)) for run in runs])


def test_run_profiles_index_iterate_and_compare_as_the_list_of_records():
    profiles = parse_profiles("run,p,y\n1,0.5,0\n1,0.5,1\n2,0.25,0\n2,0.75,0\n3,1.0,1\n")
    expected = [RunProfile((0.5, 0.5), (0, 1)), RunProfile((0.25, 0.75), (0, 0)), RunProfile((1.0,), (1,))]
    assert type(profiles) is RunProfiles and profiles.starts == (0, 2, 4)
    assert len(profiles) == 3 and profiles == expected and expected == profiles
    assert profiles != expected[:2] and profiles != expected[::-1]
    assert list(profiles) == expected and profiles[-1] == expected[-1] and profiles[1:] == expected[1:]
    assert profiles[::-2] == expected[::-2] and profiles.index(expected[1]) == 1 and expected[2] in profiles
    assert next(iter(profiles)) is not profiles[0]  # each made when asked for
    for index in (3, -4):
        with pytest.raises(IndexError):
            profiles[index]


def test_run_profiles_hold_numpys_columns_as_read_only_memoryviews():
    profiles = RunProfiles(np.array([0.5, 0.5, 1.0]), np.array([0, 1, 1]), [0, 2])
    assert profiles.probs.readonly and profiles.indicators.readonly
    assert profiles == [RunProfile((0.5, 0.5), (0, 1)), RunProfile((1.0,), (1,))]
    assert [type(v) for v in profiles[1].probs + profiles[1].indicators] == [float, int]
    for copied in (pickle.loads(pickle.dumps(profiles)), copy.deepcopy(profiles)):  # as the list of records did
        assert type(copied) is RunProfiles and copied == profiles and copied.probs == (0.5, 0.5, 1.0)


@pytest.mark.parametrize("columns", [list, np.array])
@pytest.mark.parametrize(
    "probs, ys, starts",
    [
        ([0.5, 0.5], [1], [0]),  # columns of unequal length
        ([], [], []),
        ([0.5, 1.0], [0, 1], [1]),  # row 0 in no run
        ([0.5, 0.5, 1.0], [0, 0, 1], [0, 2, 2]),
        ([0.5, 0.5, 1.0], [0, 0, 1], [0, 2, 1]),
        ([0.5, 0.5], [0, 1], [0, 2]),  # a start beyond the columns
        ([0.5, 0.5], [0, 1], []),
    ],
)
def test_run_profiles_refuse_columns_and_starts_that_do_not_make_runs(columns, probs, ys, starts):
    with pytest.raises(DomainError):
        RunProfiles(columns(probs), columns(ys), starts)


def _largest_passing_sum() -> float:
    """The largest float p with p - 1 <= 1e-9: RunProfile's sum test passes it and fails the next float."""
    p = 1.0 + 1e-9
    while p - 1.0 > 1e-9:
        p = math.nextafter(p, 0.0)
    while math.nextafter(p, 2.0) - 1.0 <= 1e-9:
        p = math.nextafter(p, 2.0)
    return p


_EDGE = _largest_passing_sum()


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(runs=st.lists(_profile(st.sampled_from([0, 1, 2])), min_size=1, max_size=5))
@hypothesis.example(runs=[((2.0**-54, 2.0**-54, _EDGE), (0, 0, 0))])  # a float64 pass sum passes, math.fsum's fails
@hypothesis.example(runs=[((_EDGE,), (1,)), ((math.nextafter(_EDGE, 2.0),), (0,))])
@hypothesis.example(runs=[((0.5, 0.5), (0, 1)), ((0.5, -0.5, 1.0), (0, 0, 2))])
@hypothesis.example(runs=[((0.5, 0.5), (0, 2)), ((math.nan, 1.0), (0, 0))])  # the first bad run is named
def test_run_profiles_check_their_columns_as_run_profile_checks_each_run(runs):
    """On lists and on numpy's float64 and int64 columns: the records, or the first bad run's error."""
    runs = [(probs, ys[: len(probs)]) for probs, ys in runs]
    starts = list(itertools.accumulate(len(probs) for probs, _ in runs[:-1]))
    probs, ys = [p for run, _ in runs for p in run], [y for _, run in runs for y in run]
    expected = _outcome(lambda: [RunProfile(*run) for run in runs])
    assert _outcome(lambda: list(RunProfiles(probs, ys, [0, *starts]))) == expected
    assert _outcome(lambda: list(RunProfiles(np.array(probs), np.array(ys, np.int64), [0, *starts]))) == expected


def test_concurrent_profile_reads_leave_other_threads_warnings_alone():
    """Three threads read a 1,000-row profile while a fourth warns under an "ignore" filter:
    no warning of the fourth becomes an exception, and the process's filters end as they began."""
    text = "run,p,y\n" + "".join(f"{run},0.1,{(run + i) % 2}\n" for run in range(1, 101) for i in range(10))
    expected = parse_profiles(text)
    results, raised = [], []

    def read():
        results.extend(parse_profiles(text) == expected for _ in range(40))

    readers = [threading.Thread(target=read) for _ in range(3)]

    def warn():
        while any(reader.is_alive() for reader in readers):
            try:
                warnings.warn("benign", UserWarning)
            except Warning as exc:
                raised.append(exc)

    interval = sys.getswitchinterval()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "benign", UserWarning)
        before = list(warnings.filters)
        sys.setswitchinterval(1e-5)
        try:
            threads = [*readers, threading.Thread(target=warn)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert warnings.filters == before
    assert raised == [] and results == [True] * 120
