"""The value-record contract that every exported record keeps.

Each record is built by position and by keyword from one set of values
and must: refuse the arguments a signature would refuse, fill left-out
fields from its defaults, refuse assignment and deletion of its fields,
compare equal only to records of exactly its class, hash as the tuple of
its compared fields, repr as a dataclass would, and run its checks again
on replace.
"""

import ast
import copy
import importlib
import math
import pickle
from pathlib import Path
from unittest import mock

import pytest

import relgauge
from relgauge.debug_economics import DiscoveryRows, parse_discovery
from relgauge.errors import DataError, DomainError, NotMonotone
from relgauge.failure_data import Outcome
from relgauge.model_nelson import RunProfiles, parse_profiles
from relgauge.model_weibull import MomentForm
from relgauge.numerics import ARRAY_MIN
from relgauge.record import Columns, FrozenRecordError, Record

_RUNS = (relgauge.RunRecord(2.0, Outcome.SUCCESS), relgauge.RunRecord(0.5, Outcome.FAILURE))

# Each record: its class name, values in field order, the exact repr, and one
# (field, value, error) that its checks reject, or None where it checks nothing.
_CASES = [
    (
        "Bracket",
        (0.5, 2.0, 1e-12, -1.0, 3.0),
        "Bracket(lo=0.5, hi=2.0, tol_rel=1e-12, f_lo=-1.0, f_hi=3.0)",
        ("lo", 3.0, DomainError),
    ),
    (
        "DebugPeriod",
        (1.0, 20, 1000.0, 10),
        "DebugPeriod(tau=1.0, corrected=20, exposure=1000.0, failures=10)",
        ("tau", -1.0, DomainError),
    ),
    (
        "DebugPeriods",
        ((1.0, 2.0), (20, 50), (1000.0, 1600.0), (10, 10)),
        "DebugPeriods(tau=(1.0, 2.0), corrected=(20, 50), exposure=(1000.0, 1600.0), "
        "failures=(10, 10))",
        ("exposure", (1000.0, 0.0), DomainError),
    ),
    (
        "DiscoveryParams",
        (100.0, 2.5, 1000, 1e6),
        "DiscoveryParams(eps0=100.0, tau0=2.5, commands=1000, tempo=1000000.0)",
        ("commands", 0, DomainError),
    ),
    (
        "DualRunConfig",
        (100.0, 0.5, 0.01),
        "DualRunConfig(total_time=100.0, overhead=0.5, failure_rate=0.01)",
        ("overhead", -1.0, DomainError),
    ),
    (
        "DualRunPlan",
        (12.5, 8.0, 210.25, 0.875, False),
        "DualRunPlan(t_star=12.5, module_count=8.0, tp_min=210.25, p1_at_t=0.875, boundary=False)",
        None,
    ),
    (
        "EconParams",
        (1000.0, 2.0, 8760.0),
        "EconParams(cost_error=1000.0, cost_test=2.0, horizon=8760.0)",
        ("horizon", math.inf, DomainError),
    ),
    (
        "FailureEpochs",
        ((1.5, 4.0, 9.25),),
        "FailureEpochs(epochs=(1.5, 4.0, 9.25))",
        ("epochs", (2.0, 1.0), NotMonotone),
    ),
    (
        "JmFit",
        (31.25, 0.0075, 26, 4.5, 1e-06, -0.5, 2e-12),
        "JmFit(e0_hat=31.25, k_hat=0.0075, k_obs=26, var_e0=4.5, var_k=1e-06, rho=-0.5, "
        "residual=2e-12)",
        ("e0_hat", 25.0, DomainError),
    ),
    (
        "PartitionSpec",
        ((0.25, 0.5), (0.125, 0.0)),
        "PartitionSpec(path_probs=(0.25, 0.5), path_error_rates=(0.125, 0.0))",
        ("path_error_rates", (1.0, 0.0), DomainError),
    ),
    (
        "RunLog",
        (_RUNS,),
        "RunLog(runs=(RunRecord(duration=2.0, outcome=<Outcome.SUCCESS: 'success'>), "
        "RunRecord(duration=0.5, outcome=<Outcome.FAILURE: 'failure'>)))",
        None,
    ),
    (
        "RunProfile",
        ((0.75, 0.25), (0, 1)),
        "RunProfile(probs=(0.75, 0.25), indicators=(0, 1))",
        ("indicators", (0, 2), DomainError),
    ),
    (
        "RunRecord",
        (2.0, Outcome.FAILURE),
        "RunRecord(duration=2.0, outcome=<Outcome.FAILURE: 'failure'>)",
        ("outcome", "failure", DomainError),
    ),
    (
        "RunSummary",
        (2.5, 0.4, 2.5),
        "RunSummary(exposure=2.5, lambda_hat=0.4, t_hat=2.5)",
        None,
    ),
    (
        "SchumannFit",
        (120.0, 0.25, 10000, 9.0, 0.0004, 0.75, (1e-12, 3e-13)),
        "SchumannFit(e0_hat=120.0, c_hat=0.25, instructions=10000, var_e0=9.0, var_c=0.0004, "
        "rho=0.75, residuals=(1e-12, 3e-13))",
        ("c_hat", 0.0, DomainError),
    ),
    (
        "WeibullFit",
        (0.75, 0.125, MomentForm.RAW_RATIO),
        "WeibullFit(m=0.75, lam=0.125, moment_form=<MomentForm.RAW_RATIO: 'literal'>)",
        ("moment_form", "cv", DomainError),
    ),
]

_IDS = [case[0] for case in _CASES]


def test_every_exported_record_is_covered():
    exported = {name for name in relgauge.__all__ if isinstance(getattr(relgauge, name), type)}
    records = {name for name in exported if issubclass(getattr(relgauge, name), Record)}
    assert records == set(_IDS)


@pytest.mark.parametrize("name, values, text, bad", _CASES, ids=_IDS)
def test_built_by_position_or_keyword_alike(name, values, text, bad):
    cls = getattr(relgauge, name)
    record = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert [getattr(record, f) for f in cls._fields] == list(values)
    assert [getattr(by_keyword, f) for f in cls._fields] == list(values)
    assert repr(record) == repr(by_keyword) == text
    assert vars(record) == dict(zip(cls._fields, values))


@pytest.mark.parametrize("name, values, text, bad", _CASES, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(name, values, text, bad):
    record = getattr(relgauge, name)(*values)
    for field in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'") as assigned:
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'") as deleted:
            delattr(record, field)
        assert assigned.type is deleted.type is FrozenRecordError
    assert repr(record) == text


@pytest.mark.parametrize("name, values, text, bad", _CASES, ids=_IDS)
def test_replace_builds_a_checked_record(name, values, text, bad):
    record = getattr(relgauge, name)(*values)
    copy = record.replace()
    assert copy is not record and repr(copy) == text
    if bad is None:
        return
    field, value, error = bad
    with pytest.raises(error):
        record.replace(**{field: value})
    assert issubclass(error, DataError)
    with pytest.raises(TypeError):
        record.replace(not_a_field=1.0)


# The column records compare and hash as the sequence of their rows; see the column-record tests.
_VALUES = [case for case in _CASES if case[0] not in ("DebugPeriods", "FailureEpochs")]


@pytest.mark.parametrize("name, values, text, bad", _VALUES, ids=[case[0] for case in _VALUES])
def test_equal_and_hash_as_the_tuple_of_compared_fields(name, values, text, bad):
    cls = getattr(relgauge, name)
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(cls(*values))
    compared = tuple(getattr(record, f) for f in cls._fields if f not in cls._uncompared)
    assert hash(record) == hash(compared)
    assert record != compared and record != values  # a tuple of the same values is not equal
    if isinstance(values[0], float):  # a record whose first field differs is not equal
        assert record != record.replace(**{cls._fields[0]: 2.0 * values[0]})


def test_equality_needs_exactly_the_same_class():
    config = relgauge.DualRunConfig(1.0, 2.0, 3.0)
    econ = relgauge.EconParams(1.0, 2.0, 3.0)
    assert config != econ and econ != config
    subclass = type("Config", (relgauge.DualRunConfig,), {})
    assert subclass(1.0, 2.0, 3.0) != config


@pytest.mark.parametrize(
    "fit, field, other",
    [
        (relgauge.JmFit(31.25, 0.0075, 26, residual=2e-12), "residual", None),
        (relgauge.SchumannFit(120.0, 0.25, 1000, residuals=(1e-12, 3e-13)), "residuals", (0.5, 0.5)),
    ],
)
def test_fit_residuals_take_no_part_in_equality_or_hash(fit, field, other):
    twin = fit.replace(**{field: other})
    assert getattr(twin, field) == other
    assert twin == fit and hash(twin) == hash(fit)
    assert repr(twin) != repr(fit)
    assert fit.replace(rho=0.5) != fit
    # replace keeps the residuals it is not asked to change
    assert getattr(fit.replace(rho=0.5), field) == getattr(fit, field)


def test_defaults_are_those_of_the_constructor():
    assert repr(relgauge.Bracket(0.0, 1.0)) == (
        "Bracket(lo=0.0, hi=1.0, tol_rel=1e-10, f_lo=None, f_hi=None)"
    )
    assert repr(relgauge.JmFit(3.0, 0.5, 2)) == (
        "JmFit(e0_hat=3.0, k_hat=0.5, k_obs=2, var_e0=None, var_k=None, rho=None, residual=None)"
    )
    assert relgauge.WeibullFit(1.0, 1.0).moment_form is MomentForm.CV_CORRECTED
    with pytest.raises(TypeError):
        relgauge.JmFit(3.0, 0.5)


@pytest.mark.parametrize("name, values, text, bad", _CASES, ids=_IDS)
def test_arguments_a_signature_would_refuse_raise_type_error(name, values, text, bad):
    cls = getattr(relgauge, name)
    first = cls._fields[0]
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match=f"missing .*'{first}'"):
        cls(**dict(zip(cls._fields[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(*values, not_a_field=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(values[0], **dict(zip(cls._fields, values)))


@pytest.mark.parametrize("name, values, text, bad", _CASES, ids=_IDS)
def test_left_out_fields_take_the_class_defaults(name, values, text, bad):
    cls = getattr(relgauge, name)
    given = [field for field in cls._fields if field not in cls._defaults]
    assert cls._fields[: len(given)] == tuple(given)  # defaults are trailing
    record = cls(*values[: len(given)])
    assert {field: getattr(record, field) for field in cls._fields[len(given) :]} == cls._defaults


def _calls_of(node, name, owner=None):
    """The top-level class or function under which each call of ``name`` below ``node`` sits."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
            yield owner
        inner = child.name if owner is None and isinstance(child, (ast.ClassDef, ast.FunctionDef)) else owner
        yield from _calls_of(child, name, inner)


_PROTOCOL = {"__init__", "__len__", "__getitem__", "__iter__", "__eq__", "__reduce__"}


def test_only_records_that_convert_their_values_write_a_constructor():
    """Record's one constructor and Columns' one sequence protocol serve every record: no Record
    subclass outside ``record`` defines __init__, __len__, __getitem__, __iter__, __eq__ or
    __reduce__, and set_field is called only in ``record`` itself."""
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "relgauge").glob("*.py"))
    records = {"Record", "Columns"}
    for path in paths:
        module = importlib.import_module(f"relgauge.{path.stem}")
        records.update(name for name, value in vars(module).items() if isinstance(value, type) and issubclass(value, Record))
    written, stores = set(), set()
    for path in paths:
        if path.stem == "record":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            bases = {getattr(base, "id", getattr(base, "attr", None)) for base in getattr(node, "bases", ())}
            if isinstance(node, ast.ClassDef) and bases & records:
                for item in node.body:
                    names = [item.name] if isinstance(item, ast.FunctionDef) else [
                        getattr(target, "id", None) for target in getattr(item, "targets", ())]
                    written.update(f"{node.name}.{name}" for name in names if name in _PROTOCOL)
        stores.update(f"{path.stem}.{owner}" for owner in _calls_of(tree, "set_field"))
    assert written == set()
    assert stores == set()
    assert set(_COLUMN_CLASSES) <= records  # the guard sees the records it guards


def test_debug_periods_keep_their_own_equality():
    periods = relgauge.DebugPeriods((1.0, 2.0), (20, 50), (1000.0, 1600.0), (10, 10))
    records = [relgauge.DebugPeriod(1.0, 20, 1000.0, 10), relgauge.DebugPeriod(2.0, 50, 1600.0, 10)]
    assert periods == records and periods == tuple(records)
    assert periods == relgauge.DebugPeriods.of(records)
    assert periods != records[:1] and periods != "periods"
    assert hash(periods) == hash(tuple(records))


def test_failure_epochs_parsed_into_an_array_keep_the_record_contract():
    """From ARRAY_MIN rows on a parsed file's epochs are a read-only float64 array; the record
    equals and hashes like its twin built from a tuple of the same floats, and like that tuple,
    and checks as it does."""
    np = pytest.importorskip("numpy")
    floats = tuple(0.5 + i for i in range(ARRAY_MIN))
    parsed = relgauge.parse_failure_epochs("epoch\n" + "".join(f"{t!r}\n" for t in floats))
    twin = relgauge.FailureEpochs(floats)
    assert type(parsed.epochs) is np.ndarray and parsed.epochs.dtype == np.float64
    assert type(twin.epochs) is tuple  # a tuple is kept at any size
    assert parsed.epochs.tolist() == list(floats)
    assert parsed == twin and twin == parsed and not parsed != twin
    assert hash(parsed) == hash(twin) == hash(floats)
    assert parsed != relgauge.FailureEpochs((*floats[:-1], floats[-1] + 1.0))
    with pytest.raises(ValueError):
        parsed.epochs[0] = 0.25
    with pytest.raises(FrozenRecordError):
        parsed.epochs = floats
    assert parsed.replace() == parsed and parsed.replace().epochs is parsed.epochs
    with pytest.raises(NotMonotone, match="^epochs must be strictly increasing: epoch 2 is 0.5 after 0.5$"):
        parsed.replace(epochs=np.array([0.5, 0.5, 1.0]))
    with pytest.raises(DomainError, match="^epoch 3 must be finite and positive, got inf$"):
        parsed.replace(epochs=np.array([0.5, 1.0, np.inf]))
    with pytest.raises(DomainError, match="^epoch 2 must be finite and positive, got nan$"):
        relgauge.FailureEpochs(np.array([0.5, np.nan, 1.0]))
    # A writable array is copied, so changing it afterwards leaves the record as it was.
    source = np.array(floats)
    record = relgauge.FailureEpochs(source)
    source[0] = 0.25
    assert record == twin and not record.epochs.flags.writeable


# Each column record: its parser, a file of n rows for it, and its columns as tuples of three rows.
_COLUMN_RECORDS = {
    "FailureEpochs": (
        relgauge.parse_failure_epochs,
        lambda n: "epoch\n" + "".join(f"{0.5 + j!r}\n" for j in range(n)),
        ((1, 2.5, 4),),
    ),
    "DebugPeriods": (
        relgauge.parse_debug_periods,
        lambda n: "tau,corrected,exposure,failures\n" + "".join(f"{0.5 * j!r},{3 * j},{10.0 + j!r},{n - j}\n" for j in range(n)),
        ((0, 1.5, 2.0), (0, 20, 50), (1000, 1600.0, 2.5), (10, 10, 0)),
    ),
    "RunProfiles": (
        parse_profiles,
        # Runs of two rows, the last of one where n is odd.
        lambda n: "run,p,y\n" + "".join(f"{j // 2},{1.0 if j == n - 1 and n % 2 else 0.5},{int(j % 3 == 0)}\n" for j in range(n)),
        ((0.5, 0.5, 1.0, 0.25, 0.75), (0, 1, 1, 0, 0), (0, 2, 3)),
    ),
    "DiscoveryRows": (
        parse_discovery,
        lambda n: "tau,corrected\n" + "".join(f"{j + 1}.0,{j}.5\n" for j in range(n)),
        ((1, 2, 3), (1, 2, 3)),
    ),
}
_COLUMN_CLASSES = {
    "FailureEpochs": relgauge.FailureEpochs, "DebugPeriods": relgauge.DebugPeriods,
    "RunProfiles": RunProfiles, "DiscoveryRows": DiscoveryRows,
}


def _column_record(name, source):
    """The record ``name`` built from tuples, or parsed from a file of ``source`` rows."""
    parse, text, columns = _COLUMN_RECORDS[name]
    if source == "tuples":
        return _COLUMN_CLASSES[name](*columns)
    if source >= ARRAY_MIN:
        pytest.importorskip("numpy")
    return parse(text(source))


def test_every_column_record_is_covered():
    found = {cls for cls in map(type, map(_column_record, _COLUMN_RECORDS, ["tuples"] * 4))}
    assert found == set(_COLUMN_CLASSES.values()) and all(issubclass(cls, Columns) for cls in found)


@pytest.mark.parametrize("source", ["tuples", ARRAY_MIN - 1, ARRAY_MIN])
@pytest.mark.parametrize("name", list(_COLUMN_RECORDS))
def test_column_records_read_as_the_sequence_of_their_rows(name, source):
    """len, indexing, iteration and own-type slices agree; the record equals, and hashes like,
    the list and the tuple of its rows; pickle and deepcopy rebuild it through its constructor."""
    cls = _COLUMN_CLASSES[name]
    record = _column_record(name, source)
    held = [getattr(record, field) for field in cls._fields]
    arrays = source != "tuples" and source >= ARRAY_MIN
    assert [type(column).__name__ for column in held] == [
        "ndarray" if arrays and field != "starts" else "tuple" for field in cls._fields]
    assert all(not column.flags.writeable for column in held if type(column) is not tuple)
    assert "<memory" not in repr(record)
    rows = list(record)
    assert len(rows) == len(record) >= 3
    # The same rows, to the type of each number, by index and by iteration.
    assert [repr(record[j]) for j in range(len(record))] == [repr(row) for row in rows]
    assert repr(record[-1]) == repr(rows[-1]) and repr(record[-len(rows)]) == repr(rows[0])
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            record[index]
    for index in (slice(1, 3), slice(None, None, 2), slice(-2, None)):  # a slice is checked as any record is
        part = record[index]
        assert type(part) is cls and list(part) == rows[index] and part == rows[index]
    if cls is RunProfiles:  # a record of no run is refused, so a slice that selects none is ()
        for empty in (record[len(rows):], record[2:1], record[::-1][len(rows):]):
            assert type(empty) is tuple and empty == ()
    assert record == rows and rows == record and record == tuple(rows) and not record != rows
    assert record != rows[:-1] and record != rows[::-1] and record != "rows"
    assert hash(record) == hash(tuple(record)) == hash(tuple(rows))
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and hash(copied) == hash(record)
        assert [type(getattr(copied, field)) for field in cls._fields] == list(map(type, held))
        for column in (getattr(copied, field) for field in cls._fields):
            if type(column) is not tuple:
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = -1
    with mock.patch.object(cls, "_check", autospec=True) as check:  # the copies are checked again
        pickle.loads(pickle.dumps(record))
        copy.deepcopy(record)
    assert check.call_count == 2


def test_discovery_rows_are_floats_by_index_and_by_iteration():
    rows = DiscoveryRows((1, 2, 3), (1, 2, 3))
    assert rows[0] == (1.0, 1.0) and repr(next(iter(rows))) == repr(rows[0]) == "(1.0, 1.0)"


def test_column_records_refuse_columns_of_unequal_length_or_shape():
    np = pytest.importorskip("numpy")
    with pytest.raises(DomainError, match="^DiscoveryRows columns must have equal lengths$"):
        DiscoveryRows((1.0, 2.0), (1.0,))
    with pytest.raises(DomainError, match="^a column must be a 1-D array of numbers, got 2-D of float64$"):
        relgauge.FailureEpochs(np.ones((2, 2)))


def test_column_records_hold_no_array_that_something_else_may_write():
    np = pytest.importorskip("numpy")
    source = np.array([1.0, 2.0, 3.0])
    view = source[:]
    view.flags.writeable = False
    for given in (source, view):  # a writable array, and a read-only view of one, are copied
        record = relgauge.FailureEpochs(given)
        source[0] = -1.0
        assert record == [1.0, 2.0, 3.0] and not record.epochs.flags.writeable
        source[0] = 1.0
    held = relgauge.FailureEpochs(np.array([1.0, 2.0, 3.0]))
    assert held[1:].epochs.base is held.epochs  # a slice of a held array is held as it is
