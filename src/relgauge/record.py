"""The base of the package's immutable value records.

A record class names its fields, in constructor order, in ``_fields``, and
the values of trailing fields that may be left out in ``_defaults``.
:class:`Record`'s one ``__init__`` binds the arguments to those fields as
a signature would, stores each with :func:`set_field` and then runs the
class's ``_check``, which raises for values the record does not accept.
:class:`Record` makes the instances immutable and gives them ``==``,
``hash``, ``repr`` and :meth:`Record.replace` from that one list, as a
frozen dataclass would, without compiling code when a record class is
created.  Fields named in ``_uncompared`` are left out of ``==`` and
``hash``.  :class:`Columns` is the base of the records that hold columns
and read as the sequence of their rows.
"""

from __future__ import annotations

from collections.abc import Sequence

# set_field(record, name, value) stores a field past the frozen __setattr__.  From
# Python 3.11 on it keeps the values in the instance's compact attribute storage,
# where writing through self.__dict__ would make a dict for every record.
set_field = object.__setattr__


class FrozenRecordError(AttributeError):
    """A field of a record was assigned or deleted."""


class Record:
    """An immutable value: equal to records of exactly its class with the same compared fields."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _uncompared: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, or TypeError for an argument a signature would refuse."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        for field in kwargs:
            if field not in fields[len(args) :]:
                got = "multiple values for" if field in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {got} argument {field!r}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return [values[field] for field in fields]

    @classmethod
    def _unchecked(cls, *values):
        """The record of ``values`` in field order, stored without binding or checks: values already checked."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            set_field(record, name, value)
        return record

    def _check(self) -> None:
        """Raise for field values this record does not accept; a record without rules accepts any."""

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields if name not in self._uncompared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def replace(self, **changes):
        """A new record with ``changes`` applied to this one's fields, checked as any record is."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class Columns(Record, Sequence):
    """Columns of equal length, read as the sequence of their rows.

    Each field is held as given: a 1-D ndarray of numbers read-only, copied
    first if it or the memory it views is writable, and any other sequence
    as the tuple of its items.  The fields in ``_columns`` (all where it is
    empty) have equal lengths, the first one's being the record's.  Row j
    is ``_row(views, j)`` of :meth:`_views`, in which an ndarray's items are
    Python floats and ints, so indexing and iteration give the same rows,
    made without a second check.  A slice is a record of the same type.
    The record equals any sequence of the same rows and hashes as their
    tuple; it pickles and copies through its constructor, so a copy's
    columns are read-only and checked again.
    """

    _columns: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        for name, value in zip(self._fields, self._bind(args, kwargs)):
            set_field(self, name, _held(value))
        if len({len(getattr(self, name)) for name in self._columns or self._fields}) > 1:
            from .errors import DomainError  # here: record imports no module of the package at its top

            raise DomainError(f"{type(self).__qualname__} columns must have equal lengths")
        self._check()

    def _views(self) -> list:
        """Each field as the rows read it: a tuple as it is, an ndarray through a memoryview."""
        values = map(self.__getattribute__, self._fields)
        return [value if type(value) is tuple else memoryview(value) for value in values]

    def _sliced(self, index: slice) -> Columns:
        """The rows at ``index`` as a record of this type, each column sliced."""
        return type(self)(*[getattr(self, name)[index] for name in self._fields])

    def __len__(self) -> int:
        return len(getattr(self, (self._columns or self._fields)[0]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._sliced(index)
        return self._row(self._views(), range(len(self))[index])  # IndexError as a list raises it

    def __iter__(self):
        views, row = self._views(), self._row
        return (row(views, j) for j in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))


def _held(column):
    """``column`` as a column record holds it; numpy is not imported to tell an ndarray."""
    if getattr(column, "dtype", None) is None:
        return tuple(column)
    if column.ndim != 1 or column.dtype.kind not in "biuf":
        from .errors import DomainError

        raise DomainError(f"a column must be a 1-D array of numbers, got {column.ndim}-D of {column.dtype}")
    # A writable array is copied, and so is a read-only view of memory that something else may write.
    shared = column.base is not None and getattr(getattr(column.base, "flags", None), "writeable", True)
    if column.flags.writeable or shared:
        column = column.copy()
        column.flags.writeable = False
    return column
