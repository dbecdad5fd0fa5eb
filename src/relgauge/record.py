"""The base of the package's immutable value records.

A record class names its fields, in constructor order, in ``_fields``, and
the values of trailing fields that may be left out in ``_defaults``.
:class:`Record`'s one ``__init__`` binds the arguments to those fields as
a signature would, stores each with :func:`set_field` and then runs the
class's ``_check``, which raises for values the record does not accept.
:class:`Record` makes the instances immutable and gives them ``==``,
``hash``, ``repr`` and :meth:`Record.replace` from that one list, as a
frozen dataclass would, without importing anything or compiling code when
a record class is created.  Fields named in ``_uncompared`` are left out of
``==`` and ``hash``.
"""

from __future__ import annotations

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
