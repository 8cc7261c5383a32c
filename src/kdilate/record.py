"""The immutable record base of kdilate's values.

`_Record` gives every value class of the package, from `IntMatrix` and the
groups to graphs and posets, field-wise equality, hashing and printing.
It imports nothing of kdilate, so the graph layer builds its values on it
without loading `IntMatrix`.
"""

from __future__ import annotations

from operator import attrgetter


class _Record:
    """Immutable value compared, hashed and printed by its fields.

    A subclass lists its two or more fields in constructor order in
    `_fields`, and a value is built from them by position or by keyword;
    a missing, unknown or surplus field raises TypeError.  A subclass that
    checks or normalizes its arguments keeps its own __init__ and passes
    the stored values, in field order, to `super().__init__`, the one
    place where fields are set.  Equality holds only between values of
    exactly the same class, and the hash is that of the tuple of fields.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._field_values(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _field_values(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the arguments."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
        values = dict(kwargs)
        for field, value in zip(fields, args):
            if field in kwargs:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        try:
            ordered = [values.pop(field) for field in fields]
        except KeyError as missing:
            raise TypeError(f"{name}() missing field {missing}") from None
        if values:
            raise TypeError(f"{name}() got an unknown field {next(iter(values))!r}")
        return ordered

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        key = attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
