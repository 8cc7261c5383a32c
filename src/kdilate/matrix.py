"""Integer matrices and the immutable record base of kdilate's values.

`IntMatrix` is an immutable integer matrix with an explicit shape, on
Python's native arbitrary-precision integers; `_Record` gives it, and
every other value class of the package, field-wise equality, hashing and
printing.  Every layer builds on this module; the graph layer needs
nothing else, so it loads without the Smith normal form and the group
layers above it.
"""

from __future__ import annotations

from operator import attrgetter, mul


class IncompatibleShapesError(ValueError):
    """Raised when matrix or homomorphism shapes do not line up."""


class _Record:
    """Immutable value compared, hashed and printed by its fields.

    A subclass lists its two or more fields in constructor order in
    `_fields`, and a value is built from them by position or by keyword.
    `_defaults` maps the fields a caller may leave out to their values; a
    missing, unknown or surplus field raises TypeError.  A subclass that
    checks or normalizes its arguments keeps its own __init__ and passes
    the stored values, in field order, to `super().__init__`, the one
    place where fields are set.  Equality holds only between values of
    exactly the same class, and the hash is that of the tuple of fields.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._field_values(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _field_values(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the arguments and `_defaults`."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
        values = {**cls._defaults, **kwargs}
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


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

class IntMatrix(_Record):
    """Immutable integer matrix with explicit shape (rows may be zero)."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        super().__init__(rows, cols, entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
            if set(map(type, row)) == {int}:
                continue
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            raise ValueError("column count required for a matrix with no rows")
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def _of_checked_rows(cls, cols: int, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """The matrix of rows the caller has already checked: tuples of
        exactly cols ints each, no bools among them."""
        matrix = object.__new__(cls)
        _Record.__init__(matrix, len(entries), cols, entries)
        return matrix

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def diagonal(cls, values, size: int | None = None) -> "IntMatrix":
        values = [int(v) for v in values]
        n = len(values) if size is None else size
        return cls(n, n, tuple(tuple(values[i] if i == j and i < len(values) else 0
                                     for j in range(n)) for i in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise IncompatibleShapesError(
                f"incompatible shapes {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        columns = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, row, col)) for col in columns)
                               for row in self.entries))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise IncompatibleShapesError("incompatible shapes for addition")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(c * x for x in r) for r in self.entries))

    def apply(self, vector) -> tuple[int, ...]:
        """Matrix times column vector."""
        v = tuple(int(x) for x in vector)
        if len(v) != self.cols:
            raise IncompatibleShapesError("incompatible vector length")
        return tuple(sum(r[k] * v[k] for k in range(self.cols)) for r in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise IncompatibleShapesError("incompatible row counts for hstack")
        return IntMatrix(self.rows, self.cols + other.cols,
                         tuple(r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise IncompatibleShapesError("incompatible column counts for vstack")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def select_columns(self, indices) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix(self.rows, len(idx),
                         tuple(tuple(r[j] for j in idx) for r in self.entries))

    def select_rows(self, indices) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix(len(idx), self.cols, tuple(self.entries[i] for i in idx))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise IncompatibleShapesError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            p, tail = a[k][k], a[k][k + 1:]
            for row in a[k + 1:]:
                f = row[k]
                # a row with f = 0 is rescaled by p / prev, so kept when p = prev
                if f or p != prev:
                    row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
            prev = p
        return sign * a[n - 1][n - 1]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in self.entries) + "]"
