"""Integer matrices.

`IntMatrix` is an immutable integer matrix with an explicit shape, on
Python's native arbitrary-precision integers, built on the record base of
`kdilate.record`.  The group layers build on this module.  The graph layer
loads it only where `subquotient_k` hands its relations to the group
layer, and the command line only to read a group's matrix, so that
graph-hs, graph-lattice and graph-prim never load it.
"""

from __future__ import annotations

from operator import mul

from .record import _Record


class IncompatibleShapesError(ValueError):
    """Raised when matrix or homomorphism shapes do not line up."""


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

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

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
