"""Exact integer linear algebra and finitely generated abelian groups.

Everything here runs on Python's native arbitrary-precision integers; no
floating point, no fixed-width arithmetic.  The central tool is the Smith
normal form, from which presentations, kernels and cokernels of maps
between finitely generated abelian groups are computed exactly.  The
matrix type comes from `kdilate.matrix` and is re-exported here, so
`kdilate.abelian.IntMatrix` is the same class; the record base of the
value classes is `kdilate.record`'s.

The fields of every value are immutable after construction, and every
function is pure.  The colimit layer keeps what it derives once per value
in the instance's dict, beside the fields: `_blocks` and `_charpoly` on
an IntMatrix, `_diagonal` on a ColimitDescription.  Two threads can at
worst compute one of them twice, with one result, so the module is safe
for unsynchronized concurrent use.
"""

from __future__ import annotations

import bisect
import math
from operator import mul

from .matrix import IncompatibleShapesError, IntMatrix
from .record import _Record


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SNFResult(_Record):
    """U @ M @ V = S with U, V unimodular and S in Smith normal form."""

    _fields = ("U", "S", "V")

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i, i] for i in range(min(self.S.rows, self.S.cols)))


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    The diagonal of S is nonnegative and each entry divides the next, which
    makes S unique for a given input.  Works for any rectangular shape,
    including matrices with zero rows or columns.  `_quotient_with_maps`
    runs the same engine, `_smith`, with U and U^{-1} only, and
    `group_from_presentation` (behind `direct_sum` and `subquotient_k`)
    with no transform: it reads the diagonal alone.

    Entry size: each Hermite form is reduced, so its entries above a pivot
    are below that pivot, and the product of the pivots is a gcd of minors.
    On seeded square inputs with n = 4..40 and b-bit entries (dense, sparse
    and singular) the entries of U, V and the U^{-1} that `_smith` tracks
    stay within 2 * n * (b + log2(n) + 1) bits, a bound the tests check.
    On wide or rank-deficient inputs the kernel columns of V can grow by
    about one maximal minor's size per kernel vector.
    """
    nrows, ncols = m.rows, m.cols
    diag, u, _, v_cols = _smith([list(r) for r in m.entries], ncols, _identity_rows(nrows),
                                None, _identity_rows(ncols))
    s = [[0] * ncols for _ in range(nrows)]
    for i, d in enumerate(diag):
        s[i][i] = d
    return SNFResult(U=IntMatrix.from_rows(u, nrows),
                     S=IntMatrix.from_rows(s, ncols),
                     V=IntMatrix.from_rows(_transpose(v_cols, ncols), ncols))


def _smith(a, ncols, u, u_inv, v_cols):
    """Smith diagonal of the rows `a` (each ncols long), and the transforms:
    rows of U in `u`, columns of U^{-1} in `u_inv` and of V in `v_cols`,
    all stored as rows.  Each starts as identity rows, or is None and is
    skipped, which changes no step.  `smith_normal_form` tracks U and V,
    `_quotient_with_maps` U and U^{-1}, and `group_from_presentation`
    none: its callers `direct_sum` and `subquotient_k` read the diagonal
    alone.

    Algorithm (Kannan-Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138,
    section 2.4): alternate a row Hermite form and a column Hermite form
    (the row form of the transpose) until the matrix is diagonal.  The row
    form takes the rows in turn and reduces each against the pivot rows
    found so far; where a pivot a does not divide the entry b below it, the
    row is reduced modulo that and every later pivot, and then a 2x2
    extended-gcd step [[x, y], [-b/g, a/g]] (x*a + y*b = g) replaces the
    pivot by g.  After every row the entries above each pivot are reduced
    into [0, pivot).  Then the diagonal is sorted (nonzero ascending, zeros
    last) and the divisibility chain is fixed by the 2x2 step taking
    diag(a, b) to diag(gcd, lcm).  Each row step E on U is undone by the
    column step E^{-1} on U^{-1}, e.g. [[x, y], [-b/g, a/g]] by
    [[a/g, -y], [b/g, x]], so no second elimination is needed.
    """
    nrows = len(a)
    while True:
        a, u, u_inv = _row_hermite(a, u, u_inv)
        if _is_diagonal(a):
            break
        a_t, v_cols, _ = _row_hermite(_transpose(a, ncols), v_cols, None)
        a = _transpose(a_t, nrows)
        if _is_diagonal(a):
            break

    k = min(nrows, ncols)
    order = sorted(range(k), key=lambda i: (a[i][i] == 0, a[i][i]))
    diag = [a[i][i] for i in order]
    for rows in (u, u_inv, v_cols):
        if rows is not None:
            rows[:k] = [rows[i] for i in order]
    # The last nonzero place takes the lcm of all, the place before it the
    # lcm of the rest, and so on; runs of equal entries then need no step.
    for j in reversed(range(k - diag.count(0))):
        for i in range(j):
            p, q = diag[i], diag[j]
            if q % p == 0:
                continue
            g, x, y = _xgcd(p, q)
            # [[x, y], [-q/g, p/g]] diag(p, q) [[1, -y*q/g], [1, x*p/g]] = diag(g, lcm)
            _step(u, u_inv, i, j, x, y, -q // g, p // g)
            _step(v_cols, None, i, j, 1, 1, -y * q // g, x * p // g)
            diag[i], diag[j] = g, p // g * q
    return diag, u, u_inv, v_cols


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _transpose(rows: list[list[int]], width: int) -> list[list[int]]:
    return [list(c) for c in zip(*rows)] if rows else [[] for _ in range(width)]


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _combine(rows, i, j, x, y, z, w, start=0) -> None:
    """rows i, j := x*row i + y*row j, z*row i + w*row j; both rows must be
    zero before `start`."""
    ri, rj = rows[i], rows[j]
    if start:
        head, ri, rj = ri[:start], ri[start:], rj[start:]
        rows[i] = head + [x * e + y * f for e, f in zip(ri, rj)]
        rows[j] = head + [z * e + w * f for e, f in zip(ri, rj)]
    else:
        rows[i] = [x * e + y * f for e, f in zip(ri, rj)]
        rows[j] = [z * e + w * f for e, f in zip(ri, rj)]


def _step(rows, inv_cols, i, j, x, y, z, w) -> None:
    """Apply E = [[x, y], [z, w]] to rows i, j, and E^{-1} = [[w, -y],
    [-z, x]] (det E = 1) to columns i, j of the inverse, whose columns
    `inv_cols` holds as rows; either is skipped when None."""
    if rows is not None:
        _combine(rows, i, j, x, y, z, w)
    if inv_cols is not None:
        _combine(inv_cols, i, j, w, -z, -y, x)


def _add_row(rows, dst, src, q, start=0) -> None:
    """row dst += q * row src, where row src is zero before `start`."""
    d, s = rows[dst], rows[src]
    if start:
        rows[dst] = d[:start] + [e + q * f for e, f in zip(d[start:], s[start:])]
    else:
        rows[dst] = [e + q * f for e, f in zip(d, s)]


def _row_hermite(a, t, t_inv):
    """Reduced row Hermite form of the rows `a`, by unimodular row steps.

    Each step is also applied to the rows of `t`, and its inverse to the
    columns of t^{-1}, stored as the rows of `t_inv`; either is skipped
    when None.  Returns the three lists reordered (None stays None): the
    pivot rows by pivot column (pivots positive, the entries above each
    pivot in [0, pivot)), then the zero rows in input order.
    """
    def add(dst, src, q, start):  # row dst += q * row src
        _add_row(a, dst, src, q, start)
        if t is not None:
            _add_row(t, dst, src, q)
        if t_inv is not None:
            _add_row(t_inv, src, dst, -q)

    def step(i, j, x, y, z, w, start):  # rows i, j := [[x, y], [z, w]] (rows i, j)
        _combine(a, i, j, x, y, z, w, start)
        _step(t, t_inv, i, j, x, y, z, w)

    pivot_of: dict[int, int] = {}   # pivot column -> row index
    column_of: dict[int, int] = {}  # row index -> pivot column
    columns: list[int] = []         # pivot columns, ascending
    zero_rows = []
    for r in range(len(a)):
        dirty = {r}    # pivot rows changed since they were last reduced
        moved = set()  # pivot columns whose pivot value changed
        c = 0
        while True:
            x = a[r]
            c = next((j for j in range(c, len(x)) if x[j]), None)
            if c is None:
                zero_rows.append(r)
                dirty.discard(r)
                break
            p = pivot_of.get(c)
            if p is None:
                if x[c] < 0:
                    step(r, r, -1, 0, 0, -1, c)  # negate row r
                pivot_of[c], column_of[r] = r, c
                bisect.insort(columns, c)
                moved.add(c)
                break
            pc, xc = a[p][c], x[c]
            if xc % pc == 0:
                add(r, p, -(xc // pc), c)
            else:
                # reduce row r modulo this and every later pivot first, so
                # that the gcd step mixes no large entries into the pivot row
                for c2 in columns[bisect.bisect_left(columns, c):]:
                    i2 = pivot_of[c2]
                    q = a[r][c2] // a[i2][c2]
                    if q:
                        add(r, i2, -q, c2)
                xc = a[r][c]
                g, y, z = _xgcd(pc, xc)
                step(p, r, y, z, -xc // g, pc // g, c)
                dirty.add(p)
                moved.add(c)
        # Reduce above the pivots: a changed row at every later pivot column,
        # and every row above a moved pivot at its column.  Ascending, since
        # reducing at column c changes only entries right of c.
        first = min([column_of[i] + 1 for i in dirty] + list(moved), default=None)
        if first is None:
            continue
        for idx in range(bisect.bisect_left(columns, first), len(columns)):
            c = columns[idx]
            i = pivot_of[c]
            pivot = a[i][c]
            if c in moved:
                above = [pivot_of[c_above] for c_above in columns[:idx]]
            else:
                above = [l for l in dirty if column_of[l] < c]
            for l in above:
                q = a[l][c] // pivot
                if q:
                    add(l, i, -q, c)
                    dirty.add(l)
    order = [pivot_of[c] for c in columns] + zero_rows
    return tuple(None if rows is None else [rows[i] for i in order] for rows in (a, t, t_inv))


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    snf = smith_normal_form(m)
    if snf.S != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return snf.V @ snf.U


def integer_kernel_basis(m: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the lattice {x : m @ x = 0}, as column vectors.

    Read off one row Hermite form T m^T = H: the rows of the unimodular T
    against the zero rows of H are a basis of the (saturated) kernel.
    """
    h, t, _ = _row_hermite(_transpose(m.entries, m.cols), _identity_rows(m.cols), None)
    return [tuple(t_row) for h_row, t_row in zip(h, t) if not any(h_row)]


def solve_integer_system(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of m @ x = b, or None when none exists."""
    b = tuple(int(x) for x in b)
    if len(b) != m.rows:
        raise IncompatibleShapesError("right-hand side length does not match")
    snf = smith_normal_form(m)
    c = snf.U.apply(b)
    y = [0] * m.cols
    diag = snf.diagonal()
    for i in range(m.rows):
        s = diag[i] if i < len(diag) else 0
        if s == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % s != 0:
                return None
            y[i] = c[i] // s
    return snf.V.apply(y)


def lattice_contains(generator_rows: IntMatrix, vector) -> bool:
    """Whether a vector lies in the lattice spanned by the given rows."""
    return solve_integer_system(generator_rows.transpose(), vector) is not None


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

class FGAbelianGroup(_Record):
    """Canonical form: free rank plus the invariant factor chain d1 | d2 | ...

    Generators are ordered torsion-first (orders d1 <= d2 <= ...) followed by
    the free generators; all maps in this module use that basis.  Because the
    form is canonical, equality of values is isomorphism of groups.
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple[int, ...] = ()):
        factors = tuple(int(d) for d in invariant_factors)
        super().__init__(free_rank, factors)
        if free_rank < 0:
            raise ValueError("negative free rank")
        for i, d in enumerate(factors):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if i + 1 < len(factors) and factors[i + 1] % d != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        n = abs(int(n))
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @property
    def num_generators(self) -> int:
        return len(self.invariant_factors) + self.free_rank

    @property
    def torsion_count(self) -> int:
        return len(self.invariant_factors)

    def generator_orders(self) -> tuple[int, ...]:
        """Per-generator order, 0 standing for infinite."""
        return self.invariant_factors + (0,) * self.free_rank

    def relation_rows(self) -> IntMatrix:
        """Canonical relations d_i * e_i as rows."""
        n = self.num_generators
        rows = [[self.invariant_factors[i] if j == i else 0 for j in range(n)]
                for i in range(self.torsion_count)]
        return IntMatrix.from_rows(rows, cols=n)

    @property
    def is_trivial(self) -> bool:
        return self.num_generators == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements, or None for an infinite group."""
        if not self.is_finite:
            return None
        return math.prod(self.invariant_factors)

    def torsion_part(self) -> "FGAbelianGroup":
        return FGAbelianGroup(0, self.invariant_factors)

    def reduce(self, coords) -> tuple[int, ...]:
        """Canonical representative of an element given by coordinates."""
        coords = tuple(int(x) for x in coords)
        if len(coords) != self.num_generators:
            raise IncompatibleShapesError("coordinate length does not match generators")
        return tuple(c % d if d else c for c, d in zip(coords, self.generator_orders()))

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def element_is_zero(group: FGAbelianGroup, coords) -> bool:
    """Whether the coordinate vector represents the zero element."""
    return all(x == 0 for x in group.reduce(coords))


def _group_of_diagonal(num_generators: int, diag: list[int]) -> FGAbelianGroup:
    """Z^g modulo a relation lattice with Smith diagonal diag: the entries
    above 1 are its invariant factors, and each generator past the nonzero
    entries is free."""
    return FGAbelianGroup(free_rank=num_generators - (len(diag) - diag.count(0)),
                          invariant_factors=tuple(d for d in diag if d > 1))


def _quotient_with_maps(num_generators: int,
                        relation_rows: IntMatrix) -> tuple[FGAbelianGroup, IntMatrix, IntMatrix]:
    """Canonicalize Z^g modulo the row span of the relations.

    Returns (group, projection, lift): projection maps old coordinates to
    canonical ones, lift picks a representative for each canonical generator,
    and projection @ lift is the identity on canonical coordinates.  With no
    relations the group is free and both maps are the identity, taken
    without a Smith form.
    """
    if relation_rows.cols != num_generators:
        raise IncompatibleShapesError("relations must have one column per generator")
    if not relation_rows.rows:
        identity = IntMatrix.identity(num_generators)
        return FGAbelianGroup.free(num_generators), identity, identity
    diag, u, u_inv, _ = _smith(_transpose(relation_rows.entries, num_generators),
                               relation_rows.rows, _identity_rows(num_generators),
                               _identity_rows(num_generators), None)
    group = _group_of_diagonal(num_generators, diag)
    # the diagonal's 1s come first, so the kept generators are the last ones
    kept = range(num_generators - group.num_generators, num_generators)
    projection = IntMatrix.from_rows([u[i] for i in kept], num_generators)
    lift = IntMatrix.from_rows(_transpose([u_inv[i] for i in kept], num_generators), len(kept))
    return group, projection, lift


def group_from_presentation(num_generators: int, relations: IntMatrix) -> FGAbelianGroup:
    """Canonical form of Z^g modulo the row span of the relation matrix,
    read off the Smith diagonal alone: no transform is tracked."""
    if relations.cols != num_generators:
        raise IncompatibleShapesError("relations must have one column per generator")
    diag = _smith(_transpose(relations.entries, num_generators), relations.rows,
                  None, None, None)[0]
    return _group_of_diagonal(num_generators, diag)


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class GroupHom(_Record):
    """Homomorphism between canonical groups, as a matrix on generators.

    matrix[i][j] is the coefficient of codomain generator i in the image of
    domain generator j.  Rows over torsion generators are stored reduced
    modulo the generator order, so equal maps compare equal.  Construction
    checks well-definedness: each domain relation must land in the relation
    lattice of the codomain.
    """

    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: FGAbelianGroup, codomain: FGAbelianGroup, matrix: IntMatrix):
        m = matrix
        if (m.rows, m.cols) != (codomain.num_generators, domain.num_generators):
            raise IncompatibleShapesError(
                f"matrix shape {m.rows}x{m.cols} does not match codomain x domain "
                f"({codomain.num_generators}x{domain.num_generators})")
        cod_orders = codomain.generator_orders()
        if not codomain.is_free:  # rows over torsion generators are reduced
            m = IntMatrix(m.rows, m.cols, tuple(tuple(x % d if d else x for x in row)
                                                for row, d in zip(m.entries, cod_orders)))
        super().__init__(domain, codomain, m)
        for j, dj in enumerate(domain.generator_orders()):
            if dj == 0:
                continue
            for i, di in enumerate(cod_orders):
                v = dj * self.matrix[i, j]
                if (di and v % di != 0) or (di == 0 and v != 0):
                    raise ValueError(
                        f"matrix does not define a homomorphism: relation {dj}*g{j} "
                        f"is not mapped into the codomain relation lattice")

    @classmethod
    def identity(cls, group: FGAbelianGroup) -> "GroupHom":
        return cls(group, group, IntMatrix.identity(group.num_generators))

    @classmethod
    def multiplication(cls, group: FGAbelianGroup, c: int) -> "GroupHom":
        return cls(group, group, IntMatrix.identity(group.num_generators).scale(c))

    def apply(self, coords) -> tuple[int, ...]:
        return self.codomain.reduce(self.matrix.apply(self.domain.reduce(coords)))

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain != self.domain:
            raise IncompatibleShapesError("incompatible homomorphisms for composition")
        return GroupHom(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other: "GroupHom") -> "GroupHom":
        if (self.domain, self.codomain) != (other.domain, other.codomain):
            raise IncompatibleShapesError("incompatible homomorphisms for addition")
        return GroupHom(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        return self + (-other)

    def __neg__(self) -> "GroupHom":
        return GroupHom(self.domain, self.codomain, -self.matrix)


def kernel(f: GroupHom) -> tuple[FGAbelianGroup, GroupHom]:
    """Kernel in canonical form, with its inclusion into the domain.

    Lifts to the free cover.  One row Hermite form T A^T = H of the combined
    system A = [matrix | codomain relations] gives a basis of ker A: the rows
    of T against the zero rows of H.  Their domain parts are a basis of the
    kernel lattice, as the relation columns d_i e_i are independent.  Each
    domain relation d_j e_j lifts to z = (d_j e_j, -d_j f(e_j)_i / d_i) in
    ker A, with coordinates z T^{-1} in that basis; the kernel is the
    quotient of the basis by those coordinate rows.
    """
    dom, cod = f.domain, f.codomain
    n = dom.num_generators
    size = n + cod.torsion_count
    rows = _transpose(f.matrix.entries, n) + [list(r) for r in cod.relation_rows().entries]
    h, t, t_inv = _row_hermite(rows, _identity_rows(size), _identity_rows(size))
    rank = sum(1 for row in h if any(row))
    coords = []
    for j, d in enumerate(dom.invariant_factors):
        z = [0] * size
        z[j] = d
        for i, e in enumerate(cod.invariant_factors):
            z[n + i] = -d * f.matrix[i, j] // e
        c = [sum(map(mul, z, col)) for col in t_inv]  # z T^{-1}
        if any(c[:rank]):
            raise RuntimeError("domain relation outside the kernel lattice")
        coords.append(c[rank:])
    group, _, lift = _quotient_with_maps(size - rank,
                                         IntMatrix.from_rows(coords, cols=size - rank))
    basis = IntMatrix.from_rows([row[:n] for row in t[rank:]], cols=n).transpose()
    return group, GroupHom(group, dom, basis @ lift)


def _cokernel_with_maps(f: GroupHom) -> tuple[FGAbelianGroup, GroupHom, IntMatrix]:
    cod = f.codomain
    rows = cod.relation_rows().vstack(f.matrix.transpose())
    group, projection, lift = _quotient_with_maps(cod.num_generators, rows)
    return group, GroupHom(cod, group, projection), lift


def cokernel(f: GroupHom) -> tuple[FGAbelianGroup, GroupHom]:
    """Cokernel in canonical form, with the quotient projection."""
    group, projection, _ = _cokernel_with_maps(f)
    return group, projection


def direct_sum(g: FGAbelianGroup, h: FGAbelianGroup) -> FGAbelianGroup:
    """Canonical form of the direct sum (invariant factors recombined)."""
    return group_from_presentation(g.num_generators + h.num_generators,
                                   block_diagonal(g.relation_rows(), h.relation_rows()))


def block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = [list(r) + [0] * b.cols for r in a.entries]
    rows += [[0] * a.cols + list(r) for r in b.entries]
    return IntMatrix.from_rows(rows, cols=a.cols + b.cols)
