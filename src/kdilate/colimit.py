"""Dilation colimits: classify colim(G, f) for an endomorphism f of a
finitely generated abelian group, and compute kernel/cokernel of (1 - fbar)
on the colimit.

The classification first quotients by the eventual kernel K, the union of
ker(f^t), so the induced endomorphism is injective, then splits into the
finite, free, and mixed cases.  Mixed groups are split equivariantly when
an invariant free complement exists; otherwise the result is reported as
an unresolved extension rather than guessed.  A free tower whose type is
not decided prints in the reduced row Hermite basis of the free quotient
of G/K, which the problem alone fixes.

Kernel/cokernel of (1 - fbar) never touch the colimit directly: filtered
colimits are exact, so both are the colimits of their level-zero towers,
and f acts on each as the identity, so both are plain groups.

The chain ker(f^t) stabilizes at t* <= r + Omega(|T|) for K of rank r and
torsion T, Omega counting prime factors with multiplicity: f is nilpotent
on K (Fitting), and until f^i(K) = 0 each step lowers its rank or, once it
is finite, divides its order by a prime.  Doubling the power of f finds
the stable kernel in one kernel if t* = 0, else 2 + ceil(log2 t*).

A square matrix is split once into the diagonal blocks of its coordinates
(`_blocks_of`).  The injectivity and |det| tests read f(0) as the product
of the blocks' f_B(0), and the eigen-search reads each block's own
polynomial, so no characteristic polynomial of several blocks is formed.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd, isqrt, prod
from operator import mul

from .abelian import (
    FGAbelianGroup,
    GroupHom,
    IncompatibleShapesError,
    IntMatrix,
    _identity_rows,
    _quotient_with_maps,
    _row_hermite,
    cokernel,
    direct_sum,
    element_is_zero,
    integer_kernel_basis,
    kernel,
)
from .record import _Record

TAG_FINITE = "finite_or_fg"
TAG_LOCALIZED = "localized_free"
TAG_EXTENSION = "extension"


class DilationProblem(_Record):
    """A group together with the endomorphism to dilate along."""

    _fields = ("base", "endo")

    def __init__(self, base: FGAbelianGroup, endo: GroupHom):
        super().__init__(base, endo)
        if endo.domain != base or endo.codomain != base:
            raise IncompatibleShapesError("endomorphism must map the base group to itself")


# ---------------------------------------------------------------------------
# Colimit descriptions
# ---------------------------------------------------------------------------

class ColimitDescription(_Record):
    """Classification of a dilation colimit.

    tag "finite_or_fg": the colimit is the f.g. group `fg_part`.
    tag "localized_free": the increasing union of M^{-t} Z^r inside Q^r for
    the injective r x r matrix M = `loc_matrix`.
    tag "extension": finite `sub` by free/localized `quot`; `resolved` is
    True when the extension is a known direct sum, and `unresolved` is
    True for an extension that is not.
    """

    _fields = ("tag", "fg_part", "loc_matrix", "sub", "quot", "resolved")

    @classmethod
    def finite(cls, group: FGAbelianGroup) -> "ColimitDescription":
        return cls(TAG_FINITE, group, None, None, None, None)

    @classmethod
    def localized(cls, matrix: IntMatrix) -> "ColimitDescription":
        if not matrix.is_square():
            raise IncompatibleShapesError("localized tower needs a square matrix")
        if _charpoly_at_zero(matrix) == 0:
            raise ValueError("localized tower needs an injective matrix")
        return cls(TAG_LOCALIZED, None, matrix, None, None, None)

    @classmethod
    def extension(cls, sub: "ColimitDescription", quot: "ColimitDescription",
                  resolved: bool) -> "ColimitDescription":
        return cls(TAG_EXTENSION, None, None, sub, quot, resolved)

    # -- structure queries ---------------------------------------------------

    @property
    def unresolved(self) -> bool:
        """Whether this is an extension whose class is left open."""
        return self.tag == TAG_EXTENSION and not self.resolved

    def localized_diagonal(self) -> tuple[int, ...] | None:
        """Multipliers (m1, ..., mr) when the tower matrix is similar over Z
        to a diagonal matrix, else None.

        The eigen-search runs once per description; its result is kept on
        the instance (the fields stay frozen)."""
        if self.tag != TAG_LOCALIZED:
            return None
        if "_diagonal" not in self.__dict__:
            object.__setattr__(self, "_diagonal", _similarity_diagonal(self.loc_matrix))
        return self.__dict__["_diagonal"]

    def signature(self):
        """(torsion group, rank-one multipliers), or None when the
        isomorphism class is undetermined; a copy of Z has multiplier 1."""
        if self.tag == TAG_FINITE:
            return (self.fg_part.torsion_part(), (1,) * self.fg_part.free_rank)
        if self.tag == TAG_LOCALIZED:
            diag = self.localized_diagonal()
            if diag is None:
                return None
            return (FGAbelianGroup.trivial(), diag)
        if self.tag == TAG_EXTENSION and self.resolved:
            a, b = self.sub.signature(), self.quot.signature()
            if a is None or b is None:
                return None
            return (direct_sum(a[0], b[0]), a[1] + b[1])
        return None

    def isomorphic(self, other: "ColimitDescription") -> bool | None:
        """True/False when both sides are determined, None otherwise.

        Z[1/a] and Z[1/b] are isomorphic when a and b have the same prime
        support, i.e. bracket(a, b) == bracket(b, a) == 1; that is an
        equivalence relation, so greedy matching of multipliers is exact."""
        a, b = self.signature(), other.signature()
        if a is None or b is None:
            return None
        if a[0] != b[0] or len(a[1]) != len(b[1]):
            return False
        unmatched = list(b[1])
        for m in a[1]:
            match = next((k for k in unmatched if bracket(m, k) == bracket(k, m) == 1), None)
            if match is None:
                return False
            unmatched.remove(match)
        return True

    def __str__(self) -> str:
        if self.tag == TAG_FINITE:
            return str(self.fg_part)
        if self.tag == TAG_LOCALIZED:
            diag = self.localized_diagonal()
            if diag is None:
                return f"colim(Z^{self.loc_matrix.rows}, {self.loc_matrix})"
            return _format_localized_terms(diag)
        if self.resolved:
            return f"{self.sub} + {self.quot}"
        return f"extension 0 -> {self.sub} -> ? -> {self.quot} -> 0 (unresolved)"


def _format_localized_terms(diag: tuple[int, ...]) -> str:
    if not diag:
        return "0"
    terms: list[str] = []
    for m in diag:
        terms.append("Z" if m == 1 else f"Z[1/{m}]")
    out = []
    i = 0
    while i < len(terms):
        j = i
        while j < len(terms) and terms[j] == terms[i]:
            j += 1
        out.append(terms[i] if j - i == 1 else f"{terms[i]}^{j - i}")
        i = j
    return " + ".join(out)


def bracket(a: int, b: int) -> int:
    """Largest divisor of b coprime to a: b with every prime factor of a
    stripped out.

    >>> bracket(2, 6)
    3
    >>> bracket(6, 360)
    5
    """
    if a <= 0 or b <= 0:
        raise ValueError("undefined bracket argument")
    c = b
    while (g := gcd(c, a)) > 1:
        c //= g
    return c


def _similarity_diagonal(m: IntMatrix) -> tuple[int, ...] | None:
    """diag(m1,...,mr) with P M P^-1 diagonal for unimodular P, or None.

    The search runs block by block (`_blocks_of`).  Once the coordinates
    are grouped into blocks B, Z^n is the direct sum of the Z^B as
    Z[M]-modules, so the saturated eigenlattice of lam, Z^n meet E_lam, is
    the direct sum of the blocks' Z^B meet E_lam^B; M is diagonalizable
    over Z exactly when every block is, and its multipliers are the union
    of theirs, as det(xI - M) is the product of the blocks'.  A 1 x 1
    block is its own answer, or None when its entry is 0.  Each block
    starts from its own slice of the start vector (1, 2, ..., n): on the
    block of a simple root, the whole matrix's product (see
    `_block_diagonal`) is the block's product times an invertible factor,
    so the root is missed in its block exactly when the whole-matrix
    search would miss it.  Multipliers are returned as absolute values,
    sorted (the tower only depends on |m|).  Singular matrices give None.

    >>> _similarity_diagonal(IntMatrix.from_rows([[2, 0, 1], [0, 5, 0], [0, 0, 3]]))
    (2, 3, 5)
    >>> _similarity_diagonal(IntMatrix.from_rows([[2, 0, 1], [0, 5, 0], [0, 0, 2]])) is None
    True
    """
    found: list[int] = []
    for indices, block in _blocks_of(m):
        diagonal = _block_diagonal(block, [i + 1 for i in indices])
        if diagonal is None:
            return None
        found += diagonal
    return tuple(sorted(found))


def _block_diagonal(m: IntMatrix, start: list[int]) -> list[int] | None:
    """The multipliers of one block M, unsorted, or None, searched from
    the start vector x = `start`.

    M is diagonalizable over Z exactly when its characteristic polynomial f
    splits over Z and the saturated eigenlattices sum to the full lattice,
    i.e. the assembled eigenbasis is unimodular.  f is the polynomial kept
    with the matrix (`_charpoly_of`); its integer roots are those of its
    square-free part, found by Hensel lifting (`_integer_roots`), and their
    multiplicities by division of f.  When the multiplicities sum to less
    than n, f does not split and no eigenvector is computed.

    Over Q, M is then diagonalizable exactly when the product of M - mu I
    over its distinct roots mu is zero.  So for a simple root lam, the
    vector v = prod_{mu != lam} (M - mu I) x either has (M - lam I) v = 0,
    and v divided by its content spans the saturated eigenlattice, or M is
    not diagonalizable and the answer is None.  `_projections` takes these
    products for all roots at once.  (v is zero when x is orthogonal to the
    row of P^-1 for lam, and the root is then missed.)  A repeated root,
    and a missed simple root, takes its eigenlattice from one Hermite-form
    kernel.
    """
    n = m.rows
    if n == 1:
        return [abs(m[0, 0])] if m[0, 0] else None
    f = _charpoly_of(m)
    if f[0] == 0:
        return None
    multiplicities = {}
    for root in _integer_roots(_squarefree_part(f)):
        k = 0
        quotient, rest = _poly_divmod(f, [-root, 1])
        while not rest:
            f, k = quotient, k + 1
            quotient, rest = _poly_divmod(f, [-root, 1])
        multiplicities[root] = k
    if sum(multiplicities.values()) < n:
        return None
    simple = {lam for lam, k in multiplicities.items() if k == 1}
    projected = _projections(m.entries, list(multiplicities), simple, start)
    columns: list[tuple[int, ...]] = []
    for lam, k in multiplicities.items():
        v = projected.get(lam)
        if v is not None and any(v):
            if any(sum(map(mul, row, v)) != lam * x for row, x in zip(m.entries, v)):
                return None
            content = gcd(*v)
            columns.append(tuple(x // content for x in v))
            continue
        shifted = tuple(row[:i] + (row[i] - lam,) + row[i + 1:]
                        for i, row in enumerate(m.entries))
        eig = integer_kernel_basis(IntMatrix(n, n, shifted))
        if len(eig) != k:
            return None
        columns += eig
    basis = IntMatrix.from_rows([[col[i] for col in columns] for i in range(n)], cols=n)
    if abs(basis.determinant()) != 1:
        return None
    return [abs(lam) for lam, k in multiplicities.items() for _ in range(k)]


def _blocks_of(m: IntMatrix) -> list[tuple[range | list[int], IntMatrix]]:
    """The diagonal blocks of a square M, as (coordinates, block) pairs,
    found once per matrix and kept on it, as `_charpoly_of` keeps f.

    The blocks are the connected components of the graph on the
    coordinates with an edge i - j whenever m_ij or m_ji is nonzero, i != j.
    Each is invariant under M, so M is their direct sum after the
    permutation that lists them in turn.  The scan takes row i and column i
    for i = 0, 1, ..., merges components along their nonzero entries, and
    stops once one component is left, so a dense matrix is settled within
    its first few rows; a matrix of one block is returned as itself.
    """
    if "_blocks" not in m.__dict__:
        object.__setattr__(m, "_blocks", _split(m.entries))
    return m.__dict__["_blocks"] or [(range(m.rows), m)]


def _split(entries) -> list[tuple[list[int], IntMatrix]] | None:
    """The blocks of `_blocks_of`, or None for a single block."""
    n = len(entries)
    label = list(range(n))
    members = {i: [i] for i in range(n)}
    for i, (row, column) in enumerate(zip(entries, zip(*entries))):
        a = label[i]
        for j in {*compress(range(n), row), *compress(range(n), column)}:
            b = label[j]
            if a != b:  # merge the smaller component into the larger
                if len(members[a]) < len(members[b]):
                    a, b = b, a
                moved = members.pop(b)
                for k in moved:
                    label[k] = a
                members[a] += moved
                if len(members) == 1:
                    return None
    if len(members) < 2:
        return None
    blocks = []
    for indices in sorted(map(sorted, members.values())):
        block = IntMatrix._of_checked_rows(
            len(indices), tuple(tuple(entries[i][j] for j in indices) for i in indices))
        object.__setattr__(block, "_blocks", None)
        blocks.append((indices, block))
    return blocks


def _projections(rows, roots: list[int], wanted: set[int], x) -> dict[int, list[int]]:
    """prod_{mu != lam} (M - mu I) x over the roots mu, for each lam in
    `wanted`, where `rows` are the rows of M.

    The root list is halved, and each half is entered with x already
    multiplied by the other half's factors, so r roots take about
    r log2(r) matrix-vector products instead of r (r - 1).  Halves with no
    wanted root are skipped.
    """
    out: dict[int, list[int]] = {}

    def times(mus: list[int], y: list[int]) -> list[int]:  # prod (M - mu I) y
        for mu in mus:
            y = [sum(map(mul, row, y)) - mu * c for row, c in zip(rows, y)]
        return y

    def descend(part: list[int], y: list[int]) -> None:
        if wanted.isdisjoint(part):
            return
        if len(part) == 1:
            out[part[0]] = y
            return
        half = len(part) // 2
        descend(part[:half], times(part[half:], y))
        descend(part[half:], times(part[:half], y))

    descend(roots, list(x))
    return out


# Polynomials are coefficient lists, constant term first.

# Exponents e of Mersenne primes 2^e - 1.  Each is a field for the
# Hessenberg reduction, and distinct ones are pairwise coprime, since
# gcd(2^a - 1, 2^b - 1) = 2^gcd(a, b) - 1.  The order is free, and 127
# comes first, so that one pass covers every bound below 2^126.
_MERSENNE_EXPONENTS = (127, 107, 89, 61, 521, 607, 1279, 2203, 2281, 3217, 4253,
                       4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
                       110503, 132049, 216091, 756839, 859433, 1257787, 1398269,
                       2976221, 3021377, 6972593, 13466917)


def _mersenne_primes():
    return ((1 << e) - 1 for e in _MERSENNE_EXPONENTS)


def _symmetric(c: int, p: int) -> int:
    return c - p if 2 * c > p else c


def _charpoly(m: IntMatrix) -> list[int]:
    """det(xI - M) for a square M.

    The coefficient of x^(n-k) is a signed sum of the k x k principal
    minors, so by Hadamard's bound it is at most prod(1 + |row_i|) in
    absolute value.  The polynomial is read off a Hessenberg form modulo
    Mersenne primes until their product passes twice that bound, then
    recovered by CRT and symmetric residues (Cohen, GTM 138, 2.2.4).  The
    colimit layer takes it of single blocks only (`_blocks_of`); a caller
    that reads f(0) alone takes `_charpoly_at_zero`.

    >>> _charpoly(IntMatrix.from_rows([[2, 1], [0, 3]]))
    [6, -5, 1]
    >>> _charpoly(IntMatrix.from_rows([[0, 2], [3, 0]]))
    [-6, 0, 1]
    >>> _charpoly(IntMatrix.from_rows([[0, 0, 2], [0, 5, 0], [3, 0, 0]]))  # (x^2 - 6)(x - 5)
    [30, -6, -5, 1]
    """
    bound = 1
    for row in m.entries:
        bound *= isqrt(sum(x * x for x in row)) + 2
    coeffs, modulus = [0] * (m.rows + 1), 1
    for p in _mersenne_primes():
        inv = pow(modulus, -1, p)
        coeffs = [c + modulus * ((r - c) * inv % p)
                  for c, r in zip(coeffs, _charpoly_mod(m.entries, p))]
        modulus *= p
        if modulus > 2 * bound:
            return [_symmetric(c, modulus) for c in coeffs]
    raise ValueError("characteristic polynomial too large for the CRT moduli")


def _charpoly_of(m: IntMatrix) -> list[int]:
    """`_charpoly(m)`, computed once per matrix and kept on it (its fields
    stay frozen), so that a block's injectivity test, |det| and
    eigen-search share one polynomial.  Callers must not change the list."""
    if "_charpoly" not in m.__dict__:
        object.__setattr__(m, "_charpoly", _charpoly(m))
    return m.__dict__["_charpoly"]


def _charpoly_at_zero(m: IntMatrix) -> int:
    """f(0) = det(-M) for the characteristic polynomial f of a square M:
    the product of f_B(0) over its blocks B (`_blocks_of`), each read off
    the block's kept polynomial, which the eigen-search reads too.

    >>> _charpoly_at_zero(IntMatrix.from_rows([[0, 0, 2], [0, 5, 0], [3, 0, 0]]))
    30
    """
    return prod(_charpoly_of(block)[0] for _, block in _blocks_of(m))


def _charpoly_mod(entries, p: int) -> list[int]:
    """det(xI - M) modulo the prime p: reduce M to upper Hessenberg form H
    by similarity, then p_k = (x - h_kk) p_{k-1} - sum_i h_{k-i,k}
    (h_{k,k-1} ... h_{k-i+1,k-i}) p_{k-i-1} over the leading blocks."""
    n = len(entries)
    h = [[x % p for x in row] for row in entries]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = pow(h[j + 1][j], -1, p)
        top = h[j + 1]
        # rows k -= u_k * row j+1, then column j+1 += sum u_k * column k
        us = [h[k][j] * inv % p for k in range(j + 2, n)]
        for k, u in enumerate(us, j + 2):
            if u:
                h[k] = [(a - u * b) % p for a, b in zip(h[k], top)]
        for row in h:
            row[j + 1] = (row[j + 1] + sum(map(mul, us, row[j + 2:]))) % p
    polys = [[1]]
    for k in range(n):
        cur = [0] + polys[k]
        for i, c in enumerate(polys[k]):
            cur[i] -= h[k][k] * c
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            coef = t * h[i][k] % p
            for l, c in enumerate(polys[i]):
                cur[l] -= coef * c
        polys.append([c % p for c in cur])
    return polys[n]


def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b over GF(p), a nonzero there.

    >>> _poly_gcd_mod([-1, 0, 1], [1, 1], 7)
    [1, 1]
    """
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        d = len(b) - 1
        for k in range(len(a) - 1, d - 1, -1):
            q = a[k] * inv % p
            if q:
                for i, c in enumerate(b):
                    a[k - d + i] = (a[k - d + i] - q * c) % p
        a, b = b, _trim(a[:d])
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic b over Z.

    >>> _poly_divmod([-6, 1, 1], [-2, 1])
    ([3, 1], [])
    """
    a = list(a)
    d = len(b) - 1
    q = [0] * max(len(a) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + d]
        if c:
            for i, e in enumerate(b):
                a[k + i] -= c * e
    return q, _trim(a[:d])


def _horner(f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _derivative(f: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(f)][1:]


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') for a monic f over Z.

    The gcd is taken modulo a Mersenne prime and lifted; since f is monic,
    the gcd mod p has at least the true degree, so a lift that divides f
    and f' over Z is the true gcd.  Otherwise the next prime is tried.

    >>> _squarefree_part([-12, 16, -7, 1])  # (x - 2)^2 (x - 3)
    [6, -5, 1]
    """
    df = _derivative(f)
    for p in _mersenne_primes():
        g = [_symmetric(c, p) for c in _poly_gcd_mod(f, df, p)]
        quotient, rest = _poly_divmod(f, g)
        if not rest and not _poly_divmod(df, g)[1]:
            return quotient
    raise ValueError("square-free part too large for the CRT moduli")


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of a monic square-free g with g(0) != 0.

    Picks a small prime q with g mod q square-free, lifts each root mod q
    by Newton/Hensel until the modulus passes 2|g(0)| (an integer root
    divides g(0)), and keeps the lifts that are roots over Z.

    >>> _integer_roots([6, -5, 1])
    [2, 3]
    >>> _integer_roots([-6, 0, 1])
    []
    """
    dg = _derivative(g)
    q = 2
    while len(_poly_gcd_mod(g, dg, q)) > 1:  # g mod q has a repeated factor
        q = next(r for r in count(q + 1) if all(r % d for d in range(2, isqrt(r) + 1)))
    bound = 2 * abs(g[0])
    roots = []
    for x in range(q):
        if _horner(g, x) % q:
            continue
        modulus = q
        while modulus <= bound:
            modulus *= modulus
            x = (x - _horner(g, x) * pow(_horner(dg, x), -1, modulus)) % modulus
        root = _symmetric(x, modulus)
        if _horner(g, root) == 0:
            roots.append(root)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def _stable_kernel(problem: DilationProblem
                   ) -> tuple[FGAbelianGroup, list[tuple[int, ...]]]:
    """The eventual kernel and its inclusion's columns as generators: the
    kernel of f^max(1, 2a) for the first a in 0, 1, 2, 4, ... where f^a
    kills it, since the chain only grows and so has stabilized there.  On
    a free base, f(0) != 0 for the characteristic polynomial f of the
    matrix means f is injective, so no kernel is taken."""
    base, f = problem.base, problem.endo
    if base.is_free and _charpoly_at_zero(f.matrix):
        return FGAbelianGroup.trivial(), []
    power, nxt = GroupHom.identity(base), f
    while True:
        group, inclusion = kernel(nxt)
        gens = [inclusion.matrix.column(j) for j in range(group.num_generators)]
        if all(element_is_zero(base, power.matrix.apply(g)) for g in gens):
            return group, gens
        power, nxt = nxt, nxt @ nxt


def eventual_kernel(problem: DilationProblem) -> tuple[FGAbelianGroup, int]:
    """The union of ker(f^t) in canonical form, and the stabilization
    index: the least t with f^t killing the union.

    >>> z = FGAbelianGroup.cyclic(2**65)
    >>> eventual_kernel(DilationProblem(z, GroupHom.multiplication(z, 2)))
    (FGAbelianGroup(free_rank=0, invariant_factors=(36893488147419103232,)), 65)
    """
    group, gens = _stable_kernel(problem)
    t_star, alive = 0, [g for g in map(problem.base.reduce, gens) if any(g)]
    while alive:
        alive = [g for g in map(problem.endo.apply, alive) if any(g)]
        t_star += 1
    return group, t_star


def _injective_quotient(problem: DilationProblem) -> tuple[FGAbelianGroup, GroupHom]:
    """Quotient by the eventual kernel, with the induced injective map.  Its
    free rows H are in reduced row Hermite form, which the lattice alone
    fixes, so the free block H M R is the same for every right inverse R."""
    base = problem.base
    _, gens = _stable_kernel(problem)
    if not gens:  # nothing to quotient by: the base is already canonical
        return base, problem.endo
    rows = base.relation_rows().vstack(
        IntMatrix.from_rows(gens, cols=base.num_generators))
    quotient, projection, lift = _quotient_with_maps(base.num_generators, rows)
    t = quotient.torsion_count
    # H = W B for the free rows B; the free lift columns L become L W^{-1}
    h, _, w_inv = _row_hermite([list(row) for row in projection.entries[t:]], None,
                               _identity_rows(quotient.free_rank))
    projection = IntMatrix.from_rows(projection.entries[:t] + tuple(h), base.num_generators)
    lift = IntMatrix.from_rows([row[:t] + tuple(sum(map(mul, row[t:], col)) for col in w_inv)
                                for row in lift.entries], quotient.num_generators)
    induced = GroupHom(quotient, quotient, projection @ problem.endo.matrix @ lift)
    return quotient, induced


def _equivariant_complement_exists(group: FGAbelianGroup, torsion_map: IntMatrix,
                                   mixing: IntMatrix, free_map: IntMatrix) -> bool:
    """Whether the free part admits an invariant complement: whether
    A u - u D = -B for some torsion x free matrix u with row i in Z/d_i.
    Those matrices form the canonical group with factors d_i repeated r
    times (entry (i, l) at coordinate i r + l), u -> A u - u D is an
    endomorphism of it, and B (in its image exactly when -B is) must
    vanish in its cokernel."""
    t, r = group.torsion_count, group.free_rank
    matrices = FGAbelianGroup(0, tuple(d for d in group.invariant_factors for _ in range(r)))
    phi = [[0] * (t * r) for _ in range(t * r)]
    for i in range(t):
        for l in range(r):
            for k in range(t):
                phi[i * r + l][k * r + l] += torsion_map[i, k]
            for k in range(r):
                phi[i * r + l][i * r + k] -= free_map[k, l]
    coker, projection = cokernel(GroupHom(matrices, matrices, IntMatrix.from_rows(phi)))
    return element_is_zero(coker, projection.apply([x for row in mixing.entries for x in row]))


def _free_colimit(free_map: IntMatrix) -> ColimitDescription:
    """colim(Z^r, M) for an injective M: Z^r itself when |det M| = 1, else
    the localized tower.  |det M| = |f(0)| for the characteristic
    polynomial f, read off the blocks' kept polynomials, as the tower's
    injectivity check reads it."""
    if abs(_charpoly_at_zero(free_map)) == 1:
        return ColimitDescription.finite(FGAbelianGroup.free(free_map.rows))
    return ColimitDescription.localized(free_map)


def _classify_injective(group: FGAbelianGroup, endo: GroupHom) -> ColimitDescription:
    t, r = group.torsion_count, group.free_rank
    if r == 0:
        return ColimitDescription.finite(group)
    m = endo.matrix
    if t == 0:
        return _free_colimit(m)
    torsion_map = m.select_rows(range(t)).select_columns(range(t))
    mixing = m.select_rows(range(t)).select_columns(range(t, t + r))
    free_map = m.select_rows(range(t, t + r)).select_columns(range(t, t + r))
    quot = _free_colimit(free_map)
    split = _equivariant_complement_exists(group, torsion_map, mixing, free_map)
    if split and quot.tag == TAG_FINITE:
        return ColimitDescription.finite(group)
    sub = ColimitDescription.finite(group.torsion_part())
    return ColimitDescription.extension(sub, quot, resolved=split)


def classify_colimit(problem: DilationProblem) -> ColimitDescription:
    """Classify colim(G, f).

    Quotienting by the eventual kernel leaves an injective system with the
    same colimit; injective endomorphisms of finite groups are automorphisms,
    injective free systems give localized towers, and mixed groups split when
    an invariant free complement exists.
    """
    quotient, induced = _injective_quotient(problem)
    return _classify_injective(quotient, induced)


def ker_coker_one_minus(problem: DilationProblem
                        ) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """Kernel and cokernel of (1 - fbar) on the colimit, as plain groups.

    Filtered colimits are exact, so ker(1 - fbar) = colim(ker(1 - f), f) and
    coker(1 - fbar) = colim(coker(1 - f), induced f).  f fixes ker(1 - f)
    pointwise, and induces the identity on coker(1 - f), since
    f(x) = x - (1 - f)(x); so both towers are constant, and each end is the
    level-zero group itself.
    """
    one_minus = GroupHom.identity(problem.base) - problem.endo
    return kernel(one_minus)[0], cokernel(one_minus)[0]
