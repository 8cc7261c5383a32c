"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports kdilate.  Invariant factors come from a Smith form
taken over Z/D, where D is a nonzero maximal minor found by fraction-free
(Bareiss) elimination, so no entry ever exceeds D; ranks and determinants
come from the same elimination; the graph checks work on the benchmark's
own strongly connected components and their down-sets.
"""

from __future__ import annotations

from math import gcd


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, |nonzero rank x rank minor|) by fraction-free elimination with
    full pivoting; the minor is 1 for the zero matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    prev, rank = 1, 0
    for k in range(min(m, n)):
        pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if a[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        a[k], a[i] = a[i], a[k]
        for r in a:
            r[k], r[j] = r[j], r[k]
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
        rank += 1
    return rank, abs(prev)


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square matrix (Bareiss, with row-swap signs)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][k]), None)
        if i is None:
            return 0
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b); (1, 0, a) when a divides b."""
    if a and b % a == 0:
        return 1, 0, a
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def _chain(orders: list[int]) -> list[int]:
    """Invariant-factor chain of a direct sum of cyclic groups of the given
    orders (0 for Z), by repeated (gcd, lcm) exchanges."""
    out = sorted(orders, key=lambda d: (d == 0, d))
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            a, b = out[i], out[j]
            g = gcd(a, b)
            out[i], out[j] = g, (a * b // g if g else 0)
    return out


def group_of(relations: list[list[int]], generators: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of Z^generators modulo the rows."""
    rows = [list(r) for r in relations if any(r)]
    rank, minor = bareiss(rows) if rows else (0, 1)
    d = minor
    factors: list[int] = []
    if d > 1:
        a = [[x % d for x in r] for r in rows]
        m, n = len(a), generators
        for t in range(min(m, n)):
            pivot = next(((i, j) for i in range(t, m) for j in range(t, n) if a[i][j]), None)
            if pivot is None:
                break
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            while True:
                for i in range(t + 1, m):
                    if a[i][t]:
                        x, y, g = _egcd(a[t][t], a[i][t])
                        p, q = a[t][t] // g, a[i][t] // g
                        rt, ri = a[t], a[i]
                        a[t] = [(x * u + y * v) % d for u, v in zip(rt, ri)]
                        a[i] = [(p * v - q * u) % d for u, v in zip(rt, ri)]
                for j in range(t + 1, n):
                    if a[t][j]:
                        x, y, g = _egcd(a[t][t], a[t][j])
                        p, q = a[t][t] // g, a[t][j] // g
                        for r in a:
                            u, v = r[t], r[j]
                            r[t], r[j] = (x * u + y * v) % d, (p * v - q * u) % d
                if not any(a[i][t] for i in range(t + 1, m)):
                    break
            factors.append(gcd(a[t][t], d))
        factors += [d] * (generators - len(factors))
        factors = _chain(factors)[:rank]
    return generators - rank, tuple(f for f in factors if f > 1)


def char_poly_zero_multiplicity(m: list[list[int]]) -> int:
    """Multiplicity of 0 as a root of det(xI - m) (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [1]  # coefficients of x^n, x^(n-1), ...
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        am = matmul(m, mk)
        mk = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        amk = matmul(m, mk)
        coeffs.append(-sum(amk[i][i] for i in range(n)) // k)
    zeros = 0
    while zeros < n and coeffs[n - zeros] == 0:
        zeros += 1
    return zeros


def bracket(a: int, b: int) -> int:
    """b with every prime factor of a removed."""
    while (g := gcd(b, a)) > 1:
        b //= g
    return b


def canonical(free_rank: int, orders) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors > 1) of Z^free_rank + sum of Z/orders."""
    return free_rank, tuple(d for d in _chain([o for o in orders if o != 1]) if d > 1)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def condensation(adjacency: list[list[int]]):
    """(components sorted by smallest vertex, reach sets between components).

    reach[c] holds every component that component c reaches by a path of
    length at least one, c itself excluded."""
    n = len(adjacency)
    out = [[w for w in range(n) if row[w]] for row in adjacency]
    reach_v = []
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach_v.append(seen)
    comps: list[list[int]] = []
    comp_of = {}
    for v in range(n):
        if v in comp_of:
            continue
        comp = sorted(w for w in reach_v[v] if v in reach_v[w])
        for w in comp:
            comp_of[w] = len(comps)
        comps.append(comp)
    reach = [frozenset(comp_of[w] for w in reach_v[c[0]]) - {i} for i, c in enumerate(comps)]
    return comps, reach


def down_sets(reach: list[frozenset]) -> list[int]:
    """Every set of components closed under reachability, as bitmasks."""
    k = len(reach)
    need = [sum(1 << r for r in reach[c]) for c in range(k)]
    found, frontier = {0}, [0]
    while frontier:
        d = frontier.pop()
        for c in range(k):
            if not d >> c & 1 and need[c] & ~d == 0:
                e = d | 1 << c
                if e not in found:
                    found.add(e)
                    frontier.append(e)
    return sorted(found)


def count_down_sets(reach: list[frozenset]) -> int:
    """len(down_sets(reach)) without listing them: a down-set inside S
    either avoids x, and so everything that reaches x, or holds everything
    x reaches."""
    k = len(reach)
    below = [sum(1 << r for r in reach[c]) | 1 << c for c in range(k)]
    above = [sum(1 << c for c in range(k) if x in reach[c]) | 1 << x for x in range(k)]
    memo = {0: 1}

    def count(s: int) -> int:
        if s not in memo:
            x = (s & -s).bit_length() - 1
            memo[s] = count(s & ~above[x]) + count(s & ~below[x])
        return memo[s]
    return count((1 << k) - 1)


def prim_covers(reach: list[frozenset]) -> set[tuple[int, int]]:
    """(lower, upper) pairs of the transitive reduction of reachability."""
    covers = set()
    for upper, below in enumerate(reach):
        for lower in below:
            if not any(lower in reach[mid] for mid in below if mid != lower):
                covers.add((lower, upper))
    return covers
