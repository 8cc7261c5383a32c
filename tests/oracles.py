"""Independent brute-force oracles and random generators for the tests.

Nothing here goes through the package's Smith normal form: group structure
is recovered from torsion-element counts, Smith diagonals from gcds of
minors, vertex-set families from exhaustive subset scans, poset covers
from their definition, characteristic polynomials by Faddeev-LeVerrier,
and JSON text from the standard library's encoder.  That keeps the
dual-route checks honest.  Three exceptions are earlier package routes,
each kept as the reference for its replacement through a route the
replacement no longer uses: `divisor_search_diagonal`, the colimit layer's
integer-eigenvalue search, takes eigenlattices from the Smith form's V,
`kernel_via_smith_lattice` takes a kernel from four Smith forms, the
first in `smith_kernel_generators` and one in `unimodular_inverse`, and
`eventual_kernel_step_by_step` walks the kernel chain one power at a time.
`reference_parser` is the CLI's argparse parser written out call by call,
as it stood before the CLI declared its grammar in one table, and
`reference_load_graph` is the CLI's graph loader as it stood before it
read adjacency rows in bulk: `json.loads` and the same checks.
"""

import argparse
import contextlib
import io
import json
from fractions import Fraction
from functools import reduce
from itertools import combinations, count, product
from math import gcd, prod

from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    _quotient_with_maps,
    direct_sum,
    element_is_zero,
    smith_normal_form,
    unimodular_inverse,
)
from kdilate.cli import InputError, _as_matrix, _check_fields
from kdilate.graph_commands import VertexSets
from kdilate.graphalg import Graph


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def cofactor_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def smith_diagonal_by_divisors(rows: list[list[int]], ncols: int) -> list[int]:
    """Smith diagonal via determinantal divisors: s_k = d_k / d_{k-1} where
    d_k is the gcd of all k x k minors."""
    nrows = len(rows)
    diag = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        dk = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                dk = gcd(dk, cofactor_det([[rows[i][j] for j in ci] for i in ri]))
        if dk == 0:
            diag.append(0)
            prev = 0
        else:
            diag.append(dk // prev)
            prev = dk
    return diag


def rank_over_q(rows: list[list[int]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def lattice_member_by_residues(rows: list[list[int]], vector: list[int]) -> bool:
    """Whether vector lies in the lattice L spanned by rows, with no Smith
    form.  L has index e = d_r, the gcd of its r x r minors (r its rank), in
    its saturation S, the integer points of its rational span; so eS lies
    in L, and vector is in L exactly when it is in that span and its
    residue mod e lies in the subgroup the rows generate in (Z/e)^n, found
    by closing {0} under adding each row."""
    r = rank_over_q(rows)
    if rank_over_q(rows + [vector]) != r:
        return False
    e = 0
    for ri in combinations(range(len(rows)), r):
        for ci in combinations(range(len(vector)), r):
            e = gcd(e, cofactor_det([[rows[i][j] for j in ci] for i in ri]))
    residues = [tuple(x % e for x in row) for row in rows]
    zero = (0,) * len(vector)
    seen, frontier = {zero}, [zero]
    while frontier:
        point = frontier.pop()
        for row in residues:
            step = tuple((a + b) % e for a, b in zip(point, row))
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return tuple(x % e for x in vector) in seen


def _invariants_from_counts(total: int, count_p_torsion) -> tuple[int, ...]:
    """Recover invariant factors of a finite abelian group of the given order
    from n_j = count_p_torsion(p, j), the number of elements killed by p^j."""
    if total == 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in prime_factors(total):
        counts = [1]
        while True:
            nj = count_p_torsion(p, len(counts))
            if nj == counts[-1]:
                break
            counts.append(nj)
        cjs = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            e = 0
            while ratio % p == 0 and ratio > 1:
                ratio //= p
                e += 1
            cjs.append(e)  # number of cyclic p-parts with exponent >= j
        exponents = []
        for j, c in enumerate(cjs, start=1):
            following = cjs[j] if j < len(cjs) else 0
            exponents.extend([j] * (c - following))
        per_prime[p] = sorted(exponents, reverse=True)
    longest = max(len(v) for v in per_prime.values())
    factors = []
    for t in range(longest):
        f = 1
        for p, exps in per_prime.items():
            if t < len(exps):
                f *= p ** exps[t]
        factors.append(f)
    return tuple(sorted(factors))


def subgroup_invariant_factors(elements, ambient_orders) -> tuple[int, ...]:
    elements = list(elements)

    def count(p, j):
        pj = p ** j
        return sum(1 for x in elements
                   if all((v * pj) % d == 0 for v, d in zip(x, ambient_orders)))

    return _invariants_from_counts(len(elements), count)


def quotient_invariant_factors(ambient_orders, image) -> tuple[int, ...]:
    image = frozenset(tuple(x) for x in image)
    elements = list(product(*(range(d) for d in ambient_orders)))
    total = len(elements) // len(image)

    def count(p, j):
        pj = p ** j
        hits = sum(1 for x in elements
                   if tuple((v * pj) % d for v, d in zip(x, ambient_orders)) in image)
        return hits // len(image)

    return _invariants_from_counts(total, count)


def brute_one_minus_ker_coker(orders, action_rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Kernel and cokernel invariants of x -> x - f(x) on a finite group,
    by full enumeration."""
    orders = tuple(orders)
    n = len(orders)
    elements = list(product(*(range(d) for d in orders)))

    def one_minus(x):
        fx = [sum(action_rows[i][j] * x[j] for j in range(n)) for i in range(n)]
        return tuple((x[i] - fx[i]) % orders[i] for i in range(n))

    kernel_elements = [x for x in elements if all(v == 0 for v in one_minus(x))]
    image = {one_minus(x) for x in elements}
    return (subgroup_invariant_factors(kernel_elements, orders),
            quotient_invariant_factors(orders, image))


def _out_masks_by_scan(graph: Graph) -> list[int]:
    n = len(graph.vertices)
    return [sum(1 << j for j in range(n) if graph.rows[i][j] > 0) for i in range(n)]


def _is_hereditary_saturated_by_definition(outs: list[int], mask: int) -> bool:
    vertices = range(len(outs))
    hereditary = all(not (mask >> v & 1) or outs[v] & ~mask == 0 for v in vertices)
    saturated = all((mask >> v & 1) or outs[v] & ~mask != 0 for v in vertices)
    return hereditary and saturated


def brute_hereditary_saturated(graph: Graph) -> list[frozenset]:
    """All hereditary and saturated subsets by scanning all 2^|V| masks."""
    outs = _out_masks_by_scan(graph)
    n = len(outs)
    return [frozenset(graph.vertices[v] for v in range(n) if mask >> v & 1)
            for mask in range(1 << n) if _is_hereditary_saturated_by_definition(outs, mask)]


def random_graph_beside_a_path(rng, path_length: int) -> tuple[Graph, set[int]]:
    """A random_graph of at most 6 vertices, some edges from it into a
    looped path (each vertex with an edge to the next), on shuffled vertex
    order, with its family as masks.  The path part of a hereditary set is a suffix of the path,
    so the family comes from scanning every subset of the small graph with
    every suffix."""
    small = random_graph(rng, max_vertices=6)
    h = len(small.vertices)
    n = h + path_length
    rows = [[0] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            rows[i][j] = small.rows[i][j]
        for j in range(h, n):
            rows[i][j] = int(rng.random() < 0.05)
    for i in range(h, n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = 1
    perm = list(range(n))  # vertex i of the graph is vertex perm[i] above
    rng.shuffle(perm)
    graph = Graph([f"x{i}" for i in range(n)],
                                 [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    bit = [0] * n  # the bit of each vertex above in the graph
    for new, old in enumerate(perm):
        bit[old] = 1 << new
    suffixes = [sum(bit[start:]) for start in range(h, n + 1)]
    outs = _out_masks_by_scan(graph)
    family = set()
    for small_part in range(1 << h):
        inside = sum(b for v, b in enumerate(bit[:h]) if small_part >> v & 1)
        family.update(inside | suffix for suffix in suffixes
                      if _is_hereditary_saturated_by_definition(outs, inside | suffix))
    return graph, family


def reachable_sets(graph: Graph) -> list[set[int]]:
    """For each vertex, the vertices at the end of a path of length >= 1,
    by depth-first search over the adjacency matrix."""
    n = len(graph.vertices)
    out = []
    for start in range(n):
        seen: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                if graph.rows[v][w] > 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(seen)
    return out


def covers_by_definition(elements, less) -> set:
    """Covering pairs (a, b) of a finite order: a < b with nothing strictly
    between them."""
    return {(a, b) for a in elements for b in elements
            if less(a, b) and not any(less(a, c) and less(c, b) for c in elements)}


def poset_validation_error(elements, covers) -> str | None:
    """The message PosetDiagram raises for these covers, or None when it
    accepts them.  Transitive edges are found by definition: a depth-first
    search from each cover for a second route to its upper end."""
    elements = [str(e) for e in elements]
    covers = [(str(a), str(b)) for a, b in covers]
    known = set(elements)
    if len(known) != len(elements):
        return "duplicate poset elements"
    succ: dict[str, set[str]] = {e: set() for e in elements}
    for lower, upper in covers:
        if lower not in known or upper not in known:
            return f"cover ({lower}, {upper}) uses unknown elements"
        if lower == upper:
            return "covers must relate distinct elements"
        succ[lower].add(upper)
    indegree = {e: 0 for e in elements}
    for targets in succ.values():
        for t in targets:
            indegree[t] += 1
    queue = [e for e in elements if indegree[e] == 0]
    processed = 0
    while queue:
        node = queue.pop()
        processed += 1
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if processed != len(elements):
        return "cover relation contains a cycle"
    for lower, upper in covers:
        # acyclicity holds, so a second route to upper must skip the edge
        stack = [s for s in succ[lower] if s != upper]
        seen = set(stack)
        while stack:
            node = stack.pop()
            if node == upper:
                return f"cover ({lower}, {upper}) is a transitive edge"
            for nxt in succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return None


def birkhoff_covers(graph: Graph, limit: int | None = None) -> set | None:
    """Covering pairs of the lattice of hereditary sets of a graph whose
    every vertex lies on a cycle, by Birkhoff duality: the sets are the
    down-sets D of the component order (a component lies below those that
    reach it), and D is covered by D + C for each component C outside D
    that reaches only into D and itself.  Pairs of vertex sets; None as
    soon as there are more than `limit` down-sets."""
    n = len(graph.vertices)
    reach = reachable_sets(graph)
    components, placed = [], set()
    for v in range(n):
        if v not in placed:
            members = {v} | {w for w in reach[v] if v in reach[w]}
            placed |= members
            components.append(sum(1 << w for w in members))
    reaches = [sum(1 << w for w in set().union(*(reach[v] for v in range(n) if c >> v & 1)))
               for c in components]
    names = graph.vertices

    def vertex_set(mask):
        return frozenset(names[v] for v in range(n) if mask >> v & 1)

    covers, seen, frontier = set(), {0}, [0]
    while frontier:
        down = frontier.pop()
        for comp, comp_reach in zip(components, reaches):
            if comp & down or comp_reach & ~(down | comp):
                continue
            up = down | comp
            covers.add((vertex_set(down), vertex_set(up)))
            if up not in seen:
                seen.add(up)
                frontier.append(up)
                if limit is not None and len(seen) > limit:
                    return None
    return covers


def condition_k_failing_components(graph: Graph) -> list[frozenset]:
    """Cyclic components with as many internal edges, counted with
    multiplicity, as vertices: the bare cycles, where Condition (K) fails.
    Components by depth-first reachability, edges by summing the matrix."""
    reach = reachable_sets(graph)
    n = len(graph.vertices)
    components = {frozenset({v} | {w for w in reach[v] if v in reach[w]}) for v in range(n)}
    return [c for c in components
            if (len(c) > 1 or min(c) in reach[min(c)])
            and sum(graph.rows[v][w] for v in c for w in c) == len(c)]


def json_safe(obj):
    """The payload json.dumps can render: integers beyond 2^53 as decimal
    strings, tuples and the CLI's VertexSets views as lists (what the CLI's
    one-pass renderer writes for them)."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, VertexSets)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, int) and not isinstance(obj, bool) and abs(obj) > 2**53:
        return str(obj)
    return obj


def reference_load_graph(path: str) -> Graph:
    """The graph in a problem file, by json.loads and the CLI's checks,
    raising InputError with the CLI's text for anything wrong."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: problem file must be a JSON object")
    kind = doc.pop("kind", None)
    kinds = ["group_endo", "k_data", "cuntz", "graph"]
    if kind not in kinds:
        raise InputError(f"{path}: kind must be one of {kinds}, got {kind!r}")
    if kind != "graph":
        raise InputError(f"{path}: this subcommand expects kind 'graph', file has {kind!r}")
    _check_fields(doc, path, {"vertices", "adjacency"})
    vertices = doc["vertices"]
    if (not isinstance(vertices, list)
            or any(not isinstance(v, str) or not v for v in vertices)):
        raise InputError(f"{path}: vertices must be a list of nonempty strings")
    adjacency = _as_matrix(doc["adjacency"], f"{path}: adjacency",
                           cols=len(vertices), rows=len(vertices))
    try:
        return Graph(tuple(vertices), adjacency.entries)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def charpoly_faddeev_leverrier(rows: list[list[int]]) -> list[int]:
    """det(xI - M), constant term first, by Faddeev-LeVerrier: with
    N_1 = I, c_{n-k} = -tr(M N_k) / k (an exact division) and
    N_{k+1} = M N_k + c_{n-k} I."""
    n = len(rows)
    coeffs = [0] * n + [1]
    mn = [[0] * n for _ in range(n)]  # M N_k
    for k in range(1, n + 1):
        shifted = [[mn[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
                   for i in range(n)]
        mn = [[sum(rows[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
                    for i in range(n)]
        trace = sum(mn[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = -trace // k
    return coeffs


def divisor_search_diagonal(m: IntMatrix) -> tuple[int, ...] | None:
    """The colimit layer's earlier `_similarity_diagonal`, without its
    determinant cut-off: integer eigenvalues are searched among the
    divisors d of det(M), one Smith-form kernel per candidate +-d.  A
    singular M, diagonal or not, gives None."""
    n = m.rows
    if n == 0:
        return ()
    if all(m[i, j] == 0 for i in range(n) for j in range(n) if i != j):
        diagonal = [abs(m[i, i]) for i in range(n)]
        return tuple(sorted(diagonal)) if all(diagonal) else None
    det = abs(m.determinant())
    if det == 0:
        return None
    columns: list[tuple[int, ...]] = []
    values: list[int] = []
    for d in sorted(_divisors(det)):
        for lam in (d, -d):
            shifted = IntMatrix(n, n, tuple(row[:i] + (row[i] - lam,) + row[i + 1:]
                                            for i, row in enumerate(m.entries)))
            snf = smith_normal_form(shifted)
            for j in range(sum(map(bool, snf.diagonal())), n):
                columns.append(snf.V.column(j))
                values.append(lam)
        if len(columns) == n:
            break
    if len(columns) != n:
        return None
    basis = IntMatrix.from_rows([[col[i] for col in columns] for i in range(n)], cols=n)
    if abs(basis.determinant()) != 1:
        return None
    return tuple(sorted(abs(v) for v in values))


def smith_kernel_generators(f: GroupHom) -> list[tuple[int, ...]]:
    """Generators of {x in Z^n : f(x) = 0 in the codomain}: the domain
    parts of the kernel columns of V in the Smith form of
    [matrix | codomain relations], zero vectors dropped.  The colimit layer
    once quotiented by these, and printed its towers in the basis they
    gave."""
    n = f.domain.num_generators
    relations = f.codomain.relation_rows().transpose()
    combined = IntMatrix.from_rows([a + b for a, b in zip(f.matrix.entries, relations.entries)],
                                   cols=n + relations.cols)
    snf = smith_normal_form(combined)
    gens = (snf.V.column(j)[:n] for j in range(sum(map(bool, snf.diagonal())), combined.cols))
    return [g for g in gens if any(g)]


def kernel_via_smith_lattice(f: GroupHom) -> tuple[FGAbelianGroup, GroupHom]:
    """The abelian layer's earlier `kernel`, with its inclusion.

    The kernel lattice is spanned by the domain parts of the kernel columns
    of V in the Smith form of [matrix | codomain relations]; a second Smith
    form U L V = S of those generators L gives the basis U^{-1} diag(s),
    with U^{-1} from `unimodular_inverse`, and the coordinates of each
    domain relation by U; the kernel is the
    quotient of that basis by those coordinates.
    """
    domain, n = f.domain, f.domain.num_generators
    gens = smith_kernel_generators(f)
    lattice = smith_normal_form(IntMatrix.from_rows(gens, cols=n).transpose())
    diag = [d for d in lattice.diagonal() if d]
    rank = len(diag)
    columns = unimodular_inverse(lattice.U).select_columns(range(rank))
    basis = IntMatrix.from_rows([[x * d for x, d in zip(row, diag)] for row in columns.entries],
                                cols=rank)
    coords = []
    for row in domain.relation_rows().entries:
        w = lattice.U.apply(row)
        if any(w[rank:]) or any(x % d for x, d in zip(w, diag)):
            raise ValueError("lattice does not contain the domain relation lattice")
        coords.append([x // d for x, d in zip(w, diag)])
    group, _, lift = _quotient_with_maps(rank, IntMatrix.from_rows(coords, cols=rank))
    return group, GroupHom(group, domain, basis @ lift)


def eventual_kernel_step_by_step(base: FGAbelianGroup,
                                 f: GroupHom) -> tuple[FGAbelianGroup, int, GroupHom]:
    """The colimit layer's earlier eventual kernel, without its cap: for
    t = 0, 1, 2, ..., the generators of ker(f^(t+1)), until f^t kills them
    all.  Returns ker(f^t), by `kernel_via_smith_lattice`, that t, and f^t.
    """
    power = GroupHom.identity(base)
    for t in count():
        nxt = f @ power
        if all(element_is_zero(base, power.matrix.apply(g))
               for g in smith_kernel_generators(nxt)):
            return kernel_via_smith_lattice(power)[0], t, power
        power = nxt


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return out


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_matrix(rng, max_dim=8, max_entry=50) -> IntMatrix:
    r, c = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(c)] for _ in range(r)])


def random_unimodular(rng, n: int, steps: int = 12, max_factor: int = 3):
    """(P, P^-1) as row lists: a product of random elementary row
    additions, with its inverse built alongside."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([k for k in range(-max_factor, max_factor + 1) if k])
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]  # row i += c * row j
        for row in p_inv:  # column j -= c * column i
            row[j] -= c * row[i]
    return p, p_inv


def conjugate(p, middle, p_inv) -> IntMatrix:
    """P @ middle @ P^-1 for row lists."""
    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return IntMatrix.from_rows(mul(mul(p, middle), p_inv))


def random_finite_group(rng, max_order=10_000) -> FGAbelianGroup:
    orders, total = [], 1
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(2, 30)
        if total * d > max_order:
            break
        orders.append(d)
        total *= d
    if not orders:
        orders = [rng.randint(2, 50)]
    return reduce(direct_sum, map(FGAbelianGroup.cyclic, orders))


def random_group(rng, max_generators=4) -> FGAbelianGroup:
    """Canonical form of a direct sum of cyclic groups, free ones included."""
    orders = [rng.choice([0, 0, 2, 3, 4, 6, 8, 9, 12, 25])
              for _ in range(rng.randint(0, max_generators))]
    return reduce(direct_sum, map(FGAbelianGroup.cyclic, orders), FGAbelianGroup.trivial())


def random_endomorphism(rng, group: FGAbelianGroup) -> GroupHom:
    return random_hom(rng, group, group)


def random_hom(rng, domain: FGAbelianGroup, codomain: FGAbelianGroup) -> GroupHom:
    """Random well-defined homomorphism, uniform on finite groups: entry
    (i, j) must be a multiple of d_i / gcd(d_i, d_j) for a finite codomain
    order d_i, and zero for an infinite d_i and a finite d_j."""
    cod, dom = codomain.generator_orders(), domain.generator_orders()
    rows = [[(rng.randrange(di) * (di // gcd(di, dj))) % di if di
             else 0 if dj else rng.randint(-4, 4) for dj in dom] for di in cod]
    return GroupHom(domain, codomain, IntMatrix.from_rows(rows, cols=len(dom)))


def random_graph(rng, max_vertices=8, loops_everywhere=False) -> Graph:
    n = rng.randint(1, max_vertices)
    names = [f"w{i}" for i in range(n)]
    rows = [[rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
    if loops_everywhere:
        for i in range(n):
            rows[i][i] = max(1, rows[i][i])
    for i in range(n):
        if sum(rows[i]) == 0:
            rows[i][rng.randrange(n)] = 1
    return Graph(names, rows)


def random_sparse_graph(rng, max_vertices=10, p=0.1) -> Graph:
    """About half the vertices emit exactly two edges, to two other
    vertices, and have no loop; the rest have a loop and edges with
    probability p.  A vertex of the first kind can have its two edges land
    in two different closures, so that their join needs saturation."""
    n = rng.randint(1, max_vertices)
    rows = [[int(rng.random() < p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if len(others) >= 2 and rng.random() < 0.5:
            rows[i] = [0] * n
            for j in rng.sample(others, 2):
                rows[i][j] = 1
        else:
            rows[i][i] = 1
    return Graph([f"w{i}" for i in range(n)], rows)


def random_looped_graph(rng, n: int, p: float) -> Graph:
    """Loops (2 or 3) at every vertex, edges from a random DAG with edge
    probability p, and a few back edges that merge vertices into larger
    strongly connected pieces, on shuffled vertex names."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(2, 3)
        for j in range(i):
            if rng.random() < p:
                rows[i][j] = rng.randint(1, 2)
    for i in range(n):
        lower = [j for j in range(i) if rows[i][j]]
        if lower and rng.random() < 0.1:
            rows[rng.choice(lower)][i] = 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph([f"v{i}" for i in range(n)],
                                [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def random_dag_covers(rng, max_elements=12) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and the covering pairs of a random finite order: the
    transitive reduction of a random DAG on a shuffled element order."""
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    p = rng.choice((0.15, 0.3, 0.5))
    above = [0] * n  # names[j] above names[i] needs j > i
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                above[i] |= 1 << j | above[j]
    covers = []
    for i in range(n):
        beyond = 0
        for j in range(n):
            if above[i] >> j & 1:
                beyond |= above[j]
        covers.extend((names[i], names[j]) for j in range(n)
                      if (above[i] & ~beyond) >> j & 1)
    rng.shuffle(covers)
    return sorted(names), covers


_EDGE_INTS = (2**53 + 1, -(2**53 + 1), 2**53, -(2**53), 2**53 - 1, 0, 1, -1, 10**40)
_EDGE_STRINGS = ("", "ok", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
                 "Z[1/3] \u2295 Z/2", "caf\u00e9", "\U0001f600", "\ud800", "/", "{v1,v2}")


def _random_string(rng) -> str:
    if rng.random() < 0.5:
        return rng.choice(_EDGE_STRINGS)
    return "".join(rng.choice(_EDGE_STRINGS) for _ in range(rng.randint(0, 3)))


def random_payload(rng, depth: int = 4):
    """A nested payload of dicts, lists, tuples, lists of strings, lists of
    flat string lists or tuples (some empty, many pairs, as a poset's
    covers), integers on both sides of 2^53, bools and None."""
    kind = rng.randrange(9 if depth else 4)
    if kind == 0:
        return rng.choice(_EDGE_INTS) if rng.random() < 0.6 else rng.randint(-2**60, 2**60)
    if kind == 1:
        return _random_string(rng)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.randint(-1000, 1000)
    if kind == 4:
        return {_random_string(rng): random_payload(rng, depth - 1)
                for _ in range(rng.randint(0, 4))}
    if kind == 5:
        return [_random_string(rng) for _ in range(rng.randint(0, 4))]
    if kind == 8:
        return [rng.choice((list, tuple))(_random_string(rng)
                                          for _ in range(rng.choice((0, 1, 2, 2, 3))))
                for _ in range(rng.randint(1, 4))]
    items = [random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return items if kind == 6 else tuple(items)


def reference_parser() -> argparse.ArgumentParser:
    """kdilate's command-line parser, spelled out one call at a time."""
    parser = argparse.ArgumentParser(
        prog="kdilate",
        description="Exact K-theory of crossed products by endomorphisms, "
                    "dilation colimits, and graph-algebra ideal lattices.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, help_text: str, needs_input: bool) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--format", choices=("text", "json", "dot"), default="text",
                        help="output format (default: text)")
        sp.add_argument("--input", metavar="FILE", required=needs_input,
                        default=None, help="JSON problem file")
        return sp

    add("snf", "Smith normal form of the relations matrix of a group_endo file", True)
    add("colim", "classify the dilation colimit of a group endomorphism", True)
    add("kercoker", "kernel and cokernel of (1 - fbar) on the dilation colimit", True)
    add("pv", "crossed-product K-theory from a k_data file", True)
    cuntz = add("cuntz", "closed-form table entry for the Cuntz family", False)
    cuntz.add_argument("n", nargs="?", default=None, help="'inf' or an integer >= 2")
    cuntz.add_argument("m", nargs="?", default=None, help="positive integer")
    add("graph-hs", "hereditary and saturated vertex sets of a graph", True)
    add("graph-lattice", "Hasse diagram of the ideal lattice of a graph", True)
    add("graph-prim", "primitive-ideal poset of a graph", True)
    gk = add("graph-k", "K-groups of the subquotient on Z minus Y", True)
    gk.add_argument("zset", metavar="Z", help="comma-separated vertex names ('' or '-' for empty)")
    gk.add_argument("yset", metavar="Y", nargs="?", default="",
                    help="comma-separated vertex names (default empty)")
    gck = add("graph-crossed-k", "crossed-product K-groups of the subquotient", True)
    gck.add_argument("zset", metavar="Z", help="comma-separated vertex names")
    gck.add_argument("yset", metavar="Y", nargs="?", default="",
                     help="comma-separated vertex names (default empty)")
    return parser


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """("ok", the parsed attributes) or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parser.parse_args(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
