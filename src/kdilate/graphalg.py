"""Finite directed multigraphs and the ideal/K-theory combinatorics of
their algebras.

Vertex sets closed forward along edges (hereditary) and closed under
"every emitted edge lands inside" (saturated) index the invariant ideals;
this module enumerates them, builds the inclusion lattice and the
primitive-ideal poset, and computes K-groups of subquotients from the
vertex matrix: K0 = coker(A_X^T - I) and K1 = ker(A_X^T - I) on the
vertices X of the subquotient.  Graphs must be sink-free (every vertex
emits at least one edge) and the poset computation additionally requires
every vertex to lie on a cycle; both are the regime in which these
formulas hold.

The primitive-ideal poset comes from the strongly connected components,
found by one iterative pass of Tarjan's algorithm over the out-neighbour
bitmasks.  Tarjan emits each component after every component it reaches,
so one walk in that order gives each component its strict down-set (the
union of its successors' down-sets, a component lying below those that
reach it) and its covers (the successors inside no other successor's
down-set).  The same components decide Condition (K): a cyclic component
fails it exactly when it is a bare cycle, with as many internal edges,
counted with multiplicity, as vertices.  Without (K) the sets and posets
here describe the gauge-invariant ideals only.

The family of hereditary saturated sets comes from one binary partition
(`_binary_partition`).  A state is a set found so far, which is
hereditary and saturated, and the vertices decided, in it or excluded;
each step decides the lowest undecided vertex v.  Excluding v excludes
every vertex whose closure holds v.  Including v joins the set with the
closure of v: a union of hereditary sets is hereditary, so saturation
alone closes the join, and it runs only when the graph has vertices
without a loop, the only ones it adds.  A join that takes in an excluded
vertex ends its branch.  Every set is reached once, on the branch that
includes exactly its own vertices, and every state leads to a set, so the
search costs O(n) steps per set.  Taking the inclusion first, the sets
come out in the lexicographic order of their index tuples, and one stable
sort by size gives the family order, size then vertex order.  The covers
of a set a are the joins j of a with one vertex closure that every vertex
of j outside a gives (see `ideal_lattice_hasse`), n joins per set.  A set
stays a bitmask until it is labelled or printed.

The module loads only the record base, `kdilate.record`.  A graph is
its vertex names and its rows, so `subquotient_k` imports the group layer,
with `IntMatrix`, only to hand its presentation over, and
`crossed_subquotient_k` the six-term layer, each when first called: the
ideal combinatorics load neither `kdilate.matrix` nor a group layer.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property
from itertools import compress

from .record import _Record

VertexSet = frozenset
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_NONZERO_BITS = b"0" + b"1" * 255  # maps each byte to whether it is nonzero


def _stored_row(row: bytes | Iterable[int]) -> bytes | tuple[int, ...]:
    """A row as a graph stores it: bytes when every entry lies in 0..255,
    a tuple of ints otherwise, checked as IntMatrix checks its entries."""
    if type(row) is bytes:
        return row
    row = tuple(row)
    if set(map(type, row)) - {int} and any(
            not isinstance(x, int) or isinstance(x, bool) for x in row):
        raise TypeError("matrix entries must be integers")
    try:
        return bytes(row)
    except ValueError:  # an entry outside 0..255
        return row


def bit_selector(mask: int) -> bytes:
    """The bits of mask read from bit 0, as bytes 0 and 1: for
    itertools.compress, the selector of the vertex set over anything listed
    in vertex order."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class Graph(_Record):
    """Directed multigraph on named vertices: rows[v][w] counts the edges
    from v to w.

    The rows may come as any iterable, each row as bytes or as an iterable
    of ints.  A row is stored as bytes when its entries lie in 0..255 (a
    bytes row as it is) and as a tuple of ints otherwise, so that graphs
    of equal multiplicities have equal rows however they were given.
    """

    _fields = ("vertices", "rows")

    def __init__(self, vertices: Iterable[str], rows: Iterable[bytes | Iterable[int]]):
        vertices = tuple(str(v) for v in vertices)
        rows = tuple(map(_stored_row, rows))
        super().__init__(vertices, rows)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValueError("duplicate vertex names")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("adjacency matrix shape does not match the vertex list")
        out = []
        for name, row in zip(vertices, rows):
            if type(row) is bytes:
                # the nonzero multiplicities are the edges: the row's bytes
                # give them as a bit string (bit 0 last)
                mask = int(row.translate(_NONZERO_BITS)[::-1], 2)
            elif min(row) < 0:
                raise ValueError(f"negative edge multiplicity at vertex {name}")
            else:
                mask = sum(1 << j for j, x in enumerate(row) if x)
            if not mask:
                raise ValueError(f"vertex {name} emits no edges (sinks are not supported)")
            out.append(mask)
        self.__dict__["_out_masks"] = tuple(out)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _unlooped(self) -> tuple[tuple[int, int], ...]:
        """(bit, out-mask) of each vertex without a loop: a vertex with a
        loop emits an edge into itself, so saturation never adds it."""
        return tuple((1 << v, out) for v, out in enumerate(self._out_masks)
                     if not out >> v & 1)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components, each after every component it
        reaches, as vertex indices in increasing order."""
        return _strong_components(self._out_masks)

    def mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for name in subset:
            i = self._index.get(str(name))
            if i is None:
                raise ValueError(f"unknown vertex {name}")
            mask |= 1 << i
        return mask

    def names_of(self, mask: int) -> list[str]:
        """Names of the vertices in a mask (bit i for vertex i), in vertex
        order.

        >>> graph = Graph(["a", "b", "c"], [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        >>> graph.names_of(0b101)
        ['a', 'c']
        >>> graph.names_of(0)
        []
        """
        return list(compress(self.vertices, bit_selector(mask)))

    def set_of(self, mask: int) -> VertexSet:
        return frozenset(self.names_of(mask))

    def format_mask(self, mask: int) -> str:
        return "{" + ",".join(self.names_of(mask)) + "}"


def _saturate(graph: Graph, mask: int) -> int:
    """Add every vertex whose emitted edges all land inside, to a fixpoint."""
    grown = True
    while grown:
        grown = False
        for bit, emitted in graph._unlooped:
            if not mask & bit and emitted & ~mask == 0:
                mask |= bit
                grown = True
    return mask


def _closure_mask(graph: Graph, mask: int) -> int:
    out = graph._out_masks
    todo = mask
    while todo:  # hereditary: heads of emitted edges, each new vertex once
        low = todo & -todo
        todo ^= low
        new = out[low.bit_length() - 1] & ~mask
        mask |= new
        todo |= new
    # a vertex added by saturation emits edges only into the set, so the
    # set stays hereditary and one saturation round finishes the closure
    return _saturate(graph, mask)


def _is_hereditary_saturated(graph: Graph, mask: int) -> bool:
    return _closure_mask(graph, mask) == mask


def _bits(mask: int):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strong_components(out: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Tarjan's algorithm on out-neighbour bitmasks, with an explicit stack
    of (vertex, successor iterator) in place of recursion.  A component is
    emitted once every component it reaches has been."""
    order = [-1] * len(out)  # discovery number, -1 while unvisited
    low = [0] * len(out)
    pending, on_pending = [], [False] * len(out)
    components, path, count = [], [], 0

    def visit(v: int):
        nonlocal count
        order[v] = low[v] = count
        count += 1
        pending.append(v)
        on_pending[v] = True
        path.append((v, _bits(out[v])))

    for root in range(len(out)):
        if order[root] >= 0:
            continue
        visit(root)
        while path:
            v, successors = path[-1]
            for w in successors:
                if order[w] < 0:
                    visit(w)
                    break
                if on_pending[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = []
                    while True:
                        w = pending.pop()
                        on_pending[w] = False
                        members.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(members)))
    return tuple(components)


def _binary_partition(graph: Graph) -> tuple[list[int], list[int]]:
    """The closure of each vertex, and the family as masks in family order
    (see the module docstring)."""
    n = len(graph.vertices)
    closures = [_closure_mask(graph, 1 << v) for v in range(n)]
    up = [0] * n  # up[v]: the vertices whose closure holds v
    for u, closure in enumerate(closures):
        for v in compress(range(n), bit_selector(closure)):
            up[v] |= 1 << u
    full, unlooped = (1 << n) - 1, graph._unlooped
    found, stack = [], [(0, 0)]
    while stack:
        inside, decided = stack.pop()
        while decided != full:
            v = (~decided & (decided + 1)).bit_length() - 1  # lowest undecided
            joined = inside | closures[v]
            if unlooped:  # saturation adds only vertices without a loop
                joined = _saturate(graph, joined)
            if joined & decided & ~inside:  # v brings in an excluded vertex
                decided |= up[v]
                continue
            stack.append((inside, decided | up[v]))  # exclude v, later
            inside, decided = joined, decided | joined
        found.append(inside)
    found.sort(key=int.bit_count)
    return closures, found


def hereditary_saturated_masks(graph: Graph) -> list[int]:
    """All hereditary and saturated subsets as vertex masks (bit i for
    vertex i), sorted by size then vertex order: of two sets of one size,
    the one holding the lowest vertex where they differ comes first.

    >>> isolated = Graph(["a", "b", "c"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    >>> [isolated.format_mask(m) for m in hereditary_saturated_masks(isolated)]
    ['{}', '{a}', '{b}', '{c}', '{a,b}', '{a,c}', '{b,c}', '{a,b,c}']
    """
    return _binary_partition(graph)[1]


def enumerate_hereditary_saturated(graph: Graph) -> list[VertexSet]:
    """All hereditary and saturated subsets, sorted by size then vertex order."""
    return [graph.set_of(m) for m in hereditary_saturated_masks(graph)]


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

def _all_str(items) -> bool:
    return all(type(item) is str for item in items)


class PosetDiagram(_Record):
    """Hasse diagram: elements plus the covering pairs (lower, upper).

    Construction validates that the covers are acyclic and free of
    transitive shortcuts, so the diagram really is a transitive reduction;
    `_of_covers` skips that check for covers built as covers.
    """

    _fields = ("elements", "covers")

    def __init__(self, elements: tuple[str, ...], covers: tuple[tuple[str, str], ...]):
        super().__init__(elements, covers)
        self.__post_init__()

    def __post_init__(self):
        # A method of its own, called by name, so that tracing can wrap the
        # validation apart from the construction.
        # names are copied through str() only when one is not a str already
        elements, covers = self.elements, self.covers
        if type(elements) is not tuple or not _all_str(elements):
            elements = tuple(map(str, elements))
        if (type(covers) is not tuple
                or not all(type(c) is tuple and len(c) == 2 and _all_str(c) for c in covers)):
            covers = tuple((str(a), str(b)) for a, b in covers)
        _Record.__init__(self, elements, covers)
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        succ: list[set[int]] = [set() for _ in self.elements]
        for lower, upper in self.covers:
            i, j = index.get(lower), index.get(upper)
            if i is None or j is None:
                raise ValueError(f"cover ({lower}, {upper}) uses unknown elements")
            if i == j:
                raise ValueError("covers must relate distinct elements")
            succ[i].add(j)
        indegree = [0] * len(self.elements)
        for targets in succ:
            for t in targets:
                indegree[t] += 1
        queue = [i for i, d in enumerate(indegree) if d == 0]
        order = []  # Kahn: every element comes after all of its predecessors
        while queue:
            node = queue.pop()
            order.append(node)
            for nxt in succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self.elements):
            raise ValueError("cover relation contains a cycle")
        # bitmasks of the elements strictly above each element, and of those
        # strictly above one of its successors (a route of two or more covers)
        above = [0] * len(self.elements)
        beyond = [0] * len(self.elements)
        for node in reversed(order):
            for nxt in succ[node]:
                beyond[node] |= above[nxt]
                above[node] |= above[nxt] | 1 << nxt
        for lower, upper in self.covers:
            if beyond[index[lower]] >> index[upper] & 1:
                raise ValueError(f"cover ({lower}, {upper}) is a transitive edge")

    @classmethod
    def _of_covers(cls, elements: tuple[str, ...],
                   covers: tuple[tuple[str, str], ...]) -> "PosetDiagram":
        """The diagram of str elements and the (lower, upper) pairs of them
        that the caller built as covers: only the elements are checked, for
        two that print alike."""
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate poset elements")
        diagram = object.__new__(cls)
        _Record.__init__(diagram, elements, covers)
        return diagram

    def dot_lines(self):
        """The lines of the diagram's DOT text, each made as it is read."""
        yield "digraph {"
        for e in sorted(self.elements):
            yield f'  "{e}";'
        for lower, upper in sorted(self.covers):
            yield f'  "{lower}" -> "{upper}";'
        yield "}"


def ideal_lattice_hasse(graph: Graph) -> PosetDiagram:
    """Hasse diagram of the inclusion order on hereditary&saturated sets,
    the lattice of gauge-invariant ideals (of all ideals when Condition (K)
    holds; see condition_k_failures).

    Call the join of a with the closure of a vertex outside a that
    vertex's join.  A set j covers a exactly when j is the join of every
    vertex of j outside a: a set strictly between a and j would be the
    join of its own vertices outside a.  So the covers of a come from
    grouping the vertices outside a by their join, and are covers by
    construction."""
    closures, family = _binary_partition(graph)
    full, unlooped = (1 << len(closures)) - 1, graph._unlooped
    labels = tuple(map(graph.format_mask, family))
    label = dict(zip(family, labels))
    covers = []
    for a, lower in zip(family, labels):
        givers: dict[int, int] = {}  # each join -> the vertices giving it
        for v in compress(range(len(closures)), bit_selector(full ^ a)):
            joined = a | closures[v]
            if unlooped:
                joined = _saturate(graph, joined)
            givers[joined] = givers.get(joined, 0) | 1 << v
        covers.extend((lower, label[j]) for j, vs in givers.items() if vs == j ^ a)
    covers.sort()
    return PosetDiagram._of_covers(labels, tuple(covers))


def _component_mask(members: tuple[int, ...]) -> int:
    return sum(1 << v for v in members)


def _component_label(graph: Graph, members: tuple[int, ...]) -> str:
    names = [graph.vertices[v] for v in members]
    return names[0] if len(names) == 1 else "{" + ",".join(names) + "}"


def prim_poset(graph: Graph) -> PosetDiagram:
    """Poset of strongly connected components: the gauge-invariant
    primitive ideals (all primitive ideals when Condition (K) holds; see
    condition_k_failures).

    Requires every vertex to lie on a cycle.  The order is fixed as
    a <= b when b reaches a; the undirected cover graph plus the extremes
    are the orientation-independent content.  Elements come in order of
    their first vertex.
    """
    out = graph._out_masks
    components = graph._components
    if any(len(c) == 1 and not out[c[0]] >> c[0] & 1 for c in components):
        raise ValueError("prim computation requires every vertex on a cycle")
    n = len(out)
    owner = [0] * n  # first vertex of the component of each vertex
    mask, below, label = [0] * n, [0] * n, [""] * n  # indexed by first vertex
    covers = []
    for members in components:  # each after every component it reaches
        first = members[0]
        for v in members:
            owner[v] = first
        mask[first] = _component_mask(members)
        label[first] = _component_label(graph, members)
        successors = 0
        for v in members:
            successors |= out[v]
        successors &= ~mask[first]
        down = deeper = 0  # strict down-set; the successors' down-sets
        rest = successors
        while rest:
            w = owner[(rest & -rest).bit_length() - 1]
            under = mask[w] | below[w]
            down |= under
            deeper |= below[w]
            rest &= ~under
        below[first] = down
        rest = successors & ~deeper
        while rest:
            w = owner[(rest & -rest).bit_length() - 1]
            covers.append((label[w], label[first]))
            rest &= ~mask[w]
    firsts = sorted(c[0] for c in components)
    # each component's covers are its successors below no other successor:
    # a transitive reduction by construction
    return PosetDiagram._of_covers(tuple(label[v] for v in firsts), tuple(sorted(covers)))


def condition_k_failures(graph: Graph) -> tuple[str, ...]:
    """Labels (as in prim_poset) of the components that break Condition
    (K), in order of first vertex.

    A strongly connected component with a cycle has at least as many
    internal edges, counted with multiplicity, as vertices, and exactly as
    many when it is one bare cycle: every vertex then has one internal
    edge, of multiplicity one, and a single return path, where (K) asks
    for two.
    """
    failures, rows = [], graph.rows
    for members in sorted(graph._components):
        inside_mask = _component_mask(members)
        for v in members:
            inside = graph._out_masks[v] & inside_mask
            if (not inside or inside & (inside - 1)
                    or rows[v][inside.bit_length() - 1] != 1):
                break
        else:
            failures.append(_component_label(graph, members))
    return tuple(failures)


# ---------------------------------------------------------------------------
# Subquotient K-theory
# ---------------------------------------------------------------------------

def _checked_nested_pair(graph: Graph, zset: Iterable[str], yset: Iterable[str]) -> list[int]:
    zmask = graph.mask_of(zset)
    ymask = graph.mask_of(yset)
    if ymask & ~zmask:
        raise ValueError("Y is not contained in Z")
    if not _is_hereditary_saturated(graph, zmask):
        raise ValueError("Z is not hereditary and saturated")
    if not _is_hereditary_saturated(graph, ymask):
        raise ValueError("Y is not hereditary and saturated")
    xmask = zmask & ~ymask
    indices = [i for i in range(len(graph.vertices)) if xmask >> i & 1]
    for i in indices:
        if graph._out_masks[i] & xmask == 0:
            raise ValueError(
                f"vertex {graph.vertices[i]} emits no edge within the subquotient")
    return indices


def subquotient_k(graph: Graph, zset: Iterable[str],
                  yset: Iterable[str]) -> tuple[FGAbelianGroup, FGAbelianGroup]:
    """K-groups of the subquotient supported on X = Z minus Y.

    With A_X the vertex matrix restricted to X, K0 is the cokernel and K1
    the kernel of A_X^T - I acting on Z^X.
    """
    from .abelian import FGAbelianGroup, IntMatrix, group_from_presentation

    indices = _checked_nested_pair(graph, zset, yset)
    size, rows = len(indices), graph.rows
    # rows of (A_X^T - I)^T, read from the X x X block of the rows
    relations = IntMatrix._of_checked_rows(size, tuple(
        tuple(rows[i][j] - (i == j) for j in indices) for i in indices))
    k0 = group_from_presentation(size, relations)
    # the kernel and cokernel of one square matrix have the same rank
    return k0, FGAbelianGroup.free(k0.free_rank)


def crossed_subquotient_k(graph: Graph, zset: Iterable[str], yset: Iterable[str]
                          ) -> CrossedProductK:
    """Six-term result for the crossed product of a subquotient by an
    endomorphism acting as the identity on K-theory.

    K1 of a subquotient is free (a kernel inside Z^X), so the extension
    0 -> K0 -> ? -> K1 -> 0 splits and the crossed K0 is K0 + K1.  The
    extension 0 -> K1 -> ? -> K0 -> 0 splits only when K0 is free or K1
    vanishes; when K0 has torsion and K1 does not vanish, the crossed K1 is
    None, an extension left open.  For loop-rich graphs K1 vanishes and the
    crossed K-groups are (K0, K0)."""
    from .kcrossed import KTheoryData, pv_crossed_product

    k0, k1 = subquotient_k(graph, zset, yset)
    return pv_crossed_product(KTheoryData.with_identity_maps(k0, k1))
