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

The primitive-ideal poset comes from one reachability closure: Warshall's
algorithm on the out-neighbour bitmasks gives every vertex the set it
reaches, a vertex lies on a cycle when it reaches itself, its strongly
connected component is what it reaches and is reached by, and one
component lies below another when the other reaches it; its covering pairs
are read off each component's transitively closed down-set.

The family of hereditary saturated sets and the covers of its lattice come
from one join search.  Starting from the empty set, it joins each set
found with the closure of every vertex outside it.  A union of hereditary
sets is hereditary, so saturation alone closes the join.  The search
reaches every set, since each is the join of the closures of its
vertices, and the sets covering a set are the minimal ones among its
joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable

from .abelian import (
    FGAbelianGroup,
    IntMatrix,
    group_from_presentation,
)
from .colimit import ColimitDescription
from .kcrossed import KTheoryData, pv_crossed_product

VertexSet = frozenset


@dataclass(frozen=True)
class Graph:
    """Directed multigraph: adjacency[v][w] counts the edges from v to w."""

    vertices: tuple[str, ...]
    adjacency: IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(str(v) for v in self.vertices))
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex names")
        if (self.adjacency.rows, self.adjacency.cols) != (n, n):
            raise ValueError("adjacency matrix shape does not match the vertex list")
        for i, name in enumerate(self.vertices):
            row = self.adjacency.row(i)
            if min(row) < 0:
                raise ValueError(f"negative edge multiplicity at vertex {name}")
            if sum(row) == 0:
                raise ValueError(f"vertex {name} emits no edges (sinks are not supported)")

    @classmethod
    def from_adjacency(cls, vertices: Iterable[str], rows) -> "Graph":
        vertices = tuple(vertices)
        return cls(vertices, IntMatrix.from_rows(rows, cols=len(vertices)))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _out_masks(self) -> tuple[int, ...]:
        bits = [1 << j for j in range(len(self.vertices))]
        # multiplicities are nonnegative, so the nonzero ones are the edges
        return tuple(sum(compress(bits, row)) for row in self.adjacency.entries)

    @cached_property
    def _unlooped(self) -> tuple[tuple[int, int], ...]:
        """(bit, out-mask) of each vertex without a loop: a vertex with a
        loop emits an edge into itself, so saturation never adds it."""
        return tuple((1 << v, out) for v, out in enumerate(self._out_masks)
                     if not out >> v & 1)

    def mask_of(self, subset: Iterable[str]) -> int:
        mask = 0
        for name in subset:
            i = self._index.get(str(name))
            if i is None:
                raise ValueError(f"unknown vertex {name}")
            mask |= 1 << i
        return mask

    def set_of(self, mask: int) -> VertexSet:
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def format_set(self, subset: Iterable[str]) -> str:
        return "{" + ",".join(self.vertices[i] for i in _bits(self.mask_of(subset))) + "}"


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


def hereditary_saturated_closure(graph: Graph, subset: Iterable[str]) -> VertexSet:
    """Smallest hereditary and saturated vertex set containing the input."""
    return graph.set_of(_closure_mask(graph, graph.mask_of(subset)))


def _is_hereditary_saturated(graph: Graph, mask: int) -> bool:
    return _closure_mask(graph, mask) == mask


def _bits(mask: int):
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _family_sort_key(mask: int):
    indices = tuple(_bits(mask))
    return (len(indices), indices)


def _joins(graph: Graph) -> dict[int, set[int]]:
    """Every hereditary and saturated set (as a mask), mapped to its joins
    with the vertex closures it does not already contain (see the module
    docstring)."""
    atoms = {_closure_mask(graph, 1 << v) for v in range(len(graph.vertices))}
    joins: dict[int, set[int]] = {}
    seen = {0}
    frontier = [0]
    while frontier:
        current = frontier.pop()
        above = {_saturate(graph, current | atom) for atom in atoms if atom & ~current}
        joins[current] = above
        for joined in above:
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
    return joins


def enumerate_hereditary_saturated(graph: Graph) -> list[VertexSet]:
    """All hereditary and saturated subsets, sorted by size then vertex order."""
    return [graph.set_of(m) for m in sorted(_joins(graph), key=_family_sort_key)]


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosetDiagram:
    """Hasse diagram: elements plus the covering pairs (lower, upper).

    Construction validates that the covers are acyclic and free of
    transitive shortcuts, so the diagram really is a transitive reduction.
    """

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(str(e) for e in self.elements))
        object.__setattr__(self, "covers",
                           tuple((str(a), str(b)) for a, b in self.covers))
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

    def undirected_cover_edges(self) -> frozenset:
        return frozenset(frozenset(pair) for pair in self.covers)

    def minimal_elements(self) -> tuple[str, ...]:
        uppers = {b for _, b in self.covers}
        return tuple(e for e in self.elements if e not in uppers)

    def maximal_elements(self) -> tuple[str, ...]:
        lowers = {a for a, _ in self.covers}
        return tuple(e for e in self.elements if e not in lowers)

    def to_dot(self) -> str:
        lines = ["digraph {"]
        for e in sorted(self.elements):
            lines.append(f'  "{e}";')
        for lower, upper in sorted(self.covers):
            lines.append(f'  "{lower}" -> "{upper}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _hasse(labels: list[str], below: list[int]) -> PosetDiagram:
    """Hasse diagram of a finite poset given by below[j], the bitmask of the
    elements strictly under element j (transitively closed): i is covered
    by j when i is under j and under no element that is under j."""
    covers = []
    for j, under in enumerate(below):
        deeper = 0
        for i in _bits(under):
            deeper |= below[i]
        covers.extend((labels[i], labels[j]) for i in _bits(under & ~deeper))
    return PosetDiagram(tuple(labels), tuple(sorted(covers)))


def ideal_lattice_hasse(graph: Graph) -> PosetDiagram:
    """Hasse diagram of the inclusion order on hereditary&saturated sets.

    The sets covering a are the minimal ones among its joins: a cover b
    is the join of a with the closure of any vertex of b outside a, and
    nothing lies strictly between a and a minimal join."""
    joins = _joins(graph)
    family = sorted(joins, key=_family_sort_key)
    label = {m: graph.format_set(graph.set_of(m)) for m in family}
    covers = [(label[a], label[b]) for a in family for b in joins[a]
              if not any(c != b and c & ~b == 0 for c in joins[a])]
    return PosetDiagram(tuple(label[m] for m in family), tuple(sorted(covers)))


def prim_poset(graph: Graph) -> PosetDiagram:
    """Primitive-ideal poset from strongly connected components.

    Requires every vertex to lie on a cycle.  The order is fixed as
    a <= b when b reaches a; the undirected cover graph plus the extremes
    are the orientation-independent content.
    """
    n = len(graph.vertices)
    reach = list(graph._out_masks)  # Warshall: reach[i] = ends of paths from i
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    if any(not reach[v] >> v & 1 for v in range(n)):
        raise ValueError("prim computation requires every vertex on a cycle")
    firsts, labels, placed = [], [], 0  # components in order of first vertex
    for v in range(n):
        if not placed >> v & 1:
            members = [w for w in range(v, n) if reach[v] >> w & 1 and reach[w] >> v & 1]
            placed |= sum(1 << w for w in members)
            names = [graph.vertices[w] for w in members]
            firsts.append(v)
            labels.append(names[0] if len(names) == 1 else "{" + ",".join(names) + "}")
    below = [sum(1 << a for a, low in enumerate(firsts) if a != b and reach[high] >> low & 1)
             for b, high in enumerate(firsts)]
    return _hasse(labels, below)


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
    indices = _checked_nested_pair(graph, zset, yset)
    size = len(indices)
    restricted = graph.adjacency.select_rows(indices).select_columns(indices)
    relations = restricted - IntMatrix.identity(size)  # rows of (A_X^T - I)^T
    k0 = group_from_presentation(size, relations)
    # the kernel and cokernel of one square matrix have the same rank
    return k0, FGAbelianGroup.free(k0.free_rank)


def crossed_subquotient_k(graph: Graph, zset: Iterable[str], yset: Iterable[str]
                          ) -> tuple[ColimitDescription, ColimitDescription]:
    """K-groups of the crossed product of a subquotient by an endomorphism
    acting as the identity on K-theory.

    K1 of a subquotient is free (a kernel inside Z^X), so the six-term
    extensions split and the result is (K0 + K1, K0 + K1); for loop-rich
    graphs K1 vanishes and this collapses to (K0, K0)."""
    k0, k1 = subquotient_k(graph, zset, yset)
    result = pv_crossed_product(KTheoryData.with_identity_maps(k0, k1))
    return result.k0_description(), result.k1_description()
