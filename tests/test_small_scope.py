"""Every small graph, against the oracles: all 17,642 sink-free graphs on
one to three vertices with multiplicities 0, 1 and 2, with no seed.

On each graph the family of hereditary saturated sets, the K-groups of
every nested pair of them that `subquotient_k` accepts, the primitive
poset (where every vertex lies on a cycle) and the Condition (K) verdict
are checked against brute-force routes of `oracles`, and the graph built
from list rows is checked against the one built from bytes rows.
"""

from functools import cache
from itertools import product

from kdilate.graphalg import (
    Graph,
    condition_k_failures,
    hereditary_saturated_masks,
    prim_poset,
    subquotient_k,
)
from oracles import (
    birkhoff_covers,
    brute_hereditary_saturated,
    condition_k_failing_components,
    covers_by_definition,
    reachable_sets,
    smith_diagonal_by_divisors,
)

NAMES = "abc"
NO_EDGE = "emits no edge within the subquotient"


@cache
def small_graphs() -> tuple[Graph, ...]:
    graphs = []
    for n in range(1, 4):
        rows = [row for row in product(range(3), repeat=n) if any(row)]
        for matrix in product(rows, repeat=n):
            graphs.append(Graph(NAMES[:n], [list(row) for row in matrix]))
    return tuple(graphs)


def test_the_sweep_holds_every_sink_free_graph():
    graphs = small_graphs()
    assert len(graphs) == 2 + 8**2 + 26**3 == 17_642
    assert len(set(graphs)) == len(graphs)


def test_list_and_bytes_rows_build_one_graph():
    for graph in small_graphs():
        from_bytes = Graph(graph.vertices, [bytes(row) for row in graph.rows])
        assert from_bytes == graph and hash(from_bytes) == hash(graph)
        assert from_bytes._out_masks == graph._out_masks


def _family_order(graph: Graph, sets) -> list:
    index = {v: i for i, v in enumerate(graph.vertices)}
    return sorted(sets, key=lambda s: (len(s), sorted(index[v] for v in s)))


def test_family_against_a_scan_of_every_subset():
    for graph in small_graphs():
        family = [graph.set_of(m) for m in hereditary_saturated_masks(graph)]
        assert family == _family_order(graph, brute_hereditary_saturated(graph))


@cache
def _k_by_divisors(relations: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of the cokernel of the relations."""
    diagonal = smith_diagonal_by_divisors([list(r) for r in relations], len(relations))
    return diagonal.count(0), tuple(d for d in diagonal if d > 1)


def test_subquotient_k_against_determinantal_divisors():
    accepted = 0
    for graph in small_graphs():
        family = hereditary_saturated_masks(graph)
        for z, y in product(family, repeat=2):
            if y & ~z:
                continue
            zset, yset = graph.names_of(z), graph.names_of(y)
            x = [v for v in range(len(graph.vertices)) if (z & ~y) >> v & 1]
            # rows of (A_X^T - I)^T, from the X x X block of the rows
            relations = tuple(tuple(graph.rows[i][j] - (i == j) for j in x) for i in x)
            if any(not any(graph.rows[i][j] for j in x) for i in x):
                try:
                    subquotient_k(graph, zset, yset)
                except ValueError as exc:
                    assert NO_EDGE in str(exc)
                    continue
                raise AssertionError(f"{graph}: {zset} / {yset} was accepted")
            k0, k1 = subquotient_k(graph, zset, yset)
            free_rank, factors = _k_by_divisors(relations)
            assert (k0.free_rank, k0.invariant_factors) == (free_rank, factors), graph
            assert (k1.free_rank, k1.invariant_factors) == (free_rank, ()), graph
            accepted += 1
    assert accepted == 75_030


def _prim_by_birkhoff(graph: Graph) -> tuple[set, set]:
    """The prim poset's elements and covers as vertex sets, read off the
    Birkhoff covers of the lattice of hereditary sets: a join-irreducible
    set, one with a single lower cover, is the down-set of one component,
    the vertices that cover lacks, and one such down-set inside another
    puts its component below."""
    lower = {}
    for a, b in birkhoff_covers(graph):
        lower.setdefault(b, []).append(a)
    component = {b: b - a[0] for b, a in lower.items() if len(a) == 1}
    covers = covers_by_definition(list(component), lambda p, q: p < q)
    return set(component.values()), {(component[p], component[q]) for p, q in covers}


def _members(label: str) -> frozenset:
    return frozenset(label.strip("{}").split(","))


def test_prim_poset_and_condition_k_against_the_oracles():
    on_cycles = failing = 0
    for graph in small_graphs():
        components = sorted(sorted(c) for c in condition_k_failing_components(graph))
        labels = tuple(NAMES[c[0]] if len(c) == 1 else "{" + ",".join(NAMES[v] for v in c) + "}"
                       for c in components)
        assert condition_k_failures(graph) == labels, graph
        failing += bool(labels)
        reach = reachable_sets(graph)
        if any(v not in reach[v] for v in range(len(reach))):
            continue
        on_cycles += 1
        poset = prim_poset(graph)
        elements, covers = _prim_by_birkhoff(graph)
        assert {_members(e) for e in poset.elements} == elements, graph
        assert len(poset.elements) == len(elements), graph
        assert {(_members(a), _members(b)) for a, b in poset.covers} == covers, graph
    assert on_cycles > 1000 and failing > 1000, (on_cycles, failing)
