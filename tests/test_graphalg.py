import itertools
import random
import time

import pytest

from kdilate import graphalg
from kdilate.abelian import FGAbelianGroup, IntMatrix, direct_sum
from kdilate.graphalg import (
    Graph,
    PosetDiagram,
    condition_k_failures,
    crossed_subquotient_k,
    enumerate_hereditary_saturated,
    hereditary_saturated_masks,
    ideal_lattice_hasse,
    prim_poset,
    subquotient_k,
)
from oracles import (
    birkhoff_covers,
    brute_hereditary_saturated,
    condition_k_failing_components,
    covers_by_definition,
    poset_validation_error,
    random_dag_covers,
    random_graph,
    random_graph_beside_a_path,
    random_looped_graph,
    random_sparse_graph,
    rank_over_q,
    reachable_sets,
)

FULL = frozenset({"v1", "v2", "v3", "v4"})
SIX_SETS = [frozenset(), frozenset({"v4"}), frozenset({"v2", "v4"}),
            frozenset({"v3", "v4"}), frozenset({"v2", "v3", "v4"}), FULL]


def closure(graph, subset):
    """The smallest hereditary and saturated set holding `subset`, by the
    route `graph-k` and the family search take: `_closure_mask` on masks."""
    return graph.set_of(graphalg._closure_mask(graph, graph.mask_of(subset)))


def sum_of_cyclics(parts):
    total = FGAbelianGroup.trivial()
    for p in parts:
        total = direct_sum(total, FGAbelianGroup.cyclic(p))
    return total


class TestGraphConstruction:
    def test_rejects_sinks(self):
        with pytest.raises(ValueError, match="emits no edges"):
            Graph.from_adjacency(["a", "b"], [[0, 1], [0, 0]])

    def test_rejects_negative_multiplicities(self):
        with pytest.raises(ValueError, match="negative edge multiplicity"):
            Graph.from_adjacency(["a"], [[-1]])

    def test_rejects_shape_mismatch_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency(["a", "b"], [[1, 0]])
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_adjacency(["a", "a"], [[1, 0], [0, 1]])

    def test_unknown_vertex_in_subset(self):
        g = Graph.from_adjacency(["a"], [[1]])
        with pytest.raises(ValueError, match="unknown vertex"):
            closure(g, {"zz"})


class TestClosure:
    def test_v4_is_already_closed(self, graph_e):
        assert closure(graph_e, {"v4"}) == frozenset({"v4"})

    def test_v1_reaches_everything(self, graph_e):
        assert closure(graph_e, {"v1"}) == FULL

    def test_empty_set_is_closed(self, graph_e):
        assert closure(graph_e, set()) == frozenset()

    def test_closure_properties_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(120):
            graph = random_graph(rng, max_vertices=8)
            names = list(graph.vertices)
            small = frozenset(v for v in names if rng.random() < 0.3)
            large = small | frozenset(v for v in names if rng.random() < 0.3)
            closed_small = closure(graph, small)
            # extensive, idempotent, monotone
            assert small <= closed_small
            assert closure(graph, closed_small) == closed_small
            assert closed_small <= closure(graph, large)

    def test_closure_is_the_smallest_hereditary_saturated_superset(self):
        rng = random.Random(19)
        for _ in range(120):
            graph = random_graph(rng, max_vertices=8)
            subset = frozenset(v for v in graph.vertices if rng.random() < 0.3)
            supersets = [s for s in brute_hereditary_saturated(graph) if subset <= s]
            smallest = frozenset(graph.vertices).intersection(*supersets)
            assert closure(graph, subset) == smallest

    def test_closure_fixes_exactly_the_enumerated_sets(self):
        # the closure and the family search agree: a set is its own closure
        # if and only if the enumeration lists it
        rng = random.Random(23)
        for _ in range(60):
            graph = random_graph(rng, max_vertices=7)
            names = list(graph.vertices)
            family = set(enumerate_hereditary_saturated(graph))
            for bits in range(1 << len(names)):
                subset = frozenset(v for i, v in enumerate(names) if bits >> i & 1)
                assert (closure(graph, subset) == subset) == (subset in family)


class TestEnumeration:
    def test_the_six_sets(self, graph_e):
        assert enumerate_hereditary_saturated(graph_e) == SIX_SETS

    def test_single_loop_vertex(self):
        graph = Graph.from_adjacency(["w"], [[1]])
        assert enumerate_hereditary_saturated(graph) == [frozenset(), frozenset({"w"})]

    def test_two_disconnected_loops_give_all_four_subsets(self):
        graph = Graph.from_adjacency(["a", "b"], [[1, 0], [0, 1]])
        assert len(enumerate_hereditary_saturated(graph)) == 4

    def test_against_exhaustive_scan(self):
        rng = random.Random(23)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=8)
            fast = set(enumerate_hereditary_saturated(graph))
            assert fast == set(brute_hereditary_saturated(graph))

    def test_family_is_a_lattice_with_bounds(self):
        rng = random.Random(29)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=7)
            family = set(enumerate_hereditary_saturated(graph))
            assert frozenset() in family
            assert frozenset(graph.vertices) in family
            for a in family:
                for b in family:
                    assert a & b in family

    def test_sorted_by_size_then_vertex_order(self, graph_e):
        family = enumerate_hereditary_saturated(graph_e)
        sizes = [len(s) for s in family]
        assert sizes == sorted(sizes)

    def test_family_order_is_size_then_index_tuple(self):
        # the family of an exhaustive scan, in the order computed directly
        # from each set's indices, on small graphs and on graphs of more
        # than 64 vertices with small families
        rng = random.Random(53)
        cases = []
        for k in range(120):
            graph = (random_graph if k % 2 else random_sparse_graph)(rng, max_vertices=10)
            cases.append((graph, {graph.mask_of(s) for s in brute_hereditary_saturated(graph)}))
        # a union of two sets that is not saturated
        assert sum(any(a | b not in family for a in family for b in family)
                   for _, family in cases) >= 10
        cases += [random_graph_beside_a_path(rng, rng.randint(64, 80)) for _ in range(6)]
        assert sum(len(graph.vertices) > 64 for graph, _ in cases) == 6
        for graph, family in cases:
            n = len(graph.vertices)
            masks = hereditary_saturated_masks(graph)
            assert masks == sorted(family, key=lambda m: (
                m.bit_count(), tuple(i for i in range(n) if m >> i & 1)))

    def test_no_saturation_when_every_vertex_has_a_loop(self, monkeypatch):
        # saturation adds only vertices without a loop, so on such graphs
        # the binary partition behind graph-hs and graph-lattice saturates
        # only the closure of each vertex, once each, and the lattice
        # saturates none of its joins
        calls = []
        saturate = graphalg._saturate

        def counted(graph, mask):
            calls.append(mask)
            return saturate(graph, mask)

        monkeypatch.setattr(graphalg, "_saturate", counted)
        rng = random.Random(41)
        for _ in range(10):
            graph = random_looped_graph(rng, 12, 0.2)
            for search in (hereditary_saturated_masks, ideal_lattice_hasse):
                calls.clear()
                search(graph)
                assert len(calls) == len(graph.vertices)
        calls.clear()
        # b has a loop and a does not: {b} saturates to {a, b}
        graph = Graph.from_adjacency(["a", "b"], [[0, 1], [0, 1]])
        assert enumerate_hereditary_saturated(graph) == [frozenset(), frozenset({"a", "b"})]
        assert calls


class TestIdealLattice:
    def test_hasse_of_the_six_sets(self, graph_e):
        poset = ideal_lattice_hasse(graph_e)
        assert len(poset.elements) == 6
        assert set(poset.covers) == {
            ("{}", "{v4}"), ("{v4}", "{v2,v4}"), ("{v4}", "{v3,v4}"),
            ("{v2,v4}", "{v2,v3,v4}"), ("{v3,v4}", "{v2,v3,v4}"),
            ("{v2,v3,v4}", "{v1,v2,v3,v4}")}

    def test_single_vertex_gives_a_two_point_chain(self):
        poset = ideal_lattice_hasse(Graph.from_adjacency(["w"], [[2]]))
        assert poset.covers == (("{}", "{w}"),)

    def test_disconnected_loops_give_a_diamond(self):
        poset = ideal_lattice_hasse(Graph.from_adjacency(["a", "b"], [[1, 0], [0, 1]]))
        assert set(poset.covers) == {("{}", "{a}"), ("{}", "{b}"),
                                     ("{a}", "{a,b}"), ("{b}", "{a,b}")}

    def test_covers_match_the_definition_on_random_graphs(self):
        # the whole diagram, in order, against the covers of the exhaustive
        # scan's family by definition; the diagram, built without the
        # validation, also passes it
        rng = random.Random(37)
        saturating = 0
        for k in range(120):
            graph = (random_graph if k % 2 else random_sparse_graph)(rng, max_vertices=8)
            order = {v: i for i, v in enumerate(graph.vertices)}
            family = sorted(brute_hereditary_saturated(graph),
                            key=lambda s: (len(s), sorted(map(order.get, s))))
            members = set(family)  # a union of two sets that is not saturated
            saturating += any(a | b not in members for a in family for b in family)
            labels = tuple(graph.format_mask(graph.mask_of(s)) for s in family)
            label_of = dict(zip(family, labels))
            expected = sorted((label_of[a], label_of[b])
                              for a, b in covers_by_definition(family, lambda a, b: a < b))
            poset = ideal_lattice_hasse(graph)
            assert poset.elements == labels
            assert poset.covers == tuple(expected)
            assert PosetDiagram(poset.elements, poset.covers) == poset
        assert saturating >= 10

    def test_covers_at_four_thousand_sets_within_two_seconds(self):
        # a looped graph like the benchmark's lattice inputs, drawn until
        # its family size lies in [3800, 4400]
        rng = random.Random(7)
        while True:
            graph = random_looped_graph(rng, 22, 0.12)
            expected = birkhoff_covers(graph, limit=4400)
            # every set but the empty one covers another
            if expected is not None and len({b for _, b in expected}) + 1 >= 3800:
                break
        start = time.perf_counter()
        poset = ideal_lattice_hasse(graph)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert 3800 <= len(poset.elements) <= 4400

        def vertex_set(label):
            return frozenset(label[1:-1].split(",")) if label != "{}" else frozenset()
        assert {(vertex_set(a), vertex_set(b)) for a, b in poset.covers} == expected


class TestPosetDiagram:
    def test_rejects_transitive_edges(self):
        with pytest.raises(ValueError, match="transitive"):
            PosetDiagram(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="cycle"):
            PosetDiagram(("a", "b"), (("a", "b"), ("b", "a")))

    def test_rejects_unknown_elements_and_self_covers(self):
        with pytest.raises(ValueError):
            PosetDiagram(("a",), (("a", "b"),))
        with pytest.raises(ValueError):
            PosetDiagram(("a",), (("a", "a"),))

    def test_validation_matches_the_search_by_definition(self):
        rng = random.Random(41)
        verdicts = []
        for k in range(400):
            elements, covers = random_dag_covers(rng, max_elements=12 if k % 4 else 20)
            if k % 4 == 0:  # shortcuts along routes of three or more covers
                wanted = rng.randint(1, 3)
                for _ in range(50):
                    walk = [rng.choice(elements)]
                    while nexts := [b for a, b in covers if a == walk[-1]]:
                        walk.append(rng.choice(nexts))
                    if len(walk) >= 4:
                        covers.insert(rng.randrange(len(covers) + 1), (walk[0], walk[-1]))
                        wanted -= 1
                        if not wanted:
                            break
            elif k % 4 == 1:  # a back edge closes a cycle
                chains = [(a, b) for a, b in covers if any(c == b for c, _ in covers)]
                if chains:
                    lower, upper = rng.choice(chains)
                    covers.append((rng.choice([b for a, b in covers if a == upper]), lower))
            elif k % 4 == 2:
                bad = rng.choice(["unknown", "self", "duplicate"])
                if bad == "unknown":
                    covers.insert(rng.randrange(len(covers) + 1), (elements[0], "zz"))
                elif bad == "self":
                    covers.insert(rng.randrange(len(covers) + 1), (elements[-1], elements[-1]))
                else:
                    elements.append(elements[0])
            expected = poset_validation_error(elements, covers)
            verdicts.append(expected and expected.split(" ")[-1])
            if expected is None:
                PosetDiagram(tuple(elements), tuple(covers))
            else:
                with pytest.raises(ValueError) as info:
                    PosetDiagram(tuple(elements), tuple(covers))
                assert str(info.value) == expected
        assert all(verdicts.count(v) >= 40 for v in (None, "edge", "cycle", "elements"))

    def test_names_are_copied_only_when_not_already_strings(self):
        elements, covers = ("a", "b"), (("a", "b"),)
        poset = PosetDiagram(elements, covers)
        assert poset.elements is elements and poset.covers is covers
        poset = PosetDiagram([1, "b"], [[1, "b"]])
        assert poset.elements == ("1", "b") and poset.covers == (("1", "b"),)
        assert type(poset.covers[0]) is tuple
        with pytest.raises(ValueError):  # a cover is a pair
            PosetDiagram(("a", "b"), (("a", "b", "a"),))

    def test_dot_output_sorted_and_quoted(self):
        poset = PosetDiagram(("b", "a", "c"), (("b", "c"), ("a", "c")))
        assert list(poset.dot_lines()) == [
            'digraph {', '  "a";', '  "b";', '  "c";', '  "a" -> "c";', '  "b" -> "c";', '}']


class TestPrimPoset:
    def test_four_point_poset_with_extremes(self, graph_e):
        poset = prim_poset(graph_e)
        assert sorted(poset.elements) == ["v1", "v2", "v3", "v4"]
        assert {frozenset(pair) for pair in poset.covers} == {
            frozenset({"v1", "v2"}), frozenset({"v1", "v3"}),
            frozenset({"v2", "v4"}), frozenset({"v3", "v4"})}
        lowers, uppers = zip(*poset.covers)
        assert [e for e in poset.elements if e not in lowers] == ["v1"]
        assert [e for e in poset.elements if e not in uppers] == ["v4"]

    def test_single_loop_is_a_point(self):
        poset = prim_poset(Graph.from_adjacency(["w"], [[1]]))
        assert poset.elements == ("w",) and poset.covers == ()

    def test_two_comparable_points(self):
        poset = prim_poset(Graph.from_adjacency(["a", "b"], [[1, 1], [0, 1]]))
        assert poset.covers == (("b", "a"),)  # a reaches b, so b < a

    def test_cycle_condition_is_checked(self):
        graph = Graph.from_adjacency(["a", "b"], [[0, 1], [0, 1]])
        with pytest.raises(ValueError, match="requires every vertex on a cycle"):
            prim_poset(graph)

    def test_multi_vertex_component_is_one_element(self):
        graph = Graph.from_adjacency(["a", "b"], [[0, 1], [1, 0]])
        poset = prim_poset(graph)
        assert poset.elements == ("{a,b}",)

    def test_element_count_matches_component_count(self):
        rng = random.Random(31)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=7, loops_everywhere=True)
            poset = prim_poset(graph)
            # with loops everywhere, quotient by mutual reachability
            n = len(graph.vertices)
            reach = [set([i]) for i in range(n)]
            for i in range(n):
                stack = [i]
                while stack:
                    v = stack.pop()
                    for w in range(n):
                        if graph.adjacency[v, w] > 0 and w not in reach[i]:
                            reach[i].add(w)
                            stack.append(w)
            classes = {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)}
            assert len(poset.elements) == len(classes)

    def test_hereditary_sets_are_the_down_sets_of_prim(self):
        """Birkhoff: with every vertex on a cycle, the hereditary saturated
        sets are the unions of components over the down-sets of prim."""
        rng = random.Random(43)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=8, loops_everywhere=True)
            poset = prim_poset(graph)
            members = {e: _label_members(e) for e in poset.elements}
            unions = set()
            for r in range(len(poset.elements) + 1):
                for chosen in itertools.combinations(poset.elements, r):
                    if all(lower in chosen for lower, upper in poset.covers if upper in chosen):
                        unions.add(frozenset().union(*(members[e] for e in chosen)))
            assert set(enumerate_hereditary_saturated(graph)) == unions

    def test_covers_match_the_definition_on_random_graphs(self):
        """Exact output on seeded graphs with and without loops: elements in
        order of first vertex, sorted covers, and the error text when a
        vertex lies on no cycle."""
        rng = random.Random(53)
        errors = 0
        for k in range(240):
            drawn = random_graph(rng, max_vertices=9, loops_everywhere=k % 3 == 0)
            names = list(drawn.vertices)
            rng.shuffle(names)  # so label order and vertex order differ
            graph = Graph.from_adjacency(names, drawn.adjacency.to_lists())
            reach = reachable_sets(graph)
            if any(v not in reach[v] for v in range(len(names))):
                errors += 1
                with pytest.raises(ValueError) as info:
                    prim_poset(graph)
                assert str(info.value) == "prim computation requires every vertex on a cycle"
                continue
            components = sorted(_components(reach))

            def less(a, b):  # a < b when b reaches a
                return a != b and a[0] in reach[b[0]]

            expected = sorted((_label(graph, a), _label(graph, b))
                              for a, b in covers_by_definition(components, less))
            poset = prim_poset(graph)
            assert poset.elements == tuple(_label(graph, c) for c in components)
            assert poset.covers == tuple(expected)
        assert 15 <= errors <= 200

    def test_results_pass_the_full_diagram_validation(self):
        """prim_poset skips PosetDiagram's checks, its covers being a
        transitive reduction by construction; rebuilding each result
        through them, on seeded graphs of every kind drawn here, must
        raise nothing and give it back."""
        rng = random.Random(61)
        sizes = []
        for k in range(150):
            if k % 3:
                graph = random_looped_graph(rng, rng.randint(1, 40), rng.choice((0.05, 0.15)))
            else:
                graph = random_graph(rng, max_vertices=9, loops_everywhere=True)
            poset = prim_poset(graph)
            assert PosetDiagram(poset.elements, poset.covers) == poset
            sizes.append(len(poset.covers))
        assert sum(size >= 3 for size in sizes) >= 60

    def test_a_cycle_through_three_thousand_vertices_is_one_element(self):
        # a depth-first search down this path recurses 3000 deep
        n = 3000
        names = [f"c{i}" for i in range(n)]
        graph = Graph.from_adjacency(
            names, ((0,) * ((i + 1) % n) + (1,) + (0,) * (n - 1 - (i + 1) % n)
                    for i in range(n)))
        label = "{" + ",".join(names) + "}"
        assert prim_poset(graph) == PosetDiagram((label,), ())
        assert condition_k_failures(graph) == (label,)

    def test_two_thousand_vertices_within_the_gate(self):
        graph = random_looped_graph(random.Random(2000), 2000, 0.0035)
        start = time.perf_counter()
        poset = prim_poset(graph)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.3
        assert 1000 <= len(poset.elements) < 2000 and poset.covers


class TestConditionK:
    def test_bare_cycles_fail(self):
        assert condition_k_failures(Graph.from_adjacency(["w"], [[1]])) == ("w",)
        two_cycle = Graph.from_adjacency(["a", "b"], [[0, 1], [1, 0]])
        assert condition_k_failures(two_cycle) == ("{a,b}",)
        # the loops of the ROADMAP example are bare cycles, a above b
        graph = Graph.from_adjacency(["a", "b"], [[1, 1], [0, 1]])
        assert condition_k_failures(graph) == ("a", "b")

    def test_second_return_paths_pass(self, graph_e):
        assert condition_k_failures(graph_e) == ()
        assert condition_k_failures(Graph.from_adjacency(["w"], [[2]])) == ()
        chord = Graph.from_adjacency(["a", "b"], [[1, 1], [1, 0]])
        assert condition_k_failures(chord) == ()

    def test_acyclic_vertices_are_not_components_that_fail(self):
        graph = Graph.from_adjacency(["a", "b"], [[0, 1], [0, 2]])
        assert condition_k_failures(graph) == ()

    def test_against_edge_counts_on_random_graphs(self):
        rng = random.Random(59)
        verdicts = []
        for k in range(200):
            graph = random_graph(rng, max_vertices=8, loops_everywhere=k % 2 == 0)
            expected = sorted(sorted(c) for c in condition_k_failing_components(graph))
            assert condition_k_failures(graph) == tuple(
                _label(graph, tuple(c)) for c in expected)
            verdicts.append(bool(expected))
        assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40


def _components(reach):
    """Strongly connected components as sorted index tuples."""
    return {tuple(sorted({i} | {j for j in reach[i] if i in reach[j]}))
            for i in range(len(reach))}


def _label(graph, component):
    names = [graph.vertices[v] for v in component]
    return names[0] if len(names) == 1 else "{" + ",".join(names) + "}"


def _label_members(label):
    return frozenset(label.strip("{}").split(","))


class TestSubquotientK:
    @pytest.mark.parametrize("zset, parts", [
        ({"v4"}, [5]),
        ({"v3", "v4"}, [5, 3]),
        ({"v2", "v4"}, [5, 2]),
        ({"v2", "v3", "v4"}, [5, 3, 2]),
        (FULL, [7, 5, 3, 2]),
    ])
    def test_ideal_k_groups(self, graph_e, zset, parts):
        k0, k1 = subquotient_k(graph_e, zset, set())
        assert k0 == sum_of_cyclics(parts)
        assert k1.is_trivial

    def test_intermediate_quotients(self, graph_e):
        k0, k1 = subquotient_k(graph_e, FULL, {"v2", "v3", "v4"})
        assert k0 == FGAbelianGroup.cyclic(7) and k1.is_trivial
        k0, k1 = subquotient_k(graph_e, {"v2", "v3", "v4"}, {"v4"})
        assert k0 == FGAbelianGroup.cyclic(6) and k1.is_trivial

    def test_determinant_gives_the_order(self, graph_e):
        expected_dets = {frozenset({"v4"}): 5, frozenset({"v3", "v4"}): 15,
                         frozenset({"v2", "v4"}): 10,
                         frozenset({"v2", "v3", "v4"}): 30, FULL: 210}
        for zset, det in expected_dets.items():
            indices = [i for i, v in enumerate(graph_e.vertices) if v in zset]
            block = graph_e.adjacency.select_rows(indices).select_columns(indices)
            matrix = block.transpose() - IntMatrix.identity(len(indices))
            assert abs(matrix.determinant()) == det
            k0, k1 = subquotient_k(graph_e, zset, set())
            assert k0.order() == det and k1.is_trivial

    def test_k1_rank_is_the_nullity_on_graphs_with_lone_loops(self):
        rng = random.Random(47)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=7)
            n = len(graph.vertices)
            rows = graph.adjacency.to_lists()
            for v in rng.sample(range(n), rng.randint(1, n)):
                rows[v] = [int(w == v) for w in range(n)]  # a single loop
            graph = Graph.from_adjacency(graph.vertices, rows)
            k0, k1 = subquotient_k(graph, graph.vertices, set())
            nullity = n - rank_over_q([[rows[j][i] - (i == j) for j in range(n)]
                                       for i in range(n)])
            assert nullity > 0  # a lone loop gives a zero column
            assert k1 == FGAbelianGroup.free(nullity)
            assert k0.free_rank == nullity

    def test_empty_difference_is_trivial(self, graph_e):
        k0, k1 = subquotient_k(graph_e, {"v4"}, {"v4"})
        assert k0.is_trivial and k1.is_trivial

    def test_precondition_errors_are_named(self, graph_e):
        with pytest.raises(ValueError, match="Y is not contained in Z"):
            subquotient_k(graph_e, {"v4"}, {"v2", "v4"})
        with pytest.raises(ValueError, match="Z is not hereditary and saturated"):
            subquotient_k(graph_e, {"v2"}, set())
        with pytest.raises(ValueError, match="Y is not hereditary and saturated"):
            subquotient_k(graph_e, FULL, {"v1"})


class TestCrossedSubquotientK:
    def test_value_doubles_the_k0(self, graph_e):
        result = crossed_subquotient_k(graph_e, {"v3", "v4"}, set())
        assert result.k0 == FGAbelianGroup.cyclic(15)
        assert result.k1 == FGAbelianGroup.cyclic(15)

    def test_degenerate_empty_input(self, graph_e):
        result = crossed_subquotient_k(graph_e, set(), set())
        assert result.k0.is_trivial and result.k1.is_trivial

    def test_all_nested_pairs_resolve(self, graph_e):
        family = enumerate_hereditary_saturated(graph_e)
        for lower in family:
            for upper in family:
                if not lower <= upper:
                    continue
                k0, _ = subquotient_k(graph_e, upper, lower)
                result = crossed_subquotient_k(graph_e, upper, lower)
                assert result.k0 == k0
                assert result.k1 == k0
