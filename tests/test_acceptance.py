"""Acceptance suite.

One test per acceptance criterion; the conftest hook prints a PASS/FAIL
line per criterion as the suite runs.  All assertions are exact (integer
equality or canonical-form equality); there are no tolerances to tune.

Run with:  pytest tests/test_acceptance.py -v
"""

import json
import random
from itertools import product
from math import gcd

from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    _identity_rows,
    _smith,
    _transpose,
    cokernel,
    direct_sum,
    kernel,
    smith_normal_form,
)
from kdilate.cli import main
from kdilate.colimit import (
    DilationProblem,
    TAG_FINITE,
    classify_colimit,
    ker_coker_one_minus,
)
from kdilate.graphalg import (
    _closure_mask,
    enumerate_hereditary_saturated,
    prim_poset,
    subquotient_k,
    crossed_subquotient_k,
)
from kdilate.kcrossed import KTheoryData, bracket, pv_crossed_product
from oracles import (
    brute_hereditary_saturated,
    random_endomorphism,
    random_finite_group,
    random_graph,
    random_matrix,
)

Z = FGAbelianGroup.free(1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def cuntz_grid():
    for n in range(2, 31):
        for m in range(1, min(10, n - 1) + 1):
            yield n, m


def test_criterion_1_cuntz_family_table(capsys, fixtures_dir):
    """cuntz inf m gives (Z/(m-1), 0) with label O_m for m in 2..8, and
    (Z, Z) with label B for m = 1."""
    for m in range(2, 9):
        code, out = run_cli(capsys, "cuntz", "--format", "json", "inf", str(m))
        assert code == 0
        doc = json.loads(out)
        expected = FGAbelianGroup.cyclic(m - 1)
        assert doc["k0"]["free_rank"] == 0
        assert tuple(doc["k0"]["invariant_factors"]) == expected.invariant_factors
        assert doc["k1"] == {"free_rank": 0, "invariant_factors": [], "pretty": "0"}
        assert doc["label"] == f"O_{m}"
        # the shipped fixture grid drives the same command
        code, out = run_cli(capsys, "cuntz", "--format", "json", "--input",
                            str(fixtures_dir / "cuntz" / f"inf_m{m}.json"))
        assert code == 0 and json.loads(out)["label"] == f"O_{m}"
    code, out = run_cli(capsys, "cuntz", "inf", "1")
    assert code == 0
    assert out.splitlines()[0] == "K0 = Z, K1 = Z, label = B"


def test_criterion_2_colimit_closed_form():
    """classify_colimit(Z/(n-1), x m) is Z/k with
    k = bracket(gcd(n-1, m), n-1), exactly, over the whole grid."""
    for n, m in cuntz_grid():
        base = FGAbelianGroup.cyclic(n - 1)
        description = classify_colimit(
            DilationProblem(base, GroupHom.multiplication(base, m)))
        k = bracket(gcd(n - 1, m), n - 1)
        assert description.tag == TAG_FINITE
        assert description.fg_part == FGAbelianGroup.cyclic(k), (n, m)


def test_criterion_3_ker_coker_oracle_suite():
    """ker_coker_one_minus agrees with elementwise enumeration of
    x -> x - m*x on the classified colimit Z/k, over the whole grid.

    The suite also settles the competing closed forms for the torsion
    order: enumeration confirms gcd(k, m-1) at every grid point, while the
    quotient form k/gcd(k, m-1) disagrees at 207 of the 245 points (first
    at n=3, m=1).  All emitted values use the gcd form.
    """
    quotient_form_disagreements = 0
    grid_points = 0
    for n, m in cuntz_grid():
        base = FGAbelianGroup.cyclic(n - 1)
        problem = DilationProblem(base, GroupHom.multiplication(base, m))
        colimit = classify_colimit(problem)
        k = colimit.fg_part.order()
        # independent elementwise oracle on Z/k
        kernel_size = sum(1 for x in range(k) if (x - m * x) % k == 0)
        image_size = len({(x - m * x) % k for x in range(k)})
        coker_size = k // image_size
        ker, cok = ker_coker_one_minus(problem)
        assert ker == FGAbelianGroup.cyclic(kernel_size), (n, m)
        assert cok == FGAbelianGroup.cyclic(coker_size), (n, m)
        # the gcd closed form is the oracle-confirmed one
        g = gcd(k, m - 1)
        assert kernel_size == g and coker_size == g, (n, m)
        grid_points += 1
        if k // g != g:
            quotient_form_disagreements += 1
    assert grid_points == 245
    assert quotient_form_disagreements == 207
    print("criterion 3 outcome: enumeration confirms torsion order gcd(k, m-1); "
          f"the quotient form k/gcd(k, m-1) disagrees at "
          f"{quotient_form_disagreements}/{grid_points} grid points")


def test_criterion_4_hereditary_saturated_sets_of_e(capsys, fixtures_dir, graph_e):
    """Exactly the six listed subsets, no more, no fewer."""
    expected = [frozenset(), frozenset({"v4"}), frozenset({"v2", "v4"}),
                frozenset({"v3", "v4"}), frozenset({"v2", "v3", "v4"}),
                frozenset({"v1", "v2", "v3", "v4"})]
    assert enumerate_hereditary_saturated(graph_e) == expected
    code, out = run_cli(capsys, "graph-hs", "--input", str(fixtures_dir / "E.json"))
    assert code == 0
    assert out.splitlines() == ["{}", "{v4}", "{v2,v4}", "{v3,v4}",
                                "{v2,v3,v4}", "{v1,v2,v3,v4}"]


def test_criterion_5_subquotient_k_groups_of_e(graph_e):
    """The five displayed K-group values, up to canonical-form isomorphism,
    all with K1 = 0."""
    cases = [
        ({"v4"}, [5]),
        ({"v3", "v4"}, [5, 3]),
        ({"v2", "v4"}, [5, 2]),
        ({"v2", "v3", "v4"}, [5, 3, 2]),
        ({"v1", "v2", "v3", "v4"}, [7, 5, 3, 2]),
    ]
    for zset, parts in cases:
        k0, k1 = subquotient_k(graph_e, zset, set())
        expected = FGAbelianGroup.trivial()
        for p in parts:
            expected = direct_sum(expected, FGAbelianGroup.cyclic(p))
        assert k0 == expected, (zset, k0, expected)
        assert k1.is_trivial, zset


def test_criterion_6_primitive_ideal_poset_of_e(graph_e):
    """Four elements, undirected cover graph {1-2, 1-3, 2-4, 3-4}, with 1
    and 4 the unique extremes."""
    poset = prim_poset(graph_e)
    assert len(poset.elements) == 4
    assert {frozenset(pair) for pair in poset.covers} == {
        frozenset({"v1", "v2"}), frozenset({"v1", "v3"}),
        frozenset({"v2", "v4"}), frozenset({"v3", "v4"})}
    lowers, uppers = zip(*poset.covers)
    maximal = tuple(e for e in poset.elements if e not in lowers)
    minimal = tuple(e for e in poset.elements if e not in uppers)
    assert {maximal, minimal} == {("v1",), ("v4",)}


def test_criterion_7_crossed_subquotient_k(graph_e):
    """For every nested pair of the six sets the crossed product doubles
    the subquotient K0: output (K0, K0), resolved."""
    family = enumerate_hereditary_saturated(graph_e)
    checked = 0
    for lower, upper in product(family, repeat=2):
        if not lower <= upper:
            continue
        k0, k1 = subquotient_k(graph_e, upper, lower)
        assert k1.is_trivial
        result = crossed_subquotient_k(graph_e, upper, lower)
        assert result.k0 == k0
        assert result.k1 == k0
        checked += 1
    assert checked == 20  # 14 proper inclusions plus the 6 equal pairs


def test_criterion_8a_snf_contract_on_500_random_matrices():
    rng = random.Random(20_08)
    for _ in range(500):
        m = random_matrix(rng, max_dim=8, max_entry=50)
        result = smith_normal_form(m)
        assert result.U @ m @ result.V == result.S
        # the U^{-1} the engine tracks beside U, as for a quotient's lift
        _, _, u_inv, _ = _smith([list(r) for r in m.entries], m.cols, _identity_rows(m.rows),
                                _identity_rows(m.rows), None)
        assert result.U @ IntMatrix.from_rows(_transpose(u_inv, m.rows), m.rows) \
            == IntMatrix.identity(m.rows)
        assert abs(result.U.determinant()) == 1
        assert abs(result.V.determinant()) == 1
        diagonal = [d for d in result.diagonal() if d != 0]
        assert all(d > 0 for d in diagonal)
        assert all(diagonal[i + 1] % diagonal[i] == 0 for i in range(len(diagonal) - 1))
        for i in range(result.S.rows):
            for j in range(result.S.cols):
                if i != j:
                    assert result.S[i, j] == 0


def test_criterion_8b_kernel_cokernel_orders_on_200_random_endomorphisms():
    rng = random.Random(20_09)
    for _ in range(200):
        group = random_finite_group(rng, max_order=10_000)
        endo = random_endomorphism(rng, group)
        assert kernel(endo)[0].order() == cokernel(endo)[0].order()


def test_criterion_8c_closure_laws_on_100_random_graphs():
    rng = random.Random(20_10)
    for _ in range(100):
        graph = random_graph(rng, max_vertices=8)
        names = list(graph.vertices)
        small = frozenset(v for v in names if rng.random() < 0.35)
        large = small | frozenset(v for v in names if rng.random() < 0.35)
        small, large = graph.mask_of(small), graph.mask_of(large)
        closed = _closure_mask(graph, small)
        assert small & ~closed == 0
        assert _closure_mask(graph, closed) == closed
        assert closed & ~_closure_mask(graph, large) == 0


def test_criterion_8d_enumeration_matches_brute_force_up_to_12_vertices(graph_e):
    rng = random.Random(20_11)
    graphs = [graph_e]
    for size in range(1, 13):
        for _ in range(2):
            graphs.append(random_graph(rng, max_vertices=size))
    for graph in graphs:
        assert len(graph.vertices) <= 12
        fast = enumerate_hereditary_saturated(graph)
        assert len(set(fast)) == len(fast)
        assert set(fast) == set(brute_hereditary_saturated(graph))


def test_criterion_9_trivial_action_sanity():
    """pv_crossed_product on (Z, 0) with the identity action gives (Z, Z)."""
    data = KTheoryData(Z, FGAbelianGroup.trivial(),
                       GroupHom.identity(Z),
                       GroupHom.identity(FGAbelianGroup.trivial()))
    result = pv_crossed_product(data)
    assert result.k0 == Z
    assert result.k1 == Z
