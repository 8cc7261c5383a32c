import random
import time
from functools import reduce
from itertools import product
from math import gcd

import pytest

from kdilate import colimit
from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    _cokernel_with_maps,
    _quotient_with_maps,
    _row_hermite,
    block_diagonal,
    direct_sum,
    element_is_zero,
    integer_kernel_basis,
    smith_normal_form,
)
from kdilate.colimit import (
    ColimitDescription,
    DilationProblem,
    TAG_EXTENSION,
    TAG_FINITE,
    TAG_LOCALIZED,
    classify_colimit,
    eventual_kernel,
    ker_coker_one_minus,
)
from oracles import (
    brute_one_minus_ker_coker,
    charpoly_faddeev_leverrier,
    conjugate,
    divisor_search_diagonal,
    eventual_kernel_step_by_step,
    prime_factors,
    random_endomorphism,
    random_finite_group,
    random_group,
    random_unimodular,
    smith_kernel_generators,
    subgroup_invariant_factors,
)

Z = FGAbelianGroup.free(1)


def cyclic_problem(k, m):
    group = FGAbelianGroup.cyclic(k)
    return DilationProblem(group, GroupHom.multiplication(group, m))


def times_m_on_z(m):
    return DilationProblem(Z, GroupHom.multiplication(Z, m))


def stripped(k, m):
    """k with every prime factor of m removed."""
    c = k
    while (g := gcd(c, m)) > 1:
        c //= g
    return c


class TestEventualKernel:
    def test_doubling_on_z4_absorbs_everything(self):
        group, index = eventual_kernel(cyclic_problem(4, 2))
        assert group == FGAbelianGroup.cyclic(4)
        assert index == 2

    def test_injective_map_stabilizes_immediately(self):
        group, index = eventual_kernel(times_m_on_z(7))
        assert group.is_trivial
        assert index == 0

    def test_doubling_on_z6(self):
        group, index = eventual_kernel(cyclic_problem(6, 2))
        assert group == FGAbelianGroup.cyclic(2)
        assert index == 1

    def test_doubling_on_z1024_absorbs_everything_at_index_10(self):
        group, index = eventual_kernel(cyclic_problem(2**10, 2))
        assert group == FGAbelianGroup.cyclic(2**10)
        assert index == 10

    def test_long_chains_end_without_a_cap(self):
        problem = cyclic_problem(2**4000, 2)
        assert eventual_kernel(problem) == (FGAbelianGroup.cyclic(2**4000), 4000)

    def test_matches_the_step_by_step_chain(self):
        # t* <= r + Omega(|T|) for the eventual kernel of rank r and torsion T
        rng = random.Random(23)
        indices = set()
        for _ in range(250):
            orders = [0] * rng.randint(0, 3) + [
                rng.choice((2, 3, 4, 8, 9, 12, 16, 27, 32, 64, 81, 128, 1024))
                for _ in range(rng.randint(0, 3))]
            base = reduce(direct_sum, map(FGAbelianGroup.cyclic, orders), FGAbelianGroup.trivial())
            matrix = random_endomorphism(rng, base).matrix.scale(rng.choice((1, 2, 3, 6)))
            rows, t = matrix.to_lists(), base.torsion_count
            if rng.random() < 0.4:  # a nilpotent free block
                for i in range(t, len(rows)):
                    rows[i][t:i + 1] = [0] * (i + 1 - t)
            endo = GroupHom(base, base, IntMatrix.from_rows(rows, cols=base.num_generators))
            problem = DilationProblem(base, endo)
            group, index = eventual_kernel(problem)
            expected, expected_index, _ = eventual_kernel_step_by_step(base, endo)
            assert (group, index) == (expected, expected_index)
            omega = sum(prime_factors(group.torsion_part().order()).values())
            assert index <= group.free_rank + omega
            indices.add(index)
        assert indices >= set(range(8)) | {10}

    def test_free_injective_tower_builds_no_identity_map(self, monkeypatch):
        # the injective shortcut takes no power of f, so neither the
        # eventual kernel nor the classification builds the identity map
        base = FGAbelianGroup.free(2)
        problem = DilationProblem(base, GroupHom(base, base, IntMatrix.from_rows([[2, 1], [0, 3]])))

        def refuse(group):
            raise AssertionError("GroupHom.identity was called")
        monkeypatch.setattr(GroupHom, "identity", refuse)
        assert eventual_kernel(problem) == (FGAbelianGroup.trivial(), 0)
        assert classify_colimit(problem).tag == TAG_LOCALIZED

    def test_zero_endomorphism_on_free_group(self):
        group, index = eventual_kernel(times_m_on_z(0))
        assert group == Z
        assert index == 1

    def test_free_kernel_of_rank_one(self):
        base = FGAbelianGroup.free(2)
        endo = GroupHom(base, base, IntMatrix.from_rows([[1, 1], [1, 1]]))
        group, index = eventual_kernel(DilationProblem(base, endo))
        assert group == Z
        assert index == 1

    def test_long_chain_takes_one_generator_set_per_doubling(self, monkeypatch):
        # t* = 4000: one kernel of f^(2^i) for each i = 0..13, the last of
        # them the eventual kernel, and no kernel after them
        kernels, kernel = [], colimit.kernel
        monkeypatch.setattr(colimit, "kernel", lambda f: kernels.append(f) or kernel(f))
        assert eventual_kernel(cyclic_problem(2**4000, 2)) == (FGAbelianGroup.cyclic(2**4000), 4000)
        assert [f.matrix[0, 0] for f in kernels] == [2**(2**i) % 2**4000 for i in range(14)]

    @pytest.mark.parametrize("rows, printed, index", [
        ([[2, 1, 1], [1, 3, 2], [3, 4, 3]], "colim(Z^2, [[11, -3], [14, -3]])", 1),
        ([[1, 2, 3], [2, 5, 7], [3, 7, 10]], "colim(Z^2, [[4, 9], [5, 12]])", 1),
        ([[0, 1, 1], [2, 1, 3], [2, 2, 4]], "colim(Z^2, [[2, 3], [4, 3]])", 1),
        ([[-3, 0, -2, 2, 1], [-3, 2, -2, 3, 1], [2, -1, 1, -3, 2], [2, 3, -3, 3, -2],
          [3, -2, 2, -3, -1]],
         "colim(Z^3, [[-18, 23, -24], [55, -97, 97], [66, -117, 117]])", 2),
        ([[-3, -3, 2, 1, -1], [-3, 3, 0, 2, 1], [-3, 3, 0, 1, 0], [1, 2, -3, 2, -3],
          [-1, -2, 3, -2, 3]],
         "colim(Z^3, [[-2125, 539, 1616], [-1575, 402, 1196], [-2272, 576, 1728]])", 2),
    ])
    def test_tower_printed_after_a_free_eventual_kernel(self, rows, printed, index):
        # in the reduced row Hermite basis of the free quotient map
        base = FGAbelianGroup.free(len(rows))
        problem = DilationProblem(base, GroupHom(base, base, IntMatrix.from_rows(rows)))
        description = classify_colimit(problem)
        assert str(description) == printed
        assert description.localized_diagonal() is None
        kernel_rank = len(rows) - description.loc_matrix.rows
        assert eventual_kernel(problem) == (FGAbelianGroup.free(kernel_rank), index)

    def test_printed_tower_is_the_same_for_every_generating_set(self, monkeypatch):
        # the free block H M R after the eventual kernel, for generators from
        # kernel(), from the Smith form's V, and from recombinations of
        # either; Q M = M' Q for the Hermite form Q of the annihilator, and
        # the parent basis (Smith-V generators, U's rows) is similar to it
        rng = random.Random(31)
        nonzero = with_torsion = 0
        for k in range(1000):
            problem = _seeded_problem(rng, k)
            base, m, n = problem.base, problem.endo.matrix, problem.base.num_generators
            group, gens = colimit._stable_kernel(problem)
            eventual_power = eventual_kernel_step_by_step(base, problem.endo)[2]
            routes = [gens, smith_kernel_generators(eventual_power)]
            routes += [_recombined(rng, route, n) for route in routes]
            printed = set()
            for gens in routes:
                monkeypatch.setattr(colimit, "_stable_kernel",
                                    lambda problem, gens=gens: (group, gens))
                quotient, induced = colimit._injective_quotient(problem)
                t = quotient.torsion_count
                free = induced.matrix.select_rows(range(t, quotient.num_generators)) \
                    .select_columns(range(t, quotient.num_generators))
                printed.add((free, str(classify_colimit(problem))))
            monkeypatch.undo()
            assert len(printed) == 1
            (free, _), = printed
            stacked = base.relation_rows().entries + tuple(routes[1])
            q = IntMatrix.from_rows(hermite_rows(integer_kernel_basis(
                IntMatrix.from_rows(stacked, cols=n))), n)
            assert q @ m == free @ q
            assert smith_normal_form(q).diagonal() == (1,) * q.rows
            rows = base.relation_rows().vstack(IntMatrix.from_rows(routes[1], cols=n))
            quotient, projection, lift = _quotient_with_maps(n, rows)
            t = quotient.torsion_count
            parent = (projection @ m @ lift).select_rows(range(t, quotient.num_generators)) \
                .select_columns(range(t, quotient.num_generators))
            assert charpoly_faddeev_leverrier(free.to_lists()) == \
                charpoly_faddeev_leverrier(parent.to_lists())
            nonzero += not group.is_trivial
            with_torsion += not base.is_free
        assert nonzero >= 30 and with_torsion >= 300


def _seeded_problem(rng, k):
    """Free Z^n (n <= 5, entries in [-3, 3]) on even k, a mixed base on odd
    k; the free block singular or nilpotent often enough that the eventual
    kernel is nonzero in most problems."""
    if k % 2 == 0:
        base = FGAbelianGroup.free(rng.randint(1, 5))
        rows = [[rng.randint(-3, 3) for _ in range(base.free_rank)]
                for _ in range(base.free_rank)]
    else:
        orders = [0] * rng.randint(1, 4) + [rng.choice((2, 3, 4, 6, 8, 9, 12))
                                            for _ in range(rng.randint(1, 2))]
        base = reduce(direct_sum, map(FGAbelianGroup.cyclic, orders), FGAbelianGroup.trivial())
        rows = random_endomorphism(rng, base).matrix.to_lists()
    t, n = base.torsion_count, base.num_generators
    r = n - t
    if rng.random() < 0.5 and r > 1:  # a free block of rank below r
        inner = rng.randint(1, r - 1)
        left = [[rng.randint(-2, 2) for _ in range(inner)] for _ in range(r)]
        right = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(inner)]
        for i in range(r):
            rows[t + i][t:] = [sum(a * b for a, b in zip(left[i], col)) for col in zip(*right)]
    elif rng.random() < 0.3:  # a nilpotent corner
        for i in range(t, n):
            rows[i][t:i + 1] = [0] * (i + 1 - t)
    return DilationProblem(base, GroupHom(base, base, IntMatrix.from_rows(rows, cols=n)))


def _recombined(rng, gens, n):
    """A random unimodular recombination of the vectors, with a duplicate
    and a zero vector added, shuffled."""
    p, _ = random_unimodular(rng, len(gens))
    out = [tuple(sum(c * g[j] for c, g in zip(row, gens)) for j in range(n)) for row in p]
    out += [rng.choice(out)] if out else []
    out.append((0,) * n)
    rng.shuffle(out)
    return out


def hermite_rows(vectors):
    """Nonzero rows of the reduced row Hermite form of the vectors' span."""
    rows, _, _ = _row_hermite([list(v) for v in vectors], None, None)
    return [row for row in rows if any(row)]


class TestClassifyColimit:
    def test_z6_times_2_collapses_to_z3(self):
        description = classify_colimit(cyclic_problem(6, 2))
        assert description.tag == TAG_FINITE
        assert description.fg_part == FGAbelianGroup.cyclic(3)
        # the induced automorphism of the colimit
        quotient, induced = colimit._injective_quotient(cyclic_problem(6, 2))
        assert quotient == description.fg_part
        assert induced.matrix.to_lists() == [[2]]

    def test_z_times_m_localizes(self):
        description = classify_colimit(times_m_on_z(5))
        assert description.tag == TAG_LOCALIZED
        assert description.loc_matrix.rows == 1
        assert description.localized_diagonal() == (5,)
        assert str(description) == "Z[1/5]"

    def test_identity_returns_the_group(self):
        for group in (FGAbelianGroup.trivial(), Z, FGAbelianGroup(0, (2, 12)),
                      FGAbelianGroup(2, (3,))):
            description = classify_colimit(
                DilationProblem(group, GroupHom.identity(group)))
            assert description.tag == TAG_FINITE
            assert description.fg_part == group

    def test_closed_form_grid(self):
        for k in range(2, 201):
            for m in range(1, 21):
                description = classify_colimit(cyclic_problem(k, m))
                assert description.tag == TAG_FINITE
                assert description.fg_part == FGAbelianGroup.cyclic(stripped(k, gcd(k, m))), \
                    (k, m)

    def test_zero_map_gives_trivial_colimit(self):
        description = classify_colimit(times_m_on_z(0))
        assert description.tag == TAG_FINITE and description.fg_part.is_trivial

    def test_unimodular_free_action_stays_fg(self):
        base = FGAbelianGroup.free(2)
        endo = GroupHom(base, base, IntMatrix.from_rows([[0, 1], [1, 0]]))
        description = classify_colimit(DilationProblem(base, endo))
        assert description.tag == TAG_FINITE and description.fg_part == base

    def test_mixed_group_with_invariant_complement_splits(self):
        base = FGAbelianGroup(1, (4,))
        endo = GroupHom(base, base, IntMatrix.from_rows([[1, 2], [0, 2]]))
        description = classify_colimit(DilationProblem(base, endo))
        assert description.tag == TAG_EXTENSION and description.resolved
        assert str(description) == "Z/4 + Z[1/2]"

    def test_mixed_group_without_complement_reports_extension(self):
        base = FGAbelianGroup(1, (2,))
        endo = GroupHom(base, base, IntMatrix.from_rows([[1, 1], [0, 3]]))
        description = classify_colimit(DilationProblem(base, endo))
        assert description.tag == TAG_EXTENSION and not description.resolved
        assert description.sub.fg_part == FGAbelianGroup.cyclic(2)
        assert description.quot.localized_diagonal() == (3,)
        assert "unresolved" in str(description)

    def test_conjugated_block_actions_are_recognized_as_split(self):
        # conjugating diag(A, D) by [[I, w], [0, I]] hides the splitting in
        # the mixing block A@w - w@D; the classifier must still find it
        rng = random.Random(37)
        for _ in range(60):
            factors = sorted(rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(1, 2)))
            while any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
                factors = sorted(rng.choice([2, 3, 4, 6, 9, 12])
                                 for _ in range(rng.randint(1, 2)))
            t, r = len(factors), rng.randint(1, 2)
            base = FGAbelianGroup(r, tuple(factors))
            torsion = base.torsion_part()
            torsion_map = random_endomorphism(rng, torsion).matrix
            free_map = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
            if free_map.determinant() == 0:
                continue
            w = IntMatrix.from_rows([[rng.randint(0, 5) for _ in range(r)]
                                     for _ in range(t)], cols=r)
            mixing = torsion_map @ w + -(w @ free_map)
            rows = [a + b for a, b in zip(torsion_map.entries, mixing.entries)]
            rows += [(0,) * t + row for row in free_map.entries]
            endo = GroupHom(base, base, IntMatrix.from_rows(rows, cols=t + r))
            description = classify_colimit(DilationProblem(base, endo))
            split_parts = ColimitDescription.extension(
                classify_colimit(DilationProblem(torsion, GroupHom(torsion, torsion, torsion_map))),
                classify_colimit(DilationProblem(FGAbelianGroup.free(r),
                                                 GroupHom(FGAbelianGroup.free(r),
                                                          FGAbelianGroup.free(r), free_map))),
                resolved=True)
            outcome = description.isomorphic(split_parts)
            assert outcome is True or outcome is None  # None only for non-diagonal towers
            if description.tag == TAG_EXTENSION:
                assert description.resolved

    def test_complement_exists_exactly_when_a_search_finds_a_splitting(self):
        # u splits the extension when A u - u D + B = 0 with row i in Z/d_i;
        # the search tries every u whose row i has entries in [0, d_i)
        rng = random.Random(53)
        orders = (2, 3, 4, 6, 8, 9)
        chains = [(d,) for d in orders] + [c for c in product(orders, repeat=2)
                                           if c[1] % c[0] == 0]
        outcomes = set()
        for _ in range(120):
            factors, r = rng.choice(chains), rng.randint(1, 2)
            t = len(factors)
            group = FGAbelianGroup(r, factors)
            a = random_endomorphism(rng, group.torsion_part()).matrix
            d = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
            b = IntMatrix.from_rows([[rng.randrange(di) for _ in range(r)] for di in factors])

            def solves(entries):
                u = IntMatrix.from_rows([entries[i * r:(i + 1) * r] for i in range(t)])
                residue = a @ u + -(u @ d) + b
                return all(x % di == 0 for di, row in zip(factors, residue.entries) for x in row)

            splits = any(map(solves, product(*(range(di) for di in factors for _ in range(r)))))
            assert colimit._equivariant_complement_exists(group, a, b, d) is splits, \
                (factors, a, b, d)
            outcomes.add(splits)
        assert outcomes == {True, False}


class TestKerCokerOneMinus:
    def test_z_times_m_gives_zero_and_zmod_m_minus_one(self):
        for m in (2, 3, 7, 12):
            ker, cok = ker_coker_one_minus(times_m_on_z(m))
            assert ker.is_trivial
            assert cok == FGAbelianGroup.cyclic(m - 1)

    def test_identity_on_z_gives_z_twice(self):
        ker, cok = ker_coker_one_minus(times_m_on_z(1))
        assert ker == Z
        assert cok == Z

    def test_z6_times_2_vanishes_both_ways(self):
        # the colimit is Z/3 where x -> x - 2x = -x is bijective
        ker, cok = ker_coker_one_minus(cyclic_problem(6, 2))
        assert ker.is_trivial
        assert cok.is_trivial

    def test_brute_force_oracle_on_finite_bases(self):
        rng = random.Random(21)
        for trial in range(30):
            group = random_finite_group(rng, max_order=2000 if trial < 28 else 10_000)
            endo = random_endomorphism(rng, group)
            problem = DilationProblem(group, endo)
            description = classify_colimit(problem)
            assert description.tag == TAG_FINITE  # finite base, finite colimit
            # the colimit with its induced automorphism
            quotient, induced = colimit._injective_quotient(problem)
            assert quotient == description.fg_part
            expected_ker, expected_cok = brute_one_minus_ker_coker(
                quotient.generator_orders(), induced.matrix.to_lists())
            ker, cok = ker_coker_one_minus(problem)
            assert isinstance(ker, FGAbelianGroup) and isinstance(cok, FGAbelianGroup)
            assert ker.invariant_factors == expected_ker
            assert cok.invariant_factors == expected_cok
            # equal orders on a finite base
            assert ker.order() == cok.order()

    def test_no_classification_for_either_end(self, monkeypatch):
        classified = []
        classify = colimit.classify_colimit
        monkeypatch.setattr(colimit, "classify_colimit",
                            lambda problem: classified.append(problem) or
                            classify(problem))
        base = FGAbelianGroup(2, (2,))  # Z/2 + Z^2
        endo = GroupHom(base, base, IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]]))
        ker, cok = ker_coker_one_minus(DilationProblem(base, endo))
        assert classified == []
        assert ker == FGAbelianGroup(1, (2,))
        assert cok == Z

    def test_cokernel_end_is_the_constant_tower(self):
        # f induces the identity on coker(1 - f), since f(x) = x - (1 - f)(x),
        # so classifying its tower changes nothing
        rng = random.Random(23)
        mixed = 0
        for _ in range(240):
            base = random_group(rng)
            f = random_endomorphism(rng, base)
            cok, projection, lift = _cokernel_with_maps(GroupHom.identity(base) - f)
            induced = GroupHom(cok, cok, projection.matrix @ f.matrix @ lift)
            assert induced == GroupHom.identity(cok)
            _, cok_end = ker_coker_one_minus(DilationProblem(base, f))
            assert (ColimitDescription.finite(cok_end)
                    == classify_colimit(DilationProblem(cok, induced)))
            mixed += base.free_rank > 0 and base.torsion_count > 0
        assert mixed >= 40

    def test_kernel_end_is_the_classified_constant_tower(self):
        # f fixes ker(1 - f) pointwise, so classifying its tower changes nothing
        rng = random.Random(22)
        for _ in range(60):
            base = random_group(rng)
            ker, _ = ker_coker_one_minus(
                DilationProblem(base, random_endomorphism(rng, base)))
            assert (ColimitDescription.finite(ker)
                    == classify_colimit(DilationProblem(ker, GroupHom.identity(ker))))

    def test_kernel_and_cokernel_orders_agree_when_finite(self):
        for k in range(2, 40):
            for m in range(1, 8):
                ker, cok = ker_coker_one_minus(cyclic_problem(k, m))
                assert ker.order() == cok.order()


def dies_in_colimit(problem, coords):
    """Whether x in the base, at any level of the tower, is zero in the
    colimit: f^t*(x) = 0 for the index t* that `eventual_kernel` gives."""
    base, value = problem.base, problem.base.reduce(coords)
    for _ in range(eventual_kernel(problem)[1]):
        value = problem.endo.apply(value)
    return element_is_zero(base, value)


class TestColimElements:
    def test_torsion_element_dies(self):
        problem = cyclic_problem(4, 2)
        assert dies_in_colimit(problem, (1,))
        assert not element_is_zero(problem.base, problem.endo.apply((1,)))

    def test_injective_system_keeps_nonzero_elements(self):
        problem = times_m_on_z(2)
        assert all(dies_in_colimit(problem, (x,)) == (x == 0) for x in range(-9, 10))

    def test_zero_coordinates_are_zero(self):
        base = FGAbelianGroup(1, (4,))
        problem = DilationProblem(base, GroupHom(base, base, IntMatrix.from_rows([[1, 1], [0, 3]])))
        assert dies_in_colimit(problem, (0, 0))
        assert dies_in_colimit(problem, (8, 0))
        assert not dies_in_colimit(problem, (1, 0))

    def test_long_chain_element_dies_at_its_index(self):
        problem = cyclic_problem(2**40, 2)
        value = (1,)
        for _ in range(39):
            value = problem.endo.apply(value)
        assert not element_is_zero(problem.base, value)
        assert dies_in_colimit(problem, (1,))

    def test_against_iterated_application(self):
        rng = random.Random(13)
        for _ in range(40):
            group = random_finite_group(rng, max_order=500)
            endo = random_endomorphism(rng, group)
            problem = DilationProblem(group, endo)
            coords = tuple(rng.randrange(d) for d in group.generator_orders())
            value = coords
            dies = False
            for _ in range(group.order().bit_length() + 1):
                if all(v == 0 for v in value):
                    dies = True
                    break
                value = endo.apply(value)
            dies = dies or all(v == 0 for v in value)
            assert dies_in_colimit(problem, coords) == dies

    def test_dying_elements_are_the_stable_kernel(self):
        # on small finite bases, by enumeration: the elements that die are
        # the eventual kernel, and the stable kernel's generators span them
        rng = random.Random(29)
        for _ in range(40):
            base = random_finite_group(rng, max_order=200)
            problem = DilationProblem(base, random_endomorphism(rng, base))
            orders = base.generator_orders()
            dying = {x for x in product(*map(range, orders)) if dies_in_colimit(problem, x)}
            group, gens = colimit._stable_kernel(problem)
            assert subgroup_invariant_factors(dying, orders) == group.generator_orders()
            zero = base.reduce((0,) * len(orders))
            span, frontier = {zero}, [zero]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = base.reduce(tuple(a + b for a, b in zip(x, g)))
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
            assert span == dying


class TestDescriptionAlgebra:
    def test_functoriality_over_direct_sums(self):
        cases = [
            (cyclic_problem(6, 2), cyclic_problem(4, 3)),
            (cyclic_problem(6, 2), times_m_on_z(2)),
            (times_m_on_z(2), times_m_on_z(3)),
            (times_m_on_z(1), cyclic_problem(5, 2)),
        ]
        for left, right in cases:
            summed_group, summed_endo = _sum_problem(left, right)
            combined = classify_colimit(DilationProblem(summed_group, summed_endo))
            parts = ColimitDescription.extension(classify_colimit(left), classify_colimit(right),
                                                 resolved=True)
            assert combined.isomorphic(parts) is True, (str(combined), str(parts))

    def test_localized_isomorphism_uses_prime_support(self):
        d2 = classify_colimit(times_m_on_z(2))
        d4 = classify_colimit(times_m_on_z(4))
        d6 = classify_colimit(times_m_on_z(6))
        assert d2.isomorphic(d4) is True
        assert d2.isomorphic(d6) is False

    def test_large_prime_multiplier_compares_without_factoring(self):
        mersenne = ColimitDescription.localized(IntMatrix.from_rows([[2**61 - 1]]))
        halves = ColimitDescription.localized(IntMatrix.from_rows([[2]]))
        start = time.perf_counter()
        same = mersenne.isomorphic(mersenne)
        different = mersenne.isomorphic(halves)
        elapsed = time.perf_counter() - start
        assert same is True and different is False
        assert elapsed < 0.01

    def test_multipliers_match_by_prime_support_as_multisets(self):
        def tower(rows):
            return ColimitDescription.localized(IntMatrix.from_rows(rows))
        left = tower([[6, 0, 0], [0, 2, 0], [0, 0, 1]])
        assert left.isomorphic(tower([[4, 0, 0], [0, 1, 0], [0, 0, 12]])) is True
        assert left.isomorphic(tower([[3, 0, 0], [0, 2, 0], [0, 0, 1]])) is False
        assert left.isomorphic(tower([[6, 0], [0, 2]])) is False
        free = ColimitDescription.finite(FGAbelianGroup.free(1))
        ext = ColimitDescription.extension(free, classify_colimit(times_m_on_z(2)), resolved=True)
        assert ext.isomorphic(tower([[1, 0], [0, 8]])) is True

    def test_non_diagonalizable_tower_is_undetermined(self):
        jordan = ColimitDescription.localized(IntMatrix.from_rows([[2, 1], [0, 2]]))
        assert jordan.localized_diagonal() is None
        assert jordan.isomorphic(jordan) is None
        assert "colim(Z^2" in str(jordan)

    def test_permutation_tower_is_undetermined_but_printable(self):
        swap_scale = ColimitDescription.localized(IntMatrix.from_rows([[0, 2], [3, 0]]))
        assert swap_scale.localized_diagonal() is None

    def test_finite_description_formatting(self):
        description = ColimitDescription.finite(FGAbelianGroup(0, (2, 6)))
        assert str(description) == "Z/2 + Z/6"

    def test_localized_power_grouping(self):
        tower = ColimitDescription.localized(
            IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
        assert str(tower) == "Z[1/2]^2 + Z[1/3]"
        unit = ColimitDescription.localized(IntMatrix.from_rows([[1, 0], [0, 2]]))
        assert str(unit) == "Z + Z[1/2]"

    def test_resolved_extension_formatting(self):
        fin = ColimitDescription.finite(direct_sum(FGAbelianGroup.cyclic(4),
                                                   FGAbelianGroup.cyclic(3)))
        loc = ColimitDescription.localized(IntMatrix.from_rows([[2]]))
        ext = ColimitDescription.extension(fin, loc, resolved=True)
        assert str(ext) == "Z/12 + Z[1/2]"


def _sum_problem(left: DilationProblem, right: DilationProblem):
    """The block-diagonal endomorphism of the two on the canonical direct
    sum of their bases, through the maps that canonicalize the juxtaposed
    presentation."""
    group, projection, lift = _quotient_with_maps(
        left.base.num_generators + right.base.num_generators,
        block_diagonal(left.base.relation_rows(), right.base.relation_rows()))
    block = block_diagonal(left.endo.matrix, right.endo.matrix)
    return group, GroupHom(group, group, projection @ block @ lift)


class TestProblemValidation:
    def test_endo_must_match_base(self):
        with pytest.raises(Exception):
            DilationProblem(Z, GroupHom.identity(FGAbelianGroup.cyclic(2)))


def _unimodular_completion(a, b):
    """(c, d) with a d - b c = 1, for coprime a and b."""
    (r0, s0, t0), (r1, s1, t1) = (a, 1, 0), (b, 0, 1)
    while r1:
        q = r0 // r1
        (r0, s0, t0), (r1, s1, t1) = (r1, s1, t1), (r0 - q * r1, s0 - q * s1, t0 - q * t1)
    return -t0 * r0, s0 * r0  # r0 = +-1 and s0 a + t0 b = r0


def _tower_block(rng, kind, positions, shared):
    """One block of a permuted direct sum, to sit on `positions`."""
    k = len(positions)
    if kind == "missed":
        # the block's slice of the start vector (1, ..., n) is an
        # eigenvector of mu, so the product for lam vanishes on it
        g = gcd(positions[0] + 1, positions[1] + 1)
        a, b = (positions[0] + 1) // g, (positions[1] + 1) // g
        c, d = _unimodular_completion(a, b)
        mu, lam = rng.sample([-3, -2, 2, 3, 5], 2)
        return conjugate([[a, c], [b, d]], [[mu, 0], [0, lam]], [[d, -c], [-b, a]]).to_lists()
    values = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(k)]
    if kind == "diagonalizable":
        values[0] = shared  # the same root in every such block of the tower
    elif kind == "singular":
        values[0] = 0
    middle = [[values[i] if i == j else 0 for j in range(k)] for i in range(k)]
    if kind == "jordan":
        middle[0][:2] = [values[1], 1]
    p, p_inv = random_unimodular(rng, k, steps=3 * k, max_factor=2)
    return conjugate(p, middle, p_inv).to_lists()


_BLOCK_SIZES = {"diagonalizable": (1, 3), "jordan": (2, 3), "singular": (1, 3),
                "missed": (2, 2)}


def _permuted_block_sum(rng, kinds):
    """A square matrix that is a direct sum of one block per kind, its
    coordinates shuffled, and the coordinate lists of its blocks."""
    sizes = [rng.randint(*_BLOCK_SIZES[kind]) for kind in kinds]
    n = sum(sizes)
    order, shared = rng.sample(range(n), n), rng.choice([-2, 2, 3])
    m, placed, start = [[0] * n for _ in range(n)], [], 0
    for kind, size in zip(kinds, sizes):
        positions = sorted(order[start:start + size])
        start += size
        for r, row in enumerate(_tower_block(rng, kind, positions, shared)):
            for c, x in enumerate(row):
                m[positions[r]][positions[c]] = x
        placed.append(positions)
    return m, placed


class TestIntegerEigenvalues:
    """The eigen-search behind localized multipliers: characteristic
    polynomial, its integer roots, one kernel per root."""

    def test_mersenne_multiplier_classifies_fast(self):
        p, p_inv = random_unimodular(random.Random(61), 2)
        tower = conjugate(p, [[2**61 - 1, 0], [0, 3]], p_inv)
        z2 = FGAbelianGroup.free(2)
        start = time.perf_counter()
        description = classify_colimit(DilationProblem(z2, GroupHom(z2, z2, tower)))
        pretty = str(description)
        elapsed = time.perf_counter() - start
        assert description.tag == TAG_LOCALIZED
        assert pretty == "Z[1/3] + Z[1/2305843009213693951]"
        assert elapsed < 0.05
        reference = ColimitDescription.localized(IntMatrix.from_rows([[3, 0], [0, 2**61 - 1]]))
        assert description.isomorphic(reference) is True
        halves = ColimitDescription.localized(IntMatrix.from_rows([[3, 0], [0, 2]]))
        assert description.isomorphic(halves) is False

    def test_matches_the_divisor_search(self):
        rng = random.Random(2024)
        cases = []
        for _ in range(40):  # small random matrices
            n = rng.randint(1, 4)
            cases.append(IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
        for _ in range(40):  # planted diagonalizable P D P^-1, repeated values
            n = rng.randint(2, 5)
            values = [rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5]) for _ in range(n)]
            p, p_inv = random_unimodular(rng, n, steps=3 * n, max_factor=2)
            cases.append(conjugate(p, [[values[i] if i == j else 0 for j in range(n)]
                                       for i in range(n)], p_inv))
        # beside a diagonal: a Jordan block, a block diagonalizable over Q
        # but not over Z, or an irreducible quadratic
        for _ in range(20):
            n = rng.randint(3, 5)
            block = rng.choice([[[2, 1], [0, 2]], [[-3, 1], [0, -3]],
                                [[1, 1], [0, -1]], [[0, 2], [1, 0]], [[1, 1], [1, -1]],
                                [[0, -1], [1, 0]]])
            middle = [[0] * n for _ in range(n)]
            middle[0][:2], middle[1][:2] = block[0], block[1]
            for i in range(2, n):
                middle[i][i] = rng.choice([-2, 2, 3, 5])
            p, p_inv = random_unimodular(rng, n, steps=3 * n, max_factor=2)
            cases.append(conjugate(p, middle, p_inv))
        # the start vector (1, 2) is the eigenvector of 2, so the product for
        # the simple root 3 is zero and its kernel is taken instead
        cases.append(conjugate([[1, 0], [2, 1]], [[2, 0], [0, 3]], [[1, 0], [-2, 1]]))
        # the simple root -3 beside a Jordan block at 2: its product vector
        # is not an eigenvector
        cases.append(IntMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, -3]]))
        found = 0
        for m in cases:
            expected = divisor_search_diagonal(m)
            assert colimit._similarity_diagonal(m) == expected, m
            found += expected is not None
        assert 40 <= found < len(cases)

    def test_charpoly_matches_faddeev_leverrier(self):
        rng = random.Random(7)
        for size, entry in [(1, 9), (2, 50), (3, 9), (5, 50), (7, 3), (6, 10**12)]:
            m = [[rng.randint(-entry, entry) for _ in range(size)] for _ in range(size)]
            assert colimit._charpoly(IntMatrix.from_rows(m)) == charpoly_faddeev_leverrier(m)

    def test_charpoly_matches_sympy_across_several_primes(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        inputs = [[[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)],
                  [[rng.randint(-10**15, 10**15) for _ in range(6)] for _ in range(6)]]
        # the second input's coefficients pass 2^234, the product of the
        # first two Mersenne primes, so CRT needs a third
        assert max(abs(c) for c in charpoly_faddeev_leverrier(inputs[1])) > 2**234
        for m in inputs:
            expected = [int(c) for c in reversed(sympy.Matrix(m).charpoly().all_coeffs())]
            assert colimit._charpoly(IntMatrix.from_rows(m)) == expected

    def test_dense_forty_by_forty_under_half_a_second(self):
        rng = random.Random(40)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
        start = time.perf_counter()
        result = colimit._similarity_diagonal(m)
        assert time.perf_counter() - start < 0.5
        assert result is None

    def test_free_block_takes_one_characteristic_polynomial(self, monkeypatch):
        computed, determinants = [], []
        charpoly, determinant = colimit._charpoly, IntMatrix.determinant
        monkeypatch.setattr(colimit, "_charpoly", lambda m: computed.append(m) or charpoly(m))
        monkeypatch.setattr(IntMatrix, "determinant",
                            lambda m: determinants.append(m) or determinant(m))
        z2 = FGAbelianGroup.free(2)
        tower = IntMatrix.from_rows([[2, 1], [1, 3]])
        description = classify_colimit(DilationProblem(z2, GroupHom(z2, z2, tower)))
        assert description.tag == TAG_LOCALIZED
        assert str(description) == "colim(Z^2, [[2, 1], [1, 3]])"
        assert computed == [tower]
        mixed = FGAbelianGroup(1, (2,))  # Z/2 + Z, no invariant complement
        endo = IntMatrix.from_rows([[1, 1], [0, 3]])
        description = classify_colimit(DilationProblem(mixed, GroupHom(mixed, mixed, endo)))
        assert description.resolved is False
        assert computed[1:] == [IntMatrix.from_rows([[3]])]
        # a split mixed colimit: its localized end is built from the same
        # block, and tests its injectivity with the kept f(0)
        del computed[:]
        split = FGAbelianGroup(2, (2,))  # Z/2 + Z^2
        endo = IntMatrix.from_rows([[1, 1, 0], [0, 2, 1], [0, 1, 3]])
        description = classify_colimit(DilationProblem(split, GroupHom(split, split, endo)))
        assert description.tag == TAG_EXTENSION and description.resolved is True
        assert str(description) == "Z/2 + colim(Z^2, [[2, 1], [1, 3]])"
        assert computed == [tower] and determinants == []

    def test_kernels_only_for_repeated_or_missed_roots(self, monkeypatch):
        kernels = []
        search = colimit.integer_kernel_basis
        monkeypatch.setattr(colimit, "integer_kernel_basis",
                            lambda m: kernels.append(m) or search(m))
        # f does not split: no eigenvector at all
        assert colimit._similarity_diagonal(IntMatrix.from_rows([[0, 2], [3, 0]])) is None
        assert kernels == []
        # simple roots from the products, one kernel per repeated root
        p, p_inv = random_unimodular(random.Random(5), 6)
        planted = conjugate(p, [[(2, 2, -3, 5, 5, 5)[i] if i == j else 0 for j in range(6)]
                                for i in range(6)], p_inv)
        assert colimit._similarity_diagonal(planted) == (2, 2, 3, 5, 5, 5)
        assert len(kernels) == 2
        # the product for 3 vanishes on the start vector (1, 2): one kernel
        del kernels[:]
        missed = conjugate([[1, 0], [2, 1]], [[2, 0], [0, 3]], [[1, 0], [-2, 1]])
        assert colimit._similarity_diagonal(missed) == (2, 3)
        assert kernels == [missed + IntMatrix.from_rows([[-3, 0], [0, -3]])]
        # a Jordan block at 2 beside -3, in one block: (M + 3I) v != 0 for
        # the simple root -3, so M is not diagonalizable, with no kernel
        del kernels[:]
        jordan = IntMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, -3]])
        p, p_inv = random_unimodular(random.Random(3), 3)
        one_block = conjugate(p, jordan.to_lists(), p_inv)
        assert len(colimit._blocks_of(one_block)) == 1
        assert colimit._similarity_diagonal(one_block) is None
        assert kernels == []
        # split apart, the Jordan block is searched alone: its repeated root
        # takes one kernel, which is too small
        assert [len(indices) for indices, _ in colimit._blocks_of(jordan)] == [2, 1]
        assert colimit._similarity_diagonal(jordan) is None
        assert kernels == [IntMatrix.from_rows([[0, 1], [0, 0]])]

    def test_dense_planted_sixty_by_sixty_under_half_a_second(self):
        # 24 simple roots and -1 of multiplicity 36, conjugated by 180 random
        # +-1 row additions; with one Hermite form per root this took 1.7 s
        # on a 2-core x86 machine under Python 3.11
        n = 60
        spectrum = [v for k in range(2, 14) for v in (k, -k)] + [-1] * 36
        p, p_inv = random_unimodular(random.Random(0), n, steps=3 * n, max_factor=1)
        tower = conjugate(p, [[spectrum[i] if i == j else 0 for j in range(n)]
                              for i in range(n)], p_inv)
        zn = FGAbelianGroup.free(n)
        start = time.perf_counter()
        description = classify_colimit(DilationProblem(zn, GroupHom(zn, zn, tower)))
        diagonal = description.localized_diagonal()
        assert time.perf_counter() - start < 0.5
        assert diagonal == tuple(sorted(abs(v) for v in spectrum))

    def test_permuted_direct_sums_match_the_oracles(self):
        rng = random.Random(31)
        outcomes, split, kinds_seen = set(), 0, set()
        for _ in range(320):
            kinds = [rng.choice(["diagonalizable", "diagonalizable", "jordan", "singular",
                                 "missed"]) for _ in range(rng.randint(1, 4))]
            kinds_seen.update(kinds)
            rows, _ = _permuted_block_sum(rng, kinds)
            m = IntMatrix.from_rows(rows)
            assert colimit._charpoly(m) == charpoly_faddeev_leverrier(rows), rows
            expected = divisor_search_diagonal(m)
            assert colimit._similarity_diagonal(m) == expected, rows
            outcomes.add(expected is None)
            split += len(colimit._blocks_of(m)) > 1
        assert kinds_seen == set(_BLOCK_SIZES) and outcomes == {True, False}
        assert split >= 200

    def test_charpoly_at_zero_is_the_determinant_of_minus_m(self):
        rng = random.Random(37)
        for _ in range(120):
            kinds = [rng.choice(list(_BLOCK_SIZES)) for _ in range(rng.randint(1, 4))]
            rows, _ = _permuted_block_sum(rng, kinds)
            m = IntMatrix.from_rows(rows)
            at_zero = colimit._charpoly_at_zero(m)
            assert at_zero == (-1) ** m.rows * m.determinant(), rows
            assert at_zero == charpoly_faddeev_leverrier(rows)[0], rows

    def test_charpoly_at_zero_of_empty_and_singular_towers(self):
        assert colimit._charpoly_at_zero(IntMatrix(0, 0, ())) == 1
        # the empty tower is one empty block, with no multiplier
        assert colimit._similarity_diagonal(IntMatrix(0, 0, ())) == ()
        # a singular block makes f(0) vanish however the others read
        m = IntMatrix.from_rows([[3, 0, 0], [0, 1, 2], [0, 2, 4]])
        assert len(colimit._blocks_of(m)) == 2
        assert colimit._charpoly_at_zero(m) == 0
        assert colimit._charpoly_at_zero(IntMatrix.from_rows([[0, 2], [3, 0]])) == -6

    def test_singular_diagonal_has_no_similarity_diagonal(self):
        for diagonal in ([0], [0, 3], [2, 0, 5]):
            m = IntMatrix.from_rows([[d if i == j else 0 for j in range(len(diagonal))]
                                     for i, d in enumerate(diagonal)])
            assert divisor_search_diagonal(m) is None
            assert colimit._similarity_diagonal(m) is None
        m = IntMatrix.from_rows([[-3, 0], [0, 2]])
        assert divisor_search_diagonal(m) == colimit._similarity_diagonal(m) == (2, 3)

    def test_blocks_are_searched_alone(self, monkeypatch):
        # no table or kernel of the eigen-search is larger than the largest
        # block: two planted blocks that share a root, and a block whose
        # root the start vector misses, so that it takes a kernel
        kinds = ["diagonalizable", "diagonalizable", "missed"]
        rows, placed = _permuted_block_sum(random.Random(17), kinds)
        m = IntMatrix.from_rows(rows)
        assert [indices for indices, _ in colimit._blocks_of(m)] == sorted(placed)
        expected = divisor_search_diagonal(m)
        sizes = {"charpoly": [], "determinant": [], "kernel": []}
        polynomials = []
        charpoly_mod, determinant, search = (colimit._charpoly_mod, IntMatrix.determinant,
                                             colimit.integer_kernel_basis)
        charpoly = colimit._charpoly
        monkeypatch.setattr(colimit, "_charpoly", lambda a: polynomials.append(a) or charpoly(a))
        monkeypatch.setattr(colimit, "_charpoly_mod", lambda entries, p: (
            sizes["charpoly"].append(len(entries)) or charpoly_mod(entries, p)))
        monkeypatch.setattr(IntMatrix, "determinant", lambda a: (
            sizes["determinant"].append(a.rows) or determinant(a)))
        monkeypatch.setattr(colimit, "integer_kernel_basis", lambda a: (
            sizes["kernel"].append(a.rows) or search(a)))
        zn, tower = FGAbelianGroup.free(len(rows)), IntMatrix.from_rows(rows)
        description = classify_colimit(DilationProblem(zn, GroupHom(zn, zn, tower)))
        assert description.localized_diagonal() == expected
        largest = max(map(len, placed))
        assert all(sizes.values()) and max(map(max, sizes.values())) <= largest < len(rows)
        # f(0) of the whole tower is read off its blocks' polynomials
        assert polynomials and tower not in polynomials
