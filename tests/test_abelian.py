import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from kdilate import abelian
from kdilate.abelian import (
    FGAbelianGroup,
    GroupHom,
    IncompatibleShapesError,
    IntMatrix,
    cokernel,
    direct_sum,
    element_is_zero,
    _identity_rows,
    _quotient_with_maps,
    _row_hermite,
    _smith,
    _transpose,
    group_from_presentation,
    integer_kernel_basis,
    kernel,
    lattice_contains,
    smith_normal_form,
    solve_integer_system,
    unimodular_inverse,
)
from oracles import (
    cofactor_det,
    kernel_via_smith_lattice,
    lattice_member_by_residues,
    random_endomorphism,
    random_finite_group,
    random_group,
    random_hom,
    random_matrix,
    random_unimodular,
    rank_over_q,
    smith_diagonal_by_divisors,
)

Z = FGAbelianGroup.free(1)


@st.composite
def int_matrices(draw, max_dim=6, max_entry=50):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(st.lists(
        st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
        min_size=r, max_size=r))
    return IntMatrix.from_rows(rows)


def smith_with_inverse(m):
    """(U, S, V, U^{-1}) from one run of the Smith engine `_smith` with all
    three transforms tracked."""
    diag, u, u_inv, v_cols = _smith([list(r) for r in m.entries], m.cols,
                                    _identity_rows(m.rows), _identity_rows(m.rows),
                                    _identity_rows(m.cols))
    s = [[0] * m.cols for _ in range(m.rows)]
    for i, d in enumerate(diag):
        s[i][i] = d
    return (IntMatrix.from_rows(u, m.rows), IntMatrix.from_rows(s, m.cols),
            IntMatrix.from_rows(_transpose(v_cols, m.cols), m.cols),
            IntMatrix.from_rows(_transpose(u_inv, m.rows), m.rows))


def assert_snf_contract(m):
    result = smith_normal_form(m)
    assert result.U @ m @ result.V == result.S
    assert abs(result.U.determinant()) == 1
    assert abs(result.V.determinant()) == 1
    diag = result.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    # off-diagonal must vanish
    for i in range(result.S.rows):
        for j in range(result.S.cols):
            if i != j:
                assert result.S[i, j] == 0
    return result


class TestSmithNormalForm:
    def test_one_by_one_already_diagonal(self):
        result = smith_normal_form(IntMatrix.from_rows([[6]]))
        assert result.S.to_lists() == [[6]]
        assert result.U.to_lists() == [[1]]
        assert result.V.to_lists() == [[1]]

    def test_diagonal_from_determinantal_divisors(self):
        rows = [[2, 0, 0], [0, 3, 0], [1, 1, 5]]
        result = assert_snf_contract(IntMatrix.from_rows(rows))
        assert result.diagonal() == (1, 1, 30)
        assert list(result.diagonal()) == smith_diagonal_by_divisors(rows, 3)

    def test_zero_matrix(self):
        m = IntMatrix.from_rows([[0, 0], [0, 0]])
        result = smith_normal_form(m)
        assert result.S == m
        assert result.U == IntMatrix.identity(2)
        assert result.V == IntMatrix.identity(2)

    def test_degenerate_shapes(self):
        result = smith_normal_form(IntMatrix.from_rows([], cols=3))
        assert result.S.rows == 0 and result.S.cols == 3
        assert result.V == IntMatrix.identity(3)
        result = smith_normal_form(IntMatrix.from_rows([[], []]))
        assert result.S.cols == 0
        assert result.U == IntMatrix.identity(2)

    def test_divisor_oracle_on_small_random_matrices(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                    for _ in range(rng.randint(1, 4))]
            width = len(rows[0])
            rows = [r[:width] + [0] * (width - len(r)) for r in rows]
            m = IntMatrix.from_rows(rows)
            result = assert_snf_contract(m)
            assert list(result.diagonal()) == smith_diagonal_by_divisors(rows, width)

    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_contract_on_random_matrices(self, m):
        assert_snf_contract(m)

    def test_snf_uniqueness_under_unimodular_noise(self):
        rng = random.Random(3)
        base = IntMatrix.from_rows([[4, 2], [2, 8]])
        reference = smith_normal_form(base).S
        for _ in range(25):
            noisy = [list(r) for r in base.entries]
            i, j = rng.sample(range(2), 2)
            q = rng.randint(-3, 3)
            noisy[i] = [a + q * b for a, b in zip(noisy[i], noisy[j])]
            assert smith_normal_form(IntMatrix.from_rows(noisy)).S == reference

    def test_tracked_inverse_leaves_the_transforms_unchanged(self):
        rng = random.Random(11)
        for _ in range(60):
            rows, cols = rng.randint(0, 6), rng.randint(1, 6)
            m = IntMatrix.from_rows([[rng.randint(-20, 20) for _ in range(cols)]
                                     for _ in range(rows)], cols=cols)
            plain = smith_normal_form(m)
            u, s, v, u_inv = smith_with_inverse(m)
            assert (u, s, v) == (plain.U, plain.S, plain.V)
            assert u_inv == unimodular_inverse(plain.U)

    def test_arbitrary_precision(self):
        huge = 10**40
        result = assert_snf_contract(IntMatrix.from_rows([[huge, 1], [0, huge]]))
        assert result.diagonal() == (1, huge * huge)

    def test_invariant_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(13)
        cases = []
        for rows, cols in [(10, 10), (20, 20), (30, 30), (12, 7), (7, 12)]:
            cases.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        cases.append([[rng.randint(-10**6, 10**6) if rng.random() < 0.2 else 0
                       for _ in range(16)] for _ in range(16)])
        left = [[rng.randint(-5, 5) for _ in range(9)] for _ in range(15)]
        right = [[rng.randint(-5, 5) for _ in range(15)] for _ in range(9)]
        cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                      for row in left])  # 15x15 of rank 9
        for rows in cases:
            ours = [d for d in smith_normal_form(IntMatrix.from_rows(rows)).diagonal() if d]
            theirs = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
                      if x]
            assert ours == theirs

    def test_transform_bits_stay_polynomial(self):
        # For an n x n input with b-bit entries, U, V and U^{-1} have entries
        # of at most 2 n (b + log2(n) + 1) bits.  Entry growth exponential
        # in n fails this: an elimination that never reduces above its
        # pivots reaches 261,000 bits at n = 12, b = 4.  An n x (n + 4)
        # input has a kernel of dimension 4, and each kernel column of V
        # can add about one maximal minor's size, so it gets twice the room.
        for n in range(4, 41, 4):
            rng = random.Random(n)
            dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            sparse = [[rng.randint(-10**6, 10**6) if rng.random() < 0.15 else 0
                       for _ in range(n)] for _ in range(n)]
            left = [[rng.randint(-9, 9) for _ in range(n - 2)] for _ in range(n)]
            right = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 2)]
            singular = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                        for row in left]
            wide = [[rng.randint(-10**6, 10**6) if rng.random() < 0.15 else 0
                     for _ in range(n + 4)] for _ in range(n)]
            for rows, factor in ((dense, 2), (sparse, 2), (singular, 2), (wide, 4)):
                m = IntMatrix.from_rows(rows)
                u, s, v, u_inv = smith_with_inverse(m)
                assert u @ m @ v == s
                assert u @ u_inv == IntMatrix.identity(m.rows)
                w = max(m.rows, m.cols)
                b = max(abs(x).bit_length() for row in rows for x in row)
                bits = max(abs(x).bit_length() for t in (u, v, u_inv)
                           for row in t.entries for x in row)
                assert bits <= factor * w * (b + w.bit_length()), (m.rows, m.cols, b, bits)

    def test_forty_by_forty_with_inverse_under_a_second(self):
        rng = random.Random("forty")
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
        start = time.perf_counter()
        u, s, v, u_inv = smith_with_inverse(m)
        elapsed = time.perf_counter() - start
        assert u @ m @ v == s
        assert u @ u_inv == IntMatrix.identity(40)
        assert elapsed < 1.0

    def test_rectangular_singular_and_empty_shapes(self):
        rng = random.Random(17)
        # 64 rows spanning the lattice of 6 base rows, as in a padded
        # presentation: its Smith diagonal is that of the base rows
        base = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
        tall = base + [[sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(6)]
                       for coeffs in ([rng.randint(-1, 1) for _ in range(6)]
                                      for _ in range(58))]
        rng.shuffle(tall)
        expected = smith_diagonal_by_divisors(base, 6)
        left = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(6)]
        right = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(3)]
        deficient = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                     for row in left]  # 6x8 of rank at most 3
        cases = [(tall, 6, expected),
                 ([list(c) for c in zip(*tall)], 64, expected),
                 (deficient, 8, smith_diagonal_by_divisors(deficient, 8)),
                 ([list(c) for c in zip(*deficient)], 6, smith_diagonal_by_divisors(deficient, 8)),
                 ([], 5, []),
                 ([[]] * 5, 0, [])]
        for rows, cols, diagonal in cases:
            m = IntMatrix.from_rows(rows, cols=cols)
            assert list(assert_snf_contract(m).diagonal()) == diagonal
            u, _, _, u_inv = smith_with_inverse(m)
            assert u @ u_inv == IntMatrix.identity(m.rows)

    def test_engine_returns_exactly_the_transforms_it_tracks(self):
        # With U and U^{-1} only, or V only, the engine returns exactly the
        # diagonal and transforms of the run that tracks all three,
        # and so do the quotient and kernel-generator callers built on it.
        rng = random.Random(29)
        cases = []
        for k in range(520):
            kind = k % 4
            if kind == 0:
                m = random_matrix(rng)
            elif kind == 1:  # a padded presentation's transpose: 6 x 64
                base = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
                rows = base + [[sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(6)]
                               for coeffs in ([rng.randint(-1, 1) for _ in range(6)]
                                              for _ in range(rng.choice((10, 58))))]
                rng.shuffle(rows)
                m = IntMatrix.from_rows(rows).transpose()
            elif kind == 2:  # rank at most r
                r, c, inner = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 3)
                left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(r)]
                right = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(inner)]
                m = IntMatrix.from_rows(left) @ IntMatrix.from_rows(right)
            else:  # zero rows and columns, and empty shapes
                r, c = rng.randint(0, 6), rng.randint(0, 6)
                zero_row, zero_col = rng.randrange(r + 1), rng.randrange(c + 1)
                m = IntMatrix.from_rows(
                    [[0 if i == zero_row or j == zero_col else rng.randint(-30, 30)
                      for j in range(c)] for i in range(r)], cols=c)
            cases.append(m)
        assert sum(m.rows == 6 and m.cols >= 16 for m in cases) >= 100
        assert sum(m.rows * m.cols == 0 for m in cases) >= 20
        for m in cases:
            full_u, full_s, full_v, full_u_inv = smith_with_inverse(m)
            full = smith_normal_form(m)
            assert (full.U, full.S, full.V) == (full_u, full_s, full_v)
            rows = [list(r) for r in m.entries]
            diag, u, u_inv, v_cols = _smith([r[:] for r in rows], m.cols, _identity_rows(m.rows),
                                            _identity_rows(m.rows), None)
            assert v_cols is None and tuple(diag) == full.diagonal()
            assert IntMatrix.from_rows(u, m.rows) == full.U
            assert IntMatrix.from_rows(_transpose(u_inv, m.rows), m.rows) == full_u_inv
            diag, u, u_inv, v_cols = _smith(rows, m.cols, None, None, _identity_rows(m.cols))
            assert u is None and u_inv is None and tuple(diag) == full.diagonal()
            assert IntMatrix.from_rows(_transpose(v_cols, m.cols), m.cols) == full.V
            rank = sum(map(bool, full.diagonal()))
            if m.cols:  # the quotient of Z^rows by the columns of m
                group, projection, lift = _quotient_with_maps(m.rows, m.transpose())
                kept = [i for i in range(rank) if full.diagonal()[i] > 1] + list(range(rank, m.rows))
                assert group.num_generators == len(kept)
                assert projection == full.U.select_rows(kept)
                assert lift == full_u_inv.select_columns(kept)
            # the V-only engine's columns past the rank are a basis of ker m
            gens = [tuple(v) for v in v_cols[rank:]]
            assert not any(any(m.apply(g)) for g in gens)
            assert hermite_basis(gens) == hermite_basis(integer_kernel_basis(m))


def hermite_basis(vectors):
    """Reduced row Hermite form of the lattice the vectors span: equal
    exactly when the lattices are."""
    rows, _, _ = _row_hermite([list(v) for v in vectors], _identity_rows(len(vectors)), None)
    return [row for row in rows if any(row)]


class TestIntegerKernelBasis:
    def test_kernel_basis_spans_the_smith_kernel(self):
        rng = random.Random(29)
        cases = []
        for _ in range(15):
            n = rng.randint(1, 7)
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])  # square
            r = rng.randint(1, n)
            cases.append([[rng.randint(-9, 9) for _ in range(n + 2)] for _ in range(r)])  # wide
            k = rng.randint(1, n)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            cases.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                          for row in left])  # singular square, rank at most k
        cases += [[[0, 0, 0]], [[2, 4], [1, 2]]]
        for rows in cases:
            m = IntMatrix.from_rows(rows)
            basis = integer_kernel_basis(m)
            assert len(basis) == m.cols - rank_over_q(rows)
            assert all(not any(m.apply(v)) for v in basis)
            snf = smith_normal_form(m)
            smith_kernel = [snf.V.column(j) for j in range(rank_over_q(rows), m.cols)]
            assert hermite_basis(basis) == hermite_basis(smith_kernel)

    def test_empty_shapes(self):
        identity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert integer_kernel_basis(IntMatrix.from_rows([], cols=3)) == identity
        assert integer_kernel_basis(IntMatrix.from_rows([[], [], []])) == []


class TestLatticeContains:
    def test_matches_membership_by_residues(self):
        # seeded generator sets in Z^1..Z^3, among them empty, zero-row and
        # rank-deficient ones; each asked about combinations of its rows
        # (in the lattice), those plus a unit vector and random vectors
        rng = random.Random(31)
        outcomes, deficient, zero_rows = {True: 0, False: 0}, 0, 0
        for _ in range(120):
            n, k = rng.randint(1, 3), rng.randint(0, 4)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            if k and rng.random() < 0.3:  # a row a combination of the others
                rows.append([sum(rng.randint(-2, 2) * x for x in col) for col in zip(*rows)])
            if rng.random() < 0.2:
                rows.insert(rng.randint(0, len(rows)), [0] * n)
            deficient += rank_over_q(rows) < min(len(rows), n)
            zero_rows += any(not any(row) for row in rows)
            m = IntMatrix.from_rows(rows, cols=n)
            vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(3)]
            for _ in range(3):
                combination = [sum(c * x for c, x in zip(coefficients, col))
                               for coefficients in [[rng.randint(-3, 3) for _ in rows]]
                               for col in zip(*rows)] if rows else [0] * n
                vectors.append(combination)
                unit = rng.randrange(n)
                vectors.append([x + (j == unit) for j, x in enumerate(combination)])
            for vector in vectors:
                expected = lattice_member_by_residues(rows, vector)
                assert lattice_contains(m, vector) is expected, (rows, vector)
                outcomes[expected] += 1
        assert min(outcomes.values()) >= 200, outcomes
        assert deficient >= 15 and zero_rows >= 15, (deficient, zero_rows)

    def test_empty_lattice_holds_only_zero(self):
        assert lattice_contains(IntMatrix.from_rows([], cols=2), (0, 0))
        assert not lattice_contains(IntMatrix.from_rows([], cols=2), (0, 1))
        assert not lattice_contains(IntMatrix.from_rows([[2, 4], [1, 2]]), (1, 3))
        assert lattice_contains(IntMatrix.from_rows([[2, 4], [1, 2]]), (-3, -6))


class TestIntMatrix:
    def test_shape_errors_say_incompatible(self):
        with pytest.raises(IncompatibleShapesError, match="incompatible"):
            IntMatrix.identity(2) @ IntMatrix.identity(3)

    def test_determinant_bareiss(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [1, 1, 5]])
        assert m.determinant() == 30
        assert IntMatrix.identity(0).determinant() == 1
        assert IntMatrix.from_rows([[1, 2], [2, 4]]).determinant() == 0

    def test_determinant_against_cofactor_expansion(self):
        rng = random.Random(37)
        zero_pivot = singular = unimodular = 0
        for k in range(360):
            n = rng.randint(1, 6)
            if k % 3 == 0:  # det +-1, entries mostly 0 and pivots +-1
                rows = random_unimodular(rng, n, steps=rng.randint(0, 8), max_factor=2)[0]
                rows = [rows[i] for i in rng.sample(range(n), n)]
                unimodular += 1
            else:
                density = rng.choice((0.3, 0.7, 1.0))
                rows = [[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(n)] for _ in range(n)]
            if k % 5 == 1 and n > 1:  # one row a combination of two others
                i, j, l = (rng.sample(range(n), 3) if n > 2 else (0, 1, 1))
                rows[l] = [2 * x - y for x, y in zip(rows[i], rows[j])]
            zero_pivot += rows[0][0] == 0
            expected = cofactor_det(rows)
            singular += expected == 0
            assert IntMatrix.from_rows(rows).determinant() == expected, rows
        assert min(zero_pivot, singular, unimodular) >= 60

    def test_determinant_matches_sympy_on_large_matrices(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        for n in (20, 27, 34):
            p, p_inv = random_unimodular(rng, n, steps=4 * n, max_factor=2)
            diag = [[rng.choice((1, -1, 2, 3)) if i == j else 0 for j in range(n)]
                    for i in range(n)]
            sparse = [[sum(a * b for a, b in zip(row, col)) for col in zip(*p_inv)]
                      for row in [[sum(a * b for a, b in zip(row, col)) for col in zip(*diag)]
                                  for row in p]]
            dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for rows in (sparse, dense) if n == 20 else (sparse,):
                assert IntMatrix.from_rows(rows).determinant() == int(sympy.Matrix(rows).det())

    def test_unimodular_inverse(self):
        m = IntMatrix.from_rows([[2, 1], [1, 1]])
        assert m @ unimodular_inverse(m) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))

    def test_solve_integer_system(self):
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert solve_integer_system(m, (4, 9)) == (2, 3)
        assert solve_integer_system(m, (1, 0)) is None

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.5]])
        with pytest.raises(TypeError):
            IntMatrix(1, 1, ((True,),))


class TestPresentations:
    def test_single_relation_gives_cyclic_group(self):
        g = group_from_presentation(1, IntMatrix.from_rows([[5]]))
        assert g == FGAbelianGroup(0, (5,))

    def test_no_relations_gives_free_group(self):
        g = group_from_presentation(2, IntMatrix.from_rows([], cols=2))
        assert g == FGAbelianGroup(2, ())

    def test_diag_2_15_is_cyclic_30(self):
        g = group_from_presentation(2, IntMatrix.from_rows([[2, 0], [0, 15]]))
        assert g == FGAbelianGroup(0, (30,))

    def test_invariant_under_row_ops_and_generator_permutation(self):
        rng = random.Random(11)
        for _ in range(50):
            gens = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(gens)]
                    for _ in range(rng.randint(0, 4))]
            reference = group_from_presentation(gens, IntMatrix.from_rows(rows, cols=gens))
            mutated = [list(r) for r in rows]
            if len(mutated) >= 2:
                i, j = rng.sample(range(len(mutated)), 2)
                q = rng.randint(-4, 4)
                mutated[i] = [a + q * b for a, b in zip(mutated[i], mutated[j])]
            if len(mutated) >= 1 and rng.random() < 0.5:
                k = rng.randrange(len(mutated))
                mutated[k] = [-a for a in mutated[k]]
            perm = list(range(gens))
            rng.shuffle(perm)
            permuted = [[row[p] for p in perm] for row in mutated]
            assert group_from_presentation(
                gens, IntMatrix.from_rows(permuted, cols=gens)) == reference

    def test_group_only_callers_track_no_transform(self, monkeypatch, graph_e):
        from kdilate.graphalg import subquotient_k

        calls = []
        smith = abelian._smith

        def recording(a, ncols, u, u_inv, v_cols):
            calls.append((u, u_inv, v_cols))
            return smith(a, ncols, u, u_inv, v_cols)

        monkeypatch.setattr(abelian, "_smith", recording)
        for call, expected in [
                (lambda: group_from_presentation(2, IntMatrix.from_rows([[2, 4], [6, 8]])),
                 FGAbelianGroup(0, (2, 4))),
                (lambda: direct_sum(FGAbelianGroup.cyclic(4), FGAbelianGroup(1, (6,))),
                 FGAbelianGroup(1, (2, 12))),
                (lambda: subquotient_k(graph_e, ["v1", "v2", "v3", "v4"], [])[0],
                 FGAbelianGroup.cyclic(210))]:
            calls.clear()
            assert call() == expected
            assert calls and all(c == (None, None, None) for c in calls), calls

    def test_diagonal_alone_reads_the_group_of_every_route(self):
        # the Smith diagonal alone, the canonicalizing maps, and the public
        # Smith form (read here, and by the shared helper) give one group;
        # small shapes also against determinantal divisors
        rng = random.Random(30)
        kinds = ("no relations", "zero generators", "rank-deficient", "wide", "big entries")
        for trial in range(320):
            kind = kinds[trial % len(kinds)]
            if kind == "no relations":
                gens, rows = rng.randint(0, 5), []
            elif kind == "zero generators":
                gens, rows = 0, [[] for _ in range(rng.randint(0, 4))]
            elif kind == "rank-deficient":
                gens, count = rng.randint(2, 6), rng.randint(2, 6)
                basis = [[rng.randint(-9, 9) for _ in range(gens)]
                         for _ in range(rng.randint(1, min(gens, count) - 1))]
                rows = [[sum(c * b[j] for c, b in zip(coefficients, basis)) for j in range(gens)]
                        for coefficients in ([rng.randint(-3, 3) for _ in basis]
                                             for _ in range(count))]
            elif kind == "wide":
                count = rng.randint(1, 3)
                gens = count + rng.randint(1, 4)
                rows = [[rng.randint(-20, 20) for _ in range(gens)] for _ in range(count)]
            else:
                gens, count = rng.randint(1, 4), rng.randint(1, 4)
                bits = rng.choice([40, 64, 100])
                rows = [[rng.randint(-2**bits, 2**bits) for _ in range(gens)]
                        for _ in range(count)]
            relations = IntMatrix.from_rows(rows, cols=gens)
            group = group_from_presentation(gens, relations)
            assert group == _quotient_with_maps(gens, relations)[0], (kind, rows)
            snf = smith_normal_form(relations)
            diag = snf.diagonal()
            assert group == FGAbelianGroup(gens - len(diag) + diag.count(0),
                                           tuple(d for d in diag if d > 1)), (kind, rows)
            assert group == abelian._group_of_diagonal(gens, list(diag)), (kind, rows)
            if len(rows) <= 3 and gens <= 3 and kind != "big entries":
                assert list(diag) == smith_diagonal_by_divisors(rows, gens), (kind, rows)

    def test_canonical_form_validation(self):
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FGAbelianGroup(0, (4, 6))  # 4 does not divide 6
        with pytest.raises(ValueError):
            FGAbelianGroup(-1, ())

    def test_str_forms(self):
        assert str(FGAbelianGroup.trivial()) == "0"
        assert str(FGAbelianGroup(2, (2, 6))) == "Z/2 + Z/6 + Z^2"
        assert str(Z) == "Z"


class TestHoms:
    def test_rejects_ill_defined_matrix(self):
        with pytest.raises(ValueError, match="homomorphism"):
            GroupHom(FGAbelianGroup.cyclic(2), Z, IntMatrix.from_rows([[1]]))

    def test_matrix_reduced_modulo_codomain_orders(self):
        g = FGAbelianGroup.cyclic(2)
        f = GroupHom(Z, g, IntMatrix.from_rows([[-1]]))
        assert f.matrix.to_lists() == [[1]]

    def test_free_codomain_keeps_the_callers_matrix(self):
        # nothing to reduce: the matrix given is the one stored, and the
        # well-definedness check still runs
        m = IntMatrix.from_rows([[-3, 5], [7, -1]])
        free = FGAbelianGroup.free(2)
        assert GroupHom(free, free, m).matrix is m
        mixed = FGAbelianGroup(1, (4,))
        on_mixed = IntMatrix.from_rows([[-3, 5], [0, -1]])
        assert GroupHom(mixed, mixed, on_mixed).matrix.to_lists() == [[1, 1], [0, -1]]
        with pytest.raises(ValueError, match="homomorphism"):
            GroupHom(FGAbelianGroup(1, (2,)), free, IntMatrix.from_rows([[1, 0], [0, 1]]))

    def test_compose_and_shape_error(self):
        f = GroupHom.multiplication(Z, 2)
        g = GroupHom.multiplication(Z, 3)
        assert (f @ g).matrix.to_lists() == [[6]]
        other = GroupHom.identity(FGAbelianGroup.free(2))
        with pytest.raises(IncompatibleShapesError, match="incompatible"):
            f @ other

    def test_apply_reduces(self):
        g = FGAbelianGroup.cyclic(6)
        f = GroupHom.multiplication(g, 4)
        assert f.apply((5,)) == (2,)

    def test_multiplication_on_z_is_the_scalar(self):
        assert GroupHom.multiplication(Z, 4).matrix.to_lists() == [[4]]
        assert GroupHom.multiplication(Z, -3).apply((5,)) == (-15,)

    def test_multiplication_by_one_is_the_identity(self):
        for group in (Z, FGAbelianGroup.cyclic(6), FGAbelianGroup(2, (4, 12))):
            assert GroupHom.multiplication(group, 1) == GroupHom.identity(group)

    def test_multiplication_by_zero_is_the_zero_map(self):
        for group in (Z, FGAbelianGroup.cyclic(6), FGAbelianGroup(2, (4, 12))):
            n = group.num_generators
            zero = IntMatrix.from_rows([[0] * n for _ in range(n)], cols=n)
            assert GroupHom.multiplication(group, 0) == GroupHom(group, group, zero)

    def test_multiplication_composes_multiplicatively(self):
        rng = random.Random(41)
        for _ in range(40):
            group = random_group(rng)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            twice = GroupHom.multiplication(group, b) @ GroupHom.multiplication(group, a)
            assert twice == GroupHom.multiplication(group, a * b)

    def test_multiplication_on_torsion_is_stored_reduced(self):
        g6 = FGAbelianGroup.cyclic(6)
        assert GroupHom.multiplication(g6, 8).matrix.to_lists() == [[2]]
        assert GroupHom.multiplication(g6, -1).matrix.to_lists() == [[5]]
        assert GroupHom.multiplication(g6, 8) == GroupHom.multiplication(g6, 2)


class TestKernelCokernel:
    def test_kernel_of_one_minus_doubling_on_z_is_trivial(self):
        f = GroupHom.identity(Z) - GroupHom.multiplication(Z, 2)
        assert f.matrix.to_lists() == [[-1]]
        group, inclusion = kernel(f)
        assert group.is_trivial
        assert inclusion.matrix.cols == 0

    def test_kernel_of_zero_map_on_z_is_z(self):
        f = GroupHom.identity(Z) - GroupHom.multiplication(Z, 1)
        group, inclusion = kernel(f)
        assert group == Z
        assert inclusion.matrix.to_lists() == [[1]]

    def test_kernel_on_z3(self):
        g = FGAbelianGroup.cyclic(3)
        group, _ = kernel(GroupHom.identity(g) - GroupHom.multiplication(g, 2))
        assert group.is_trivial

    def test_cokernel_values(self):
        f = GroupHom.identity(Z) - GroupHom.multiplication(Z, 3)
        group, projection = cokernel(f)
        assert group == FGAbelianGroup.cyclic(2)
        assert projection.apply((1,)) == (1,)
        group, _ = cokernel(GroupHom.identity(Z) - GroupHom.multiplication(Z, 1))
        assert group == Z
        g6 = FGAbelianGroup.cyclic(6)
        group, _ = cokernel(GroupHom.identity(g6) - GroupHom.multiplication(g6, 2))
        assert group.is_trivial

    def test_kernel_identity_and_zero_map(self):
        g = group_from_presentation(2, IntMatrix.from_rows([[4, 0], [0, 6]]))
        assert kernel(GroupHom.identity(g))[0].is_trivial
        assert cokernel(GroupHom.identity(g))[0].is_trivial
        zero = GroupHom.multiplication(g, 0)
        assert kernel(zero)[0] == g
        assert cokernel(zero)[0] == g

    def test_inclusion_and_projection_are_exact(self):
        rng = random.Random(5)
        for _ in range(40):
            group = random_finite_group(rng, max_order=500)
            f = random_endomorphism(rng, group)
            ker_group, inclusion = kernel(f)
            for j in range(ker_group.num_generators):
                image = f.apply(inclusion.matrix.column(j))
                assert element_is_zero(group, image)
            cok_group, projection = cokernel(f)
            for j in range(group.num_generators):
                assert element_is_zero(cok_group, projection.apply(f.matrix.column(j)))

    def test_kernel_matches_the_smith_lattice_route(self):
        rng = random.Random(10)
        compared = 0
        while compared < 500:
            domain, codomain = random_group(rng), random_group(rng)
            if domain == codomain:
                continue
            f = random_hom(rng, domain, codomain)
            group, inclusion = kernel(f)
            assert group == kernel_via_smith_lattice(f)[0]
            product = (f @ inclusion).matrix
            assert not any(map(any, product.entries))
            assert kernel(inclusion)[0].is_trivial
            compared += 1

    def test_kernel_rejects_a_map_that_is_not_well_defined(self):
        # 1 on Z/2 -> Z sends the relation 2*g0 to 2, outside the kernel lattice
        f = object.__new__(GroupHom)
        for name, value in (("domain", FGAbelianGroup.cyclic(2)), ("codomain", Z),
                            ("matrix", IntMatrix.identity(1))):
            object.__setattr__(f, name, value)
        with pytest.raises(RuntimeError, match="outside the kernel lattice"):
            kernel(f)

    def test_kernel_and_cokernel_orders_match_on_finite_groups(self):
        rng = random.Random(6)
        for _ in range(60):
            group = random_finite_group(rng)
            f = random_endomorphism(rng, group)
            assert kernel(f)[0].order() == cokernel(f)[0].order()


class TestGroupOperations:
    def test_direct_sum_uses_crt(self):
        assert direct_sum(FGAbelianGroup.cyclic(2),
                          FGAbelianGroup.cyclic(3)) == FGAbelianGroup.cyclic(6)

    def test_is_isomorphic_matches_canonical_forms(self):
        left = direct_sum(FGAbelianGroup.cyclic(5), FGAbelianGroup.cyclic(3))
        assert left == FGAbelianGroup.cyclic(15)
        assert FGAbelianGroup.cyclic(4) != group_from_presentation(
            2, IntMatrix.from_rows([[2, 0], [0, 2]]))

    def test_element_is_zero(self):
        assert element_is_zero(FGAbelianGroup.cyclic(4), (8,))
        assert not element_is_zero(FGAbelianGroup.cyclic(4), (6,))
        assert element_is_zero(Z, (0,))
        assert not element_is_zero(Z, (4,))

    def test_element_is_zero_against_modular_arithmetic(self):
        rng = random.Random(9)
        for _ in range(200):
            group = random_finite_group(rng)
            coords = [rng.randint(-10**6, 10**6) for _ in range(group.num_generators)]
            expected = all(c % d == 0 for c, d in zip(coords, group.generator_orders()))
            assert element_is_zero(group, coords) == expected
