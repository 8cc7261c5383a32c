import random
from math import gcd

import pytest

from kdilate.abelian import FGAbelianGroup, GroupHom, cokernel, direct_sum, kernel
from kdilate.colimit import DilationProblem, TAG_FINITE, classify_colimit
from kdilate.kcrossed import (
    CrossedProductK,
    KTheoryData,
    bracket,
    cuntz_closed_form,
    cuntz_k_data,
    pv_crossed_product,
    pv_verify_exactness,
)
from oracles import brute_one_minus_ker_coker, random_endomorphism, random_group

Z = FGAbelianGroup.free(1)
TRIVIAL = FGAbelianGroup.trivial()


class TestBracket:
    def test_strips_shared_primes(self):
        assert bracket(2, 6) == 3

    def test_one_function_under_every_import_path(self):
        import kdilate
        from kdilate import colimit
        assert kdilate.bracket is bracket is colimit.bracket

    def test_one_is_coprime_to_everything(self):
        for b in (1, 2, 17, 360):
            assert bracket(1, b) == b

    def test_against_divisor_scan(self):
        # largest divisor of 360 coprime to 6, by brute force
        best = max(c for c in range(1, 361) if 360 % c == 0 and gcd(6, c) == 1)
        assert best == 5
        assert bracket(6, 360) == 5

    def test_brute_force_grid(self):
        for a in range(1, 30):
            for b in range(1, 80):
                expected = max(c for c in range(1, b + 1)
                               if b % c == 0 and gcd(a, c) == 1)
                assert bracket(a, b) == expected

    def test_zero_arguments_rejected(self):
        for a, b in ((0, 5), (5, 0), (0, 0), (-2, 4)):
            with pytest.raises(ValueError, match="undefined bracket argument"):
                bracket(a, b)


class TestPVCrossedProduct:
    def test_multiplier_family_on_z(self):
        for m in range(2, 9):
            data = cuntz_k_data(None, m)
            result = pv_crossed_product(data)
            assert result.k0 == FGAbelianGroup.cyclic(m - 1)
            assert result.k1 == TRIVIAL
            assert pv_verify_exactness(result)

    def test_trivial_multiplier_gives_z_z(self):
        result = pv_crossed_product(cuntz_k_data(None, 1))
        assert result.k0 == Z
        assert result.k1 == Z

    def test_trivial_action_on_z_z_splits_to_rank_two(self):
        data = KTheoryData.with_identity_maps(Z, Z)
        result = pv_crossed_product(data)
        assert result.k0 == FGAbelianGroup.free(2)
        assert result.k1 == FGAbelianGroup.free(2)
        assert "free kernel end splits" in result.resolution_reason
        assert pv_verify_exactness(result)

    def test_trivial_action_split_policy_grid(self):
        groups = [TRIVIAL, Z, FGAbelianGroup.free(2), FGAbelianGroup.cyclic(2),
                  FGAbelianGroup.cyclic(6), FGAbelianGroup.from_orders([2, 4]),
                  FGAbelianGroup(1, (3,))]
        for k0 in groups:
            for k1 in groups:
                data = KTheoryData.with_identity_maps(k0, k1)
                result = pv_crossed_product(data)
                expected = direct_sum(k0, k1)
                if k1.is_free:  # kernel end of the K0 extension
                    assert result.k0 == expected, (k0, k1)
                if k0.is_free:  # kernel end of the K1 extension
                    assert result.k1 == expected, (k0, k1)
                assert pv_verify_exactness(result)

    def test_finite_by_finite_extension_stays_unresolved(self):
        data = KTheoryData.with_identity_maps(FGAbelianGroup.cyclic(3),
                                              FGAbelianGroup.cyclic(5))
        result = pv_crossed_product(data)
        assert result.k0 is None and result.k1 is None
        assert not result.fully_resolved
        assert "unresolved" in result.resolution_reason
        assert (result.k0_sub, result.k0_quot) == (FGAbelianGroup.cyclic(3),
                                                   FGAbelianGroup.cyclic(5))
        assert pv_verify_exactness(result)  # vacuous on unresolved pieces

    def test_verify_rejects_tampered_orders(self):
        data = cuntz_k_data(None, 3)
        result = pv_crossed_product(data)
        assert result.k0 == FGAbelianGroup.cyclic(2)
        tampered = CrossedProductK(
            result.k0_sub, result.k0_quot, result.k1_sub, result.k1_quot,
            k0=FGAbelianGroup.cyclic(5),
            k1=result.k1, resolution_reason=result.resolution_reason)
        assert not pv_verify_exactness(tampered)

    def test_verify_rejects_tampered_rank(self):
        data = KTheoryData.with_identity_maps(Z, Z)
        result = pv_crossed_product(data)
        tampered = CrossedProductK(
            result.k0_sub, result.k0_quot, result.k1_sub, result.k1_quot,
            k0=result.k0, k1=Z,
            resolution_reason=result.resolution_reason)
        assert not pv_verify_exactness(tampered)

    def test_seeded_k_data_over_finite_free_and_mixed_bases(self):
        def base_of_kind(rng, kind):
            while True:
                group = random_group(rng)
                finite = group.free_rank == 0
                if kind == "finite" and finite and group.order() <= 1000:
                    return group
                if kind == "free" and not finite and group.is_free:
                    return group
                if kind == "mixed" and not finite and not group.is_free:
                    return group

        rng = random.Random(33)
        kinds = ("finite", "free", "mixed")
        open_pieces = settled_pieces = brute_checked = 0
        for trial in range(200):
            k0 = base_of_kind(rng, kinds[trial % 3])
            k1 = base_of_kind(rng, kinds[trial // 3 % 3])
            data = KTheoryData(k0, k1, random_endomorphism(rng, k0),
                               random_endomorphism(rng, k1))
            result = pv_crossed_product(data)
            ends = {}
            for degree, base, endo in ((0, k0, data.map0), (1, k1, data.map1)):
                one_minus = GroupHom.identity(base) - endo
                ends[degree] = (kernel(one_minus)[0], cokernel(one_minus)[0])
                if base.free_rank == 0:
                    brute = brute_one_minus_ker_coker(base.generator_orders(),
                                                      endo.matrix.to_lists())
                    assert tuple(end.invariant_factors for end in ends[degree]) == brute
                    assert not any(end.free_rank for end in ends[degree])
                    brute_checked += 1
            (ker0, cok0), (ker1, cok1) = ends[0], ends[1]
            assert (result.k0_sub, result.k0_quot) == (cok0, ker1)
            assert (result.k1_sub, result.k1_quot) == (cok1, ker0)
            for sub, quot, piece in ((cok0, ker1, result.k0), (cok1, ker0, result.k1)):
                left_open = not sub.is_trivial and not quot.is_trivial and not quot.is_free
                assert (piece is None) == left_open, (k0, k1)
                if piece is None:
                    open_pieces += 1
                    continue
                settled_pieces += 1
                assert piece.free_rank == sub.free_rank + quot.free_rank
                if piece.is_finite:
                    assert piece.order() == sub.order() * quot.order()
            assert pv_verify_exactness(result)
        assert open_pieces >= 50 and settled_pieces >= 200 and brute_checked >= 130, \
            (open_pieces, settled_pieces, brute_checked)


class TestCuntzClosedForm:
    def test_infinite_case_with_multiplier(self):
        form = cuntz_closed_form(None, 4)
        assert form.label == "O_4"
        assert form.k0 == FGAbelianGroup.cyclic(3)
        assert form.k1 == TRIVIAL
        assert form.k is None and form.order_gcd is None

    def test_infinite_case_trivial_multiplier(self):
        form = cuntz_closed_form(None, 1)
        assert form.label == "B"
        assert form.k0 == Z and form.k1 == Z

    def test_finite_multiplier_one_keeps_full_torsion(self):
        for n in (2, 5, 6, 13):
            form = cuntz_closed_form(n, 1)
            assert form.k == n - 1
            assert form.order_gcd == n - 1
            assert form.k0 == FGAbelianGroup.cyclic(n - 1) == form.k1

    def test_the_two_closed_forms_disagree_and_the_gcd_form_wins(self):
        form = cuntz_closed_form(7, 2)
        assert form.k == 3
        assert form.order_quotient == 3  # quotient form
        assert form.order_gcd == 1       # confirmed by enumeration
        assert form.k0 == TRIVIAL and form.k1 == TRIVIAL
        assert form.label == "O_2 x O_2"

    def test_precondition_m_below_n(self):
        with pytest.raises(ValueError, match="requires m<n"):
            cuntz_closed_form(4, 5)
        with pytest.raises(ValueError, match="requires m<n"):
            cuntz_closed_form(4, 4)
        with pytest.raises(ValueError):
            cuntz_closed_form(None, 0)

    def test_k_matches_colimit_invariant_factor_on_grid(self):
        for n in range(2, 31):
            base = FGAbelianGroup.cyclic(n - 1)
            for m in range(1, min(10, n - 1) + 1):
                form = cuntz_closed_form(n, m)
                colimit = classify_colimit(
                    DilationProblem(base, GroupHom.multiplication(base, m)))
                assert colimit.tag == TAG_FINITE
                assert colimit.fg_part == FGAbelianGroup.cyclic(form.k), (n, m)

    def test_pv_pieces_match_elementwise_enumeration_on_grid(self):
        for n in range(2, 31):
            for m in range(1, min(10, n - 1) + 1):
                result = pv_crossed_product(cuntz_k_data(n, m))
                colimit = classify_colimit(DilationProblem(
                    FGAbelianGroup.cyclic(n - 1),
                    GroupHom.multiplication(FGAbelianGroup.cyclic(n - 1), m)))
                k = colimit.fg_part.order()
                kernel_size = sum(1 for x in range(k) if (x - m * x) % k == 0)
                coker_size = k // len({(x - m * x) % k for x in range(k)})
                assert result.k0_sub == FGAbelianGroup.cyclic(coker_size)
                assert result.k1_quot == FGAbelianGroup.cyclic(kernel_size)

    def test_label_matches_kgroups_of_the_tensor_square(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(2, 40)
            m = rng.randint(1, n - 1)
            form = cuntz_closed_form(n, m)
            g = form.order_gcd
            # K-theory of O_{g+1} (x) O_{g+1} is (Z/g, Z/g); the label only
            # makes sense because the gcd value feeds it
            assert form.k0 == FGAbelianGroup.cyclic(g)
            assert form.k1 == FGAbelianGroup.cyclic(g)
            assert form.label == f"O_{g + 1} x O_{g + 1}"
