import dataclasses
import warnings

import numpy as np
import pytest

from geninv import weighted
from geninv.classical import qbt_inverse
from geninv.corpus import random_pairs, random_planted_pair, random_square
from geninv.decomposition import (canonical_qbt_products, canonical_weighted_qbt,
                                  weighted_core_ep_decompose)
from geninv.errors import ShapeError
from geninv.exact import exact_weighted_qbt, requal, rmatrix
from geninv.projectors import pinv, power
from geninv.reference import (PAIR_4X3_A, PAIR_4X3_W, WCEP_4X3, WQBT_4X3, float_matrix,
                              pair_4x3_float)
from geninv.weighted import (WeightedPair, cline_shift_check,
                             dual_representation_gap, weighted_bt,
                             weighted_core_ep, weighted_drazin, weighted_qbt,
                             weighted_qbt_product_forms, weighted_qbt_via_square)

from conftest import rel


@pytest.fixture(scope="module")
def pairs():
    return [p.to_weighted() for p in random_pairs(seed=99, count=12, max_dim=7)]


class TestWeightedPair:
    def test_records_both_indices(self):
        a, w = pair_4x3_float()
        p = WeightedPair.from_matrices(a, w)
        assert (p.ind_aw, p.ind_wa, p.k) == (3, 2, 3)

    def test_rejects_mismatched_weight(self):
        with pytest.raises(ShapeError):
            WeightedPair.from_matrices(np.eye(2), np.eye(3))

    def test_shape_is_of_a(self):
        a, w = pair_4x3_float()
        assert WeightedPair.from_matrices(a, w).shape == (4, 3)

    def test_a_replaced_pair_searches_the_same_chains(self, pairs):
        # dataclasses.replace keeps no staircase: the copy searches AW and WA on
        # first use as from_matrices does, so the routines that read the
        # square q-BT inverses of the products return the same bits
        for p in pairs:
            copy = dataclasses.replace(p)
            assert (copy._aw.ranks, copy._wa.ranks) == (list(p.rank_sequence_aw),
                                                        list(p.rank_sequence_wa))
            for q in range(p.k + 2):
                assert np.array_equal(weighted_qbt_via_square(copy, q),
                                      weighted_qbt_via_square(p, q)), q
                for x, y in zip(dual_representation_gap(copy, q), dual_representation_gap(p, q)):
                    assert np.array_equal(x, y), q


class TestReductions:
    def test_q_zero_is_pinv_of_waw(self, pairs):
        for p in pairs:
            waw = p.w @ p.a @ p.w
            assert rel(weighted_qbt(p, 0), pinv(waw)) < 1e-10

    def test_q_one_is_weighted_bt(self, pairs):
        for p in pairs:
            assert rel(weighted_qbt(p, 1), weighted_bt(p)) < 1e-10

    def test_q_at_least_k_is_weighted_core_ep(self, pairs):
        for p in pairs:
            cep = weighted_core_ep(p)
            for q in (p.k, p.k + 1, p.k + 2):
                assert rel(weighted_qbt(p, q), cep) < 1e-10


class TestKnownValues:
    def test_reference_pair_all_q(self):
        a, w = pair_4x3_float()
        p = WeightedPair.from_matrices(a, w)
        for q, expected in WQBT_4X3.items():
            assert rel(weighted_qbt(p, q), float_matrix(expected)) < 1e-10

    @pytest.mark.parametrize("q", ["n", 60, 600, 2000])
    def test_q_beyond_dimension_gives_the_q_n_member(self, q):
        # k = 3 on the 4x3 pair, so every q >= 3 gives the weighted core-EP inverse
        a, w = pair_4x3_float()
        p = WeightedPair.from_matrices(a, w)
        q = p.shape[0] if q == "n" else q
        cep = float_matrix(WCEP_4X3)
        d = weighted_core_ep_decompose(p)
        routes = [weighted_qbt(p, q), *weighted_qbt_product_forms(p, q),
                  weighted_qbt_via_square(p, q), canonical_weighted_qbt(d, q)[0]]
        for x in routes:
            assert rel(x, cep) < 1e-10
        x_aw, x_wa = canonical_qbt_products(d, q)
        assert rel(x_aw, qbt_inverse(a @ w, 3)) < 1e-10
        assert rel(x_wa, qbt_inverse(w @ a, 3)) < 1e-10
        exact = exact_weighted_qbt(rmatrix(PAIR_4X3_A), rmatrix(PAIR_4X3_W), q)
        assert requal(exact, rmatrix(WCEP_4X3))

    @pytest.mark.parametrize("q", [10, 20, 40])
    def test_large_q_on_a_gaussian_pair(self, q):
        # k = 1 here; past it the anchors (sigma_max(A) sigma_max(W))^q
        # outgrow the spectrum of (AW)^q, so q must be clamped at k.
        rng = np.random.default_rng(1)
        p = WeightedPair.from_matrices(rng.standard_normal((40, 30)),
                                       rng.standard_normal((30, 40)))
        assert p.k == 1
        cep = weighted_core_ep(p)
        d = weighted_core_ep_decompose(p)
        routes = [weighted_qbt(p, q), *weighted_qbt_product_forms(p, q),
                  weighted_qbt_via_square(p, q), canonical_weighted_qbt(d, q)[0]]
        for x in routes:
            assert rel(x, cep) < 1e-10


    def test_canonical_form_tracks_the_direct_route(self):
        # C = W1 A1 W1 has cond 4e2..3e5 on these pairs; the canonical
        # blocks come from K^+ for K = [C, M G], so their error grows like
        # cond(C), not like cond(C)^2 as an inverted Gram matrix K K* would
        worst = 0.0
        for seed in range(1, 13):
            rng = np.random.default_rng(seed)
            p = WeightedPair.from_matrices(rng.standard_normal((40, 30)),
                                           rng.standard_normal((30, 40)))
            x, _ = canonical_weighted_qbt(weighted_core_ep_decompose(p), 10)
            worst = max(worst, rel(x, weighted_core_ep(p)))
        assert worst < 1e-12


class TestSquareIsWeightedWithWAbsent:
    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_qbt_inverse_is_weighted_qbt_with_identity_weight(self, n, k):
        rng = np.random.default_rng([n, k])
        for _ in range(3):
            a = random_square(rng, n, k)
            p = WeightedPair.from_matrices(a, np.eye(n))
            assert p.k == k
            for q in range(k + 3):
                assert rel(qbt_inverse(a, q), weighted_qbt(p, q)) < 1e-12, q


class TestAlternateFormulas:
    def test_product_forms_match_direct(self, pairs):
        for p in pairs:
            for q in range(p.k + 2):
                x = weighted_qbt(p, q)
                left, right = weighted_qbt_product_forms(p, q)
                assert rel(left, x) < 1e-8
                assert rel(right, x) < 1e-8

    def test_via_square_matches_direct(self, pairs):
        for p in pairs:
            for q in range(p.k + 2):
                assert rel(weighted_qbt_via_square(p, q), weighted_qbt(p, q)) < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_route_reads_one_member_rank(self, monkeypatch, k):
        # rank(W (AW)^(q+1)) is decided in one place, the staircase member
        # read: one less there moves the direct route, both product forms
        # and the via-square route
        planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
        p = WeightedPair.from_matrices(planted.a, planted.w)
        routes = {"direct": lambda q: weighted_qbt(p, q),
                  "left": lambda q: weighted_qbt_product_forms(p, q)[0],
                  "right": lambda q: weighted_qbt_product_forms(p, q)[1],
                  "via-square": lambda q: weighted_qbt_via_square(p, q)}
        before = {(name, q): route(q) for name, route in routes.items()
                  for q in range(1, p.k + 1)}
        member_read = weighted._member_read

        def one_less(p, q):
            r, step, wu = member_read(p, q)
            return r - 1, step, wu

        monkeypatch.setattr(weighted, "_member_read", one_less, raising=True)
        for (name, q), x in before.items():
            assert rel(routes[name](q), x) > 1e-3, (name, q)

    def test_dual_representations_coincide_at_high_q(self, pairs):
        # first and third of the triple agree once q reaches k
        for p in pairs[:4]:
            for q in (p.k, p.k + 1):
                x, _, sq = dual_representation_gap(p, q)
                assert rel(sq, x) < 1e-8

    def test_dual_representations_differ_below_k(self):
        a, w = pair_4x3_float()
        p = WeightedPair.from_matrices(a, w)
        x, sq_aw, sq_wa = dual_representation_gap(p, 1)
        assert rel(sq_aw, x) > 1e-2
        assert rel(sq_wa, x) > 1e-2

    def test_cline_shift(self, pairs):
        for p in pairs[:4]:
            for ell in range(1, 3):
                assert cline_shift_check(p, ell)


class TestOverflow:
    """A = [[1e100, 1], [0, 0]], W = [[0, 0], [1, 1e100]]: AW and WA are
    idempotent, but the value 1 of each staircase's second step sits under
    the flat cutoff 2 eps 1e100, so the pair builds at k = 2 with
    rank((AW)^2) = 0. No power of a scale is read on the way, so every
    q-BT route returns 0 with no OverflowError and no numpy warning, as it
    does at 1e20 and 1e50; the weighted decomposition's nilpotency check
    forms no power of sigma_max(A) sigma_max(W) = 1e200 either, so the
    decomposition builds at t = 0, as at 1e20."""

    @pytest.fixture(scope="class")
    def pair(self):
        p = WeightedPair.from_matrices([[1e100, 1], [0, 0]], [[0, 0], [1, 1e100]])
        assert p.k == 2
        return p

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("route", [weighted_qbt, weighted_qbt_product_forms,
                                       weighted_qbt_via_square])
    def test_member_rank_anchor(self, pair, route, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = route(pair, q)
        assert not np.any(out)

    def test_decomposition_builds_at_t_0(self, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = weighted_core_ep_decompose(pair)
        assert d.t_dim == 0
        assert d.residuals(pair.a, pair.w)["nilpotency_aw"] == 0.0


class TestWeightedDrazin:
    def test_defining_equations(self, pairs):
        for p in pairs:
            x = weighted_drazin(p)
            a, w, k = p.a, p.w, p.k
            aw, wa = a @ w, w @ a
            assert rel(x @ w @ a @ w @ x, x) < 1e-8
            assert rel(aw @ x, x @ wa) < 1e-8
            assert rel(x @ w @ power(aw, k + 1), power(aw, k)) < 1e-8


class TestPlantedIndex:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_planted_index_is_realized(self, rng, k):
        pair = random_planted_pair(rng, k)
        p = pair.to_weighted()
        assert p.k == k

    def test_integer_members_have_integer_entries(self):
        members = random_pairs(seed=3, count=9, max_dim=8)
        flagged = [m for m in members if m.integer_entries]
        assert flagged
        for m in flagged:
            for mat in (m.a, m.w):
                assert np.allclose(mat, np.round(mat.real) + 1j * np.round(mat.imag))
