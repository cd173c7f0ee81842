"""Members formed from their nonzero blocks: the canonical forms, one route
for every q (U_t C^-1 V_t* where the trailing block's power has rank 0),
`weighted_qbt` with a square H, `core_inverse` in A's thin frame and
`weighted_drazin` in WA's. Each is compared with the exact path on integer
inputs."""

import dataclasses

import numpy as np
import pytest

from geninv.classical import core_inverse, group_inverse
from geninv.corpus import random_integer_unimodular, random_planted_pair, random_square
from geninv.decomposition import (canonical_qbt, canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.errors import DomainError
from geninv.exact import (exact_core, exact_group, exact_qbt, exact_weighted_drazin,
                          exact_weighted_qbt, float_of, rmatrix_from_complex)
from geninv.reference import pair_4x3_float, pair_5x4_float
from geninv.weighted import WeightedPair, _member_read, weighted_drazin, weighted_qbt

from conftest import rel


def _planted(k, integer=False, seed=0):
    planted = random_planted_pair(np.random.default_rng([seed, k]), k, max_dim=8,
                                  integer=integer)
    return WeightedPair.from_matrices(planted.a, planted.w)


def _exact(x):
    return rmatrix_from_complex(np.asarray(x, dtype=np.complex128))


def _integer_squares(k, seed):
    """Integer squares: a unimodular one (index 0) at k = 0, otherwise AW
    and WA of an integer planted pair with max(Ind(AW), Ind(WA)) = k."""
    if k == 0:
        return [random_integer_unimodular(np.random.default_rng([seed, 0]), 8)[0]]
    p = _planted(k, integer=True, seed=seed)
    return [p.a @ p.w, p.w @ p.a]


def _trailing_nan(frame, t):
    """The frame with its columns past t set to NaN: a form that reads them
    returns NaN."""
    out = np.array(frame)
    out[:, t:] = np.nan
    return out


class TestCanonicalFormsAtTheIndex:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_square_form_matches_the_general_route(self, k):
        # the exact q-BT inverse at every q from 0 to the index + 1
        for seed in range(4):
            for a in _integer_squares(k, seed):
                d = core_ep_decompose(a)
                for q in range(d.index + 2):
                    want = float_of(exact_qbt(_exact(a), q))
                    assert rel(canonical_qbt(d, q), want) < 1e-12, (seed, q)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weighted_forms_match_the_general_route(self, k):
        # the exact W-weighted q-BT inverse and the exact q-BT inverses of
        # AW and WA at every q from 0 to k + 1; Omega through the leading
        # block of U* X V, which is C* Omega
        for seed in range(4):
            p = _planted(k, integer=True, seed=seed)
            ea, ew = _exact(p.a), _exact(p.w)
            eaw, ewa = _exact(p.a @ p.w), _exact(p.w @ p.a)
            d = weighted_core_ep_decompose(p)
            t = d.t_dim
            c = d.w1 @ d.a1 @ d.w1
            for q in range(p.k + 2):
                want = float_of(exact_weighted_qbt(ea, ew, q))
                x, parts = canonical_weighted_qbt(d, q)
                assert rel(x, want) < 1e-12, (seed, q)
                lead = (d.u.conj().T @ want @ d.v)[:t, :t]
                assert rel(c.conj().T @ parts.omega, lead) < 1e-12, (seed, q)
                c_aw, c_wa = canonical_qbt_products(d, q)
                assert rel(c_aw, float_of(exact_qbt(eaw, q))) < 1e-12, (seed, q)
                assert rel(c_wa, float_of(exact_qbt(ewa, q))) < 1e-12, (seed, q)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_forms_match_the_exact_path_on_integer_pairs(self, k):
        for seed in range(3):
            p = _planted(k, integer=True, seed=seed)
            ea, ew = _exact(p.a), _exact(p.w)
            d = weighted_core_ep_decompose(p)
            aw, wa = p.a @ p.w, p.w @ p.a
            sq = core_ep_decompose(aw)
            for q in (p.k, p.k + 1):
                want = float_of(exact_weighted_qbt(ea, ew, q))
                assert rel(canonical_weighted_qbt(d, q)[0], want) < 1e-10, (seed, q)
                c_aw, c_wa = canonical_qbt_products(d, q)
                assert rel(c_aw, float_of(exact_qbt(_exact(aw), q))) < 1e-10, (seed, q)
                assert rel(c_wa, float_of(exact_qbt(_exact(wa), q))) < 1e-10, (seed, q)
                assert rel(canonical_qbt(sq, q), float_of(exact_qbt(_exact(aw), q))) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_square_form_reads_only_the_leading_columns(self, k):
        # U's columns past rank(A^k) are NaN: a form that multiplied the
        # whole frame would be NaN
        d = core_ep_decompose(random_square(np.random.default_rng(k), 10, index=k))
        cut = dataclasses.replace(d, u=_trailing_nan(d.u, d.rank))
        for q in (k, k + 1):
            assert np.array_equal(canonical_qbt(cut, q), canonical_qbt(d, q)), q

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weighted_forms_read_only_the_leading_columns(self, k):
        p = _planted(k)
        d = weighted_core_ep_decompose(p)
        t = d.t_dim
        cut = dataclasses.replace(d, u=_trailing_nan(d.u, t), v=_trailing_nan(d.v, t))
        for q in (p.k, p.k + 1):
            x, parts = canonical_weighted_qbt(cut, q)
            x0, parts0 = canonical_weighted_qbt(d, q)
            assert np.array_equal(x, x0) and np.array_equal(parts.omega, parts0.omega), q
            for got, want in zip(canonical_qbt_products(cut, q), canonical_qbt_products(d, q)):
                assert np.array_equal(got, want), q

    def test_the_core_inverse_is_kept_per_decomposition(self):
        # one memo per decomposition keeps each form's factors at the index,
        # which every q past it shares: its middle is C^-1, t x t. A form
        # below the index is built anew and kept nowhere
        p = _planted(2)
        d = weighted_core_ep_decompose(p)
        first = canonical_weighted_qbt(d, p.k)[1].omega
        assert list(d._factors) == ["weighted"]
        assert np.array_equal(canonical_weighted_qbt(d, p.k + 3)[1].omega, first)
        assert d._factors["weighted"][2].shape == (d.t_dim, d.t_dim)
        for q in range(p.ind_aw):
            canonical_weighted_qbt(d, q)
            canonical_qbt_products(d, q)
        assert list(d._factors) == ["weighted"]
        canonical_qbt_products(d, p.k + 1)
        assert sorted(d._factors) == ["aw", "wa", "weighted"]
        sq = core_ep_decompose(random_square(np.random.default_rng(2), 8, index=2))
        canonical_qbt(sq, 0)
        assert not sq._factors
        canonical_qbt(sq, 2)
        canonical_qbt(sq, 3)
        assert list(sq._factors) == ["qbt"]
        # a copy of the decomposition starts with no factors
        assert not dataclasses.replace(sq)._factors


class TestWeightedQbtBranches:
    def test_a_member_that_keeps_every_column_matches_the_exact_path(self):
        for p in (WeightedPair.from_matrices(*pair_5x4_float()), _planted(2, integer=True)):
            ea, ew = _exact(p.a), _exact(p.w)
            seen = False
            for q in range(1, p.k + 2):
                r = _member_read(p, q)[0]
                if r and r == p.rank_sequence_aw[min(q, p.ind_aw) + 1]:
                    seen = True
                    want = float_of(exact_weighted_qbt(ea, ew, q))
                    assert rel(weighted_qbt(p, q), want) < 1e-12, q
            assert seen

    def test_a_deficient_member_keeps_the_pseudoinverse(self):
        # the 4x3 reference pair at q = 1: rank 1 against rank((AW)^2) = 2
        p = WeightedPair.from_matrices(*pair_4x3_float())
        assert (_member_read(p, 1)[0], p.rank_sequence_aw[2]) == (1, 2)
        want = float_of(exact_weighted_qbt(_exact(p.a), _exact(p.w), 1))
        assert rel(weighted_qbt(p, 1), want) < 1e-12


class TestThinFrames:
    @pytest.mark.parametrize("k", [0, 1])
    def test_core_inverse_matches_the_exact_path(self, k):
        for seed in range(3):
            p = _planted(1, integer=True, seed=seed)
            for a in (p.a @ p.w, p.w @ p.a) if k else (np.eye(4) + np.eye(4, k=1),):
                assert rel(core_inverse(a), float_of(exact_core(_exact(a)))) < 1e-12, seed

    def test_core_inverse_of_zero_is_zero(self):
        assert not np.any(core_inverse(np.zeros((3, 3))))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weighted_drazin_matches_the_exact_path(self, k):
        for seed in range(3):
            p = _planted(k, integer=True, seed=seed)
            want = float_of(exact_weighted_drazin(_exact(p.a), _exact(p.w)))
            assert rel(weighted_drazin(p), want) < 1e-10, seed


class TestIndexAboveOne:
    @pytest.mark.parametrize("name, routine, exact", [
        ("core inverse", core_inverse, exact_core),
        ("group inverse", group_inverse, exact_group)])
    def test_both_paths_name_the_routine_called(self, name, routine, exact):
        a = np.eye(2, k=1).astype(np.complex128)
        message = f"{name} requires index at most 1, computed index is 2"
        with pytest.raises(DomainError) as floating:
            routine(a)
        with pytest.raises(DomainError) as exactly:
            exact(_exact(a))
        assert str(floating.value) == str(exactly.value) == message
