"""Members formed from their nonzero blocks: the canonical forms where the
trailing block's power has rank 0 (U_t C^-1 V_t*), `weighted_qbt` with a
square H, `core_inverse` in A's thin frame and `weighted_drazin` in WA's.
Each is compared with the general route it replaces and with the exact
path on integer inputs."""

import dataclasses

import numpy as np
import pytest

from geninv.classical import core_inverse, group_inverse
from geninv.corpus import random_planted_pair, random_square
from geninv.decomposition import (_canonical, canonical_qbt, canonical_qbt_products,
                                  canonical_weighted_qbt, core_ep_decompose,
                                  weighted_core_ep_decompose)
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


def _general_square(d, q):
    """canonical_qbt by the general route, `_canonical` at every q."""
    r = d.rank
    middle, _ = _canonical(d.t, d.s, d.nil, q, d.power_rank(q) - r,
                           fixed_rank=d.power_rank(q + 1) - r)
    return d.u @ middle @ d.u.conj().T


def _general_weighted(d, q):
    """canonical_weighted_qbt's matrix and Omega by the general route."""
    core, coupling, nil, base = d._qbt_blocks
    middle, k_pinv = _canonical(core, coupling, nil, q, d.power_rank_aw(q) - d.t_dim, base=base,
                                scale=d.sigma_max_w * d.sigma_max_a * d.sigma_max_w)
    return d.u @ middle @ d.v.conj().T, k_pinv.conj().T @ k_pinv


def _general_products(d, q):
    t = d.t_dim
    a1, a2, a3, w1, w2, w3 = d.a1, d.a2, d.a3, d.w1, d.w2, d.w3
    out = []
    for frame, blocks, rank in (
            (d.u, (a1 @ w1, a1 @ w2 + a2 @ w3, a3 @ w3), d.power_rank_aw),
            (d.v, (w1 @ a1, w1 @ a2 + w2 @ a3, w3 @ a3), d.power_rank_wa)):
        middle, _ = _canonical(*blocks, q, rank(q) - t, fixed_rank=rank(q + 1) - t)
        out.append(frame @ middle @ frame.conj().T)
    return out


def _trailing_nan(frame, t):
    """The frame with its columns past t set to NaN: a form that reads them
    returns NaN."""
    out = np.array(frame)
    out[:, t:] = np.nan
    return out


class TestCanonicalFormsAtTheIndex:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_square_form_matches_the_general_route(self, k):
        for seed in range(4):
            d = core_ep_decompose(random_square(np.random.default_rng([seed, k]), 10, index=k))
            for q in range(k, k + 2):
                general = _general_square(d, min(q, d.index))
                assert rel(canonical_qbt(d, q), general) < 1e-13, (seed, q)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weighted_forms_match_the_general_route(self, k):
        for seed in range(4):
            p = _planted(k, seed=seed)
            d = weighted_core_ep_decompose(p)
            for q in range(p.ind_aw, p.k + 2):
                x, parts = canonical_weighted_qbt(d, q)
                x0, omega0 = _general_weighted(d, min(q, p.k))
                assert rel(x, x0) < 1e-13, (seed, q)
                assert rel(parts.omega, omega0) < 1e-13, (seed, q)
            for q in range(min(p.ind_aw, p.ind_wa), p.k + 2):
                for got, want in zip(canonical_qbt_products(d, q),
                                     _general_products(d, min(q, p.k))):
                    assert rel(got, want) < 1e-13, (seed, q)

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
        p = _planted(2)
        d = weighted_core_ep_decompose(p)
        first = canonical_weighted_qbt(d, p.k)[1].omega
        assert "_qbt_inverse" in d.__dict__
        assert np.array_equal(canonical_weighted_qbt(d, p.k + 3)[1].omega, first)
        sq = core_ep_decompose(random_square(np.random.default_rng(2), 8, index=2))
        canonical_qbt(sq, 2)
        assert "_t_inverse" in sq.__dict__


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
