import numpy as np
import pytest

from geninv import weighted
from geninv.classical import qbt_inverse
from geninv.corpus import random_pairs, random_square
from geninv.decomposition import (_k_pinv, block_pinv, canonical_qbt,
                                  canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.errors import DomainError, NumericError
from geninv.matrix import conjugate_transpose, frobenius, rank, sigma_max
from geninv.projectors import _Factored, _Staircase, matrix_index, power
from geninv.weighted import weighted_qbt

from conftest import random_complex, rel


@pytest.fixture(scope="module")
def pairs():
    return [p.to_weighted() for p in random_pairs(seed=55, count=10, max_dim=7)]


class TestCoreEPDecompose:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_reconstruction_and_frames(self, rng, k):
        a = random_square(rng, 6, index=k)
        d = core_ep_decompose(a)
        assert rel(d.compose(), a) < 1e-10
        assert frobenius(conjugate_transpose(d.u) @ d.u - np.eye(6)) < 1e-12
        assert d.index == matrix_index(a).index
        # the core dimension is the stable rank, reached at the index
        assert d.rank == np.linalg.matrix_rank(power(a, max(d.index, 1)))

    def test_core_block_nonsingular_and_nil_nilpotent(self, rng):
        a = random_square(rng, 6, index=2)
        d = core_ep_decompose(a)
        assert rank(d.t) == d.rank
        assert frobenius(power(d.nil, d.index)) < 1e-10

    def test_rank_sequence_and_power_rank(self, rng):
        a = random_square(rng, 6, index=2)
        d = core_ep_decompose(a)
        for j in range(d.index + 3):
            assert d.power_rank(j) == np.linalg.matrix_rank(power(a, j))
        with pytest.raises(DomainError):
            d.power_rank(-1)


class TestWeightedCoreEPDecompose:
    def test_reconstructions_and_frames(self, pairs):
        for p in pairs:
            d = weighted_core_ep_decompose(p)
            m, n = p.shape
            assert rel(d.compose_a(), p.a) < 1e-9
            assert rel(d.compose_w(), p.w) < 1e-9
            assert frobenius(conjugate_transpose(d.u) @ d.u - np.eye(m)) < 1e-12
            assert frobenius(conjugate_transpose(d.v) @ d.v - np.eye(n)) < 1e-12

    def test_reads_the_pair_rank_sequences(self, pairs, monkeypatch):
        # the pair already holds both index reports; the decomposition must
        # not decide them again, possibly at another tolerance
        def no_index(*args, **kwargs):
            raise AssertionError("index searched again")

        with monkeypatch.context() as patch:
            patch.setattr(_Staircase, "search", no_index)
            decompositions = [weighted_core_ep_decompose(p) for p in pairs]
        for p, d in zip(pairs, decompositions):
            assert p.rank_sequence_aw == matrix_index(p.a @ p.w).rank_sequence
            assert p.rank_sequence_wa == matrix_index(p.w @ p.a).rank_sequence
            assert (d.rank_sequence_aw, d.rank_sequence_wa) == (p.rank_sequence_aw,
                                                                p.rank_sequence_wa)

    def test_leading_blocks_nonsingular(self, pairs):
        for p in pairs:
            d = weighted_core_ep_decompose(p)
            t = d.t_dim
            assert d.a1.shape == (t, t)
            assert rank(d.a1) == t
            assert rank(d.w1) == t

    def test_nilpotent_blocks_carry_the_indices(self, pairs):
        # (A3 W3)^ind vanishes at the parent scale while the previous power
        # does not, so the block's nilpotency index is exactly ind
        for p in pairs:
            d = weighted_core_ep_decompose(p)
            assert (d.ind_aw, d.ind_wa) == (p.ind_aw, p.ind_wa)
            for nil, ind in ((d.a3 @ d.w3, d.ind_aw), (d.w3 @ d.a3, d.ind_wa)):
                if not nil.size:
                    continue
                scale = max(1.0, sigma_max(p.a) * sigma_max(p.w)) ** max(ind, 1)
                assert frobenius(power(nil, ind)) < 1e-9 * scale
                if ind >= 1:
                    assert frobenius(power(nil, ind - 1)) > 1e-6


class TestBlockFormulas:
    def _random_blocks(self, rng):
        t = int(rng.integers(1, 4))
        rows = t + int(rng.integers(0, 4))
        cols = t + int(rng.integers(0, 4))
        u, _ = np.linalg.qr(random_complex(rng, rows, rows))
        v, _ = np.linalg.qr(random_complex(rng, cols, cols))
        a1 = random_complex(rng, t, t) + 2 * np.eye(t)
        a2 = random_complex(rng, t, cols - t)
        a3 = random_complex(rng, rows - t, cols - t)
        return u, v, a1, a2, a3

    def _assemble(self, u, v, a1, a2, a3):
        t = a1.shape[0]
        top = np.hstack([a1, a2])
        bottom = np.hstack([np.zeros((a3.shape[0], t)), a3])
        return u @ np.vstack([top, bottom]) @ conjugate_transpose(v)

    def test_block_pinv_matches_svd(self, rng):
        for _ in range(25):
            u, v, a1, a2, a3 = self._random_blocks(rng)
            b = self._assemble(u, v, a1, a2, a3)
            assert rel(block_pinv(u, v, a1, a2, a3), np.linalg.pinv(b)) < 1e-10


class TestCanonicalForms:
    def test_square_canonical_matches_direct(self, rng):
        for k in (1, 2, 3):
            a = random_square(rng, 6, index=k)
            d = core_ep_decompose(a)
            for q in range(k + 2):
                assert rel(canonical_qbt(d, q), qbt_inverse(a, q)) < 1e-8

    def test_weighted_canonical_matches_direct(self, pairs):
        for p in pairs:
            d = weighted_core_ep_decompose(p)
            for q in range(p.k + 2):
                x = weighted_qbt(p, q)
                got, parts = canonical_weighted_qbt(d, q)
                assert rel(got, x) < 1e-8
                assert parts.m_block is not None
                # the leading block of U* X V is C* Omega_W, C = W1 A1 W1
                t = d.t_dim
                c = d.w1 @ d.a1 @ d.w1
                assert rel((d.u.conj().T @ got @ d.v)[:t, :t], c.conj().T @ parts.omega) < 1e-8

    def test_rank_deficient_coupling_is_a_numeric_error(self):
        # the compact K* = [C*; Z (M E)*] with a singular C and M E = 0 has
        # rank 1 < 2
        core = np.diag([1.0, 0.0]).astype(np.complex128)
        zero = np.zeros((2, 1), dtype=np.complex128)
        with pytest.raises(NumericError):
            _k_pinv(core, zero, np.eye(1, dtype=np.complex128), 3)

    def test_product_canonicals_match_square_qbt(self, pairs):
        for p in pairs[:5]:
            d = weighted_core_ep_decompose(p)
            aw, wa = p.a @ p.w, p.w @ p.a
            for q in range(p.k + 2):
                left, right = canonical_qbt_products(d, q)
                assert rel(left, qbt_inverse(aw, q)) < 1e-8
                assert rel(right, qbt_inverse(wa, q)) < 1e-8


def test_canonical_forms_are_independent_of_the_qbt_kernel(pairs, monkeypatch):
    # the canonical route is the check that does not read the members off
    # the staircase: with the square and the weighted member reads made to
    # raise, each canonical form still matches the direct route, computed
    # before the reads were cut off
    rng = np.random.default_rng(17)
    squares = [random_square(rng, n, index=k) for k in (0, 1, 2, 3) for n in (6, 12)]
    cases = []
    for a in squares:
        d = core_ep_decompose(a)
        cases += [(lambda d=d, q=q: canonical_qbt(d, q), qbt_inverse(a, q))
                  for q in range(d.index + 2)]
    for p in pairs:
        d = weighted_core_ep_decompose(p)
        for q in range(p.k + 2):
            cases.append((lambda d=d, q=q: canonical_weighted_qbt(d, q)[0], weighted_qbt(p, q)))
            cases.append((lambda d=d, q=q: canonical_qbt_products(d, q),
                          (qbt_inverse(p.a @ p.w, q), qbt_inverse(p.w @ p.a, q))))
        a3_rank = _Factored(p.a).rank() - d.t_dim
        cases.append((lambda d=d, r=a3_rank: block_pinv(d.u, d.v, d.a1, d.a2, d.a3,
                                                        scale=d.sigma_max_a, a3_rank=r),
                      np.linalg.pinv(p.a)))

    def member_read(*args, **kwargs):
        raise AssertionError("a member was read off the staircase")

    monkeypatch.setattr(_Staircase, "member", member_read, raising=True)
    monkeypatch.setattr(weighted, "_member_read", member_read, raising=True)
    for route, reference in cases:
        got = route()
        if isinstance(reference, tuple):
            assert all(rel(x, y) < 1e-12 for x, y in zip(got, reference))
        else:
            assert rel(got, reference) < 1e-12
