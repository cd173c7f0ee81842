"""The rank search on the r x r compression of B's thin SVD makes the
decisions of the rule it replaced: rank(B^j) from a values-only SVD of the
formed power B^j, cut off at shape (n, n) against sigma_max(B)^j."""

import numpy as np
import pytest

from geninv import corpus
from geninv.decomposition import core_ep_decompose
from geninv.matrix import rank_cutoff
from geninv.projectors import _Factored, matrix_index


def power_rule(b: np.ndarray) -> tuple[int, ...]:
    """rank(B^j) for j = 0, 1, ... until two agree or j = n + 1, each from
    a values-only SVD of fl(B^j), anchored at sigma_max(B)^j."""
    n = b.shape[0]
    s1 = np.linalg.svd(b, compute_uv=False)[0] if n else 0.0
    ranks, bj = [n], np.eye(n, dtype=np.complex128)
    while len(ranks) < 2 or (ranks[-1] != ranks[-2] and len(ranks) <= n + 1):
        j = len(ranks)
        bj = bj @ b
        s = np.linalg.svd(bj, compute_uv=False)
        cut = rank_cutoff((n, n), max(s[0] if s.size else 0.0, s1 ** j))
        ranks.append(int(np.count_nonzero(s > cut)))
    return tuple(ranks)


def probe_square(rng: np.random.Generator, link: float, graded: bool) -> np.ndarray:
    """24 x 24 U [[T, C], [0, N]] U*: a 12 x 12 core T, N a Jordan chain of
    two links of magnitude `link` (planted index 3). A graded T has
    singular values spaced geometrically from 1 to 1e-4."""
    t = 12
    if graded:
        core = (corpus.random_unitary(rng, t) @ np.diag(np.geomspace(1.0, 1e-4, t))
                @ corpus.random_unitary(rng, t))
    else:
        core = corpus.random_nonsingular(rng, t)
    nil = np.zeros((t, t), dtype=np.complex128)
    nil[0, 1] = nil[1, 2] = link
    coupling = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    u = corpus.random_unitary(rng, 2 * t)
    return u @ np.block([[core, coupling], [np.zeros((t, t)), nil]]) @ u.conj().T


def corpus_products(seed: int) -> list[np.ndarray]:
    return [m for p in corpus.random_pairs(seed, 100) for m in (p.a @ p.w, p.w @ p.a)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_products_keep_their_rank_sequences(seed):
    for i, b in enumerate(corpus_products(seed)):
        assert matrix_index(b).rank_sequence == power_rule(b), i


@pytest.mark.parametrize("n", [8, 16, 24, 32])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_random_squares_keep_their_rank_sequences(n, k):
    rng = np.random.default_rng([n, k])
    for _ in range(3):
        b = corpus.random_square(rng, n, index=k)
        assert matrix_index(b).rank_sequence == power_rule(b)


PROBES = pytest.mark.parametrize("link, graded", [(1e-7, False), (1e-9, False), (1.0, True)],
                                 ids=["links-1e-7", "links-1e-9", "graded-1e-4"])


@PROBES
def test_probe_squares_keep_their_rank_sequences(link, graded):
    # the rule is kept, right or wrong: the linked cores read index 2 for
    # the planted 3, the graded ones read 3
    for seed in range(5):
        b = probe_square(np.random.default_rng([seed, 24]), link, graded)
        ranks = power_rule(b)
        assert ranks[-1] == 12 and len(ranks) - 2 == (3 if graded else 2)
        assert matrix_index(b).rank_sequence == ranks, seed


@PROBES
def test_probe_squares_decompose_with_a_negligible_lower_left_block(link, graded):
    # the decomposition keeps U* A U block upper triangular and drops the
    # lower-left block U2* A U1; its frame spans R(A^k) closely enough that
    # the dropped block is negligible
    for seed in range(5):
        b = probe_square(np.random.default_rng([seed, 24]), link, graded)
        d = core_ep_decompose(b)
        u, r = d.u, d.rank
        dropped = u[:, r:].conj().T @ b @ u[:, :r]
        assert np.linalg.norm(dropped) <= 1e-10 * np.linalg.norm(b), seed


def test_chain_powers_are_the_powers(rng):
    b = corpus.random_square(rng, 12, index=3)
    chain = _Factored(b, thin=True).powers()
    chain.search(13)
    for j in (1, 2, 3, 4, 7):
        bj = np.linalg.matrix_power(b, j)
        got = chain.u1 @ chain.power(j).a @ chain.vh1
        assert np.linalg.norm(got - bj) <= 1e-13 * np.linalg.norm(bj), j


def test_chain_keeps_few_powers():
    # a long search holds the last two powers, not every power
    n = 40
    b = np.diag(np.ones(n - 1), 1).astype(np.complex128)
    chain = _Factored(b).powers()
    assert chain.search(n + 1) == n
    assert len(chain.ranks) - 2 == n
    assert sorted(chain._held) == [n, n + 1]
