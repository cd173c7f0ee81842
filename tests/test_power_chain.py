"""The staircase's rank search makes the decisions of the rule it
replaced, rank(B^j) from a values-only SVD of the formed power B^j cut off
at shape (n, n) against sigma_max(B)^j, wherever that rule is right: on
the corpus products and on random squares. On squares with Jordan links
of 1e-7 or 1e-9, or with a graded core, it reads the planted index where
the power rule does not."""

import numpy as np
import pytest

from geninv import corpus
from geninv.classical import drazin
from geninv.decomposition import core_ep_decompose
from geninv.matrix import rank_cutoff
from geninv import projectors
from geninv.projectors import _Factored, matrix_index

from conftest import rel


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


def probe_square(rng: np.random.Generator, link: float, graded: bool,
                 links: int = 2) -> np.ndarray:
    """24 x 24 U [[T, C], [0, N]] U*: a 12 x 12 core T, N a Jordan chain of
    `links` links of magnitude `link` (planted index links + 1). A graded T
    has singular values spaced geometrically from 1 to 1e-4."""
    u, core, coupling, nil = probe_factors(rng, link, graded, links)
    t = core.shape[0]
    return u @ np.block([[core, coupling], [np.zeros((t, t)), nil]]) @ u.conj().T


def probe_factors(rng: np.random.Generator, link: float, graded: bool,
                  links: int = 2) -> tuple[np.ndarray, ...]:
    """The planted factors U, T, C and N of `probe_square`."""
    t = 12
    if graded:
        core = (corpus.random_unitary(rng, t) @ np.diag(np.geomspace(1.0, 1e-4, t))
                @ corpus.random_unitary(rng, t))
    else:
        core = corpus.random_nonsingular(rng, t)
    nil = np.zeros((t, t), dtype=np.complex128)
    idx = np.arange(links)
    nil[idx, idx + 1] = link
    coupling = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
    return corpus.random_unitary(rng, 2 * t), core, coupling, nil


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
    # every family reads the planted index 3, where the power rule reads 2
    # on the linked ones; on the graded ones the flat cutoff alone would
    # read 2, and the widened step 3 reads 3
    for seed in range(5):
        b = probe_square(np.random.default_rng([seed, 24]), link, graded)
        assert matrix_index(b).rank_sequence == (24, 14, 13, 12, 12), seed
        assert len(power_rule(b)) - 2 == (3 if graded else 2), seed
        assert projectors._memo[2].widened == ([3] if graded else []), seed


def test_links_of_1e_5_read_index_4():
    # three links of 1e-5: the power rule reads rank(A^3) = 12, index 3
    for seed in range(5):
        b = probe_square(np.random.default_rng([seed, 24]), 1e-5, False, links=3)
        assert matrix_index(b).rank_sequence == (24, 15, 14, 13, 12, 12), seed
        assert len(power_rule(b)) - 2 == 3, seed


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


def planted_drazin(u, core, coupling, nil, k: int) -> np.ndarray:
    """The Drazin inverse of U [[T, C], [0, N]] U^-1 for the planted
    factors of `probe_square`, N nilpotent of index at most k, in 50-digit
    arithmetic: U [[T^-1, X], [0, 0]] U^-1, X = sum_(i<k) T^-(i+2) C N^i."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        t_inv = mp.matrix(core.tolist()) ** -1
        c, n = mp.matrix(coupling.tolist()), mp.matrix(nil.tolist())
        x, left, right = mp.zeros(*coupling.shape), t_inv * t_inv, mp.eye(n.rows)
        for _ in range(k):
            x, left, right = x + left * c * right, left * t_inv, right * n
        d = mp.zeros(2 * core.shape[0])
        for i in range(core.shape[0]):
            for j in range(core.shape[0]):
                d[i, j], d[i, core.shape[0] + j] = t_inv[i, j], x[i, j]
        ut = mp.matrix(u.tolist())
        return np.array((ut * d * ut ** -1).tolist(), dtype=np.complex128)


@pytest.mark.parametrize("link, graded, bound", [
    (1e-7, False, 1e-14), (1e-9, False, 1e-14), (1.0, True, 1e-3)],
    ids=["links-1e-7", "links-1e-9", "graded-1e-4"])
def test_probe_drazin_against_planted_factors(link, graded, bound):
    # the graded core puts ||A^d|| near 3e14, and the Drazin inverse of the
    # rounded input is within 1e-4 of the planted one
    for seed in range(3):
        b = probe_square(np.random.default_rng([seed, 24]), link, graded)
        factors = probe_factors(np.random.default_rng([seed, 24]), link, graded)
        exact = planted_drazin(*factors, 3)
        assert rel(drazin(b), exact) <= bound, seed


def test_chain_keeps_few_powers():
    # a 40 x 40 shift has index 40: its staircase decides all 42 ranks and
    # holds the factors of the last two steps only, each an n x n frame and
    # r x r factors, not the factors of every step; a step read below them
    # is formed again from the first basis with the same bits, and held as
    # the last one read
    n = 40
    b = np.diag(np.ones(n - 1), 1).astype(np.complex128)
    stairs = _Factored(b).staircase()
    assert stairs.search(n + 1) == n
    assert stairs.ranks == [*range(n, -1, -1), 0]
    assert sorted(stairs._held) == [n, n + 1]
    held = stairs._held[n]
    assert stairs.step(n) is held
    first = stairs.step(7)
    assert sorted(stairs._held) == [7, n, n + 1]
    again = _Factored(b).staircase()
    again.search(n + 1)
    assert all(np.array_equal(x, y) for x, y in
               zip(vars(first).values(), vars(again.step(7)).values()))
