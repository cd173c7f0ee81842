"""Seeded inputs with planted structure and fixed shapes.

Every function here takes its block sizes as arguments.
`corpus.random_square` and `corpus.random_planted_pair` draw their block
sizes from the seed, which would make the cost of a pass depend on the
seed; these functions plant the same structure (nonsingular core,
nilpotent chain, hidden behind a unitary or unimodular change of basis)
from the corpus's public pieces, with sizes fixed so that the seed
changes only the entries.
"""

from __future__ import annotations

import numpy as np

from geninv import corpus


def _gauss(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def _links(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """Complex entries of magnitude scale * [0.5, 1.5] with random phase."""
    return scale * rng.uniform(0.5, 1.5, count) * np.exp(2j * np.pi * rng.uniform(size=count))


def planted_square(rng: np.random.Generator, n: int, t: int, index: int,
                   chain: float = 1.0) -> np.ndarray:
    """U [[T, C], [0, N]] U* with T t x t nonsingular and N a Jordan chain
    of index - 1 links of magnitude `chain`, so Ind = index and
    rank(A^j) = t + max(0, index - j). Index 0 needs t = n."""
    if index == 0 and t != n:
        raise ValueError("a planted index of 0 needs a core of the full size")
    r = n - t
    nil = np.zeros((r, r), dtype=np.complex128)
    idx = np.arange(max(index - 1, 0))
    nil[idx, idx + 1] = _links(rng, idx.size, chain)
    mid = np.block([[corpus.random_nonsingular(rng, t), _gauss(rng, t, r)],
                    [np.zeros((r, t)), nil]])
    u = corpus.random_unitary(rng, n)
    return u @ mid @ u.conj().T


def planted_pair(rng: np.random.Generator, m: int, n: int, t: int,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Float pair (A m x n, W n x m) with max(Ind(AW), Ind(WA)) = k and a
    core of size t, in the corpus's block form."""
    r, c = m - t, n - t
    a3 = np.zeros((r, c), dtype=np.complex128)
    idx = np.arange(k - 1)
    a3[idx, idx + 1] = _links(rng, k - 1, 1.0)
    w3 = np.zeros((c, r), dtype=np.complex128)
    diag = np.arange(min(r, c))
    w3[diag, diag] = _links(rng, min(r, c), 1.0)
    a_mid = np.block([[corpus.random_nonsingular(rng, t), _gauss(rng, t, c)],
                      [np.zeros((r, t)), a3]])
    w_mid = np.block([[corpus.random_nonsingular(rng, t), _gauss(rng, t, r)],
                      [np.zeros((c, t)), w3]])
    s = corpus.random_unitary(rng, m)
    g = corpus.random_unitary(rng, n)
    return s @ a_mid @ g.conj().T, g @ w_mid @ s.conj().T


def _int_triangular(rng: np.random.Generator, t: int) -> np.ndarray:
    """Upper triangular integer matrix with diagonal in {1, 2}."""
    upper = np.triu(rng.integers(-1, 2, (t, t)) * (rng.uniform(size=(t, t)) < 0.5), 1)
    return np.diag(rng.integers(1, 3, t)) + upper


def _int_links(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.choice(np.array([-2, -1, 1, 2]), size=count)


def integer_pair(rng: np.random.Generator, m: int, n: int, t: int,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer pair with the structure of `planted_pair`, conjugated by
    integer unimodular matrices so that the exact path applies."""
    r, c = m - t, n - t
    a3 = np.zeros((r, c), dtype=np.int64)
    idx = np.arange(k - 1)
    a3[idx, idx + 1] = _int_links(rng, k - 1)
    w3 = np.zeros((c, r), dtype=np.int64)
    diag = np.arange(min(r, c))
    w3[diag, diag] = _int_links(rng, min(r, c))
    a_mid = np.block([[_int_triangular(rng, t), rng.integers(-1, 2, (t, c))],
                      [np.zeros((r, t), dtype=np.int64), a3]])
    w_mid = np.block([[_int_triangular(rng, t), rng.integers(-1, 2, (t, r))],
                      [np.zeros((c, t), dtype=np.int64), w3]])
    s, s_inv = corpus.random_integer_unimodular(rng, m)
    g, g_inv = corpus.random_integer_unimodular(rng, n)
    return s @ a_mid @ g_inv, g @ w_mid @ s_inv


def integer_square(rng: np.random.Generator, n: int, t: int, index: int) -> np.ndarray:
    """Integer S [[T, C], [0, N]] S^-1 with Ind = index."""
    r = n - t
    nil = np.zeros((r, r), dtype=np.int64)
    idx = np.arange(max(index - 1, 0))
    nil[idx, idx + 1] = _int_links(rng, idx.size)
    mid = np.block([[_int_triangular(rng, t), rng.integers(-1, 2, (t, r))],
                    [np.zeros((r, t), dtype=np.int64), nil]])
    s, s_inv = corpus.random_integer_unimodular(rng, n)
    return s @ mid @ s_inv
