"""Random test-matrix generators with planted structure.

Pairs (A, W) are built in block upper triangular form with a nonsingular
well-conditioned core and a nilpotent tail whose chain length plants the
index of AW and WA exactly, then hidden behind a random conjugation:
unitary for float members, unimodular integer for the integer members
that also feed the exact rational path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weighted import WeightedPair


@dataclass(frozen=True)
class PlantedPair:
    """A generated pair with its known (planted) index.

    integer_entries marks members whose entries are Gaussian integers,
    exactly representable on the rational path.
    """

    a: np.ndarray
    w: np.ndarray
    planted_index: int
    integer_entries: bool

    def to_weighted(self) -> WeightedPair:
        return WeightedPair.from_matrices(self.a, self.w)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    if n == 0:
        return np.eye(0, dtype=np.complex128)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # normalize so the diagonal of R is positive, making Q unique
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_nonsingular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Well-conditioned nonsingular matrix with singular values in [1, 2]."""
    if n == 0:
        return np.eye(0, dtype=np.complex128)
    return random_unitary(rng, n) @ np.diag(rng.uniform(1.0, 2.0, n)).astype(np.complex128) \
        @ random_unitary(rng, n)


def _chain_entry(rng: np.random.Generator) -> complex:
    # magnitude bounded away from zero so chain ranks are unambiguous
    return rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())


def random_integer_unimodular(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer matrix with determinant +-1 and its exact integer inverse.

    Built from a handful of elementary shears with entry growth capped at 6,
    which keeps the condition number small; rank decisions on conjugated
    integer members must stay unambiguous at double precision.
    """
    s = np.eye(n, dtype=np.int64)
    s_inv = np.eye(n, dtype=np.int64)
    if n < 2:
        return s, s_inv
    applied = 0
    attempts = 0
    while applied < max(1, n // 2) and attempts < 8 * (n + 1):
        attempts += 1
        i, j = rng.choice(n, size=2, replace=False)
        c = int(rng.choice([-1, 1]))
        trial = s.copy()
        trial[i, :] += c * trial[j, :]
        trial_inv = s_inv.copy()
        trial_inv[:, j] -= c * trial_inv[:, i]
        if max(np.abs(trial).max(), np.abs(trial_inv).max()) > 3:
            continue
        s, s_inv = trial, trial_inv
        applied += 1
    if not np.array_equal(s @ s_inv, np.eye(n, dtype=np.int64)):
        raise AssertionError("unimodular inverse verification failed")
    return s, s_inv


def _gaussian_int(rng: np.random.Generator, lo: int = -1, hi: int = 2) -> complex:
    return complex(int(rng.integers(lo, hi)), int(rng.integers(lo, hi)))


def _nonzero_gaussian_int(rng: np.random.Generator) -> complex:
    while True:
        z = _gaussian_int(rng)
        if z != 0:
            return z


def _integer_nonsingular(rng: np.random.Generator, n: int) -> np.ndarray:
    # sparse upper triangular with positive diagonal: nonsingular and mild
    m = np.diag(rng.integers(1, 3, n)).astype(np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.5:
                m[i, j] = int(rng.integers(-1, 2))
    return m.astype(np.complex128)


def _mid_blocks(rng: np.random.Generator, t: int, r: int, c: int, k: int, integer: bool):
    """Middle factors [[A1, A2], [0, A3]] (m x n) and [[W1, W2], [0, W3]] (n x m).

    A3 (r x c) carries a superdiagonal chain of k - 1 links and W3 (c x r)
    is diagonal, so A3W3 and W3A3 are nilpotent of index exactly k.
    """
    if integer:
        a1 = _integer_nonsingular(rng, t)
        w1 = _integer_nonsingular(rng, t)
        a2 = np.array([[_gaussian_int(rng) for _ in range(c)] for _ in range(t)],
                      dtype=np.complex128).reshape(t, c)
        w2 = np.array([[_gaussian_int(rng) for _ in range(r)] for _ in range(t)],
                      dtype=np.complex128).reshape(t, r)
    else:
        a1 = random_nonsingular(rng, t)
        w1 = random_nonsingular(rng, t)
        a2 = (rng.standard_normal((t, c)) + 1j * rng.standard_normal((t, c))) / np.sqrt(2.0)
        w2 = (rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))) / np.sqrt(2.0)
    a3 = np.zeros((r, c), dtype=np.complex128)
    for i in range(k - 1):
        a3[i, i + 1] = _nonzero_gaussian_int(rng) if integer else _chain_entry(rng)
    w3 = np.zeros((c, r), dtype=np.complex128)
    for j in range(min(r, c)):
        w3[j, j] = _nonzero_gaussian_int(rng) if integer else _chain_entry(rng)
    a_mid = np.vstack([np.hstack([a1, a2]), np.hstack([np.zeros((r, t)), a3])])
    w_mid = np.vstack([np.hstack([w1, w2]), np.hstack([np.zeros((c, t)), w3])])
    return a_mid, w_mid


def random_planted_pair(rng: np.random.Generator, k: int, max_dim: int = 8,
                        integer: bool = False) -> PlantedPair:
    """Pair (A, W) with max(Ind(AW), Ind(WA)) = k exactly, k in {1, 2, 3}.

    Requires max_dim >= k + 1 so a nonempty core and a chain of length k
    both fit.
    """
    if k < 1 or max_dim < k + 1:
        raise ValueError(f"need k >= 1 and max_dim >= k + 1, got k={k}, max_dim={max_dim}")
    nil_min = max(k, 1)
    t = int(rng.integers(1, max_dim - nil_min + 1))
    r = int(rng.integers(nil_min, max_dim - t + 1))
    c = int(rng.integers(nil_min, max_dim - t + 1))
    a_mid, w_mid = _mid_blocks(rng, t, r, c, k, integer)
    m, n = t + r, t + c
    if integer:
        s, s_inv = random_integer_unimodular(rng, m)
        g, g_inv = random_integer_unimodular(rng, n)
        a = s.astype(np.complex128) @ a_mid @ g_inv.astype(np.complex128)
        w = g.astype(np.complex128) @ w_mid @ s_inv.astype(np.complex128)
    else:
        s = random_unitary(rng, m)
        g = random_unitary(rng, n)
        a = s @ a_mid @ g.conj().T
        w = g @ w_mid @ s.conj().T
    return PlantedPair(a=a, w=w, planted_index=k, integer_entries=integer)


def random_pairs(seed: int, count: int, max_dim: int = 8) -> list[PlantedPair]:
    """Deterministic corpus: indices cycle 1, 2, 3; every second member integer.

    The cycle lengths are coprime, so over six members every index occurs
    with both entry types.
    """
    rng = np.random.default_rng(seed)
    members = []
    for i in range(count):
        k = 1 + i % 3
        integer = i % 2 == 1
        members.append(random_planted_pair(rng, k, max_dim=max_dim, integer=integer))
    return members


def random_square(rng: np.random.Generator, n: int, index: int | None = None) -> np.ndarray:
    """Square matrix with planted index (defaults to a random 0..3 that fits)."""
    if index is None:
        index = int(rng.integers(0, min(3, n) + 1))
    if index > n:
        raise ValueError(f"index {index} cannot exceed dimension {n}")
    if index == 0:
        return random_nonsingular(rng, n)
    t = int(rng.integers(0, n - index + 1))
    r = n - t
    core = random_nonsingular(rng, t)
    coupling = (rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))) / np.sqrt(2.0)
    nil = np.zeros((r, r), dtype=np.complex128)
    for i in range(index - 1):
        nil[i, i + 1] = _chain_entry(rng)
    mid = np.vstack([np.hstack([core, coupling]), np.hstack([np.zeros((r, t)), nil])])
    u = random_unitary(rng, n)
    return u @ mid @ u.conj().T


__all__ = [
    "PlantedPair",
    "random_unitary",
    "random_nonsingular",
    "random_integer_unimodular",
    "random_planted_pair",
    "random_pairs",
    "random_square",
]
