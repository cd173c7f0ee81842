"""Moore-Penrose inverse, orthogonal projectors, matrix index, and
rank-based range / null-space predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import (Tolerances, as_matrix, rank, rank_from_values,
                     singular_values)


@dataclass(frozen=True)
class IndexReport:
    """Result of the index computation for a square matrix.

    index: smallest k >= 0 with rank(B^k) = rank(B^(k+1)).
    rank_sequence: rank(B^j) for j = 0 .. index + 1.
    sigma_max: largest singular value of B, the anchor of every rank
        decision on its powers.
    """

    index: int
    rank_sequence: tuple[int, ...]
    sigma_max: float


def _kept(s: np.ndarray, shape: tuple[int, int], tol: Tolerances | None,
          scale: float | None, fixed_rank: int | None) -> int:
    """How many of the singular values s to keep: the cutoff rule, or
    `fixed_rank` capped at the nonzero count."""
    if fixed_rank is None:
        return rank_from_values(s, shape, tol, scale)
    return min(int(fixed_rank), int(np.count_nonzero(s > 0.0)))


def pinv(a, tol: Tolerances | None = None, scale: float | None = None,
         fixed_rank: int | None = None) -> np.ndarray:
    """Moore-Penrose inverse via SVD with a relative singular-value cutoff.

    `scale` optionally anchors the cutoff to a parent matrix's largest
    singular value when `a` is a derived quantity (power, extracted block).
    `fixed_rank` bypasses the cutoff and keeps exactly that many singular
    values; callers use it when the rank is known from structure and the
    trailing singular values of `a` are pure rounding noise.
    """
    a = as_matrix(a)
    m, n = a.shape
    if a.size == 0:
        return np.zeros((n, m), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = _kept(s, a.shape, tol, scale, fixed_rank)
    if r == 0:
        return np.zeros((n, m), dtype=np.complex128)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def range_basis(b, tol: Tolerances | None = None, scale: float | None = None,
                fixed_rank: int | None = None) -> np.ndarray:
    """Orthonormal basis U_r of the range of B: the leading left singular
    vectors of one thin SVD, r decided as in `pinv`, so U_r U_r* = P_B."""
    b = as_matrix(b)
    if b.size == 0:
        return np.zeros((b.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    return u[:, :_kept(s, b.shape, tol, scale, fixed_rank)]


def proj_range(b, tol: Tolerances | None = None, scale: float | None = None,
               fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector P_B = B B^+ onto the range of B."""
    b = as_matrix(b)
    return b @ pinv(b, tol, scale, fixed_rank=fixed_rank)


def proj_corange(b, tol: Tolerances | None = None, scale: float | None = None,
                 fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector Q_B = B^+ B onto the range of B*."""
    b = as_matrix(b)
    return pinv(b, tol, scale, fixed_rank=fixed_rank) @ b


def power(b, q: int) -> np.ndarray:
    """B^q for a square B, with B^0 = I."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ShapeError(f"power requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    if not isinstance(q, (int, np.integer)) or q < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {q!r}")
    return np.linalg.matrix_power(b, int(q))


def _power_ranks(b: np.ndarray, tol: Tolerances | None,
                 last: int) -> tuple[list[int], float, np.ndarray]:
    """rank(B^j) for j = 0, 1, ... up to the first j with rank(B^j) =
    rank(B^(j-1)), or up to j = last.

    One values-only SVD of B gives both the anchor s1 = sigma_max(B) and
    rank(B); the rank of B^j is taken relative to s1^j. Returns the ranks,
    s1, and B^(len(ranks) - 2): B^Ind(B) when the ranks stabilized,
    B^(last - 1) otherwise.
    """
    n = b.shape[0]
    s = singular_values(b)
    s1 = float(s[0]) if s.size else 0.0
    ranks = [n, rank_from_values(s, b.shape, tol, s1)]
    prev, bj = np.eye(n, dtype=np.complex128), b
    while ranks[-1] != ranks[-2] and len(ranks) <= last:
        prev, bj = bj, bj @ b
        ranks.append(rank(bj, tol, scale=s1 ** len(ranks)))
    return ranks, s1, prev


def matrix_index(b, tol: Tolerances | None = None) -> IndexReport:
    """Index of a square matrix: rank stabilization point of its powers.

    Powers are computed iteratively; the rank of B^j is taken relative to
    sigma_max(B)^j, and one SVD of B gives both sigma_max(B) and rank(B):
    Ind(B) + 1 values-only SVDs in all. The search is capped at n (the
    index never exceeds n).
    """
    b = as_matrix(b)
    n = b.shape[0]
    if n != b.shape[1]:
        raise ShapeError(f"matrix_index requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    ranks, s1, _ = _power_ranks(b, tol, n + 1)
    return IndexReport(index=len(ranks) - 2, rank_sequence=tuple(ranks), sigma_max=s1)


def range_contained(x, y, tol: Tolerances | None = None,
                    scale: float | None = None) -> bool:
    """True iff R(x) is contained in R(y), decided as rank([y | x]) = rank(y).

    `scale` anchors the rank cutoff when x or y is a derived quantity whose
    entries may be pure rounding noise.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ShapeError(f"range_contained needs equal row counts, got {x.shape[0]} and {y.shape[0]}")
    return _stacked_rank_equal(np.hstack([y, x]), y, tol, scale)


def nullspace_contained(y, x, tol: Tolerances | None = None,
                        scale: float | None = None) -> bool:
    """True iff N(y) is contained in N(x), decided as rank(rows(y, x)) = rank(y).

    `scale` anchors the rank cutoff as in `range_contained`.
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"nullspace_contained needs equal column counts, got {y.shape[1]} and {x.shape[1]}")
    return _stacked_rank_equal(np.vstack([y, x]), y, tol, scale)


def _stacked_rank_equal(stacked: np.ndarray, y: np.ndarray, tol: Tolerances | None,
                        scale: float | None) -> bool:
    """rank(stacked) = rank(y), both cut off against max(sigma_max(stacked),
    scale); one SVD of the stack gives its sigma_max and its rank."""
    s = singular_values(stacked)
    ref = max(float(s[0]) if s.size else 0.0, scale or 0.0)
    return rank_from_values(s, stacked.shape, tol, ref) == rank(y, tol, scale=ref)


__all__ = [
    "IndexReport",
    "pinv",
    "range_basis",
    "proj_range",
    "proj_corange",
    "power",
    "matrix_index",
    "range_contained",
    "nullspace_contained",
]
