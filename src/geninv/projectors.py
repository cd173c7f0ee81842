"""Moore-Penrose inverse, orthogonal projectors, matrix index, and
rank-based range / null-space predicates."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import as_matrix, rank, rank_from_values, singular_values


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


def _kept(s: np.ndarray, shape: tuple[int, int], scale: float | None,
          fixed_rank: int | None) -> int:
    """How many of the singular values s to keep: the cutoff rule, or
    `fixed_rank` capped at the nonzero count."""
    if fixed_rank is None:
        return rank_from_values(s, shape, scale)
    return min(int(fixed_rank), int(np.count_nonzero(s > 0.0)))


def pinv(a, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
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
    r = _kept(s, a.shape, scale, fixed_rank)
    if r == 0:
        return np.zeros((n, m), dtype=np.complex128)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def range_basis(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthonormal basis U_r of the range of B: the leading left singular
    vectors of one thin SVD, r decided as in `pinv`, so U_r U_r* = P_B."""
    b = as_matrix(b)
    if b.size == 0:
        return np.zeros((b.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    return u[:, :_kept(s, b.shape, scale, fixed_rank)]


def proj_range(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector P_B = B B^+ onto the range of B."""
    b = as_matrix(b)
    return b @ pinv(b, scale, fixed_rank)


def proj_corange(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector Q_B = B^+ B onto the range of B*."""
    b = as_matrix(b)
    return pinv(b, scale, fixed_rank) @ b


def power(b, q: int) -> np.ndarray:
    """B^q for a square B, with B^0 = I."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ShapeError(f"power requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    if not isinstance(q, (int, np.integer)) or q < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {q!r}")
    return np.linalg.matrix_power(b, int(q))


def _power_ranks(b: np.ndarray, last: int) -> tuple[list[int], float, np.ndarray]:
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
    ranks = [n, rank_from_values(s, b.shape, s1)]
    prev, bj = np.eye(n, dtype=np.complex128), b
    while ranks[-1] != ranks[-2] and len(ranks) <= last:
        prev, bj = bj, bj @ b
        ranks.append(rank(bj, scale=s1 ** len(ranks)))
    return ranks, s1, prev


def matrix_index(b) -> IndexReport:
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
    ranks, s1, _ = _power_ranks(b, n + 1)
    return IndexReport(index=len(ranks) - 2, rank_sequence=tuple(ranks), sigma_max=s1)


class _Factored:
    """A matrix whose singular values are taken on first read and then
    kept, so every rank decision on it shares one values-only SVD."""

    def __init__(self, a: np.ndarray):
        self.a = a

    @cached_property
    def s(self) -> np.ndarray:
        return singular_values(self.a)


def _stacked_rank_equal(stacked: np.ndarray, scale: float | None, *operands: _Factored) -> bool:
    """rank(stacked) = rank(op) for every operand, all cut off against
    ref = max(sigma_max(stacked), scale). One SVD of the stack gives its
    sigma_max and its rank; the operands are read in order and the first
    mismatch stops, so a later operand is factored only if the earlier
    ones agree."""
    s = singular_values(stacked)
    ref = max(float(s[0]) if s.size else 0.0, scale or 0.0)
    r = rank_from_values(s, stacked.shape, ref)
    return all(rank_from_values(op.s, op.a.shape, ref) == r for op in operands)


def _range_equal(x: _Factored, y: _Factored, scale: float | None) -> bool:
    return _stacked_rank_equal(np.hstack([y.a, x.a]), scale, y, x)


def _nullspace_equal(x: _Factored, y: _Factored, scale: float | None) -> bool:
    return _stacked_rank_equal(np.vstack([y.a, x.a]), scale, y, x)


def _operands(x, y, axis: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y as matrices, which must agree in size along `axis` (0: rows,
    1: columns)."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[axis] != y.shape[axis]:
        side = ("row", "column")[axis]
        raise ShapeError(f"{name} needs equal {side} counts, got {x.shape[axis]} and {y.shape[axis]}")
    return x, y


def range_contained(x, y, scale: float | None = None) -> bool:
    """True iff R(x) is contained in R(y), decided as rank([y | x]) = rank(y).

    `scale` anchors the rank cutoff when x or y is a derived quantity whose
    entries may be pure rounding noise.
    """
    x, y = _operands(x, y, 0, "range_contained")
    return _stacked_rank_equal(np.hstack([y, x]), scale, _Factored(y))


def nullspace_contained(y, x, scale: float | None = None) -> bool:
    """True iff N(y) is contained in N(x), decided as rank(rows(y, x)) = rank(y).

    `scale` anchors the rank cutoff as in `range_contained`.
    """
    y, x = _operands(y, x, 1, "nullspace_contained")
    return _stacked_rank_equal(np.vstack([y, x]), scale, _Factored(y))


def range_equal(x, y, scale: float | None = None) -> bool:
    """True iff R(x) = R(y), decided as rank([y | x]) = rank(y) = rank(x).

    One SVD of the stack and one of each operand: 3 in all, 2 when
    rank(y) already differs. `scale` anchors the rank cutoff as in
    `range_contained`.
    """
    x, y = _operands(x, y, 0, "range_equal")
    return _range_equal(_Factored(x), _Factored(y), scale)


def nullspace_equal(x, y, scale: float | None = None) -> bool:
    """True iff N(x) = N(y), decided as rank(rows(y, x)) = rank(y) = rank(x),
    with the SVD count of `range_equal`."""
    x, y = _operands(x, y, 1, "nullspace_equal")
    return _nullspace_equal(_Factored(x), _Factored(y), scale)


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
    "range_equal",
    "nullspace_equal",
]
