"""Generalized inverses of square matrices: Drazin, group, core, core-EP,
BT, and the q-BT inverse (A P_{A^q})^+.

The q-BT inverse interpolates the family: q = 0 gives the Moore-Penrose
inverse, q = 1 the BT inverse, and any q >= Ind(A) the core-EP inverse.
Each routine factors A and its powers once: sigma_max(A), the rank
sequence of the powers and a basis of R(A^q) are read off those SVDs.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import Tolerances, as_matrix, frobenius, resolve_tol
from .projectors import (
    _power_ranks,
    matrix_index,
    nullspace_contained,
    pinv,
    power,
    range_basis,
    range_contained,
)


def _require_square(a, name: str) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} requires a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return a


def check_q(q, n: int | None = None) -> int:
    """Validate a q-BT exponent (any nonnegative integer) and clamp it at n.

    n is the dimension of the matrix whose powers q indexes. Since
    Ind(B) <= n, R(B^q) = R(B^n) for every q >= n, so the clamp is exact;
    it keeps the powers and their rank anchors from overflowing.
    """
    if not isinstance(q, (int, np.integer)) or q < 0:
        raise DomainError(f"q must be a nonnegative integer, got {q!r}")
    return int(q) if n is None else min(int(q), n)


def drazin(a) -> np.ndarray:
    """Drazin inverse A^d = A^k (A^(2k+1))^+ A^k with k = Ind(A)."""
    a = _require_square(a, "drazin")
    report = matrix_index(a)
    k, s1 = report.index, report.sigma_max
    ak = power(a, k)
    mid = pinv(power(a, 2 * k + 1), scale=s1 ** (2 * k + 1))
    return ak @ mid @ ak


def group_inverse(a) -> np.ndarray:
    """Group inverse A^#, defined only when Ind(A) <= 1."""
    a = _require_square(a, "group_inverse")
    report = matrix_index(a)
    if report.index > 1:
        raise DomainError(f"group inverse requires index <= 1, computed index is {report.index}")
    return a @ pinv(power(a, 3), scale=report.sigma_max ** 3) @ a


def core_inverse(a) -> np.ndarray:
    """Core inverse A^# A A^+, defined only when Ind(A) <= 1."""
    a = _require_square(a, "core_inverse")
    return group_inverse(a) @ a @ pinv(a)


def _qbt(a: np.ndarray, ranks, aq: np.ndarray) -> np.ndarray:
    """(A P_{A^q})^+ = U (A U)^+ for q = len(ranks) - 2, where ranks holds
    rank(A^j) for j = 0 .. q + 1, aq = A^q and the columns of U are the
    leading rank(A^q) left singular vectors of A^q.

    P = U U* and U* U = I give (A P)^+ = U (A U)^+, so the last SVD factors
    an n x rank(A^q) matrix. A U has rank exactly rank(A^{q+1}); that rank
    is decided on the power, whose anchor grows with q, and pinned in the
    pseudoinverse: the trailing singular values of A U are rounding noise
    at the scale of A, which a flat cutoff cannot reliably reject.
    """
    r = ranks[-1]
    if r == 0:
        return np.zeros_like(a)
    if len(ranks) == 2:
        return pinv(a, fixed_rank=r)
    u = range_basis(aq, fixed_rank=ranks[-2])
    return u @ pinv(a @ u, fixed_rank=r)


def qbt_inverse(a, q: int) -> np.ndarray:
    """q-BT inverse (A P_{A^q})^+ where P projects onto the range of A^q.

    q = 0 is a plain pseudoinverse. Otherwise the ranks of A, A^2, ... are
    decided until they stabilize at j = Ind(A) + 1 or reach j = q + 1, and
    q is clamped at Ind(A): every q >= Ind(A) gives the core-EP inverse,
    and past the index rank(A^{q+1}) would be decided against
    sigma_max^{q+1}, which cond(A)^q outgrows long before q reaches n.
    """
    a = _require_square(a, "qbt_inverse")
    q = check_q(q, a.shape[0])
    if q == 0:
        return pinv(a)
    ranks, _, aq = _power_ranks(a, q + 1)
    return _qbt(a, ranks, aq)


def bt_inverse(a) -> np.ndarray:
    """BT inverse (A P_A)^+."""
    return qbt_inverse(a, 1)


def core_ep(a) -> np.ndarray:
    """Core-EP inverse (A P_{A^k})^+ with k = Ind(A); rank(A^{k+1}) comes
    from the index computation."""
    a = _require_square(a, "core_ep")
    report = matrix_index(a)
    return _qbt(a, report.rank_sequence, power(a, report.index))


def outer_inverse_check(a, x, range_gen, null_gen,
                        tol: Tolerances | None = None,
                        scale: float | None = None) -> bool:
    """True iff X is the outer inverse of A with R(X) = R(range_gen) and
    N(X) = N(null_gen): XAX = X plus both set equalities (rank-based).

    `scale` anchors the rank decisions when the generators are derived
    products whose entries may be rounding noise.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    range_gen = as_matrix(range_gen)
    null_gen = as_matrix(null_gen)
    if x.shape != (a.shape[1], a.shape[0]):
        raise ShapeError(f"candidate must be {a.shape[1]}x{a.shape[0]}, got {x.shape[0]}x{x.shape[1]}")
    if range_gen.shape[0] != x.shape[0]:
        raise ShapeError("range generator must have as many rows as the candidate")
    if null_gen.shape[1] != x.shape[1]:
        raise ShapeError("null-space generator must have as many columns as the candidate")
    tol = resolve_tol(tol)
    if not tol.close(frobenius(x @ a @ x - x), frobenius(x)):
        return False
    if not (range_contained(x, range_gen, scale=scale)
            and range_contained(range_gen, x, scale=scale)):
        return False
    return (nullspace_contained(null_gen, x, scale=scale)
            and nullspace_contained(x, null_gen, scale=scale))


__all__ = [
    "check_q",
    "drazin",
    "group_inverse",
    "core_inverse",
    "core_ep",
    "bt_inverse",
    "qbt_inverse",
    "outer_inverse_check",
]
