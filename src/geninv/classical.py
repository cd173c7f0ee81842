"""Generalized inverses of square matrices: Drazin, group, core, core-EP,
BT, and the q-BT inverse (A P_{A^q})^+.

The q-BT inverse interpolates the family: q = 0 gives the Moore-Penrose
inverse, q = 1 the BT inverse, and any q >= Ind(A) the core-EP inverse.
Each routine factors A and its powers once: sigma_max(A), the rank
sequence of the powers, a basis of R(A^q) and A^+ are read off those
SVDs, and the powers the index search forms are not formed again.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import matrix_power

from .errors import DomainError, ShapeError
from .matrix import Tolerances, as_matrix, exponent, frobenius, resolve_tol
from .projectors import _Factored, _nullspace_equal, _power_ranks, _range_equal


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
    q = exponent(q, "q")
    return q if n is None else min(q, n)


def _index_search(a: _Factored) -> tuple[int, float, dict[int, _Factored]]:
    """Ind(A), sigma_max(A) and the powers the index search kept, among
    them A^Ind(A) and A^(Ind(A)+1), each held with its factorization."""
    ranks, s1, powers = _power_ranks(a, a.a.shape[0] + 1)
    return len(ranks) - 2, s1, powers


def _drazin(a: _Factored, k: int, s1: float,
            powers: dict[int, _Factored] | None = None) -> np.ndarray:
    """A^d = A^k (A^(2k+1))^+ A^k for k = Ind(A), the cutoff anchored at
    s1^(2k+1) with s1 = sigma_max(A); A^+ from A's own SVD when k = 0.
    `powers` holds A^k and A^(k+1) when the index search already formed
    them; A^(2k+1) is then one product, A^(k+1) A^k."""
    if k == 0:
        return a.pinv(scale=s1)
    if powers is None:
        ak = matrix_power(a.a, k)
        ak1 = ak @ a.a
    else:
        ak, ak1 = powers[k].a, powers[k + 1].a
    return ak @ _Factored(ak1 @ ak).pinv(scale=s1 ** (2 * k + 1)) @ ak


def drazin(a) -> np.ndarray:
    """Drazin inverse A^d = A^k (A^(2k+1))^+ A^k with k = Ind(A)."""
    a = _Factored(_require_square(a, "drazin"))
    return _drazin(a, *_index_search(a))


def _group(a: _Factored) -> np.ndarray:
    k, s1, powers = _index_search(a)
    if k > 1:
        raise DomainError(f"group inverse requires index <= 1, computed index is {k}")
    return _drazin(a, k, s1, powers)


def group_inverse(a) -> np.ndarray:
    """Group inverse A^# = A (A^3)^+ A (A^+ when A is nonsingular), defined
    only when Ind(A) <= 1."""
    return _group(_Factored(_require_square(a, "group_inverse")))


def core_inverse(a) -> np.ndarray:
    """Core inverse A^# A A^+, defined only when Ind(A) <= 1. One thin SVD
    of A serves rank(A) and A^+."""
    a = _Factored(_require_square(a, "core_inverse"), thin=True)
    return _group(a) @ a.a @ a.pinv()


def qbt_inverse(a, q: int) -> np.ndarray:
    """q-BT inverse (A P_{A^q})^+ where P projects onto the range of A^q.

    q = 0 is a plain pseudoinverse. Otherwise the ranks of A, A^2, ... are
    decided until they stabilize at j = Ind(A) + 1 or reach j = q + 1, and
    q is clamped at Ind(A): every q >= Ind(A) gives the core-EP inverse,
    and past the index rank(A^{q+1}) would be decided against
    sigma_max^{q+1}, which cond(A)^q outgrows long before q reaches n.

    With U the leading rank(A^q) left singular vectors of A^q, P = U U*
    and U* U = I give (A P)^+ = U (A U)^+, so the last SVD factors an
    n x rank(A^q) matrix. The search takes the thin SVD of A^q itself, so
    U costs no SVD of its own unless the ranks stabilize before j = q.
    A U has rank exactly rank(A^{q+1}); that rank is decided on the power,
    whose anchor grows with q, and pinned in the pseudoinverse: the
    trailing singular values of A U are rounding noise at the scale of A,
    which a flat cutoff cannot reliably reject.
    """
    a = _Factored(_require_square(a, "qbt_inverse"))
    return _qbt(a, check_q(q, a.a.shape[0]))


def _qbt(a: _Factored, q: int) -> np.ndarray:
    """`qbt_inverse` of a validated square matrix, with q <= n."""
    if q == 0:
        return a.pinv()
    ranks, _, powers = _power_ranks(a, q + 1, thin_at=q)
    q, r = len(ranks) - 2, ranks[-1]  # q clamped at Ind(A)
    if r == 0:
        return np.zeros_like(a.a)
    if q == 0:
        return a.pinv(fixed_rank=r)
    u = powers[q].range_basis(fixed_rank=ranks[-2])
    return u @ _Factored(a.a @ u).pinv(fixed_rank=r)


def bt_inverse(a) -> np.ndarray:
    """BT inverse (A P_A)^+."""
    return qbt_inverse(a, 1)


def core_ep(a) -> np.ndarray:
    """Core-EP inverse (A P_{A^k})^+ with k = Ind(A): the q-BT inverse at
    q = n >= Ind(A), whose rank search stops at the index."""
    a = _Factored(_require_square(a, "core_ep"))
    return _qbt(a, a.a.shape[0])


def outer_inverse_check(a, x, range_gen, null_gen,
                        tol: Tolerances | None = None,
                        scale: float | None = None) -> bool:
    """True iff X is the outer inverse of A with R(X) = R(range_gen) and
    N(X) = N(null_gen): XAX = X plus both set equalities (rank-based).

    `scale` anchors the rank decisions when the generators are derived
    products whose entries may be rounding noise. A passing candidate
    takes 5 SVDs: one per stack, one per generator and one of X.
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
    return _outer_inverse_check(a, _Factored(x), _Factored(range_gen), _Factored(null_gen),
                                resolve_tol(tol), scale)


def _outer_inverse_check(a: np.ndarray, x: _Factored, range_gen: _Factored,
                         null_gen: _Factored, tol: Tolerances, scale: float | None) -> bool:
    """`outer_inverse_check` on validated operands whose singular values a
    caller may already hold."""
    xm = x.a
    if not tol.close(frobenius(xm @ a @ xm - xm), frobenius(xm)):
        return False
    return _range_equal(x, range_gen, scale) and _nullspace_equal(x, null_gen, scale)


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
