"""Generalized inverses of square matrices: Drazin, group, core, core-EP,
BT, and the q-BT inverse (A P_{A^q})^+.

The q-BT inverse interpolates the family: q = 0 gives the Moore-Penrose
inverse, q = 1 the BT inverse, and any q >= Ind(A) the core-EP inverse.
Each routine takes one thin SVD of A, truncated at r = rank(A), and
works on A's powers in those r x r coordinates (`projectors._Powers`):
sigma_max(A), the rank sequence of the powers, a basis of R(A^q), A^+
and the pseudoinverses of the powers are read off that SVD and SVDs of
r x r matrices. No power of A is formed at full size.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .matrix import Tolerances, as_matrix, exponent, frobenius, resolve_tol
from .projectors import (_anchor, _Factored, _nullspace_equal, _Powers, _power_search,
                          _range_equal)


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


def _index_search(a: _Factored) -> tuple[int, _Powers]:
    """Ind(A) and the chain of A's powers that decided it, which holds
    P_Ind(A) and P_(Ind(A)+1)."""
    chain = _power_search(a, a.a.shape[0] + 1)
    return len(chain.ranks) - 2, chain


def _drazin(chain: _Powers, k: int, s1: float) -> np.ndarray:
    """A^d = A^k (A^(2k+1))^+ A^k for k = Ind(A), in the coordinates of the
    chain: U1 P_k P_(2k+1)^+ P_k V1*, with P_(2k+1) = P_(k+1) V1* U1 P_k and
    its cutoff that of the n x n power A^(2k+1), anchored at s1^(2k+1),
    s1 = sigma_max(A). A^+ from A's own SVD when k = 0."""
    if k == 0:
        return chain.b.pinv(scale=s1)
    anchor = _anchor(s1, 2 * k + 1)
    pk, pk1 = chain.power(k).a, chain.power(k + 1).a
    p2k1 = _Factored(pk1 @ chain.vh1_u1 @ pk, shape=chain.shape)
    return chain.u1 @ (pk @ p2k1.pinv(scale=anchor) @ pk) @ chain.vh1


def drazin(a) -> np.ndarray:
    """Drazin inverse A^d = A^k (A^(2k+1))^+ A^k with k = Ind(A)."""
    a = _Factored(_require_square(a, "drazin"), thin=True)
    k, chain = _index_search(a)
    return _drazin(chain, k, chain.s1)


def _group(a: _Factored) -> np.ndarray:
    k, chain = _index_search(a)
    if k > 1:
        raise DomainError(f"group inverse requires index <= 1, computed index is {k}")
    return _drazin(chain, k, chain.s1)


def group_inverse(a) -> np.ndarray:
    """Group inverse A^# = A (A^3)^+ A (A^+ when A is nonsingular), defined
    only when Ind(A) <= 1."""
    return _group(_Factored(_require_square(a, "group_inverse"), thin=True))


def core_inverse(a) -> np.ndarray:
    """Core inverse A^# A A^+, defined only when Ind(A) <= 1. One thin SVD
    of A serves rank(A), the frame of A^# and A^+."""
    a = _Factored(_require_square(a, "core_inverse"), thin=True)
    return _group(a) @ a.a @ a.pinv()


def qbt_inverse(a, q: int) -> np.ndarray:
    """q-BT inverse (A P_{A^q})^+ where P projects onto the range of A^q.

    q = 0 is a plain pseudoinverse. Otherwise the ranks of A, A^2, ... are
    decided until they stabilize at j = Ind(A) + 1 or reach j = q + 1, and
    q is clamped at Ind(A): every q >= Ind(A) gives the core-EP inverse,
    and past the index rank(A^{q+1}) would be decided against
    sigma_max^{q+1}, which cond(A)^q outgrows long before q reaches n.

    One thin SVD of A, A = U1 S1 V1* truncated at r = rank(A), serves
    everything else in r x r coordinates (`projectors._Powers`): A^q =
    U1 P_q V1*, so U = U1 Ũ with Ũ the leading rank(A^q) left singular
    vectors of P_q spans R(A^q), and with M = S1 V1* U1, P = U U* and
    U* U = I give (A P)^+ = U (A U)^+ = U1 Ũ (M Ũ)^+ U1*. Every SVD after
    the first factors a matrix no larger than r x r. M Ũ has rank exactly
    rank(A^{q+1}); that rank is decided on the power, whose anchor grows
    with q, and pinned in the pseudoinverse: the trailing singular values
    of M Ũ are rounding noise at the scale of A, which a flat cutoff
    cannot reliably reject.
    """
    a = _Factored(_require_square(a, "qbt_inverse"), thin=True)
    return _qbt(a, check_q(q, a.a.shape[0]))


def _qbt(a: _Factored, q: int) -> np.ndarray:
    """`qbt_inverse` of a validated square matrix, with q <= n."""
    if q == 0:
        return a.pinv()
    chain = _power_search(a, q + 1, thin_at=q)
    ranks = chain.ranks
    q, r = len(ranks) - 2, ranks[-1]  # q clamped at Ind(A)
    if r == 0:
        return np.zeros_like(a.a)
    if q == 0:
        return a.pinv(fixed_rank=r)
    ut = chain.basis(q, fixed_rank=ranks[-2])
    u1 = chain.u1
    return u1 @ (ut @ _Factored(chain.m @ ut).pinv(fixed_rank=r)) @ u1.conj().T


def bt_inverse(a) -> np.ndarray:
    """BT inverse (A P_A)^+."""
    return qbt_inverse(a, 1)


def core_ep(a) -> np.ndarray:
    """Core-EP inverse (A P_{A^k})^+ with k = Ind(A): the q-BT inverse at
    q = n >= Ind(A), whose rank search stops at the index."""
    a = _Factored(_require_square(a, "core_ep"), thin=True)
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
