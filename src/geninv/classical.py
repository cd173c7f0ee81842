"""Generalized inverses of square matrices: Drazin, group, core, core-EP,
BT, and the q-BT inverse (A P_{A^q})^+.

The q-BT inverse interpolates the family: q = 0 gives the Moore-Penrose
inverse, q = 1 the BT inverse, and any q >= Ind(A) the core-EP inverse.
Each routine reads A's staircase (`projectors._Staircase`): one thin SVD
of A, then one SVD per step of a matrix no larger than rank(A) x
rank(A). Its search (`_Staircase.search`) alone decides every rank(A^j),
and each routine reads Ind(A), or its order clamped at it, from it. The
q-BT member of order q is read off step q + 1 with no factorization of
its own (`_Staircase.member`); q = 0 reads step 1, A's thin SVD, so it is
A^+. The Drazin inverse is one solve on the staircase
(`_Staircase.drazin`): A^d = U_k G, U_k the basis of R(A^k) that the
search holds, with no power of A formed. A takes that SVD once per
distinct value, not per call: each routine takes A through
`projectors._operand`, which keeps the thin SVD of the last operand it
factored and its searched staircase, so the family of one A (q = 0, 1,
..., Ind(A), its Drazin, group and core inverses) factors A once at full
size, takes each step once and shares one solve.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, index_above_one
from .matrix import Tolerances, as_matrix, exponent, frobenius, resolve_tol
from .projectors import _Factored, _nullspace_equal, _operand, _range_equal, _Staircase


def check_q(q, n: int | None = None) -> int:
    """Validate a q-BT exponent (any nonnegative integer) and clamp it at n.

    n is the dimension of the matrix whose powers q indexes. Since
    Ind(B) <= n, R(B^q) = R(B^n) for every q >= n, so the clamp is exact.
    """
    q = exponent(q, "q")
    return q if n is None else min(q, n)


def _drazin(stairs: _Staircase, k: int) -> np.ndarray:
    """A^d = U_k G for k = Ind(A), from the solve the staircase keeps
    (`_Staircase.drazin`). A^+ when k = 0, and 0 when rank(A^k) = 0."""
    if k == 0:
        return stairs.member(0)
    if stairs.ranks[k] == 0:
        n = stairs.shape[0]
        return np.zeros((n, n), dtype=np.complex128)
    uk, g = stairs.drazin(k)
    return uk @ g


def drazin(a) -> np.ndarray:
    """Drazin inverse A^d: the X with XAX = X, AX = XA and XA^(k+1) = A^k,
    k = Ind(A)."""
    stairs = _operand(a, "drazin").staircase()
    return _drazin(stairs, stairs.search(stairs.shape[0] + 1))


def _index_at_most_one(stairs: _Staircase, name: str) -> int:
    """Ind(A) from A's staircase, which must be at most 1 for the inverse
    `name`."""
    k = stairs.search(stairs.shape[0] + 1)
    if k > 1:
        raise index_above_one(name, k)
    return k


def group_inverse(a) -> np.ndarray:
    """Group inverse A^#, the Drazin inverse at Ind(A) <= 1 (A^+ when A is
    nonsingular), defined only there."""
    stairs = _operand(a, "group_inverse").staircase()
    return _drazin(stairs, _index_at_most_one(stairs, "group inverse"))


def core_inverse(a) -> np.ndarray:
    """Core inverse A^# A A^+, defined only when Ind(A) <= 1. A^# = U_1 G
    (`_Staircase.drazin`), U_1 a basis of R(A), and A A^+ = U_1 U_1*, so
    the inverse is U_1 (G U_1) U_1*, formed in that frame with no product
    of two n x n matrices. A^+ when A is nonsingular."""
    stairs = _operand(a, "core_inverse").staircase()
    k = _index_at_most_one(stairs, "core inverse")
    if k == 0 or stairs.ranks[1] == 0:
        return _drazin(stairs, k)
    u1, g = stairs.drazin(1)
    return u1 @ (g @ u1) @ u1.conj().T


def qbt_inverse(a, q: int) -> np.ndarray:
    """q-BT inverse (A P_{A^q})^+ where P projects onto the range of A^q.

    The steps of A's staircase are taken until the ranks stabilize at
    j = Ind(A) + 1 or reach j = q + 1, and q is clamped at Ind(A): every
    q >= Ind(A) gives the core-EP inverse. The member is read off step
    q + 1 (`_Staircase.member`) and takes no factorization of its own;
    q = 0 reads step 1, so it is A^+. The operand memo keeps A's searched
    staircase, so a q-grid on one A takes A's thin SVD and each step once.
    """
    a = _operand(a, "qbt_inverse")
    return _qbt(a.staircase(), check_q(q, a.a.shape[0]))


def _qbt(stairs: _Staircase, q: int) -> np.ndarray:
    """(A P_{A^q})^+ on A's staircase, q clamped at the index its search
    finds up to j = q + 1."""
    return stairs.member(stairs.search(q + 1))


def bt_inverse(a) -> np.ndarray:
    """BT inverse (A P_A)^+."""
    return qbt_inverse(a, 1)


def core_ep(a) -> np.ndarray:
    """Core-EP inverse (A P_{A^k})^+ with k = Ind(A): the q-BT inverse at
    q = n >= Ind(A), whose rank search stops at the index."""
    a = _operand(a, "core_ep")
    return _qbt(a.staircase(), a.a.shape[0])


def outer_inverse_check(a, x, range_gen, null_gen,
                        tol: Tolerances | None = None) -> bool:
    """True iff X is the outer inverse of A with R(X) = R(range_gen) and
    N(X) = N(null_gen): XAX = X plus both set equalities (rank-based,
    each rank under the flat cutoff of its stack).

    A passing candidate takes 5 SVDs: one per stack, one per generator
    and one of X.
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
                                resolve_tol(tol), None)


def _outer_inverse_check(a: np.ndarray, x: _Factored, range_gen: _Factored,
                         null_gen: _Factored, tol: Tolerances, scale: float | None) -> bool:
    """`outer_inverse_check` on validated operands whose singular values a
    caller may already hold; `scale` anchors the rank decisions when the
    generators are derived products whose entries may be rounding noise."""
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
