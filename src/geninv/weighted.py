"""W-weighted generalized inverses of a rectangular pair (A, W).

A is m x n, W is n x m and nonzero. The central object is the W-weighted
q-BT inverse (W A W P_{(AW)^q})^+, which reduces to (WAW)^+ at q = 0, to
the W-weighted BT inverse at q = 1, and to the W-weighted core-EP inverse
for q >= k = max(Ind(AW), Ind(WA)).

Every power of AW is read in the r x r coordinates of AW's thin SVD,
r = rank(AW) (`projectors._Powers`), and W enters through W U1, so no
power of AW is factored at full size. The q-BT construction is one
kernel, `projectors._qbt_kernel`, which the square q-BT inverse shares
with W absent; q = 0 is the pseudoinverse of W A W. The pair's chain of
AW decides every rank((AW)^j), and `_member_rank` the member's rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import matrix_power

from .classical import _drazin, _qbt, check_q
from .errors import DomainError, NumericError, ShapeError
from .matrix import Tolerances, as_matrix, exponent, frobenius, resolve_tol
from .projectors import _anchor, _Factored, _Powers, _qbt_kernel


@dataclass(frozen=True)
class WeightedPair:
    """A validated (A, W) pair with cached indices and scales.

    ind_aw = Ind(AW), ind_wa = Ind(WA), k = max of both; the rank
    sequences hold rank((AW)^j) and rank((WA)^j) for j = 0 .. index + 1;
    sigma_max_a and sigma_max_w are the largest singular values of A and
    W, the anchors of every rank decision the weighted routines make.
    The indices of AW and WA can differ by at most one; a larger spread
    indicates a rank misclassification and is rejected.

    The chains of AW and WA (`projectors._Powers`, one thin SVD each) are
    those `from_matrices` searched the indices on; a pair built otherwise
    (by `dataclasses.replace`) runs the same searches on first use. Every
    weighted routine, the weighted decomposition and every q on one pair
    read them, in any thread: like an operand's chain, each forms its
    powers thin, so the search's SVD of P_k also gives the decomposition's
    frame, and changes in place under its lock. Beside them the pair
    keeps the Householder QR of W U1, U1 the range basis of AW's chain,
    taken when the member rank (`_member_rank`) first needs it and then
    read by every q. None of these are fields: equality, `dataclasses.replace` and
    the printed form see only the data above.
    """

    a: np.ndarray
    w: np.ndarray
    ind_aw: int
    ind_wa: int
    k: int
    rank_sequence_aw: tuple[int, ...]
    rank_sequence_wa: tuple[int, ...]
    sigma_max_a: float
    sigma_max_w: float

    @classmethod
    def from_matrices(cls, a, w) -> "WeightedPair":
        a = as_matrix(a)
        w = as_matrix(w)
        if a.shape[0] != w.shape[1] or a.shape[1] != w.shape[0]:
            raise ShapeError(
                f"weight must be {a.shape[1]}x{a.shape[0]} for a {a.shape[0]}x{a.shape[1]} matrix, "
                f"got {w.shape[0]}x{w.shape[1]}")
        if not np.any(w):
            raise DomainError("weight matrix must be nonzero")
        aw, wa = _searched(a, w), _searched(w, a)
        ind_aw, ind_wa = aw.index, wa.index
        if abs(ind_aw - ind_wa) > 1:
            raise NumericError(
                f"computed indices Ind(AW)={ind_aw}, Ind(WA)={ind_wa} differ by more than one; "
                "rank cutoff misclassification")
        a = a.copy()
        w = w.copy()
        a.setflags(write=False)
        w.setflags(write=False)
        pair = cls(a=a, w=w, ind_aw=ind_aw, ind_wa=ind_wa, k=max(ind_aw, ind_wa),
                   rank_sequence_aw=tuple(aw.ranks), rank_sequence_wa=tuple(wa.ranks),
                   sigma_max_a=_Factored(a).sigma_max, sigma_max_w=_Factored(w).sigma_max)
        # the searches' chains become the pair's, so their truncations are
        # the decisions rank_sequence_aw[1] and rank_sequence_wa[1] record
        pair.__dict__.update(_aw=aw, _wa=wa)
        return pair

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @cached_property
    def _aw(self) -> _Powers:
        return _searched(self.a, self.w)

    @cached_property
    def _wa(self) -> _Powers:
        return _searched(self.w, self.a)

    @cached_property
    def _wu1(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, L) with W U1 = R L, the `wu1` of `projectors._qbt_kernel`."""
        return np.linalg.qr(self.w @ self._aw.u1)


def _searched(x: np.ndarray, y: np.ndarray) -> _Powers:
    """The chain of the square product X Y, its index searched on the
    product's thin SVD, which also gives the chain's frame."""
    chain = _Factored(x @ y).powers()
    chain.search(x.shape[0] + 1)
    return chain


def _member_rank(p: WeightedPair, q: int) -> int:
    """rank(W (AW)^(q+1)), the rank of the q-BT member (W A W P_{(AW)^q})^+,
    since W A W maps R((AW)^q) onto R(W (AW)^(q+1)); every route to the
    member reads it here but `weighted_qbt` at q = 0, a pseudoinverse under
    its own cutoff. Decided on L P_(q+1), which has the singular values of
    W (AW)^(q+1) (W U1 = R L, the pair's QR), against the power's anchor
    sigma_max(W) (sigma_max(A) sigma_max(W))^(q+1), read first so that an
    overflow is a DomainError naming the power; the product's own trailing
    values are rounding noise that a flat cutoff cannot reliably reject."""
    sw = p.sigma_max_w
    anchor = sw * _anchor(p.sigma_max_a * sw, q + 1)
    return _Factored(p._wu1[1] @ p._aw.power(q + 1).a, shape=p.w.shape).rank(anchor)


def weighted_qbt(p: WeightedPair, q: int) -> np.ndarray:
    """W-weighted q-BT inverse (W A W P_{(AW)^q})^+, shape m x n.

    q is clamped at min(k, m): R((AW)^q) is fixed from q = Ind(AW) <= m on,
    and past it the member rank's anchor (`_member_rank`) only loses accuracy.
    """
    q = min(check_q(q), p.k, p.shape[0])
    if q == 0:
        sa, sw = p.sigma_max_a, p.sigma_max_w
        return _Factored(p.w @ p.a @ p.w).pinv(scale=sw * sa * sw)
    return _qbt_kernel(p._aw, q, _member_rank(p, q), p._wu1)


def weighted_bt(p: WeightedPair) -> np.ndarray:
    """W-weighted BT inverse (W A W P_{AW})^+; the q = 1 member of the family."""
    return weighted_qbt(p, 1)


def weighted_core_ep(p: WeightedPair) -> np.ndarray:
    """W-weighted core-EP inverse (W A W P_{(AW)^k})^+ with k = max index."""
    return weighted_qbt(p, p.k)


def weighted_drazin(p: WeightedPair) -> np.ndarray:
    """W-weighted Drazin inverse A (WA)^d (WA)^d; (WA)^d reads Ind(WA) from
    the pair and sigma_max(WA) from the pair's chain of WA, and for
    Ind(WA) > 0 its first call factors the r x r compression of
    (WA)^(2k+1), whose core the chain keeps."""
    d = _drazin(p._wa, p.ind_wa)
    return p.a @ d @ d


def weighted_qbt_product_forms(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The two product expressions for the W-weighted q-BT inverse:

    [W (AW)^(q+1) ((AW)^q)^+]^+  and  [(WA)^(q+1) W ((AW)^q)^+]^+.

    Both read the chain of AW (`_Powers`): ((AW)^q)^+ = V1 P_q^+ U1* for
    q >= 1, P_q^+ kept at rank((AW)^q) from the chain's search, so each
    operand is an n x rank(AW) matrix times U1*, and U1 times its
    pseudoinverse is the result. The first operand is W U1 P_(q+1) P_q^+;
    the second forms (WA)^(q+1) W V1 itself. Both pseudoinverses keep the
    member's rank (`_member_rank`).
    """
    q = min(check_q(q), p.k)
    aw = p._aw
    r = _member_rank(p, q)
    if r == 0:
        zero = np.zeros(p.shape, dtype=np.complex128)
        return zero, zero.copy()
    wa_q1_w = matrix_power(p.w @ p.a, q + 1) @ p.w
    if q == 0:
        # (AW)^0 = I: the operands are W A W in its two groupings
        x1 = _Factored(p.w @ (p.a @ p.w)).pinv(fixed_rank=r)
        return x1, _Factored(wa_q1_w).pinv(fixed_rank=r)
    pq_pinv = aw.power(q).pinv(fixed_rank=aw.ranks[q])
    x1 = aw.u1 @ _Factored(p.w @ aw.u1 @ aw.power(q + 1).a @ pq_pinv).pinv(fixed_rank=r)
    x2 = aw.u1 @ _Factored(wa_q1_w @ aw.vh1.conj().T @ pq_pinv).pinv(fixed_rank=r)
    return x1, x2


def weighted_qbt_via_square(p: WeightedPair, q: int) -> np.ndarray:
    """(W ((AW)^{q-BT})^+)^+: the weighted inverse through the square q-BT
    inverse of the product AW on the pair's chain of AW, the result kept
    at the member's rank (`_member_rank`)."""
    q = min(check_q(q), p.k)
    r = _member_rank(p, q)
    if r == 0:
        return np.zeros(p.shape, dtype=np.complex128)
    inner = _Factored(_qbt(p._aw, q)).pinv()
    return _Factored(p.w @ inner).pinv(fixed_rank=r)


def cline_shift_check(p: WeightedPair, ell: int, tol: Tolerances | None = None) -> bool:
    """Check the shift identity (AW)^(l-1) A = A (WA)^(l-1) for l >= 1.

    Always true mathematically; a false return signals an arithmetic bug.
    """
    ell = exponent(ell, "ell", least=1)
    tol = resolve_tol(tol)
    left = matrix_power(p.a @ p.w, ell - 1) @ p.a
    right = p.a @ matrix_power(p.w @ p.a, ell - 1)
    return tol.close(frobenius(left - right), frobenius(right))


def dual_representation_gap(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple (A^{qbt,W}, ((AW)^{qbt})^2 A, A ((WA)^{qbt})^2).

    Exposed as data: for 1 <= q < k the three generally differ, for q >= k
    the first and third coincide while the second may still differ.
    """
    q = check_q(q)
    x = weighted_qbt(p, q)
    aw_qbt = _qbt(p._aw, q)
    wa_qbt = _qbt(p._wa, q)
    return x, aw_qbt @ aw_qbt @ p.a, p.a @ wa_qbt @ wa_qbt


__all__ = [
    "WeightedPair",
    "weighted_qbt",
    "weighted_bt",
    "weighted_core_ep",
    "weighted_drazin",
    "weighted_qbt_product_forms",
    "weighted_qbt_via_square",
    "cline_shift_check",
    "dual_representation_gap",
]
