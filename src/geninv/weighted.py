"""W-weighted generalized inverses of a rectangular pair (A, W).

A is m x n, W is n x m and nonzero. The central object is the W-weighted
q-BT inverse (W A W P_{(AW)^q})^+, which reduces to (WAW)^+ at q = 0, to
the W-weighted BT inverse at q = 1, and to the W-weighted core-EP inverse
for q >= k = max(Ind(AW), Ind(WA)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import matrix_power

from .classical import _drazin, _qbt, check_q
from .errors import DomainError, NumericError, ShapeError
from .matrix import Tolerances, as_matrix, exponent, frobenius, resolve_tol
from .projectors import _Factored, _power_ranks


@dataclass(frozen=True)
class WeightedPair:
    """A validated (A, W) pair with cached indices and scales.

    ind_aw = Ind(AW), ind_wa = Ind(WA), k = max of both; the rank
    sequences hold rank((AW)^j) and rank((WA)^j) for j = 0 .. index + 1;
    sigma_max_a and sigma_max_w are the largest singular values of A and
    W, the anchors of every rank decision the weighted routines make;
    sigma_max_wa is that of WA, the anchor of its Drazin inverse.
    The indices of AW and WA can differ by at most one; a larger spread
    indicates a rank misclassification and is rejected.
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
    sigma_max_wa: float

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
        m, n = a.shape
        ranks_aw, _, _ = _power_ranks(_Factored(a @ w), m + 1)
        ranks_wa, s_wa, _ = _power_ranks(_Factored(w @ a), n + 1)
        ind_aw, ind_wa = len(ranks_aw) - 2, len(ranks_wa) - 2
        if abs(ind_aw - ind_wa) > 1:
            raise NumericError(
                f"computed indices Ind(AW)={ind_aw}, Ind(WA)={ind_wa} differ by more than one; "
                "rank cutoff misclassification")
        a = a.copy()
        w = w.copy()
        a.setflags(write=False)
        w.setflags(write=False)
        return cls(a=a, w=w, ind_aw=ind_aw, ind_wa=ind_wa, k=max(ind_aw, ind_wa),
                   rank_sequence_aw=tuple(ranks_aw), rank_sequence_wa=tuple(ranks_wa),
                   sigma_max_a=_Factored(a).sigma_max, sigma_max_w=_Factored(w).sigma_max,
                   sigma_max_wa=s_wa)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


def _wqbt_rank(w: np.ndarray, awq1: np.ndarray, q: int, sa: float, sw: float) -> int:
    """Exact rank of W A W P_{(AW)^q}, decided on W (AW)^{q+1}, with awq1 =
    (AW)^{q+1}.

    W A W maps R((AW)^q) onto R(W (AW)^{q+1}), so the two ranks agree.
    Deciding on the power keeps the rank anchor growing with q; the
    trailing singular values of the product itself are rounding noise at
    the scale of the factors, which a flat cutoff cannot reliably reject.
    """
    return _Factored(w @ awq1).rank(scale=sw * (sa * sw) ** (q + 1))


def _wqbt_raw(a: np.ndarray, w: np.ndarray, q: int, sa: float, sw: float,
              awq: _Factored | None = None) -> np.ndarray:
    """(W A W P_{(AW)^q})^+ on raw arrays; tolerates W = 0 (used on blocks).

    sa and sw anchor the rank cutoffs: sigma_max of A and W, or of the
    parent pair when a and w are blocks of a decomposition. q = 0 is a
    plain pseudoinverse of W A W. Otherwise, with U the leading left
    singular vectors of (AW)^q, P = U U* gives the result as U (W A W U)^+,
    whose last SVD factors an n x rank((AW)^q) matrix. `awq` is (AW)^q
    when the caller holds it, so that the caller's projector and U read
    one SVD of it.
    """
    q = check_q(q, a.shape[0])
    if q == 0:
        return _Factored(w @ a @ w).pinv(scale=sw * sa * sw)
    aw = a @ w
    if awq is None:
        awq = _Factored(matrix_power(aw, q))
    r = _wqbt_rank(w, awq.a @ aw, q, sa, sw)
    if r == 0:
        return np.zeros(a.shape, dtype=np.complex128)
    u = awq.range_basis(scale=(sa * sw) ** q)
    return u @ _Factored(w @ a @ w @ u).pinv(fixed_rank=r)


def weighted_qbt(p: WeightedPair, q: int) -> np.ndarray:
    """W-weighted q-BT inverse (W A W P_{(AW)^q})^+, shape m x n.

    q is clamped at k: R((AW)^q) is the same for every q >= k, and past
    it the rank anchors (sigma_max(A) sigma_max(W))^q only lose accuracy.
    """
    return _wqbt_raw(p.a, p.w, min(check_q(q), p.k), p.sigma_max_a, p.sigma_max_w)


def weighted_bt(p: WeightedPair) -> np.ndarray:
    """W-weighted BT inverse (W A W P_{AW})^+; the q = 1 member of the family."""
    return weighted_qbt(p, 1)


def weighted_core_ep(p: WeightedPair) -> np.ndarray:
    """W-weighted core-EP inverse (W A W P_{(AW)^k})^+ with k = max index."""
    return weighted_qbt(p, p.k)


def weighted_drazin(p: WeightedPair) -> np.ndarray:
    """W-weighted Drazin inverse A (WA)^d (WA)^d; (WA)^d reads Ind(WA) and
    sigma_max(WA) from the pair, so its only SVD is that of (WA)^(2k+1)."""
    d = _drazin(_Factored(p.w @ p.a), p.ind_wa, p.sigma_max_wa)
    return p.a @ d @ d


def weighted_qbt_product_forms(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The two product expressions for the W-weighted q-BT inverse:

    [W (AW)^(q+1) ((AW)^q)^+]^+  and  [(WA)^(q+1) W ((AW)^q)^+]^+.
    """
    q = min(check_q(q), p.k)
    sa, sw = p.sigma_max_a, p.sigma_max_w
    aw = p.a @ p.w
    awq = matrix_power(aw, q)
    awq1 = awq @ aw
    r = _wqbt_rank(p.w, awq1, q, sa, sw)
    if r == 0:
        zero = np.zeros(p.shape, dtype=np.complex128)
        return zero, zero.copy()
    pq_pinv = _Factored(awq).pinv(scale=(sa * sw) ** q)
    x1 = _Factored(p.w @ awq1 @ pq_pinv).pinv(fixed_rank=r)
    x2 = _Factored(matrix_power(p.w @ p.a, q + 1) @ p.w @ pq_pinv).pinv(fixed_rank=r)
    return x1, x2


def weighted_qbt_via_square(p: WeightedPair, q: int) -> np.ndarray:
    """(W ((AW)^{q-BT})^+)^+: the weighted inverse through the square q-BT
    inverse of the product AW."""
    q = min(check_q(q), p.k)
    aw = p.a @ p.w
    r = _wqbt_rank(p.w, matrix_power(aw, q + 1), q, p.sigma_max_a, p.sigma_max_w)
    if r == 0:
        return np.zeros(p.shape, dtype=np.complex128)
    inner = _Factored(_qbt(_Factored(aw), min(q, aw.shape[0]))).pinv()
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
    m, n = p.shape
    aw_qbt = _qbt(_Factored(p.a @ p.w), min(q, m))
    wa_qbt = _qbt(_Factored(p.w @ p.a), min(q, n))
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
