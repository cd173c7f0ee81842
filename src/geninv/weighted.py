"""W-weighted generalized inverses of a rectangular pair (A, W).

A is m x n, W is n x m and nonzero. The central object is the W-weighted
q-BT inverse (W A W P_{(AW)^q})^+, which reduces to (WAW)^+ at q = 0, to
the W-weighted BT inverse at q = 1, and to the W-weighted core-EP inverse
for q >= k = max(Ind(AW), Ind(WA)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import check_q, drazin, qbt_inverse
from .errors import DomainError, NumericError, ShapeError
from .matrix import Tolerances, as_matrix, frobenius, rank, resolve_tol, sigma_max
from .projectors import matrix_index, pinv, power, range_basis


@dataclass(frozen=True)
class WeightedPair:
    """A validated (A, W) pair with cached indices and scales.

    ind_aw = Ind(AW), ind_wa = Ind(WA), k = max of both; the rank
    sequences hold rank((AW)^j) and rank((WA)^j) for j = 0 .. index + 1;
    sigma_max_a and sigma_max_w are the largest singular values of A and
    W, the anchors of every rank decision the weighted routines make.
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
        rep_aw = matrix_index(a @ w)
        rep_wa = matrix_index(w @ a)
        ind_aw, ind_wa = rep_aw.index, rep_wa.index
        if abs(ind_aw - ind_wa) > 1:
            raise NumericError(
                f"computed indices Ind(AW)={ind_aw}, Ind(WA)={ind_wa} differ by more than one; "
                "rank cutoff misclassification")
        a = a.copy()
        w = w.copy()
        a.setflags(write=False)
        w.setflags(write=False)
        return cls(a=a, w=w, ind_aw=ind_aw, ind_wa=ind_wa, k=max(ind_aw, ind_wa),
                   rank_sequence_aw=rep_aw.rank_sequence,
                   rank_sequence_wa=rep_wa.rank_sequence,
                   sigma_max_a=sigma_max(a), sigma_max_w=sigma_max(w))

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


def _wqbt_rank(a: np.ndarray, w: np.ndarray, q: int, sa: float, sw: float) -> int:
    """Exact rank of W A W P_{(AW)^q}, decided on W (AW)^{q+1}.

    W A W maps R((AW)^q) onto R(W (AW)^{q+1}), so the two ranks agree.
    Deciding on the power keeps the rank anchor growing with q; the
    trailing singular values of the product itself are rounding noise at
    the scale of the factors, which a flat cutoff cannot reliably reject.
    """
    probe = w @ power(a @ w, q + 1)
    return rank(probe, scale=sw * (sa * sw) ** (q + 1))


def _wqbt_raw(a: np.ndarray, w: np.ndarray, q: int, sa: float, sw: float) -> np.ndarray:
    """(W A W P_{(AW)^q})^+ on raw arrays; tolerates W = 0 (used on blocks).

    sa and sw anchor the rank cutoffs: sigma_max of A and W, or of the
    parent pair when a and w are blocks of a decomposition. q = 0 is a
    plain pseudoinverse of W A W. Otherwise, with U the leading left
    singular vectors of (AW)^q, P = U U* gives the result as U (W A W U)^+,
    whose last SVD factors an n x rank((AW)^q) matrix.
    """
    q = check_q(q, a.shape[0])
    if q == 0:
        return pinv(w @ a @ w, scale=sw * sa * sw)
    r = _wqbt_rank(a, w, q, sa, sw)
    if r == 0:
        return np.zeros(a.shape, dtype=np.complex128)
    u = range_basis(power(a @ w, q), scale=(sa * sw) ** q)
    return u @ pinv(w @ a @ w @ u, fixed_rank=r)


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
    """W-weighted Drazin inverse A (WA)^d (WA)^d."""
    d = drazin(p.w @ p.a)
    return p.a @ d @ d


def weighted_qbt_product_forms(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The two product expressions for the W-weighted q-BT inverse:

    [W (AW)^(q+1) ((AW)^q)^+]^+  and  [(WA)^(q+1) W ((AW)^q)^+]^+.
    """
    q = min(check_q(q), p.k)
    sa, sw = p.sigma_max_a, p.sigma_max_w
    r = _wqbt_rank(p.a, p.w, q, sa, sw)
    if r == 0:
        zero = np.zeros(p.shape, dtype=np.complex128)
        return zero, zero.copy()
    aw = p.a @ p.w
    wa = p.w @ p.a
    pq_pinv = pinv(power(aw, q), scale=(sa * sw) ** q)
    x1 = pinv(p.w @ power(aw, q + 1) @ pq_pinv, fixed_rank=r)
    x2 = pinv(power(wa, q + 1) @ p.w @ pq_pinv, fixed_rank=r)
    return x1, x2


def weighted_qbt_via_square(p: WeightedPair, q: int) -> np.ndarray:
    """(W ((AW)^{q-BT})^+)^+: the weighted inverse through the square q-BT
    inverse of the product AW."""
    q = min(check_q(q), p.k)
    r = _wqbt_rank(p.a, p.w, q, p.sigma_max_a, p.sigma_max_w)
    if r == 0:
        return np.zeros(p.shape, dtype=np.complex128)
    inner = pinv(qbt_inverse(p.a @ p.w, q))
    return pinv(p.w @ inner, fixed_rank=r)


def cline_shift_check(p: WeightedPair, ell: int, tol: Tolerances | None = None) -> bool:
    """Check the shift identity (AW)^(l-1) A = A (WA)^(l-1) for l >= 1.

    Always true mathematically; a false return signals an arithmetic bug.
    """
    if not isinstance(ell, (int, np.integer)) or ell < 1:
        raise DomainError(f"ell must be a positive integer, got {ell!r}")
    tol = resolve_tol(tol)
    left = power(p.a @ p.w, ell - 1) @ p.a
    right = p.a @ power(p.w @ p.a, ell - 1)
    return tol.close(frobenius(left - right), frobenius(right))


def dual_representation_gap(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple (A^{qbt,W}, ((AW)^{qbt})^2 A, A ((WA)^{qbt})^2).

    Exposed as data: for 1 <= q < k the three generally differ, for q >= k
    the first and third coincide while the second may still differ.
    """
    q = check_q(q)
    x = weighted_qbt(p, q)
    aw_qbt = qbt_inverse(p.a @ p.w, q)
    wa_qbt = qbt_inverse(p.w @ p.a, q)
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
