"""W-weighted generalized inverses of a rectangular pair (A, W).

A is m x n, W is n x m and nonzero. The central object is the W-weighted
q-BT inverse (W A W P_{(AW)^q})^+, which reduces to (WAW)^+ at q = 0, to
the W-weighted BT inverse at q = 1, and to the W-weighted core-EP inverse
for q >= k = max(Ind(AW), Ind(WA)).

The pair's staircase of AW (`projectors._Staircase`) decides every
rank((AW)^j), and its step q + 1, AW U_q = U_(q+1) S' V'*, gives the
member: W A W P_{(AW)^q} = W U_(q+1) S' (U_q V')*, so the member is
U_q V' (W U_(q+1) S')^+, and its rank, rank(W (AW)^(q+1)), is that of
W U_(q+1) under the flat cutoff of W (`_member_read`). Every route to the
member, at every q, reads that one rank; at q = 0, step 1 is AW's thin
SVD AW = U1 S1 V1*, and the member (W A W)^+ is V1 (W U1 S1)^+.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import matrix_power

from .classical import _drazin, _qbt, check_q
from .errors import DomainError, NumericError, ShapeError
from .matrix import Tolerances, as_matrix, exponent, frobenius, rank_from_values, resolve_tol
from .projectors import _Factored, _release_memo, _Staircase


@dataclass(frozen=True)
class WeightedPair:
    """A validated (A, W) pair with cached indices and scales.

    ind_aw = Ind(AW), ind_wa = Ind(WA), k = max of both; the rank
    sequences hold rank((AW)^j) and rank((WA)^j) for j = 0 .. index + 1;
    sigma_max_a and sigma_max_w are the largest singular values of A and
    W: W's sets the cutoff of every member rank (`_member_read`), and
    their product scales the weighted decomposition's checks.
    The indices of AW and WA can differ by at most one; a larger spread
    indicates a rank misclassification and is rejected.

    The staircases of AW and WA (`projectors._Staircase`, one thin SVD
    each, its singular vectors cut at rank(AW) and rank(WA)) are those
    `from_matrices` searched the indices on; a pair built otherwise (by
    `dataclasses.replace`) runs the same searches on first use. Every
    weighted routine, the weighted decomposition and every q on one pair
    read them, in any thread: like an operand's staircase, each changes in
    place under its lock, and its steps give the members and the
    decomposition's frames. They are not fields: equality,
    `dataclasses.replace` and the printed form see only the data above.
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
        """The pair (A, W), validated, with both indices searched. No
        weighted routine reads the operand memo of the square routines
        (`projectors._operand`), since each reads the pair's own
        staircases, so the build empties it before it factors AW and WA
        (`projectors._release_memo`): the last square's entry is freed,
        and a square routine called again on that matrix takes its
        full-size SVD once more."""
        a = as_matrix(a)
        w = as_matrix(w)
        if a.shape[0] != w.shape[1] or a.shape[1] != w.shape[0]:
            raise ShapeError(
                f"weight must be {a.shape[1]}x{a.shape[0]} for a {a.shape[0]}x{a.shape[1]} matrix, "
                f"got {w.shape[0]}x{w.shape[1]}")
        if not np.any(w):
            raise DomainError("weight matrix must be nonzero")
        _release_memo()
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
        # the searches' staircases become the pair's, so their steps are
        # the decisions the rank sequences record
        pair.__dict__.update(_aw=aw, _wa=wa)
        return pair

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @cached_property
    def _aw(self) -> _Staircase:
        return _searched(self.a, self.w)

    @cached_property
    def _wa(self) -> _Staircase:
        return _searched(self.w, self.a)


def _searched(x: np.ndarray, y: np.ndarray) -> _Staircase:
    """The staircase of the square product X Y, its index searched."""
    stairs = _Factored(x @ y).staircase()
    stairs.search(x.shape[0] + 1)
    return stairs


def _member_read(p: WeightedPair, q: int) -> tuple[int, tuple, _Factored]:
    """The member rank rank(W (AW)^(q+1)), what the member of order q reads
    off AW's staircase (`_Staircase.read`: U_(q+1), S' and U_q V'), and
    W U_(q+1) thin-factored. The step read is q + 1 up to Ind(AW) + 1,
    past which R((AW)^q) stops changing. W A W maps R((AW)^q) onto
    R(W (AW)^(q+1)) = R(W U_(q+1)), whose rank is decided against
    `rank_cutoff(W.shape, sigma_max(W))`: U_(q+1) has orthonormal columns,
    so W's own noise floor is the product's. Every route to the member
    reads its rank here, at every q."""
    step = p._aw.read(min(q, p._aw.index))
    wu = _Factored(p.w @ step[0], thin=True)
    return rank_from_values(wu.s, p.w.shape, p.sigma_max_w), step, wu


def weighted_qbt(p: WeightedPair, q: int) -> np.ndarray:
    """W-weighted q-BT inverse (W A W P_{(AW)^q})^+, shape m x n.

    q is clamped at k. The member is U_q V' (W U_(q+1) S')^+
    (`_member_read`; at q = 0, V1 (W U1 S1)^+ = (W A W)^+) at the member
    rank r: with W U_(q+1) = Uz Sz Vz* kept at r values and H = Vz_r* S',
    it is U_q V' H^+ Sz_r^-1 Uz_r*. When the member keeps every column,
    r = rank((AW)^(q+1)), H is square and invertible and H^-1 = S'^-1 Vz
    takes no SVD; otherwise H^+ is pinned at rank r.
    """
    q = min(check_q(q), p.k)
    r, (_, s, x), wu = _member_read(p, q)
    if r == 0:
        return np.zeros(p.shape, dtype=np.complex128)
    uz, sz, vzh = wu.usv
    if r == s.size:
        h_pinv = vzh.conj().T / s[:, None]
    else:
        h_pinv = _Factored(vzh[:r] * s).pinv(r)
    return x @ (h_pinv / sz[:r]) @ uz[:, :r].conj().T


def weighted_bt(p: WeightedPair) -> np.ndarray:
    """W-weighted BT inverse (W A W P_{AW})^+; the q = 1 member of the family."""
    return weighted_qbt(p, 1)


def weighted_core_ep(p: WeightedPair) -> np.ndarray:
    """W-weighted core-EP inverse (W A W P_{(AW)^k})^+ with k = max index."""
    return weighted_qbt(p, p.k)


def weighted_drazin(p: WeightedPair) -> np.ndarray:
    """W-weighted Drazin inverse A (WA)^d (WA)^d; (WA)^d reads Ind(WA) from
    the pair, and for Ind(WA) > 0 it is U_k G, one solve on the pair's
    staircase of WA (`_Staircase.drazin`), which takes no factorization
    past the search's. The result is (A U_k)(G U_k) G, with no product of
    two n x n matrices. It returns 0, with no warning, when rank((WA)^k)
    falls under the flat cutoff, as a badly scaled pair's can where the
    exact answer is nonzero."""
    stairs, k = p._wa, p.ind_wa
    if k == 0 or stairs.ranks[k] == 0:
        d = _drazin(stairs, k)
        return p.a @ d @ d
    uk, g = stairs.drazin(k)
    return (p.a @ uk) @ (g @ uk) @ g


def weighted_qbt_product_forms(p: WeightedPair, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The two product expressions for the W-weighted q-BT inverse:

    [W (AW)^(q+1) ((AW)^q)^+]^+  and  [(WA)^(q+1) W ((AW)^q)^+]^+.

    Both are formed as written, from the products' powers: ((AW)^q)^+ is
    kept at rank((AW)^q) from the pair's staircase of AW, and both outer
    pseudoinverses keep the member's rank (`_member_read`).
    """
    q = min(check_q(q), p.k)
    r = _member_read(p, q)[0]
    if r == 0:
        zero = np.zeros(p.shape, dtype=np.complex128)
        return zero, zero.copy()
    aw = p.a @ p.w
    wa_q1_w = matrix_power(p.w @ p.a, q + 1) @ p.w
    if q == 0:
        # (AW)^0 = I: the operands are W A W in its two groupings
        x1 = _Factored(p.w @ aw).pinv(r)
        return x1, _Factored(wa_q1_w).pinv(r)
    awq = matrix_power(aw, q)
    awq_pinv = _Factored(awq).pinv(p._aw.ranks[q])
    x1 = _Factored(p.w @ (aw @ awq) @ awq_pinv).pinv(r)
    x2 = _Factored(wa_q1_w @ awq_pinv).pinv(r)
    return x1, x2


def weighted_qbt_via_square(p: WeightedPair, q: int) -> np.ndarray:
    """(W ((AW)^{q-BT})^+)^+: the weighted inverse through the square q-BT
    inverse of the product AW on the pair's staircase of AW, the result
    kept at the member's rank (`_member_read`)."""
    q = min(check_q(q), p.k)
    r = _member_read(p, q)[0]
    if r == 0:
        return np.zeros(p.shape, dtype=np.complex128)
    inner = _Factored(_qbt(p._aw, q)).pinv()
    return _Factored(p.w @ inner).pinv(r)


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
