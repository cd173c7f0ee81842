"""Block decompositions and the canonical forms built on them.

Two decompositions: the core-EP decomposition of a square matrix
A = U [[T, S], [0, N]] U* with T nonsingular and N nilpotent, and the
weighted core-EP decomposition of a rectangular pair
A = U [[A1, A2], [0, A3]] V*, W = V [[W1, W2], [0, W3]] U* with A1, W1
nonsingular and A3W3, W3A3 nilpotent. On top of them: a block formula
for the Moore-Penrose inverse of a 2x2 upper triangular matrix with
nonsingular leading block, and canonical block forms of the q-BT and
W-weighted q-BT inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import check_q
from .errors import DecompositionError, DomainError, NumericError, ShapeError
from .matrix import (Tolerances, as_matrix, conjugate_transpose, frobenius,
                     qr_column_pivoted, rank, resolve_tol, sigma_max)
from .projectors import matrix_index, pinv, power, proj_range
from .weighted import WeightedPair, _wqbt_raw


def _assemble(b11, b12, b21, b22) -> np.ndarray:
    top = np.hstack([b11, b12])
    bottom = np.hstack([b21, b22])
    return np.vstack([top, bottom])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _power_rank(rank_sequence: tuple[int, ...], j: int) -> int:
    """rank(B^j) from the sequence rank(B^0), ..., rank(B^(Ind(B)+1)),
    which is stable past the index."""
    if j < 0:
        raise DomainError(f"power exponent must be nonnegative, got {j}")
    return rank_sequence[min(j, len(rank_sequence) - 1)]


@dataclass(frozen=True)
class CoreEPDecomposition:
    """A = U [[T, S], [0, N]] U* with T nonsingular r x r, N nilpotent.

    r = rank(A^k) and k = Ind(A); either block may be empty (r = 0 for a
    nilpotent A, r = n for a nonsingular one).  rank_sequence holds
    rank(A^j) for j = 0 .. index + 1, decided on the original matrix;
    since T^j stays nonsingular, rank(N^j) = rank(A^j) - r exactly, which
    anchors rank decisions on the extracted nilpotent block. sigma_max is
    the largest singular value of A.
    """

    u: np.ndarray
    t: np.ndarray
    s: np.ndarray
    nil: np.ndarray
    rank: int
    index: int
    rank_sequence: tuple[int, ...]
    sigma_max: float

    def power_rank(self, j: int) -> int:
        """rank(A^j), read from the stored sequence (stable past the index)."""
        return _power_rank(self.rank_sequence, j)

    def middle(self) -> np.ndarray:
        """The block upper triangular factor [[T, S], [0, N]]."""
        n = self.u.shape[0]
        r = self.rank
        return _assemble(self.t, self.s, np.zeros((n - r, r), dtype=np.complex128), self.nil)

    def compose(self) -> np.ndarray:
        """Rebuild the original matrix U [[T, S], [0, N]] U*."""
        return self.u @ self.middle() @ conjugate_transpose(self.u)


@dataclass(frozen=True)
class WeightedCoreEPDecomposition:
    """Simultaneous unitary triangularization of a pair (A, W).

    A = U [[A1, A2], [0, A3]] V* and W = V [[W1, W2], [0, W3]] U* with
    A1, W1 nonsingular t x t and A3W3, W3A3 nilpotent of indices Ind(AW)
    and Ind(WA). sigma_max_a and sigma_max_w are those of A and W, read
    from the pair.
    """

    u: np.ndarray
    v: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    t_dim: int
    ind_aw: int
    ind_wa: int
    rank_sequence_aw: tuple[int, ...]
    rank_sequence_wa: tuple[int, ...]
    sigma_max_a: float
    sigma_max_w: float

    def power_rank_aw(self, j: int) -> int:
        """rank((AW)^j) from the stored sequence; rank((A3W3)^j) is this
        minus t_dim since the leading block A1W1 stays nonsingular."""
        return _power_rank(self.rank_sequence_aw, j)

    def power_rank_wa(self, j: int) -> int:
        """rank((WA)^j) from the stored sequence."""
        return _power_rank(self.rank_sequence_wa, j)

    def middle_a(self) -> np.ndarray:
        m = self.u.shape[0]
        t = self.t_dim
        return _assemble(self.a1, self.a2, np.zeros((m - t, t), dtype=np.complex128), self.a3)

    def middle_w(self) -> np.ndarray:
        n = self.v.shape[0]
        t = self.t_dim
        return _assemble(self.w1, self.w2, np.zeros((n - t, t), dtype=np.complex128), self.w3)

    def compose_a(self) -> np.ndarray:
        return self.u @ self.middle_a() @ conjugate_transpose(self.v)

    def compose_w(self) -> np.ndarray:
        return self.v @ self.middle_w() @ conjugate_transpose(self.u)


def core_ep_decompose(a) -> CoreEPDecomposition:
    """Core-EP decomposition via a pivoted QR of A^k, k = Ind(A).

    The first r columns of Q span R(A^k); conjugating by Q block
    triangularizes A. Degenerate inputs produce empty blocks instead of
    errors.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    report = matrix_index(a)
    k = report.index
    r = report.rank_sequence[k]
    u, _, _ = qr_column_pivoted(power(a, k))
    b = conjugate_transpose(u) @ a @ u
    return CoreEPDecomposition(
        u=_frozen(u),
        t=_frozen(b[:r, :r]),
        s=_frozen(b[:r, r:]),
        nil=_frozen(b[r:, r:]),
        rank=r,
        index=k,
        rank_sequence=tuple(report.rank_sequence),
        sigma_max=report.sigma_max,
    )


def weighted_core_ep_decompose(p: WeightedPair,
                               tol: Tolerances | None = None) -> WeightedCoreEPDecomposition:
    """Weighted core-EP decomposition of the pair (A, W).

    U is built from a pivoted QR of (AW)^k, V from (WA)^k. Every
    structural claim (equal core ranks, vanishing lower-left blocks,
    nonsingular A1 and W1, nilpotent A3W3 and W3A3) is validated; a
    violation raises DecompositionError since it signals a rank
    misclassification at the working tolerance. The core rank is read
    from the rank sequences the pair was built with.
    """
    tol = resolve_tol(tol)
    a, w = p.a, p.w
    m, n = a.shape
    k = p.k
    sa, sw = p.sigma_max_a, p.sigma_max_w
    seq_aw, seq_wa = p.rank_sequence_aw, p.rank_sequence_wa
    t1, t2 = _power_rank(seq_aw, k), _power_rank(seq_wa, k)
    if t1 != t2:
        raise DecompositionError(
            f"core ranks disagree: rank((AW)^{k})={t1} but rank((WA)^{k})={t2}")
    t = t1
    awk = power(a @ w, k)
    wak = power(w @ a, k)
    u, _, _ = qr_column_pivoted(awk)
    v, _, _ = qr_column_pivoted(wak)
    ab = conjugate_transpose(u) @ a @ v
    wb = conjugate_transpose(v) @ w @ u
    if not tol.close(frobenius(ab[t:, :t]), sa):
        raise DecompositionError(
            f"lower-left block of the triangularized matrix is nonzero "
            f"(norm {frobenius(ab[t:, :t]):.3e})")
    if not tol.close(frobenius(wb[t:, :t]), sw):
        raise DecompositionError(
            f"lower-left block of the triangularized weight is nonzero "
            f"(norm {frobenius(wb[t:, :t]):.3e})")
    a1, a2, a3 = ab[:t, :t], ab[:t, t:], ab[t:, t:]
    w1, w2, w3 = wb[:t, :t], wb[:t, t:], wb[t:, t:]
    if rank(a1, scale=sa) != t:
        raise DecompositionError("leading block A1 is singular at the rank cutoff")
    if rank(w1, scale=sw) != t:
        raise DecompositionError("leading block W1 is singular at the rank cutoff")
    if not tol.close(frobenius(power(a3 @ w3, p.ind_aw)), max(1.0, (sa * sw) ** p.ind_aw)):
        raise DecompositionError(
            f"A3W3 is not nilpotent of index {p.ind_aw} at the working tolerance")
    if not tol.close(frobenius(power(w3 @ a3, p.ind_wa)), max(1.0, (sw * sa) ** p.ind_wa)):
        raise DecompositionError(
            f"W3A3 is not nilpotent of index {p.ind_wa} at the working tolerance")
    return WeightedCoreEPDecomposition(
        u=_frozen(u), v=_frozen(v),
        a1=_frozen(a1), a2=_frozen(a2), a3=_frozen(a3),
        w1=_frozen(w1), w2=_frozen(w2), w3=_frozen(w3),
        t_dim=t, ind_aw=p.ind_aw, ind_wa=p.ind_wa,
        rank_sequence_aw=seq_aw, rank_sequence_wa=seq_wa,
        sigma_max_a=sa, sigma_max_w=sw,
    )


def block_pinv(u, v, a1, a2, a3, scale: float | None = None,
               a3_rank: int | None = None) -> np.ndarray:
    """Moore-Penrose inverse of B = U [[A1, A2], [0, A3]] V*, A1 nonsingular.

    Uses the closed form with Omega = [A1 A1* + A2 (I - Q_{A3}) A2*]^{-1};
    returns V [[A1* O, -A1* O A2 A3^+], [(I-Q) A2* O, A3^+ - (I-Q) A2* O A2 A3^+]] U*.

    `a3_rank` pins the rank used for A3^+.  When the blocks come from a
    decomposition of a full matrix B, pass rank(B) - t: the trailing
    singular values of the extracted A3 are rounding noise at the parent's
    scale and a cutoff on A3 alone can misread them.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    a1 = as_matrix(a1)
    a2 = as_matrix(a2)
    a3 = as_matrix(a3)
    t = a1.shape[0]
    if a1.shape[1] != t:
        raise ShapeError(f"leading block must be square, got {a1.shape[0]}x{a1.shape[1]}")
    if a2.shape[0] != t or a3.shape[1] != a2.shape[1]:
        raise ShapeError("block shapes are not conformable")
    if u.shape[0] != u.shape[1] or u.shape[0] != t + a3.shape[0]:
        raise ShapeError("left frame does not match the block row dimension")
    if v.shape[0] != v.shape[1] or v.shape[0] != t + a2.shape[1]:
        raise ShapeError("right frame does not match the block column dimension")
    s1 = scale if scale is not None else max(sigma_max(a1), sigma_max(a2), sigma_max(a3))
    if rank(a1, scale=s1) != t:
        raise DomainError("leading block is singular; the block formula requires A1 nonsingular")
    a3p = pinv(a3, scale=s1, fixed_rank=a3_rank)
    iq3 = np.eye(a3.shape[1], dtype=np.complex128) - a3p @ a3
    a1h = conjugate_transpose(a1)
    a2h = conjugate_transpose(a2)
    gram = a1 @ a1h + a2 @ iq3 @ a2h
    try:
        omega = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"coupling Gram matrix is numerically singular: {exc}") from exc
    b11 = a1h @ omega
    b12 = -a1h @ omega @ a2 @ a3p
    b21 = iq3 @ a2h @ omega
    b22 = a3p - iq3 @ a2h @ omega @ a2 @ a3p
    return v @ _assemble(b11, b12, b21, b22) @ conjugate_transpose(u)


def block_proj_range(u, t_dim: int, a3) -> np.ndarray:
    """Range projector of U [[A1, A2], [0, A3]] V*: U diag(I_t, P_{A3}) U*."""
    u = as_matrix(u)
    a3 = as_matrix(a3)
    if u.shape[0] != u.shape[1] or u.shape[0] != t_dim + a3.shape[0]:
        raise ShapeError("frame does not match the block row dimension")
    p3 = proj_range(a3)
    top = np.eye(t_dim, dtype=np.complex128)
    z12 = np.zeros((t_dim, a3.shape[0]), dtype=np.complex128)
    z21 = np.zeros((a3.shape[0], t_dim), dtype=np.complex128)
    return u @ _assemble(top, z12, z21, p3) @ conjugate_transpose(u)


@dataclass(frozen=True)
class CanonicalParts:
    """Auxiliary matrices of a canonical q-BT block form.

    m_block is the coupling term (M in the weighted form, S-shaped in the
    square forms); omega is the inverted Gram factor (Omega_W in the
    weighted form, Delta in the square forms), nonsingular whenever the
    parent decomposition is valid.
    """

    m_block: np.ndarray
    omega: np.ndarray


def _canonical_blocks(core, coupling, x3, pq):
    """Blocks of [[C* O, -C* O M X3], [G M* O, X3 - G M* O M X3]] with
    G = pq - P_{X3} and O = [C C* + M G M*]^{-1}."""
    px = proj_range(x3)
    gap = pq - px
    ch = conjugate_transpose(core)
    mh = conjugate_transpose(coupling)
    gram = core @ ch + coupling @ gap @ mh
    try:
        omega = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"canonical Gram matrix is numerically singular: {exc}") from exc
    mx = coupling @ x3
    b11 = ch @ omega
    b12 = -b11 @ mx
    b21 = gap @ mh @ omega
    b22 = x3 - b21 @ mx
    return (b11, b12, b21, b22), omega


def _square_canonical(core, coupling, nil, frame, q: int, rank_q: int,
                      rank_q1: int) -> np.ndarray:
    """Assemble (B P_{B^q})^+ for B = frame [[core, coupling], [0, nil]] frame*.

    rank_q and rank_q1 are the exact ranks of nil^q and nil^{q+1}, read off
    the parent's rank sequence by the caller; the extracted block's own
    trailing singular values are rounding noise at the parent's scale, so
    its pseudoinverse and range projector are rank-pinned rather than
    decided by a cutoff.
    """
    q = check_q(q, frame.shape[0])
    pq = proj_range(power(nil, q), fixed_rank=rank_q)
    x3 = pinv(nil @ pq, fixed_rank=rank_q1)
    blocks, _ = _canonical_blocks(core, coupling, x3, pq)
    return frame @ _assemble(*blocks) @ conjugate_transpose(frame)


def canonical_qbt(d: CoreEPDecomposition, q: int) -> np.ndarray:
    """q-BT inverse of a square matrix assembled from its core-EP blocks.

    Equals the direct (A P_{A^q})^+ computation; the two routes share no
    pseudoinverse call on the full matrix, and this one factors only the
    nilpotent block. q is clamped at the index, as in `qbt_inverse`.
    """
    q = min(check_q(q), d.index)
    rank_q = d.power_rank(q) - d.rank
    rank_q1 = d.power_rank(q + 1) - d.rank
    return _square_canonical(d.t, d.s, d.nil, d.u, q, rank_q, rank_q1)


def canonical_weighted_qbt(d: WeightedCoreEPDecomposition,
                           q: int) -> tuple[np.ndarray, CanonicalParts]:
    """W-weighted q-BT inverse assembled from the weighted core-EP blocks.

    Core term C = W1 A1 W1, coupling M = W1 A1 W2 + W1 A2 W3 + W2 A3 W3,
    inner inverse X3 = the W3-weighted q-BT inverse of A3. Returns the
    assembled matrix together with (M, Omega_W). q is clamped at
    max(Ind(AW), Ind(WA)), as in `weighted_qbt`.
    """
    q = min(check_q(q), max(d.ind_aw, d.ind_wa))
    core = d.w1 @ d.a1 @ d.w1
    coupling = d.w1 @ d.a1 @ d.w2 + d.w1 @ d.a2 @ d.w3 + d.w2 @ d.a3 @ d.w3
    x3 = _wqbt_raw(d.a3, d.w3, q, d.sigma_max_a, d.sigma_max_w)
    pq = proj_range(power(d.a3 @ d.w3, q), fixed_rank=d.power_rank_aw(q) - d.t_dim)
    blocks, omega = _canonical_blocks(core, coupling, x3, pq)
    x = d.u @ _assemble(*blocks) @ conjugate_transpose(d.v)
    return x, CanonicalParts(m_block=_frozen(coupling), omega=_frozen(omega))


def canonical_qbt_products(d: WeightedCoreEPDecomposition,
                           q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-BT inverses of the products AW and WA from the weighted blocks.

    AW is triangularized by U with core A1W1, coupling A1W2 + A2W3 and
    nilpotent part A3W3; WA by V with core W1A1, coupling W1A2 + W2A3 and
    nilpotent part W3A3. q is clamped at max(Ind(AW), Ind(WA)).
    """
    q = min(check_q(q), max(d.ind_aw, d.ind_wa))
    t = d.t_dim
    x_aw = _square_canonical(d.a1 @ d.w1, d.a1 @ d.w2 + d.a2 @ d.w3, d.a3 @ d.w3, d.u, q,
                             d.power_rank_aw(q) - t, d.power_rank_aw(q + 1) - t)
    x_wa = _square_canonical(d.w1 @ d.a1, d.w1 @ d.a2 + d.w2 @ d.a3, d.w3 @ d.a3, d.v, q,
                             d.power_rank_wa(q) - t, d.power_rank_wa(q + 1) - t)
    return x_aw, x_wa


__all__ = [
    "CoreEPDecomposition",
    "WeightedCoreEPDecomposition",
    "CanonicalParts",
    "core_ep_decompose",
    "weighted_core_ep_decompose",
    "block_pinv",
    "block_proj_range",
    "canonical_qbt",
    "canonical_weighted_qbt",
    "canonical_qbt_products",
]
