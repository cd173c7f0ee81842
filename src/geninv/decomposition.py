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
from numpy.linalg import matrix_power

from .classical import check_q
from .errors import DecompositionError, DomainError, NumericError, ShapeError
from .matrix import Tolerances, as_matrix, frobenius, nilpotency, resolve_tol
from .projectors import _Factored, _Powers, _power_search
from .weighted import WeightedPair, _wqbt_raw


def _assemble(b11, b12, b21, b22) -> np.ndarray:
    top = np.concatenate([b11, b12], axis=1)
    bottom = np.concatenate([b21, b22], axis=1)
    return np.concatenate([top, bottom])


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
        return self.u @ self.middle() @ self.u.conj().T


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
        return self.u @ self.middle_a() @ self.v.conj().T

    def compose_w(self) -> np.ndarray:
        return self.v @ self.middle_w() @ self.u.conj().T


def _frame(chain: _Powers, q: int, r: int) -> np.ndarray:
    """A unitary whose first r columns span R(B^q), r = rank(B^q): the
    chain's basis of R(B^q) completed by a Householder QR. I when q or r
    is 0."""
    n = chain.shape[0]
    if q == 0 or r == 0:
        return np.eye(n, dtype=np.complex128)
    return np.linalg.qr(chain.range_basis(q, fixed_rank=r), mode="complete")[0]


def core_ep_decompose(a) -> CoreEPDecomposition:
    """Core-EP decomposition from the chain of A's powers, k = Ind(A).

    The index search leaves the chain holding P_k, whose leading r left
    singular vectors, times U1, span R(A^k) (`_Powers.range_basis`);
    completed to a unitary U, they block triangularize A. Besides the
    search this takes one r x r SVD, of P_k, when k >= 2. Degenerate
    inputs produce empty blocks instead of errors.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    chain = _power_search(_Factored(a), a.shape[0] + 1)
    ranks, s1 = chain.ranks, chain.s1
    k = len(ranks) - 2
    r = ranks[k]
    u = _frame(chain, k, r)
    b = u.conj().T @ a @ u
    return CoreEPDecomposition(
        u=_frozen(u),
        t=_frozen(b[:r, :r]),
        s=_frozen(b[:r, r:]),
        nil=_frozen(b[r:, r:]),
        rank=r,
        index=k,
        rank_sequence=tuple(ranks),
        sigma_max=s1,
    )


def weighted_core_ep_decompose(p: WeightedPair,
                               tol: Tolerances | None = None) -> WeightedCoreEPDecomposition:
    """Weighted core-EP decomposition of the pair (A, W).

    U is built from a basis of R((AW)^k), V from one of R((WA)^k), both
    read off the pair's chains of AW and WA (`_Powers.range_basis`), so
    no matrix larger than rank(AW) or rank(WA) is factored. Every
    structural claim (equal core ranks, vanishing lower-left blocks,
    nonsingular A1 and W1, nilpotent A3W3 and W3A3) is validated; a
    violation raises DecompositionError since it signals a rank
    misclassification at the working tolerance. The core rank is read
    from the rank sequences the pair was built with.
    """
    tol = resolve_tol(tol)
    a, w = p.a, p.w
    k = p.k
    sa, sw = p.sigma_max_a, p.sigma_max_w
    seq_aw, seq_wa = p.rank_sequence_aw, p.rank_sequence_wa
    t1, t2 = _power_rank(seq_aw, k), _power_rank(seq_wa, k)
    if t1 != t2:
        raise DecompositionError(
            f"core ranks disagree: rank((AW)^{k})={t1} but rank((WA)^{k})={t2}")
    t = t1
    u, v = _frame(p._aw, k, t), _frame(p._wa, k, t)
    ab = u.conj().T @ a @ v
    wb = v.conj().T @ w @ u
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
    if _Factored(a1).rank(scale=sa) != t:
        raise DecompositionError("leading block A1 is singular at the rank cutoff")
    if _Factored(w1).rank(scale=sw) != t:
        raise DecompositionError("leading block W1 is singular at the rank cutoff")
    for name, n, index in (("A3W3", a3 @ w3, p.ind_aw), ("W3A3", w3 @ a3, p.ind_wa)):
        if not tol.close(nilpotency(n, index, sa * sw)):
            raise DecompositionError(
                f"{name} is not nilpotent of index {index} at the working tolerance")
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
    a1f, a2f, a3f = _Factored(a1), _Factored(a2), _Factored(a3)
    s1 = scale if scale is not None else max(a1f.sigma_max, a2f.sigma_max, a3f.sigma_max)
    if a1f.rank(scale=s1) != t:
        raise DomainError("leading block is singular; the block formula requires A1 nonsingular")
    a3p = a3f.pinv(scale=s1, fixed_rank=a3_rank)
    iq3 = np.eye(a3.shape[1], dtype=np.complex128) - a3p @ a3
    a1h = a1.conj().T
    a2h = a2.conj().T
    gram = a1 @ a1h + a2 @ iq3 @ a2h
    try:
        omega = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"coupling Gram matrix is numerically singular: {exc}") from exc
    b11 = a1h @ omega
    b12 = -a1h @ omega @ a2 @ a3p
    b21 = iq3 @ a2h @ omega
    b22 = a3p - iq3 @ a2h @ omega @ a2 @ a3p
    return v @ _assemble(b11, b12, b21, b22) @ u.conj().T


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


def _canonical_blocks(core, coupling, x3, pq, px):
    """Blocks of [[C* O, -C* O M X3], [G M* O, X3 - G M* O M X3]] with
    G = pq - px, px = P_{X3} and O = [C C* + M G M*]^{-1}."""
    gap = pq - px
    ch = core.conj().T
    mh = coupling.conj().T
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
    decided by a cutoff. X3 = (nil P)^+ gives P_{X3} = X3 (nil P), which
    keeps the rank X3 was built with and takes no SVD; P = I at q = 0.
    """
    q = check_q(q, frame.shape[0])
    pq = matrix_power(nil, q)
    if q:
        pq = _Factored(pq).proj_range(fixed_rank=rank_q)
    m = nil @ pq
    x3 = _Factored(m).pinv(fixed_rank=rank_q1)
    blocks, _ = _canonical_blocks(core, coupling, x3, pq, x3 @ m)
    return frame @ _assemble(*blocks) @ frame.conj().T


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
    # one chain of A3W3 gives both X3's range basis and P_{(A3W3)^q}, which
    # read one SVD of its P_q; X3 = (W3A3W3 P)^+ gives P_{X3} = X3 W3A3W3 P
    # with the rank X3 was built with
    sa, sw = d.sigma_max_a, d.sigma_max_w
    rank_q = d.power_rank_aw(q) - d.t_dim
    r3 = d.a3.shape[0]
    if q == 0:
        x3 = _wqbt_raw(d.a3, d.w3, 0, sa, sw)
        pq = np.eye(r3, dtype=np.complex128)
    elif rank_q == 0:
        # (A3W3)^q has rank 0, so P = 0 and X3 = (W3A3W3 P)^+ = 0
        x3 = np.zeros(d.a3.shape, dtype=np.complex128)
        pq = np.zeros((r3, r3), dtype=np.complex128)
    else:
        aw = _Powers(_Factored(d.a3 @ d.w3, thin=True))
        x3 = _wqbt_raw(d.a3, d.w3, q, sa, sw, aw)
        u = aw.range_basis(q, fixed_rank=rank_q)
        pq = u @ u.conj().T
    px = x3 @ d.w3 @ d.a3 @ d.w3 @ pq
    blocks, omega = _canonical_blocks(core, coupling, x3, pq, px)
    x = d.u @ _assemble(*blocks) @ d.v.conj().T
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
    "canonical_qbt",
    "canonical_weighted_qbt",
    "canonical_qbt_products",
]
