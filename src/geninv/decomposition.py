"""Block decompositions and the canonical forms built on them.

Two decompositions: the core-EP decomposition of a square matrix
A = U [[T, S], [0, N]] U* with T nonsingular and N nilpotent, and the
weighted core-EP decomposition of a rectangular pair
A = U [[A1, A2], [0, A3]] V*, W = V [[W1, W2], [0, W3]] U* with A1, W1
nonsingular and A3W3, W3A3 nilpotent. On top of them: a block formula
for the Moore-Penrose inverse of a 2x2 upper triangular matrix with
nonsingular leading block, and canonical block forms of the q-BT and
W-weighted q-BT inverses, all built by one route at every q: `_canonical`
forms compact factors in a basis of the trailing block's power's range,
at ranks read off the parent's rank sequence and without the direct
route's member read (`projectors._Staircase.member`), so each is an
independent check of it, and `_form` multiplies them into the frames'
leading columns and E. A decomposition keeps its forms' factors at the index
(`_memoized`). Both decompositions take their frame [U_k | complement]
from a staircase step (`_Staircase.frame`). Each decomposition reports
the residuals `geninv decompose` prints and the runner reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import matrix_power

from .classical import check_q
from .errors import DecompositionError, DomainError, NumericError, ShapeError
from .matrix import (Tolerances, as_matrix, frobenius, nilpotency, rank_cutoff, rel,
                     resolve_tol, unitarity)
from .projectors import _Factored, _operand
from .weighted import WeightedPair


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

    @cached_property
    def _factors(self) -> dict:
        """The compact factors of `canonical_qbt` at the index (`_memoized`);
        not a field."""
        return {}

    def residuals(self, a) -> dict[str, float]:
        """Reconstruction of A, unitarity of U and nilpotency of N."""
        return {
            "reconstruction": rel(self.compose(), a, self.sigma_max),
            "unitarity": unitarity(self.u),
            "nilpotency": nilpotency(self.nil, self.index, self.sigma_max),
        }


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

    @cached_property
    def _qbt_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The blocks of `canonical_weighted_qbt` that do not depend on q:
        C = W1 A1 W1, M (frozen, as `CanonicalParts` holds it), W3 A3 W3 and
        A3 W3. Kept on the decomposition once built, as the pair keeps its
        chains; not a field."""
        a1, a2, a3, w1, w2, w3 = self.a1, self.a2, self.a3, self.w1, self.w2, self.w3
        coupling = w1 @ a1 @ w2 + w1 @ a2 @ w3 + w2 @ a3 @ w3
        return w1 @ a1 @ w1, _frozen(coupling), w3 @ a3 @ w3, a3 @ w3

    @cached_property
    def _factors(self) -> dict:
        """The compact factors of `canonical_weighted_qbt` and
        `canonical_qbt_products` at the index (`_memoized`); not a field."""
        return {}

    def residuals(self, a, w) -> dict[str, float]:
        """Reconstructions of A and W, unitarity of U and V, nilpotency of
        A3W3 and W3A3."""
        sa, sw = self.sigma_max_a, self.sigma_max_w
        return {
            "reconstruction_a": rel(self.compose_a(), a, sa),
            "reconstruction_w": rel(self.compose_w(), w, sw),
            "unitarity_u": unitarity(self.u),
            "unitarity_v": unitarity(self.v),
            "nilpotency_aw": nilpotency(self.a3 @ self.w3, self.ind_aw, sa * sw),
            "nilpotency_wa": nilpotency(self.w3 @ self.a3, self.ind_wa, sa * sw),
        }


def core_ep_decompose(a) -> CoreEPDecomposition:
    """Core-EP decomposition from A's staircase, k = Ind(A).

    The index search on A's staircase holds step k, whose basis U_k,
    completed by one QR, is the unitary U = [U_k | complement] that block
    triangularizes A (`_Staircase.frame`), so it takes no SVD besides the
    search. A's thin SVD and its searched staircase are read from
    `projectors._operand`'s memo when the previous call searched the same
    A, as after its q-BT inverses, and then it takes no SVD. Degenerate
    inputs produce empty blocks instead of errors.
    """
    fa = _operand(a, "core_ep_decompose")
    a = fa.a
    stairs = fa.staircase()
    k = stairs.search(a.shape[0] + 1)
    ranks, s1 = stairs.ranks, stairs.s1
    r = ranks[k]
    u = stairs.frame(k)
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

    U is the frame of R((AW)^k), V that of R((WA)^k), both read off step
    k of the pair's staircases of AW and WA and completed by one QR each
    (`_Staircase.frame`), so no matrix larger than rank(AW) or rank(WA) is
    SVD-factored. Every
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
    u, v = p._aw.frame(k), p._wa.frame(k)
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
    returns V [[A1* O, -A1* O A2 A3^+], [(I-Q) A2* O, A3^+ - (I-Q) A2* O A2 A3^+]] U*,
    the canonical form of q = 0 (`_canonical`, E = I): X3 = A3^+,
    G = I - Q_{A3}.

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
    return _form(v, u, _canonical(a1, a2, a3, 0, scale=s1, y_rank=a3_rank))


@dataclass(frozen=True)
class CanonicalParts:
    """Auxiliary matrices of a canonical q-BT block form.

    m_block is the coupling term M of the weighted form; omega is its
    inverted Gram factor Omega_W = (K K*)^{-1} = (K^+)* K^+ for
    K = [C, M G], defined whenever the parent decomposition is valid.
    """

    m_block: np.ndarray
    omega: np.ndarray


def _k_pinv(core: np.ndarray, coupling: np.ndarray, gap: np.ndarray, rows: int) -> np.ndarray:
    """K^+ in compact form, for the compact K* = [C*; Z (M E)*], `coupling`
    = M E and `gap` = Z. One Householder QR K* = Q R gives K^+ = Q R^{-*},
    taken as (R^{-1} Q*)* with one `numpy.linalg.solve` on R; its error
    grows like cond(K), where inverting K K* would square it. K has full
    row rank whenever C is nonsingular: a diagonal entry of R at or under
    the rank cutoff of the full form's K*, `rows` x t, against the largest
    bounds sigma_min(K) under that cutoff and raises."""
    kh = np.concatenate([core.conj().T, gap @ coupling.conj().T])
    q, r = np.linalg.qr(kh)
    diag = np.abs(np.diagonal(r))
    if diag.size and diag.min() <= rank_cutoff((rows, core.shape[0]), diag.max()):
        raise NumericError("[C, M G] is numerically rank deficient; the canonical "
                           "block formula requires C nonsingular")
    return np.linalg.solve(r, q.conj().T).conj().T


def _canonical(core, coupling, b3, q: int, rank_q: int | None = None, base=None,
               scale: float | None = None, y_rank: int | None = None):
    """The compact factors (E, Y^+, middle) of the canonical form
    [[C* O, -C* O M X3], [G M* O, X3 - G M* O M X3]], O = (K K*)^-1 and
    K = [C, M G], with X3 = (B3 P)^+ and G = P - X3 B3 P for the trailing
    block B3 and P = E E*. E is an orthonormal basis of R(base^q), base =
    B3 unless given: I at q = 0, carried as None so that no product
    multiplies by it, empty with no SVD where rank_q (read off the
    parent's rank sequence) is 0, and otherwise the leading rank_q left
    singular vectors of the block's own power, never a staircase step.
    With Y = B3 E, X3 = E Y^+ and G = E Z E* for Z = I - Y^+ Y, so
    K^+ = diag(I, E) K_c^+ for the compact K_c* = [C*; Z (M E)*],
    (t + rank_q) x t (`_k_pinv`), and Omega = (K_c^+)* K_c^+. The middle
    is [[K1, -K1 M E], [K2, I - K2 M E]] (`_form`), K_c^+ its first t
    columns. The block's trailing singular values are rounding noise at
    the parent's scale, so Y^+ keeps `y_rank` of them where the
    parent's sequence gives that rank, and otherwise `rank(scale)`.
    """
    cols = b3.shape[1]
    if q == 0:
        e = None
    elif rank_q == 0:
        e = np.zeros((cols, 0), dtype=np.complex128)
    else:
        e = _Factored(matrix_power(b3 if base is None else base, q)).usv[0][:, :rank_q]
    y, me, r = (b3, coupling, cols) if e is None else (b3 @ e, coupling @ e, e.shape[1])
    y_op = _Factored(y, thin=True)
    y_pinv = y_op.pinv((y_op.rank(scale) if y_rank is None else y_rank) if r else 0)
    k_pinv = _k_pinv(core, me, np.eye(r) - y_pinv @ y, core.shape[0] + cols)
    t = k_pinv.shape[1]
    return e, y_pinv, np.concatenate([k_pinv, np.eye(t + r, r, -t) - k_pinv @ me], axis=1)


def _form(left: np.ndarray, right: np.ndarray, factors) -> np.ndarray:
    """The canonical form from `_canonical`'s factors, in the frames' leading
    t columns L_t, R_t and the others L_c, R_c:

        [L_t, L_c E] [[K1, -K1 M E], [K2, I - K2 M E]] [R_t*; Y^+ R_c*]
        = (L_t K1 + L_c E K2)(R_t* - M E Y^+ R_c*) + (L_c E)(Y^+ R_c*),

    K1 the first t rows of the compact K^+ and K2 the rest. The factors
    are t + rank_q wide, the whole frame only at q = 0, where E = I is
    None and L_c E is L_c; where E is empty the form is L_t C^-1 R_t*."""
    e, y_pinv, middle = factors
    t = middle.shape[0] - y_pinv.shape[0]
    lm = np.concatenate([left[:, :t], left[:, t:] if e is None else left[:, t:] @ e],
                        axis=1) @ middle
    return lm @ np.concatenate([right[:, :t].conj().T, y_pinv @ right[:, t:].conj().T])


def _memoized(d, form: str, rank_q: int, build):
    """`build()`, the compact factors of one canonical form at trailing rank
    rank_q. Those at rank 0, which every q at or past the index shares and
    whose middle is C^-1, t x t, are kept on the decomposition d under the
    form's name once built; below the index each q has factors of its own,
    up to n x n at q = 0, built anew. Threads that miss at once each build
    the same factors, and the first one stored is the one returned."""
    if rank_q:
        return build()
    memo = d._factors
    found = memo.get(form)
    return found if found is not None else memo.setdefault(form, build())


def canonical_qbt(d: CoreEPDecomposition, q: int) -> np.ndarray:
    """q-BT inverse of a square matrix assembled from its core-EP blocks.

    Equals the direct (A P_{A^q})^+ computation; the two routes share no
    pseudoinverse call on the full matrix, and this one factors only the
    nilpotent block, with the ranks of N^q and N^(q+1) read off the
    parent's sequence. q is clamped at the index, as in `qbt_inverse`; at
    the index N^q = 0 and the form is U_r T^-1 U_r*. The compact factors
    at the index are kept on the decomposition (`_memoized`).
    """
    q = min(check_q(q), d.index)
    r = d.rank
    rank_q = d.power_rank(q) - r
    factors = _memoized(d, "qbt", rank_q, lambda: _canonical(
        d.t, d.s, d.nil, q, rank_q, y_rank=d.power_rank(q + 1) - r))
    return _form(d.u, d.u, factors)


def canonical_weighted_qbt(d: WeightedCoreEPDecomposition,
                           q: int) -> tuple[np.ndarray, CanonicalParts]:
    """W-weighted q-BT inverse assembled from the weighted core-EP blocks.

    Core term C = W1 A1 W1, coupling M = W1 A1 W2 + W1 A2 W3 + W2 A3 W3,
    inner inverse X3 = (W3 A3 W3 P_{(A3W3)^q})^+, the W3-weighted q-BT
    inverse of A3, its rank cut against sigma_max(W) sigma_max(A)
    sigma_max(W). C, M, W3 A3 W3 and A3 W3 are formed once per
    decomposition (`_qbt_blocks`), and the compact factors at the index
    once (`_memoized`). Returns the assembled matrix together
    with (M, Omega_W). q is clamped at max(Ind(AW), Ind(WA)), as in
    `weighted_qbt`. At q >= Ind(AW), (A3 W3)^q = 0 and the form is
    U_t C^-1 V_t* with Omega_W = C^-* C^-1.
    """
    q = min(check_q(q), max(d.ind_aw, d.ind_wa))
    core, coupling, nil, base = d._qbt_blocks
    rank_q = d.power_rank_aw(q) - d.t_dim
    factors = _memoized(d, "weighted", rank_q, lambda: _canonical(
        core, coupling, nil, q, rank_q, base=base,
        scale=d.sigma_max_w * d.sigma_max_a * d.sigma_max_w))
    k_pinv = factors[2][:, :d.t_dim]  # the middle's first t columns
    omega = k_pinv.conj().T @ k_pinv
    return _form(d.u, d.v, factors), CanonicalParts(m_block=coupling, omega=_frozen(omega))


def canonical_qbt_products(d: WeightedCoreEPDecomposition,
                           q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-BT inverses of the products AW and WA from the weighted blocks.

    AW is triangularized by U with core A1W1, coupling A1W2 + A2W3 and
    nilpotent part A3W3; WA by V with core W1A1, coupling W1A2 + W2A3 and
    nilpotent part W3A3. q is clamped at max(Ind(AW), Ind(WA)). A product
    whose nilpotent part's q-th power has rank 0 (q >= its index) gets
    U_t (A1W1)^-1 U_t* or V_t (W1A1)^-1 V_t*, its compact factors kept on
    the decomposition (`_memoized`).
    """
    q = min(check_q(q), max(d.ind_aw, d.ind_wa))
    t = d.t_dim
    a1, a2, a3, w1, w2, w3 = d.a1, d.a2, d.a3, d.w1, d.w2, d.w3

    def form(side, frame, rank, blocks):
        factors = _memoized(d, side, rank(q) - t, lambda: _canonical(
            *blocks(), q, rank(q) - t, y_rank=rank(q + 1) - t))
        return _form(frame, frame, factors)

    return (form("aw", d.u, d.power_rank_aw, lambda: (a1 @ w1, a1 @ w2 + a2 @ w3, a3 @ w3)),
            form("wa", d.v, d.power_rank_wa, lambda: (w1 @ a1, w1 @ a2 + w2 @ a3, w3 @ a3)))


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
