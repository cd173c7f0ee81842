"""Moore-Penrose inverse, orthogonal projectors, matrix index, and
rank-based range / null-space predicates.

The powers of a square matrix are held in the r x r coordinates of its
thin SVD (`_Powers`), r its rank, so that the index search and every
routine that reads a power of A factors r x r matrices, not A^j.

Every public routine that reads its operand's thin SVD takes the operand
through `_operand`, which keeps the thin SVD of the last operand it
factored and the searched chain of its powers: consecutive calls on one
matrix (the q-BT family of one A, its index, its Drazin inverse, its
decomposition) factor it once and decide each rank(A^j) once. A call hits
only on an operand equal bit for bit to the kept one, and every power the
chain forms is factored the same way whichever call forms it, so a result
never depends on which calls came before it. Values-only rank decisions
(`matrix.rank`, `_stacked_rank_equal`) never read the memo."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericError, ShapeError
from .matrix import as_matrix, exponent, rank_from_values, singular_values


@dataclass(frozen=True)
class IndexReport:
    """Result of the index computation for a square matrix.

    index: smallest k >= 0 with rank(B^k) = rank(B^(k+1)).
    rank_sequence: rank(B^j) for j = 0 .. index + 1.
    sigma_max: largest singular value of B, the anchor of every rank
        decision on its powers.
    """

    index: int
    rank_sequence: tuple[int, ...]
    sigma_max: float


def _kept(s: np.ndarray, shape: tuple[int, int], scale: float | None,
          fixed_rank: int | None) -> int:
    """How many of the singular values s to keep: the cutoff rule, or
    `fixed_rank` capped at the nonzero count."""
    if fixed_rank is None:
        return rank_from_values(s, shape, scale)
    return min(int(fixed_rank), len([v for v in s.tolist() if v > 0.0]))


class _Factored:
    """A matrix and its SVD, taken on first use and then kept.

    `usv` is the thin SVD; the pseudoinverse, range basis and both
    projectors read it, so one factorization serves them all. `s` reads
    the thin SVD's values when it is held, or when `thin` asks for it
    because a caller will need the vectors later; otherwise it takes a
    values-only SVD, which is all a rank decision needs. Only a public
    routine's operand (`_Operand`) keeps its SVD across calls, with the
    powers its chain keeps (`_Powers`); a product or block is factored anew
    by each call, and a values-only `s` is never memoized, since its last
    bits can differ from the thin SVD's.

    `scale` anchors the cutoff to a parent matrix's largest singular value
    when the matrix is a derived quantity (power, extracted block), and
    `shape` is the shape the cutoff reads when the matrix is a compression
    of a larger one with the same singular values (`_Powers`).
    `fixed_rank` bypasses the cutoff and keeps exactly that many singular
    values; callers use it when the rank is known from structure and the
    trailing singular values are pure rounding noise. A rank pinned at 0
    keeps nothing and takes no SVD.
    """

    def __init__(self, a: np.ndarray, thin: bool = False,
                 shape: tuple[int, int] | None = None):
        self.a = a
        self.thin = thin
        self.shape = a.shape if shape is None else shape

    @cached_property
    def usv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _thin_svd(self.a)

    @cached_property
    def s(self) -> np.ndarray:
        if self.thin or "usv" in self.__dict__:
            return self.usv[1]
        return singular_values(self.a)

    @property
    def sigma_max(self) -> float:
        return float(self.s[0]) if self.s.size else 0.0

    def rank(self, scale: float | None = None) -> int:
        return rank_from_values(self.s, self.shape, scale)

    def _keep(self, scale: float | None, fixed_rank: int | None) -> int:
        """How many singular values `pinv` and `range_basis` keep."""
        return 0 if fixed_rank == 0 else _kept(self.usv[1], self.shape, scale, fixed_rank)

    def pinv(self, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
        r = self._keep(scale, fixed_rank)
        if r == 0:
            return np.zeros(self.a.shape[::-1], dtype=np.complex128)
        return _svd_pinv(self.usv, r)

    def pinv_sigma_max(self, scale: float | None = None) -> float:
        """sigma_max of `pinv(scale)`: the reciprocal of the last kept value."""
        r = self._keep(scale, None)
        return 1.0 / float(self.usv[1][r - 1]) if r else 0.0

    def range_basis(self, scale: float | None = None,
                    fixed_rank: int | None = None) -> np.ndarray:
        r = self._keep(scale, fixed_rank)
        return self.usv[0][:, :r] if r else np.zeros((self.a.shape[0], 0), dtype=np.complex128)

    def proj_range(self, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
        return self.a @ self.pinv(scale, fixed_rank)

    def proj_corange(self, scale: float | None = None,
                     fixed_rank: int | None = None) -> np.ndarray:
        return self.pinv(scale, fixed_rank) @ self.a

    def powers(self) -> "_Powers":
        """A new chain of the powers of this square matrix, on its thin SVD."""
        return _Powers(self.a.shape, self.usv)


def _svd_pinv(usv: tuple[np.ndarray, np.ndarray, np.ndarray], r: int) -> np.ndarray:
    """V_r S_r^-1 U_r*, the pseudoinverse at rank r from a thin SVD."""
    u, s, vh = usv
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def _thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin SVD of a; empty factors, and no SVD, for an empty a."""
    m, n = a.shape
    if a.size == 0:
        return (np.zeros((m, 0), dtype=np.complex128), np.zeros(0),
                np.zeros((0, n), dtype=np.complex128))
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc


# (shape, bytes, chain) of the operand `_Operand` factored last, or None;
# chain is the operand's `_Powers`, which holds its thin SVD (U, s, V*).
# A miss replaces the whole entry with one assignment of a new tuple, so a
# thread reads the old entry or the new one, never a mix: two threads that
# miss at once each use their own operand's chain, and the later
# assignment stays. Every call on the operand, in any thread, shares the
# chain, which changes in place under its own lock (`_Powers`).
_memo: tuple | None = None


class _Operand(_Factored):
    """A public routine's validated operand: a thin `_Factored` whose chain
    of powers, and with it its thin SVD, is the memo's when the operand has
    the memo's shape and bytes, and is otherwise made and put in the memo
    in place of the old entry. The key is a private copy of the operand's
    bytes, so a -0.0 that was 0.0, or any in-place edit of the caller's
    array, misses. The factors are read-only, since every later hit
    returns the same arrays; `s` is the thin SVD's, so a rank read here is
    the one a cold call reads."""

    def __init__(self, a: np.ndarray):
        super().__init__(a, thin=True)

    @cached_property
    def _chain(self) -> "_Powers":
        global _memo
        a = self.a
        key = a.tobytes()
        entry = _memo
        if entry is None or entry[0] != a.shape or entry[1] != key:
            usv = _thin_svd(a)
            for factor in usv:
                factor.setflags(write=False)
            entry = _memo = (a.shape, key, _Powers(a.shape, usv))
        return entry[2]

    @property
    def usv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._chain.usv

    def powers(self) -> "_Powers":
        """The chain the memo keeps for this operand, shared by every call
        on it."""
        return self._chain


def _operand(a, name: str | None = None) -> _Operand:
    """a validated by `as_matrix`, and square when `name`, the routine that
    requires it, is given; held with its memoized thin SVD, taken on first
    use."""
    a = as_matrix(a)
    if name is not None and a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} requires a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return _Operand(a)


def pinv(a, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Moore-Penrose inverse via one thin SVD with a relative singular-value
    cutoff; `scale` and `fixed_rank` as in `_Factored`."""
    return _operand(a).pinv(scale, fixed_rank)


def range_basis(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthonormal basis U_r of the range of B: the leading left singular
    vectors of one thin SVD, r decided as in `pinv`, so U_r U_r* = P_B.
    A copy, since the memo's U is shared and read-only."""
    return _operand(b).range_basis(scale, fixed_rank).copy()


def proj_range(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector P_B = B B^+ onto the range of B."""
    return _operand(b).proj_range(scale, fixed_rank)


def proj_corange(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector Q_B = B^+ B onto the range of B*."""
    return _operand(b).proj_corange(scale, fixed_rank)


def power(b, q: int) -> np.ndarray:
    """B^q for a square B, with B^0 = I."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ShapeError(f"power requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    return np.linalg.matrix_power(b, exponent(q, "exponent"))


class _Powers:
    """The searched chain of the powers of a square matrix B, held in the
    r x r coordinates of B's thin SVD truncated at r = rank(B).

    With B = U1 S1 V1* and M = S1 V1* U1, B^j = U1 P_j V1* where P_1 = S1
    and P_j = M P_(j-1), so sigma(B^j) = sigma(P_j): every power is
    factored as an r x r matrix, under the cutoff of B^j itself (shape
    n x n, anchored at sigma_max(B)^j for a rank search). A singular value
    of B dropped by the truncation is at most n eps sigma_max(B), so it
    moves B^j by at most n eps sigma_max(B)^j, below every cutoff anchored
    at sigma_max(B)^j or higher.

    The chain holds B's shape and thin SVD, never B: sigma_max(B),
    rank(B) and the frame come from that SVD. For a square B its U is
    n x n, so it also completes any basis of R(B^q) in U1's coordinates to
    a unitary (`decomposition._frame`). `ranks` holds rank(B^j) for
    j = 0, 1, ... as far as `search` decided them, each on the thin SVD of
    P_j, which also gives the basis a caller reads from it, so a rank and a
    basis never depend on which call formed the power (`power`). `search`
    is the one place a rank(B^j), j <= Ind(B) + 1, is decided: it returns
    the index a routine clamps its order at, and `basis` and the kernel's
    pinned counts read `ranks`. The chain
    keeps P_j with its factors for at most three j: the last two ranked,
    which are P_Ind(B) and P_(Ind(B)+1) once the ranks stopped, and the
    last one read for a basis (`factored`); and the r x r core
    P_k P_(2k+1)^+ P_k of the Drazin inverse once formed (`core`). Its
    memory is O(r^2) whatever the index.

    An operand's chain is the operand memo's (`_Operand.powers`) and a
    pair's are the pair's (`weighted.WeightedPair`); either is shared by
    every call that reads it, in any thread, and changes in place. It
    changes only under its lock: `ranks` only grows, and a rank once
    decided never changes, so a call reads the ranks it searched whatever
    other calls add after them; the held powers and the core are caches,
    rebound whole, and a power formed again has the same bits.
    """

    def __init__(self, shape: tuple[int, int], usv: tuple[np.ndarray, np.ndarray, np.ndarray]):
        s = usv[1]
        self.shape = shape
        self.usv = usv
        self.s1 = float(s[0]) if s.size else 0.0
        self.ranks = [shape[0], rank_from_values(s, shape, self.s1)]
        self._held: dict[int, _Factored] = {}
        self._basis = 0
        self._core: tuple[int, np.ndarray] | None = None
        self._lock = threading.Lock()

    @property
    def index(self) -> int:
        """min(Ind(B), last - 1) after `search` up to j = last."""
        return len(self.ranks) - 2

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """U1, S1, V1* and V1* U1; a B of rank 0 takes no SVD."""
        r = self.ranks[1]
        if r:
            u, s, vh = self.usv
            u1, s, vh1 = u[:, :r], s[:r], vh[:r]
        else:
            n = self.shape[0]
            u1, s, vh1 = (np.zeros((n, 0), dtype=np.complex128), np.zeros(0),
                          np.zeros((0, n), dtype=np.complex128))
        return u1, s, vh1, vh1 @ u1

    @property
    def u1(self) -> np.ndarray:
        return self._frame[0]

    @property
    def vh1(self) -> np.ndarray:
        return self._frame[2]

    @property
    def vh1_u1(self) -> np.ndarray:
        """V1* U1, which joins two powers: P_(i+j) = P_i (V1* U1) P_j."""
        return self._frame[3]

    @cached_property
    def m(self) -> np.ndarray:
        """M = S1 V1* U1, the compression of B: B U1 = U1 M."""
        _, s, _, vh1_u1 = self._frame
        return s[:, None] * vh1_u1

    def pinv(self) -> np.ndarray:
        """B^+ from B's thin SVD, its rank decided as in `_Factored.pinv`."""
        return _svd_pinv(self.usv, _kept(self.usv[1], self.shape, None, None))

    def power(self, j: int) -> _Factored:
        """P_j for j >= 1, held or formed from the highest power held below
        it, its thin SVD taken on first use: its rank is read from the SVD
        that also gives its basis, whichever call forms it."""
        held = self._held
        if j in held:
            return held[j]
        s = self._frame[1]
        if j == 1:
            return _Factored(np.diag(s).astype(np.complex128), thin=True, shape=self.shape)
        e = max((i for i in held if i < j), default=1)
        # P_2 = M S1 scales the columns of M
        p = held[e].a if e > 1 else self.m * s
        for _ in range(max(e, 2), j):
            p = self.m @ p
        return _Factored(p, thin=True, shape=self.shape)

    def _hold(self, j: int, p: _Factored) -> None:
        """Hold P_j, and drop every power but the last two ranked and the
        basis power."""
        last = len(self.ranks) - 1
        self._held = {i: f for i, f in {**self._held, j: p}.items()
                      if i in (last - 1, last, self._basis)}

    def search(self, last: int) -> int:
        """min(Ind(B), last - 1): decide rank(B^j) for j = 2, 3, ... up to
        the first j with rank(B^j) = rank(B^(j-1)), or up to j = last, each
        on P_j's thin SVD against sigma_max(B)^j, once per chain: a chain
        already searched that far decides nothing."""
        with self._lock:
            ranks = self.ranks
            while ranks[-1] != ranks[-2] and len(ranks) <= last:
                j = len(ranks)
                anchor = _anchor(self.s1, j)
                p = self.power(j)
                ranks.append(p.rank(anchor))
                self._hold(j, p)
            return min(self.index, last - 1)

    def factored(self, q: int) -> _Factored:
        """P_q, q >= 2, thin; held as the basis power when the
        chain does not hold it already."""
        with self._lock:
            p = self._held.get(q)
            if p is None:
                p = self.power(q)
                self._basis = q
                self._hold(q, p)
        return p

    def basis(self, q: int) -> np.ndarray:
        """An orthonormal basis of R(B^q), q >= 1, in U1's coordinates: the
        leading rank(B^q) left singular vectors of P_q, the count `search`
        decided, so U1 times it spans R(B^q). P_1 = S1 is diagonal and
        takes no SVD, and neither does a rank of 0."""
        r = self.ranks[q]
        if q > 1:
            return self.factored(q).range_basis(fixed_rank=r)
        return np.eye(self._frame[1].size, r, dtype=np.complex128)

    def core(self, k: int) -> np.ndarray:
        """P_k P_(2k+1)^+ P_k for k >= 1, the r x r core of the Drazin
        inverse B^d = U1 P_k P_(2k+1)^+ P_k V1* at k = Ind(B), with
        P_(2k+1) = P_(k+1) V1* U1 P_k and its cutoff that of the n x n power
        B^(2k+1), anchored at sigma_max(B)^(2k+1). Kept for the last k
        asked, so Drazin, group and core inverses share one P_(2k+1)^+."""
        with self._lock:
            if self._core is None or self._core[0] != k:
                anchor = _anchor(self.s1, 2 * k + 1)
                pk, pk1 = self.power(k).a, self.power(k + 1).a
                p2k1 = _Factored(pk1 @ self.vh1_u1 @ pk, shape=self.shape)
                core = pk @ p2k1.pinv(scale=anchor) @ pk
                core.setflags(write=False)
                self._core = (k, core)
            return self._core[1]


def _anchor(s1: float, j: int) -> float:
    """s1^j, the rank anchor of a j-th power, s1 = sigma_max: read before the
    power is formed, so an overflow is a DomainError naming j."""
    try:
        return s1 ** j
    except OverflowError:
        raise DomainError(
            f"sigma_max^{j}, the rank anchor of power {j}, overflows") from None


def _power_projector(b: np.ndarray, q: int, s: float) -> np.ndarray:
    """P_{B^q} from the full-size power B^q, its rank decided against s^q
    for s a scale of B: the reference the checks compare the chain's
    results with, built apart from it."""
    return _Factored(np.linalg.matrix_power(b, q)).proj_range(scale=s ** q)


def _pinned_pinv(x: np.ndarray, r: int) -> np.ndarray:
    """X^+ for X of pinned rank r. At full column rank X = Q R (thin
    Householder QR) gives X^+ = R^{-1} Q* with one `numpy.linalg.solve` on R
    and no SVD; below it, or if R is exactly singular, the SVD keeps r values."""
    if r >= x.shape[1]:
        q, rr = np.linalg.qr(x)
        try:
            return np.linalg.solve(rr, q.conj().T)
        except np.linalg.LinAlgError:
            pass
    return _Factored(x).pinv(fixed_rank=r)


def _qbt_kernel(chain: _Powers, q: int, r: int,
                wu1: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(W A W P_{(AW)^q})^+ for q >= 1 on the chain of AW = U1 S1 V1*, r its
    rank, rank(W (AW)^(q+1)), which the caller decides.

    U1 Ũ spans R((AW)^q), Ũ the chain's basis of it (`_Powers.basis`), and
    with `wu1` = (R, L), the Householder QR W U1 = R L that the pair keeps,
    the result is U1 Ũ (L M Ũ)^+ R*. With wu1 None it is the square
    (A P_{A^q})^+: R = U1, L = I, and r = rank(A^(q+1)) from the chain's
    search, which must have reached q + 1. The rank of L M Ũ is pinned at
    r; its trailing values are rounding noise. When r equals the column
    count of L M Ũ, which is q >= Ind(A) for the square, one QR replaces
    the SVD (`_pinned_pinv`)."""
    right, lm = (chain.u1, chain.m) if wu1 is None else (wu1[0], wu1[1] @ chain.m)
    if r == 0:
        return np.zeros((chain.shape[0], right.shape[0]), dtype=np.complex128)
    ut = chain.basis(q)
    return chain.u1 @ (ut @ _pinned_pinv(lm @ ut, r)) @ right.conj().T


def matrix_index(b) -> IndexReport:
    """Index of a square matrix: rank stabilization point of its powers.

    The rank of B^j is taken relative to sigma_max(B)^j and decided on the
    r x r compression of B^j (`_Powers`); one thin SVD of B gives
    sigma_max(B), rank(B) and the frame, and settles a nonsingular B. A
    singular B adds one thin SVD of an r x r matrix per power: Ind(B) + 1
    SVDs in all. The operand memo (`_operand`) keeps B's thin SVD and its
    searched chain, so after any call that searched B this far, another
    call on the same B takes none. The search is capped at n (the index
    never exceeds n).
    """
    chain = _operand(b, "matrix_index").powers()
    k = chain.search(chain.shape[0] + 1)
    return IndexReport(index=k, rank_sequence=tuple(chain.ranks), sigma_max=chain.s1)


def _stacked_rank_equal(stacked: np.ndarray, scale: float | None, *operands: _Factored) -> bool:
    """rank(stacked) = rank(op) for every operand, all cut off against
    ref = max(sigma_max(stacked), scale). One SVD of the stack gives its
    sigma_max and its rank; the operands are read in order and the first
    mismatch stops, so a later operand is factored only if the earlier
    ones agree."""
    s = singular_values(stacked)
    ref = max(float(s[0]) if s.size else 0.0, scale or 0.0)
    r = rank_from_values(s, stacked.shape, ref)
    return all(rank_from_values(op.s, op.a.shape, ref) == r for op in operands)


def _range_equal(x: _Factored, y: _Factored, scale: float | None) -> bool:
    return _stacked_rank_equal(np.concatenate([y.a, x.a], axis=1), scale, y, x)


def _nullspace_equal(x: _Factored, y: _Factored, scale: float | None) -> bool:
    return _stacked_rank_equal(np.concatenate([y.a, x.a]), scale, y, x)


def _operands(x, y, axis: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """x and y as matrices, which must agree in size along `axis` (0: rows,
    1: columns)."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[axis] != y.shape[axis]:
        side = ("row", "column")[axis]
        raise ShapeError(f"{name} needs equal {side} counts, got {x.shape[axis]} and {y.shape[axis]}")
    return x, y


def range_contained(x, y, scale: float | None = None) -> bool:
    """True iff R(x) is contained in R(y), decided as rank([y | x]) = rank(y).

    `scale` anchors the rank cutoff when x or y is a derived quantity whose
    entries may be pure rounding noise.
    """
    x, y = _operands(x, y, 0, "range_contained")
    return _stacked_rank_equal(np.concatenate([y, x], axis=1), scale, _Factored(y))


def nullspace_contained(y, x, scale: float | None = None) -> bool:
    """True iff N(y) is contained in N(x), decided as rank(rows(y, x)) = rank(y).

    `scale` anchors the rank cutoff as in `range_contained`.
    """
    y, x = _operands(y, x, 1, "nullspace_contained")
    return _stacked_rank_equal(np.concatenate([y, x]), scale, _Factored(y))


def range_equal(x, y, scale: float | None = None) -> bool:
    """True iff R(x) = R(y), decided as rank([y | x]) = rank(y) = rank(x).

    One SVD of the stack and one of each operand: 3 in all, 2 when
    rank(y) already differs. `scale` anchors the rank cutoff as in
    `range_contained`.
    """
    x, y = _operands(x, y, 0, "range_equal")
    return _range_equal(_Factored(x), _Factored(y), scale)


def nullspace_equal(x, y, scale: float | None = None) -> bool:
    """True iff N(x) = N(y), decided as rank(rows(y, x)) = rank(y) = rank(x),
    with the SVD count of `range_equal`."""
    x, y = _operands(x, y, 1, "nullspace_equal")
    return _nullspace_equal(_Factored(x), _Factored(y), scale)


__all__ = [
    "IndexReport",
    "pinv",
    "range_basis",
    "proj_range",
    "proj_corange",
    "power",
    "matrix_index",
    "range_contained",
    "nullspace_contained",
    "range_equal",
    "nullspace_equal",
]
