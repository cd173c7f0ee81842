"""Moore-Penrose inverse, orthogonal projectors, matrix index, and
rank-based range / null-space predicates.

The powers of a square matrix are held in the r x r coordinates of its
thin SVD (`_Powers`), r its rank, so that the index search and every
routine that reads a power of A factors r x r matrices, not A^j."""

from __future__ import annotations

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
    values-only SVD, which is all a rank decision needs.

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
        m, n = self.a.shape
        if self.a.size == 0:
            return (np.zeros((m, 0), dtype=np.complex128), np.zeros(0),
                    np.zeros((0, n), dtype=np.complex128))
        try:
            return np.linalg.svd(self.a, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed: {exc}") from exc

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
        u, s, vh = self.usv
        return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T

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


def pinv(a, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Moore-Penrose inverse via one thin SVD with a relative singular-value
    cutoff; `scale` and `fixed_rank` as in `_Factored`."""
    return _Factored(as_matrix(a)).pinv(scale, fixed_rank)


def range_basis(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthonormal basis U_r of the range of B: the leading left singular
    vectors of one thin SVD, r decided as in `pinv`, so U_r U_r* = P_B."""
    return _Factored(as_matrix(b)).range_basis(scale, fixed_rank)


def proj_range(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector P_B = B B^+ onto the range of B."""
    return _Factored(as_matrix(b)).proj_range(scale, fixed_rank)


def proj_corange(b, scale: float | None = None, fixed_rank: int | None = None) -> np.ndarray:
    """Orthogonal projector Q_B = B^+ B onto the range of B*."""
    return _Factored(as_matrix(b)).proj_corange(scale, fixed_rank)


def power(b, q: int) -> np.ndarray:
    """B^q for a square B, with B^0 = I."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ShapeError(f"power requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    return np.linalg.matrix_power(b, exponent(q, "exponent"))


class _Powers:
    """The powers of a square matrix B, held in the r x r coordinates of
    B's thin SVD truncated at r = rank(B).

    With B = U1 S1 V1* and M = S1 V1* U1, B^j = U1 P_j V1* where P_1 = S1
    and P_j = M P_(j-1), so sigma(B^j) = sigma(P_j): every power is
    factored as an r x r matrix, under the cutoff of B^j itself (shape
    n x n, anchored by the caller, at sigma_max(B)^j for a rank search).
    A singular value of B dropped by the truncation is at most
    n eps sigma_max(B), so it moves B^j by at most n eps sigma_max(B)^j,
    below every cutoff anchored at sigma_max(B)^j or higher.

    sigma_max(B) and rank(B) come from B's own SVD: values only unless B
    was created thin. The thin SVD is taken only when a power or the frame
    is read, so a rank search on a nonsingular B takes one values-only SVD.
    `ranks` holds rank(B^j) for j = 0, 1, ... as far as `_power_search`
    decided them. The chain keeps the last two powers formed, which are
    P_Ind(B) and P_(Ind(B)+1) after a search that stabilized, and a power
    formed thin because a caller reads its vectors.
    """

    def __init__(self, b: _Factored):
        self.b = b
        n = b.a.shape[0]
        self.shape = (n, n)
        self.s1 = b.sigma_max
        self.ranks = [n, b.rank(self.s1)]
        self._held: dict[int, _Factored] = {}

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """U1, S1, V1* and V1* U1; a B of rank 0 takes no SVD."""
        r = self.ranks[1]
        if r:
            u, s, vh = self.b.usv
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

    def power(self, j: int, thin: bool = False) -> _Factored:
        """P_j for j >= 1, held with its factorization; `thin` makes a newly
        formed P_j take its thin SVD for its singular values too."""
        held = self._held
        if j in held:
            return held[j]
        if j == 1:
            held[1] = _Factored(np.diag(self._frame[1]).astype(np.complex128), shape=self.shape)
            return held[1]
        e = max((i for i in held if 1 < i < j), default=1)
        p = held[e].a if e > 1 else None
        while e < j:
            e += 1
            # P_2 = M S1 scales the columns of M
            p = self.m * self._frame[1] if p is None else self.m @ p
            old = held.get(e - 2)
            if e - 2 > 1 and old is not None and not old.thin:
                del held[e - 2]
            held[e] = _Factored(p, thin=thin and e == j, shape=self.shape)
        return held[j]

    def basis(self, q: int, scale: float | None = None,
              fixed_rank: int | None = None) -> np.ndarray:
        """An orthonormal basis of R(B^q), q >= 1, in U1's coordinates: the
        leading left singular vectors of P_q, so U1 times it spans R(B^q).
        The count is decided as in `_Factored.range_basis`; P_1 = S1 is
        diagonal and takes no SVD."""
        if q > 1:
            return self.power(q).range_basis(scale, fixed_rank)
        s = self._frame[1]
        keep = 0 if fixed_rank == 0 else _kept(s, self.shape, scale, fixed_rank)
        return np.eye(s.size, keep, dtype=np.complex128)

    def range_basis(self, q: int, scale: float | None = None,
                    fixed_rank: int | None = None) -> np.ndarray:
        """An orthonormal basis of R(B^q), q >= 1, in full coordinates:
        U1 times `basis(q)`."""
        return self.u1 @ self.basis(q, scale, fixed_rank)


def _anchor(s1: float, j: int) -> float:
    """s1^j, the rank anchor of a j-th power, s1 = sigma_max: read before the
    power is formed, so an overflow is a DomainError naming j."""
    try:
        return s1 ** j
    except OverflowError:
        raise DomainError(
            f"sigma_max^{j}, the rank anchor of power {j}, overflows") from None


def _power_search(b: _Factored, last: int, thin_at: int = 0) -> _Powers:
    """rank(B^j) for j = 0, 1, ... up to the first j with rank(B^j) =
    rank(B^(j-1)), or up to j = last, each decided on P_j against
    sigma_max(B)^j; read them from the returned chain's `ranks`.

    P_thin_at is formed thin, so the range basis a caller reads from it
    costs no second SVD. The only full-size SVDs are those of B: one
    values-only SVD for sigma_max(B) and rank(B), then, when B is
    singular, its thin SVD, unless B was created thin, which gives both.
    """
    chain = _Powers(b)
    ranks = chain.ranks
    while ranks[-1] != ranks[-2] and len(ranks) <= last:
        j = len(ranks)
        anchor = _anchor(chain.s1, j)
        ranks.append(chain.power(j, thin=j == thin_at).rank(anchor))
    return chain


def matrix_index(b) -> IndexReport:
    """Index of a square matrix: rank stabilization point of its powers.

    The rank of B^j is taken relative to sigma_max(B)^j and decided on the
    r x r compression of B^j (`_Powers`); one values-only SVD of B gives
    sigma_max(B) and rank(B), and settles a nonsingular B. A singular B
    adds its thin SVD and one values-only SVD of an r x r matrix per power:
    Ind(B) + 2 SVDs in all. The search is capped at n (the index never
    exceeds n).
    """
    b = as_matrix(b)
    n = b.shape[0]
    if n != b.shape[1]:
        raise ShapeError(f"matrix_index requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    chain = _power_search(_Factored(b), n + 1)
    ranks = chain.ranks
    return IndexReport(index=len(ranks) - 2, rank_sequence=tuple(ranks), sigma_max=chain.s1)


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
