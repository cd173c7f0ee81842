"""Moore-Penrose inverse, orthogonal projectors, matrix index, and
rank-based range / null-space predicates.

A square matrix is deflated one step at a time by its staircase
(`_Staircase`): one SVD per step, each no larger than rank(A) x rank(A),
decides every rank(A^j) under one flat cutoff and gives a basis of each
R(A^j), the q-BT members and the decomposition frames.

Every public routine that reads its operand's thin SVD takes the operand
through `_operand`, which keeps the last operand it factored with its
searched staircase (its singular values and first rank(A) singular
vectors; a pair build empties it, `_release_memo`): consecutive calls on
one matrix (the q-BT family of one A, its index, its Drazin inverse, its
decomposition) factor it once and decide each rank(A^j) once. A call
hits only on an operand equal bit for bit to the kept one, and every step
the staircase forms is formed the same way whichever call forms it, so a
result never depends on which calls came before it. Values-only rank
decisions (`matrix.rank`, `_stacked_rank_equal`) never read the memo."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ShapeError
from .matrix import as_matrix, exponent, rank_cutoff, rank_from_values, singular_values


@dataclass(frozen=True)
class IndexReport:
    """Result of the index computation for a square matrix.

    index: smallest k >= 0 with rank(B^k) = rank(B^(k+1)).
    rank_sequence: rank(B^j) for j = 0 .. index + 1.
    sigma_max: largest singular value of B, the scale of the one flat
        cutoff that decides every rank(B^j).
    """

    index: int
    rank_sequence: tuple[int, ...]
    sigma_max: float


class _Factored:
    """A matrix and its SVD, taken on first use and then kept.

    `usv` is the thin SVD; the pseudoinverse, range basis and both
    projectors read it, so one factorization serves them all. `s` reads
    the thin SVD's values when it is held, or when `thin` asks for it
    because a caller will need the vectors later; otherwise it takes a
    values-only SVD, which is all a rank decision needs. Only a public
    routine's operand (`_Operand`) keeps its SVD across calls, with the
    steps its staircase keeps (`_Staircase`); a product or block is factored anew
    by each call, and a values-only `s` is never memoized, since its last
    bits can differ from the thin SVD's.

    Only `rank(scale)` reads a scale, a parent matrix's largest singular
    value, when the matrix is a derived quantity (power, extracted block).
    `pinv`, `proj_range` and `proj_corange` keep r singular values: a count
    read off `rank(scale)` (on a `thin` matrix, so the rank cuts the values
    kept) or known from structure, or the flat cutoff's when r is None; a
    count of 0 takes no SVD. The projectors are U_r U_r* and V_r V_r*, not
    A A^+ and A^+ A, whose error grows with the condition of A.
    """

    def __init__(self, a: np.ndarray, thin: bool = False):
        self.a = a
        self.thin = thin

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
        return rank_from_values(self.s, self.a.shape, scale)

    def _vectors(self, r: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U_r, S_r and V_r* of the thin SVD, r capped at the nonzero values,
        or decided by the flat cutoff when None; never more than the
        singular vectors held, which a staircase cuts at rank(A)
        (`_Staircase`)."""
        m, n = self.a.shape
        if r == 0:
            return (np.zeros((m, 0), dtype=np.complex128), np.zeros(0),
                    np.zeros((0, n), dtype=np.complex128))
        u, s, vh = self.usv
        r = rank_from_values(s, (m, n)) if r is None else min(r, np.count_nonzero(s > 0.0))
        assert r <= u.shape[1], f"keeps {r} singular vectors of the {u.shape[1]} held"
        return u[:, :r], s[:r], vh[:r]

    def pinv(self, r: int | None = None) -> np.ndarray:
        """V_r S_r^-1 U_r*, the pseudoinverse at r kept values."""
        u, s, vh = self._vectors(r)
        return (vh.conj().T / s) @ u.conj().T

    def range_basis(self) -> np.ndarray:
        return self._vectors(None)[0]

    def proj_range(self, r: int | None = None) -> np.ndarray:
        u = self._vectors(r)[0]
        return u @ u.conj().T

    def proj_corange(self, r: int | None = None) -> np.ndarray:
        vh = self._vectors(r)[2]
        return vh.conj().T @ vh

    def staircase(self) -> "_Staircase":
        """A new staircase of this square matrix, on its thin SVD."""
        return _Staircase(self.a, self.usv)


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


# (shape, bytes, staircase) of the operand `_Operand` factored last, or
# None; the staircase holds the operand's singular values and its first
# rank(A) singular vectors (U, s, V*). A miss replaces the whole entry
# with one assignment of a new tuple, and `_release_memo` empties it with
# one assignment of None, so a thread reads the old entry or the new one,
# never a mix: two threads that miss at once each use their own operand's
# staircase, and the later assignment stays. Every call on the operand,
# in any thread, shares the staircase, which changes in place under its
# own lock (`_Staircase`).
_memo: tuple | None = None


def _release_memo() -> None:
    """Empty the operand memo. `weighted.WeightedPair.from_matrices` calls
    it: no pair routine reads the memo, so the last square's entry is freed
    before the pair factors AW and WA, at the cost of one full-size SVD
    when that square is called again."""
    global _memo
    _memo = None


class _Operand(_Factored):
    """A public routine's validated operand: a thin `_Factored` whose
    staircase, and with it its thin SVD, is the memo's when the operand has
    the memo's shape and bytes, and is otherwise made and put in the memo
    in place of the old entry. The key is a private copy of the operand's
    bytes, so a -0.0 that was 0.0, or any in-place edit of the caller's
    array, misses. `usv` is the staircase's: every singular value, so a
    rank read here is the one a cold call reads, and U and V* cut at
    rank(A), as far as `pinv`, `range_basis` and the projectors read them.
    The factors are read-only, since every later hit returns the same
    arrays."""

    def __init__(self, a: np.ndarray):
        super().__init__(a, thin=True)

    @cached_property
    def _staircase(self) -> "_Staircase":
        global _memo
        a = self.a
        key = a.tobytes()
        entry = _memo
        if entry is None or entry[0] != a.shape or entry[1] != key:
            entry = _memo = (a.shape, key, _Staircase(a, _thin_svd(a)))
        return entry[2]

    @property
    def usv(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._staircase.usv

    def staircase(self) -> "_Staircase":
        """The staircase the memo keeps for this operand, shared by every
        call on it."""
        return self._staircase


def _operand(a, name: str | None = None) -> _Operand:
    """a validated by `as_matrix`, and square when `name`, the routine that
    requires it, is given; held with its memoized thin SVD, taken on first
    use."""
    a = as_matrix(a)
    if name is not None and a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} requires a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return _Operand(a)


def pinv(a) -> np.ndarray:
    """Moore-Penrose inverse via one thin SVD, its rank decided by the flat
    cutoff `rank_cutoff(a.shape, sigma_max(a))`."""
    return _operand(a).pinv()


def range_basis(b) -> np.ndarray:
    """Orthonormal basis U_r of the range of B: the leading left singular
    vectors of one thin SVD, r decided as in `pinv`, so U_r U_r* = P_B.
    A copy, since the memo's U is shared and read-only."""
    return _operand(b).range_basis().copy()


def proj_range(b) -> np.ndarray:
    """Orthogonal projector P_B = B B^+ onto the range of B: U_r U_r*."""
    return _operand(b).proj_range()


def proj_corange(b) -> np.ndarray:
    """Orthogonal projector Q_B = B^+ B onto the range of B*: V_r V_r*."""
    return _operand(b).proj_corange()


def power(b, q: int) -> np.ndarray:
    """B^q for a square B, with B^0 = I."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise ShapeError(f"power requires a square matrix, got {b.shape[0]}x{b.shape[1]}")
    return np.linalg.matrix_power(b, exponent(q, "exponent"))


@dataclass(frozen=True, eq=False)
class _Step:
    """Step j of a staircase: `basis` is U_j, orthonormal columns spanning
    R(B^j), and `m` is M_j, with B U_j = U_j M_j. For j >= 2,
    M_(j-1) = U' S' V'* keeps r_j values: U_j = U_(j-1) U'_r, `s` is S'_r,
    `x` is U_(j-1) V'_r and M_j = S'_r V'_r* U'_r, so B U_(j-1) = U_j S'_r x*
    up to the values dropped."""

    basis: np.ndarray
    s: np.ndarray | None
    x: np.ndarray | None
    m: np.ndarray | None


class _Staircase:
    """The staircase of a square matrix B: B deflated one step at a time
    (Kublanovskaya; Golub & Wilkinson), every rank(B^j) and every q-BT
    member read off one SVD per step.

    Step 1 is B's thin SVD B = U1 S1 V1*: rank(B) = r_1 under the flat
    cutoff `rank_cutoff((n, n), sigma_max(B))`, and B^+. Its basis U_1 of
    R(B) is Q, B V1 = Q R (a Householder QR of a singular B, taken with
    the staircase): B applied to V1 lies in R(B) to the rounding of one
    product, where U1 carries the SVD's backward error. M_1 = U_1* B U_1.
    Step j >= 2 takes the SVD of M_(j-1) and keeps the r_j = rank(B^j)
    values above the same cutoff; when none falls under it but the values
    show a gap, some under 100 times the cutoff and some over it, those
    under are deflated too, and the step is recorded in `widened`. A block
    that lies under 100 times the cutoff as a whole is kept. The q-BT member
    (B P_{B^q})^+ = U_q V'_r S'_r^-1 U_(q+1)* is read off step q + 1 alone
    (`member`), with no factorization of its own.

    The staircase holds B's shape, every singular value of B and its
    first r_1 singular vectors, read-only (copies of U[:, :r_1] and
    V*[:r_1], which free the rest; the factors of a B of full rank as
    they are), and step 1, never B itself. No reader goes past vector r_1:
    `read(0)` and `drazin` read U1 and V1* at r_1, and `_Factored._vectors`
    checks the width it reads. `ranks` (rank(B^j), j = 0, 1, ... as far as
    `search` decided them) and `widened` are held for good; the steps for
    at most three j >= 2: the last two decided, Ind(B) and Ind(B) + 1 once
    the ranks stopped, and the last one read (`step`). Any other step is
    formed again from the nearest one held below it, with the same bits.
    The Drazin inverse B^d = U_k G, k = Ind(B), is one solve on step 1's
    M_1 and step k's basis (`drazin`), kept for the last k asked; no power
    of B is formed.

    An operand's staircase is the operand memo's (`_Operand.staircase`)
    and a pair's are the pair's (`weighted.WeightedPair`); either is shared
    by every call that reads it, in any thread, and changes in place, only
    under its lock: `ranks` only grows, and a rank once decided never
    changes, so a call reads the ranks it searched whatever other calls
    add after them.
    """

    def __init__(self, a: np.ndarray, usv: tuple[np.ndarray, np.ndarray, np.ndarray]):
        u, s, vh = usv
        n = a.shape[0]
        self.shape = a.shape
        self.s1 = float(s[0]) if s.size else 0.0
        self.cut = rank_cutoff(a.shape, self.s1)
        r = rank_from_values(s, a.shape)
        self.ranks = [n, r]
        self.widened: list[int] = []
        # copies, so the vectors past r, which no reader reads, are freed
        if r < s.size:
            u, vh = u[:, :r].copy(), vh[:r].copy()
        for factor in (u, s, vh):
            factor.setflags(write=False)
        self.usv = (u, s, vh)
        self.u1, self.vh1 = u, vh
        # step 1: U_1 = Q from B V1 = Q R and M_1 = U_1* B U_1, or U1 for a
        # nonsingular B, whose staircase has no step 2
        basis, m, self._r = self.u1, None, None
        if a.shape == (n, n) and r < n:
            basis, self._r = np.linalg.qr(a @ self.vh1.conj().T)
            m = basis.conj().T @ (a @ basis)
        self._first = _Step(basis, None, None, m)
        self._held: dict[int, _Step] = {}
        self._read = 0
        self._solved: tuple[int, np.ndarray, np.ndarray] | None = None
        self._lock = threading.Lock()

    @property
    def index(self) -> int:
        """min(Ind(B), last - 1) after `search` up to j = last."""
        return len(self.ranks) - 2

    def _next(self, prev: _Step, r: int | None = None) -> tuple[_Step, int, bool]:
        """The step after `prev`, at rank r, or at the rank the cutoff
        decides when r is None; with that rank and whether it was widened."""
        kept = prev.m.shape[0]
        u, s, vh = _thin_svd(prev.m)
        widened = False
        if r is None:
            values = s.tolist()
            r = len([v for v in values if v > self.cut])
            wide = len([v for v in values if v > 100.0 * self.cut])
            if r == kept and 0 < wide < kept:
                r, widened = wide, True
        basis, vhr = prev.basis, vh[:r]
        step = _Step(basis @ u[:, :r], s[:r], basis @ vhr.conj().T, s[:r, None] * (vhr @ u[:, :r]))
        return step, r, widened

    def _hold(self, j: int, step: _Step) -> None:
        """Hold step j, and drop every step but the last two decided and
        the last one read."""
        last = len(self.ranks) - 1
        self._held = {i: f for i, f in {**self._held, j: step}.items()
                      if i in (last - 1, last, self._read)}

    def search(self, last: int) -> int:
        """min(Ind(B), last - 1): decide rank(B^j) for j = 2, 3, ... up to
        the first j with rank(B^j) = rank(B^(j-1)), or up to j = last, one
        step each, once per staircase: a staircase already searched that
        far decides nothing."""
        with self._lock:
            ranks = self.ranks
            while ranks[-1] != ranks[-2] and len(ranks) <= last:
                j = len(ranks)
                step, r, widened = self._next(self._formed(j - 1))
                ranks.append(r)
                if widened:
                    self.widened.append(j)
                self._hold(j, step)
            return min(self.index, last - 1)

    def _formed(self, j: int) -> _Step:
        """Step j, 1 <= j <= the last decided: held, or formed again at its
        decided rank from the nearest step held below it."""
        if j in self._held:
            return self._held[j]
        i = max((i for i in self._held if i < j), default=1)
        step = self._held[i] if i > 1 else self._first
        for jj in range(i + 1, j + 1):
            step = self._next(step, self.ranks[jj])[0]
        return step

    def step(self, j: int) -> _Step:
        """Step j, 1 <= j <= the last decided, held from now on as the last
        step read."""
        with self._lock:
            step = self._formed(j)
            self._read = j
            self._hold(j, step)
        return step

    def read(self, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the member of order q, 0 <= q < the last decided step,
        reads off step q + 1, B U_q = U_(q+1) S'_r x*: U_(q+1), S'_r and
        x = U_q V'_r; at q = 0, B's thin SVD, U1, S1 and V1."""
        if q:
            step = self.step(q + 1)
            return step.basis, step.s, step.x
        return self.u1, self.usv[1][:self.ranks[1]], self.vh1.conj().T

    def member(self, q: int) -> np.ndarray:
        """(B P_{B^q})^+ for 0 <= q < the last decided step, read off step
        q + 1: B U_q = U_(q+1) S'_r V'_r*, so the member is
        U_q V'_r S'_r^-1 U_(q+1)*; at q = 0 it is B^+ from B's thin SVD, and
        0 at a rank of 0."""
        basis, s, x = self.read(q)
        return (x / s) @ basis.conj().T

    def frame(self, k: int) -> np.ndarray:
        """[U_k | complement], a unitary whose first rank(B^k) columns span
        R(B^k): U_k from step k, or from the last decided one past it, where
        the ranges stop growing smaller, completed by one complete
        Householder QR of U_k. I at k = 0."""
        if k == 0:
            return np.eye(self.shape[0], dtype=np.complex128)
        basis = self.step(min(k, len(self.ranks) - 1)).basis
        rest = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]
        return np.concatenate([basis, rest], axis=1)

    def drazin(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(U_k, G) with B^d = U_k G, for k = Ind(B) >= 1 and rank(B^k) > 0:
        one solve in step 1's r x r coordinates, kept for the last k asked,
        so the Drazin, group and core inverses share it.

        Step 1 gives B = U_1 R V1* and B U_1 = U_1 M_1. With U_k = U_1 Ũ,
        T = Ũ* M_1 Ũ is B on R(B^k), nonsingular, and with P̃ = I - Ũ Ũ*,
        (M_1 P̃)^k = 0; so
        Y = sum_(i<k) T^-(i+1) Ũ* (M_1 P̃)^i, taken by Horner, solves
        T Y - Y M_1 P̃ = Ũ* and M_1^d = Ũ Y (Wang's core-EP form: the
        Sylvester equation T X - X N = -S of its blocks). By Cline's formula
        B^d = U_1 (M_1^d)^2 R V1* = U_k T^-1 Y R V1*, taken as
        G = T^-1 [(I - Y M_1 Ũ) U_k* + Y R V1*], whose bracket maps U_k to
        I however Y rounds. No power of B or of a scale is formed. T is
        factored by one QR, T^-1 = R^-1 Q*; a diagonal entry of its R at or
        under the flat cutoff, which a misread index gives, raises
        NumericError."""
        with self._lock:
            if self._solved is None or self._solved[0] != k:
                first, uk = self._first, self._formed(k).basis
                m1, r = first.m, first.m.shape[0]
                # at k = 1, U_k = U_1: T = M_1 and the sum is its one term
                ut = first.basis.conj().T @ uk if k > 1 else np.eye(r, dtype=np.complex128)
                uth, m1ut = ut.conj().T, m1 @ ut
                t = uth @ m1ut
                qt, rt = np.linalg.qr(t)
                if np.abs(np.diagonal(rt)).min() <= self.cut:
                    raise NumericError(
                        f"B on R(B^{k}) is singular at the rank cutoff; "
                        f"the Drazin inverse needs it nonsingular at index {k}")
                t_inv = np.linalg.solve(rt, qt.conj().T)
                nil = m1 - m1ut @ uth
                y = t_inv @ uth
                for _ in range(k - 1):
                    y = t_inv @ (uth + y @ nil)
                g = t_inv @ ((np.eye(t.shape[0]) - y @ m1ut) @ uk.conj().T + (y @ self._r) @ self.vh1)
                g.setflags(write=False)
                self._solved = (k, uk, g)
            return self._solved[1:]


def _power_projector(b: np.ndarray, q: int, s: float) -> np.ndarray:
    """P_{B^q} = U_r U_r* of the full-size power (B / s)^q, r decided
    against 1 for s a scale of B: the rule that cuts B^q against s^q, with
    no power of s formed, so none overflows (B is 0 where s is). The
    reference the checks compare the staircase's results with, built apart
    from it."""
    power = _Factored(np.linalg.matrix_power(b / s if s else b, q), thin=True)
    return power.proj_range(power.rank(1.0))


def matrix_index(b) -> IndexReport:
    """Index of a square matrix: rank stabilization point of its powers.

    Each rank(B^j) is decided by one step of B's staircase (`_Staircase`)
    under the flat cutoff of B: one thin SVD of B gives sigma_max(B),
    rank(B) and the first step, and settles a nonsingular B. A singular B
    adds one SVD of an r x r matrix per step: Ind(B) + 1 SVDs in all. The
    operand memo (`_operand`) keeps B's thin SVD and its searched
    staircase, so after any call that searched B this far, another call on
    the same B takes none. The search is capped at n (the index never
    exceeds n).
    """
    stairs = _operand(b, "matrix_index").staircase()
    k = stairs.search(stairs.shape[0] + 1)
    return IndexReport(index=k, rank_sequence=tuple(stairs.ranks), sigma_max=stairs.s1)


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


def range_contained(x, y) -> bool:
    """True iff R(x) is contained in R(y), decided as rank([y | x]) = rank(y)."""
    x, y = _operands(x, y, 0, "range_contained")
    return _stacked_rank_equal(np.concatenate([y, x], axis=1), None, _Factored(y))


def nullspace_contained(y, x) -> bool:
    """True iff N(y) is contained in N(x), decided as rank(rows(y, x)) = rank(y)."""
    y, x = _operands(y, x, 1, "nullspace_contained")
    return _stacked_rank_equal(np.concatenate([y, x]), None, _Factored(y))


def range_equal(x, y) -> bool:
    """True iff R(x) = R(y), decided as rank([y | x]) = rank(y) = rank(x).

    One SVD of the stack and one of each operand: 3 in all, 2 when
    rank(y) already differs.
    """
    x, y = _operands(x, y, 0, "range_equal")
    return _range_equal(_Factored(x), _Factored(y), None)


def nullspace_equal(x, y) -> bool:
    """True iff N(x) = N(y), decided as rank(rows(y, x)) = rank(y) = rank(x),
    with the SVD count of `range_equal`."""
    x, y = _operands(x, y, 1, "nullspace_equal")
    return _nullspace_equal(_Factored(x), _Factored(y), None)


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
