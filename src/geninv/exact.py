"""Exact rational-complex arithmetic path.

Scalars are Gaussian rationals (Fraction real and imaginary parts) and
the public functions take and return numpy object arrays of them, so
every operation here is exact. Inside, a matrix is held as Gaussian
integers over one denominator, (R + iI) / d: R and I are object arrays
of Python ints (I is None for a real matrix, which then costs one integer
product where a complex one costs four) and d is a positive int, reduced
by the gcd of all entries after each operation. Products are numpy
object `@` on the int arrays. Eliminations are fraction-free over Z[i]
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): every division they make is exact, so no
rational is formed until the result is read off. Ranks and pivot columns
come from forward-only elimination (`_pivots`), which updates only the
rows below each pivot; Gauss-Jordan (`_rref`) is kept for the reduced
form of `full_rank_factorization` and for the r x r inversions (`_inv`)
of the following, with F the pivot columns of the matrix named:

- Moore-Penrose: MacDuffee's A^+ = G* (F* A G*)^{-1} F* for A = F G, with
  G = F^+ A substituted, A* F (F* A A* F)^{-1} F*: 2 eliminations;
- projector onto R(B): F (F* F)^{-1} F*, F from B: 2 eliminations;
- Drazin: Cline's A^D = F (G A F)^{-1} G for A^k = F G, k = Ind(A), with
  G = F^+ A^k substituted, F (F* A^(k+1) F)^{-1} F* A^k: the k + 1 ranks
  of the index search, which leave F, plus 1;
- q-BT: (W A W P_{(AW)^q})^+ = F (C* C)^{-1} C* for C = W A W F, F from
  (AW)^q, when q >= Ind(AW): 3 eliminations, 4 below the index (`_qbt`),
  2 at q = 0 ((W A W)^+); core-EP reads F off the index search, so it
  takes the search plus 2.

All of it stays inside the rational field; SVD-based routes would not.
The q-BT construction is written once, `_qbt`, and the square kinds call
it with A for W A W. Every input enters in one walk (`_admit`): each
entry, read off a numeric array by `tolist()` and so never as a wrapping
numpy integer, takes the one rule `_parts` (which `rmatrix` builds by too)
straight into a `_ZMat`'s integers, and a routine forms Gaussian
rationals (`to_gr`) only for the value it returns. This path is the ground
truth the float path is compared against and is size-guarded to stay
desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import check_q
from .errors import DomainError, NumericError, ShapeError, index_above_one
from .matrix import exponent

MAX_EXACT_DIM = 32

_ZERO = Fraction(0)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    return NotImplemented


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    real: Fraction = _ZERO
    imag: Fraction = _ZERO

    def __post_init__(self):
        if not isinstance(self.real, Fraction):
            object.__setattr__(self, "real", Fraction(self.real))
        if not isinstance(self.imag, Fraction):
            object.__setattr__(self, "imag", Fraction(self.imag))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.real * other.real + other.imag * other.imag
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.real * other.real + self.imag * other.imag) / d,
            (self.imag * other.real - self.real * other.imag) / d,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __bool__(self):
        return self.real != 0 or self.imag != 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def to_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def __str__(self):
        if self.imag == 0:
            return str(self.real)
        imag = f"{self.imag}i"
        if self.real == 0:
            return imag
        sign = "+" if self.imag > 0 else "-"
        return f"{self.real}{sign}{abs(self.imag)}i"


_GR_ZERO = GaussianRational()
_GR_ONE = GaussianRational(Fraction(1))


def _parts(value) -> tuple:
    """The real and imaginary parts of one value, each an int or a
    Fraction: the one rule for what may enter the exact path. A
    GaussianRational, an int or a Fraction enters as it is, a float or a
    complex only with integer parts; anything else is a DomainError."""
    if isinstance(value, GaussianRational):
        return value.real, value.imag
    if isinstance(value, (int, Fraction)):
        return value, 0
    if isinstance(value, (float, complex)):
        value = complex(value)
        if not (value.real.is_integer() and value.imag.is_integer()):
            raise DomainError(f"non-integer value {value!r} cannot enter the exact path")
        return int(value.real), int(value.imag)
    raise DomainError(f"unsupported exact scalar {value!r}")


def rmatrix(rows) -> np.ndarray:
    """Object matrix from nested scalars (int, Fraction, complex int,
    GaussianRational), each read by `_parts`."""
    data = []
    width = None
    for row in rows:
        entries = [GaussianRational(*_parts(value)) for value in row]
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ShapeError("ragged rows in exact matrix")
        data.append(entries)
    return np.array(data, dtype=object).reshape(len(data), width or 0)


def rmatrix_from_complex(a: np.ndarray) -> np.ndarray:
    """Exact matrix from a complex ndarray with Gaussian-integer entries."""
    a = np.asarray(a)
    return rmatrix(a.tolist() if a.ndim == 2 else [list(a)])


def rzeros(m: int, n: int) -> np.ndarray:
    out = np.empty((m, n), dtype=object)
    out[:, :] = _GR_ZERO
    return out


def reye(n: int) -> np.ndarray:
    out = rzeros(n, n)
    for i in range(n):
        out[i, i] = _GR_ONE
    return out


def conj_t(a: np.ndarray) -> np.ndarray:
    m, n = a.shape
    out = np.empty((n, m), dtype=object)
    for i in range(m):
        for j in range(n):
            out[j, i] = a[i, j].conjugate()
    return out


def requal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    return all(a[i, j] == b[i, j] for i in range(a.shape[0]) for j in range(a.shape[1]))


class _ZMat:
    """Matrix (re + i im) / den of Gaussian integers over one denominator.

    re and im are object arrays of Python ints and den is a positive int;
    the constructor divides all three by their common gcd. im is None when
    every imaginary part is zero, so a real matrix takes one integer
    product or update where a complex one takes four.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray | None, den: int = 1):
        if im is not None and not im.any():
            im = None
        g = math.gcd(den, *re.flat, *(() if im is None else im.flat))
        if g > 1:
            re, den = re // g, den // g
            im = None if im is None else im // g
        self.re, self.im, self.den = re, im, den

    def to_gr(self) -> np.ndarray:
        """Object array of GaussianRational entries."""
        out = np.empty(self.re.shape, dtype=object)
        d, im = self.den, self.im
        for idx, r in np.ndenumerate(self.re):
            out[idx] = GaussianRational(Fraction(r, d),
                                        _ZERO if im is None else Fraction(im[idx], d))
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    def __eq__(self, other: "_ZMat") -> bool:
        """Equal values: the gcd reduction leaves one (re, im, den) per
        matrix."""
        return (self.den == other.den and np.array_equal(self.re, other.re)
                and (self.im is None) == (other.im is None)
                and (self.im is None or np.array_equal(self.im, other.im)))

    @property
    def H(self) -> "_ZMat":
        return _ZMat(self.re.T, None if self.im is None else -self.im.T, self.den)

    def __matmul__(self, other: "_ZMat") -> "_ZMat":
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        den = self.den * other.den
        if ai is None:
            return _ZMat(ar @ br, None if bi is None else ar @ bi, den)
        if bi is None:
            return _ZMat(ar @ br, ai @ br, den)
        return _ZMat(ar @ br - ai @ bi, ar @ bi + ai @ br, den)


def _zeros(m: int, n: int) -> _ZMat:
    return _ZMat(np.zeros((m, n), dtype=object), None)


def _eye(n: int) -> _ZMat:
    return _ZMat(np.eye(n, dtype=object), None)


def _exact_div(re: np.ndarray, im: np.ndarray | None, dr: int, di: int):
    """(re + i im) / (dr + i di) entrywise, when every quotient lies in Z[i].

    Multiplies by the conjugate and divides by the norm; a nonzero
    remainder means the elimination lost its integrality invariant. A real
    elimination (im None) has real pivots, so di is 0 there.
    """
    if di:
        re, im = re * dr + im * di, im * dr - re * di
        norm = dr * dr + di * di
    elif dr == 1:
        return re, im
    else:
        norm = dr
    if (re % norm).any() or (im is not None and (im % norm).any()):
        raise NumericError("inexact division in fraction-free elimination")
    return re // norm, None if im is None else im // norm


def _update(re, im, rows, cols, row: int, col: int, p: tuple[int, int]):
    """One Bareiss step on the block (rows, cols) of X = re + i im:
    (c X - u v) / p, with c = X[row, col] the pivot, u = X[rows, col],
    v = X[row, cols] and p the previous pivot. The entries are minors of
    the input (Sylvester's identity), so every division is exact; a real X
    has real pivots and stays real. Returns the block's re and im, and c."""
    cr, ur, vr, br = re[row, col], re[rows, col], re[row, cols], re[rows, cols]
    if im is None:
        return (*_exact_div(cr * br - np.multiply.outer(ur, vr), None, *p), (cr, 0))
    ci, ui, vi, bi = im[row, col], im[rows, col], im[row, cols], im[rows, cols]
    return (*_exact_div(
        cr * br - ci * bi - (np.multiply.outer(ur, vr) - np.multiply.outer(ui, vi)),
        cr * bi + ci * br - (np.multiply.outer(ur, vi) + np.multiply.outer(ui, vr)),
        *p), (cr, ci))


def _pivot_row(re, im, row: int, col: int) -> bool:
    """Swap the first row at or below `row` with a nonzero entry in column
    col into place; False when there is none."""
    hit = next((i for i in range(row, re.shape[0])
                if re[i, col] or (im is not None and im[i, col])), None)
    if hit is not None and hit != row:
        re[[row, hit]] = re[[hit, row]]
        if im is not None:
            im[[row, hit]] = im[[hit, row]]
    return hit is not None


def _rref(re: np.ndarray, im: np.ndarray | None, ncols: int | None = None):
    """Fraction-free reduced row echelon form: Bareiss's Gauss-Jordan over Z[i].

    Pivots are sought in the first `ncols` columns (all by default).
    Returns the eliminated (re, im), the pivot columns and the last pivot
    d = dr + i di: rows [:rank] equal d times the reduced row echelon form.
    At each pivot every row but the pivot row takes the `_update` step.
    """
    re, im = re.copy(), None if im is None else im.copy()
    ncols = re.shape[1] if ncols is None else ncols
    everything = slice(None)
    p = (1, 0)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == re.shape[0]:
            break
        if not _pivot_row(re, im, row, col):
            continue
        old_re, old_im = re, im
        re, im, p = _update(re, im, everything, everything, row, col, p)
        re[row] = old_re[row]
        if im is not None:
            im[row] = old_im[row]
        pivots.append(col)
        row += 1
    return re, im, pivots, p


def _pivots(a: _ZMat) -> list[int]:
    """Pivot columns of A by forward-only Bareiss elimination over Z[i].

    The steps of `_rref`, except that each pivot updates only the rows
    below it, and of those only the columns right of the pivot column (the
    others are never read again). Those rows are the ones `_rref` holds at
    the same step, so the pivots are the same; the rows above, which only
    the reduced form reads, are never formed.
    """
    re, im = a.re.copy(), None if a.im is None else a.im.copy()
    p = (1, 0)
    pivots: list[int] = []
    row = 0
    for col in range(re.shape[1]):
        if row == re.shape[0]:
            break
        if not _pivot_row(re, im, row, col):
            continue
        below, right = slice(row + 1, None), slice(col + 1, None)
        new_re, new_im, p = _update(re, im, below, right, row, col, p)
        re[below, right] = new_re
        if im is not None:
            im[below, right] = new_im
        pivots.append(col)
        row += 1
    return pivots


def _divide(re: np.ndarray, im: np.ndarray | None, d: tuple[int, int]) -> _ZMat:
    """(re + i im) / d as a reduced _ZMat."""
    dr, di = d
    if im is None:
        return _ZMat(re * dr, None, dr * dr)
    return _ZMat(re * dr + im * di, im * dr - re * di, dr * dr + di * di)


def _rank(a: _ZMat) -> int:
    return len(_pivots(a))


def _columns(a: _ZMat, cols: list[int]) -> _ZMat:
    return _ZMat(a.re[:, cols], None if a.im is None else a.im[:, cols], a.den)


def _frf(a: _ZMat) -> tuple[list[int], _ZMat]:
    """Pivot columns of A and the nonzero rows G of its RREF."""
    re, im, pivots, d = _rref(a.re, a.im)
    rank = len(pivots)
    return pivots, _divide(re[:rank], None if im is None else im[:rank], d)


def _inv(a: _ZMat) -> _ZMat:
    """Inverse of a nonsingular square matrix, from [N | I] with A = N / den."""
    n = a.shape[0]
    im = None if a.im is None else np.hstack([a.im, np.zeros((n, n), dtype=object)])
    re, im, pivots, d = _rref(np.hstack([a.re, np.eye(n, dtype=object)]), im, n)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular over the rationals")
    return _divide(re[:, n:] * a.den, None if im is None else im[:, n:] * a.den, d)


def _pinv(a: _ZMat) -> _ZMat:
    """MacDuffee's A^+ = G* (F* A G*)^{-1} F* for A = F G, with F the pivot
    columns of A and G = F^+ A substituted: A* F (F* A A* F)^{-1} F*. One
    forward elimination and one r x r inversion; G is never formed."""
    pivots = _pivots(a)
    if not pivots:
        return _zeros(a.shape[1], a.shape[0])
    f = _columns(a, pivots)
    ah_f = a.H @ f
    return ah_f @ (_inv(ah_f.H @ ah_f) @ f.H)


def _pivot_columns(b: _ZMat) -> _ZMat:
    """The pivot columns of B, a basis of R(B)."""
    return _columns(b, _pivots(b))


def _proj_range(b: _ZMat) -> _ZMat:
    """F (F* F)^{-1} F* for F the pivot columns of B: the orthogonal
    projector onto R(B), with one r x r inversion."""
    f = _pivot_columns(b)
    if not f.shape[1]:
        return _zeros(b.shape[0], b.shape[0])
    fh = f.H
    return f @ (_inv(fh @ f) @ fh)


def _power(a: _ZMat, q: int) -> _ZMat:
    out = _eye(a.shape[0])
    for _ in range(q):
        out = out @ a
    return out


def _index_search(a: _ZMat) -> tuple[int, _ZMat, _ZMat]:
    """k = Ind(A), the smallest k with rank(A^k) = rank(A^(k+1)), with A^k
    and its pivot columns F, a basis of R(A^k); each rank is one forward
    elimination."""
    k, power, pivots, following = 0, _eye(a.shape[0]), list(range(a.shape[0])), a
    while True:
        following_pivots = _pivots(following)
        if len(following_pivots) == len(pivots):
            return k, power, _columns(power, pivots)
        k, power, pivots = k + 1, following, following_pivots
        following = power @ a


def _index(a: _ZMat) -> int:
    return _index_search(a)[0]


def _drazin(a: _ZMat, ak: _ZMat, f: _ZMat) -> _ZMat:
    """Cline's A^D = F (G A F)^{-1} G for A^k = F G, k = Ind(A), with F the
    pivot columns of A^k and G = F^+ A^k substituted:
    F (F* A^(k+1) F)^{-1} F* A^k, one r x r inversion."""
    if not f.shape[1]:
        return _zeros(*a.shape)
    fh_ak = f.H @ ak
    return f @ (_inv(fh_ak @ (a @ f)) @ fh_ak)


def _group(a: _ZMat, name: str) -> _ZMat:
    """A^# for the inverse `name`, which requires Ind(A) <= 1."""
    k, ak, f = _index_search(a)
    if k > 1:
        raise index_above_one(name, k)
    return _drazin(a, ak, f)


def _pair_index(a: _ZMat, w: _ZMat) -> tuple[int, int, int]:
    ind_aw = _index(a @ w)
    ind_wa = _index(w @ a)
    return ind_aw, ind_wa, max(ind_aw, ind_wa)


def _qbt(waw: _ZMat, f: _ZMat) -> _ZMat:
    """(W A W P)^+ for P = F (F* F)^{-1} F* the projector onto R((AW)^q) and
    F a basis of it: the one q-BT construction of the exact path, which the
    square kinds call with A for W A W and a basis of R(A^q).

    W A W P = C F^+ with C = W A W F, and C = F_C G_C for F_C the pivot
    columns of C and G_C = F_C^+ C, so F_C (G_C F^+) is a full-rank
    factorization and MacDuffee's formula gives F E (F_C* C E)^{-1} F_C*
    with E = (F* F)^{-1} C* F_C. C has rank rank(W (AW)^(q+1)), which is
    full exactly when q >= Ind(AW); then F_C = C and the formula is
    F (C* C)^{-1} C*. P is never formed, and (F* F)^{-1} only below the
    index.
    """
    c = waw @ f
    pivots = _pivots(c)
    if not pivots:
        return _zeros(f.shape[0], waw.shape[0])
    if len(pivots) == f.shape[1]:
        return f @ (_inv(c.H @ c) @ c.H)
    fc = _columns(c, pivots)
    e = _inv(f.H @ f) @ (c.H @ fc)
    return f @ e @ (_inv(fc.H @ c @ e) @ fc.H)


def _qbt_at(waw: _ZMat, aw: _ZMat, q: int) -> _ZMat:
    """`_qbt` on the pivot columns of (AW)^q, or (W A W)^+ at q = 0 (P = I)."""
    q = check_q(q, aw.shape[0])
    return _pinv(waw) if q == 0 else _qbt(waw, _pivot_columns(_power(aw, q)))


def _admit(a) -> _ZMat:
    """A 2-D input as a _ZMat, in one walk over its entries: the way into
    every exact routine. A numeric array's entries are read as `tolist()`
    reads them, an object array's as they are, and nested rows are stacked
    by `np.asarray`; each entry takes `_parts`' rule. At most
    MAX_EXACT_DIM on a side."""
    try:
        a = np.asarray(a)
    except ValueError as exc:
        raise ShapeError("ragged rows in exact matrix") from exc
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {a.ndim}-D")
    if max(a.shape) > MAX_EXACT_DIM:
        raise DomainError(
            f"exact path is limited to {MAX_EXACT_DIM}x{MAX_EXACT_DIM}, got "
            f"{a.shape[0]}x{a.shape[1]}")
    parts = [_parts(value) for value in a.ravel().tolist()]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))

    def scaled(k):
        ints = [pair[k].numerator * (den // pair[k].denominator) for pair in parts]
        return np.array(ints, dtype=object).reshape(a.shape)

    return _ZMat(scaled(0), scaled(1), den)


def _check_square(a, what: str) -> _ZMat:
    z = _admit(a)
    if z.shape[0] != z.shape[1]:
        raise ShapeError(f"{what} requires a square matrix")
    return z


def exact_rank(a: np.ndarray) -> int:
    return _rank(_admit(a))


def full_rank_factorization(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = F G with F of full column rank and G of full row rank.

    F collects the pivot columns of A; G is the nonzero rows of the RREF.
    """
    z = _admit(a)
    pivots, g = _frf(z)
    return _columns(z, pivots).to_gr(), g.to_gr()


def exact_pinv(a: np.ndarray) -> np.ndarray:
    return _pinv(_admit(a)).to_gr()


def exact_power(a: np.ndarray, q: int) -> np.ndarray:
    z = _check_square(a, "powers")
    return _power(z, exponent(q, "exponent")).to_gr()


def exact_index(a: np.ndarray) -> int:
    return _index(_check_square(a, "index"))


def exact_proj_range(b: np.ndarray) -> np.ndarray:
    return _proj_range(_admit(b)).to_gr()


def exact_qbt(a: np.ndarray, q: int) -> np.ndarray:
    z = _check_square(a, "the q-BT inverse")
    return _qbt_at(z, z, q).to_gr()


def exact_drazin(a: np.ndarray) -> np.ndarray:
    z = _check_square(a, "the Drazin inverse")
    _k, zk, f = _index_search(z)
    return _drazin(z, zk, f).to_gr()


def exact_group(a: np.ndarray) -> np.ndarray:
    return _group(_check_square(a, "index"), "group inverse").to_gr()


def exact_core(a: np.ndarray) -> np.ndarray:
    z = _check_square(a, "index")
    return (_group(z, "core inverse") @ z @ _pinv(z)).to_gr()


def exact_core_ep(a: np.ndarray) -> np.ndarray:
    z = _check_square(a, "index")
    return _qbt(z, _index_search(z)[2]).to_gr()


def exact_bt(a: np.ndarray) -> np.ndarray:
    return exact_qbt(a, 1)


def _check_pair(a, w) -> tuple[_ZMat, _ZMat]:
    za, zw = _admit(a), _admit(w)
    (m, n), shape = za.shape, zw.shape
    if shape != (n, m):
        raise ShapeError(
            f"weight must be {n}x{m} for a {m}x{n} matrix, got {shape[0]}x{shape[1]}")
    if not zw.re.any() and zw.im is None:
        raise DomainError("weight matrix must be nonzero")
    return za, zw


def exact_pair_index(a: np.ndarray, w: np.ndarray) -> tuple[int, int, int]:
    """(Ind(AW), Ind(WA), k) on the exact path."""
    return _pair_index(*_check_pair(a, w))


def exact_weighted_qbt(a: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    za, zw = _check_pair(a, w)
    aw = za @ zw
    return _qbt_at(zw @ aw, aw, q).to_gr()


def exact_weighted_bt(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return exact_weighted_qbt(a, w, 1)


def exact_weighted_core_ep(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The q-BT inverse at q = k = max(Ind(AW), Ind(WA)). R((AW)^q) is the
    same for every q >= Ind(AW), so the basis from AW's index search serves
    and Ind(WA) is never needed."""
    za, zw = _check_pair(a, w)
    aw = za @ zw
    return _qbt(zw @ aw, _index_search(aw)[2]).to_gr()


def exact_weighted_drazin(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    za, zw = _check_pair(a, w)
    wa = zw @ za
    _k, wak, f = _index_search(wa)
    d = _drazin(wa, wak, f)
    return (za @ (d @ d)).to_gr()


def float_of(a: np.ndarray) -> np.ndarray:
    """Nearest-double complex matrix; huge rationals raise NumericError."""
    out = np.empty(a.shape, dtype=np.complex128)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            try:
                out[i, j] = a[i, j].to_complex()
            except OverflowError as exc:
                raise NumericError(
                    f"entry ({i}, {j}) overflows double precision") from exc
    return out


__all__ = [
    "MAX_EXACT_DIM",
    "GaussianRational",
    "rmatrix",
    "rmatrix_from_complex",
    "rzeros",
    "reye",
    "conj_t",
    "requal",
    "full_rank_factorization",
    "exact_rank",
    "exact_pinv",
    "exact_power",
    "exact_index",
    "exact_proj_range",
    "exact_qbt",
    "exact_drazin",
    "exact_group",
    "exact_core",
    "exact_core_ep",
    "exact_bt",
    "exact_pair_index",
    "exact_weighted_qbt",
    "exact_weighted_bt",
    "exact_weighted_core_ep",
    "exact_weighted_drazin",
    "float_of",
]
