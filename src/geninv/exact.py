"""Exact rational-complex arithmetic path.

Scalars are Gaussian rationals (Fraction real and imaginary parts) and
the public functions take and return numpy object arrays of them, so
every operation here is exact. Inside, a matrix is held as Gaussian
integers over one denominator, (R + iI) / d: R and I are object arrays
of Python ints and d is a positive int, reduced by the gcd of all
entries after each operation. Products are numpy object `@` on the int
arrays. Rank, reduced row echelon form and inverse come from
fraction-free Gauss-Jordan elimination over Z[i] (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): every division it makes is exact, so no rational is formed
until the result is read off. The Moore-Penrose inverse comes from a
full-rank factorization A = FG with A^+ = G* (G G*)^{-1} (F* F)^{-1} F*,
which stays inside the rational field; SVD-based routes would not. The
q-BT construction is written once, `_weighted_qbt`, and the square kinds
call it with W absent. Input is read by one rule (`_check_size`): entries
that are not all GaussianRational are converted as `rmatrix_from_complex`
converts them, so an integer numpy array never enters the elimination as
wrapping numpy integers. This path is the ground truth the float path is
compared against and is size-guarded to stay desk-scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import check_q
from .errors import DomainError, NumericError, ShapeError
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


def rmatrix(rows) -> np.ndarray:
    """Object matrix from nested scalars (int, Fraction, complex int,
    GaussianRational)."""
    data = []
    width = None
    for row in rows:
        entries = []
        for value in row:
            if isinstance(value, GaussianRational):
                entries.append(value)
            elif isinstance(value, (int, Fraction)):
                entries.append(GaussianRational(Fraction(value)))
            elif isinstance(value, (float, complex)):
                value = complex(value)
                if not (value.real.is_integer() and value.imag.is_integer()):
                    raise DomainError(
                        f"non-integer value {value!r} cannot enter the exact path")
                entries.append(GaussianRational(Fraction(int(value.real)),
                                                Fraction(int(value.imag))))
            else:
                raise DomainError(f"unsupported exact scalar {value!r}")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ShapeError("ragged rows in exact matrix")
        data.append(entries)
    out = np.empty((len(data), width if width is not None else 0), dtype=object)
    for i, row in enumerate(data):
        for j, value in enumerate(row):
            out[i, j] = value
    return out


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
    the constructor divides all three by their common gcd.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: np.ndarray, im: np.ndarray, den: int = 1):
        g = math.gcd(den, *re.flat, *im.flat)
        if g > 1:
            re, im, den = re // g, im // g, den // g
        self.re, self.im, self.den = re, im, den

    @classmethod
    def of(cls, a: np.ndarray) -> "_ZMat":
        """From an object array of Gaussian rationals."""
        reals = [v.real for v in a.flat]
        imags = [v.imag for v in a.flat]
        den = math.lcm(*(x.denominator for x in reals), *(x.denominator for x in imags))

        def scaled(parts):
            ints = [x.numerator * (den // x.denominator) for x in parts]
            return np.array(ints, dtype=object).reshape(a.shape)

        return cls(scaled(reals), scaled(imags), den)

    def to_gr(self) -> np.ndarray:
        """Object array of GaussianRational entries."""
        out = np.empty(self.re.shape, dtype=object)
        d = self.den
        for idx, r in np.ndenumerate(self.re):
            out[idx] = GaussianRational(Fraction(r, d), Fraction(self.im[idx], d))
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.re.shape

    @property
    def H(self) -> "_ZMat":
        return _ZMat(self.re.T, -self.im.T, self.den)

    def __matmul__(self, other: "_ZMat") -> "_ZMat":
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        return _ZMat(ar @ br - ai @ bi, ar @ bi + ai @ br, self.den * other.den)


def _zeros(m: int, n: int) -> _ZMat:
    return _ZMat(np.zeros((m, n), dtype=object), np.zeros((m, n), dtype=object))


def _eye(n: int) -> _ZMat:
    return _ZMat(np.eye(n, dtype=object), np.zeros((n, n), dtype=object))


def _exact_div(re: np.ndarray, im: np.ndarray, dr: int, di: int):
    """(re + i im) / (dr + i di) entrywise, when every quotient lies in Z[i].

    Multiplies by the conjugate and divides by the norm; a nonzero
    remainder means the elimination lost its integrality invariant.
    """
    if di:
        re, im = re * dr + im * di, im * dr - re * di
        norm = dr * dr + di * di
    elif dr == 1:
        return re, im
    else:
        norm = dr
    if (re % norm).any() or (im % norm).any():
        raise NumericError("inexact division in fraction-free elimination")
    return re // norm, im // norm


def _rref(re: np.ndarray, im: np.ndarray, ncols: int | None = None):
    """Fraction-free reduced row echelon form: Bareiss's Gauss-Jordan over Z[i].

    Pivots are sought in the first `ncols` columns (all by default).
    Returns the eliminated (re, im), the pivot columns and the last pivot
    d = dr + i di: rows [:rank] equal d times the reduced row echelon form.
    At each pivot p in column c every other row becomes
    (p row - row[c] pivot_row) / p_prev, whose entries are minors of the
    input (Sylvester's identity), so each division is exact.
    """
    re, im = re.copy(), im.copy()
    m = re.shape[0]
    ncols = re.shape[1] if ncols is None else ncols
    pr, pi = 1, 0
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == m:
            break
        hit = next((i for i in range(row, m) if re[i, col] or im[i, col]), None)
        if hit is None:
            continue
        if hit != row:
            re[[row, hit]] = re[[hit, row]]
            im[[row, hit]] = im[[hit, row]]
        cr, ci = re[row, col], im[row, col]
        ur, ui = re[:, col], im[:, col]
        vr, vi = re[row], im[row]
        new_re = cr * re - ci * im - (np.multiply.outer(ur, vr) - np.multiply.outer(ui, vi))
        new_im = cr * im + ci * re - (np.multiply.outer(ur, vi) + np.multiply.outer(ui, vr))
        re, im = _exact_div(new_re, new_im, pr, pi)
        re[row], im[row] = vr, vi
        pr, pi = cr, ci
        pivots.append(col)
        row += 1
    return re, im, pivots, (pr, pi)


def _divide(re: np.ndarray, im: np.ndarray, d: tuple[int, int]) -> _ZMat:
    """(re + i im) / d as a reduced _ZMat."""
    dr, di = d
    return _ZMat(re * dr + im * di, im * dr - re * di, dr * dr + di * di)


def _rank(a: _ZMat) -> int:
    return len(_rref(a.re, a.im)[2])


def _frf(a: _ZMat) -> tuple[list[int], _ZMat]:
    """Pivot columns of A and the nonzero rows G of its RREF."""
    re, im, pivots, d = _rref(a.re, a.im)
    rank = len(pivots)
    return pivots, _divide(re[:rank], im[:rank], d)


def _inv(a: _ZMat) -> _ZMat:
    """Inverse of a nonsingular square matrix, from [N | I] with A = N / den."""
    n = a.shape[0]
    re, im, pivots, d = _rref(np.hstack([a.re, np.eye(n, dtype=object)]),
                              np.hstack([a.im, np.zeros((n, n), dtype=object)]), n)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular over the rationals")
    return _divide(re[:, n:] * a.den, im[:, n:] * a.den, d)


def _pinv(a: _ZMat) -> _ZMat:
    pivots, g = _frf(a)
    if not pivots:
        return _zeros(a.shape[1], a.shape[0])
    f = _ZMat(a.re[:, pivots], a.im[:, pivots], a.den)
    gh, fh = g.H, f.H
    return (gh @ _inv(g @ gh)) @ (_inv(fh @ f) @ fh)


def _power(a: _ZMat, q: int) -> _ZMat:
    out = _eye(a.shape[0])
    for _ in range(q):
        out = out @ a
    return out


def _index(a: _ZMat) -> int:
    n = a.shape[0]
    previous = n
    p = _eye(n)
    for j in range(1, n + 2):
        p = p @ a
        current = _rank(p)
        if current == previous:
            return j - 1
        previous = current
    return n


def _proj_range(b: _ZMat) -> _ZMat:
    return b @ _pinv(b)


def _drazin(a: _ZMat) -> _ZMat:
    ak = _power(a, _index(a))
    return ak @ _pinv(ak @ ak @ a) @ ak


def _group(a: _ZMat) -> _ZMat:
    k = _index(a)
    if k > 1:
        raise DomainError(f"group inverse requires index at most 1, computed index {k}")
    return _drazin(a)


def _pair_index(a: _ZMat, w: _ZMat) -> tuple[int, int, int]:
    ind_aw = _index(a @ w)
    ind_wa = _index(w @ a)
    return ind_aw, ind_wa, max(ind_aw, ind_wa)


def _weighted_qbt(a: _ZMat, w: _ZMat | None, q: int) -> _ZMat:
    """(W A W P_{(AW)^q})^+, the one q-BT construction of the exact path;
    with w None, the square (A P_{A^q})^+, which is the same with W absent."""
    aw = a if w is None else a @ w
    waw = a if w is None else w @ aw
    return _pinv(waw @ _proj_range(_power(aw, check_q(q, a.shape[0]))))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}")
    return (_ZMat.of(a) @ _ZMat.of(b)).to_gr()


def _check_size(a) -> np.ndarray:
    """a as an object array of GaussianRational, at most MAX_EXACT_DIM on a
    side: other entries are converted as `rmatrix` converts them (a numeric
    array as `rmatrix_from_complex` does), and one that is not an exact
    integer, Fraction or GaussianRational is a DomainError."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {a.ndim}-D")
    if max(a.shape, default=0) > MAX_EXACT_DIM:
        raise DomainError(
            f"exact path is limited to {MAX_EXACT_DIM}x{MAX_EXACT_DIM}, got "
            f"{a.shape[0]}x{a.shape[1]}")
    if a.dtype == object and all(type(v) is GaussianRational for v in a.flat):
        return a
    return rmatrix(a.tolist()).reshape(a.shape)


def _check_square(a: np.ndarray, what: str) -> _ZMat:
    a = _check_size(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} requires a square matrix")
    return _ZMat.of(a)


def exact_rank(a: np.ndarray) -> int:
    return _rank(_ZMat.of(_check_size(a)))


def full_rank_factorization(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = F G with F of full column rank and G of full row rank.

    F collects the pivot columns of A; G is the nonzero rows of the RREF.
    """
    a = _check_size(a)
    pivots, g = _frf(_ZMat.of(a))
    f = a[:, pivots] if pivots else rzeros(a.shape[0], 0)
    return f, g.to_gr()


def exact_pinv(a: np.ndarray) -> np.ndarray:
    return _pinv(_ZMat.of(_check_size(a))).to_gr()


def exact_power(a: np.ndarray, q: int) -> np.ndarray:
    z = _check_square(a, "powers")
    return _power(z, exponent(q, "exponent")).to_gr()


def exact_index(a: np.ndarray) -> int:
    return _index(_check_square(a, "index"))


def exact_proj_range(b: np.ndarray) -> np.ndarray:
    return _proj_range(_ZMat.of(_check_size(b))).to_gr()


def exact_qbt(a: np.ndarray, q: int) -> np.ndarray:
    return _weighted_qbt(_check_square(a, "the q-BT inverse"), None, q).to_gr()


def exact_drazin(a: np.ndarray) -> np.ndarray:
    return _drazin(_check_square(a, "the Drazin inverse")).to_gr()


def exact_group(a: np.ndarray) -> np.ndarray:
    return _group(_check_square(a, "index")).to_gr()


def exact_core(a: np.ndarray) -> np.ndarray:
    z = _check_square(a, "index")
    return (_group(z) @ z @ _pinv(z)).to_gr()


def exact_core_ep(a: np.ndarray) -> np.ndarray:
    z = _check_square(a, "index")
    return _weighted_qbt(z, None, _index(z)).to_gr()


def exact_bt(a: np.ndarray) -> np.ndarray:
    return exact_qbt(a, 1)


def _check_pair(a: np.ndarray, w: np.ndarray) -> tuple[_ZMat, _ZMat]:
    a = _check_size(a)
    w = _check_size(w)
    if a.shape[0] != w.shape[1] or a.shape[1] != w.shape[0]:
        raise ShapeError(
            f"weight must be {a.shape[1]}x{a.shape[0]} for a {a.shape[0]}x{a.shape[1]} matrix, "
            f"got {w.shape[0]}x{w.shape[1]}")
    zw = _ZMat.of(w)
    if not (zw.re.any() or zw.im.any()):
        raise DomainError("weight matrix must be nonzero")
    return _ZMat.of(a), zw


def exact_pair_index(a: np.ndarray, w: np.ndarray) -> tuple[int, int, int]:
    """(Ind(AW), Ind(WA), k) on the exact path."""
    return _pair_index(*_check_pair(a, w))


def exact_weighted_qbt(a: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    return _weighted_qbt(*_check_pair(a, w), q).to_gr()


def exact_weighted_bt(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return exact_weighted_qbt(a, w, 1)


def exact_weighted_core_ep(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    za, zw = _check_pair(a, w)
    return _weighted_qbt(za, zw, _pair_index(za, zw)[2]).to_gr()


def exact_weighted_drazin(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    za, zw = _check_pair(a, w)
    d = _drazin(zw @ za)
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
