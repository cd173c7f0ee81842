"""Exact rational-complex arithmetic path.

Scalars are Gaussian rationals (Fraction real and imaginary parts) and
matrices are numpy object arrays of them, so every operation here is
exact. The Moore-Penrose inverse comes from a full-rank factorization
A = FG with A^+ = G* (G G*)^{-1} (F* F)^{-1} F*, which stays inside the
rational field; SVD-based routes would not. This path is the ground
truth the float path is compared against and is size-guarded to stay
desk-scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import check_q
from .errors import DomainError, NumericError, ShapeError

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
                if value.real != int(value.real) or value.imag != int(value.imag):
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}")
    m, k = a.shape
    n = b.shape[1]
    out = rzeros(m, n)
    for i in range(m):
        for j in range(n):
            acc = _GR_ZERO
            for l in range(k):
                acc = acc + a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def _check_size(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {a.ndim}-D")
    if max(a.shape, default=0) > MAX_EXACT_DIM:
        raise DomainError(
            f"exact path is limited to {MAX_EXACT_DIM}x{MAX_EXACT_DIM}, got "
            f"{a.shape[0]}x{a.shape[1]}")
    return a


def _rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices, exactly."""
    r = a.copy()
    m, n = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot_row = next((i for i in range(row, m) if r[i, col]), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            r[[row, pivot_row], :] = r[[pivot_row, row], :]
        pivot = r[row, col]
        for j in range(col, n):
            r[row, j] = r[row, j] / pivot
        for i in range(m):
            if i != row and r[i, col]:
                factor = r[i, col]
                for j in range(col, n):
                    r[i, j] = r[i, j] - factor * r[row, j]
        pivots.append(col)
        row += 1
    return r, pivots


def exact_rank(a: np.ndarray) -> int:
    a = _check_size(a)
    return len(_rref(a)[1])


def _rinv(a: np.ndarray) -> np.ndarray:
    """Exact inverse of a nonsingular square rational matrix."""
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError("inverse requires a square matrix")
    aug = np.concatenate([a, reye(n)], axis=1)
    r, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular over the rationals")
    return r[:, n:]


def full_rank_factorization(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = F G with F of full column rank and G of full row rank.

    F collects the pivot columns of A; G is the nonzero rows of the RREF.
    """
    a = _check_size(a)
    r, pivots = _rref(a)
    rank = len(pivots)
    f = a[:, pivots] if rank else rzeros(a.shape[0], 0)
    g = r[:rank, :]
    return f, g


def exact_pinv(a: np.ndarray) -> np.ndarray:
    a = _check_size(a)
    f, g = full_rank_factorization(a)
    if f.shape[1] == 0:
        return rzeros(a.shape[1], a.shape[0])
    gh = conj_t(g)
    fh = conj_t(f)
    return _matmul(_matmul(gh, _rinv(_matmul(g, gh))),
                   _matmul(_rinv(_matmul(fh, f)), fh))


def exact_power(a: np.ndarray, q: int) -> np.ndarray:
    a = _check_size(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("powers require a square matrix")
    if not isinstance(q, (int, np.integer)) or q < 0:
        raise DomainError(f"exponent must be a nonnegative integer, got {q!r}")
    out = reye(a.shape[0])
    for _ in range(int(q)):
        out = _matmul(out, a)
    return out


def exact_index(a: np.ndarray) -> int:
    a = _check_size(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("index requires a square matrix")
    n = a.shape[0]
    previous = n
    p = reye(n)
    for j in range(1, n + 2):
        p = _matmul(p, a)
        current = exact_rank(p)
        if current == previous:
            return j - 1
        previous = current
    return n


def exact_proj_range(b: np.ndarray) -> np.ndarray:
    return _matmul(b, exact_pinv(b))


def exact_qbt(a: np.ndarray, q: int) -> np.ndarray:
    a = _check_size(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("the q-BT inverse requires a square matrix")
    p = exact_proj_range(exact_power(a, check_q(q, a.shape[0])))
    return exact_pinv(_matmul(a, p))


def exact_drazin(a: np.ndarray) -> np.ndarray:
    a = _check_size(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("the Drazin inverse requires a square matrix")
    k = exact_index(a)
    ak = exact_power(a, k)
    return _matmul(_matmul(ak, exact_pinv(exact_power(a, 2 * k + 1))), ak)


def exact_group(a: np.ndarray) -> np.ndarray:
    k = exact_index(a)
    if k > 1:
        raise DomainError(f"group inverse requires index at most 1, computed index {k}")
    return exact_drazin(a)


def exact_core(a: np.ndarray) -> np.ndarray:
    return _matmul(_matmul(exact_group(a), a), exact_pinv(a))


def exact_core_ep(a: np.ndarray) -> np.ndarray:
    return exact_qbt(a, exact_index(a))


def exact_bt(a: np.ndarray) -> np.ndarray:
    return exact_qbt(a, 1)


def _check_pair(a: np.ndarray, w: np.ndarray):
    a = _check_size(a)
    w = _check_size(w)
    if a.shape[0] != w.shape[1] or a.shape[1] != w.shape[0]:
        raise ShapeError(
            f"weight must be {a.shape[1]}x{a.shape[0]} for a {a.shape[0]}x{a.shape[1]} matrix, "
            f"got {w.shape[0]}x{w.shape[1]}")
    if not any(w[i, j] for i in range(w.shape[0]) for j in range(w.shape[1])):
        raise DomainError("weight matrix must be nonzero")
    return a, w


def exact_pair_index(a: np.ndarray, w: np.ndarray) -> tuple[int, int, int]:
    """(Ind(AW), Ind(WA), k) on the exact path."""
    a, w = _check_pair(a, w)
    ind_aw = exact_index(_matmul(a, w))
    ind_wa = exact_index(_matmul(w, a))
    return ind_aw, ind_wa, max(ind_aw, ind_wa)


def exact_weighted_qbt(a: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    a, w = _check_pair(a, w)
    p = exact_proj_range(exact_power(_matmul(a, w), check_q(q, a.shape[0])))
    return exact_pinv(_matmul(_matmul(_matmul(w, a), w), p))


def exact_weighted_bt(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return exact_weighted_qbt(a, w, 1)


def exact_weighted_core_ep(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    return exact_weighted_qbt(a, w, exact_pair_index(a, w)[2])


def exact_weighted_drazin(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    a, w = _check_pair(a, w)
    d = exact_drazin(_matmul(w, a))
    return _matmul(a, _matmul(d, d))


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
