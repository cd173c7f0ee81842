"""Dense complex matrices, the rank cutoff, the residual tolerance, the
residuals of the defining systems, and singular values.

All matrices are 2-D numpy arrays of complex128, and every factorization
in the library comes from `numpy.linalg`: numpy is its only runtime
dependency. Every rank decision in the library goes through the one
cutoff rule defined here, `rank_cutoff`: a singular value of an m x n
matrix counts toward the rank iff it exceeds max(m, n) * eps times a
reference scale. The reference scale is the matrix's own largest singular
value by default, but callers working with derived quantities (matrix
powers, blocks extracted from a decomposition) can anchor the cutoff to
the parent matrix's scale via the `scale` argument; noise floors are set
by the data a matrix was computed from, not by the matrix itself.

Input is validated once, at the boundary. Every public function that
takes a matrix passes each input through `as_matrix` (2-D, complex128,
finite entries) exactly once; a function that takes a `WeightedPair` or a
decomposition scans nothing, since those were validated when they were
built. Inside the library, and in the conformance runner's own operands,
arrays are products of validated arrays and are used as they are: a
matrix held with its factorization (`projectors._Factored`), the powers
of a matrix in its compressed coordinates (`projectors._Powers`) and their
rank search `projectors._power_search`, `@`, `numpy.linalg.matrix_power`
and `.conj().T`, never a public wrapper that would scan them again.

Each defining system's residuals are written once, below `Tolerances`, on
float or exact matrices alike; the CLI, the conformance runner and the
weighted decomposition's structure checks all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ShapeError

_EPS = float(np.finfo(np.float64).eps)

DEFAULT_RESIDUAL_ATOL = 1e-10


def rank_cutoff(shape: tuple[int, int], ref: float) -> float:
    """Absolute singular-value cutoff for a matrix of the given shape:
    max(m, n) * eps * ref, or eps * ref when one side is 0."""
    return (max(shape) * _EPS if min(shape) > 0 else _EPS) * ref


@dataclass(frozen=True)
class Tolerances:
    """Threshold for equation residuals, applied as
    ``residual <= residual_atol * max(1, scale)``. Rank decisions do not
    read it: they all use `rank_cutoff`."""

    residual_atol: float = DEFAULT_RESIDUAL_ATOL

    def __post_init__(self):
        if self.residual_atol < 0:
            raise DomainError("residual_atol must be nonnegative")

    def close(self, residual: float, scale: float = 1.0) -> bool:
        """True iff a residual is negligible relative to max(1, scale)."""
        return residual <= self.residual_atol * max(1.0, scale)


DEFAULT_TOL = Tolerances()


def resolve_tol(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOL if tol is None else tol


def rel(x, y, den: float | None = None) -> float:
    """‖x - y‖ / max(1, den) in the Frobenius norm, den = ‖y‖ unless given.
    Exact matrices are subtracted before rounding."""
    d = x - y
    if d.dtype == object:
        from .exact import float_of

        d, y = float_of(d), float_of(y)
    return frobenius(d) / max(1.0, frobenius(y) if den is None else den)


def penrose_residuals(b, x) -> dict[str, float]:
    """The four Penrose equations of x as the pseudoinverse of b."""
    bx, xb = b @ x, x @ b
    return {"penrose1": rel(b @ xb, b), "penrose2": rel(x @ bx, x),
            "penrose3": rel(bx.conj().T, bx), "penrose4": rel(xb.conj().T, xb)}


def drazin_residuals(a, x, k: int, w=None) -> dict[str, float]:
    """The W-weighted Drazin system of x at order k >= max(Ind(AW), Ind(WA)):
    XWAWX = X, AWX = XWA and XW (AW)^(k+1) = (AW)^k; with w None, the
    square system XAX = X, AX = XA and X A^(k+1) = A^k."""
    aw = a if w is None else a @ w
    waw = a if w is None else w @ aw
    xw = x if w is None else x @ w
    if aw.dtype == object:
        from .exact import exact_power as power
    else:
        power = np.linalg.matrix_power
    return {"outer": rel(x @ waw @ x, x), "commute": rel(aw @ x, xw @ a),
            "chain": rel(xw @ power(aw, k + 1), power(aw, k))}


def core_residuals(a, x) -> dict[str, float]:
    """The core system of x: XAX = X, (AX)* = AX and XA^2 = A."""
    ax = a @ x
    return {"outer": rel(x @ a @ x, x), "hermitian_left": rel(ax.conj().T, ax),
            "chain": rel(x @ a @ a, a)}


def nilpotency(n, k: int, scale: float) -> float:
    """‖N^k‖ / max(1, scale^k): how far N is from nilpotent of index at
    most k, against the k-th power of its parent's largest singular value."""
    return frobenius(np.linalg.matrix_power(n, k)) / max(1.0, scale ** k)


def unitarity(u) -> float:
    """‖U* U - I‖."""
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def as_matrix(a) -> np.ndarray:
    """Validate and return a as a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return m


def exponent(q, name: str, least: int = 0) -> int:
    """q as an int, or DomainError unless it is an integer >= least. A bool
    is rejected although bool subclasses int."""
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or q < least:
        kind = "positive" if least > 0 else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {q!r}")
    return int(q)


def conjugate_transpose(a) -> np.ndarray:
    return as_matrix(a).conj().T


def frobenius(a) -> float:
    """Frobenius norm of any array. For complex128 this is
    `numpy.linalg.norm`'s own arithmetic without its dispatch: the entries
    in memory order, re·re + im·im, then the square root, so the value is
    the same to the last bit."""
    x = np.asarray(a)
    if x.dtype != np.complex128:
        return float(np.linalg.norm(x))
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def singular_values(a) -> np.ndarray:
    """Singular values of a, largest first, from one values-only SVD."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc


def sigma_max(a) -> float:
    """Largest singular value; 0 for an empty matrix."""
    s = singular_values(as_matrix(a))
    return float(s[0]) if s.size else 0.0


def rank_from_values(s: np.ndarray, shape: tuple[int, int], scale: float | None = None) -> int:
    """Numerical rank from the singular values s of a matrix of the given
    shape: the count above rank_cutoff(shape, max(s[0], scale)). It counts
    on a list: for the few values of a small matrix that is cheaper than
    a numpy comparison."""
    values = s.tolist()
    if not values:
        return 0
    cut = rank_cutoff(shape, max(values[0], scale or 0.0))
    return len([v for v in values if v > cut])


def rank(a, scale: float | None = None) -> int:
    """Numerical rank: singular values above rank_cutoff(shape, max(sigma_max, scale))."""
    a = as_matrix(a)
    return rank_from_values(singular_values(a), a.shape, scale)

