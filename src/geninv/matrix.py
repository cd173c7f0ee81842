"""Dense complex matrices, the rank cutoff, the residual tolerance, and
basic factorizations.

All matrices are 2-D numpy arrays of complex128. Every rank decision in the
library goes through the one cutoff rule defined here, `rank_cutoff`: a
singular value of an m x n matrix counts toward the rank iff it exceeds
max(m, n) * eps times a reference scale. The reference scale is the
matrix's own largest singular value by default, but callers working with
derived quantities (matrix powers, blocks extracted from a decomposition)
can anchor the cutoff to the parent matrix's scale via the `scale`
argument; noise floors are set by the data a matrix was computed from, not
by the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class QRPivoted(NamedTuple):
    """Column-pivoted QR: a[:, perm] = q @ r with |diag(r)| nonincreasing."""

    q: np.ndarray
    r: np.ndarray
    perm: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate and return a as a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def conjugate_transpose(a) -> np.ndarray:
    return as_matrix(a).conj().T


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


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
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def rank_from_values(s: np.ndarray, shape: tuple[int, int], scale: float | None = None) -> int:
    """Numerical rank from the singular values s of a matrix of the given
    shape: the count above rank_cutoff(shape, max(s[0], scale))."""
    if s.size == 0:
        return 0
    ref = max(float(s[0]), scale or 0.0)
    return int(np.count_nonzero(s > rank_cutoff(shape, ref)))


def rank(a, scale: float | None = None) -> int:
    """Numerical rank: singular values above rank_cutoff(shape, max(sigma_max, scale))."""
    a = as_matrix(a)
    return rank_from_values(singular_values(a), a.shape, scale)


def qr_column_pivoted(a) -> QRPivoted:
    """QR with column pivoting; q is a full m x m unitary."""
    a = as_matrix(a)
    m, n = a.shape
    if a.size == 0:
        return QRPivoted(np.eye(m, dtype=np.complex128), np.zeros((m, n), dtype=np.complex128),
                         np.arange(n))
    # Imported on first use: scipy.linalg costs more to import than the rest
    # of geninv, and only the decompositions need it.
    import scipy.linalg

    q, r, perm = scipy.linalg.qr(a, pivoting=True)
    return QRPivoted(np.asarray(q, dtype=np.complex128), np.asarray(r, dtype=np.complex128), perm)
