"""Hand-checkable reference pairs and their frozen expected values.

Two small integer pairs with known index structure drive the example
checks and golden tests: a 4x3 pair with Ind(AW) = 3, Ind(WA) = 2 and a
5x4 pair with Ind(AW) = Ind(WA) = 3. Expected inverses are stored as
exact fractions; float views are derived, never re-derived from the
library under test.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exact import rmatrix

PAIR_4X3_A = ((1, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
PAIR_4X3_W = ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

PAIR_5X4_A = ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1), (0, 0, 0, 0))
PAIR_5X4_W = ((1, 0, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1))


def _fr(rows) -> tuple:
    """Nested tuple of Fractions from ints and (p, q) pairs."""
    out = []
    for row in rows:
        out.append(tuple(Fraction(*x) if isinstance(x, tuple) else Fraction(x) for x in row))
    return tuple(out)


# expected values for the 4x3 pair, indexed by q where relevant
WCEP_4X3 = _fr([(1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)])
WBT_4X3 = _fr([((1, 6), 0, 0), ((1, 6), 0, 0), ((1, 3), 0, 0), (0, 0, 0)])
WQBT2_4X3 = _fr([((1, 2), 0, 0), ((1, 2), 0, 0), (0, 0, 0), (0, 0, 0)])
WQBT3_4X3 = WCEP_4X3
# (WAW)^+, the q = 0 member of the family
WQBT0_4X3 = _fr([((1, 6), 0, 0), ((1, 6), 0, 0), ((1, 3), 0, 0), (0, 1, 0)])
WQBT_4X3 = {0: WQBT0_4X3, 1: WBT_4X3, 2: WQBT2_4X3, 3: WQBT3_4X3}

# square-product expressions [(AW)^{q-BT}]^2 A and A [(WA)^{q-BT}]^2
AW_SQ_PRODUCT_4X3 = {
    1: _fr([(0, 0, 0), (0, 0, 0), ((1, 2), 0, 0), (0, 0, 0)]),
    2: _fr([((1, 4), (1, 4), 0), ((1, 4), (1, 4), 0), (0, 0, 0), (0, 0, 0)]),
    3: _fr([(1, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]),
}
WA_SQ_PRODUCT_4X3 = {
    1: _fr([((3, 25), 0, 0), ((2, 25), 0, 0), (0, 0, 0), (0, 0, 0)]),
    2: _fr([(1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]),
    3: _fr([(1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]),
}

# 5x4 pair, q = 1: X W A for the perturbed candidate vs the true inverse
XWA_5X4 = _fr([
    ((3, 5), (3, 5), (-1, 5), -1),
    (0, 0, 0, 0),
    ((1, 5), (1, 5), (-2, 5), -1),
    (0, 0, 1, 2),
    (0, 0, 0, 0),
])
X0WA_5X4 = _fr([
    ((1, 3), (1, 3), (-2, 3), (-5, 3)),
    ((1, 3), (1, 3), (-7, 6), (-8, 3)),
    ((1, 3), (1, 3), (-1, 6), (-2, 3)),
    (0, 0, 1, 2),
    (0, 0, 0, 0),
])

INDICES_4X3 = (3, 2, 3)
INDICES_5X4 = (3, 3, 3)


def float_matrix(rows) -> np.ndarray:
    """complex128 matrix from nested ints or Fractions."""
    return np.array([[complex(float(x), 0.0) for x in row] for row in rows],
                    dtype=np.complex128)


def exact_matrix(rows) -> np.ndarray:
    return rmatrix(rows)


def pair_4x3_float() -> tuple[np.ndarray, np.ndarray]:
    return float_matrix(PAIR_4X3_A), float_matrix(PAIR_4X3_W)


def pair_4x3_exact() -> tuple[np.ndarray, np.ndarray]:
    return exact_matrix(PAIR_4X3_A), exact_matrix(PAIR_4X3_W)


def pair_5x4_float() -> tuple[np.ndarray, np.ndarray]:
    return float_matrix(PAIR_5X4_A), float_matrix(PAIR_5X4_W)


def pair_5x4_exact() -> tuple[np.ndarray, np.ndarray]:
    return exact_matrix(PAIR_5X4_A), exact_matrix(PAIR_5X4_W)


__all__ = [
    "PAIR_4X3_A", "PAIR_4X3_W", "PAIR_5X4_A", "PAIR_5X4_W",
    "WCEP_4X3", "WBT_4X3", "WQBT2_4X3", "WQBT3_4X3", "WQBT0_4X3", "WQBT_4X3",
    "AW_SQ_PRODUCT_4X3", "WA_SQ_PRODUCT_4X3",
    "XWA_5X4", "X0WA_5X4",
    "INDICES_4X3", "INDICES_5X4",
    "float_matrix", "exact_matrix",
    "pair_4x3_float", "pair_4x3_exact", "pair_5x4_float", "pair_5x4_exact",
]
