"""Input is validated once, at the boundary: every public function that
takes a matrix rejects a non-finite or non-2-D input and scans each input
exactly once; a function that takes a pair or a decomposition scans none."""

import sys

import numpy as np
import pytest

from geninv import matrix
from geninv.classical import (bt_inverse, core_ep, core_inverse, drazin, group_inverse,
                              outer_inverse_check, qbt_inverse)
from geninv.corpus import random_planted_pair
from geninv.decomposition import (block_pinv, canonical_qbt, canonical_qbt_products,
                                  canonical_weighted_qbt, core_ep_decompose,
                                  weighted_core_ep_decompose)
from geninv.errors import DomainError, ShapeError
from geninv.matrix import as_matrix, conjugate_transpose, rank, sigma_max
from geninv.projectors import (matrix_index, nullspace_contained, nullspace_equal, pinv, power,
                               proj_corange, proj_range, range_basis, range_contained,
                               range_equal)
from geninv.verify import run_random_corpus
from geninv.weighted import (WeightedPair, cline_shift_check, dual_representation_gap,
                             weighted_bt, weighted_core_ep, weighted_drazin, weighted_qbt,
                             weighted_qbt_product_forms, weighted_qbt_via_square)

# index 1: rank(A) = rank(A^2) = 2
SQUARE = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]], dtype=np.complex128)
TALL = np.array([[1, 0], [0, 2], [1, 1]], dtype=np.complex128)
WIDE = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.complex128)
NIL = np.array([[0, 1], [0, 0]], dtype=np.complex128)
EYE = np.eye(3, dtype=np.complex128)

# every public float routine that takes matrices: (a call taking the
# matrix inputs in order, those inputs)
RAW_CALLS = {
    "as_matrix": (as_matrix, [SQUARE]),
    "conjugate_transpose": (conjugate_transpose, [SQUARE]),
    "rank": (rank, [SQUARE]),
    "sigma_max": (sigma_max, [SQUARE]),
    "pinv": (pinv, [TALL]),
    "range_basis": (range_basis, [TALL]),
    "proj_range": (proj_range, [TALL]),
    "proj_corange": (proj_corange, [TALL]),
    "power": (lambda b: power(b, 2), [SQUARE]),
    "matrix_index": (matrix_index, [SQUARE]),
    "range_contained": (range_contained, [TALL[:, :1], TALL]),
    "nullspace_contained": (nullspace_contained, [WIDE, WIDE[:1]]),
    "range_equal": (range_equal, [TALL, TALL]),
    "nullspace_equal": (nullspace_equal, [WIDE, WIDE]),
    "drazin": (drazin, [SQUARE]),
    "group_inverse": (group_inverse, [SQUARE]),
    "core_inverse": (core_inverse, [SQUARE]),
    "qbt_inverse": (lambda a: qbt_inverse(a, 2), [SQUARE]),
    "bt_inverse": (bt_inverse, [SQUARE]),
    "core_ep": (core_ep, [SQUARE]),
    "outer_inverse_check": (outer_inverse_check, [SQUARE, pinv(SQUARE), SQUARE.T, SQUARE.T]),
    "WeightedPair.from_matrices": (WeightedPair.from_matrices, [TALL, WIDE]),
    "core_ep_decompose": (core_ep_decompose, [SQUARE]),
    "block_pinv": (block_pinv, [EYE, EYE, 2 * EYE[:1, :1], EYE[:1, 1:], NIL]),
}

BAD = {
    "nan": lambda m: np.where(np.arange(m.size).reshape(m.shape) == 0, np.nan, m),
    "inf": lambda m: np.where(np.arange(m.size).reshape(m.shape) == 0, -np.inf, m),
    "1-d": lambda m: m.ravel(),
    "3-d": lambda m: m[None],
}

CASES = [(name, i, bad) for name, (_, inputs) in RAW_CALLS.items()
         for i in range(len(inputs)) for bad in BAD]


@pytest.fixture
def scans(monkeypatch):
    """How many finiteness scans `as_matrix` makes."""
    count = [0]
    isfinite = np.isfinite
    own = matrix.as_matrix.__code__

    def counted(x, *args, **kwargs):
        count[0] += sys._getframe(1).f_code is own
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    return count


@pytest.mark.parametrize("name, position, bad", CASES,
                         ids=[f"{n}-{i}-{b}" for n, i, b in CASES])
def test_every_public_routine_rejects_bad_input(name, position, bad):
    routine, inputs = RAW_CALLS[name]
    args = list(inputs)
    args[position] = BAD[bad](args[position])
    with pytest.raises((DomainError, ShapeError)):
        routine(*args)


@pytest.mark.parametrize("name", RAW_CALLS)
def test_a_raw_call_scans_each_input_once(name, scans):
    routine, inputs = RAW_CALLS[name]
    routine(*[m.copy() for m in inputs])
    assert scans[0] == len(inputs)


@pytest.fixture(scope="module")
def pair():
    planted = random_planted_pair(np.random.default_rng(2), 2, max_dim=6)
    return WeightedPair.from_matrices(planted.a, planted.w)


def test_pair_and_decomposition_calls_scan_nothing(pair, scans):
    d = weighted_core_ep_decompose(pair)
    for q in range(pair.k + 2):
        weighted_qbt(pair, q)
        weighted_qbt_product_forms(pair, q)
        weighted_qbt_via_square(pair, q)
        dual_representation_gap(pair, q)
        canonical_weighted_qbt(d, q)
        canonical_qbt_products(d, q)
    weighted_bt(pair)
    weighted_core_ep(pair)
    weighted_drazin(pair)
    cline_shift_check(pair, 2)
    d.compose_a()
    d.compose_w()
    assert scans[0] == 0
    square = core_ep_decompose(pair.a @ pair.w)
    scans[0] = 0
    for q in range(square.index + 2):
        canonical_qbt(square, q)
    square.compose()
    assert scans[0] == 0


def test_corpus_run_scans_only_at_public_calls(scans):
    # per member: A and W once each when the pair is built, then the
    # runner's public calls on raw arrays: qbt_inverse of AW and WA for
    # q = 0 .. k + 1, drazin of both, core_ep_decompose(AW), block_pinv's
    # five blocks and pinv(A)
    run_random_corpus(seed=11, count=10, max_dim=7)
    assert scans[0] == 188
