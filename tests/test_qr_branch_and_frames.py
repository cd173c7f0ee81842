"""The members read off the staircase's steps and the decomposition frames
it gives, each against independent routes on the same operands: the SVD
pseudoinverse of A P at the rank the staircase decided, P the projector
the checks build from the full-size power, and the exact oracle."""

import numpy as np
import pytest

from geninv import weighted
from geninv.classical import qbt_inverse
from geninv.corpus import random_pairs, random_square
from geninv.decomposition import core_ep_decompose, weighted_core_ep_decompose
from geninv.exact import (exact_power, exact_proj_range, exact_qbt, exact_weighted_qbt, float_of,
                          rmatrix_from_complex)
from geninv.matrix import frobenius, unitarity
from geninv.projectors import _Factored, _power_projector, matrix_index
from geninv.weighted import WeightedPair, weighted_qbt


def _relative(x, y):
    return frobenius(x - y) / frobenius(y)


@pytest.fixture(scope="module")
def member59():
    # seed 3, member 59: integer, WA of cond 3e17 and index 3
    return random_pairs(3, 100)[59]


def _square_operands():
    # seeds whose squares all have a core: rank(A^k) >= 1
    out = {}
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for k in (1, 2, 3):
            out[f"random_square seed={seed} k={k}"] = random_square(rng, 10, index=k)
    return out


@pytest.mark.parametrize("offset", [0, 1])
def test_qbt_kernel_takes_the_qr_exactly_from_the_index(member59, offset):
    # the member (A P_{A^q})^+ read off step q + 1, at q = k + offset and,
    # below the index, at q = k - 1, against the SVD pseudoinverse of A P
    # at rank(A^(q+1)), and for the integer member 59 against exact_qbt
    squares = _square_operands()
    squares["seed 3 member 59 WA"] = member59.w @ member59.a
    for name, b in squares.items():
        report = matrix_index(b)
        k, ranks = report.index, report.rank_sequence
        for q in {k + offset, max(k - 1, 1)}:
            p = _power_projector(b, min(q, k), report.sigma_max)
            got = qbt_inverse(b, q)
            ref = _Factored(b @ p).pinv(ranks[min(q, k) + 1])
            assert _relative(got, ref) <= 1e-13, (name, q)
            if name.startswith("seed 3"):
                exact = float_of(exact_qbt(rmatrix_from_complex(b), q))
                assert _relative(got, exact) <= 1e-13, (name, q)


def test_weighted_kernel_takes_the_qr_at_full_rank(member59):
    # the weighted member at q = k, U_k V' (W U_(k+1) S')^+, against the SVD
    # pseudoinverse of W A W P at the member rank, and the exact oracle on
    # the integer pairs
    for planted in [member59, *random_pairs(1, 6)]:
        p = WeightedPair.from_matrices(planted.a, planted.w)
        r = weighted._member_read(p, p.k)[0]
        proj = _power_projector(p.a @ p.w, p.k, p.sigma_max_a * p.sigma_max_w)
        got = weighted_qbt(p, p.k)
        assert _relative(got, _Factored(p.w @ p.a @ p.w @ proj).pinv(r)) <= 1e-13
        if planted.integer_entries:
            exact = exact_weighted_qbt(rmatrix_from_complex(planted.a),
                                       rmatrix_from_complex(planted.w), p.k)
            assert _relative(got, float_of(exact)) <= 1e-13


def _nilpotent(n):
    return np.diag(np.arange(1, n, dtype=np.complex128), 1)


def _integer_squares():
    """Integer squares with their index: the products of the seed-1
    corpus's integer members, a unimodular (k = 0) and a nilpotent."""
    out = [b for m in random_pairs(1, 12) if m.integer_entries
           for b in (m.a @ m.w, m.w @ m.a)]
    out.append(np.array([[2, 1, 0], [1, 1, 0], [3, -1, 1]], dtype=np.complex128))
    out.append(_nilpotent(5))
    return out


def _exact_projector(b, k):
    return float_of(exact_proj_range(exact_power(rmatrix_from_complex(b), k)))


def _check_frame(u, r, projector):
    assert unitarity(u) <= 1e-13
    basis = u[:, :r]
    assert frobenius(basis @ basis.conj().T - projector) <= 1e-12


def test_square_frames_are_unitary_and_span_the_core_range():
    seen = set()
    for b in _integer_squares():
        d = core_ep_decompose(b)
        seen.add((d.index, d.rank == 0))
        _check_frame(d.u, d.rank, _exact_projector(b, d.index))
    assert {(0, False), (1, False), (2, False), (3, False), (5, True)} <= seen


def test_pair_frames_are_unitary_and_span_the_core_ranges():
    a = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 0], [2, 1, 1]], dtype=np.complex128)
    w = np.array([[1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 0]], dtype=np.complex128)
    pairs = [(a, w)] + [(m.a, m.w) for m in random_pairs(1, 12) if m.integer_entries]
    nonsingular = 0
    for a, w in pairs:
        p = WeightedPair.from_matrices(a, w)
        nonsingular += p.ind_wa == 0
        d = weighted_core_ep_decompose(p)
        _check_frame(d.u, d.t_dim, _exact_projector(a @ w, p.k))
        _check_frame(d.v, d.t_dim, _exact_projector(w @ a, p.k))
    assert nonsingular == 1


def test_exactly_singular_r_falls_back_to_the_svd():
    # AW is the 4 x 4 shift and W kills e1: W U_2 has rank 1 for its two
    # columns, so the member at q = 1 keeps one value of W U_2 S' and takes
    # the SVD of Vz_1* S'; it is the exact member
    a = np.diag(np.ones(3), 1).astype(np.complex128)
    w = np.diag([0, 1, 1, 1]).astype(np.complex128)
    p = WeightedPair.from_matrices(a, w)
    r, (_, s, _), _ = weighted._member_read(p, 1)
    assert (r, s.size) == (1, 2)
    exact = float_of(exact_weighted_qbt(rmatrix_from_complex(a), rmatrix_from_complex(w), 1))
    assert frobenius(weighted_qbt(p, 1) - exact) <= 1e-15
