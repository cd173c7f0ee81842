"""The full-column-rank QR branch of the q-BT kernel and the decomposition
frames read off the thin SVD of the chain, each against an independent
route: the SVD branch on the same operand, and the exact projector."""

import numpy as np
import pytest

from geninv import projectors
from geninv.classical import qbt_inverse
from geninv.corpus import random_pairs, random_square
from geninv.decomposition import core_ep_decompose, weighted_core_ep_decompose
from geninv.exact import exact_power, exact_proj_range, float_of, rmatrix_from_complex
from geninv.matrix import frobenius, unitarity
from geninv.projectors import _Factored, _pinned_pinv
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


def _both_branches(monkeypatch, call):
    """call() as it runs, with which branch each kernel pseudoinverse took,
    and call() again with every kernel pseudoinverse taken by the SVD."""
    taken = []

    def spy(x, r):
        taken.append(r >= x.shape[1])
        return _pinned_pinv(x, r)

    monkeypatch.setattr(projectors, "_pinned_pinv", spy)
    got = call()
    monkeypatch.setattr(projectors, "_pinned_pinv",
                        lambda x, r: _Factored(x).pinv(fixed_rank=r))
    ref = call()
    return got, ref, taken


@pytest.mark.parametrize("offset", [0, 1])
def test_qbt_kernel_takes_the_qr_exactly_from_the_index(monkeypatch, member59, offset):
    squares = _square_operands()
    squares["seed 3 member 59 WA"] = member59.w @ member59.a
    for name, b in squares.items():
        k = projectors.matrix_index(b).index
        got, ref, taken = _both_branches(monkeypatch, lambda: qbt_inverse(b, k + offset))
        assert taken == [True], name
        # U1 Ũ has orthonormal columns, so this is the relative distance
        # between the two pseudoinverses of the one operand M Ũ
        assert _relative(got, ref) <= 1e-13, name
        # below the index the SVD stays
        if k > 1:
            _, _, taken = _both_branches(monkeypatch, lambda: qbt_inverse(b, k - 1))
            assert taken == [False], name


def test_weighted_kernel_takes_the_qr_at_full_rank(monkeypatch, member59):
    for planted in [member59, *random_pairs(1, 6)]:
        p = WeightedPair.from_matrices(planted.a, planted.w)
        got, ref, taken = _both_branches(monkeypatch, lambda: weighted_qbt(p, p.k))
        assert taken == [True]
        assert _relative(got, ref) <= 1e-13


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
    # a pinned full rank that an exact zero column contradicts: the
    # triangular solve cannot run, and the SVD keeps the nonzero values
    x = np.array([[2, 0], [0, 0], [1, 0]], dtype=np.complex128)
    assert frobenius(_pinned_pinv(x, 2) - np.linalg.pinv(x)) <= 1e-15
