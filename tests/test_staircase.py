"""Inputs on which the staircase reads the right index where a rank
decided on a formed power against sigma_max^j does not, each checked
against its planted structure or the exact oracle: the benchmark's four
adversarial squares, a scaled integer square, and a scaled pair whose
member rank a power anchor misread; and a scaled idempotent whose step
value, near the cutoff, is kept. The idempotent's Drazin, group and core
inverses and the scaled pair's weighted Drazin inverse are checked too,
which a Drazin core read off a formed power against sigma_max^(2k+1)
returned as 0."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from geninv import corpus
from geninv.classical import core_ep, core_inverse, drazin, group_inverse, qbt_inverse
from geninv.decomposition import core_ep_decompose
from geninv.exact import exact_index, exact_qbt, float_of, rmatrix_from_complex
from geninv.projectors import matrix_index
from geninv.weighted import (WeightedPair, weighted_drazin, weighted_qbt,
                             weighted_qbt_product_forms, weighted_qbt_via_square)

from conftest import rel

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.inputs import _int_links, _int_triangular, planted_square  # noqa: E402

_EPS = float(np.finfo(np.float64).eps)


@pytest.mark.parametrize("i", range(4))
def test_adversarial_members_read_index_3(i):
    # the float-family workload's adversarial squares: a 16 x 16 core and a
    # Jordan chain of two links of 1e-7, which a formed A^2 puts at 1e-14
    a = planted_square(np.random.default_rng([0xADD, i]), 32, 16, 3, chain=1e-7)
    assert matrix_index(a).rank_sequence == (32, 18, 17, 16, 16)
    d = core_ep_decompose(a)
    assert (d.index, d.rank) == (3, 16)


def scaled_integer_square(rng: np.random.Generator, c: int, n: int = 24,
                          t: int = 12) -> np.ndarray:
    """S [[c T, C], [0, N]] S^-1 with the integer pieces of
    `perfbench.inputs.integer_square`: T triangular with diagonal in
    {1, 2}, N a chain of two links in {±1, ±2}, S unimodular; index 3."""
    r = n - t
    nil = np.zeros((r, r), dtype=np.int64)
    nil[[0, 1], [1, 2]] = _int_links(rng, 2)
    mid = np.block([[c * _int_triangular(rng, t), rng.integers(-1, 2, (t, r))],
                    [np.zeros((r, t), dtype=np.int64), nil]])
    s, s_inv = corpus.random_integer_unimodular(rng, n)
    return (s @ mid @ s_inv).astype(np.complex128)


@pytest.mark.parametrize("c", [10**7, 10**9])
def test_scaled_integer_square_against_the_exact_oracle(c):
    # the core's scale c puts the links' step far under c^j: the power
    # rule reads index 2 here. The members' errors grow like c eps
    for seed in range(3):
        b = scaled_integer_square(np.random.default_rng([seed, c]), c)
        exact_b = rmatrix_from_complex(b)
        assert matrix_index(b).index == exact_index(exact_b) == 3, seed
        for q in (1, 2, 3):
            x = float_of(exact_qbt(exact_b, q))
            assert rel(qbt_inverse(b, q), x) <= c * 1e-15, (seed, q)


@pytest.mark.parametrize("c", [1e8, 1e12, 1e14, 1e15])
def test_scaled_idempotent_keeps_its_step_value(c):
    # A = [[1, c], [0, 0]] is idempotent: from c = 1e14 on, M_1 = [1] lies
    # over the cutoff 2 eps c but under 100 times it, and a block that lies
    # there as a whole is kept, not widened to rank 0. A is its own Drazin
    # and group inverse, and its core inverse is the projector A A^+
    a = np.array([[1, c], [0, 0]])
    assert matrix_index(a).rank_sequence == (2, 1, 1)
    projector = np.array([[1, 0], [0, 0]])
    for x in (qbt_inverse(a, 1), core_ep(a), core_inverse(a)):
        assert np.abs(x - projector).max() <= 1e-12
    for x in (drazin(a), group_inverse(a)):
        assert rel(x, a) <= 1e-15


@pytest.mark.parametrize("c", [1e4, 1e8, 1e12, 1e14])
def test_scaled_pair_members_are_exact(c):
    # A = [[c, 1], [0, 0]], W = [[0, 0], [1, c]]: AW and WA are idempotent,
    # and W (AW)^2 has the value 1 beside sigma_max(W) = c, which an anchor
    # sigma_max(W) (sigma_max(A) sigma_max(W))^2 put under the cutoff; the
    # exact W-weighted BT inverse is [[0, 1], [0, 0]]
    p = WeightedPair.from_matrices([[c, 1], [0, 0]], [[0, 0], [1, c]])
    exact = np.array([[0, 1], [0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        routes = [weighted_qbt(p, 1), *weighted_qbt_product_forms(p, 1),
                  weighted_qbt_via_square(p, 1)]
        # the W-weighted Drazin inverse A ((WA)^d)^2 = A WA is A itself
        wdrazin = weighted_drazin(p)
    for x in routes:
        assert np.abs(x - exact).max() <= 1e-12
    assert rel(wdrazin, p.a) <= 1e-15
