"""How many SVDs one call takes: each routine factors a matrix once and
reads sigma_max, ranks, range bases and pseudoinverses off that
factorization."""

import numpy as np
import pytest

from geninv.classical import core_ep, core_inverse, drazin, outer_inverse_check, qbt_inverse
from geninv.corpus import random_planted_pair, random_square
from geninv.decomposition import (canonical_qbt, canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.matrix import conjugate_transpose
from geninv.projectors import matrix_index, nullspace_equal, pinv, range_contained, range_equal
from geninv.verify import run_example_checks, run_random_corpus
from geninv.weighted import WeightedPair, weighted_drazin, weighted_qbt


@pytest.fixture
def svds(monkeypatch):
    """Shapes and keyword arguments of every numpy.linalg.svd call."""
    calls = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def squares():
    rng = np.random.default_rng(7)
    return {k: random_square(rng, 10, index=k) for k in (0, 1, 2, 3)}


def test_pinv_takes_one_thin_svd(svds, rng):
    pinv(rng.standard_normal((9, 6)))
    assert [kwargs.get("full_matrices") for _, kwargs in svds] == [False]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_matrix_index_takes_index_plus_one(svds, squares, k):
    report = matrix_index(squares[k])
    assert report.index == k
    assert len(svds) == k + 1
    assert report.sigma_max == pytest.approx(np.linalg.norm(squares[k], 2))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_qbt_zero_is_one_pinv(svds, squares, k):
    qbt_inverse(squares[k], 0)
    assert len(svds) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_qbt_takes_min_q_index_plus_three(svds, squares, k):
    # up to the index the search takes the thin SVD of A^q, which gives U;
    # past it the ranks stop at j = k + 1 and A^k is factored again. At
    # k = 0 the SVD of A serves A^+ when it was taken thin, at q = 1
    expected = {1: 1, 2: 2} if k == 0 else {q: min(q, k) + 2 if q <= k else k + 3
                                            for q in range(1, k + 3)}
    for q, count in expected.items():
        svds.clear()
        qbt_inverse(squares[k], q)
        assert len(svds) == count, q


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_core_ep_takes_at_most_index_plus_three(svds, squares, k):
    core_ep(squares[k])
    assert len(svds) == (k + 3 if k else 2)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_drazin_takes_index_plus_two(svds, squares, k):
    drazin(squares[k])
    assert len(svds) == k + 2


@pytest.mark.parametrize("k", [0, 1])
def test_core_inverse_factors_a_once(svds, squares, k):
    core_inverse(squares[k])
    # k = 0: one thin SVD of A gives rank(A), A^# = A^+ and A^+; k = 1 adds
    # rank(A^2) and (A^3)^+
    assert len(svds) == (3 if k else 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_qbt_factors_only_blocks_of_nonzero_rank(svds, squares, k):
    d = core_ep_decompose(squares[k])
    for q in range(k + 2):
        svds.clear()
        canonical_qbt(d, q)
        # P_{N^q} for 0 < q (P = I at q = 0, taken as is) and (N P)^+, each
        # only while its pinned rank, rank(N^q) or rank(N^{q+1}), is nonzero;
        # P_{X3} = X3 (N P) takes none
        assert len(svds) == (0 < q < k) + (q + 1 < k), q


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_weighted_qbt_shares_the_power_svd(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    d = weighted_core_ep_decompose(p)
    for q in range(k + 2):
        svds.clear()
        canonical_weighted_qbt(d, q)
        # q = 0: (W3 A3 W3)^+ alone. q >= 1: the rank probe W3 (A3 W3)^{q+1};
        # one SVD of (A3 W3)^q for both U and P_{(A3W3)^q} while it is
        # nonzero; (W3 A3 W3 U)^+ while the probe's rank is. P_{X3} =
        # X3 W3 A3 W3 P takes none
        assert len(svds) == (1 if q == 0 else 1 + (q < p.ind_aw) + (q + 1 < p.ind_aw)), q


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_drazin_reads_the_pair_index(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    svds.clear()
    weighted_drazin(p)
    assert len(svds) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_qbt_factors_no_full_size_matrix(svds, squares, k):
    d = core_ep_decompose(squares[k])
    svds.clear()
    for q in range(k + 2):
        canonical_qbt(d, q)
    assert all(10 not in shape for shape, _ in svds)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_weighted_qbt_factors_no_full_size_matrix(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    d = weighted_core_ep_decompose(p)
    svds.clear()
    for q in range(k + 2):
        canonical_weighted_qbt(d, q)
    assert d.t_dim >= 1
    assert all(max(shape) <= max(p.shape) - d.t_dim for shape, _ in svds)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_qbt_products_factor_no_full_size_matrix(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    d = weighted_core_ep_decompose(p)
    m, n = p.shape
    svds.clear()
    for q in range(k + 2):
        canonical_qbt_products(d, q)
    assert d.t_dim >= 1
    assert not [shape for shape, _ in svds if shape in ((m, m), (n, n))]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_pair_takes_both_indices_plus_four(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    assert len(svds) == p.ind_aw + p.ind_wa + 4


def test_weighted_qbt_reads_the_pair_scales(svds):
    planted = random_planted_pair(np.random.default_rng(5), 2, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    svds.clear()
    weighted_qbt(p, 0)
    assert len(svds) == 1
    svds.clear()
    weighted_qbt(p, 1)
    assert len(svds) == 3


def test_range_contained_takes_two(svds, rng):
    x = rng.standard_normal((8, 3))
    assert range_contained(x, np.hstack([x, rng.standard_normal((8, 2))]))
    assert len(svds) == 2


def test_range_equal_takes_three_or_two_on_failure(svds, rng):
    x = rng.standard_normal((8, 3))
    y = x @ rng.standard_normal((3, 4))
    assert range_equal(x, y)
    assert len(svds) == 3
    svds.clear()
    assert not range_equal(x, y[:, :2])
    assert len(svds) == 2


def test_nullspace_equal_takes_three(svds, rng):
    x = rng.standard_normal((3, 8))
    assert nullspace_equal(x, rng.standard_normal((4, 3)) @ x)
    assert len(svds) == 3


def test_passing_outer_inverse_check_takes_five(svds, squares):
    a = squares[1]
    ah = conjugate_transpose(a)
    x = pinv(a)
    svds.clear()
    assert outer_inverse_check(a, x, ah, ah)
    assert len(svds) == 5


def test_example_checks_share_their_operands(svds):
    run_example_checks()
    assert len(svds) == 81


def test_corpus_checks_build_each_operand_once_per_member_and_exponent(svds):
    # the core-EP inverses of AW and WA are entries of their q-BT grids
    run_random_corpus(seed=11, count=10, max_dim=7)
    assert len(svds) == 2625
