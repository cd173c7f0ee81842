"""How many SVDs one call takes: each routine factors a matrix once and
reads sigma_max, ranks, range bases and pseudoinverses off that
factorization. The pins are cold counts, taken with the operand memo
empty (`conftest.cold_operand_memo`, and `cold()` between calls on one
matrix); a warm call, on the operand the previous call factored, reads
its thin SVD and its searched staircase from the memo."""

import numpy as np
import pytest

from conftest import cold
from geninv.classical import (core_ep, core_inverse, drazin, group_inverse, outer_inverse_check,
                              qbt_inverse)
from geninv.corpus import random_planted_pair
from geninv.decomposition import (canonical_qbt, canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.matrix import conjugate_transpose
from geninv.projectors import matrix_index, nullspace_equal, pinv, range_contained, range_equal
from geninv.verify import run_example_checks, run_random_corpus
from geninv.weighted import WeightedPair, _member_read, weighted_drazin, weighted_qbt


@pytest.fixture
def qrs(monkeypatch):
    """Shapes of every numpy.linalg.qr call."""
    calls = []
    real_qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_pinv_takes_one_thin_svd(svds, rng):
    pinv(rng.standard_normal((9, 6)))
    assert [kwargs.get("full_matrices") for _, kwargs in svds] == [False]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_matrix_index_takes_index_plus_one(svds, squares, k):
    # one thin SVD of A settles a nonsingular A; a singular one adds one
    # SVD of M_(j-1) per staircase step j = 2 .. k + 1
    report = matrix_index(squares[k])
    assert report.index == k
    assert svds[0] == (squares[k].shape, {"full_matrices": False})
    assert len(svds) == k + 1
    assert report.sigma_max == pytest.approx(np.linalg.norm(squares[k], 2))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_qbt_zero_is_one_pinv(svds, squares, k):
    qbt_inverse(squares[k], 0)
    assert len(svds) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_qbt_takes_min_q_index_plus_three(svds, squares, k):
    # the thin SVD of A and one SVD per staircase step j = 2 .. min(q, k) + 1;
    # the member is read off step min(q, k) + 1 and takes none of its own.
    # At k = 0 the SVD of A serves A^+ for every q
    expected = {q: 1 + min(q, k) for q in range(1, k + 3)}
    for q, count in expected.items():
        cold()
        svds.clear()
        qbt_inverse(squares[k], q)
        assert len(svds) == count, q


@pytest.mark.parametrize("k", [1, 2, 3])
def test_qbt_kernel_takes_one_qr_exactly_from_the_index(svds, qrs, squares, k):
    # a cold q-BT inverse takes one QR, of A V1 (n x rank(A)), for the
    # staircase's first basis, and exactly the SVDs of its steps: A's, then
    # M_(j-1), rank(A^(j-1)) square, for j = 2 .. min(q, k) + 1. The member
    # read takes neither
    a = squares[k]
    ranks = matrix_index(a).rank_sequence
    for q in range(1, k + 3):
        cold()
        svds.clear()
        qrs.clear()
        qbt_inverse(a, q)
        steps = [(ranks[j - 1], ranks[j - 1]) for j in range(2, min(q, k) + 2)]
        assert qrs == [(a.shape[0], ranks[1])], q
        assert [shape for shape, _ in svds] == [a.shape, *steps], q


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_core_ep_takes_at_most_index_plus_three(svds, squares, k):
    # as `qbt_inverse` at q > k: (M U)^+ from a QR, not an SVD, and U from
    # the search's P_k
    core_ep(squares[k])
    assert len(svds) == k + 1


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_drazin_takes_index_plus_two(svds, squares, k):
    # the thin SVD of A and M_1 .. M_k for the ranks: the solve on the
    # staircase takes none; A^+ from the SVD of A at k = 0
    drazin(squares[k])
    assert len(svds) == k + 1


@pytest.mark.parametrize("k", [0, 1])
def test_core_inverse_factors_a_once(svds, squares, k):
    core_inverse(squares[k])
    # k = 0: one thin SVD of A gives rank(A), A^# = A^+ and A^+; k = 1 adds
    # rank(A^2), and the solve for A^# takes none
    assert len(svds) == (2 if k else 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_qbt_factors_only_blocks_of_nonzero_rank(svds, squares, k):
    d = core_ep_decompose(squares[k])
    for q in range(k + 2):
        svds.clear()
        canonical_qbt(d, q)
        # the basis E of R(N^q) for 0 < q (E = I at q = 0, taken as is) and
        # Y^+ = (N E)^+, each only while its pinned rank, rank(N^q) or
        # rank(N^{q+1}), is nonzero; Z = I - Y^+ Y takes none
        assert len(svds) == (0 < q < k) + (q + 1 < k), q


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_weighted_qbt_takes_two_while_the_block_power_is_nonzero(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    d = weighted_core_ep_decompose(p)
    for q in range(k + 2):
        svds.clear()
        canonical_weighted_qbt(d, q)
        # q = 0: (W3 A3 W3)^+ alone. q >= Ind(AW): (A3 W3)^q has rank 0, so
        # E is empty and Y^+ = 0 with no SVD. Otherwise one SVD of
        # (A3 W3)^q for E and one of Y = W3 A3 W3 E for Y^+; Z = I - Y^+ Y
        # takes none
        expected = 1 if q == 0 else 0 if q >= p.ind_aw else 2
        assert len(svds) == expected, q


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_forms_at_the_index_take_one_small_qr_per_decomposition(svds, qrs, squares, k):
    # where the trailing block's power has rank 0 (q >= its index) a form is
    # U_t C^-1 V_t*: C^-1 from one t x t QR of C*, kept on the
    # decomposition. Below the index each q takes the QR of the compact
    # K* = [C*; Z (M E)*], (t + rank_q) x t: n rows at q = 0 only, where E
    # is I. No SVD has n rows
    d = core_ep_decompose(squares[k])
    n, r = squares[k].shape[0], d.rank
    svds.clear()
    qrs.clear()
    for q in range(k + 3):
        canonical_qbt(d, q)
    assert qrs == [(d.power_rank(q), r) for q in range(k)] + [(r, r)]
    assert all(rows < n for rows, _ in qrs[1:])
    assert all(shape[0] < n for shape, _ in svds)
    if k:
        planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
        p = WeightedPair.from_matrices(planted.a, planted.w)
        d = weighted_core_ep_decompose(p)
        m, t = p.shape[0], d.t_dim
        svds.clear()
        qrs.clear()
        for q in range(p.k + 3):
            canonical_weighted_qbt(d, q)
        assert qrs == [(d.power_rank_aw(q), t) for q in range(p.ind_aw)] + [(t, t)]
        assert all(rows < m for rows, _ in qrs[1:])
        assert all(max(shape) < max(p.shape) for shape, _ in svds)
        qrs.clear()
        for q in range(p.k, p.k + 3):
            canonical_qbt_products(d, q)
        assert qrs == [(t, t), (t, t)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_drazin_reads_the_pair_index(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    svds.clear()
    weighted_drazin(p)
    # none: the pair holds the staircase of WA its index search built, and
    # the solve on it takes no SVD
    assert len(svds) == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_qbt_factors_no_full_size_matrix(svds, squares, k):
    d = core_ep_decompose(squares[k])
    svds.clear()
    for q in range(k + 2):
        canonical_qbt(d, q)
    assert all(10 not in shape for shape, _ in svds)


def _ranks_and_sides(svds, full_shapes):
    """How many SVDs factor a matrix of one of `full_shapes`, whether those
    come first, and the longest side of any other."""
    full = [shape in full_shapes for shape, _ in svds]
    count = sum(full)
    others = [max(shape) for shape, _ in svds[count:]]
    return count, all(full[:count]), max(others, default=0)


# each routine's calls on a square of index k, one list entry per call
SQUARE_CALLS = {
    "matrix_index": lambda a, k: [lambda: matrix_index(a)],
    "qbt_inverse": lambda a, k: [lambda q=q: qbt_inverse(a, q) for q in range(1, k + 3)],
    "core_ep": lambda a, k: [lambda: core_ep(a)],
    "drazin": lambda a, k: [lambda: drazin(a)],
    "group_inverse": lambda a, k: [lambda: group_inverse(a)] if k == 1 else [],
    "core_inverse": lambda a, k: [lambda: core_inverse(a)] if k == 1 else [],
    "core_ep_decompose": lambda a, k: [lambda: core_ep_decompose(a)],
}


@pytest.mark.parametrize("name", SQUARE_CALLS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_square_routines_factor_only_a_at_full_size(svds, squares, name, k):
    # after the thin SVD of A itself, every SVD factors an r x r
    # compression, r = rank(A)
    a = squares[k]
    r = matrix_index(a).rank_sequence[1]
    assert r < a.shape[0]
    for call in SQUARE_CALLS[name](a, k):
        cold()
        svds.clear()
        call()
        count, first, longest = _ranks_and_sides(svds, [a.shape])
        assert count == 1
        assert first and longest <= r


@pytest.mark.parametrize("name", SQUARE_CALLS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_repeat_call_takes_no_full_size_svd(svds, squares, name, k):
    # the second call on the same A reads its thin SVD and its searched
    # staircase from the operand memo, and the staircase holds the step the
    # first call read: no SVD at all
    a = squares[k]
    for call in SQUARE_CALLS[name](a, k):
        cold()
        call()
        svds.clear()
        call()
        assert svds == []


def test_a_square_called_again_after_a_pair_build_takes_one_full_size_svd(svds, squares):
    # building a pair empties the operand memo, so the square's second call
    # factors it once more, and takes the steps its first call took: the
    # one cost of the release
    a = squares[2]
    planted = random_planted_pair(np.random.default_rng(2), 2, max_dim=8)
    qbt_inverse(a, 1)
    WeightedPair.from_matrices(planted.a, planted.w)
    svds.clear()
    qbt_inverse(a, 1)
    assert sum(shape == a.shape for shape, _ in svds) == 1
    assert svds[0] == (a.shape, {"full_matrices": False}) and len(svds) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_routines_factor_only_the_operands_at_full_size(svds, k):
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    a, w = planted.a, planted.w
    m, n = a.shape
    svds.clear()
    p = WeightedPair.from_matrices(a, w)
    r = max(p.rank_sequence_aw[1], p.rank_sequence_wa[1])
    assert r < min(m, n)
    # A and W for their scales, AW and WA for their searches, each at most
    # twice; every other SVD factors a compression of a power
    assert all(shape in ((m, n), (n, m), (m, m), (n, n)) or max(shape) <= r
               for shape, _ in svds)
    assert sum(max(shape) > r for shape, _ in svds) <= 6
    # the pair keeps the staircase of AW its index search built: the SVD of
    # AW taken there serves every q, q = 0 included (step 1 is that SVD),
    # and each member factors W U_(q'+1), n x rank((AW)^(q'+1)) with
    # q' = min(q, Ind(AW)), and H = Vz_r* S', r x rank((AW)^(q'+1)) at the
    # member rank r when r is short of rank((AW)^(q'+1)) (a square H is
    # inverted with no SVD), and no other matrix but M_1 when step 2, which
    # the pair no longer holds, is formed again for q = 1
    svds.clear()
    for q in range(p.k + 2):
        weighted_qbt(p, q)
    shapes = [shape for shape, _ in svds]
    seq, ind = p.rank_sequence_aw, p.ind_aw
    members = [[shape for c, r in [(seq[min(q, ind) + 1], _member_read(p, q)[0])]
                for shape in [(n, c)] + ([(r, c)] if r < c else [])]
               for q in range(p.k + 2)]
    formed = [(seq[1], seq[1])] if ind > 2 else []
    assert shapes == members[0] + formed + sum(members[1:], [])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_core_ep_decompose_takes_index_plus_three(svds, squares, k):
    # the index search of `matrix_index`, whose thin SVD of P_k gives the
    # basis of R(A^k) (P_1 is diagonal, and the frame is I at k = 0)
    d = core_ep_decompose(squares[k])
    assert d.index == k
    assert len(svds) == k + 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_qbt_takes_the_qr_of_w_u1_once_per_pair(qrs, k):
    # the members are read off the pair's staircase of AW, whose first
    # basis from_matrices took: no q-BT inverse of q >= 1 takes a QR
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    qrs.clear()
    for q in range(1, p.k + 2):
        weighted_qbt(p, q)
    assert qrs == []


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decompositions_take_no_qr(qrs, squares, k):
    # each frame is U_k from the staircase, completed by one QR of U_k; a
    # cold singular square also takes the QR of A V1 for its staircase's
    # first basis, and the pair's staircases took theirs in from_matrices
    a = squares[k]
    ranks = matrix_index(a).rank_sequence
    n = a.shape[0]
    cold()
    qrs.clear()
    core_ep_decompose(a)
    assert qrs == ([(n, ranks[1]), (n, ranks[k])] if k else [])
    if k:
        planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
        p = WeightedPair.from_matrices(planted.a, planted.w)
        qrs.clear()
        d = weighted_core_ep_decompose(p)
        assert qrs == [(p.shape[0], d.t_dim), (p.shape[1], d.t_dim)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_decomposition_factors_no_full_size_matrix(svds, k):
    # both frames come from the pair's chains of AW and WA; what else is
    # factored is A1 and W1, t x t
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    r = max(p.rank_sequence_aw[1], p.rank_sequence_wa[1])
    assert r < min(p.shape)
    svds.clear()
    weighted_core_ep_decompose(p)
    assert svds and all(max(shape) <= r for shape, _ in svds)


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
    # per product, the search of `matrix_index`: its thin SVD and one SVD
    # per power, index plus one; plus the values of A and W
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    assert len(svds) == (p.ind_aw + 1) + (p.ind_wa + 1) + 2


def test_weighted_qbt_reads_the_pair_scales(svds):
    planted = random_planted_pair(np.random.default_rng(5), 2, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    svds.clear()
    weighted_qbt(p, 0)
    assert len(svds) == 1
    svds.clear()
    weighted_qbt(p, 1)
    # W U_2 alone: the member keeps every column, so H = Vz* S' is square
    # and inverted with no SVD
    assert len(svds) == 1
    assert _member_read(p, 1)[0] == p.rank_sequence_aw[2]


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_core_ep_decompose_takes_two(svds, k):
    # the ranks of A1 and W1: the pair's chains formed P_k thin in their
    # index searches, so its left singular factor gives each frame with no
    # second SVD of P_k
    planted = random_planted_pair(np.random.default_rng(k), k, max_dim=8)
    p = WeightedPair.from_matrices(planted.a, planted.w)
    assert p.k == k
    svds.clear()
    weighted_core_ep_decompose(p)
    assert len(svds) == 2


def test_example_checks_share_their_operands(svds):
    # the 4x3 pair's q = 0 member keeps fewer columns than rank(AW), so
    # its H = Vz_r* S1 takes an SVD
    run_example_checks()
    assert len(svds) == 50


def test_corpus_checks_build_each_operand_once_per_member_and_exponent(svds):
    # the core-EP inverses of AW and WA are entries of their q-BT grids,
    # each pair's weighted routines share one SVD of AW and one of WA, and
    # the square routines on AW, then WA, share each one's searched chain
    run_random_corpus(seed=11, count=10, max_dim=7)
    assert len(svds) == 2037
