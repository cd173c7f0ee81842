"""The operand memo (`projectors._operand`): a public routine called on the
matrix the previous call factored reads that matrix's thin SVD and its
searched staircase instead of taking them again, and returns what a call
on an empty memo returns, bit for bit. A hit needs the same shape and
bytes, and the factors are read-only: every singular value, and U and V*
only as wide as rank(A). Building a pair empties the memo. The staircase
is shared by every call on the operand, in any thread, and changes in
place under its lock. A decomposition keeps its canonical forms' factors
at the index, which threads sharing it read and fill as one does."""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import cold
from geninv import projectors
from geninv.classical import bt_inverse, core_ep, core_inverse, drazin, group_inverse, qbt_inverse
from geninv.corpus import random_pairs, random_planted_pair, random_square
from geninv.decomposition import (canonical_qbt, canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.matrix import rank
from geninv.projectors import matrix_index, pinv, proj_corange, proj_range, range_basis
from geninv.weighted import WeightedPair, weighted_drazin, weighted_qbt


def full_size(svds, shape):
    """How many of the recorded SVDs factor a matrix of `shape`."""
    return sum(s == shape for s, _ in svds)


def bits(out):
    """A result as bytes: arrays by shape and bytes, dataclasses by field."""
    if isinstance(out, np.ndarray):
        return (out.shape, out.dtype.str, out.tobytes())
    if dataclasses.is_dataclass(out):
        return tuple(bits(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, tuple):
        return tuple(bits(v) for v in out)
    return repr(out)


def routines(index):
    """Every public routine that reads its operand's thin SVD, by name."""
    calls = {
        "drazin": drazin,
        "bt_inverse": bt_inverse,
        "core_ep": core_ep,
        "matrix_index": matrix_index,
        "core_ep_decompose": core_ep_decompose,
        "pinv": pinv,
        "range_basis": range_basis,
        "proj_range": proj_range,
        "proj_corange": proj_corange,
    }
    calls.update({f"qbt_inverse_{q}": lambda a, q=q: qbt_inverse(a, q)
                  for q in range(index + 3)})
    if index <= 1:
        calls.update(group_inverse=group_inverse, core_inverse=core_inverse)
    return calls


def member59_wa():
    # seed 3, member 59: WA of cond 3e17 and index 3
    m = random_pairs(3, 100)[59]
    return m.w @ m.a


def operands():
    # the `squares` fixture's matrices, and member 59's WA
    rng = np.random.default_rng(7)
    out = [(f"square k={k}", random_square(rng, 10, index=k), k) for k in (0, 1, 2, 3)]
    return out + [("seed 3 member 59 WA", member59_wa(), 3)]


OPERANDS = operands()


@pytest.mark.parametrize("label, a, k", OPERANDS, ids=[o[0] for o in OPERANDS])
def test_a_warm_call_equals_a_cold_call(svds, label, a, k):
    assert matrix_index(a).index == k
    for name, call in routines(k).items():
        cold()
        expected = bits(call(a))
        # warm: the memo holds A from another routine's call
        cold()
        pinv(a)
        svds.clear()
        assert bits(call(a)) == expected, name
        assert full_size(svds, a.shape) == 0, name


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_a_family_called_in_turn_equals_its_cold_calls(squares, order):
    # each call reads the staircase the calls before it searched, past its own
    # q or short of it, and with other powers kept
    for k, a in squares.items():
        calls = routines(k)
        expected = {}
        for name, call in calls.items():
            cold()
            expected[name] = bits(call(a))
        names = list(calls) if order == "forward" else list(reversed(calls))
        cold()
        for name in names:
            assert bits(calls[name](a)) == expected[name], (k, name)


def test_a_long_chain_keeps_at_most_three_powers():
    # a 64 x 64 Jordan block has index 64: its staircase decides every
    # rank, yet holds the factors of steps 64 and 65 and of the last step a
    # q-BT inverse read, step q + 1
    n = 64
    a = np.diag(np.ones(n - 1), 1).astype(np.complex128)
    assert matrix_index(a).index == n
    stairs = projectors._memo[2]
    assert len(stairs.ranks) == n + 2 and sorted(stairs._held) == [n, n + 1]
    for q in (*range(n + 2), 40, 3):
        qbt_inverse(a, q)
        stairs = projectors._memo[2]
        assert len(stairs._held) <= 3, q
        assert stairs.ranks == list(range(n, -1, -1)) + [0]
    assert sorted(stairs._held) == [4, n, n + 1]


def test_the_memo_frees_the_old_chain_when_a_new_operand_replaces_it(squares):
    # the staircase holds the shape and the factors, never the operand, so
    # no reference cycle keeps an old staircase until a collection
    gc.disable()
    try:
        qbt_inverse(squares[3], 2)
        stairs = projectors._memo[2]
        held = weakref.ref(stairs._held[3])
        stairs = weakref.ref(stairs)
        alive = stairs() is not None and held() is not None
        qbt_inverse(squares[2], 1)
        freed = stairs() is None and held() is None
    finally:
        gc.enable()
    assert alive and freed


def test_a_pair_build_empties_the_memo_and_frees_the_old_staircase(squares):
    # no pair routine reads the memo, so building a pair drops the last
    # square's entry; nothing else holds its staircase or its factors
    planted = random_planted_pair(np.random.default_rng(2), 2, max_dim=8)
    gc.disable()
    try:
        qbt_inverse(squares[3], 2)
        stairs = projectors._memo[2]
        held, u = weakref.ref(stairs._held[3]), weakref.ref(stairs.usv[0])
        stairs = weakref.ref(stairs)
        alive = all(ref() is not None for ref in (stairs, held, u))
        WeightedPair.from_matrices(planted.a, planted.w)
        freed = all(ref() is None for ref in (stairs, held, u))
    finally:
        gc.enable()
    assert alive and freed and projectors._memo is None


def test_a_rank_r_operand_keeps_its_first_r_singular_vectors(squares):
    # every singular value, and U and V* exactly rank(A) wide: read-only
    # arrays of their own, so the SVD's other vectors are freed
    a = squares[2]
    n, r = a.shape[0], matrix_index(a).rank_sequence[1]
    assert r < n
    u, s, vh = projectors._memo[2].usv
    assert u.shape == (n, r) and vh.shape == (r, n) and s.shape == (n,)
    for factor in (u, s, vh):
        assert factor.base is None and not factor.flags.writeable
    full_u, full_s, full_vh = np.linalg.svd(a, full_matrices=False)
    assert bits(u) == bits(full_u[:, :r].copy()) and bits(vh) == bits(full_vh[:r].copy())
    assert bits(s) == bits(full_s)


def test_a_nonsingular_operand_keeps_its_factors_as_they_are(squares, rng):
    # a nonsingular square, or a rectangle of full rank, keeps the thin
    # SVD's arrays themselves, read-only
    for a in (squares[0], rng.standard_normal((7, 4)) + 0j):
        pinv(a)
        usv = projectors._memo[2].usv
        assert bits(usv) == bits(np.linalg.svd(a, full_matrices=False))
        assert all(f.base is None and not f.flags.writeable for f in usv)


def test_an_in_place_edit_gives_the_edited_matrix_cold_result(squares):
    a = squares[2].copy()
    before = bits(qbt_inverse(a, 2))
    a[0, 1] += 1.0
    warm = bits(qbt_inverse(a, 2))
    cold()
    assert warm == bits(qbt_inverse(a, 2))
    assert warm != before


@pytest.mark.parametrize("change", ["signed zero", "one ulp"])
def test_a_bitwise_change_takes_a_new_svd(svds, squares, change):
    a = squares[1].copy()
    a[0, 0] = 0.0
    b = a.copy()
    if change == "signed zero":
        b[0, 0] = complex(-0.0, 0.0)
        assert np.array_equal(a, b)
    else:
        b[0, 1] = complex(np.nextafter(a[0, 1].real, np.inf), a[0, 1].imag)
    qbt_inverse(a, 1)
    svds.clear()
    warm = bits(qbt_inverse(b, 1))
    assert full_size(svds, b.shape) == 1
    cold()
    assert warm == bits(qbt_inverse(b, 1))


def test_the_same_bytes_in_another_shape_take_a_new_svd(svds, rng):
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    b = a.reshape(6, 4)
    pinv(a)
    svds.clear()
    warm = bits(pinv(b))
    assert full_size(svds, b.shape) == 1
    cold()
    assert warm == bits(pinv(b))


def test_a_real_input_shares_the_entry_of_its_complex_copy(svds, rng):
    a = rng.standard_normal((7, 5))
    first = bits(pinv(a))
    svds.clear()
    assert bits(pinv(a.astype(np.complex128))) == first
    assert svds == []


def test_rank_takes_its_own_values_only_svd(svds, squares):
    a = squares[2]
    qbt_inverse(a, 1)
    svds.clear()
    rank(a)
    assert svds == [(a.shape, {"compute_uv": False})]


def test_factors_are_read_only_and_range_basis_owns_its_result(squares):
    a = squares[1]
    basis = range_basis(a)
    u, s, vh = projectors._memo[2].usv
    assert not (u.flags.writeable or s.flags.writeable or vh.flags.writeable)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    assert basis.flags.writeable and basis.flags.owndata
    expected = basis.copy()
    basis[:] = 0.0
    assert bits(range_basis(a)) == bits(expected)


def in_threads(work, threads=4):
    """Run work(out, t) in threads t = 0 .. threads - 1, more than a small
    machine has cores, switching as often as the interpreter allows, and
    return each thread's list `out`."""
    results = [[] for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(results[t], t)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    return results


def test_threads_alternating_two_operands_match_the_serial_results(squares):
    # each thread alternates two operands
    operands = [squares[2], squares[3]]
    serial = []
    for a in operands:
        cold()
        serial.append(bits(qbt_inverse(a, 1)))
    calls = 50

    def work(out, start):
        for i in range(calls):
            j = (start + i) % 2
            out.append((j, bits(qbt_inverse(operands[j], 1))))

    for out in in_threads(work):
        assert len(out) == calls
        assert all(got == serial[j] for j, got in out)


def test_threads_sharing_the_chains_match_the_cold_results(squares):
    # each thread runs the families of two operands from its own offset, so
    # its calls read staircases that other threads published, extend them and
    # publish again, while other calls replace the entry or empty the memo
    cases = [(k, name, call) for k in (2, 3) for name, call in routines(k).items()]
    expected = {}
    for k, name, call in cases:
        cold()
        expected[k, name] = bits(call(squares[k]))
    cold()

    def work(out, start):
        for i in range(2 * len(cases)):
            k, name, call = cases[(start * 7 + i) % len(cases)]
            if i % 3 == start % 3:
                cold()
            out.append(((k, name), bits(call(squares[k]))))

    for out in in_threads(work):
        assert len(out) == 2 * len(cases)
        assert all(got == expected[key] for key, got in out)


def test_threads_building_pairs_beside_square_calls_match_the_serial_results(squares):
    # half the threads build pairs, each build emptying the operand memo,
    # while the others run the families of two squares: a square call finds
    # the memo emptied before its miss, after it, or between two calls on
    # its operand, and still returns what a cold call returns
    planted = random_planted_pair(np.random.default_rng(3), 3, max_dim=8)

    def pair_call(member):
        return lambda: member(WeightedPair.from_matrices(planted.a, planted.w))

    pair_cases = [(f"weighted_qbt_{q}", pair_call(lambda p, q=q: weighted_qbt(p, q)))
                  for q in range(5)] + [("weighted_drazin", pair_call(weighted_drazin))]
    square_cases = [((k, name), lambda k=k, call=call: call(squares[k]))
                    for k in (2, 3) for name, call in routines(k).items()]
    expected = {}
    for key, call in pair_cases + square_cases:
        cold()
        expected[key] = bits(call())
    cold()

    def work(out, start):
        cases = pair_cases if start % 2 else square_cases
        for i in range(2 * len(cases)):
            key, call = cases[(start * 5 + i) % len(cases)]
            out.append((key, bits(call())))

    for out in in_threads(work):
        assert all(got == expected[key] for key, got in out)
        assert len(out) in (2 * len(pair_cases), 2 * len(square_cases))


def test_threads_sharing_a_pair_match_the_serial_results():
    # the threads share the pair's staircases of AW and WA: the q-BT
    # inverses read and hold steps, the Drazin inverse forms the core and
    # the decomposition reads step k; a pair built by `dataclasses.replace`
    # also searches its staircases in whichever thread comes first
    planted = random_planted_pair(np.random.default_rng(3), 3, max_dim=8)
    pair = WeightedPair.from_matrices(planted.a, planted.w)
    calls = {f"weighted_qbt_{q}": lambda p, q=q: weighted_qbt(p, q) for q in range(pair.k + 2)}
    calls.update(weighted_drazin=weighted_drazin,
                 weighted_core_ep_decompose=weighted_core_ep_decompose)
    serial = {name: bits(call(dataclasses.replace(pair))) for name, call in calls.items()}
    shared = [pair, dataclasses.replace(pair)]
    cases = [(i, name) for i in range(len(shared)) for name in calls]

    def work(out, start):
        for i in range(2 * len(cases)):
            j, name = cases[(start * 5 + i) % len(cases)]
            out.append((name, bits(calls[name](shared[j]))))

    for out in in_threads(work):
        assert len(out) == 2 * len(cases)
        assert all(got == serial[name] for name, got in out)


def test_threads_sharing_a_decomposition_match_the_serial_results():
    # the threads share one weighted and one square decomposition, whose
    # memos start empty: each form's factors at the index are built by
    # whichever thread comes first and read by the others
    planted = random_planted_pair(np.random.default_rng(3), 3, max_dim=8)
    pair = WeightedPair.from_matrices(planted.a, planted.w)
    shared = (weighted_core_ep_decompose(pair), core_ep_decompose(pair.a @ pair.w))
    calls = {}
    for q in range(pair.k + 2):
        calls[f"canonical_weighted_qbt_{q}"] = lambda w, s, q=q: canonical_weighted_qbt(w, q)
        calls[f"canonical_qbt_products_{q}"] = lambda w, s, q=q: canonical_qbt_products(w, q)
        calls[f"canonical_qbt_{q}"] = lambda w, s, q=q: canonical_qbt(s, q)
    serial = {name: bits(call(*map(dataclasses.replace, shared))) for name, call in calls.items()}
    names = list(calls)

    def work(out, start):
        for i in range(2 * len(names)):
            name = names[(start * 5 + i) % len(names)]
            out.append((name, bits(calls[name](*shared))))

    for out in in_threads(work, threads=8):
        assert len(out) == 2 * len(names)
        assert all(got == serial[name] for name, got in out)
