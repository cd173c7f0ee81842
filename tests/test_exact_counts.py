"""How many fraction-free eliminations one exact call takes, as
tests/test_svd_counts.py pins SVDs: every rank is one forward-only
elimination (`_pivots`), and every pseudoinverse, projector and Drazin
inverse reads the pivot columns of one and inverts one r x r matrix
(`_inv`, one Gauss-Jordan `_rref` of [N | I]). And how many times an
operand enters the exact path (`_admit`): once per call."""

from collections import Counter

import numpy as np
import pytest

from geninv import exact, verify
from geninv.exact import (exact_bt, exact_core, exact_core_ep, exact_drazin, exact_group,
                          exact_index, exact_pair_index, exact_pinv, exact_power,
                          exact_proj_range, exact_qbt, exact_rank, exact_weighted_bt,
                          exact_weighted_core_ep, exact_weighted_drazin, exact_weighted_qbt,
                          full_rank_factorization, rmatrix)
from geninv.cli import main
from geninv.reference import (AW_SQ_PRODUCT_4X3, INDICES_4X3, PAIR_4X3_A, PAIR_4X3_W,
                              PAIR_5X4_A, PAIR_5X4_W, WA_SQ_PRODUCT_4X3, WQBT_4X3,
                              pair_4x3_exact)


@pytest.fixture
def eliminations(monkeypatch):
    """Calls of the forward elimination, of Gauss-Jordan and of the
    inversion; an inversion is also one Gauss-Jordan call, so the
    eliminations a call takes are forward + rref."""
    counts = {"forward": 0, "rref": 0, "inv": 0}

    def counting(key, real):
        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return counted

    for name, key in (("_pivots", "forward"), ("_rref", "rref"), ("_inv", "inv")):
        monkeypatch.setattr(exact, name, counting(key, getattr(exact, name)))
    return counts


def counts(forward=0, rref=0, inv=0):
    return {"forward": forward, "rref": rref, "inv": inv}


def square(k):
    """6x6 integer square of index k: a nonsingular 2x2 block, a nilpotent
    Jordan block of size k and an identity block, mixed by a unimodular
    similarity so that no entry pattern is special."""
    a = np.zeros((6, 6), dtype=np.int64)
    a[:2, :2] = [[2, 1], [1, 1]]
    a[2:2 + k, 2:2 + k] = np.eye(k, k, 1, dtype=np.int64)
    a[2 + k:, 2 + k:] = np.eye(4 - k, dtype=np.int64)
    s = np.triu(np.ones((6, 6), dtype=np.int64))
    s_inv = np.eye(6, dtype=np.int64) - np.eye(6, 6, 1, dtype=np.int64)
    return rmatrix((s @ a @ s_inv).tolist())


@pytest.fixture
def rank_two():
    return rmatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]])


def test_rank_is_one_forward_elimination(eliminations, rank_two):
    assert exact_rank(rank_two) == 2
    assert eliminations == counts(forward=1)


def test_pinv_takes_two(eliminations, rank_two):
    exact_pinv(rank_two)
    assert eliminations == counts(forward=1, rref=1, inv=1)


def test_proj_range_takes_two(eliminations, rank_two):
    exact_proj_range(rank_two)
    assert eliminations == counts(forward=1, rref=1, inv=1)


def test_zero_matrix_takes_one_forward_elimination(eliminations):
    zero = rmatrix([[0, 0], [0, 0], [0, 0]])
    exact_pinv(zero)
    exact_proj_range(zero)
    assert eliminations == counts(forward=2)


def test_full_rank_factorization_is_one_gauss_jordan(eliminations, rank_two):
    full_rank_factorization(rank_two)
    assert eliminations == counts(rref=1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_index_is_a_rank_per_power(eliminations, k):
    # ranks of A, A^2, ..., A^(k+1): the last one repeats the one before
    assert exact_index(square(k)) == k
    assert eliminations == counts(forward=k + 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_drazin_is_the_rank_search_plus_one(eliminations, k):
    # the search leaves the pivot columns F of A^k; Cline's formula then
    # inverts F* A^(k+1) F
    exact_drazin(square(k))
    assert eliminations == counts(forward=k + 1, rref=1, inv=1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_core_ep_is_the_rank_search_plus_two(eliminations, k):
    # the search leaves a basis F of R(A^k); C = A F has full column rank,
    # found by its forward elimination, and F (C* C)^{-1} C* is the inverse
    exact_core_ep(square(k))
    assert eliminations == counts(forward=k + 2, rref=1, inv=1)


@pytest.mark.parametrize("q", [0, 1, 2, 5])
def test_qbt_takes_three_from_the_index_on_and_four_below(eliminations, q):
    # ranks of A^q and of C = A F; below the index C loses rank and
    # (F* F)^{-1} is needed beside the inversion of F_C* C E. At q = 0,
    # P = I and the inverse is the pseudoinverse of A
    exact_qbt(square(2), q)
    if q == 0:
        assert eliminations == counts(forward=1, rref=1, inv=1)
        return
    inversions = 2 if q < 2 else 1
    assert eliminations == counts(forward=2, rref=inversions, inv=inversions)


@pytest.mark.parametrize("k", [0, 1])
def test_group_and_core(eliminations, k):
    exact_group(square(k))
    assert eliminations == counts(forward=k + 1, rref=1, inv=1)
    eliminations.update(counts())
    exact_core(square(k))
    assert eliminations == counts(forward=k + 2, rref=2, inv=2)


def test_weighted_routines(eliminations):
    a, w = pair_4x3_exact()
    ind_aw, ind_wa, _k = INDICES_4X3
    for q in range(ind_aw + 2):
        eliminations.update(counts())
        exact_weighted_qbt(a, w, q)
        if q == 0:
            # P = I: the pseudoinverse of W A W
            assert eliminations == counts(forward=1, rref=1, inv=1)
            continue
        inversions = 2 if q < ind_aw else 1
        assert eliminations == counts(forward=2, rref=inversions, inv=inversions), q
    eliminations.update(counts())
    # R((AW)^k) = R((AW)^Ind(AW)), so only AW's index is searched
    exact_weighted_core_ep(a, w)
    assert eliminations == counts(forward=ind_aw + 2, rref=1, inv=1)
    eliminations.update(counts())
    exact_weighted_drazin(a, w)
    assert eliminations == counts(forward=ind_wa + 1, rref=1, inv=1)


@pytest.mark.parametrize("argv, expected", [
    # the routine: AW's index search (Ind(AW) + 1 = 4 ranks), the rank of
    # C and one inversion; the residuals: AW's index search again and the
    # projector onto R((AW)^k)
    (["wcore-ep"], counts(forward=10, rref=2, inv=2)),
    # the routine: the ranks of (AW)^3 and of C, and one inversion
    (["wqbt", "--q", "3"], counts(forward=7, rref=2, inv=2)),
])
def test_exact_penrose_residuals_search_only_the_index_of_aw(eliminations, tmp_path, capsys,
                                                             argv, expected):
    # a Penrose system reads only R((AW)^k), which is fixed from Ind(AW)
    # on, so the residuals search no index of WA
    files = []
    for name, rows in (("a", PAIR_4X3_A), ("w", PAIR_4X3_W)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(",".join(map(str, row)) for row in rows) + "\n")
        files.append(str(path))
    assert main([*argv, *files, "--exact", "--verify"]) == 0
    residuals = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("residual ")]
    assert len(residuals) == 4
    assert all(ln.endswith(" = 0.000000e+00") for ln in residuals)
    assert eliminations == expected


@pytest.fixture
def admissions(monkeypatch):
    """Calls of `_admit` per operand, keyed by the operand's identity, from
    the entry points and from the conformance runner alike."""
    taken = Counter()
    admit = exact._admit

    def counted(a):
        taken[id(a)] += 1
        return admit(a)

    monkeypatch.setattr(exact, "_admit", counted)
    monkeypatch.setattr(verify, "_admit", counted)
    return taken


def power(a):
    return exact_power(a, 3)


def qbt(a):
    return exact_qbt(a, 2)


def weighted_qbt(a, w):
    return exact_weighted_qbt(a, w, 2)


@pytest.mark.parametrize("call", [
    exact_rank, full_rank_factorization, exact_pinv, exact_proj_range, power, exact_index,
    qbt, exact_drazin, exact_group, exact_core, exact_core_ep, exact_bt,
], ids=lambda call: call.__name__)
def test_each_call_admits_its_operand_once(admissions, call):
    a = square(1)
    call(a)
    assert admissions == {id(a): 1}


@pytest.mark.parametrize("call", [
    exact_pair_index, weighted_qbt, exact_weighted_bt, exact_weighted_core_ep,
    exact_weighted_drazin,
], ids=lambda call: call.__name__)
def test_each_weighted_call_admits_each_operand_once(admissions, call):
    a, w = pair_4x3_exact()
    call(a, w)
    assert admissions == {id(a): 1, id(w): 1}


def test_the_reference_pair_checks_admit_each_pair_and_table_once(admissions):
    # the two reference pairs and the frozen tables the exact checks compare
    # against, then the Stein pair, whose two arrays the call builds itself
    assert verify.run_example_checks().passed
    tables = [PAIR_4X3_A, PAIR_4X3_W, PAIR_5X4_A, PAIR_5X4_W, *WQBT_4X3.values(),
              *AW_SQ_PRODUCT_4X3.values(), *WA_SQ_PRODUCT_4X3.values()]
    assert {id(table) for table in tables} < admissions.keys()
    assert sorted(admissions.values()) == [1] * (len(tables) + 2)
