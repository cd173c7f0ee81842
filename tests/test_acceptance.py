"""Acceptance gate: nine end-to-end criteria at pinned tolerances.

Each test is one criterion; `pytest -v` therefore emits one pass/fail
line per criterion.  Thresholds are stated inline and are part of the
contract — do not widen them.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from geninv.classical import qbt_inverse
from geninv.corpus import random_pairs
from geninv.decomposition import (block_pinv, canonical_weighted_qbt,
                                  weighted_core_ep_decompose)
from geninv.exact import (conj_t, exact_pair_index, exact_pinv,
                          exact_qbt, exact_weighted_bt, exact_weighted_core_ep,
                          exact_weighted_qbt, float_of, requal, reye,
                          rmatrix_from_complex)
from geninv.matrix import (Tolerances, conjugate_transpose, frobenius,
                           sigma_max)
from geninv.projectors import (pinv, power, proj_range, range_contained,
                               nullspace_contained)
from geninv.reference import (AW_SQ_PRODUCT_4X3, INDICES_4X3, INDICES_5X4,
                              WA_SQ_PRODUCT_4X3, WBT_4X3, WCEP_4X3, WQBT_4X3,
                              X0WA_5X4, XWA_5X4, exact_matrix, float_matrix,
                              pair_4x3_exact, pair_4x3_float, pair_5x4_exact,
                              pair_5x4_float)
from geninv.verify import run_random_corpus, run_system_checks
from geninv.weighted import (WeightedPair, weighted_bt, weighted_core_ep,
                             weighted_qbt, weighted_qbt_product_forms,
                             weighted_qbt_via_square)

from conftest import random_complex, rel

_MODULE_T0 = time.perf_counter()

CORPUS_SEED = 1
CORPUS_COUNT = 100
CORPUS_MAX_DIM = 8


@pytest.fixture(scope="module")
def corpus():
    return random_pairs(CORPUS_SEED, CORPUS_COUNT, CORPUS_MAX_DIM)


@pytest.fixture(scope="module")
def wpairs(corpus):
    return [m.to_weighted() for m in corpus]


@pytest.fixture(scope="module")
def corpus_report():
    return run_random_corpus(CORPUS_SEED, CORPUS_COUNT, CORPUS_MAX_DIM)


def test_criterion_1_reference_values_reproduced_exactly():
    t0 = time.perf_counter()
    a, w = pair_4x3_exact()
    aw = a @ w
    wa = w @ a

    expected_by_name = {
        "weighted core-EP": (exact_weighted_core_ep(a, w), WCEP_4X3),
        "weighted BT": (exact_weighted_bt(a, w), WBT_4X3),
        "weighted q-BT q=2": (exact_weighted_qbt(a, w, 2), WQBT_4X3[2]),
        "weighted q-BT q=3": (exact_weighted_qbt(a, w, 3), WQBT_4X3[3]),
    }
    for q in (1, 2, 3):
        x_aw = exact_qbt(aw, q)
        expected_by_name[f"square product AW q={q}"] = (
            x_aw @ x_aw @ a, AW_SQ_PRODUCT_4X3[q])
    for q in (1, 2):
        y_wa = exact_qbt(wa, q)
        expected_by_name[f"square product WA q={q}"] = (
            a @ y_wa @ y_wa, WA_SQ_PRODUCT_4X3[q])

    for name, (got, frozen) in expected_by_name.items():
        assert requal(got, exact_matrix(frozen)), name

    # float path within 1e-10 of the same frozen values
    af, wf = pair_4x3_float()
    p = WeightedPair.from_matrices(af, wf)
    assert rel(weighted_core_ep(p), float_matrix(WCEP_4X3)) < 1e-10
    assert rel(weighted_bt(p), float_matrix(WBT_4X3)) < 1e-10
    for q, frozen in WQBT_4X3.items():
        assert rel(weighted_qbt(p, q), float_matrix(frozen)) < 1e-10
    awf = af @ wf
    waf = wf @ af
    for q in (1, 2, 3):
        x_awf = qbt_inverse(awf, q)
        assert rel(x_awf @ x_awf @ af, float_matrix(AW_SQ_PRODUCT_4X3[q])) < 1e-10
    for q in (1, 2):
        y_waf = qbt_inverse(waf, q)
        assert rel(af @ y_waf @ y_waf, float_matrix(WA_SQ_PRODUCT_4X3[q])) < 1e-10

    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_candidate_solves_two_equations_but_not_the_third():
    a, w = pair_5x4_exact()
    aw = a @ w
    wa = w @ a
    waw = w @ aw
    x0 = exact_weighted_qbt(a, w, 1)
    q_aw = exact_pinv(aw) @ aw
    complement = np.array(reye(q_aw.shape[0]) - q_aw, dtype=object)
    x = q_aw @ x0 + complement @ conj_t(w)

    # equations 1 and 3 hold exactly
    assert requal(x @ waw @ x, x)
    assert requal(aw @ x, aw @ x0)
    # float residuals of the same two equations are at rounding level
    xf, x0f, wawf, awf = map(float_of, (x, x0, waw, aw))
    assert rel(xf @ wawf @ xf, xf) < 1e-10
    assert rel(awf @ xf, awf @ x0f) < 1e-10

    # the second equation fails: X W A differs from X0 W A
    xwa = x @ wa
    x0wa = x0 @ wa
    assert requal(xwa, exact_matrix(XWA_5X4))
    assert requal(x0wa, exact_matrix(X0WA_5X4))
    assert not requal(xwa, x0wa)
    assert xwa[0, 0].real == Fraction(3, 5)
    assert x0wa[0, 0].real == Fraction(1, 3)


def test_criterion_3_indices_of_both_reference_pairs():
    for exact_pair, float_pair, expected in (
            (pair_4x3_exact(), pair_4x3_float(), INDICES_4X3),
            (pair_5x4_exact(), pair_5x4_float(), INDICES_5X4)):
        assert exact_pair_index(*exact_pair) == expected
        p = WeightedPair.from_matrices(*float_pair)
        assert (p.ind_aw, p.ind_wa, p.k) == expected


def test_criterion_4_reduction_identities_on_the_corpus(wpairs):
    failures = []
    for i, p in enumerate(wpairs):
        waw = p.w @ p.a @ p.w
        cep = weighted_core_ep(p)
        cases = [
            ("q0", weighted_qbt(p, 0), pinv(waw)),
            ("q1", weighted_qbt(p, 1), weighted_bt(p)),
            ("q=k", weighted_qbt(p, p.k), cep),
            ("q=k+1", weighted_qbt(p, p.k + 1), cep),
        ]
        for name, got, want in cases:
            r = rel(got, want)
            if r > 1e-8:
                failures.append((i, name, r))
    assert not failures, failures


def test_criterion_5_formula_agreement_and_block_pinv(wpairs, rng):
    # five representations of the same inverse agree pairwise
    failures = []
    for i, p in enumerate(wpairs):
        d = weighted_core_ep_decompose(p)
        for q in range(p.k + 2):
            forms = {"direct": weighted_qbt(p, q)}
            forms["left-product"], forms["right-product"] = \
                weighted_qbt_product_forms(p, q)
            forms["via-square"] = weighted_qbt_via_square(p, q)
            forms["canonical"], _ = canonical_weighted_qbt(d, q)
            names = sorted(forms)
            for j, na in enumerate(names):
                for nb in names[j + 1:]:
                    r = rel(forms[na], forms[nb])
                    if r > 1e-8:
                        failures.append((i, q, na, nb, r))
    assert not failures, failures[:5]

    # closed-form pseudoinverse of 200 block-triangular instances
    for _ in range(200):
        t = int(rng.integers(1, 4))
        rows = t + int(rng.integers(0, 4))
        cols = t + int(rng.integers(0, 4))
        u, _unused = np.linalg.qr(random_complex(rng, rows, rows))
        v, _unused = np.linalg.qr(random_complex(rng, cols, cols))
        a1 = random_complex(rng, t, t) + 2 * np.eye(t)
        a2 = random_complex(rng, t, cols - t)
        a3 = random_complex(rng, rows - t, cols - t)
        top = np.hstack([a1, a2])
        bottom = np.hstack([np.zeros((rows - t, t)), a3])
        b = u @ np.vstack([top, bottom]) @ conjugate_transpose(v)
        assert rel(block_pinv(u, v, a1, a2, a3), np.linalg.pinv(b)) < 1e-10


def test_criterion_6_characterizing_systems_and_perturbed_candidates(wpairs):
    tol = Tolerances(residual_atol=1e-8)
    drng = np.random.default_rng(6)
    for i, p in enumerate(wpairs):
        for q in range(p.k + 2):
            true_results = run_system_checks(p, q, tol)
            bad = [r for r in true_results if not r.passed]
            assert not bad, (i, q, [(r.check_id, r.residuals) for r in bad])

            x = weighted_qbt(p, q)
            direction = random_complex(drng, *x.shape)
            direction /= frobenius(direction)
            candidate = x + 1e-3 * direction
            failed_systems = {
                r.check_id.split(".")[1]
                for r in run_system_checks(p, q, tol, candidate=candidate)
                if not r.passed
            }
            expected = {"definition", "range-form", "left-product", "right-product"}
            assert failed_systems == expected, (i, q, failed_systems)


def test_criterion_7_rank_based_set_relations(wpairs, corpus_report):
    # reference pairs: direct evaluation of the set relations
    for af, wf in (pair_4x3_float(), pair_5x4_float()):
        p = WeightedPair.from_matrices(af, wf)
        aw = p.a @ p.w
        waw = p.w @ aw
        for q in range(p.k + 2):
            x = weighted_qbt(p, q)
            pq = proj_range(power(aw, q))
            gen = pq @ conjugate_transpose(waw)
            assert range_contained(x, gen) and range_contained(gen, x)
            assert nullspace_contained(gen, x) and nullspace_contained(x, gen)
            assert range_contained(x, power(aw, q))

    # full corpus: every rank-based property check of the conformance run
    props = [r for r in corpus_report.results
             if r.check_id.startswith("corpus.properties.")]
    assert len(props) == 8
    bad = [(r.check_id, r.residuals) for r in props if not r.passed]
    assert not bad, bad


def test_criterion_8_decomposition_validity(wpairs):
    failures = []
    for i, p in enumerate(wpairs):
        d = weighted_core_ep_decompose(p)
        m, n = p.shape
        t = d.t_dim
        checks = {
            "unitary_u": frobenius(conjugate_transpose(d.u) @ d.u - np.eye(m)),
            "unitary_v": frobenius(conjugate_transpose(d.v) @ d.v - np.eye(n)),
            "reconstruct_a": rel(d.compose_a(), p.a),
            "reconstruct_w": rel(d.compose_w(), p.w),
        }
        sa, sw = sigma_max(p.a), sigma_max(p.w)
        nil_aw, nil_wa = d.a3 @ d.w3, d.w3 @ d.a3
        if nil_aw.size:
            checks["nilpotent_aw"] = frobenius(power(nil_aw, d.ind_aw)) \
                / max(1.0, (sa * sw) ** d.ind_aw)
        if nil_wa.size:
            checks["nilpotent_wa"] = frobenius(power(nil_wa, d.ind_wa)) \
                / max(1.0, (sw * sa) ** d.ind_wa)
        for name, value in checks.items():
            if value > 1e-9:
                failures.append((i, name, value))
        # A1, W1 nonsingular; nilpotency indices equal the pair indices
        if np.linalg.matrix_rank(d.a1) != t or np.linalg.matrix_rank(d.w1) != t:
            failures.append((i, "leading-block-rank", t))
        if (d.ind_aw, d.ind_wa) != (p.ind_aw, p.ind_wa):
            failures.append((i, "index-mismatch", (d.ind_aw, d.ind_wa)))
        if d.ind_aw >= 2 and frobenius(power(nil_aw, d.ind_aw - 1)) <= 1e-6:
            failures.append((i, "nilpotency-too-early-aw", d.ind_aw))
        if d.ind_wa >= 2 and frobenius(power(nil_wa, d.ind_wa - 1)) <= 1e-6:
            failures.append((i, "nilpotency-too-early-wa", d.ind_wa))
    assert not failures, failures[:5]


def test_criterion_9_exact_and_float_paths_agree(corpus, wpairs):
    checked = 0
    for member, p in zip(corpus, wpairs):
        if not member.integer_entries:
            continue
        if max(*member.a.shape) > 32:
            continue
        a_ex = rmatrix_from_complex(member.a)
        w_ex = rmatrix_from_complex(member.w)
        for q in (1, p.k):
            exact_x = float_of(exact_weighted_qbt(a_ex, w_ex, q))
            assert rel(weighted_qbt(p, q), exact_x) < 1e-10, (checked, q)
        checked += 1
    assert checked >= 20

    assert time.perf_counter() - _MODULE_T0 < 60.0
