import dataclasses
import json
import sys

import numpy as np
import pytest

from geninv import classical, decomposition, projectors, verify, weighted
from geninv.errors import DecompositionError, DomainError, NumericError, ShapeError
from geninv.corpus import PlantedPair, random_pairs, random_planted_pair
from geninv.matrix import DEFAULT_TOL, Tolerances, frobenius
from geninv.reference import pair_4x3_float
from geninv.verify import (CHECK_REGISTRY, run_all, run_example_checks,
                           run_random_corpus)
from geninv.weighted import WeightedPair, weighted_qbt

# frozen manifest: every check the verifier is expected to perform
EXPECTED_CHECK_IDS = (
    "corpus.classical.five-way",
    "corpus.classical.outer",
    "corpus.classical.reductions",
    "corpus.cline-shift",
    "corpus.decomposition.aw-block",
    "corpus.decomposition.block-pinv",
    "corpus.decomposition.nilpotent",
    "corpus.decomposition.roundtrip",
    "corpus.decomposition.square-canonical",
    "corpus.decomposition.z-identity",
    "corpus.exact.float-agreement",
    "corpus.k1.core-remark",
    "corpus.pair-validity",
    "corpus.properties.adjoint-range",
    "corpus.properties.left-projector",
    "corpus.properties.outer-representation",
    "corpus.properties.power-range",
    "corpus.properties.projector-fix",
    "corpus.properties.range-null",
    "corpus.properties.range-subset",
    "corpus.properties.right-projector",
    "corpus.reductions.ind-aw",
    "corpus.reductions.q-ge-k",
    "corpus.reductions.q0",
    "corpus.reductions.q1",
    "corpus.representations.canonical",
    "corpus.representations.canonical-products",
    "corpus.representations.product-forms",
    "corpus.representations.via-square",
    "corpus.system.definition",
    "corpus.system.left-product",
    "corpus.system.range-form",
    "corpus.system.right-product",
    "corpus.uniqueness.definition",
    "corpus.uniqueness.left-product",
    "corpus.uniqueness.range-form",
    "corpus.uniqueness.right-product",
    "corpus.wcep.system",
    "corpus.wdrazin.equations",
    "examples.pair4x3.dual-gap.q1",
    "examples.pair4x3.dual-gap.q2",
    "examples.pair4x3.dual-gap.q3",
    "examples.pair4x3.indices",
    "examples.pair4x3.reductions",
    "examples.pair4x3.square-products.q1",
    "examples.pair4x3.square-products.q2",
    "examples.pair4x3.square-products.q3",
    "examples.pair4x3.wqbt.q0",
    "examples.pair4x3.wqbt.q1",
    "examples.pair4x3.wqbt.q2",
    "examples.pair4x3.wqbt.q3",
    "examples.pair5x4.counterexample",
    "examples.pair5x4.indices",
    "examples.stein.mp-reduction",
)


@pytest.fixture(scope="module")
def example_report():
    return run_example_checks()


@pytest.fixture(scope="module")
def small_corpus_report():
    return run_random_corpus(seed=11, count=10, max_dim=7)


class TestManifest:
    def test_registry_matches_frozen_manifest(self):
        assert tuple(sorted(CHECK_REGISTRY)) == EXPECTED_CHECK_IDS

    def test_every_check_has_a_description(self):
        for check_id, description in CHECK_REGISTRY.items():
            assert description.strip(), check_id

    def test_example_run_covers_all_example_ids(self, example_report):
        got = {r.check_id for r in example_report.results}
        expected = {i for i in EXPECTED_CHECK_IDS if i.startswith("examples.")}
        assert got == expected

    def test_corpus_run_covers_all_corpus_ids(self, small_corpus_report):
        got = {r.check_id for r in small_corpus_report.results}
        expected = {i for i in EXPECTED_CHECK_IDS if i.startswith("corpus.")}
        assert got == expected


class TestReports:
    def test_examples_all_pass(self, example_report):
        assert example_report.passed
        assert not example_report.failures()

    def test_small_corpus_passes(self, small_corpus_report):
        assert small_corpus_report.passed

    def test_text_rendering(self, example_report):
        text = example_report.to_text()
        assert "PASS" in text
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        # one line per check plus the closing summary line
        assert len(lines) == len(example_report.results) + 1

    def test_json_rendering(self, example_report):
        payload = json.loads(example_report.to_json())
        assert payload["passed"] is True
        assert len(payload["results"]) == len(example_report.results)
        first = payload["results"][0]
        assert {"check_id", "passed", "residuals", "detail"} <= set(first)

    def test_failure_detection_with_impossible_tolerance(self):
        report = run_random_corpus(seed=11, count=2, max_dim=6,
                                   tol=Tolerances(residual_atol=1e-30))
        assert not report.passed
        assert report.failures()

    def test_run_all_concatenates_both_suites(self):
        report = run_all(seed=11, count=3, max_dim=6)
        ids = {r.check_id for r in report.results}
        assert any(i.startswith("examples.") for i in ids)
        assert any(i.startswith("corpus.") for i in ids)


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = run_random_corpus(seed=7, count=8, max_dim=7)
        second = run_random_corpus(seed=7, count=8, max_dim=7)
        assert first.to_json() == second.to_json()

    def test_different_seed_different_residuals(self):
        first = run_random_corpus(seed=7, count=8, max_dim=7)
        second = run_random_corpus(seed=8, count=8, max_dim=7)
        assert first.to_json() != second.to_json()


def member_measurements(p: WeightedPair) -> dict[str, dict[str, float]]:
    """The measurements of every corpus check on the single member p, folded
    as run_random_corpus folds them; a library error ends the member's run
    there, as it does in the runner."""
    agg = {cid: verify._Extreme(gaps=cid.startswith("corpus.uniqueness."))
           for cid in CHECK_REGISTRY if cid.startswith("corpus.")}
    try:
        verify._corpus_member_checks(p, False, p.k, "member", DEFAULT_TOL,
                                     np.random.default_rng(0), agg)
    except (DomainError, ShapeError, NumericError, DecompositionError):
        pass
    return {cid: e.values for cid, e in agg.items()}


def example_reductions() -> verify.CheckResult:
    """The examples.pair4x3.reductions result of a fresh example run."""
    [check] = [r for r in run_example_checks().results
               if r.check_id == "examples.pair4x3.reductions"]
    return check


@pytest.fixture(scope="module")
def pair4x3():
    return WeightedPair.from_matrices(*pair_4x3_float())


def test_system_checks_pass_the_computed_inverse_past_k():
    # P_{(AW)^q} is built at min(q, k): at q = 40 the full-size power's rank
    # would be decided against (sigma_max(A) sigma_max(W))^40
    rng = np.random.default_rng(0)
    p = WeightedPair.from_matrices(rng.standard_normal((40, 30)) * 6,
                                   rng.standard_normal((30, 40)) * 6)
    assert p.k == 1
    for q in (1, 5, 40):
        failed = {r.check_id: r.residuals for r in verify.run_system_checks(p, q)
                  if not r.passed}
        assert not failed, q


@pytest.mark.parametrize("shape", [(3, 4), (4, 4), (12,)])
def test_system_checks_reject_a_candidate_of_the_wrong_shape(pair4x3, shape):
    # A is 4 x 3, so its weighted inverse is 4 x 3 as well
    with pytest.raises(ShapeError, match="candidate must be 4x3, got "
                       + "x".join(map(str, shape))):
        verify.run_system_checks(pair4x3, 1, candidate=np.zeros(shape))


def test_system_checks_fail_a_non_finite_candidate(pair4x3):
    candidate = weighted_qbt(pair4x3, 1).copy()
    candidate[0, 0] = np.nan
    results = {r.check_id: r for r in verify.run_system_checks(pair4x3, 1, candidate=candidate)}
    eq1 = results["system.definition.eq1"]
    assert not eq1.passed and np.isnan(eq1.residuals["eq1"])


def test_system_checks_see_a_perturbed_inverse(pair4x3, monkeypatch):
    # without a candidate the computed inverse is compared with the canonical
    # form, not with itself, so a 1e-6 relative perturbation of weighted_qbt
    # reaches the two definition equations and both product equations
    weighted_qbt = verify.weighted_qbt
    rng = np.random.default_rng(0)

    def perturbed(p, q):
        x = weighted_qbt(p, q)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        return x + 1e-6 * frobenius(x) / frobenius(noise) * noise

    monkeypatch.setattr(verify, "weighted_qbt", perturbed)
    values = {r.check_id: r.residuals for r in verify.run_system_checks(pair4x3, 2)}
    for cid, key in (("system.definition.eq2", "eq2"),
                     ("system.definition.eq3", "eq3"),
                     ("system.left-product.product_eq", "product_eq"),
                     ("system.right-product.product_eq", "product_eq")):
        assert values[cid][key] >= 1e-8, (cid, values[cid])


def test_z_identity_sees_a_perturbed_gram_factor(monkeypatch):
    # z-identity reads the canonical form's own Omega: with the compact
    # projector Z = I - Y^+ Y it is built from moved by a 1e-6 relative
    # Hermitian perturbation, Omega no longer inverts the Gram factor
    # C C* + M Z M*
    k_pinv = decomposition._k_pinv
    rng = np.random.default_rng(0)

    def perturbed(core, coupling, gap, rows):
        e = rng.standard_normal(gap.shape) + 1j * rng.standard_normal(gap.shape)
        e = e + e.conj().T
        if frobenius(e):
            gap = gap + 1e-6 * frobenius(gap) / frobenius(e) * e
        return k_pinv(core, coupling, gap, rows)

    monkeypatch.setattr(decomposition, "_k_pinv", perturbed)
    [check] = [r for r in run_random_corpus(seed=1, count=30).results
               if r.check_id == "corpus.decomposition.z-identity"]
    assert check.residuals["z"] >= 1e-8


@pytest.mark.parametrize("seed,i", [(8, 41), (28, 86)])
def test_members_with_ill_conditioned_powers_pass(seed, i):
    # seed 8 member 41 has cond((AW)^4 on its range) about 2000: a
    # projector formed as (AW)^q ((AW)^q)^+ is off by about cond * eps,
    # enough to show AW P one singular value too many, and it failed
    # corpus.classical.five-way at q = 4; seed 28 member 86 failed
    # corpus.classical.outer's right projector at q = 2 the same way. Each
    # member runs on the child seed the corpus run spawns for it.
    member = random_pairs(seed, 100)[i]
    member_seed = np.random.SeedSequence([seed, 0x5eed]).spawn(100)[i]
    agg = verify._member_task(i, member, member_seed, DEFAULT_TOL)
    failed = {cid: extreme.values for cid, extreme in agg.items()
              if not extreme.check(cid, verify.CORPUS_GAP_FLOOR if extreme.gaps
                                   else DEFAULT_TOL.residual_atol).passed}
    assert not failed


class TestMeasurementsSeeFaults:
    """Each fault below reaches both sides of a comparison that once read
    the same call chain twice, and so read 0.0 whatever the library did."""

    @pytest.fixture
    def cutoff_drops_one(self, monkeypatch):
        """Every count the flat cutoff decides in the factor layer
        (`_Factored.rank()` with no scale, each staircase's rank(B), and
        what a reader given no count keeps), and every weighted member,
        keeps one singular value too few."""
        rank_from_values = projectors.rank_from_values
        member_rank = weighted.rank_from_values

        def short(s, shape, scale=None):
            r = rank_from_values(s, shape, scale)
            return max(r - 1, 0) if scale is None else r

        monkeypatch.setattr(projectors, "rank_from_values", short)
        monkeypatch.setattr(weighted, "rank_from_values",
                            lambda *args: max(member_rank(*args) - 1, 0))

    @pytest.fixture
    def bt_for_every_q(self, monkeypatch):
        """The runner's weighted_qbt returns the BT inverse (q = 1) for
        every q >= 1, the core-EP inverse among them."""
        weighted_qbt = verify.weighted_qbt
        monkeypatch.setattr(verify, "weighted_qbt", lambda p, q: weighted_qbt(p, min(q, 1)))

    @pytest.fixture
    def q_one_short(self, monkeypatch):
        """The runner's weighted_qbt returns the q - 1 member for every q >= 1."""
        weighted_qbt = verify.weighted_qbt
        monkeypatch.setattr(verify, "weighted_qbt",
                            lambda p, q: weighted_qbt(p, max(q - 1, 0)))

    def test_unfaulted_member_passes(self, pair4x3):
        values = member_measurements(pair4x3)
        for cid in ("corpus.reductions.q0", "corpus.classical.reductions",
                    "corpus.reductions.q-ge-k", "corpus.wdrazin.equations"):
            assert max(values[cid].values()) <= DEFAULT_TOL.residual_atol, cid

    def test_q0_sees_a_short_pseudoinverse(self, pair4x3, cutoff_drops_one):
        values = member_measurements(pair4x3)["corpus.reductions.q0"]
        assert values["penrose1"] > 1e-3

    def test_classical_q0_sees_a_short_pseudoinverse(self, pair4x3, cutoff_drops_one):
        values = member_measurements(pair4x3)["corpus.classical.reductions"]
        assert values["q0_penrose1"] > 1e-3

    def test_q_ge_k_sees_an_understated_index(self, pair4x3):
        assert pair4x3.ind_aw == pair4x3.k
        short = dataclasses.replace(pair4x3, ind_aw=pair4x3.k - 1, k=pair4x3.k - 1)
        values = member_measurements(short)["corpus.reductions.q-ge-k"]
        assert values["k+1"] > 1e-3

    def test_example_q0_sees_a_short_pseudoinverse(self, cutoff_drops_one):
        check = example_reductions()
        assert not check.passed
        assert check.residuals["q0_penrose1"] > 1e-3

    def test_example_q_ge_k_sees_an_understated_index(self, monkeypatch):
        from_matrices = WeightedPair.from_matrices

        def understated(a, w):
            p = from_matrices(a, w)
            if p.shape != (4, 3):
                return p
            assert p.ind_aw == p.k
            return dataclasses.replace(p, ind_aw=p.k - 1, k=p.k - 1)

        monkeypatch.setattr(WeightedPair, "from_matrices", staticmethod(understated))
        check = example_reductions()
        assert not check.passed
        assert min(check.residuals["q-ge-k_k+1"], check.residuals["q-ge-k_k+2"]) > 1e-3

    def test_right_product_sees_an_understated_index(self, pair4x3, monkeypatch):
        search = projectors._Staircase.search

        def understated(stairs, last):
            # the square Drazin inverse's search reports Ind(B) - 1, as if
            # it stopped at j = Ind(B); every other search is left whole
            k = search(stairs, last)
            return max(k - 1, 0) if sys._getframe(1).f_code is classical.drazin.__code__ else k

        monkeypatch.setattr(projectors._Staircase, "search", understated)
        # B on R(B^(Ind(B) - 1)) is singular, so the Drazin solve raises
        # NumericError, and the runner records the member's library error
        member = PlantedPair(pair4x3.a, pair4x3.w, pair4x3.k, False)
        validity = verify._member_task(0, member, np.random.SeedSequence(0),
                                       DEFAULT_TOL)["corpus.pair-validity"]
        assert validity.values["library_error"] == float("inf")
        assert "singular at the rank cutoff" in validity.where

    def test_classical_q_beyond_sees_an_understated_index(self, pair4x3):
        assert pair4x3.ind_aw >= 1
        short = dataclasses.replace(pair4x3, ind_aw=pair4x3.ind_aw - 1)
        values = member_measurements(short)["corpus.classical.reductions"]
        assert values["q_ind"] <= DEFAULT_TOL.residual_atol
        assert values["q_beyond"] > 1e-3

    def test_ind_aw_sees_the_bt_inverse_for_the_core_ep_inverse(self, pair4x3, bt_for_every_q):
        assert pair4x3.ind_aw == pair4x3.k >= 2
        values = member_measurements(pair4x3)["corpus.reductions.ind-aw"]
        assert values["vs_core_ep"] > 1e-3

    def test_example_ind_aw_sees_the_bt_inverse_for_the_core_ep_inverse(self, bt_for_every_q):
        check = example_reductions()
        assert not check.passed
        assert check.residuals["ind-aw_vs_core_ep"] > 1e-3

    def test_k1_core_remark_sees_a_q_one_short(self, q_one_short):
        planted = random_planted_pair(np.random.default_rng(1), 1, max_dim=6)
        p = WeightedPair.from_matrices(planted.a, planted.w)
        assert p.k == 1
        values = member_measurements(p)["corpus.k1.core-remark"]
        assert values["q1_vs_core_ep"] > 1e-3

    def test_system_equations_see_a_perturbed_inverse(self, pair4x3, monkeypatch):
        # the paper's system and its two product characterizations compare
        # the runner's inverse with the canonical form, not with itself, so
        # a 1e-6 relative perturbation of weighted_qbt reaches all four
        weighted_qbt = verify.weighted_qbt
        rng = np.random.default_rng(0)

        def perturbed(p, q):
            x = weighted_qbt(p, q)
            noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
            return x + 1e-6 * frobenius(x) / frobenius(noise) * noise

        monkeypatch.setattr(verify, "weighted_qbt", perturbed)
        values = member_measurements(pair4x3)
        for cid, key in (("corpus.system.definition", "eq2"),
                         ("corpus.system.definition", "eq3"),
                         ("corpus.system.left-product", "product_eq"),
                         ("corpus.system.right-product", "product_eq")):
            assert values[cid][key] >= 1e-8, (cid, key)
