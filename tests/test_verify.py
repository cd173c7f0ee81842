import dataclasses
import json

import numpy as np
import pytest

from geninv import classical, projectors, verify
from geninv.errors import DecompositionError, DomainError, NumericError, ShapeError
from geninv.matrix import DEFAULT_TOL, Tolerances
from geninv.projectors import IndexReport
from geninv.reference import pair_4x3_float
from geninv.verify import (CHECK_REGISTRY, run_all, run_example_checks,
                           run_random_corpus)
from geninv.weighted import WeightedPair

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


@pytest.fixture(scope="module")
def pair4x3():
    return WeightedPair.from_matrices(*pair_4x3_float())


class TestMeasurementsSeeFaults:
    """Each fault below reaches both sides of a comparison that once read
    the same call chain twice, and so read 0.0 whatever the library did."""

    @pytest.fixture
    def cutoff_drops_one(self, monkeypatch):
        """Every cutoff-decided pseudoinverse keeps one singular value too few."""
        kept = projectors._kept

        def short(s, shape, scale, fixed_rank):
            r = kept(s, shape, scale, fixed_rank)
            return max(r - 1, 0) if fixed_rank is None else r

        monkeypatch.setattr(projectors, "_kept", short)

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

    def test_right_product_sees_an_understated_index(self, pair4x3, monkeypatch):
        matrix_index = classical.matrix_index

        def understated(b):
            r = matrix_index(b)
            k = max(r.index - 1, 0)
            return IndexReport(k, r.rank_sequence[:k + 2], r.sigma_max)

        monkeypatch.setattr(classical, "matrix_index", understated)
        values = member_measurements(pair4x3)["corpus.wdrazin.equations"]
        assert values["right_product"] > 1e-3
