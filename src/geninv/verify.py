"""Executable conformance checks for the inverse family.

Every identity the library claims — defining systems, characterization
systems, reduction formulas, range/null-space descriptions, product and
canonical representations, and the hand-checked example values — is run
as a named check producing residuals. Aggregate runners cover the
reference pairs (float and exact paths) and a seeded random corpus.

Check results are data: residuals are always reported, even on pass, so
tolerance drift is observable. Expected-inequality checks assert a lower
bound on the gap so rounding noise cannot fake a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import reference as ref
from .classical import core_ep, drazin, outer_inverse_check, qbt_inverse
from .corpus import random_pairs
from .decomposition import (block_pinv, canonical_qbt, canonical_qbt_products,
                            canonical_weighted_qbt, core_ep_decompose,
                            weighted_core_ep_decompose)
from .errors import (DecompositionError, DomainError, NumericError, ShapeError)
from .exact import (_matmul, exact_pair_index, exact_pinv, exact_qbt,
                    exact_weighted_qbt, float_of, requal, rmatrix)
from .matrix import (Tolerances, conjugate_transpose, frobenius, rank,
                     resolve_tol, sigma_max)
from .projectors import (nullspace_contained, pinv, power, proj_corange,
                         proj_range, range_contained)
from .weighted import (WeightedPair, _wqbt_rank, _wqbt_raw, cline_shift_check,
                       dual_representation_gap, weighted_core_ep,
                       weighted_drazin, weighted_qbt,
                       weighted_qbt_product_forms, weighted_qbt_via_square)

# Lower bound imposed on every expected-inequality gap for the reference
# pairs: the displayed values differ at order one, so 1e-3 leaves three
# orders of margin against rounding while still rejecting near-equality.
EXAMPLE_GAP_FLOOR = 1e-3
# Lower bound for perturbation gaps on the random corpus: perturbations
# have relative size 1e-2 and propagate through at most a handful of
# bounded factors, so a detected violation sits far above 1e-6.
CORPUS_GAP_FLOOR = 1e-6
_PERTURBATION = 1e-2
# Safety factor on rank anchors built from measured factor norms.  Set
# predicates anchor their cutoffs to the product of the computed factors'
# largest singular values; the factor covers the accumulation constants of
# the short product chains involved while staying many orders below any
# genuine singular value of the generators.
_CHAIN_MARGIN = 8.0

# Registry of every check the runners may emit. Emitting an unregistered
# id raises, which keeps this table complete by construction.
CHECK_REGISTRY: dict[str, str] = {
    # reference-pair checks (float and exact paths)
    "examples.pair4x3.indices": "index structure of the 4x3 reference pair",
    "examples.pair5x4.indices": "index structure of the 5x4 reference pair",
    "examples.pair4x3.wqbt.q0": "q=0 member equals the displayed value",
    "examples.pair4x3.wqbt.q1": "q=1 member equals the displayed value",
    "examples.pair4x3.wqbt.q2": "q=2 member equals the displayed value",
    "examples.pair4x3.wqbt.q3": "q=3 member equals the displayed value",
    "examples.pair4x3.square-products.q1": "squared product expressions at q=1",
    "examples.pair4x3.square-products.q2": "squared product expressions at q=2",
    "examples.pair4x3.square-products.q3": "squared product expressions at q=3",
    "examples.pair4x3.dual-gap.q1": "the three representations are pairwise distinct at q=1",
    "examples.pair4x3.dual-gap.q2": "the three representations are pairwise distinct at q=2",
    "examples.pair4x3.dual-gap.q3": "right product agrees, left product differs, at q=3",
    "examples.pair4x3.reductions": "q=0, q=1, q=Ind(AW) and q>=k reductions on the 4x3 pair",
    "examples.pair5x4.counterexample": "candidate solves two equations but not the third",
    "examples.stein.mp-reduction": "a weight with WAW = A reduces q=0 to the Moore-Penrose inverse",
    # corpus checks (worst case over all members, all applicable q)
    "corpus.pair-validity": "generated pairs have their planted index",
    "corpus.system.definition": "defining three-equation system",
    "corpus.system.range-form": "projector equation plus range condition",
    "corpus.system.left-product": "left product equation plus range condition",
    "corpus.system.right-product": "right product equation plus null-space condition",
    "corpus.uniqueness.definition": "perturbed candidates violate the defining system",
    "corpus.uniqueness.range-form": "perturbed candidates violate the projector system",
    "corpus.uniqueness.left-product": "perturbed candidates violate the left-product system",
    "corpus.uniqueness.right-product": "perturbed candidates violate the right-product system",
    "corpus.reductions.q0": "q=0 equals the pseudoinverse of the sandwich product",
    "corpus.reductions.q1": "q=1 satisfies the historical one-step defining equations",
    "corpus.reductions.ind-aw": "q=Ind(AW) equals the weighted core-EP inverse",
    "corpus.reductions.q-ge-k": "every q >= k equals the weighted core-EP inverse",
    "corpus.representations.product-forms": "both product expressions match",
    "corpus.representations.via-square": "square-inverse route matches",
    "corpus.representations.canonical": "canonical block form matches",
    "corpus.representations.canonical-products": "block forms of both products match",
    "corpus.properties.range-null": "range and null space of the inverse match the projector product",
    "corpus.properties.adjoint-range": "range and null space via the adjoint product",
    "corpus.properties.power-range": "range and null space via the power product",
    "corpus.properties.range-subset": "range contained in the range of the q-th power",
    "corpus.properties.projector-fix": "the range projector fixes the inverse",
    "corpus.properties.outer-representation": "outer inverse with prescribed range and null space",
    "corpus.properties.left-projector": "left sandwich product is the stated oblique projector",
    "corpus.properties.right-projector": "right sandwich product is the stated oblique projector",
    "corpus.wdrazin.equations": "weighted Drazin equations and dual products",
    "corpus.wcep.system": "weighted core-EP system and companion identities",
    "corpus.cline-shift": "shift identity between the two products",
    "corpus.k1.core-remark": "index-one pairs collapse q=1 onto the weighted core-EP inverse",
    "corpus.decomposition.roundtrip": "decomposition recomposes both inputs",
    "corpus.decomposition.aw-block": "block triangular form of the product",
    "corpus.decomposition.nilpotent": "trailing blocks multiply to nilpotents of the stated indices",
    "corpus.decomposition.z-identity": "projector-difference simplification of the inner Gram factor",
    "corpus.decomposition.block-pinv": "closed-form block pseudoinverse matches the SVD route",
    "corpus.decomposition.square-canonical": "square canonical form matches the direct inverse",
    "corpus.classical.five-way": "equivalent equation systems for the square inverse",
    "corpus.classical.outer": "square inverse as outer inverse with prescribed spaces",
    "corpus.classical.reductions": "square-family reductions at q=0, 1 and q>=index",
    "corpus.exact.float-agreement": "float path agrees with the exact rational path",
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    residuals maps measurement names to nonnegative reals; passed is
    decided by the runner (residuals below threshold, or gaps above the
    floor for expected-inequality checks).
    """

    check_id: str
    passed: bool
    residuals: dict[str, float]
    detail: str = ""


@dataclass(frozen=True)
class ConformanceReport:
    """A set of check results with the seed and tolerance that produced it."""

    results: tuple[CheckResult, ...]
    corpus_seed: int
    tolerance: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        ids = [r.check_id for r in self.results]
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise DomainError(f"duplicate check ids in report: {sorted(dupes)}")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            worst = max(r.residuals.values()) if r.residuals else 0.0
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.check_id} worst={worst:.3e}"
            if r.detail:
                line += f" ({r.detail})"
            lines.append(line)
        lines.append(f"{'PASS' if self.passed else 'FAIL'} "
                     f"{len(self.results) - len(self.failures())}/{len(self.results)} checks")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "corpus_seed": self.corpus_seed,
            "tolerance": {
                "rank_rtol": self.tolerance.rank_rtol,
                "residual_atol": self.tolerance.residual_atol,
            },
            "passed": self.passed,
            "results": [
                {
                    "check_id": r.check_id,
                    "passed": r.passed,
                    "residuals": r.residuals,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _make(check_id: str, passed: bool, residuals: dict[str, float],
          detail: str = "") -> CheckResult:
    if check_id not in CHECK_REGISTRY:
        raise DomainError(f"check id {check_id!r} is not registered")
    return CheckResult(check_id=check_id, passed=bool(passed),
                       residuals={k: float(v) for k, v in residuals.items()},
                       detail=detail)


def _residual_check(check_id: str, residuals: dict[str, float], threshold: float,
                    detail: str = "") -> CheckResult:
    passed = all(v <= threshold for v in residuals.values())
    return _make(check_id, passed, residuals, detail)


def _gap_check(check_id: str, gaps: dict[str, float], floor: float,
               detail: str = "") -> CheckResult:
    passed = all(v >= floor for v in gaps.values())
    return _make(check_id, passed, gaps, detail)


def _rel(x, y, den: float | None = None) -> float:
    """Frobenius distance normalized by max(1, den or |y|)."""
    d = den if den is not None else frobenius(y)
    return frobenius(np.asarray(x) - np.asarray(y)) / max(1.0, d)


def _range_defect(x, gen, tol: Tolerances, scale: float | None = None) -> float:
    """How far R(x) sticks out of R(gen): |(I - P_gen) x| / max(1, |x|)."""
    p = proj_range(gen, tol, scale=scale)
    return frobenius(x - p @ x) / max(1.0, frobenius(x))


def _null_defect(gen, x, tol: Tolerances, scale: float | None = None) -> float:
    """How far N(gen) sticks out of N(x): |x (I - Q_gen)| / max(1, |x|)."""
    q = proj_corange(gen, tol, scale=scale)
    eye = np.eye(q.shape[0], dtype=np.complex128)
    return frobenius(x @ (eye - q)) / max(1.0, frobenius(x))


def _set_eq_flags(x, gen, tol: Tolerances, scale: float | None = None) -> float:
    """0.0 if R(x) = R(gen) and N(x) = N(gen) by rank tests, else 1.0."""
    ok = (range_contained(x, gen, tol, scale=scale)
          and range_contained(gen, x, tol, scale=scale)
          and nullspace_contained(gen, x, tol, scale=scale)
          and nullspace_contained(x, gen, tol, scale=scale))
    return 0.0 if ok else 1.0


def _proj_eq_residuals(p_mat, range_gen, null_gen, tol: Tolerances,
                       scale_r: float | None, scale_n: float | None) -> dict[str, float]:
    """Residuals for 'p_mat is idempotent with R = R(range_gen), N = N(null_gen)'."""
    idem = _rel(p_mat @ p_mat, p_mat, max(1.0, frobenius(p_mat)))
    ok_r = (range_contained(p_mat, range_gen, tol, scale=scale_r)
            and range_contained(range_gen, p_mat, tol, scale=scale_r))
    ok_n = (nullspace_contained(null_gen, p_mat, tol, scale=scale_n)
            and nullspace_contained(p_mat, null_gen, tol, scale=scale_n))
    return {
        "idempotent": idem,
        "range_set_mismatch": 0.0 if ok_r else 1.0,
        "null_set_mismatch": 0.0 if ok_n else 1.0,
    }


def _exact_flag(got, rows) -> float:
    """0.0 if the exact matrix equals the fraction table, else 1.0."""
    return 0.0 if requal(got, ref.exact_matrix(rows)) else 1.0


# --------------------------------------------------------------------------
# reference-pair checks


def _value_check(check_id: str, float_x, exact_x, rows, atol: float,
                 detail: str) -> CheckResult:
    table = ref.float_matrix(rows)
    return _residual_check(
        check_id,
        {"float": _rel(float_x, table), "exact_mismatch": _exact_flag(exact_x, rows)},
        atol, detail)


def _stein_pair() -> tuple[np.ndarray, np.ndarray]:
    """A deterministic integer pair with W A W = A and W != identity."""
    s = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.complex128)
    s_inv = np.array([[1, -1, 1], [0, 1, -1], [0, 0, 1]], dtype=np.complex128)
    a = s @ np.diag([2.0, 1.0, 0.0]).astype(np.complex128) @ s_inv
    w = s @ np.diag([1.0, 1.0, -1.0]).astype(np.complex128) @ s_inv
    return a, w


def run_example_checks(tol: Tolerances | None = None) -> ConformanceReport:
    """Run every reference-pair check on both the float and exact paths."""
    tol = resolve_tol(tol)
    atol = tol.residual_atol
    results: list[CheckResult] = []

    fa, fw = ref.pair_4x3_float()
    ea, ew = ref.pair_4x3_exact()
    p = WeightedPair.from_matrices(fa, fw, tol)
    got_idx = (p.ind_aw, p.ind_wa, p.k)
    exact_idx = exact_pair_index(ea, ew)
    results.append(_residual_check(
        "examples.pair4x3.indices",
        {"float_mismatch": 0.0 if got_idx == ref.INDICES_4X3 else 1.0,
         "exact_mismatch": 0.0 if exact_idx == ref.INDICES_4X3 else 1.0},
        atol, f"expected {ref.INDICES_4X3}, float {got_idx}, exact {exact_idx}"))

    for q, table in sorted(ref.WQBT_4X3.items()):
        results.append(_value_check(
            f"examples.pair4x3.wqbt.q{q}",
            weighted_qbt(p, q, tol), exact_weighted_qbt(ea, ew, q), table,
            atol, f"4x3 pair, q={q}"))

    aw, wa = fa @ fw, fw @ fa
    eaw = _matmul(ea, ew)
    ewa = _matmul(ew, ea)
    for q in (1, 2, 3):
        x_aw = qbt_inverse(aw, q, tol)
        x_wa = qbt_inverse(wa, q, tol)
        ex_aw = exact_qbt(eaw, q)
        ex_wa = exact_qbt(ewa, q)
        results.append(_residual_check(
            f"examples.pair4x3.square-products.q{q}",
            {"left_float": _rel(x_aw @ x_aw @ fa,
                                ref.float_matrix(ref.AW_SQ_PRODUCT_4X3[q])),
             "left_exact_mismatch": _exact_flag(
                 _matmul(_matmul(ex_aw, ex_aw), ea), ref.AW_SQ_PRODUCT_4X3[q]),
             "right_float": _rel(fa @ x_wa @ x_wa,
                                 ref.float_matrix(ref.WA_SQ_PRODUCT_4X3[q])),
             "right_exact_mismatch": _exact_flag(
                 _matmul(ea, _matmul(ex_wa, ex_wa)), ref.WA_SQ_PRODUCT_4X3[q])},
            atol, f"both squared products, q={q}"))

    for q in (1, 2):
        x, lft, rgt = dual_representation_gap(p, q, tol)
        results.append(_gap_check(
            f"examples.pair4x3.dual-gap.q{q}",
            {"x_vs_left": frobenius(x - lft),
             "x_vs_right": frobenius(x - rgt),
             "left_vs_right": frobenius(lft - rgt)},
            EXAMPLE_GAP_FLOOR, f"pairwise distinct at q={q}"))
    x, lft, rgt = dual_representation_gap(p, 3, tol)
    results.append(_make(
        "examples.pair4x3.dual-gap.q3",
        _rel(x, rgt) <= atol and frobenius(x - lft) >= EXAMPLE_GAP_FLOOR,
        {"x_vs_right": _rel(x, rgt), "x_vs_left_gap": frobenius(x - lft)},
        "right product agrees at q=3, left product does not"))

    red = run_reduction_checks(p, tol)
    results.append(_residual_check(
        "examples.pair4x3.reductions",
        {r.check_id.rsplit(".", 1)[-1] + "_" + k: v
         for r in red for k, v in r.residuals.items()},
        atol, "reduction identities on the 4x3 pair"))

    fa5, fw5 = ref.pair_5x4_float()
    ea5, ew5 = ref.pair_5x4_exact()
    p5 = WeightedPair.from_matrices(fa5, fw5, tol)
    exact_idx5 = exact_pair_index(ea5, ew5)
    got_idx5 = (p5.ind_aw, p5.ind_wa, p5.k)
    results.append(_residual_check(
        "examples.pair5x4.indices",
        {"float_mismatch": 0.0 if got_idx5 == ref.INDICES_5X4 else 1.0,
         "exact_mismatch": 0.0 if exact_idx5 == ref.INDICES_5X4 else 1.0},
        atol, f"expected {ref.INDICES_5X4}, float {got_idx5}, exact {exact_idx5}"))

    x0 = weighted_qbt(p5, 1, tol)
    aw5 = fa5 @ fw5
    q_aw = proj_corange(aw5, tol)
    cand = q_aw @ x0 + (np.eye(5, dtype=np.complex128) - q_aw) @ conjugate_transpose(fw5)
    waw5 = fw5 @ fa5 @ fw5
    eq1 = _rel(cand @ waw5 @ cand, cand, max(1.0, frobenius(cand)))
    eq3 = _rel(aw5 @ cand, aw5 @ x0)
    xwa = cand @ fw5 @ fa5
    x0wa = x0 @ fw5 @ fa5
    gap = frobenius(xwa - x0wa)
    entry_gap = abs(xwa[0, 0] - x0wa[0, 0])
    expected_entry_gap = float(Fraction(3, 5) - Fraction(1, 3))
    results.append(_make(
        "examples.pair5x4.counterexample",
        eq1 <= atol and eq3 <= atol and gap >= EXAMPLE_GAP_FLOOR
        and _rel(xwa, ref.float_matrix(ref.XWA_5X4)) <= atol
        and _rel(x0wa, ref.float_matrix(ref.X0WA_5X4)) <= atol
        and abs(entry_gap - expected_entry_gap) <= atol,
        {"eq1": eq1, "eq3": eq3, "product_gap": gap,
         "xwa_table": _rel(xwa, ref.float_matrix(ref.XWA_5X4)),
         "x0wa_table": _rel(x0wa, ref.float_matrix(ref.X0WA_5X4)),
         "corner_entry_gap": entry_gap},
        "5x4 pair, q=1: two equations hold, the product equation fails"))

    sa, sw_ = _stein_pair()
    ps = WeightedPair.from_matrices(sa, sw_, tol)
    float_res = _rel(weighted_qbt(ps, 0, tol), pinv(sa, tol))
    e_sa = rmatrix([[int(v.real) for v in row] for row in sa])
    e_sw = rmatrix([[int(v.real) for v in row] for row in sw_])
    exact_ok = requal(exact_weighted_qbt(e_sa, e_sw, 0), exact_pinv(e_sa))
    results.append(_residual_check(
        "examples.stein.mp-reduction",
        {"float": float_res, "exact_mismatch": 0.0 if exact_ok else 1.0,
         "sandwich_is_a": _rel(sw_ @ sa @ sw_, sa)},
        atol, "integer pair with W A W = A"))

    return ConformanceReport(results=tuple(results), corpus_seed=0, tolerance=tol)


# --------------------------------------------------------------------------
# characterization systems


def _system_residuals(p: WeightedPair, q: int, tol: Tolerances,
                      candidate: np.ndarray | None) -> dict[str, dict[str, float]]:
    """Residuals of all four characterizing systems, keyed by system name."""
    a, w = p.a, p.w
    aw = a @ w
    wa = w @ a
    waw = w @ a @ w
    sa, sw = p.sigma_max_a, p.sigma_max_w
    s_waw = sw * sa * sw
    x0 = weighted_qbt(p, q, tol)
    x = x0 if candidate is None else np.asarray(candidate, dtype=np.complex128)
    pq = proj_range(power(aw, q), tol, scale=(sa * sw) ** q)
    nx = max(1.0, frobenius(x))
    range_gen = pq @ conjugate_transpose(waw)
    return {
        "definition": {
            "eq1": _rel(x @ waw @ x, x, nx),
            "eq2": _rel(x @ wa, x0 @ wa),
            "eq3": _rel(aw @ x, aw @ x0),
        },
        "range-form": {
            "projector_eq": _rel(pq @ x, x0),
            "range_cond": frobenius(x - pq @ x) / nx,
        },
        "left-product": {
            "product_eq": _rel(aw @ x, aw @ x0),
            "range_cond": _range_defect(x, range_gen, tol, scale=s_waw),
        },
        "right-product": {
            "product_eq": _rel(x @ wa, x0 @ wa),
            "null_cond": _null_defect(range_gen, x, tol, scale=s_waw),
        },
    }


def run_system_checks(p: WeightedPair, q: int, tol: Tolerances | None = None,
                      candidate: np.ndarray | None = None) -> list[CheckResult]:
    """One CheckResult per equation of each of the four characterizing
    systems, evaluated for the computed inverse or a supplied candidate."""
    tol = resolve_tol(tol)
    atol = tol.residual_atol
    detail = f"{p.shape[0]}x{p.shape[1]} pair, q={q}" + \
        ("" if candidate is None else ", supplied candidate")
    out = []
    for system, eqs in _system_residuals(p, q, tol, candidate).items():
        for name, value in eqs.items():
            out.append(CheckResult(
                check_id=f"system.{system}.{name}",
                passed=value <= atol,
                residuals={name: float(value)},
                detail=detail))
    return out


def run_reduction_checks(p: WeightedPair, tol: Tolerances | None = None) -> list[CheckResult]:
    """Reduction identities: q=0, q=1, q=Ind(AW), and every q >= k."""
    tol = resolve_tol(tol)
    atol = tol.residual_atol
    a, w = p.a, p.w
    aw, wa = a @ w, w @ a
    sa, sw = p.sigma_max_a, p.sigma_max_w
    out = []

    x0 = weighted_qbt(p, 0, tol)
    out.append(CheckResult(
        "reduction.q0", _rel(x0, pinv(w @ a @ w, tol, scale=sw * sa * sw)) <= atol,
        {"vs_pinv": _rel(x0, pinv(w @ a @ w, tol, scale=sw * sa * sw))},
        "q=0 equals the pseudoinverse of the sandwich product"))

    x1 = weighted_qbt(p, 1, tol)
    f1, f2 = weighted_qbt_product_forms(p, 1, tol)
    res1 = {
        "eq1": _rel(x1 @ w @ a @ w @ x1, x1, max(1.0, frobenius(x1))),
        "eq2": _rel(x1 @ wa, f1 @ wa),
        "eq3": _rel(aw @ x1, aw @ f2),
    }
    out.append(CheckResult(
        "reduction.q1", all(v <= atol for v in res1.values()), res1,
        "q=1 satisfies the one-step defining equations"))

    cep = weighted_core_ep(p, tol)
    xi = weighted_qbt(p, p.ind_aw, tol)
    out.append(CheckResult(
        "reduction.ind-aw", _rel(xi, cep) <= atol, {"vs_core_ep": _rel(xi, cep)},
        f"q=Ind(AW)={p.ind_aw}"))

    res_k = {f"q{q}": _rel(weighted_qbt(p, q, tol), cep)
             for q in range(p.k, p.k + 3)}
    out.append(CheckResult(
        "reduction.q-ge-k", all(v <= atol for v in res_k.values()), res_k,
        f"k={p.k}"))
    return out


# --------------------------------------------------------------------------
# random-corpus runner


class _Worst:
    """Aggregates the worst (largest) residuals seen per measurement name."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.where: str = ""
        self._peak = -1.0

    def update(self, residuals: dict[str, float], where: str):
        for k, v in residuals.items():
            v = float(v)
            if k not in self.values or v > self.values[k]:
                self.values[k] = v
            if v > self._peak:
                self._peak = v
                self.where = where

    def check(self, check_id: str, threshold: float, detail: str = "") -> CheckResult:
        note = f"worst at {self.where}" if self.where else "no applicable member"
        if detail:
            note = f"{detail}; {note}"
        return _residual_check(check_id, self.values or {"none": 0.0}, threshold, note)


class _Best:
    """Aggregates the smallest gap seen per measurement name."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.where: str = ""

    def update(self, gaps: dict[str, float], where: str):
        for k, v in gaps.items():
            v = float(v)
            if k not in self.values or v < self.values[k]:
                self.values[k] = v
                self.where = where

    def check(self, check_id: str, floor: float, detail: str = "") -> CheckResult:
        note = f"smallest at {self.where}" if self.where else "no applicable member"
        if detail:
            note = f"{detail}; {note}"
        return _gap_check(check_id, self.values or {"none": floor}, floor, note)


def _corpus_member_checks(p: WeightedPair, integer: bool, planted_k: int,
                          where: str, tol: Tolerances,
                          rng: np.random.Generator, agg: dict):
    """Run every per-member suite and fold residuals into the aggregators."""
    a, w = p.a, p.w
    m, n = p.shape
    k = p.k
    aw, wa, waw = a @ w, w @ a, w @ a @ w
    sa, sw = p.sigma_max_a, p.sigma_max_w
    s_waw = sw * sa * sw
    s_waw_m = sigma_max(waw)
    s_aw_m = sigma_max(aw)
    agg["corpus.pair-validity"].update(
        {"index_mismatch": 0.0 if k == planted_k else 1.0}, where)

    # reductions (worst case across members)
    for r in run_reduction_checks(p, tol):
        suffix = r.check_id.split(".", 1)[1]
        agg[f"corpus.reductions.{suffix}"].update(r.residuals, where)

    # weighted Drazin equations and dual representations
    xd = weighted_drazin(p, tol)
    awd = drazin(aw, tol)
    wad = drazin(wa, tol)
    agg["corpus.wdrazin.equations"].update({
        "eq1": _rel(xd @ w @ a @ w @ xd, xd, max(1.0, frobenius(xd))),
        "eq2": _rel(aw @ xd, xd @ wa),
        "eq3": _rel(xd @ w @ power(aw, k + 1), power(aw, k), (sa * sw) ** k),
        "left_product": _rel(xd, awd @ awd @ a),
        "right_product": _rel(xd, a @ wad @ wad),
        "shift_left": _rel(xd @ w, awd),
        "shift_right": _rel(w @ xd, wad),
    }, where)

    # weighted core-EP system and companion identities
    cep = weighted_core_ep(p, tol)
    pk_wa = proj_range(power(wa, k), tol, scale=(sw * sa) ** k)
    pk_aw = proj_range(power(aw, k), tol, scale=(sa * sw) ** k)
    wa_cep = core_ep(wa, tol)
    aw_cep = core_ep(aw, tol)
    agg["corpus.wcep.system"].update({
        "sandwich_eq": _rel(waw @ cep, pk_wa),
        "range_cond": frobenius(cep - pk_aw @ cep) / max(1.0, frobenius(cep)),
        "via_square": _rel(cep, a @ wa_cep @ wa_cep),
        "left_compress": _rel(cep @ w @ pk_aw, aw_cep),
        "right_compress": _rel(pk_wa @ w @ cep, wa_cep),
    }, where)

    # shift identity
    for ell in range(1, k + 3):
        ok = cline_shift_check(p, ell, tol)
        agg["corpus.cline-shift"].update({"flag": 0.0 if ok else 1.0},
                                         f"{where} ell={ell}")

    if k == 1:
        agg["corpus.k1.core-remark"].update(
            {"q1_vs_core_ep": _rel(weighted_qbt(p, 1, tol), cep)}, where)

    # decomposition suites (once per member)
    d = weighted_core_ep_decompose(p, tol)
    agg["corpus.decomposition.roundtrip"].update({
        "matrix": _rel(d.compose_a(), a, max(1.0, sa)),
        "weight": _rel(d.compose_w(), w, max(1.0, sw)),
    }, where)
    t = d.t_dim
    mid_aw = np.zeros((m, m), dtype=np.complex128)
    mid_aw[:t, :t] = d.a1 @ d.w1
    mid_aw[:t, t:] = d.a1 @ d.w2 + d.a2 @ d.w3
    mid_aw[t:, t:] = d.a3 @ d.w3
    agg["corpus.decomposition.aw-block"].update(
        {"aw": _rel(d.u @ mid_aw @ conjugate_transpose(d.u), aw, max(1.0, sa * sw))},
        where)
    agg["corpus.decomposition.nilpotent"].update({
        "left": frobenius(power(d.a3 @ d.w3, p.ind_aw)) / max(1.0, (sa * sw) ** p.ind_aw),
        "right": frobenius(power(d.w3 @ d.a3, p.ind_wa)) / max(1.0, (sw * sa) ** p.ind_wa),
    }, where)
    agg["corpus.decomposition.block-pinv"].update(
        {"vs_svd": _rel(block_pinv(d.u, d.v, d.a1, d.a2, d.a3, tol, scale=sa,
                                   a3_rank=rank(a, tol) - t),
                        pinv(a, tol))},
        where)

    d_aw = core_ep_decompose(aw, tol)

    q_grid = range(0, k + 2)
    for q in q_grid:
        where_q = f"{where} q={q}"
        x = weighted_qbt(p, q, tol)
        nx = max(1.0, frobenius(x))
        pq = proj_range(power(aw, q), tol, scale=(sa * sw) ** q)
        awq1 = power(aw, q + 1)
        s_awq1_m = sigma_max(awq1)
        awq1_h = conjugate_transpose(awq1)
        range_gen = pq @ conjugate_transpose(waw)
        null_gen = awq1_h @ conjugate_transpose(w)
        # anchors for set predicates: measured factor norms, not powers of
        # norm bounds, so the cutoff tracks the actual magnitudes instead of
        # compounding worst-case overestimates across q
        anchor_rg = _CHAIN_MARGIN * s_waw_m
        anchor_ng = _CHAIN_MARGIN * s_awq1_m * sw

        sysres = _system_residuals(p, q, tol, None)
        agg["corpus.system.definition"].update(sysres["definition"], where_q)
        agg["corpus.system.range-form"].update(sysres["range-form"], where_q)
        agg["corpus.system.left-product"].update(sysres["left-product"], where_q)
        agg["corpus.system.right-product"].update(sysres["right-product"], where_q)

        # a perturbed candidate must visibly violate every complete system
        noise = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        noise *= _PERTURBATION * max(1.0, frobenius(x)) / frobenius(noise)
        pert = _system_residuals(p, q, tol, x + noise)
        for system in ("definition", "range-form", "left-product", "right-product"):
            agg[f"corpus.uniqueness.{system}"].update(
                {"max_violation": max(pert[system].values())}, where_q)

        # representations
        f1, f2 = weighted_qbt_product_forms(p, q, tol)
        agg["corpus.representations.product-forms"].update(
            {"left_form": _rel(f1, x), "right_form": _rel(f2, x)}, where_q)
        agg["corpus.representations.via-square"].update(
            {"via_square": _rel(weighted_qbt_via_square(p, q, tol), x)}, where_q)
        xc, _parts = canonical_weighted_qbt(d, q, tol)
        agg["corpus.representations.canonical"].update(
            {"canonical": _rel(xc, x)}, where_q)
        c_aw, c_wa = canonical_qbt_products(d, q, tol)
        agg["corpus.representations.canonical-products"].update(
            {"left": _rel(c_aw, qbt_inverse(aw, q, tol)),
             "right": _rel(c_wa, qbt_inverse(wa, q, tol))}, where_q)

        # range / null-space properties
        agg["corpus.properties.range-null"].update({
            "range_defect": _range_defect(x, range_gen, tol, scale=anchor_rg),
            "null_defect": _null_defect(range_gen, x, tol, scale=anchor_rg),
            "set_mismatch": _set_eq_flags(x, range_gen, tol, scale=anchor_rg),
        }, where_q)
        aw_qbt = qbt_inverse(aw, q, tol)
        inner = pinv(aw_qbt, tol)
        adj_gen = conjugate_transpose(inner) @ conjugate_transpose(w)
        agg["corpus.properties.adjoint-range"].update(
            {"set_mismatch": _set_eq_flags(x, adj_gen, tol,
                                           scale=_CHAIN_MARGIN * sigma_max(inner) * sw)},
            where_q)
        pq_pinv = pinv(power(aw, q), tol, scale=(sa * sw) ** q)
        pow_anchor = _CHAIN_MARGIN * sigma_max(pq_pinv) * s_awq1_m * sw
        pow_gen = conjugate_transpose(pq_pinv) @ null_gen
        agg["corpus.properties.power-range"].update({
            "range_mismatch": 0.0 if (
                range_contained(x, pow_gen, tol, scale=pow_anchor)
                and range_contained(pow_gen, x, tol, scale=pow_anchor)
            ) else 1.0,
            "null_mismatch": 0.0 if (
                nullspace_contained(null_gen, x, tol, scale=anchor_ng)
                and nullspace_contained(x, null_gen, tol, scale=anchor_ng)
            ) else 1.0,
        }, where_q)
        agg["corpus.properties.range-subset"].update(
            {"defect": frobenius(x - pq @ x) / nx}, where_q)
        agg["corpus.properties.projector-fix"].update(
            {"fix": _rel(pq @ x, x, nx)}, where_q)
        agg["corpus.properties.outer-representation"].update({
            "outer_eq": _rel(x @ waw @ x, x, nx),
            "spaces_flag": 0.0 if outer_inverse_check(
                waw, x, range_gen, null_gen, tol,
                scale=max(anchor_rg, anchor_ng)) else 1.0,
        }, where_q)
        agg["corpus.properties.left-projector"].update(
            _proj_eq_residuals(
                waw @ x, w @ inner @ conjugate_transpose(waw), null_gen, tol,
                scale_r=_CHAIN_MARGIN * sw * sigma_max(inner) * s_waw_m,
                scale_n=anchor_ng),
            where_q)
        agg["corpus.properties.right-projector"].update(
            _proj_eq_residuals(
                x @ waw, range_gen, null_gen @ waw, tol,
                scale_r=anchor_rg,
                scale_n=_CHAIN_MARGIN * s_awq1_m * sw * s_waw_m),
            where_q)

        # square-family checks on the product AW
        s_aw = sa * sw
        y = pinv(aw @ proj_range(power(aw, q), tol, scale=s_aw ** q), tol, scale=s_aw)
        agg["corpus.classical.five-way"].update({
            "outer_eq": _rel(aw_qbt @ aw @ aw_qbt, aw_qbt, max(1.0, frobenius(aw_qbt))),
            "left_eq": _rel(aw @ aw_qbt, aw @ y),
            "right_eq": _rel(aw_qbt @ aw, y @ aw),
        }, where_q)
        pq_aw = proj_range(power(aw, q), tol, scale=s_aw ** q)
        aq1_h = awq1_h
        inner_aw = pinv(aw_qbt, tol)
        left_proj = _proj_eq_residuals(
            aw @ aw_qbt, inner_aw @ conjugate_transpose(aw), aq1_h, tol,
            scale_r=_CHAIN_MARGIN * sigma_max(inner_aw) * s_aw_m,
            scale_n=_CHAIN_MARGIN * s_awq1_m)
        right_proj = _proj_eq_residuals(
            aw_qbt @ aw, pq_aw @ conjugate_transpose(aw), aq1_h @ aw, tol,
            scale_r=_CHAIN_MARGIN * s_aw_m,
            scale_n=_CHAIN_MARGIN * s_awq1_m * s_aw_m)
        agg["corpus.classical.outer"].update({
            "outer_flag": 0.0 if outer_inverse_check(
                aw, aw_qbt, pq_aw @ conjugate_transpose(aw), aq1_h, tol,
                scale=_CHAIN_MARGIN * s_awq1_m * s_aw_m) else 1.0,
            "left_idem": left_proj["idempotent"],
            "left_sets": max(left_proj["range_set_mismatch"],
                             left_proj["null_set_mismatch"]),
            "right_idem": right_proj["idempotent"],
            "right_sets": max(right_proj["range_set_mismatch"],
                              right_proj["null_set_mismatch"]),
        }, where_q)

        # square canonical form
        agg["corpus.decomposition.square-canonical"].update(
            {"canonical": _rel(canonical_qbt(d_aw, q, tol), aw_qbt)}, where_q)

        # inner Gram simplification of the canonical construction
        nil_a, nil_w = d.a3, d.w3
        x3 = _wqbt_raw(nil_a, nil_w, q, tol, scale_a=sa, scale_w=sw)
        p3q = proj_range(power(nil_a @ nil_w, q), tol, scale=(sa * sw) ** q,
                         fixed_rank=d.power_rank_aw(q) - t)
        inner_mat = nil_w @ nil_a @ nil_w @ p3q
        q_inner = proj_corange(inner_mat, tol, scale=s_waw,
                               fixed_rank=_wqbt_rank(nil_a, nil_w, q, tol, sa, sw))
        z = p3q @ (np.eye(q_inner.shape[0], dtype=np.complex128) - q_inner) @ p3q
        agg["corpus.decomposition.z-identity"].update(
            {"z": _rel(z, p3q - proj_range(x3, tol), 1.0)}, where_q)

    # classical reductions for the square product
    ind_aw = p.ind_aw
    agg["corpus.classical.reductions"].update({
        "q0": _rel(qbt_inverse(aw, 0, tol), pinv(aw, tol)),
        "q_ind": _rel(qbt_inverse(aw, ind_aw, tol), core_ep(aw, tol)),
        "q_beyond": _rel(qbt_inverse(aw, ind_aw + 1, tol), core_ep(aw, tol)),
    }, where)

    # exact-path agreement on integer members
    if integer:
        ea = rmatrix([[complex(v) for v in row] for row in a])
        ew = rmatrix([[complex(v) for v in row] for row in w])
        for q in (1, k):
            ex = float_of(exact_weighted_qbt(ea, ew, q))
            agg["corpus.exact.float-agreement"].update(
                {"float_vs_exact": _rel(weighted_qbt(p, q, tol), ex)},
                f"{where} q={q}")


def run_random_corpus(seed: int, count: int, max_dim: int = 8,
                      tol: Tolerances | None = None) -> ConformanceReport:
    """Run every invariant suite over a deterministic seeded corpus.

    Each registered corpus check appears once, carrying the worst residual
    observed over all members and all applicable exponents.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if max_dim < 2:
        raise DomainError(f"max_dim must be >= 2, got {max_dim}")
    tol = resolve_tol(tol)
    atol = tol.residual_atol
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5eed]))
    agg: dict[str, _Worst] = {
        cid: _Worst() for cid in CHECK_REGISTRY if cid.startswith("corpus.")
        and not cid.startswith("corpus.uniqueness.")
    }
    gaps: dict[str, _Best] = {
        cid: _Best() for cid in CHECK_REGISTRY if cid.startswith("corpus.uniqueness.")
    }
    agg.update(gaps)

    for i, member in enumerate(random_pairs(seed, count, max_dim)):
        p = member.to_weighted(tol)
        where = f"member {i} (k={member.planted_index}, " \
                f"{'integer' if member.integer_entries else 'float'})"
        try:
            _corpus_member_checks(p, member.integer_entries, member.planted_index,
                                  where, tol, rng, agg)
        except (DomainError, ShapeError, NumericError, DecompositionError) as exc:
            # a member that crashes a library routine is a failure of that
            # member, not of the whole run
            agg["corpus.pair-validity"].update(
                {"library_error": float("inf")}, f"{where}: {exc}")

    results = []
    for cid in sorted(agg):
        if cid.startswith("corpus.uniqueness."):
            results.append(agg[cid].check(cid, CORPUS_GAP_FLOOR,
                                          CHECK_REGISTRY[cid]))
        else:
            results.append(agg[cid].check(cid, atol, CHECK_REGISTRY[cid]))
    return ConformanceReport(results=tuple(results), corpus_seed=seed, tolerance=tol)


def run_all(seed: int = 1, count: int = 100, max_dim: int = 8,
            tol: Tolerances | None = None) -> ConformanceReport:
    """Reference-pair checks plus the full random-corpus run, merged."""
    tol = resolve_tol(tol)
    ex = run_example_checks(tol)
    co = run_random_corpus(seed, count, max_dim, tol)
    return ConformanceReport(results=ex.results + co.results,
                             corpus_seed=seed, tolerance=tol)


__all__ = [
    "CHECK_REGISTRY",
    "CORPUS_GAP_FLOOR",
    "EXAMPLE_GAP_FLOOR",
    "CheckResult",
    "ConformanceReport",
    "run_example_checks",
    "run_system_checks",
    "run_reduction_checks",
    "run_random_corpus",
    "run_all",
]
