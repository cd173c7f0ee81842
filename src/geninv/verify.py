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
from numpy.linalg import matrix_power

from . import reference as ref
from .classical import _outer_inverse_check, drazin, qbt_inverse
from .corpus import random_pairs
from .decomposition import (block_pinv, canonical_qbt, canonical_qbt_products,
                            canonical_weighted_qbt, core_ep_decompose,
                            weighted_core_ep_decompose)
from .errors import (DecompositionError, DomainError, NumericError, ShapeError)
from .exact import (_matmul, exact_pair_index, exact_pinv, exact_qbt,
                    exact_weighted_qbt, float_of, requal, rmatrix)
from . import matrix
from .matrix import Tolerances, frobenius, rel, resolve_tol
from .projectors import _Factored, _nullspace_equal, _range_equal, pinv
from .weighted import (WeightedPair, _wqbt_rank, _wqbt_raw, cline_shift_check,
                       dual_representation_gap, weighted_drazin, weighted_qbt,
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
    "corpus.reductions.q-ge-k": "R((AW)^q) stays R((AW)^k) for every q >= k",
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
            "tolerance": {"residual_atol": self.tolerance.residual_atol},
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


def _flag(ok: bool) -> float:
    """0.0 if a predicate holds, else 1.0."""
    return 0.0 if ok else 1.0


def _null_defect(q_gen, x) -> float:
    """How far N(gen) sticks out of N(x), for Q = q_gen the projector onto
    R(gen*): |x (I - Q)| / max(1, |x|)."""
    eye = np.eye(q_gen.shape[0], dtype=np.complex128)
    return frobenius(x @ (eye - q_gen)) / max(1.0, frobenius(x))


def _set_eq_flags(x: _Factored, gen: _Factored, scale: float) -> float:
    """0.0 if R(x) = R(gen) and N(x) = N(gen) by rank tests, else 1.0."""
    return _flag(_range_equal(x, gen, scale) and _nullspace_equal(x, gen, scale))


def _proj_eq_residuals(p_mat: _Factored, range_gen: _Factored, null_gen: _Factored,
                       scale_r: float, scale_n: float) -> dict[str, float]:
    """Residuals for 'p_mat is idempotent with R = R(range_gen), N = N(null_gen)'."""
    pm = p_mat.a
    return {
        "idempotent": rel(pm @ pm, pm),
        "range_set_mismatch": _flag(_range_equal(p_mat, range_gen, scale_r)),
        "null_set_mismatch": _flag(_nullspace_equal(p_mat, null_gen, scale_n)),
    }


def _exact_flag(got, rows) -> float:
    """0.0 if the exact matrix equals the fraction table, else 1.0."""
    return _flag(requal(got, ref.exact_matrix(rows)))


# --------------------------------------------------------------------------
# reference-pair checks


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
    pairs, indices = {}, {}
    for name, (fa, fw), (ea, ew), expected in (
            ("pair4x3", ref.pair_4x3_float(), ref.pair_4x3_exact(), ref.INDICES_4X3),
            ("pair5x4", ref.pair_5x4_float(), ref.pair_5x4_exact(), ref.INDICES_5X4)):
        p = WeightedPair.from_matrices(fa, fw)
        got, exact = (p.ind_aw, p.ind_wa, p.k), exact_pair_index(ea, ew)
        pairs[name] = p, ea, ew
        indices[name] = _residual_check(
            f"examples.{name}.indices",
            {"float_mismatch": _flag(got == expected), "exact_mismatch": _flag(exact == expected)},
            atol, f"expected {expected}, float {got}, exact {exact}")
    results = [indices["pair4x3"]]

    p, ea, ew = pairs["pair4x3"]
    xs = [weighted_qbt(p, q) for q in range(p.k + 1)]
    for q, table in sorted(ref.WQBT_4X3.items()):
        results.append(_residual_check(
            f"examples.pair4x3.wqbt.q{q}",
            {"float": rel(xs[min(q, p.k)], ref.float_matrix(table)),
             "exact_mismatch": _exact_flag(exact_weighted_qbt(ea, ew, q), table)},
            atol, f"4x3 pair, q={q}"))

    # dual_representation_gap returns ((AW)^{qbt})^2 A and A ((WA)^{qbt})^2
    # next to the weighted inverse: the squared products of the table
    duals = {q: dual_representation_gap(p, q) for q in (1, 2, 3)}
    eaw = _matmul(ea, ew)
    ewa = _matmul(ew, ea)
    for q, (_, lft, rgt) in duals.items():
        ex_aw = exact_qbt(eaw, q)
        ex_wa = exact_qbt(ewa, q)
        results.append(_residual_check(
            f"examples.pair4x3.square-products.q{q}",
            {"left_float": rel(lft, ref.float_matrix(ref.AW_SQ_PRODUCT_4X3[q])),
             "left_exact_mismatch": _exact_flag(
                 _matmul(_matmul(ex_aw, ex_aw), ea), ref.AW_SQ_PRODUCT_4X3[q]),
             "right_float": rel(rgt, ref.float_matrix(ref.WA_SQ_PRODUCT_4X3[q])),
             "right_exact_mismatch": _exact_flag(
                 _matmul(ea, _matmul(ex_wa, ex_wa)), ref.WA_SQ_PRODUCT_4X3[q])},
            atol, f"both squared products, q={q}"))

    for q in (1, 2):
        x, lft, rgt = duals[q]
        results.append(_gap_check(
            f"examples.pair4x3.dual-gap.q{q}",
            {"x_vs_left": frobenius(x - lft),
             "x_vs_right": frobenius(x - rgt),
             "left_vs_right": frobenius(lft - rgt)},
            EXAMPLE_GAP_FLOOR, f"pairwise distinct at q={q}"))
    x, lft, rgt = duals[3]
    results.append(_make(
        "examples.pair4x3.dual-gap.q3",
        rel(x, rgt) <= atol and frobenius(x - lft) >= EXAMPLE_GAP_FLOOR,
        {"x_vs_right": rel(x, rgt), "x_vs_left_gap": frobenius(x - lft)},
        "right product agrees at q=3, left product does not"))

    s_aw = p.sigma_max_a * p.sigma_max_w
    pk = _Factored(matrix_power(p.a @ p.w, p.k)).proj_range(scale=s_aw ** p.k)
    red = _reduction_residuals(p, xs, weighted_qbt_product_forms(p, 1), pk)
    results.append(_residual_check(
        "examples.pair4x3.reductions",
        {f"{name}_{k}": v for name, res in red.items() for k, v in res.items()},
        atol, "reduction identities on the 4x3 pair"))
    results.append(indices["pair5x4"])

    p5 = pairs["pair5x4"][0]
    fa5, fw5 = p5.a, p5.w
    x0 = weighted_qbt(p5, 1)
    aw5 = fa5 @ fw5
    q_aw = _Factored(aw5).proj_corange()
    cand = q_aw @ x0 + (np.eye(5, dtype=np.complex128) - q_aw) @ fw5.conj().T
    waw5 = fw5 @ fa5 @ fw5
    eq1 = rel(cand @ waw5 @ cand, cand)
    eq3 = rel(aw5 @ cand, aw5 @ x0)
    xwa = cand @ fw5 @ fa5
    x0wa = x0 @ fw5 @ fa5
    gap = frobenius(xwa - x0wa)
    entry_gap = abs(xwa[0, 0] - x0wa[0, 0])
    expected_entry_gap = float(Fraction(3, 5) - Fraction(1, 3))
    results.append(_make(
        "examples.pair5x4.counterexample",
        eq1 <= atol and eq3 <= atol and gap >= EXAMPLE_GAP_FLOOR
        and rel(xwa, ref.float_matrix(ref.XWA_5X4)) <= atol
        and rel(x0wa, ref.float_matrix(ref.X0WA_5X4)) <= atol
        and abs(entry_gap - expected_entry_gap) <= atol,
        {"eq1": eq1, "eq3": eq3, "product_gap": gap,
         "xwa_table": rel(xwa, ref.float_matrix(ref.XWA_5X4)),
         "x0wa_table": rel(x0wa, ref.float_matrix(ref.X0WA_5X4)),
         "corner_entry_gap": entry_gap},
        "5x4 pair, q=1: two equations hold, the product equation fails"))

    sa, sw_ = _stein_pair()
    ps = WeightedPair.from_matrices(sa, sw_)
    float_res = rel(weighted_qbt(ps, 0), pinv(sa))
    e_sa = rmatrix([[int(v.real) for v in row] for row in sa])
    e_sw = rmatrix([[int(v.real) for v in row] for row in sw_])
    results.append(_residual_check(
        "examples.stein.mp-reduction",
        {"float": float_res,
         "exact_mismatch": _flag(requal(exact_weighted_qbt(e_sa, e_sw, 0), exact_pinv(e_sa))),
         "sandwich_is_a": rel(sw_ @ sa @ sw_, sa)},
        atol, "integer pair with W A W = A"))

    return ConformanceReport(results=tuple(results), corpus_seed=0, tolerance=tol)


# --------------------------------------------------------------------------
# characterization systems


def _range_generator(p: WeightedPair, pq: np.ndarray) -> _Factored:
    """P_{(AW)^q} (WAW)*, whose range is R(X) and whose adjoint's null space
    is N(X); one thin SVD serves its projectors and its rank decisions."""
    return _Factored(pq @ (p.w @ p.a @ p.w).conj().T, thin=True)


def _system_residuals(p: WeightedPair, x0: np.ndarray, pq: np.ndarray,
                      range_gen: _Factored,
                      candidates: list[np.ndarray]) -> list[dict[str, dict[str, float]]]:
    """Residuals of all four characterizing systems, keyed by system name,
    for each candidate; x0 is the computed inverse weighted_qbt(p, q), pq
    the projector P_{(AW)^q} and range_gen `_range_generator(p, pq)`, all
    built by the caller."""
    a, w = p.a, p.w
    aw, wa, waw = a @ w, w @ a, w @ a @ w
    s_waw = p.sigma_max_w * p.sigma_max_a * p.sigma_max_w
    p_gen = range_gen.proj_range(scale=s_waw)
    q_gen = range_gen.proj_corange(scale=s_waw)
    out = []
    for x in candidates:
        eq2 = rel(x @ wa, x0 @ wa)
        eq3 = rel(aw @ x, aw @ x0)
        out.append({
            "definition": {"eq1": rel(x @ waw @ x, x),
                           "eq2": eq2, "eq3": eq3},
            "range-form": {"projector_eq": rel(pq @ x, x0),
                           "range_cond": rel(pq @ x, x)},
            "left-product": {"product_eq": eq3, "range_cond": rel(p_gen @ x, x)},
            "right-product": {"product_eq": eq2, "null_cond": _null_defect(q_gen, x)},
        })
    return out


def run_system_checks(p: WeightedPair, q: int, tol: Tolerances | None = None,
                      candidate: np.ndarray | None = None) -> list[CheckResult]:
    """One CheckResult per equation of each of the four characterizing
    systems, evaluated for the computed inverse or a supplied candidate."""
    tol = resolve_tol(tol)
    atol = tol.residual_atol
    detail = f"{p.shape[0]}x{p.shape[1]} pair, q={q}" + \
        ("" if candidate is None else ", supplied candidate")
    x0 = weighted_qbt(p, q)
    pq = _Factored(matrix_power(p.a @ p.w, q)).proj_range(
        scale=(p.sigma_max_a * p.sigma_max_w) ** q)
    x = x0 if candidate is None else np.asarray(candidate, dtype=np.complex128)
    [res] = _system_residuals(p, x0, pq, _range_generator(p, pq), [x])
    out = []
    for system, eqs in res.items():
        for name, value in eqs.items():
            out.append(CheckResult(
                check_id=f"system.{system}.{name}",
                passed=value <= atol,
                residuals={name: float(value)},
                detail=detail))
    return out


def _reduction_residuals(p: WeightedPair, xs: list[np.ndarray],
                         forms_q1: tuple[np.ndarray, np.ndarray],
                         pk: np.ndarray) -> dict[str, dict[str, float]]:
    """Residuals of the reduction identities, keyed by reduction. xs[q] is
    weighted_qbt(p, q) for q = 0 .. k, forms_q1 the product forms at q = 1
    and pk = P_{(AW)^k}; xs[k] is the weighted core-EP inverse.

    q = 0 is read as the Penrose equations of xs[0] against WAW, q =
    Ind(AW) as those of xs[Ind(AW)] against W A W pk (worst of four), and
    q >= k as the range stabilization R((AW)^q) = R((AW)^k) that lets
    weighted_qbt clamp q at k: U U* for a basis U of R((AW)^q), q = k + 1,
    k + 2, against pk. None compares weighted_qbt with another of its calls.
    """
    a, w = p.a, p.w
    aw, wa = a @ w, w @ a
    k = p.k
    x1 = xs[min(1, k)]
    f1, f2 = forms_q1
    s_aw = p.sigma_max_a * p.sigma_max_w
    bases = {q: _Factored(matrix_power(aw, q)).range_basis(scale=s_aw ** q)
             for q in (k + 1, k + 2)}
    return {
        "q0": matrix.penrose_residuals(w @ a @ w, xs[0]),
        "q1": {"eq1": rel(x1 @ w @ a @ w @ x1, x1),
               "eq2": rel(x1 @ wa, f1 @ wa),
               "eq3": rel(aw @ x1, aw @ f2)},
        "ind-aw": {"vs_core_ep": max(
            matrix.penrose_residuals(w @ a @ w @ pk, xs[p.ind_aw]).values())},
        "q-ge-k": {f"k+{q - k}": rel(u @ u.conj().T, pk) for q, u in bases.items()},
    }


# --------------------------------------------------------------------------
# random-corpus runner


class _Extreme:
    """Aggregates the extreme value seen per measurement name: the largest
    residual or, for expected-inequality checks (gaps=True), the smallest
    gap; `where` names the member of the most extreme single value."""

    def __init__(self, gaps: bool):
        self.gaps = gaps
        self.values: dict[str, float] = {}
        self.where: str = ""
        self._peak: float | None = None

    def _beats(self, v: float, than: float) -> bool:
        return v < than if self.gaps else v > than

    def update(self, values: dict[str, float], where: str):
        for k, v in values.items():
            v = float(v)
            if k not in self.values or self._beats(v, self.values[k]):
                self.values[k] = v
            if self._peak is None or self._beats(v, self._peak):
                self._peak = v
                self.where = where

    def check(self, check_id: str, bound: float) -> CheckResult:
        """Residuals below `bound`, or gaps above it."""
        word = "smallest" if self.gaps else "worst"
        note = f"{word} at {self.where}" if self.where else "no applicable member"
        note = f"{CHECK_REGISTRY[check_id]}; {note}"
        if self.gaps:
            return _gap_check(check_id, self.values or {"none": bound}, bound, note)
        return _residual_check(check_id, self.values or {"none": 0.0}, bound, note)


def _corpus_member_checks(p: WeightedPair, integer: bool, planted_k: int,
                          where: str, tol: Tolerances,
                          rng: np.random.Generator, agg: dict[str, _Extreme]):
    """Run every per-member suite and fold residuals into the aggregators.

    Operands that several checks read are built once per member, or once
    per member and exponent, and every check reads that one value; so are
    the singular values of every set-predicate operand. The routines under
    check are called through their public entry points; the operands built
    from the pair (products, powers, adjoints, projectors) are used as they
    are, with no second validation.
    """
    a, w = p.a, p.w
    m, n = p.shape
    k = p.k
    aw, wa, waw = a @ w, w @ a, w @ a @ w
    sa, sw = p.sigma_max_a, p.sigma_max_w
    s_aw = sa * sw
    s_waw_m = _Factored(waw).sigma_max
    s_aw_m = _Factored(aw).sigma_max
    agg["corpus.pair-validity"].update({"index_mismatch": _flag(k == planted_k)}, where)
    q_grid = range(k + 2)
    # weighted_qbt and its product forms clamp q at k, so their entry k
    # also serves q = k + 1, the last exponent of the grid
    xs = [weighted_qbt(p, q) for q in range(k + 1)]
    x_ops = [_Factored(x) for x in xs]
    forms = [weighted_qbt_product_forms(p, q) for q in range(k + 1)]
    # P_{(AW)^q} = (AW)^q ((AW)^q)^+, and the pseudoinverse serves the
    # power-range generator too
    awqs = [_Factored(matrix_power(aw, q), thin=True) for q in q_grid]
    pq_pinvs = [f.pinv(scale=s_aw ** q) for q, f in zip(q_grid, awqs)]
    pqs = [f.a @ f_pinv for f, f_pinv in zip(awqs, pq_pinvs)]
    # the q-BT grids of both products; the core-EP inverse of each is its
    # entry at the product's own index
    aw_qbts = [qbt_inverse(aw, q) for q in q_grid]
    wa_qbts = [qbt_inverse(wa, q) for q in q_grid]
    aw_cep, wa_cep = aw_qbts[p.ind_aw], wa_qbts[p.ind_wa]
    cep = xs[k]

    # reductions (worst case across members)
    reductions = _reduction_residuals(p, xs, forms[min(1, k)], pqs[k])
    for name, res in reductions.items():
        agg[f"corpus.reductions.{name}"].update(res, where)

    # classical reductions for the square product: the Penrose equations of
    # (AW)^{q-BT} against AW at q = 0, and against AW P_{(AW)^Ind(AW)} at
    # q = Ind(AW) and Ind(AW) + 1, both worst of four
    b_ind = aw @ pqs[p.ind_aw]
    agg["corpus.classical.reductions"].update({
        **{f"q0_{name}": v for name, v in matrix.penrose_residuals(aw, aw_qbts[0]).items()},
        "q_ind": max(matrix.penrose_residuals(b_ind, aw_qbts[p.ind_aw]).values()),
        "q_beyond": max(matrix.penrose_residuals(b_ind, aw_qbts[p.ind_aw + 1]).values()),
    }, where)

    # weighted Drazin equations and dual representations
    xd = weighted_drazin(p)
    awd = drazin(aw)
    wad = drazin(wa)
    eqs = matrix.drazin_residuals(a, xd, k, w)
    agg["corpus.wdrazin.equations"].update({
        "eq1": eqs["outer"], "eq2": eqs["commute"], "eq3": eqs["chain"],
        "left_product": rel(xd, awd @ awd @ a),
        "right_product": rel(xd, awd @ a @ wad),
        "shift_left": rel(xd @ w, awd),
        "shift_right": rel(w @ xd, wad),
    }, where)

    # weighted core-EP system and companion identities
    pk_wa = _Factored(matrix_power(wa, k)).proj_range(scale=(sw * sa) ** k)
    pk_aw = pqs[k]
    agg["corpus.wcep.system"].update({
        "sandwich_eq": rel(waw @ cep, pk_wa),
        "range_cond": rel(pk_aw @ cep, cep),
        "via_square": rel(cep, a @ wa_cep @ wa_cep),
        "left_compress": rel(cep @ w @ pk_aw, aw_cep),
        "right_compress": rel(pk_wa @ w @ cep, wa_cep),
    }, where)

    # shift identity
    for ell in range(1, k + 3):
        agg["corpus.cline-shift"].update({"flag": _flag(cline_shift_check(p, ell, tol))},
                                         f"{where} ell={ell}")

    # at k = 1 the q = 1 member is the weighted core-EP inverse: the Penrose
    # equations of xs[1] against W A W P_{(AW)^k}, worst of four
    if k == 1:
        agg["corpus.k1.core-remark"].update(
            {"q1_vs_core_ep": max(matrix.penrose_residuals(waw @ pqs[k], xs[1]).values())}, where)

    # decomposition suites (once per member)
    d = weighted_core_ep_decompose(p, tol)
    agg["corpus.decomposition.roundtrip"].update({
        "matrix": rel(d.compose_a(), a, sa),
        "weight": rel(d.compose_w(), w, sw),
    }, where)
    t = d.t_dim
    mid_aw = np.zeros((m, m), dtype=np.complex128)
    mid_aw[:t, :t] = d.a1 @ d.w1
    mid_aw[:t, t:] = d.a1 @ d.w2 + d.a2 @ d.w3
    mid_aw[t:, t:] = d.a3 @ d.w3
    agg["corpus.decomposition.aw-block"].update(
        {"aw": rel(d.u @ mid_aw @ d.u.conj().T, aw, s_aw)},
        where)
    agg["corpus.decomposition.nilpotent"].update({
        "left": matrix.nilpotency(d.a3 @ d.w3, p.ind_aw, s_aw),
        "right": matrix.nilpotency(d.w3 @ d.a3, p.ind_wa, s_aw),
    }, where)
    agg["corpus.decomposition.block-pinv"].update(
        {"vs_svd": rel(block_pinv(d.u, d.v, d.a1, d.a2, d.a3, scale=sa,
                                  a3_rank=_Factored(a).rank() - t),
                       pinv(a))},
        where)

    d_aw = core_ep_decompose(aw)

    for q in q_grid:
        where_q = f"{where} q={q}"
        x, x_op, pq, aw_qbt = xs[min(q, k)], x_ops[min(q, k)], pqs[q], aw_qbts[q]
        awq1_h_op = _Factored((awqs[q].a @ aw).conj().T)
        awq1_h = awq1_h_op.a
        s_awq1_m = awq1_h_op.sigma_max
        null_gen = awq1_h @ w.conj().T
        range_op, null_op = _range_generator(p, pq), _Factored(null_gen)
        # one thin SVD of (AW)^{q-BT} gives its pseudoinverse, that
        # pseudoinverse's sigma_max and the singular values the set
        # predicates read
        aw_qbt_op = _Factored(aw_qbt, thin=True)
        inner = aw_qbt_op.pinv()
        s_inner = aw_qbt_op.pinv_sigma_max()
        # anchors for set predicates: measured factor norms, not powers of
        # norm bounds, so the cutoff tracks the actual magnitudes instead of
        # compounding worst-case overestimates across q
        anchor_rg = _CHAIN_MARGIN * s_waw_m
        anchor_ng = _CHAIN_MARGIN * s_awq1_m * sw

        # the computed inverse solves every system; a perturbed candidate
        # must visibly violate every complete system
        noise = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        noise *= _PERTURBATION * max(1.0, frobenius(x)) / frobenius(noise)
        sysres, pert = _system_residuals(p, x, pq, range_op, [x, x + noise])
        for system, res in sysres.items():
            agg[f"corpus.system.{system}"].update(res, where_q)
            agg[f"corpus.uniqueness.{system}"].update(
                {"max_violation": max(pert[system].values())}, where_q)

        # representations
        f1, f2 = forms[min(q, k)]
        agg["corpus.representations.product-forms"].update(
            {"left_form": rel(f1, x), "right_form": rel(f2, x)}, where_q)
        agg["corpus.representations.via-square"].update(
            {"via_square": rel(weighted_qbt_via_square(p, q), x)}, where_q)
        xc, _parts = canonical_weighted_qbt(d, q)
        agg["corpus.representations.canonical"].update(
            {"canonical": rel(xc, x)}, where_q)
        c_aw, c_wa = canonical_qbt_products(d, q)
        agg["corpus.representations.canonical-products"].update(
            {"left": rel(c_aw, aw_qbt),
             "right": rel(c_wa, wa_qbts[q])}, where_q)

        # range / null-space properties
        agg["corpus.properties.range-null"].update({
            "range_defect": rel(range_op.proj_range(scale=anchor_rg) @ x, x),
            "null_defect": _null_defect(range_op.proj_corange(scale=anchor_rg), x),
            "set_mismatch": _set_eq_flags(x_op, range_op, scale=anchor_rg),
        }, where_q)
        adj_gen = inner.conj().T @ w.conj().T
        agg["corpus.properties.adjoint-range"].update(
            {"set_mismatch": _set_eq_flags(x_op, _Factored(adj_gen),
                                           scale=_CHAIN_MARGIN * s_inner * sw)},
            where_q)
        pq_pinv = pq_pinvs[q]
        pow_anchor = _CHAIN_MARGIN * awqs[q].pinv_sigma_max(scale=s_aw ** q) * s_awq1_m * sw
        pow_gen = pq_pinv.conj().T @ null_gen
        agg["corpus.properties.power-range"].update({
            "range_mismatch": _flag(_range_equal(x_op, _Factored(pow_gen), pow_anchor)),
            "null_mismatch": _flag(_nullspace_equal(x_op, null_op, anchor_ng)),
        }, where_q)
        # range-subset and projector-fix measure |x - P x| / |x|, the
        # range condition of the projector system; outer-representation's
        # equation is the first defining equation
        agg["corpus.properties.range-subset"].update(
            {"defect": sysres["range-form"]["range_cond"]}, where_q)
        agg["corpus.properties.projector-fix"].update(
            {"fix": sysres["range-form"]["range_cond"]}, where_q)
        agg["corpus.properties.outer-representation"].update({
            "outer_eq": sysres["definition"]["eq1"],
            "spaces_flag": _flag(_outer_inverse_check(
                waw, x_op, range_op, null_op, tol,
                scale=max(anchor_rg, anchor_ng))),
        }, where_q)
        agg["corpus.properties.left-projector"].update(
            _proj_eq_residuals(
                _Factored(waw @ x), _Factored(w @ inner @ waw.conj().T), null_op,
                scale_r=_CHAIN_MARGIN * sw * s_inner * s_waw_m,
                scale_n=anchor_ng),
            where_q)
        agg["corpus.properties.right-projector"].update(
            _proj_eq_residuals(
                _Factored(x @ waw), range_op, _Factored(null_gen @ waw),
                scale_r=anchor_rg,
                scale_n=_CHAIN_MARGIN * s_awq1_m * sw * s_waw_m),
            where_q)

        # square-family checks on the product AW
        y = _Factored(aw @ pq).pinv(scale=s_aw)
        agg["corpus.classical.five-way"].update({
            "outer_eq": rel(aw_qbt @ aw @ aw_qbt, aw_qbt),
            "left_eq": rel(aw @ aw_qbt, aw @ y),
            "right_eq": rel(aw_qbt @ aw, y @ aw),
        }, where_q)
        aw_range_op = _Factored(pq @ aw.conj().T)
        left_proj = _proj_eq_residuals(
            _Factored(aw @ aw_qbt), _Factored(inner @ aw.conj().T), awq1_h_op,
            scale_r=_CHAIN_MARGIN * s_inner * s_aw_m,
            scale_n=_CHAIN_MARGIN * s_awq1_m)
        right_proj = _proj_eq_residuals(
            _Factored(aw_qbt @ aw), aw_range_op, _Factored(awq1_h @ aw),
            scale_r=_CHAIN_MARGIN * s_aw_m,
            scale_n=_CHAIN_MARGIN * s_awq1_m * s_aw_m)
        agg["corpus.classical.outer"].update({
            "outer_flag": _flag(_outer_inverse_check(
                aw, aw_qbt_op, aw_range_op, awq1_h_op, tol,
                scale=_CHAIN_MARGIN * s_awq1_m * s_aw_m)),
            "left_idem": left_proj["idempotent"],
            "left_sets": max(left_proj["range_set_mismatch"],
                             left_proj["null_set_mismatch"]),
            "right_idem": right_proj["idempotent"],
            "right_sets": max(right_proj["range_set_mismatch"],
                              right_proj["null_set_mismatch"]),
        }, where_q)

        # square canonical form
        agg["corpus.decomposition.square-canonical"].update(
            {"canonical": rel(canonical_qbt(d_aw, q), aw_qbt)}, where_q)

        # inner Gram simplification of the canonical construction
        x3 = _wqbt_raw(d.a3, d.w3, q, sa, sw)
        a3w3q = matrix_power(d.a3 @ d.w3, q)
        p3q = _Factored(a3w3q).proj_range(fixed_rank=d.power_rank_aw(q) - t)
        inner_mat = d.w3 @ d.a3 @ d.w3 @ p3q
        q_inner = _Factored(inner_mat).proj_corange(fixed_rank=_wqbt_rank(
            d.w3 @ (a3w3q @ d.a3 @ d.w3), d.w3.shape, q, sa, sw))
        z = p3q @ (np.eye(q_inner.shape[0], dtype=np.complex128) - q_inner) @ p3q
        agg["corpus.decomposition.z-identity"].update(
            {"z": rel(z, p3q - _Factored(x3).proj_range(), 1.0)}, where_q)

    # exact-path agreement on integer members
    if integer:
        ea = rmatrix([[complex(v) for v in row] for row in a])
        ew = rmatrix([[complex(v) for v in row] for row in w])
        for q in sorted({1, k}):
            ex = float_of(exact_weighted_qbt(ea, ew, q))
            agg["corpus.exact.float-agreement"].update(
                {"float_vs_exact": rel(xs[min(q, k)], ex)}, f"{where} q={q}")


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
    agg = {cid: _Extreme(gaps=cid.startswith("corpus.uniqueness."))
           for cid in CHECK_REGISTRY if cid.startswith("corpus.")}

    for i, member in enumerate(random_pairs(seed, count, max_dim)):
        p = member.to_weighted()
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

    results = tuple(agg[cid].check(cid, CORPUS_GAP_FLOOR if agg[cid].gaps else atol)
                    for cid in sorted(agg))
    return ConformanceReport(results=results, corpus_seed=seed, tolerance=tol)


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
    "run_random_corpus",
    "run_all",
]
