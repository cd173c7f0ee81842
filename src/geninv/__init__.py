"""geninv: generalized inverses of complex matrices.

Float (complex128) and exact rational paths for the Moore-Penrose,
Drazin, group, core, core-EP, BT and q-BT inverses and their W-weighted
counterparts, plus the core-EP and weighted core-EP decompositions, an
identity verifier, and a CLI.
"""

import importlib

from .classical import (bt_inverse, core_ep, core_inverse, drazin, group_inverse,
                        outer_inverse_check, qbt_inverse)
from .errors import (DecompositionError, DomainError, NumericError, ParseError,
                     ShapeError)
from .io import (detect_format, format_complex, format_matrix, load_matrix,
                 parse_entry, parse_matrix)
from .matrix import (DEFAULT_TOL, Tolerances, as_matrix, conjugate_transpose,
                     frobenius, rank, sigma_max)
from .projectors import (IndexReport, matrix_index, nullspace_contained, nullspace_equal, pinv,
                         power, proj_corange, proj_range, range_contained, range_equal)
from .weighted import (WeightedPair, cline_shift_check, dual_representation_gap,
                       weighted_bt, weighted_core_ep, weighted_drazin, weighted_qbt,
                       weighted_qbt_product_forms, weighted_qbt_via_square)

__version__ = "0.1.0"

# Public name -> the submodule that defines it, loaded on first use. A
# float inverse call needs none of them: not the decompositions, not the
# exact path, not the conformance runner with its corpus generator and
# reference tables. A submodule's own name maps to itself.
_LAZY = {
    **{module: module for module in ("corpus", "decomposition", "exact", "reference",
                                     "verify")},
    **dict.fromkeys(("CanonicalParts", "CoreEPDecomposition", "WeightedCoreEPDecomposition",
                     "block_pinv", "canonical_qbt", "canonical_qbt_products",
                     "canonical_weighted_qbt", "core_ep_decompose",
                     "weighted_core_ep_decompose"), "decomposition"),
    **dict.fromkeys(("GaussianRational", "exact_bt", "exact_core", "exact_core_ep",
                     "exact_drazin", "exact_group", "exact_index", "exact_pair_index",
                     "exact_pinv", "exact_qbt", "exact_rank", "exact_weighted_bt",
                     "exact_weighted_core_ep", "exact_weighted_drazin",
                     "exact_weighted_qbt", "float_of", "rmatrix",
                     "rmatrix_from_complex"), "exact"),
    **dict.fromkeys(("CHECK_REGISTRY", "CheckResult", "ConformanceReport", "run_all",
                     "run_example_checks", "run_random_corpus"), "verify"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "IndexReport",
    "WeightedPair",
    "GaussianRational",
    "CoreEPDecomposition",
    "WeightedCoreEPDecomposition",
    "CanonicalParts",
    "ShapeError",
    "DomainError",
    "NumericError",
    "DecompositionError",
    "ParseError",
    "pinv",
    "proj_range",
    "proj_corange",
    "power",
    "matrix_index",
    "range_contained",
    "nullspace_contained",
    "range_equal",
    "nullspace_equal",
    "drazin",
    "group_inverse",
    "core_inverse",
    "core_ep",
    "bt_inverse",
    "qbt_inverse",
    "outer_inverse_check",
    "weighted_drazin",
    "weighted_core_ep",
    "weighted_bt",
    "weighted_qbt",
    "weighted_qbt_product_forms",
    "weighted_qbt_via_square",
    "cline_shift_check",
    "dual_representation_gap",
    "core_ep_decompose",
    "weighted_core_ep_decompose",
    "block_pinv",
    "canonical_qbt",
    "canonical_weighted_qbt",
    "canonical_qbt_products",
    "as_matrix",
    "rank",
    "frobenius",
    "sigma_max",
    "conjugate_transpose",
    "rmatrix",
    "rmatrix_from_complex",
    "float_of",
    "exact_rank",
    "exact_index",
    "exact_pair_index",
    "exact_pinv",
    "exact_drazin",
    "exact_group",
    "exact_core",
    "exact_core_ep",
    "exact_bt",
    "exact_qbt",
    "exact_weighted_drazin",
    "exact_weighted_core_ep",
    "exact_weighted_bt",
    "exact_weighted_qbt",
    "parse_entry",
    "parse_matrix",
    "detect_format",
    "load_matrix",
    "format_complex",
    "format_matrix",
    "CheckResult",
    "ConformanceReport",
    "CHECK_REGISTRY",
    "run_example_checks",
    "run_random_corpus",
    "run_all",
    "__version__",
]
