"""Forward error of the float Drazin and core-EP inverses against the exact
oracle, on the integer products AW and WA of the seed 1-3 corpora, of
the W-weighted q-BT inverse at q = 0, 1 and k on the integer pairs
themselves, and of the three canonical forms at every q below the index.

The bounds are the median and the maximum relative Frobenius error
(against max(1, ‖exact‖)) measured when the test was written, rounded up
to two significant digits, so a change that makes the float path less
accurate on these inputs fails here even when every residual still passes.
"""

import numpy as np
import pytest

from geninv.classical import core_ep, drazin
from geninv.corpus import random_pairs
from geninv.decomposition import (canonical_qbt, canonical_qbt_products, canonical_weighted_qbt,
                                  core_ep_decompose, weighted_core_ep_decompose)
from geninv.exact import (exact_core_ep, exact_drazin, exact_qbt, exact_weighted_qbt, float_of,
                          rmatrix_from_complex)
from geninv.weighted import WeightedPair, weighted_qbt

from conftest import rel

ROUTES = {"drazin": (drazin, exact_drazin), "core_ep": (core_ep, exact_core_ep)}

# (median, maximum) per route
BOUNDS = {"drazin": (2.3e-15, 6.5e-14), "core_ep": (1.5e-15, 3.9e-14)}

# (median, maximum) per weighted member; "k" is q = max(Ind(AW), Ind(WA))
WEIGHTED_BOUNDS = {"0": (1.4e-15, 1.1e-14), "1": (1.1e-15, 1.1e-14),
                   "k": (1.4e-15, 2.7e-14)}

# (median, maximum) per canonical form, over every q below the index: for
# `canonical_qbt` on AW and WA, `canonical_qbt_products` on either side,
# below that product's index, and `canonical_weighted_qbt` below Ind(AW)
CANONICAL_BOUNDS = {"canonical_qbt": (7.6e-16, 1.5e-14),
                    "canonical_weighted_qbt": (1.7e-15, 1.5e-14),
                    "canonical_qbt_products": (1.3e-15, 4.0e-14)}


def integer_pairs():
    pairs = [m for seed in (1, 2, 3) for m in random_pairs(seed, 100) if m.integer_entries]
    assert len(pairs) == 150
    return pairs


@pytest.fixture(scope="module")
def errors():
    products = [b for m in integer_pairs() for b in (m.a @ m.w, m.w @ m.a)]
    out = {name: [] for name in ROUTES}
    for b in products:
        exact_b = rmatrix_from_complex(b)
        for name, (route, oracle) in ROUTES.items():
            out[name].append(rel(route(b), float_of(oracle(exact_b))))
    return out


@pytest.mark.parametrize("name", ROUTES)
def test_forward_error_against_the_exact_oracle(errors, name):
    median, worst = BOUNDS[name]
    assert np.median(errors[name]) <= median
    assert max(errors[name]) <= worst


@pytest.fixture(scope="module")
def weighted_errors():
    out = {name: [] for name in WEIGHTED_BOUNDS}
    for m in integer_pairs():
        p = WeightedPair.from_matrices(m.a, m.w)
        ea, ew = rmatrix_from_complex(m.a), rmatrix_from_complex(m.w)
        for name in WEIGHTED_BOUNDS:
            q = p.k if name == "k" else int(name)
            out[name].append(rel(weighted_qbt(p, q), float_of(exact_weighted_qbt(ea, ew, q))))
    return out


@pytest.mark.parametrize("q", WEIGHTED_BOUNDS)
def test_weighted_forward_error_against_the_exact_oracle(weighted_errors, q):
    median, worst = WEIGHTED_BOUNDS[q]
    assert np.median(weighted_errors[q]) <= median
    assert max(weighted_errors[q]) <= worst


@pytest.fixture(scope="module")
def canonical_errors():
    out = {name: [] for name in CANONICAL_BOUNDS}
    for m in integer_pairs():
        p = WeightedPair.from_matrices(m.a, m.w)
        d = weighted_core_ep_decompose(p)
        ea, ew = rmatrix_from_complex(m.a), rmatrix_from_complex(m.w)
        for q in range(p.ind_aw):
            want = float_of(exact_weighted_qbt(ea, ew, q))
            out["canonical_weighted_qbt"].append(rel(canonical_weighted_qbt(d, q)[0], want))
        for side, (b, index) in enumerate(((m.a @ m.w, p.ind_aw), (m.w @ m.a, p.ind_wa))):
            square = core_ep_decompose(b)
            exact_b = rmatrix_from_complex(b)
            for q in range(index):
                want = float_of(exact_qbt(exact_b, q))
                out["canonical_qbt"].append(rel(canonical_qbt(square, q), want))
                out["canonical_qbt_products"].append(
                    rel(canonical_qbt_products(d, q)[side], want))
    return out


@pytest.mark.parametrize("name", CANONICAL_BOUNDS)
def test_canonical_forward_error_below_the_index(canonical_errors, name):
    median, worst = CANONICAL_BOUNDS[name]
    assert len(canonical_errors[name]) == (297 if name == "canonical_weighted_qbt" else 594)
    assert np.median(canonical_errors[name]) <= median
    assert max(canonical_errors[name]) <= worst
