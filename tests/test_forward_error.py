"""Forward error of the float Drazin and core-EP inverses against the exact
oracle, on the integer products AW and WA of the seed 1-3 corpora, and of
the W-weighted q-BT inverse at q = 0, 1 and k on the integer pairs
themselves.

The bounds are the median and the maximum relative Frobenius error
(against max(1, ‖exact‖)) measured when the test was written, rounded up
to two significant digits, so a change that makes the float path less
accurate on these inputs fails here even when every residual still passes.
"""

import numpy as np
import pytest

from geninv.classical import core_ep, drazin
from geninv.corpus import random_pairs
from geninv.exact import (exact_core_ep, exact_drazin, exact_weighted_qbt, float_of,
                          rmatrix_from_complex)
from geninv.weighted import WeightedPair, weighted_qbt

from conftest import rel

ROUTES = {"drazin": (drazin, exact_drazin), "core_ep": (core_ep, exact_core_ep)}

# (median, maximum) per route
BOUNDS = {"drazin": (2.3e-15, 6.5e-14), "core_ep": (1.5e-15, 3.9e-14)}

# (median, maximum) per weighted member; "k" is q = max(Ind(AW), Ind(WA))
WEIGHTED_BOUNDS = {"0": (1.4e-15, 1.1e-14), "1": (1.1e-15, 1.1e-14),
                   "k": (1.4e-15, 2.7e-14)}


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
