"""Forward error of the float Drazin and core-EP inverses against the exact
oracle, on the integer products AW and WA of the seed 1-3 corpora.

The bounds are the median and the maximum relative Frobenius error
(against max(1, ‖exact‖)) measured when the test was written, rounded up
to two significant digits, so a change that makes the float path less
accurate on these inputs fails here even when every residual still passes.
"""

import numpy as np
import pytest

from geninv.classical import core_ep, drazin
from geninv.corpus import random_pairs
from geninv.exact import exact_core_ep, exact_drazin, float_of, rmatrix_from_complex

from conftest import rel

ROUTES = {"drazin": (drazin, exact_drazin), "core_ep": (core_ep, exact_core_ep)}

# (median, maximum) per route
BOUNDS = {"drazin": (2.3e-15, 6.5e-14), "core_ep": (1.5e-15, 3.9e-14)}


@pytest.fixture(scope="module")
def errors():
    products = [b for seed in (1, 2, 3) for m in random_pairs(seed, 100)
                if m.integer_entries for b in (m.a @ m.w, m.w @ m.a)]
    assert len(products) == 300
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
