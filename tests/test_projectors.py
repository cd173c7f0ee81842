import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv.errors import DomainError
from geninv.matrix import conjugate_transpose, frobenius, sigma_max
from geninv.projectors import (matrix_index, nullspace_contained, pinv, power,
                               proj_corange, proj_range, range_basis, range_contained)

from conftest import random_complex, rel


def jordan_nilpotent(n):
    """n x n single Jordan block with eigenvalue 0."""
    return np.eye(n, k=1).astype(np.complex128)


# cutoff inputs that a pinned rank must ignore: each moves the cutoff rank
# of diag(1, 1e-2, 1e-4) below 2
CUTOFF_INPUTS = [{"scale": 1e15}]


def assert_fixed_rank_ignores_cutoff_inputs(a, r):
    """With fixed_rank set, pinv, range_basis, proj_range and proj_corange
    return the same bytes whatever scale they are given."""
    for f in (pinv, range_basis, proj_range, proj_corange):
        plain = f(a, fixed_rank=r).tobytes()
        for extra in CUTOFF_INPUTS:
            assert f(a, fixed_rank=r, **extra).tobytes() == plain, (f.__name__, extra)


class TestPinv:
    @pytest.mark.parametrize("m,n,r", [(4, 4, 4), (5, 3, 3), (3, 5, 2), (6, 6, 2)])
    def test_penrose_equations(self, rng, m, n, r):
        a = random_complex(rng, m, n, rank=r)
        x = pinv(a)
        assert rel(a @ x @ a, a) < 1e-12
        assert rel(x @ a @ x, x) < 1e-12
        assert frobenius(conjugate_transpose(a @ x) - a @ x) < 1e-12
        assert frobenius(conjugate_transpose(x @ a) - x @ a) < 1e-12

    def test_matches_numpy(self, rng):
        a = random_complex(rng, 5, 4)
        assert rel(pinv(a), np.linalg.pinv(a)) < 1e-12

    def test_zero_matrix(self):
        assert np.all(pinv(np.zeros((2, 3))) == 0)
        assert pinv(np.zeros((2, 3))).shape == (3, 2)

    def test_involution(self, rng):
        a = random_complex(rng, 4, 6, rank=3)
        assert rel(pinv(pinv(a)), a) < 1e-10 * max(1.0, sigma_max(a))

    def test_fixed_rank_truncates(self):
        a = np.diag([1.0, 1e-2, 1e-4]).astype(np.complex128)
        x = pinv(a, fixed_rank=2)
        assert rel(x, np.diag([1.0, 1e2, 0.0])) < 1e-12
        assert_fixed_rank_ignores_cutoff_inputs(a, 2)
        for extra in CUTOFF_INPUTS:
            assert np.count_nonzero(pinv(a, **extra)) < 2

    def test_fixed_rank_capped_by_true_rank(self):
        a = np.diag([1.0, 0.0]).astype(np.complex128)
        x = pinv(a, fixed_rank=5)
        assert rel(x, np.diag([1.0, 0.0])) < 1e-15
        assert_fixed_rank_ignores_cutoff_inputs(a, 5)


class TestProjectors:
    def test_proj_range_is_hermitian_idempotent(self, rng):
        b = random_complex(rng, 6, 4, rank=2)
        p = proj_range(b)
        assert frobenius(p @ p - p) < 1e-12
        assert frobenius(conjugate_transpose(p) - p) < 1e-12
        assert rel(p @ b, b) < 1e-12

    def test_proj_corange_fixes_row_space(self, rng):
        b = random_complex(rng, 4, 6, rank=3)
        q = proj_corange(b)
        assert frobenius(q @ q - q) < 1e-12
        assert rel(b @ q, b) < 1e-12

    def test_projector_of_zero_is_zero(self):
        assert np.all(proj_range(np.zeros((3, 3))) == 0)


class TestPower:
    def test_zeroth_power_is_identity(self):
        a = np.full((3, 3), 2.0, dtype=np.complex128)
        assert np.array_equal(power(a, 0), np.eye(3))

    def test_repeated_product(self, rng):
        a = random_complex(rng, 4, 4)
        assert rel(power(a, 3), a @ a @ a) < 1e-12

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            power(np.eye(2), -1)


class TestMatrixIndex:
    def test_identity_has_index_zero(self):
        assert matrix_index(np.eye(3)).index == 0

    def test_jordan_block_index_equals_size(self):
        n = 4
        report = matrix_index(jordan_nilpotent(n))
        assert report.index == n
        assert report.rank_sequence[0] == n
        assert list(report.rank_sequence[:n + 1]) == [n - j for j in range(n + 1)]

    def test_index_one_projector(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(np.complex128)
        assert matrix_index(p).index == 1

    def test_rank_sequence_matches_power_ranks(self, rng):
        a = random_complex(rng, 5, 5, rank=3)
        report = matrix_index(a)
        for j, r in enumerate(report.rank_sequence):
            assert r == np.linalg.matrix_rank(power(a, j))


class TestSubspaceTests:
    def test_range_contained_true_and_false(self, rng):
        gen = random_complex(rng, 5, 3, rank=2)
        inside = gen @ random_complex(rng, 3, 4)
        assert range_contained(inside, gen)
        outside = random_complex(rng, 5, 4, rank=4)
        assert not range_contained(outside, gen)

    def test_nullspace_contained(self, rng):
        gen = random_complex(rng, 5, 5, rank=3)
        # X with N(gen) <= N(X): any X = C gen works
        x = random_complex(rng, 4, 5) @ gen
        assert nullspace_contained(gen, x)
        assert not nullspace_contained(jordan_nilpotent(5), np.eye(5))


@st.composite
def small_int_matrix(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=np.complex128)


@given(small_int_matrix())
@settings(max_examples=60, deadline=None)
def test_pinv_penrose_property(a):
    eps = np.finfo(np.float64).eps
    bound = 100 * max(a.shape) * eps * max(1.0, sigma_max(a))
    x = pinv(a)
    assert frobenius(a @ x @ a - a) <= bound
    assert frobenius(x @ a @ x - x) <= bound * max(1.0, frobenius(x) ** 2)
    assert frobenius(conjugate_transpose(a @ x) - a @ x) <= bound
    assert frobenius(conjugate_transpose(x @ a) - x @ a) <= bound


@given(small_int_matrix())
@settings(max_examples=40, deadline=None)
def test_proj_range_property(a):
    p = proj_range(a)
    eps = np.finfo(np.float64).eps
    bound = 100 * max(a.shape) * eps * max(1.0, sigma_max(a))
    assert frobenius(p @ p - p) <= bound
    assert frobenius(conjugate_transpose(p) - p) <= bound
    assert frobenius(p @ a - a) <= bound
