import numpy as np
import pytest

from geninv.classical import outer_inverse_check
from geninv.decomposition import weighted_core_ep_decompose
from geninv.errors import DecompositionError, DomainError, ShapeError
from geninv.matrix import (DEFAULT_TOL, Tolerances, as_matrix, conjugate_transpose,
                           frobenius, nilpotency, rank, rank_cutoff, rank_from_values,
                           resolve_tol, sigma_max, singular_values)
from geninv.corpus import random_planted_pair
from geninv.projectors import pinv
from geninv.weighted import WeightedPair, cline_shift_check

from conftest import random_complex


class TestAsMatrix:
    def test_list_input_becomes_complex128(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.complex128
        assert a.shape == (2, 2)

    def test_preserves_complex_entries(self):
        a = as_matrix([[1 + 2j]])
        assert a[0, 0] == 1 + 2j

    def test_rejects_one_dimensional(self):
        with pytest.raises(ShapeError):
            as_matrix([1, 2, 3])

    def test_rejects_three_dimensional(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[np.nan, 0.0]])

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            as_matrix([[1.0, np.inf]])


class TestTolerances:
    def test_default_residual_atol(self):
        assert DEFAULT_TOL.residual_atol == 1e-10

    def test_rank_cutoff_scales_with_dimension_and_reference(self):
        eps = np.finfo(np.float64).eps
        assert rank_cutoff((3, 5), 2.0) == pytest.approx(5 * eps * 2.0)
        assert rank_cutoff((0, 5), 2.0) == pytest.approx(eps * 2.0)

    def test_close_uses_scale(self):
        tol = Tolerances(residual_atol=1e-10)
        assert tol.close(5e-11)
        assert not tol.close(5e-9)
        assert tol.close(5e-9, scale=100.0)

    def test_resolve_tol_passthrough_and_default(self):
        custom = Tolerances(residual_atol=1e-5)
        assert resolve_tol(custom) is custom
        assert resolve_tol(None) is DEFAULT_TOL


class TestResidualTolerance:
    """residual_atol reaches each function whose verdict reads a residual: a
    correct input passes at the default and fails below its rounding error."""

    TIGHT = Tolerances(residual_atol=1e-30)

    @pytest.fixture
    def pair(self):
        planted = random_planted_pair(np.random.default_rng(3), 2, max_dim=6)
        return WeightedPair.from_matrices(planted.a, planted.w)

    def test_weighted_core_ep_decompose(self, pair):
        weighted_core_ep_decompose(pair)
        with pytest.raises(DecompositionError):
            weighted_core_ep_decompose(pair, self.TIGHT)

    def test_outer_inverse_check(self, rng):
        a = random_complex(rng, 5, 5, rank=3)
        x, gen = pinv(a), conjugate_transpose(a)
        assert outer_inverse_check(a, x, gen, gen)
        assert not outer_inverse_check(a, x, gen, gen, self.TIGHT)

    def test_cline_shift_check(self, pair):
        assert cline_shift_check(pair, 3)
        assert not cline_shift_check(pair, 3, self.TIGHT)


class TestRank:
    def test_full_rank_identity(self):
        assert rank(np.eye(4)) == 4

    def test_zero_matrix(self):
        assert rank(np.zeros((3, 5))) == 0

    def test_planted_rank(self, rng):
        a = random_complex(rng, 6, 7, rank=3)
        assert rank(a) == 3

    def test_scale_anchors_the_cutoff(self):
        # a tiny matrix is full-rank on its own scale but negligible
        # against an external anchor
        a = 1e-17 * np.eye(2)
        assert rank(a) == 2
        assert rank_from_values(singular_values(a), a.shape, 1.0) == 0


class TestNorms:
    def test_frobenius(self):
        assert frobenius([[3, 4]]) == pytest.approx(5.0)

    def test_sigma_max_of_diagonal(self):
        assert sigma_max(np.diag([3.0, 7.0, 2.0])) == pytest.approx(7.0)

    def test_conjugate_transpose(self):
        a = as_matrix([[1 + 1j, 2], [0, 3j]])
        at = conjugate_transpose(a)
        assert at.shape == (2, 2)
        assert at[0, 0] == 1 - 1j
        assert at[1, 0] == 2
        assert at[1, 1] == -3j


class TestNilpotency:
    def test_reads_the_power_of_its_scale(self):
        n = np.diag([1.0], 1).astype(np.complex128)
        assert nilpotency(n, 2, 3.0) == 0.0
        assert nilpotency(n, 1, 4.0) == pytest.approx(0.25)

    def test_a_large_scale_forms_no_power_of_itself(self):
        # (1e200)^2 leaves the double range; N is scaled before its power
        # is formed, so ||N^2|| / 1e400, under the smallest double, reads 0
        # with no overflow
        with np.errstate(over="raise", invalid="raise"):
            assert nilpotency(np.eye(2), 2, 1e50) == pytest.approx(np.sqrt(2) * 1e-100)
            assert nilpotency(np.eye(2), 2, 1e200) == 0.0
