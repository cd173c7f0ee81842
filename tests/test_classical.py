from fractions import Fraction

import numpy as np
import pytest

from geninv.classical import (bt_inverse, check_q, core_ep, core_inverse, drazin,
                              group_inverse, outer_inverse_check, qbt_inverse)
from geninv.corpus import random_square
from geninv.decomposition import canonical_qbt, core_ep_decompose
from geninv.exact import exact_power, exact_qbt, requal, rmatrix
from geninv.errors import DomainError, ShapeError
from geninv.matrix import conjugate_transpose, frobenius
from geninv.projectors import matrix_index, pinv, power, proj_range
from geninv.weighted import WeightedPair, cline_shift_check

from conftest import rel


def jordan_nilpotent(n):
    return np.eye(n, k=1).astype(np.complex128)


class TestCheckQ:
    def test_accepts_nonnegative_integers(self):
        assert check_q(0) == 0
        assert check_q(3) == 3
        assert check_q(np.int64(2)) == 2
        assert check_q(3, 4) == 3
        assert check_q(60, 4) == 4

    @pytest.mark.parametrize("bad", [-1, 1.5, "2"])
    def test_rejects_others(self, bad):
        with pytest.raises(DomainError):
            check_q(bad)

    # bool subclasses int: True would silently give the q = 1 member
    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("call", [
        lambda e: qbt_inverse(np.eye(2), e),
        lambda e: power(np.eye(2), e),
        lambda e: cline_shift_check(WeightedPair.from_matrices(np.eye(2), np.eye(2)), e),
        lambda e: exact_power(rmatrix([[1, 0], [0, 1]]), e),
    ], ids=["check_q", "power", "cline_shift_check", "exact_power"])
    def test_rejects_bools(self, call, flag):
        with pytest.raises(DomainError):
            call(flag)


class TestDrazin:
    def test_invertible_matrix_gives_inverse(self, rng):
        a = random_square(rng, 4, index=0)
        assert rel(drazin(a), np.linalg.inv(a)) < 1e-9

    def test_nilpotent_matrix_gives_zero(self):
        assert np.all(drazin(jordan_nilpotent(4)) == 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_defining_equations(self, rng, k):
        a = random_square(rng, 6, index=k)
        x = drazin(a)
        assert rel(x @ a @ x, x) < 1e-9
        assert rel(a @ x, x @ a) < 1e-9
        assert rel(x @ power(a, k + 1), power(a, k)) < 1e-9

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            drazin(np.zeros((2, 3)))


class TestGroupAndCore:
    def test_group_inverse_requires_index_at_most_one(self):
        with pytest.raises(DomainError):
            group_inverse(jordan_nilpotent(2))
        with pytest.raises(DomainError):
            core_inverse(jordan_nilpotent(2))

    def test_group_equals_drazin_at_index_one(self, rng):
        a = random_square(rng, 5, index=1)
        assert rel(group_inverse(a), drazin(a)) < 1e-9

    def test_core_defining_relations(self, rng):
        a = random_square(rng, 5, index=1)
        x = core_inverse(a)
        ax = a @ x
        assert rel(x @ a @ x, x) < 1e-9
        assert frobenius(conjugate_transpose(ax) - ax) < 1e-9
        assert rel(x @ a @ a, a) < 1e-9


class TestQbtFamily:
    def test_q_zero_is_moore_penrose(self, rng):
        a = random_square(rng, 5, index=2)
        assert rel(qbt_inverse(a, 0), pinv(a)) < 1e-10

    def test_q_one_is_bt(self, rng):
        a = random_square(rng, 5, index=2)
        assert rel(qbt_inverse(a, 1), bt_inverse(a)) < 1e-10

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_q_at_least_index_is_core_ep(self, rng, extra):
        a = random_square(rng, 6, index=2)
        k = matrix_index(a).index
        assert rel(qbt_inverse(a, k + extra), core_ep(a)) < 1e-10

    def test_direct_formula(self, rng):
        a = random_square(rng, 6, index=3)
        for q in range(4):
            direct = pinv(a @ proj_range(power(a, q)))
            assert rel(qbt_inverse(a, q), direct) < 1e-10

    @pytest.mark.parametrize("q", ["n", 60, 600, 2000])
    def test_q_beyond_dimension_gives_the_q_n_member(self, q):
        # A is nonsingular, so every member is A^-1; powers of A overflow
        # long before q = 2000 unless q is clamped at the dimension.
        a = np.array([[3, 1], [0, 2]], dtype=np.complex128)
        q = a.shape[0] if q == "n" else q
        inv = np.linalg.inv(a)
        assert rel(qbt_inverse(a, q), inv) < 1e-12
        assert rel(canonical_qbt(core_ep_decompose(a), q), inv) < 1e-12
        assert requal(exact_qbt(rmatrix([[3, 1], [0, 2]]), q),
                      rmatrix([[Fraction(1, 3), Fraction(-1, 6)], [0, Fraction(1, 2)]]))

    @pytest.mark.parametrize("q", [10, 20, 40])
    def test_large_q_on_a_nonsingular_gaussian_matrix(self, q):
        # cond(A) = 126, so cond(A)^q passes 1/eps near q = 8: a rank of
        # A^(q+1) decided against sigma_max^(q+1) would drop most of R(A^q).
        a = np.random.default_rng(1).standard_normal((40, 40))
        assert rel(qbt_inverse(a, q), np.linalg.inv(a)) < 1e-10

    @pytest.mark.parametrize("q", [10, 20, 40])
    def test_large_q_on_a_singular_index_one_matrix(self, q):
        rng = np.random.default_rng(1)
        middle = np.zeros((40, 40))
        middle[:20] = rng.standard_normal((20, 40))
        u = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        a = u @ middle @ u.T
        assert matrix_index(a).index == 1
        assert rel(qbt_inverse(a, q), core_ep(a)) < 1e-10

    def test_nilpotent_high_power_is_zero(self):
        n = jordan_nilpotent(3)
        assert np.all(qbt_inverse(n, 3) == 0)
        assert np.all(core_ep(n) == 0)

    def test_core_ep_range_condition(self, rng):
        a = random_square(rng, 5, index=2)
        k = matrix_index(a).index
        x = core_ep(a)
        pk = proj_range(power(a, k))
        assert rel(pk @ x, x) < 1e-9
        ax = a @ x
        assert frobenius(conjugate_transpose(ax) - ax) < 1e-9


class TestOuterInverseCheck:
    def test_pinv_has_adjoint_range_and_nullspace(self, rng):
        a = random_square(rng, 4, index=1)
        ah = conjugate_transpose(a)
        assert outer_inverse_check(a, pinv(a), ah, ah)

    def test_perturbed_candidate_is_not(self, rng):
        a = random_square(rng, 4, index=1)
        ah = conjugate_transpose(a)
        x = pinv(a) + 0.1 * np.ones_like(a)
        assert not outer_inverse_check(a, x, ah, ah)


class TestOverflow:
    """sigma_max^j anchors the rank of the j-th power: it is read before the
    power is formed, so an input whose powers leave the double range is a
    DomainError naming j, and no numpy overflow warning is raised."""

    @pytest.mark.parametrize("call", [drazin, core_ep, matrix_index, core_ep_decompose,
                                      lambda a: qbt_inverse(a, 30)],
                             ids=["drazin", "core_ep", "matrix_index", "core_ep_decompose",
                                  "qbt_inverse"])
    def test_jordan_chain_of_large_links(self, call):
        # a 24x24 Jordan chain with links 1e14: sigma_max^23 overflows
        with pytest.raises(DomainError, match="power 23"):
            call(np.diag(np.full(23, 1e14), 1))

    @pytest.mark.parametrize("call", [drazin, group_inverse, core_inverse])
    def test_drazin_anchor(self, call):
        # the index search reads sigma_max^2 = 1e300; A^d reads sigma_max^3
        with pytest.raises(DomainError, match="power 3"):
            call(np.diag([1e150, 0.0]))
