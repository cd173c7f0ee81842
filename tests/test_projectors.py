import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv.errors import DomainError
from geninv.matrix import conjugate_transpose, frobenius, sigma_max
from geninv.errors import ShapeError
from geninv.projectors import (_Factored, _nullspace_equal, _range_equal, _stacked_rank_equal,
                               matrix_index, nullspace_contained, nullspace_equal, pinv, power,
                               proj_corange, proj_range, range_contained, range_equal)

from conftest import random_complex, rel


def jordan_nilpotent(n):
    """n x n single Jordan block with eigenvalue 0."""
    return np.eye(n, k=1).astype(np.complex128)


# a scale that moves the cutoff rank of diag(1, 1e-2, 1e-4) below 2
CUTOFF_SCALES = [1e15]


def assert_pinned_count_reads_the_held_svd(a, r):
    """A pinned count and `rank(scale)` read one held thin SVD: the values
    `rank` cuts are the thin SVD's, a later read takes no SVD, and the
    count `rank` reads gives the bytes of the same count pinned on a
    fresh matrix."""
    f = _Factored(a, thin=True)
    pinned = f.pinv(r).tobytes()
    usv = f.usv
    for scale in [None, *CUTOFF_SCALES]:
        kept = f.rank(scale)
        assert f.s is usv[1] and f.usv is usv, scale
        assert f.pinv(kept).tobytes() == _Factored(a).pinv(kept).tobytes(), scale
    assert f.pinv(r).tobytes() == pinned


def anchored_contained(big, other, scale, axis):
    """rank(stack) = rank(big) for the stack of big and other along `axis`,
    both cut against max(sigma_max(stack), scale): R(other) in R(big) for
    axis 1, N(big) in N(other) for axis 0."""
    return _stacked_rank_equal(np.concatenate([big, other], axis=axis), scale, _Factored(big))


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
        x = _Factored(a).pinv(2)
        assert rel(x, np.diag([1.0, 1e2, 0.0])) < 1e-12
        assert_pinned_count_reads_the_held_svd(a, 2)
        for scale in CUTOFF_SCALES:
            f = _Factored(a, thin=True)
            assert np.count_nonzero(f.pinv(f.rank(scale))) < 2

    def test_fixed_rank_capped_by_true_rank(self):
        a = np.diag([1.0, 0.0]).astype(np.complex128)
        x = _Factored(a).pinv(5)
        assert rel(x, np.diag([1.0, 0.0])) < 1e-15
        assert_pinned_count_reads_the_held_svd(a, 5)


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

    def test_projectors_stay_exact_on_an_ill_conditioned_range(self):
        # 12 x 12 of rank 6, sigma geometric from 1 to 1e-9: B B^+ is off
        # by about cond * eps = 1e-7, the kept singular vectors by eps
        rng = np.random.default_rng(12)
        u = np.linalg.qr(random_complex(rng, 12, 6))[0]
        v = np.linalg.qr(random_complex(rng, 12, 6))[0]
        b = (u * np.geomspace(1.0, 1e-9, 6)) @ v.conj().T
        for p in (proj_range(b), proj_corange(b)):
            assert frobenius(p @ p - p) <= 1e-13
            assert frobenius(conjugate_transpose(p) - p) <= 1e-13
            assert round(np.trace(p).real) == 6


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



class TestSubspaceEqualities:
    def test_equal_ranges_and_null_spaces(self, rng):
        gen = random_complex(rng, 6, 4, rank=3)
        x = gen @ random_complex(rng, 4, 5)
        assert range_equal(x, gen) and range_equal(gen, x)
        h = conjugate_transpose
        assert nullspace_equal(h(x), h(gen)) and nullspace_equal(h(gen), h(x))

    def test_strict_inclusion_either_way_is_not_equality(self, rng):
        gen = random_complex(rng, 6, 4, rank=3)
        inside = gen @ random_complex(rng, 4, 2)
        assert range_contained(inside, gen)
        assert not range_equal(inside, gen)
        assert not range_equal(gen, inside)
        # two combinations of the rows of gen* have a strictly larger null space
        full = conjugate_transpose(gen)
        rows = random_complex(rng, 2, 4) @ full
        assert nullspace_contained(full, rows)
        assert not nullspace_equal(rows, full)
        assert not nullspace_equal(full, rows)

    def test_rank_deficient_operands(self):
        x = np.diag([1.0, 2.0, 0.0, 0.0]).astype(np.complex128)
        y = np.diag([3.0, 0.0, 0.0, 0.0]).astype(np.complex128)
        y[1, 2] = 1.0
        assert range_equal(x, y)
        assert not nullspace_equal(x, y)
        assert nullspace_equal(x, np.diag([-1.0, 5.0, 0.0, 0.0]))
        assert not range_equal(x, np.diag([1.0, 0.0, 1.0, 0.0]))

    def test_zero_column_and_zero_row_operands(self, rng):
        empty_cols = np.zeros((5, 0), dtype=np.complex128)
        assert range_equal(empty_cols, np.zeros((5, 3)))
        assert not range_equal(empty_cols, random_complex(rng, 5, 2))
        assert not range_equal(random_complex(rng, 5, 2), empty_cols)
        empty_rows = np.zeros((0, 4), dtype=np.complex128)
        assert nullspace_equal(empty_rows, np.zeros((3, 4)))
        assert not nullspace_equal(empty_rows, random_complex(rng, 2, 4))

    def test_scale_anchors_a_noise_level_operand(self, rng):
        noise = 1e-17 * random_complex(rng, 5, 3)
        zero = np.zeros((5, 2), dtype=np.complex128)
        noise_h, zero_h = conjugate_transpose(noise), np.zeros((2, 5))
        assert not range_equal(noise, zero)
        assert _range_equal(_Factored(noise), _Factored(zero), 1.0)
        assert not nullspace_equal(noise_h, zero_h)
        assert _nullspace_equal(_Factored(noise_h), _Factored(zero_h), 1.0)

    def test_shape_mismatch_is_rejected(self, rng):
        with pytest.raises(ShapeError):
            range_equal(random_complex(rng, 4, 2), random_complex(rng, 5, 2))
        with pytest.raises(ShapeError):
            nullspace_equal(random_complex(rng, 2, 4), random_complex(rng, 2, 5))

    def test_agree_with_both_containments_on_random_low_rank_pairs(self):
        rng = np.random.default_rng(4242)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            m = int(rng.integers(2, 8))
            basis = random_complex(rng, m, m, rank=int(rng.integers(1, m + 1)))
            # y spans a random part of R(basis), often all of it
            y = basis @ random_complex(rng, m, int(rng.integers(1, m + 1)),
                                       rank=int(rng.integers(1, m + 1)))
            x = basis @ random_complex(rng, m, int(rng.integers(1, m + 1)),
                                       rank=int(rng.integers(1, m + 1)))
            scale = [None, float(sigma_max(basis))][int(rng.integers(0, 2))]
            xh, yh = conjugate_transpose(x), conjugate_transpose(y)
            if scale is None:
                both = range_contained(x, y) and range_contained(y, x)
                assert range_equal(x, y) == both
                both = nullspace_contained(yh, xh) and nullspace_contained(xh, yh)
                assert nullspace_equal(xh, yh) == both
            else:
                # the anchored rule the runner's set predicates read
                both = (anchored_contained(y, x, scale, 1)
                        and anchored_contained(x, y, scale, 1))
                assert _range_equal(_Factored(x), _Factored(y), scale) == both
                both = (anchored_contained(yh, xh, scale, 0)
                        and anchored_contained(xh, yh, scale, 0))
                assert _nullspace_equal(_Factored(xh), _Factored(yh), scale) == both
            outcomes[both] += 1
        assert min(outcomes.values()) >= 50, outcomes


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
