from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geninv.errors import DomainError, NumericError
from geninv.exact import (GaussianRational, exact_bt, exact_core, exact_core_ep,
                          exact_drazin, exact_group, exact_index,
                          exact_pair_index, exact_pinv, exact_power, exact_proj_range,
                          exact_qbt,
                          exact_rank, exact_weighted_core_ep, exact_weighted_drazin,
                          exact_weighted_qbt, float_of,
                          full_rank_factorization, reye, rmatrix,
                          rmatrix_from_complex, rzeros, requal, conj_t, _matmul)
from geninv.classical import check_q
from geninv.reference import (INDICES_4X3, INDICES_5X4, pair_4x3_exact,
                              pair_5x4_exact)

from conftest import rel


def g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def from_ints(rows):
    return rmatrix([[g(x) for x in row] for row in rows])


class TestGaussianRational:
    def test_arithmetic(self):
        a = g(Fraction(1, 2), Fraction(1, 3))
        b = g(2, -1)
        assert a + b == g(Fraction(5, 2), Fraction(-2, 3))
        assert a - b == g(Fraction(-3, 2), Fraction(4, 3))
        assert a * b == g(Fraction(4, 3), Fraction(1, 6))

    def test_division_and_inverse(self):
        a = g(3, 4)
        one = g(1)
        inv = one / a
        assert a * inv == one
        with pytest.raises((ZeroDivisionError, DomainError)):
            one / g(0)

    def test_conjugate_and_modulus(self):
        a = g(3, -4)
        c = a.conjugate()
        assert c == g(3, 4)
        assert a * c == g(25)

    def test_to_complex(self):
        assert g(Fraction(1, 2), Fraction(-1, 4)).to_complex() == 0.5 - 0.25j

    @pytest.mark.parametrize("value,text", [
        (g(Fraction(3, 5)), "3/5"),
        (g(0, 1), "1i"),
        (g(0, -1), "-1i"),
        (g(Fraction(1, 2), Fraction(1, 3)), "1/2+1/3i"),
        (g(2, -3), "2-3i"),
        (g(0), "0"),
    ])
    def test_str(self, value, text):
        assert str(value) == text


class TestExactLinearAlgebra:
    def test_rank_and_factorization(self):
        a = from_ints([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert exact_rank(a) == 2
        f, gmat = full_rank_factorization(a)
        assert f.shape == (3, 2) and gmat.shape == (2, 3)
        assert requal(_matmul(f, gmat), a)

    def test_pinv_penrose_exactly(self):
        a = from_ints([[1, 1, 0], [0, 1, 1]])
        x = exact_pinv(a)
        assert requal(_matmul(_matmul(a, x), a), a)
        assert requal(_matmul(_matmul(x, a), x), x)
        ax = _matmul(a, x)
        xa = _matmul(x, a)
        assert requal(conj_t(ax), ax)
        assert requal(conj_t(xa), xa)

    def test_pinv_matches_float(self):
        a = from_ints([[2, 0, 1], [0, 3, 0], [0, 0, 0]])
        assert rel(float_of(exact_pinv(a)), np.linalg.pinv(float_of(a))) < 1e-14

    def test_power_and_index(self):
        jordan = from_ints([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert exact_index(jordan) == 3
        assert requal(exact_power(jordan, 3), rzeros(3, 3))
        assert requal(exact_power(jordan, 0), reye(3))

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            exact_pinv(rzeros(33, 33))

    def test_inexact_elimination_step_raises(self):
        from geninv.exact import _exact_div
        five, zero = np.array([[5]], dtype=object), np.array([[0]], dtype=object)
        re, im = _exact_div(five * 3, five, 1, 2)  # (15 + 5i) / (1 + 2i) = 5 - 5i
        assert (re[0, 0], im[0, 0]) == (5, -5)
        for dr, di in ((2, 0), (1, 1)):
            with pytest.raises(NumericError):
                _exact_div(five, zero, dr, di)

    def test_float_of_overflow(self):
        giant = rmatrix([[g(Fraction(10) ** 400)]])
        with pytest.raises(NumericError):
            float_of(giant)

    def test_rmatrix_from_complex_roundtrip(self):
        a = np.array([[1 + 2j, -5], [3j, 0]], dtype=np.complex128)
        b = rmatrix_from_complex(a)
        assert np.array_equal(float_of(b), a)

    def test_rmatrix_from_complex_rejects_non_integer_floats(self):
        with pytest.raises(DomainError):
            rmatrix_from_complex(np.array([[0.5]], dtype=np.complex128))


class TestExactInverses:
    def test_qbt_reductions(self):
        a = from_ints([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
        k = exact_index(a)
        assert requal(exact_qbt(a, 0), exact_pinv(a))
        assert requal(exact_qbt(a, 1), exact_bt(a))
        assert requal(exact_qbt(a, k), exact_core_ep(a))
        assert requal(exact_qbt(a, k + 2), exact_core_ep(a))

    def test_drazin_equations(self):
        a = from_ints([[2, 0, 1], [0, 0, 1], [0, 0, 0]])
        k = exact_index(a)
        x = exact_drazin(a)
        assert requal(_matmul(_matmul(x, a), x), x)
        assert requal(_matmul(a, x), _matmul(x, a))
        assert requal(_matmul(x, exact_power(a, k + 1)), exact_power(a, k))

    def test_group_requires_low_index(self):
        nil = from_ints([[0, 1], [0, 0]])
        with pytest.raises(DomainError):
            exact_group(nil)

    def test_core_of_projector_is_itself(self):
        p = from_ints([[1, 0], [0, 0]])
        assert requal(exact_core(p), p)

    def test_pair_indices_of_reference_pairs(self):
        assert exact_pair_index(*pair_4x3_exact()) == INDICES_4X3
        assert exact_pair_index(*pair_5x4_exact()) == INDICES_5X4

    def test_weighted_qbt_matches_float_path(self):
        a, w = pair_4x3_exact()
        from geninv.weighted import WeightedPair, weighted_qbt
        af = float_of(a)
        wf = float_of(w)
        p = WeightedPair.from_matrices(af, wf)
        for q in range(4):
            assert rel(float_of(exact_weighted_qbt(a, w, q)), weighted_qbt(p, q)) < 1e-12


@st.composite
def exact_matrix_strategy(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    num = st.integers(min_value=-4, max_value=4)
    den = st.integers(min_value=1, max_value=3)
    entry = st.builds(lambda a, b, c, d: GaussianRational(Fraction(a, b), Fraction(c, d)),
                      num, den, num, den)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return rmatrix(rows)


@given(exact_matrix_strategy())
@settings(max_examples=30, deadline=None)
def test_exact_pinv_penrose_property(a):
    x = exact_pinv(a)
    ax = _matmul(a, x)
    xa = _matmul(x, a)
    assert requal(_matmul(ax, a), a)
    assert requal(_matmul(xa, x), x)
    assert requal(conj_t(ax), ax)
    assert requal(conj_t(xa), xa)


# --------------------------------------------------------------------------
# Differential tests: the kernel against a slow reference written in this
# file with per-entry Fraction arithmetic (a triple-loop product and a
# textbook RREF).


def ref_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = rzeros(m, n)
    for i in range(m):
        for j in range(n):
            acc = g(0)
            for l in range(k):
                acc = acc + a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def ref_rref(a):
    r = a.copy()
    m, n = r.shape
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        hit = next((i for i in range(row, m) if r[i, col]), None)
        if hit is None:
            continue
        r[[row, hit]] = r[[hit, row]]
        r[row] = [v / r[row, col] for v in r[row]]
        for i in range(m):
            if i != row and r[i, col]:
                factor = r[i, col]
                r[i] = [v - factor * p for v, p in zip(r[i], r[row])]
        pivots.append(col)
    return r, pivots


def ref_frf(a):
    r, pivots = ref_rref(a)
    return a[:, pivots] if pivots else rzeros(a.shape[0], 0), r[:len(pivots)]


def ref_inv(a):
    n = a.shape[0]
    r, pivots = ref_rref(np.concatenate([a, reye(n)], axis=1))
    assert pivots[:n] == list(range(n))
    return r[:, n:]


def ref_pinv(a):
    f, gm = ref_frf(a)
    if f.shape[1] == 0:
        return rzeros(a.shape[1], a.shape[0])
    gh, fh = conj_t(gm), conj_t(f)
    return ref_matmul(ref_matmul(gh, ref_inv(ref_matmul(gm, gh))),
                      ref_matmul(ref_inv(ref_matmul(fh, f)), fh))


def ref_power(a, q):
    out = reye(a.shape[0])
    for _ in range(q):
        out = ref_matmul(out, a)
    return out


def ref_index(a):
    """Smallest k with rank(A^k) = rank(A^(k+1))."""
    k, power, rank = 0, reye(a.shape[0]), a.shape[0]
    while True:
        power = ref_matmul(power, a)
        next_rank = len(ref_rref(power)[1])
        if next_rank == rank:
            return k
        k, rank = k + 1, next_rank


def ref_drazin(a):
    k = ref_index(a)
    ak = ref_power(a, k)
    return ref_matmul(ref_matmul(ak, ref_pinv(ref_power(a, 2 * k + 1))), ak)


def ref_weighted_qbt(a, w, q):
    aw_q = ref_power(ref_matmul(a, w), check_q(q, a.shape[0]))
    p = ref_matmul(aw_q, ref_pinv(aw_q))
    return ref_pinv(ref_matmul(ref_matmul(ref_matmul(w, a), w), p))


_small = st.integers(min_value=-3, max_value=3)
_den = st.integers(min_value=1, max_value=4)
_entries = st.one_of(
    st.builds(g, _small, _small),
    st.builds(lambda a, b, c, d: g(Fraction(a, b), Fraction(c, d)), _small, _den, _small, _den))


@st.composite
def gaussian_matrix(draw, m=None, n=None):
    """Dense, rank-deficient, zero or (square) strictly upper triangular."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 4)) if n is None else n
    shape = draw(st.sampled_from(["dense", "low-rank", "zero"]
                                 + (["nilpotent"] if m == n else [])))

    def dense(rows, cols):
        out = rzeros(rows, cols)
        for idx in np.ndindex(rows, cols):
            out[idx] = draw(_entries)
        return out

    if shape == "zero":
        return rzeros(m, n)
    if shape == "low-rank":
        r = draw(st.integers(0, min(m, n) - 1))
        return ref_matmul(dense(m, r), dense(r, n))
    a = dense(m, n)
    if shape == "nilpotent":
        a[np.tril_indices(n)] = g(0)
    return a


@st.composite
def matrix_and_right_factor(draw):
    a = draw(gaussian_matrix())
    return a, draw(gaussian_matrix(m=a.shape[1]))


@st.composite
def square_matrix(draw):
    n = draw(st.integers(1, 4))
    return draw(gaussian_matrix(m=n, n=n))


@st.composite
def weighted_pair(draw):
    a = draw(gaussian_matrix())
    w = draw(gaussian_matrix(m=a.shape[1], n=a.shape[0]))
    if not any(w.flat):
        w[0, 0] = g(1)
    return a, w, draw(st.integers(0, 3))


def assert_kernel_matches_reference(a):
    assert exact_rank(a) == len(ref_rref(a)[1])
    f, gm = full_rank_factorization(a)
    rf, rg = ref_frf(a)
    assert requal(f, rf) and requal(gm, rg)
    assert requal(exact_pinv(a), ref_pinv(a))


@given(matrix_and_right_factor())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_rectangular(ab):
    a, b = ab
    assert requal(_matmul(a, b), ref_matmul(a, b))
    assert_kernel_matches_reference(a)


@given(square_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_reference_on_square(a):
    assert exact_index(a) == ref_index(a)
    assert requal(exact_drazin(a), ref_drazin(a))


@given(weighted_pair())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_on_weighted_pairs(awq):
    a, w, q = awq
    assert requal(exact_weighted_qbt(a, w, q), ref_weighted_qbt(a, w, q))


def test_kernel_matches_reference_at_the_dimension_limit():
    rng = np.random.default_rng(32)
    ints = lambda m, n: rng.integers(-2, 3, (m, n)) + 1j * rng.integers(-1, 2, (m, n))
    a = rmatrix_from_complex(ints(32, 24) @ ints(24, 32))
    b = rmatrix_from_complex(ints(32, 32))
    b[:, 5] = g(Fraction(1, 3), Fraction(-2, 5))
    assert requal(_matmul(a, b), ref_matmul(a, b))
    assert_kernel_matches_reference(a)
    nil = rmatrix_from_complex(np.triu(ints(32, 32), 30))
    assert exact_index(nil) == ref_index(nil) == 2
    assert requal(exact_drazin(nil), rzeros(32, 32))


@given(gaussian_matrix())
@settings(max_examples=60, deadline=None)
def test_proj_range_matches_reference(b):
    assert requal(exact_proj_range(b), ref_matmul(b, ref_pinv(b)))


@given(square_matrix())
@settings(max_examples=60, deadline=None)
def test_core_ep_matches_reference(a):
    assert requal(exact_core_ep(a), ref_weighted_qbt(a, reye(a.shape[0]), ref_index(a)))


@given(square_matrix().filter(lambda a: ref_index(a) <= 1))
@settings(max_examples=40, deadline=None)
def test_group_and_core_match_reference_at_index_at_most_one(a):
    group = ref_drazin(a)
    assert requal(exact_group(a), group)
    assert requal(exact_core(a), ref_matmul(ref_matmul(group, a), ref_pinv(a)))


@given(weighted_pair())
@settings(max_examples=40, deadline=None)
def test_weighted_core_ep_and_drazin_match_reference(awq):
    a, w, _q = awq
    aw, wa = ref_matmul(a, w), ref_matmul(w, a)
    k = max(ref_index(aw), ref_index(wa))
    assert requal(exact_weighted_core_ep(a, w), ref_weighted_qbt(a, w, k))
    d = ref_drazin(wa)
    assert requal(exact_weighted_drazin(a, w), ref_matmul(a, ref_matmul(d, d)))


@given(square_matrix(), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_square_qbt_is_weighted_qbt_with_identity_weight(a, q):
    assert requal(exact_qbt(a, q), exact_weighted_qbt(a, reye(a.shape[0]), q))


# --------------------------------------------------------------------------
# The boundary: a numeric array enters as `rmatrix_from_complex` converts it.
# Read entry by entry off int64, uint8 or bool scalars, the elimination
# would wrap or fail instead.

_NUMERIC = {
    "int8": st.integers(-128, 127),
    "int32": st.integers(-2 ** 31, 2 ** 31 - 1),
    "int64": st.integers(-2 ** 63, 2 ** 63 - 1),
    "uint8": st.integers(0, 255),
    "bool": st.booleans(),
    "complex128": st.builds(complex, st.integers(-2 ** 40, 2 ** 40),
                            st.integers(-2 ** 40, 2 ** 40)),
}


@st.composite
def numeric_array(draw):
    """A numeric array of integer entries, or an object array of numpy
    scalars, of one of the dtypes above."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from(sorted(_NUMERIC)))
    rows = draw(st.lists(st.lists(_NUMERIC[dtype], min_size=n, max_size=n),
                         min_size=m, max_size=m))
    a = np.array(rows, dtype=dtype)
    return a.astype(object) if draw(st.booleans()) else a


@given(numeric_array())
@settings(max_examples=150, deadline=None)
def test_numeric_arrays_give_the_rmatrix_from_complex_result(a):
    try:
        exact = rmatrix_from_complex(a)
    except DomainError:
        exact = None
    if a.dtype != object:
        assert exact is not None
    calls = [exact_rank, exact_pinv, exact_proj_range]
    if a.shape[0] == a.shape[1]:
        calls += [exact_index, exact_drazin, lambda b: exact_qbt(b, 2)]
    for call in calls:
        if exact is None:
            with pytest.raises(DomainError):
                call(a)
        else:
            got, expected = call(a), call(exact)
            assert got == expected if isinstance(got, int) else requal(got, expected)
