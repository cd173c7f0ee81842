import numpy as np
import pytest

from geninv import projectors
from geninv.corpus import random_square
from geninv.matrix import frobenius


def cold():
    """Empty the operand memo, so the next call factors its operand."""
    projectors._memo = None


@pytest.fixture(autouse=True)
def cold_operand_memo():
    """Every test starts with the operand memo empty, so a count it pins
    does not depend on which test ran before it."""
    cold()


@pytest.fixture
def svds(monkeypatch):
    """Shapes and keyword arguments of every numpy.linalg.svd call."""
    calls = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def squares():
    """10 x 10 squares of index k = 0, 1, 2, 3."""
    rng = np.random.default_rng(7)
    return {k: random_square(rng, 10, index=k) for k in (0, 1, 2, 3)}


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_complex(rng, m, n, rank=None):
    """Random complex matrix, optionally of prescribed rank."""
    if rank is None:
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    right = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return left @ right


def rel(x, y):
    """Frobenius distance of x from y, relative to max(1, ||y||)."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    return frobenius(x - y) / max(1.0, frobenius(y))
