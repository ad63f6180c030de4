import numpy as np
import pytest

from spinsearch.linalg import random_hermitian  # noqa: F401  (shared by the test modules)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def maxabs(a):
    return float(np.abs(a).max())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
