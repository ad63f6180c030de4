import tracemalloc

import numpy as np
import pytest

from spinsearch.linalg import random_hermitian  # noqa: F401  (shared by the test modules)
from spinsearch.references import random_unitary  # noqa: F401
from spinsearch.selftest import INVARIANT_GROUPS, _fold

from reference import patch_forbidden

# the registry's checks by name, each folded to its group residual as
# run_selftest folds it, for tests that run one with their own cases
CHECK = {
    name: lambda check=check, **cases: _fold(check(**cases)) for name, check, _tolerance in INVARIANT_GROUPS
}


def maxabs(a):
    return float(np.abs(a).max())


def assert_peak_at_most(bound: float, fn, *args, **kwargs) -> None:
    """fn(*args, **kwargs), warmed up once, peaks at most bound bytes traced."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB above {bound / 2**20:.2f} MiB"


def support(components: dict, tol: float = 1e-12) -> list[int]:
    """The coherence orders of a decompose_orders result with a component
    larger than tol."""
    return sorted(m for m, a in components.items() if np.abs(a).max() > tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# every numerics entry point the commands reach
NUMERICS = (
    "simple_search", "measured_conversion_coefficients", "grover_conjugate", "run_pipeline",
    "transfer_pair", "cross_zq_hamiltonian", "trotter_product", "commutator_product",
    "symmetric_sandwich", "cross_interaction", "fractal_compose", "run_selftest",
)


@pytest.fixture
def no_numerics(monkeypatch):
    """Every binding of every NUMERICS name raises: nothing is computed."""
    patch_forbidden(monkeypatch, NUMERICS)
