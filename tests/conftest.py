import json

import numpy as np
import pytest

from spinsearch.linalg import random_hermitian, random_unitary  # noqa: F401  (shared by the test modules)
from spinsearch.selftest import INVARIANT_GROUPS

# the registry's checks by name, for tests that run one with their own cases
CHECK = {name: check for name, check, _tolerance in INVARIANT_GROUPS}


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def maxabs(a):
    return float(np.abs(a).max())


def support(components: dict, tol: float = 1e-12) -> list[int]:
    """The coherence orders of a decompose_orders result with a component
    larger than tol."""
    return sorted(m for m, a in components.items() if np.abs(a).max() > tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
