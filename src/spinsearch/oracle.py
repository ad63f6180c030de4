"""Search-problem oracles on work + auxiliary qubits.

The explicit oracle acts on n work qubits and exactly two auxiliary
qubits a and b, which occupy the two least significant positions: the
full-system index is 4 x + 2 a + b for work index x.  That layout is
fixed here, so the explicit-oracle functions take only the marked state
(which carries n) or n itself.

The marked basis index s is carried equivalently by a sign vector
{a_k = +-1}: a_k = +1 when bit k of s (qubit 1 = most significant) is 0.
The diagonal projector onto |s><s| factorizes as the product of single-spin
projectors (E/2 + a_k I_kz), which is what makes product-operator analysis
of the oracle possible.  diag_projector builds |s><s| as its one nonzero
entry; the selftest group projector-product-form checks it against the
product form for every s at n <= 4.

Two oracle realizations are provided and are interchangeable on the
auxiliary |0>|1> sector:

* the explicit bit-flip oracle U_f on two auxiliary qubits, with the
  conditional aux phase V_S, composed as U_o = U_f V_S U_f (U_f is an
  involution, so this equals U_f^-1 V_S U_f), and
* the aux-free selective phase shift C_s(theta) = exp(-i theta D_s)
  acting on the work qubits alone.

U_f is a permutation of basis indices, and uf_permutation is its one
definition; V_S is diagonal, and aux_phase_vector is its diagonal.  The
search pipeline applies U_f by indexing and V_S as a phase vector.  The
dense matrices built from them, the matrix of C_s(theta) and the block
on the |0>|1> sector serve small-n checks and live in
spinsearch.references.

Oracle cost accounting: one U_o (or its C_s stand-in) consumes two
applications of U_f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spin_op

UF_CALLS_PER_UO = 2


@dataclass(frozen=True)
class MarkedState:
    """The unique search solution s on n work qubits."""

    s: int
    n: int

    def __post_init__(self):
        if not 0 <= self.s < 2**self.n:
            raise ValueError(f"marked index {self.s} outside [0, {2**self.n})")

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(sign_vector(self.s, self.n))

    @classmethod
    def from_signs(cls, signs) -> "MarkedState":
        signs = list(signs)
        n = len(signs)
        if any(a not in (1, -1) for a in signs):
            raise ValueError("signs must be +-1")
        s = sum((1 << (n - k)) for k in range(1, n + 1) if signs[k - 1] == -1)
        return cls(s=s, n=n)


def sign_vector(s: int, n: int) -> np.ndarray:
    """Sign vector {a_k} of basis index s; bit 0 maps to a = +1."""
    if not 0 <= s < 2**n:
        raise ValueError(f"index {s} outside [0, {2**n})")
    return np.array([1 if ((s >> (n - k)) & 1) == 0 else -1 for k in range(1, n + 1)])


def diag_projector(marked: MarkedState) -> np.ndarray:
    """Rank-1 projector |s><s|: a single 1 at (s, s).

    Equal entry for entry to the single-spin product form
    prod_k (E/2 + a_k I_kz), which the selftest group
    projector-product-form checks.
    """
    dim = 2**marked.n
    d = np.zeros((dim, dim), dtype=complex)
    d[marked.s, marked.s] = 1.0
    return d


def uf_permutation(marked: MarkedState) -> np.ndarray:
    """Index map p of the bit-flip oracle: U_f |idx> = |p[idx]>.

    U_f |x>|a>|b> = |x>|a xor f(x)>|b> with f(x) = [x == s]; aux qubit a is
    bit 0b10 of the index.  U_f is an involution: p[p] is the identity, and
    U_f rho U_f^dagger = rho[p][:, p].
    """
    idx = np.arange(2 ** (marked.n + 2))
    f = (idx >> 2) == marked.s
    return idx ^ (0b10 * f)


def aux_phase_vector(n: int, theta: float) -> np.ndarray:
    """Diagonal of V_S(theta) on n work qubits plus the auxiliary pair:
    exp(-i theta) on auxiliary states with a = 1, b = 1."""
    d = np.ones(2 ** (n + 2), dtype=complex)
    d[0b11::4] = np.exp(-1j * theta)
    return d


def aux_pure_state() -> np.ndarray:
    """Projector |0><0| x |1><1| on the two auxiliary spins (4x4)."""
    s1z = spin_op(2, 1, "z")
    s2z = spin_op(2, 2, "z")
    return 0.25 * np.eye(4) + 0.5 * (s1z - s2z) - s1z @ s2z
