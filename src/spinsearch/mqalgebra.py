"""Coherence-order grading and multiple-quantum operator machinery.

A matrix element <j|A|k> has coherence order m = M_j - M_k, where M is the
collective z quantum number of the basis state: a difference of
half-integers, so every order is an exact integer, compared with == or %.
Grading an operator by m is the bookkeeping behind gradient crushing (keep
m = 0), zero-quantum dephasing (keep the diagonal), phase-cycling order
selection, and the construction of multiple-quantum generators from
diagonal projectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import magnetic_quantum_numbers, n_qubits, spin_op
from .oracle import MarkedState, diag_projector


# complex entries (64 KiB) per stacked phase-cycle batch: a stack of
# 64 x 64 or larger slices multiplies slower than a loop of 2-D products
PHASE_CYCLE_BATCH = 2**12


class AliasingError(ValueError):
    """Phase-cycle step count too small to separate the coherence orders."""


def order_matrix(n: int) -> np.ndarray:
    """order_matrix[j, k] = M_j - M_k, the integer coherence order of element (j, k)."""
    m = magnetic_quantum_numbers(n)
    return (m[:, None] - m[None, :]).astype(int)  # exact: a difference of half-integers


def decompose_orders(a: np.ndarray) -> dict[int, np.ndarray]:
    """Split an operator into its components {m: A_m} of definite coherence
    order m = -n..n; the components sum to the operator."""
    n = n_qubits(a)
    om = order_matrix(n)
    return {m: np.where(om == m, a, 0.0) for m in range(-n, n + 1)}


def order_component(a: np.ndarray, m: int) -> np.ndarray:
    """Order-m component of an operator."""
    return np.where(order_matrix(n_qubits(a)) == m, a, 0.0)


@dataclass
class LomsoBasis:
    """Diagonal product-operator basis {Z_l} with the projector transform.

    Z_0 = E and, for a nonempty qubit subset T (encoded in the bits of l,
    qubit 1 = most significant), Z_l = 2^(|T|-1) * prod_{k in T} I_kz.
    The matrix `a` satisfies D_k = sum_l a[k, l] Z_l for every basis
    projector D_k, and `a_inv` is its inverse.
    """

    n: int
    z_ops: list[np.ndarray]
    a: np.ndarray
    a_inv: np.ndarray


def lomso_transform(n: int) -> LomsoBasis:
    """Build the diagonal product-operator basis and projector transform."""
    if n > 8:
        raise ValueError("basis construction is limited to n <= 8")
    dim = 2**n
    # diag(Z_l)[x] = (1/2) * (-1)^popcount(l & x) for l >= 1, and 1 for l = 0
    z_diag = np.empty((dim, dim))
    for l in range(dim):
        for x in range(dim):
            z_diag[l, x] = 0.5 * (-1) ** bin(l & x).count("1") if l else 1.0
    a = np.linalg.inv(z_diag)
    z_ops = [np.diag(z_diag[l].astype(complex)) for l in range(dim)]
    return LomsoBasis(n=n, z_ops=z_ops, a=a, a_inv=z_diag.copy())


def lomso_expand_projector(basis: LomsoBasis, k: int) -> np.ndarray:
    """Reassemble D_k from its coordinates in the {Z_l} basis."""
    out = np.zeros((2**basis.n, 2**basis.n), dtype=complex)
    for l, z in enumerate(basis.z_ops):
        out += basis.a[k, l] * z
    return out


def require_order_separation(n: int, n1: int) -> None:
    """Raise AliasingError unless n1 phase steps separate the orders -n..n."""
    if n1 < 2 * n + 1:
        raise AliasingError(
            f"n1 = {n1} cannot separate orders in [-{n}, {n}]; need n1 >= {2 * n + 1}"
        )


def phase_cycle_project(f_op: np.ndarray, n1: int, target_order: int) -> np.ndarray:
    """Select one coherence order by discrete Fourier phase cycling.

    Averages exp(-i phi Fz) f exp(+i phi Fz) over phi = 2 pi k / n1 with
    weights exp(+i phi * target_order).  Orders congruent to the target
    modulo n1 alias onto it, hence the n1 >= 2n + 1 requirement.
    """
    n = n_qubits(f_op)
    require_order_separation(n, n1)
    mz = -1j * magnetic_quantum_numbers(n)  # Fz is diagonal: -i M per basis state
    dim = len(mz)
    out = np.zeros_like(f_op, dtype=complex)
    # the steps run as batched r @ f @ r+ over stacks of dense diagonal r
    # = exp(-i phi Fz), PHASE_CYCLE_BATCH entries per stack; the weighted
    # slices are summed in step order
    batch = max(1, PHASE_CYCLE_BATCH // f_op.size)
    for start in range(0, n1, batch):
        phis = 2 * np.pi * np.arange(start, min(start + batch, n1)) / n1
        r = np.zeros((len(phis), dim, dim), dtype=complex)
        r[:, np.arange(dim), np.arange(dim)] = np.exp(mz * phis[:, None])
        steps = r @ f_op
        steps = steps @ np.conjugate(r, out=r).transpose(0, 2, 1)  # r+ in r's buffer
        for phi, step in zip(phis.tolist(), steps):
            out += np.exp(1j * phi * target_order) * step
    return out / n1


def x_product_op(n: int, qubits) -> np.ndarray:
    """2^(l-1) * prod I_kx over the given qubit subset (l = subset size)."""
    qubits = sorted(set(qubits))
    if not qubits:
        raise ValueError("need at least one qubit index")
    out = np.eye(2**n, dtype=complex) * 2.0 ** (len(qubits) - 1)
    for k in qubits:
        out = out @ spin_op(n, k, "x")
    return out


def mq_generator(n: int, l_indices) -> np.ndarray:
    """Hermitian multiple-quantum generator i [X_l, D_first - D_last], with
    support only at orders +-l.

    X_l is the x product operator over the chosen qubits and
    D_first/D_last project onto the all-zeros / all-ones states.
    """
    x_l = x_product_op(n, l_indices)
    d = diag_projector(MarkedState(s=0, n=n)) - diag_projector(MarkedState(s=2**n - 1, n=n))
    return 1j * (x_l @ d - d @ x_l)
