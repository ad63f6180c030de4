"""Coherence-order selection by phase cycling.

A matrix element <j|A|k> has coherence order m = M_j - M_k, where M is the
collective z quantum number of the basis state: a difference of
half-integers, so every order is an exact integer.  Phase cycling selects
one order of an operator by a discrete Fourier sum over z rotations; it
is how the cross-peak demo keeps the zero-quantum part of its generator.
The grading by order_matrix that phase cycling is checked against, the
LOMSO product-operator basis and the multiple-quantum generators live in
spinsearch.references.
"""

from __future__ import annotations

import numpy as np

from .linalg import magnetic_quantum_numbers, n_qubits, slabs


class AliasingError(ValueError):
    """Phase-cycle step count too small to separate the coherence orders."""


def require_order_separation(n: int, n1: int) -> None:
    """Raise AliasingError unless n1 phase steps separate the orders -n..n."""
    if n1 < 2 * n + 1:
        raise AliasingError(
            f"n1 = {n1} cannot separate orders in [-{n}, {n}]; need n1 >= {2 * n + 1}"
        )


def phase_cycle_project(f_op: np.ndarray, n1: int, target_order) -> np.ndarray:
    """Select one coherence order by discrete Fourier phase cycling.

    Averages exp(-i phi Fz) f exp(+i phi Fz) over phi = 2 pi k / n1 with
    weights exp(+i phi * target_order).  Orders congruent to the target
    modulo n1 alias onto it, hence the n1 >= 2n + 1 requirement.  f_op may
    be a stack (k, dim, dim) with one target order per operator; each
    operator's projection is bit for bit its own call's.
    """
    stack = f_op if f_op.ndim == 3 else f_op[None]
    targets = np.reshape(target_order, -1)
    if len(targets) != len(stack):
        raise ValueError(f"{len(stack)} operators need as many target orders, got {len(targets)}")
    n = n_qubits(stack[0])
    require_order_separation(n, n1)
    mz = -1j * magnetic_quantum_numbers(n)  # Fz is diagonal: -i M per basis state
    dim = len(mz)
    out = np.zeros(stack.shape, dtype=complex)
    # the steps run as batched r @ f @ r+ over stacks of dense diagonal r
    # = exp(-i phi Fz), one slab of (operator, step) slices of dim^2
    # complex entries per stack; each operator's weighted slices are summed
    # in step order
    slice_bytes = 16 * dim * dim
    op_slabs = slabs(len(stack), slice_bytes)
    for batch in slabs(n1, op_slabs[0].stop * slice_bytes):
        phis = 2 * np.pi * np.arange(batch.start, batch.stop) / n1
        r = np.zeros((len(phis), dim, dim), dtype=complex)
        r[:, np.arange(dim), np.arange(dim)] = np.exp(mz * phis[:, None])
        r_dagger = r.conj().transpose(0, 2, 1)
        weights = np.exp(1j * phis * targets[:, None])[:, :, None, None]
        for ops in op_slabs:
            steps = r @ stack[ops, None] @ r_dagger
            np.multiply(weights[ops], steps, out=steps)  # weight first: the product's operand order
            acc = out[ops]
            for j in range(len(phis)):
                acc += steps[:, j]
    return (out / n1).reshape(f_op.shape)
