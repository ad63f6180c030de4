"""Dense linear algebra for small spin-1/2 systems.

Everything downstream works on plain ndarrays of dimension 2**n: real
float64 where an operator's imaginary part is exactly zero (the x and z
spin sums of total_op, and so the states initial_state builds on those
axes), complex otherwise.  A real operator takes part in complex products
as itself plus 0j, so keeping it real changes no complex result.
Conventions, fixed once here:

* hbar = 1 and Iz = diag(1, -1)/2, so |0> is the M = +1/2 state.
* Qubit 1 is the most significant tensor factor.  The computational-basis
  index of a product state is then the integer read off the qubit bit
  string.  The two auxiliary qubits of the explicit oracle are the least
  significant factors; that layout is fixed in oracle.
* Builders take the qubit count n (spin_op, total_op, product_rotation);
  functions that take an operator read n off its shape with n_qubits.
* Single-spin sums are built by index (total_op).  No work-qubit operator
  is lifted to the auxiliary pair: the explicit-oracle search traces the
  pair out after the oracle, exact as Tr_aux[(u x I) rho (u x I)^+] =
  u Tr_aux[rho] u^+ and its z readout reads only aux-diagonal entries.
* Matrix exponentials of Hermitian generators go through the
  eigendecomposition, which keeps the result unitary to roundoff.  The
  exception is a collective pulse exp(-i angle F_axis): its single-spin
  terms commute, so it is built exactly as a Kronecker product of 2x2
  rotations (product_rotation).  Where only the populations of a state
  after such a product are needed, they are contracted from the 2x2
  factor one qubit at a time, and the product is never built
  (product_populations).
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
BRANCH_TOL = 1e-8
# 256 KiB, a power of two: one slab of every loop over rows, cases or points
# that would otherwise hold a large array; slabs() reads it at each call
SLAB_BYTES = 2**18

PAULI_HALF = {
    "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
    "y": 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": 0.5 * np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),
    "-": np.array([[0, 0], [1, 0]], dtype=complex),
}


class BranchCutError(ValueError):
    """A matrix logarithm hit the principal-branch cut (eigenphase at pi)."""


def slabs(count: int, row_bytes: int, min_rows: int = 1) -> list[slice]:
    """Consecutive slices of count rows of row_bytes each: as many rows to
    a slice as SLAB_BYTES holds, at least min_rows, fewer in the last."""
    height = max(min_rows, SLAB_BYTES // row_bytes)
    return [slice(start, min(start + height, count)) for start in range(0, count, height)]


def n_qubits(a: np.ndarray) -> int:
    """The qubit count n of a 2**n x 2**n operator."""
    n = int(round(np.log2(a.shape[0])))
    if a.shape != (2**n, 2**n):
        raise ValueError(f"operator of shape {a.shape} is not 2**n x 2**n")
    return n


def kron_all(factors) -> np.ndarray:
    """Kronecker product of 2-D factors, first factor most significant.

    A left fold of broadcast outer products: each step multiplies every
    entry of the running product with every entry of the next factor, as
    np.kron does, but without np.kron's per-call dispatch.
    """
    out = np.eye(1, dtype=complex)
    for f in factors:
        f = np.asarray(f)
        (r, c), (p, q) = out.shape, f.shape
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(r * p, c * q)
    return out


def spin_op(n: int, k: int, axis: str) -> np.ndarray:
    """Single-spin operator for qubit k (1-based) of n qubits."""
    if axis not in PAULI_HALF:
        raise ValueError(f"unknown axis {axis!r}")
    if not 1 <= k <= n:
        raise IndexError(f"qubit index {k} outside 1..{n}")
    factors = [np.eye(2, dtype=complex)] * n
    factors[k - 1] = PAULI_HALF[axis]
    return kron_all(factors)


def single_spin_entries(n: int, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Row x of I_k_axis holds its one nonzero, vals[k - 1, x], at column
    cols[k - 1, x]: x itself for z, x with qubit k's bit flipped for x, y."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"spin-sum axis must be x, y or z, got {axis!r}")
    shifts = np.arange(n - 1, -1, -1)[:, None]
    rows = np.arange(2**n)
    bits = (rows >> shifts) & 1
    flip = int(axis != "z")
    return rows ^ (flip << shifts), PAULI_HALF[axis][bits, bits ^ flip]


def iz_diagonals(n: int) -> np.ndarray:
    """Row k - 1 is the real diagonal of I_kz, contiguous to keep the readout's summation order."""
    return np.ascontiguousarray(single_spin_entries(n, "z")[1].real)


def qubit_weights(n: int, weights) -> np.ndarray:
    """One weight per qubit, from one weight or n of them."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape not in ((), (n,)):
        raise ValueError(f"need one weight or one per qubit, got shape {weights.shape}")
    return np.broadcast_to(weights, (n,))


def total_op(n: int, axis: str, weights=1.0) -> np.ndarray:
    """sum_k w_k I_k_axis for one weight w or n of them, accumulated
    entrywise in k order: bit for bit the sum of the dense terms.  Real
    for x and z, whose entries have imaginary part exactly zero, and
    complex for y."""
    cols, vals = single_spin_entries(n, axis)
    if not vals.imag.any():
        vals = vals.real
    weights = qubit_weights(n, weights)
    rows = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=vals.dtype)
    for w, c, v in zip(weights, cols, vals):
        out[rows, c] += w * v
    return out


def product_rotation(n: int, axis: str, angle) -> np.ndarray:
    """exp(-i angle F_axis) on n qubits, as the Kronecker product of the
    single-qubit rotations exp(-i angle sigma_axis / 2).

    Exact because the single-spin terms of F_axis commute.  angle is one
    angle for every qubit or a sequence of n per-qubit angles; a zero
    angle leaves its qubit alone.
    """
    if axis not in ("x", "y", "z"):
        raise ValueError(f"rotation axis must be x, y or z, got {axis!r}")
    angles = np.broadcast_to(np.asarray(angle, dtype=float), (n,))
    eye = np.eye(2, dtype=complex)
    sigma = 2 * PAULI_HALF[axis]
    return kron_all(
        math.cos(a / 2) * eye - 1j * math.sin(a / 2) * sigma for a in angles
    )


def product_populations(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """diag(R rho R^T) for R = r x ... x r on n qubits, a real 2 x 2 r and
    a real N x N rho, without forming R or the N^3 product.

    Entry i is sum_jk R_ij rho_jk R_ik, and R_ij R_ik is the product over
    qubits q of t[i_q, (j_q, k_q)] with t[i, (j, k)] = r_ij r_ik.  One
    transpose copy of rho interleaves each qubit's row bit with its column
    bit, qubit 1's pair most significant; the pairs are then contracted
    one qubit at a time, each step a product with inner dimension 4 that
    halves the array: 4 N^2 multiply-adds in all.
    """
    n = n_qubits(rho)
    t = (r[:, :, None] * r[:, None, :]).reshape(2, 4)
    pairs = [axis for q in range(n) for axis in (q, n + q)]
    x = np.ascontiguousarray(rho.reshape((2,) * 2 * n).transpose(pairs))
    for q in range(n):
        x = np.matmul(t, x.reshape(2**q, 4, -1))
    return x.reshape(-1)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random Hermitian matrix (z + z^dagger)/2 with Gaussian entries."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (z + z.conj().T) / 2


def magnetic_quantum_numbers(n: int) -> np.ndarray:
    """Diagonal of the collective z operator for n spins, indexed by basis state.

    Basis index x has M = (n - 2 popcount(x)) / 2.
    """
    popcount = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return (n - 2 * popcount) / 2


def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def expm_unitary(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, via eigendecomposition, diagonal h
    included: its eigenvectors are basis vectors, so the result is the
    diagonal of phases exp(-i h_jj t)."""
    defect = float(np.abs(h - h.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def matrix_log_skew(u: np.ndarray) -> np.ndarray:
    """Hermitian h with u = exp(i*h) and eigenphases on the principal branch.

    The eigenphases are first rotated by a common angle so that the widest
    gap between them sits at -1.  The Cayley transform of the rotated
    unitary w, i (1 - w)(1 + w)^-1, is then a well-conditioned Hermitian
    matrix with the same eigenvectors, and its eigh gives an orthonormal
    eigenbasis even for (near-)degenerate eigenvalues, where a plain
    eigendecomposition of a unitary may not.  Eigenphases within BRANCH_TOL
    of +-pi are ambiguous and raise BranchCutError.
    """
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    sorted_phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(sorted_phases, append=sorted_phases[0] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    alpha = np.pi - (sorted_phases[widest] + gaps[widest] / 2)
    w = np.exp(1j * alpha) * u
    eye = np.eye(u.shape[0])
    cayley = 1j * np.linalg.solve(eye + w, eye - w)
    lam, z = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    phases = np.angle(np.exp(1j * (2 * np.arctan(lam) - alpha)))
    if np.any(np.pi - np.abs(phases) < BRANCH_TOL):
        raise BranchCutError(
            f"eigenphase within {BRANCH_TOL:.1e} of the +-pi branch cut; logarithm is ambiguous"
        )
    return (z * phases) @ z.conj().T
