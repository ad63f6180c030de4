"""The registry's references: the dense builders and restated closed forms
that selftest and the tests check the routes against.  No command runs them.

A route module (every module but this one and selftest) holds only code
that a command reaches.  Only selftest imports this module, and this
module takes from the route modules only the inputs of a check: states,
projectors, rotations, the marked state and the closed-form tables that
a reference reads.  It never takes a route's kernel, so a reference cannot
become a copy of the route it checks.  tests/test_imports.py states this
split once, with the input builders it allows by name.  The references
come in the order of the route modules they sit beside: linalg, oracle,
mqalgebra, sequences, spectroscopy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import magnetic_quantum_numbers, n_qubits, product_rotation, spin_op
from .oracle import MarkedState, aux_phase_vector, diag_projector, uf_permutation
from .sequences import auto_m_max, grover_coefficients, projector_x_basis, x_basis_state
from .spectroscopy import SpinHamiltonian

GAMMA1_PEAK_REL_TOL = 0.01  # how near the maximum gamma1_first_peak's first peak must come


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def selective_phase(marked: MarkedState, theta: float) -> np.ndarray:
    """C_s(theta) = E + (exp(-i theta) - 1) |s><s|, diagonal and unitary."""
    c = np.eye(2**marked.n, dtype=complex)
    c[marked.s, marked.s] = np.exp(-1j * theta)
    return c


def oracle_uf(marked: MarkedState) -> np.ndarray:
    """Bit-flip oracle U_f as a dense permutation matrix."""
    p = uf_permutation(marked)
    u = np.zeros((len(p), len(p)), dtype=complex)
    u[p, np.arange(len(p))] = 1.0
    return u


def oracle_uo(marked: MarkedState, theta: float) -> np.ndarray:
    """Phase oracle U_o(theta) = U_f V_S(theta) U_f on the full system."""
    uf = oracle_uf(marked)
    return uf @ np.diag(aux_phase_vector(marked.n, theta)) @ uf


def restrict_to_aux01(u: np.ndarray) -> np.ndarray:
    """Block of a full-system operator on the auxiliary |0>|1> sector."""
    return u[0b01::4, 0b01::4].copy()  # index x * 4 + aux, aux = 0b01


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


def order_component(a: np.ndarray, m) -> np.ndarray:
    """Order-m component of an operator, or of each operator of a stack
    (k, dim, dim) with one order m per operator."""
    om = order_matrix(n_qubits(a[0] if a.ndim == 3 else a))
    return np.where(om == np.reshape(m, np.shape(m) + (1, 1)), a, 0.0)


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


def sum_vector_signal(markeds, epsilons, theta: float) -> np.ndarray:
    """The signal-enhancement law: the search's per-spin z coefficients
    sin(theta) (2/N) eps_k sum_r a_k(r) when the same phase theta is applied
    to each of the distinct indices r of markeds (s and the extras)."""
    signs = np.sum([marked.signs for marked in markeds], axis=0)
    return np.sin(theta) * 2 / 2 ** markeds[0].n * np.asarray(epsilons) * signs


def grover_propagator(marked: MarkedState, m: int) -> np.ndarray:
    """[exp(-i pi D_last) exp(-i pi D_s^x)]^m as a dense matrix: the reference
    grover_conjugate is checked against.  Each step applies
    S = (I - 2 D_last)(I - 2 |x_s><x_s|) from the left, as the rank-1 update
    U - x_s (2 x_s^T U)^T and a sign flip of the last row."""
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    xs = x_basis_state(marked)
    u = np.eye(2**marked.n, dtype=complex)
    for _ in range(m):
        u = u - np.outer(xs, 2 * (xs @ u))
        u[-1] *= -1
    return u


def sign_flip_frame(marked: MarkedState) -> np.ndarray:
    """Unitary W with D_s = W D_first W^dagger, built from x rotations.

    W = exp(-i pi/2 Fx) * prod_k exp(+i pi/2 a_k I_kx); conjugating the
    all-zeros projector by W lands on the marked projector.
    """
    n = marked.n
    per_spin = [-a * np.pi / 2 for a in marked.signs]
    return product_rotation(n, "x", np.pi / 2) @ product_rotation(n, "x", per_spin)


def grover_propagator_factored(marked: MarkedState, m: int) -> np.ndarray:
    """The same propagator with the marked-state dependence pulled into a
    fixed frame change around a marked-independent core iteration."""
    n = marked.n
    w = product_rotation(n, "y", np.pi / 2) @ sign_flip_frame(marked)
    return w @ grover_core(n, m) @ w.conj().T


def grover_coefficients_recursion(m_max: int, N: int) -> np.ndarray:
    """The alpha table of grover_coefficients by iterating the linear
    recursion once from zero: row m is the state after m steps."""
    if m_max < 0:
        raise ValueError("iteration count must be >= 0")
    alpha = np.zeros((m_max + 1, 4))
    a1 = a2 = a3 = a4 = 0.0
    for m in range(1, m_max + 1):
        alpha[m] = a1, a2, a3, a4 = (
            (-1 + 4 / N) * a1 + (2 / N) * a3 - 2,
            -a2 - (2 / N) * a4 - 2,
            -2 * a1 - a3,
            2 * a2 + (-1 + 4 / N) * a4 + 4,
        )
    return alpha


def grover_basis(n: int) -> list[np.ndarray]:
    """The closed five-operator basis {E, D0, D0x, D0 D0x, D0x D0}."""
    d0 = diag_projector(MarkedState(s=0, n=n))
    d0x = projector_x_basis(MarkedState(s=0, n=n))
    return [np.eye(2**n, dtype=complex), d0, d0x, d0 @ d0x, d0x @ d0]


def _core_trajectory(basis: list[np.ndarray], m_max: int):
    """Yield G(0), G(1), ..., G(m_max) of the core iteration, each as the
    dense product step @ G(m - 1); basis is grover_basis(n)."""
    if m_max < 0:
        raise ValueError("iteration count must be >= 0")
    _, d0, d0x = basis[:3]
    dim = d0.shape[0]
    step = (np.eye(dim) - 2 * d0x) @ (np.eye(dim) - 2 * d0)
    g = np.eye(dim, dtype=complex)
    yield g
    for _ in range(m_max):
        g = step @ g
        yield g


def grover_core(n: int, m: int) -> np.ndarray:
    """The marked-independent core iteration [exp(-i pi D0x) exp(-i pi D0)]^m."""
    for g in _core_trajectory(grover_basis(n), m):
        pass
    return g


def extract_alpha_from_matrix(n: int, m_max: int) -> list[tuple[np.ndarray, float]]:
    """Least-squares coefficients of the core G(m) over the five-operator
    basis, for m = 0..m_max.

    The basis is not orthogonal under the trace inner product, so the
    normal equations go through its Gram matrix, built once.  G(m) comes
    from the dense iteration, never from the closed form.  Entry m holds
    the five coefficients (the leading one should be 1) and the max-entry
    residual of the reconstruction.
    """
    basis = grover_basis(n)
    stack = np.array(basis)
    bra = stack.conj()
    gram = np.einsum("aij,bij->ab", bra, stack)
    fits = []
    for g in _core_trajectory(basis, m_max):
        rhs = np.einsum("aij,ij->a", bra, g)
        coeffs = np.linalg.solve(gram, rhs)
        recon = sum(c * b for c, b in zip(coeffs, basis))
        fits.append((coeffs, float(np.abs(g - recon).max())))
    return fits


def gamma1_first_peak(N: int) -> tuple[int, float]:
    """Location and height of the first near-maximal |gamma_1(m)| peak.

    |gamma_1| has near-degenerate replica peaks at odd multiples of the
    first one, so the global argmax over a wide window is a lattice
    accident; the first m within GAMMA1_PEAK_REL_TOL of the global maximum
    is the stable location.  Scans m in [1, auto_m_max(N)].
    """
    vals = np.abs(grover_coefficients(auto_m_max(N), N)[1][1:, 0])
    peak = vals.max()
    first = int(np.argmax(vals >= (1 - GAMMA1_PEAK_REL_TOL) * peak)) + 1
    return first, float(peak)


def eigen_expand(p: np.ndarray, q: np.ndarray, h: SpinHamiltonian):
    """All transition lines (w_jk, conj(Q_jk) P_jk) of the diagonal H."""
    w = h.diagonal
    return (w[:, None] - w[None, :]).ravel(), (q.conj() * p).ravel()


def resum_lines(omegas: np.ndarray, amps: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Reassemble the time signal sum_jk amp * exp(-i w t), as elementwise
    products and row sums: a complex matrix-vector product would go to a
    threaded BLAS gemv, which stalls on a second thread at these sizes."""
    return (np.exp(-1j * np.outer(times, omegas)) * amps).sum(axis=1)


def order_intensities(p: np.ndarray, q: np.ndarray) -> dict[int, complex]:
    """Line-amplitude sums grouped by coherence order m = M_j - M_k.

    Summing over all orders reproduces the t1 = 0 signal Tr(Q P).
    """
    n = n_qubits(p)
    om = order_matrix(n)
    amps = q.conj() * p
    return {m: complex(amps[om == m].sum()) for m in range(-n, n + 1)}

