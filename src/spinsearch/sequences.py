"""Ensemble search sequences on mixed spin states.

Two layers live here:

* the two-oracle-call search: prepare transverse magnetization, apply one
  selective phase shift, rotate, crush everything except the longitudinal
  part, and read the marked-state sign vector off the per-spin z
  coefficients;
* the Grover-type iteration [exp(-i pi D_last) exp(-i pi D_s^x)]^m, whose
  action stays inside a five-operator algebra.  The expansion coefficients
  have a trigonometric closed form, and they determine how much
  longitudinal magnetization survives m iterations (the conversion
  coefficient).  Each is evaluated as one table over m = 0..m_max, one
  row per m; measured_conversion_coefficients steps the iteration on the
  state instead, without forming it.

Only what a command runs lives here.  The brute-force references these
routes are checked against (the dense propagator and its factored form,
the coefficients' linear recursion, the least-squares fit of the dense
core iteration, gamma1_first_peak and the signal-enhancement law) live in
spinsearch.references; the matrix pipeline is the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .linalg import iz_diagonals, kron_all, product_populations, product_rotation, slabs, total_op
from .oracle import (
    UF_CALLS_PER_UO,
    MarkedState,
    aux_phase_vector,
    aux_pure_state,
    diag_projector,
    sign_vector,
    uf_permutation,
)

DEFAULT_SEARCH_THETA = -np.pi / 2
READOUT_REL_THRESHOLD = 1e-9


class AmbiguousReadoutError(RuntimeError):
    """A per-qubit readout coefficient is too small to assign a sign."""


def initial_state(n: int, epsilons, axis: str = "y") -> np.ndarray:
    """Deviation part sum_k eps_k I_k_axis on n work qubits."""
    return total_op(n, axis, epsilons)


def conjugate_multi_selective(rho: np.ndarray, markeds, thetas, *, overwrite=False) -> np.ndarray:
    """Conjugation by a product of selective phase shifts C_s(theta_k), in
    closed form; one marked state gives the single-phase identity.

    With u_k = 1 - cos theta_k, v_k = sin theta_k and D_u = sum_k u_k D_k,
    D_v = sum_k v_k D_k over the one-entry projectors D_k = |s_k><s_k|:

        rho - (rho D_u + D_u rho) + i (rho D_v - D_v rho)
            + sum_kl w_kl D_k rho D_l,
        w_kl = u_k u_l + v_k v_l + i (v_k u_l - v_l u_k).

    Each D_k only picks out row or column s_k, so the first terms scale
    rows and columns of rho, and the sum is one m x m block at the marked
    indices; no projector is built.  Exact for distinct marked indices.
    With overwrite=True a complex rho is conjugated in place and returned,
    for a caller that holds no other use of it: the state is not held twice.
    """
    markeds = list(markeds)
    thetas = [float(t) for t in thetas]
    if len(markeds) != len(thetas):
        raise ValueError("need one phase per marked state")
    idx = [m.s for m in markeds]
    if len(set(idx)) != len(idx):
        raise ValueError("marked indices must be distinct")
    idx = np.array(idx, dtype=int)
    uv = np.array([[1.0 - math.cos(t) for t in thetas], [math.sin(t) for t in thetas]])
    u, v = uv
    iv = 1j * v
    outer = uv[:, None, :, None] * uv[None, :, None, :]  # outer[a, b] = outer(uv[a], uv[b])
    w = outer[0, 0] + outer[1, 1] + 1j * (outer[1, 0] - outer[0, 1])

    cols, rows = rho[:, idx], rho[idx]  # copies, taken before out is written
    out = rho if overwrite and rho.dtype == complex else rho.astype(complex)
    out[:, idx] = cols - cols * (u - iv)  # rho - (rho D_u - i rho D_v) on the marked columns
    out[idx] -= (u + iv)[:, None] * rows  # D_u rho + i D_v rho
    out[idx[:, None], idx] += w * rows[:, idx]
    return out


@dataclass
class SearchResult:
    """Outcome of the two-call search sequence.  signs is the sign pattern
    read off once sin(theta) is divided out; prefactor_spread is the largest
    deviation of signal_k / (eps_k a_k) from their mean, measured_prefactor."""

    recovered_s: int
    per_qubit_signal: np.ndarray
    signs: np.ndarray
    oracle_uf_calls: int
    theta: float
    measured_prefactor: float
    prefactor_spread: float
    reference_prefactor: float

    @property
    def prefactor_ratio(self) -> float:
        return self.measured_prefactor / self.reference_prefactor


def simple_search(
    marked: MarkedState,
    epsilons,
    theta: float = DEFAULT_SEARCH_THETA,
    aux_mode: str = "selective-cs",
) -> SearchResult:
    """Recover the marked index with a single oracle conjugation.

    Pipeline: transverse initial state (y axis) -> oracle phase shift ->
    pi/2 pulse about y on the work qubits -> gradient crush -> zero-quantum
    dephase -> per-qubit z projection.  The crush and the dephase keep the
    computational diagonal, and the z projection reads nothing else, so
    only the populations diag(P rho P^+) of the pulsed state are computed.
    They are computed in real arithmetic, exactly: the pulse P = r x ... x r
    is real orthogonal, so Re[(P rho P^T)_ii] = (P Re(rho) P^T)_ii and
    Im rho never reaches the readout.  P itself is never built: the
    populations are contracted from the single-qubit rotation r one qubit
    at a time (product_populations), 4 N^2 multiply-adds in place of an
    N^3 product.  An r with a nonzero imaginary part raises ValueError,
    so the real pulse is checked, not assumed.
    With aux_mode="explicit-uf" the oracle runs on the full work +
    auxiliary density matrix, so the equivalence of the two oracle
    realizations is computed, not assumed, and the auxiliary pair is traced
    out right after it (exact, see _explicit_oracle_slabs).  That oracle
    runs in real arithmetic, exactly, as the state there is i times a real
    array, and it forms every full-space entry in slabs of whole work
    rows (linalg.slabs), each traced out as it arrives: the (N, 4, N, 4)
    state is never held whole.  The surviving state is proportional to
    sum_k eps_k a_k I_kz; the sign pattern recovers s once the known sign
    of sin(theta) is divided out.  The measured proportionality constant
    is reported next to the 2/N reference value, which omits the
    sin(theta) dependence seen in the matrix computation.
    """
    n = marked.n
    epsilons = np.asarray(epsilons, dtype=float)
    if epsilons.shape != (n,):
        raise ValueError("need one polarization per work qubit")
    if np.any(epsilons == 0):
        raise ValueError("polarizations must be nonzero")

    if aux_mode == "selective-cs":
        rho = conjugate_multi_selective(initial_state(n, epsilons, "y"), [marked], [theta], overwrite=True).real
    elif aux_mode == "explicit-uf":
        rho = _explicit_oracle_work_state(marked, epsilons, theta)
    else:
        raise ValueError(f"unknown aux_mode {aux_mode!r}")

    r = product_rotation(1, "y", np.pi / 2)
    if r.imag.any():
        raise ValueError("the pi/2 y pulse has an imaginary part: the real readout needs a real pulse")
    populations = product_populations(rho, r.real)

    dim = 2**n
    coeffs = iz_diagonals(n) @ populations / (dim / 4)

    mags = np.abs(coeffs)
    # relative threshold, with an absolute floor so an all-roundoff readout
    # (e.g. sin(theta) = 0) is flagged instead of amplified into signs
    threshold = max(
        READOUT_REL_THRESHOLD * mags.max(), 1e-12 * np.abs(epsilons).max()
    )
    if np.any(mags <= threshold):
        raise AmbiguousReadoutError(
            f"readout coefficients {coeffs} below threshold {threshold:.3e}"
        )

    sin_t = math.sin(theta)
    signs = np.sign(coeffs / (epsilons * sin_t)).astype(int)
    recovered = MarkedState.from_signs(signs).s
    prefactors = coeffs / (epsilons * sign_vector(recovered, n))
    prefactor = float(np.mean(prefactors))
    return SearchResult(
        recovered_s=recovered,
        per_qubit_signal=coeffs,
        signs=signs,
        oracle_uf_calls=UF_CALLS_PER_UO,
        theta=theta,
        measured_prefactor=prefactor,
        prefactor_spread=float(np.abs(prefactors - prefactor).max()),
        reference_prefactor=2.0 / dim,
    )


def _explicit_oracle_slabs(rho: np.ndarray, marked: MarkedState, theta: float):
    """Yield Re[U_o (i A) U_o^dagger] for U_o = U_f V_S(theta) U_f and
    A = Im(rho x aux_pure_state()), in consecutive slabs of whole work
    rows (linalg.slabs: 8 work rows at n = 8, fewer in the last): fresh real
    (h, 4, N, 4) arrays indexed [x, aux, x', aux'], which stacked give the
    whole full-space state, zero blocks included.  The (N, 4, N, 4) array
    is never held: a consumer that drops each slab holds at most two.

    i A is the whole state, not a part of it: the y-axis work state rho is
    purely imaginary and the auxiliary state is real, so
    rho x aux = i (Im rho x aux).  Both are checked, not assumed: a work
    state with a nonzero real part, or an auxiliary state with a nonzero
    imaginary part, raises ValueError.

    This is exact.  U_f is the real permutation p of full-space indices,
    an involution, so U_f X U_f^dagger = X[p][:, p].  V_S is diagonal with
    phases v_a that depend on the auxiliary state a alone, so it scales
    entry (k, l) by w = v_a conj(v_b) for the aux states a, b of k, l, and
    Re(i w A) = -Im(w) A.  Output entry (r, c) is therefore -Im(w) at
    (p[r], p[c]) times A at (p[p[r]], p[p[c]]).  For its output rows R a
    slab gathers the rows p[p[R]] of A, written block by block where aux
    is nonzero (every other entry stays +0.0); it applies U_f on the
    columns, the real V_S factors of the middle rows p[R] (zeros included:
    w = 1 gives exactly 0), and U_f on the columns again.
    The search's only step on the auxiliary pair: the pair is traced out
    next, exact for any aux content as
    Tr_aux[(u x I) rho (u x I)^+] = u Tr_aux[rho] u^+ and the z readout
    reads only aux-diagonal entries.  The trace and the readout after the
    real pulse are linear and read Re rho alone, so Im of the final state
    is never needed.
    """
    aux = aux_pure_state()
    if rho.real.any():
        raise ValueError("the work state has a real part: the real explicit oracle needs an imaginary one")
    if aux.imag.any():
        raise ValueError("the auxiliary state has an imaginary part: the real explicit oracle needs a real one")
    dim = len(rho)
    im = np.ascontiguousarray(rho.imag)
    del rho  # Im rho as a contiguous copy, so the complex state can go
    p = uf_permutation(marked)
    moved = np.flatnonzero(p != np.arange(len(p)))
    v = aux_phase_vector(marked.n, theta)[:4]  # the phase of each auxiliary state
    re_iw = np.tile(-np.outer(v, v.conj()).imag, dim)  # V_S: Re(i w_ab), row a, tiled over x'
    blocks = [(a, b, aux[a, b].real) for a, b in zip(*np.nonzero(aux))]
    for work in slabs(dim, 8 * 16 * dim):  # a work row: 4 full-space rows of 4N reals
        rows = np.arange(4 * work.start, 4 * work.stop)
        src = p[p[rows]]
        slab = np.zeros((len(rows), dim, 4))
        for a, b, value in blocks:
            hit = (src & 3) == a
            slab[hit, :, b] = im[src[hit] >> 2] * value
        flat = slab.reshape(len(rows), -1)  # a view: the slab's full-space rows
        flat[:, moved] = flat[:, p[moved]]  # U_f on the columns
        flat *= re_iw[p[rows] & 3]  # V_S, by the middle row's aux state
        flat[:, moved] = flat[:, p[moved]]  # U_f on the columns again
        yield slab.reshape(-1, 4, dim, 4)


def _explicit_oracle_work_state(marked: MarkedState, epsilons, theta: float) -> np.ndarray:
    """Tr_aux Re[U_o (i A) U_o^dagger] for the y-axis initial state, the
    real N x N work state: the auxiliary pair of each _explicit_oracle_slabs
    slab is traced out as it arrives.  Only the generator holds the
    complex initial state, so it can go once Im of it is copied."""
    oracle = _explicit_oracle_slabs(initial_state(marked.n, epsilons, "y"), marked, theta)
    return np.concatenate([np.einsum("iaja->ij", slab) for slab in oracle])


# ---------------------------------------------------------------------------
# Grover-type iteration and its closed coefficient algebra


def projector_x_basis(marked: MarkedState) -> np.ndarray:
    """D_s^x: the marked projector rotated from z products into x products."""
    ry = product_rotation(marked.n, "y", np.pi / 2)
    return ry @ diag_projector(marked) @ ry.conj().T


def x_basis_state(marked: MarkedState) -> np.ndarray:
    """|x_s> = exp(-i pi/2 Fy)|s>, the real unit vector with D_s^x = |x_s><x_s|.

    A Kronecker product of one column of the single-qubit rotation
    exp(-i pi/2 I_y) per qubit, so no 2^n eigendecomposition is needed:
    one kron_all fold over the columns as 1 x 2 rows.  Their entries are
    real, so the fold's imaginary part is exactly zero.
    """
    r = math.sqrt(0.5)
    ry_columns = {1: [[r, r]], -1: [[-r, r]]}
    return np.ascontiguousarray(kron_all(ry_columns[a] for a in marked.signs)[0].real)


def _two_sided_steps(rho: np.ndarray, xs: np.ndarray, antisymmetric: bool = False):
    """Yield rho, then rho after each step rho <- S rho S^T written into it,
    for S = (I - 2 D_last)(I - 2 |x_s><x_s|) and a real symmetric (or
    antisymmetric) rho, which keeps its symmetry as S is real.  O(N^2) per
    step, with no N x N temporary:

    * with y = rho x_s and z = 2 (y - (x_s^T y) x_s), the x_s reflection is
      rho - x_s z^T - z x_s^T; for antisymmetric rho, x_s^T rho = -y^T and
      it is rho + x_s z^T - z x_s^T, where the (x_s^T y) terms cancel.  One
      K = 2 matmul writes the update into a buffer allocated once;
    * I - 2 D_last on both sides negates the last row and the last column."""
    cols = np.empty((len(xs), 2))  # [x_s, z]
    rows = np.empty((2, len(xs)))  # [+-z; x_s]
    cols[:, 0] = rows[1] = xs
    buf = np.empty_like(rho)
    while True:
        yield rho
        y = rho @ xs
        cols[:, 1] = rows[0] = 2 * (y - (xs @ y) * xs)
        if antisymmetric:
            rows[0] *= -1
        np.matmul(cols, rows, out=buf)
        rho -= buf
        rho[-1] *= -1
        rho[:, -1] *= -1


def grover_conjugate(marked: MarkedState, m: int, x: np.ndarray) -> np.ndarray:
    """U x U^dagger for U = [exp(-i pi D_last) exp(-i pi D_s^x)]^m and a
    Hermitian x, by m two-sided steps; U is never formed.  U is real, so
    the real symmetric and the imaginary antisymmetric part of x are
    conjugated apart, each on a real copy, and a part that is all zero is
    skipped.  A real x gives its real conjugate."""
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    xs = x_basis_state(marked)
    if not np.iscomplexobj(x):
        x = x.copy()
        return next(islice(_two_sided_steps(x, xs), m, None)) if x.any() else x
    re, im = (
        next(islice(_two_sided_steps(part.copy(), xs, anti), m, None)) if part.any() else part
        for part, anti in ((x.real, False), (x.imag, True))
    )
    out = re.astype(complex)
    out.imag = im
    return out


def _iteration_angle(N: int) -> float:
    return math.atan2(2 * math.sqrt(N - 1) / N, -1 + 2 / N)


def grover_coefficients(m_max: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coefficients of the m-fold core iteration for m = 0..m_max,
    as two tables whose row m depends on m alone.

    The alpha table is real, (m_max + 1, 4): row m is (a1, a2, a3, a4) of
    G(m) = E + a1 D0 + a2 D0x + a3 D0 D0x + a4 D0x D0, with a1 = a2 and
    a4 = -(2 a1 + a3) on the iteration trajectory.  The gamma table is
    complex, (m_max + 1, 8): row m is the derived set for the conjugation of
    transverse magnetization, taken at face value from the closed-algebra
    expansion; the conversion coefficient always has a brute-force
    counterpart, so any defect in it is observable rather than silent.
    """
    if m_max < 0:
        raise ValueError("iteration count must be >= 0")
    mth = np.arange(m_max + 1) * _iteration_angle(N)
    c, s = np.cos(mth), np.sin(mth)
    q = N / (N - 1)
    r = math.sqrt(N - 1)
    a1 = -q * (1 - c)
    a3 = -q * (-1 + c + r * s)
    a4 = q * (1 - c + r * s)
    alpha = np.stack([a1, a1, a3, a4], axis=1)
    a1, a2, a3, a4 = alpha.astype(complex).T
    c1, c2, c3, c4 = a1.conj(), a2.conj(), a3.conj(), a4.conj()
    g1 = (c1 * a3 + a1 * c3 + c3 * a3) / (2 * N)
    g2 = 0.5 * (a2 + c2 + c2 * a2 + (c2 * a4 + a2 * c4) / N)
    g3 = 0.5 * (a3 + a1 * c2 + c2 * a3 + a3 * c4 / N)
    g4 = 0.5 * (c3 + c1 * a2 + a2 * c3 + c3 * a4 / N)
    return alpha, np.stack([g1, g2, g3, g4, a1, c1, a4, c4], axis=1)


def conversion_coefficients(gamma: np.ndarray, N: int, epsilons, k: int) -> np.ndarray:
    """Analytic fraction of spin-k longitudinal magnetization surviving m
    iterations, for each row m of a grover_coefficients gamma table:
    1 + (g5 + g6)/N - (2/N) (sum_l eps_l / eps_k) g1."""
    epsilons = np.asarray(epsilons, dtype=float)
    n = len(epsilons)
    if not 1 <= k <= n:
        raise ValueError(f"read spin {k} outside [1, {n}]")
    if epsilons[k - 1] == 0:
        raise ValueError("polarization of the read spin must be nonzero")
    ratio = float(np.sum(epsilons) / epsilons[k - 1])
    return np.real(1 + (gamma[:, 4] + gamma[:, 5]) / N - (2 / N) * ratio * gamma[:, 0])


def measured_conversion_coefficients(
    marked: MarkedState, m_max: int, epsilons, k: int
) -> np.ndarray:
    """Brute-force counterpart for m = 0..m_max: carry sum eps_l I_lz along
    rho <- S rho S^T by the in-place steps grover_conjugate also takes, and
    read the I_kz projection off the diagonal after each.  Nothing here
    reads the closed-form coefficients this trajectory is checked against."""
    n = marked.n
    epsilons = np.asarray(epsilons, dtype=float)
    if m_max < 0:
        raise ValueError("iteration count must be >= 0")
    if epsilons.shape != (n,):
        raise ValueError("need one polarization per work qubit")
    if not 1 <= k <= n:
        raise ValueError(f"read spin {k} outside [1, {n}]")
    if epsilons[k - 1] == 0:
        raise ValueError("polarization of the read spin must be nonzero")
    iz = iz_diagonals(n)
    rho = np.diag(sum(e * z for e, z in zip(epsilons, iz)))
    steps = _two_sided_steps(rho, x_basis_state(marked))
    traces = np.array([next(steps).diagonal() @ iz[k - 1] for _ in range(m_max + 1)])
    return traces / (2**n / 4) / epsilons[k - 1]


def auto_m_max(N: int) -> int:
    """The last m of the auto window, int(4 sqrt N) + 1: the m_max that
    grover-scan runs by default and the window gamma1_first_peak scans."""
    return int(4 * math.sqrt(N)) + 1
