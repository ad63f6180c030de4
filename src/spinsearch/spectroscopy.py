"""Two-dimensional multiple-quantum spectroscopy pipeline.

The five-step experiment: excite with a unitary U, evolve for t1 under a
labeling Hamiltonian, reconvert with a unitary V, detect a collective spin
component, Fourier transform over t1.  The signal is

    s(t1) = Tr{ Q exp(-i H t1) P exp(+i H t1) },   P = U rho0 U+,
                                                   Q = V+ F_q V.

Excitation and reconversion enter only through the transfer pair (P, Q),
formed once per preset by `spectrum_transfer` (`transfer_pair` from dense U
and V; sequences.grover_conjugate in place, without U); every stage below
takes that same pair.  Coherence orders are exact integers: a spectral
line's comes from the one rule in `_pick_peaks`, which the Spectrum
carries per bin.  The line expansion and the order intensities that
check this pipeline live in spinsearch.references.
H is diagonal in the product basis and stored as its real diagonal w, so
t1 evolution is the phase vector exp(-i w t1) and no diagonalization runs.
Every spectral line sits at a transition frequency w_j - w_k with complex
amplitude conj(Q_jk) P_jk.  With the uniform labeling Hamiltonian H = w Fz
all lines of coherence order m collapse onto the single frequency m*w,
which is what makes order-resolved detection scale.  run_pipeline uses
that collapse whatever H is: it groups basis states by distinct value of
w, sums the amplitudes once per pair of groups (O(dim^2)) and evolves only
the K <= dim distinct frequencies (O(points K^2); K = n + 1 for H = w Fz).
It and the inphase check hold at most linalg.SLAB_BYTES of any one array
at a time, in slabs of rows or t1 points, besides the K x K block matrix
and the series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    expm_unitary,
    iz_diagonals,
    magnetic_quantum_numbers,
    n_qubits,
    product_rotation,
    qubit_weights,
    slabs,
    total_op,
)
from .mqalgebra import phase_cycle_project
from .oracle import UF_CALLS_PER_UO, MarkedState, diag_projector
from .sequences import grover_conjugate, projector_x_basis

PEAK_REL_THRESHOLD = 1e-6

# The cross-peak demo's split: spins 1..CROSS_PEAK_A form subsystem A and
# the next CROSS_PEAK_B form B (config sets the demo's other fixed keys).
CROSS_PEAK_A, CROSS_PEAK_B = 2, 2
CROSS_PEAK_N = CROSS_PEAK_A + CROSS_PEAK_B


class NyquistError(ValueError):
    """The t1 sampling grid cannot represent the labeling frequencies."""


@dataclass
class SpinHamiltonian:
    """Labeling Hamiltonian for the t1 evolution period: its real diagonal."""

    diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal)
        if d.ndim != 1 or d.dtype.kind not in "iuf" or not d.size or d.size & (d.size - 1):
            raise ValueError(
                f"a Hermitian diagonal H is a real vector of length 2**n, got {d.dtype} {d.shape}"
            )
        self.diagonal = d.astype(float, copy=False)

    @classmethod
    def uniform_fz(cls, n: int, omega: float) -> "SpinHamiltonian":
        return cls(omega * magnetic_quantum_numbers(n))

    @classmethod
    def weak_coupling(cls, n: int, offsets, couplings=()) -> "SpinHamiltonian":
        """sum_k Omega_k I_kz + sum_{k>l} 2 pi J_kl I_kz I_lz, built by index
        from the I_kz diagonals in term order: bit for bit the diagonal of
        the dense sum.

        offsets in rad/s, couplings (k, l, J_hz) triples with J in Hz, as a
        config lists them.  Each names two distinct spins in 1..n, and no
        spin pair may be named twice, in either order.
        """
        iz = iz_diagonals(n)
        h = sum(w * z for w, z in zip(qubit_weights(n, offsets), iz))
        named = set()
        for k, l, j_hz in couplings:
            pair = (min(k, l), max(k, l))
            if k == l or not (1 <= k <= n and 1 <= l <= n) or pair in named:
                raise ValueError(f"couplings need two distinct spins in 1..{n}, each pair once, got ({k}, {l})")
            named.add(pair)
            h = h + 2 * np.pi * j_hz * (iz[k - 1] * iz[l - 1])
        return cls(h)

    @property
    def max_transition_frequency(self) -> float:
        return float(self.diagonal.max() - self.diagonal.min())


@dataclass
class PipelineConfig:
    """The t1 grid and the labeling Hamiltonian."""

    h_evol: SpinHamiltonian
    dt: float
    n_points: int

    def validate(self):
        if self.dt <= 0:
            raise ValueError("dwell time must be positive")
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise ValueError("point count must be a power of two")
        wmax = self.h_evol.max_transition_frequency
        nyquist = np.pi / self.dt
        if not wmax < nyquist:  # a NaN frequency fails too
            raise NyquistError(
                f"max transition frequency {wmax:.6g} rad/s >= Nyquist {nyquist:.6g}"
            )


def transfer_pair(
    u: np.ndarray, v: np.ndarray, rho0: np.ndarray, detect_axis: str = "z"
) -> tuple[np.ndarray, np.ndarray]:
    """Excite and reconvert: P = U rho0 U+ and Q = V+ F_q V."""
    f_q = total_op(n_qubits(rho0), detect_axis)
    return u @ rho0 @ u.conj().T, v.conj().T @ f_q @ v


def spectrum_transfer(cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The preset's transfer pair P = U rho0 U+ and Q = V+ F_q V, the
    inphase check's U F_p U+, and the oracle calls they consume, for a
    parsed config.SpectrumConfig.

    identity has U = V = I, so these are rho0, F_q and F_p as they are.
    grover-excitation has V = U+ and conjugates each distinct operator by
    grover_conjugate, without forming U.  cross-peak-demo forms U and V for
    the A + B split: the zero-quantum part of a marked-state operator
    function plus a dominant oracle-independent term on A excites, so every
    nonzero zero-quantum line sits at a multiple of the A - B difference.
    """
    n = cfg.n
    if cfg.preset == "cross-peak-demo":
        ry_a = product_rotation(n, "y", [np.pi / 2] * CROSS_PEAK_A + [0.0] * CROSS_PEAK_B)
        dr_a = np.kron(diag_projector(MarkedState(s=0, n=CROSS_PEAK_A)), np.eye(2**CROSS_PEAK_B))
        f_r = cfg.dominance * (ry_a @ dr_a @ ry_a.conj().T)
        h_zq = cross_zq_hamiltonian(projector_x_basis(cfg.marked), f_r, cfg.N1)
        u = expm_unitary(h_zq, cfg.tau_u)
        ry = product_rotation(n, "y", np.pi / 2)
        v = expm_unitary(ry @ h_zq @ ry.conj().T, cfg.tau_v)
        p, q = transfer_pair(u, v, cfg.rho0, cfg.detect_axis)
        calls = UF_CALLS_PER_UO * cfg.N1  # oracle-function terms consumed by the phase cycle
        return p, q, u @ total_op(n, cfg.p_axis) @ u.conj().T, calls
    identity = cfg.preset == "identity"

    def conjugate(x):
        return x if identity else grover_conjugate(cfg.marked, cfg.iterations, x)

    q = conjugate(total_op(n, cfg.detect_axis))
    p_inphase = q if cfg.p_axis == cfg.detect_axis else conjugate(total_op(n, cfg.p_axis))
    calls = 0 if identity else 2 * UF_CALLS_PER_UO * cfg.iterations
    return conjugate(cfg.rho0), q, p_inphase, calls


def run_pipeline(p: np.ndarray, q: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """Complex signal s(t1) of the transfer pair on the grid, evaluated in
    the product basis, one term per pair of distinct frequencies.

    H is the diagonal w, so exp(-i H t1) is the phase vector
    e(t1) = exp(-i w t1) and the trace is e^T (Q^T * P) conj(e).  Basis
    states with equal w (exact equality) share one phase, so M = Q^T * P
    is summed once into the K x K matrix of its distinct-frequency blocks
    and each point costs O(K^2), K <= dim the number of distinct values
    of w: O(dim^2) once plus O(points K^2), with no diagonalization.

    Both stages run in slabs of at most linalg.SLAB_BYTES: M and its
    block index a slab of rows at a time, and the phases, their
    product with M_K and its row sums a slab of points at a time (at
    least two).  The blocks accumulate entry by entry in row-major order,
    as one bincount over M does, and each point's row of a product of two
    or more rows is its own, so the series is bit for bit the same
    whatever the slab heights.
    """
    cfg.validate()
    w, group = np.unique(cfg.h_evol.diagonal, return_inverse=True)
    dim, k = len(group), len(w)
    m_k = np.zeros(k * k, dtype=np.result_type(p, q, float))
    for r in slabs(dim, 16 * dim):  # a row of dim complex entries
        block = group[r, None] * k + group[None, :]  # (row group, column group) of each entry
        np.add.at(m_k, block.ravel(), (q[:, r].T * p[r]).ravel())  # flat: numpy's fast path
    m_k = m_k.astype(complex, copy=False).reshape(k, k)  # a real pair's blocks get +0.0 imaginary parts
    times = np.arange(cfg.n_points) * cfg.dt
    series = np.empty(cfg.n_points, dtype=complex)
    # a point's K complex phases, K rounded up to a power of two: with the
    # budget a power of two the slabs are one too and tile the grid.  Never
    # one point: numpy sends a one-row product to gemv, which rounds differently
    for t in slabs(cfg.n_points, 16 << (k - 1).bit_length(), min_rows=2):
        e = np.outer(times[t], w) * -1j
        np.exp(e, out=e)
        g = e @ m_k
        g *= np.conjugate(e, out=e)  # the slab's phases, reused in place
        series[t] = g.sum(axis=1)
    return series


def inphase_check(p: np.ndarray, q: np.ndarray, phi: float):
    """Does the reconversion mirror the excitation up to a z rotation?

    Yields the difference Q+ - exp(-i phi Fz) P exp(+i phi Fz), with
    P = U F_p U+ and Q = V+ F_q V, conjugated and negated entry by entry,
    in slabs of rows of at most linalg.SLAB_BYTES: a generator of
    differences, for the one fold, which holds one slab at a time.  When
    it vanishes, every order-m line has amplitude |P_jk|^2 exp(i m phi),
    so lines of one order share a single phase.
    """
    rz = np.exp(-1j * magnetic_quantum_numbers(n_qubits(p)) * phi)  # exp(-i phi Fz) is diagonal
    for r in slabs(len(p), 16 * len(p)):  # a row of N complex entries
        # Q+ - target as conj(target) - Q^T in one buffer per slab; conj
        # distributes exactly over * and -, and each product keeps the operand
        # order of rz[:, None] * p * conj(rz)[None, :].  conj(P) is P for a real P.
        buf = np.conjugate(p[r]) if np.iscomplexobj(p) else p[r].astype(complex)
        np.multiply(rz.conj()[r, None], buf, out=buf)
        np.multiply(buf, rz[None, :], out=buf)
        yield np.subtract(buf, q[:, r].T, out=buf)
        del buf  # one slab at a time: this one goes before the next is built


@dataclass
class Peak:
    frequency: float
    amplitude: complex
    order: int | None = None


@dataclass
class Spectrum:
    """Discrete spectrum with the order of each bin (None without a label
    frequency) and a picked peak table."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    orders: list[int] | None = None
    peaks: list[Peak] = field(default_factory=list)

    def parseval_defect(self, series: np.ndarray) -> float:
        et = float(np.sum(np.abs(series) ** 2)) / len(series)
        ef = float(np.sum(np.abs(self.amplitudes) ** 2))
        return abs(et - ef) / max(et, 1e-300)


def spectrum(series: np.ndarray, dt: float, label_omega: float | None = None) -> Spectrum:
    """DFT of the signal with local-maximum peak picking above
    PEAK_REL_THRESHOLD times the largest magnitude.

    The transform is normalized so a unit tone exp(-i w t) gives a peak of
    amplitude 1 at +w.  No apodization or zero filling.  When label_omega
    is given, each bin's order is round(frequency / label_omega).
    """
    m = len(series)
    if m < 2 or m & (m - 1):
        raise ValueError("series length must be a power of two")
    amps = np.fft.ifft(series)
    freqs = 2 * np.pi * np.fft.fftfreq(m, d=dt)
    return _pick_peaks(amps, freqs, label_omega, PEAK_REL_THRESHOLD)


def _pick_peaks(amps, freqs, label_omega, rel_threshold) -> Spectrum:
    """The Spectrum of amps at freqs: each bin's order, and as peaks the
    local maxima of |amps| (>= both cyclic neighbours, so every bin of a
    plateau) above rel_threshold times the largest, by frequency."""
    # round of a Python float: an order past 2**63 (omega near VALUE_MIN) stays exact
    orders = [int(round(f / label_omega)) for f in freqs.tolist()] if label_omega else None
    mags = np.abs(amps)
    picked = mags > rel_threshold * mags.max()
    picked &= mags >= np.roll(mags, 1)
    picked &= mags >= np.roll(mags, -1)
    peaks = [
        Peak(float(freqs[k]), complex(amps[k]), None if orders is None else orders[k])
        for k in np.flatnonzero(picked).tolist()
    ]
    peaks.sort(key=lambda p: p.frequency)
    return Spectrum(freqs, amps, orders, peaks)


def cross_zq_hamiltonian(f_s: np.ndarray, f_r: np.ndarray, n1: int) -> np.ndarray:
    """Zero-quantum part of the sum of an oracle-dependent and an
    oracle-independent operator function, by phase cycling."""
    return phase_cycle_project(f_s + f_r, n1, 0)
