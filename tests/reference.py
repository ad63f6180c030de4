"""Brute-force references, and the table that pairs each fast path with one.

A row of TABLE names a fast path of the package, the dense matrix
computation it is checked against, the names the fast path must not reach,
a case generator and a tolerance.  Two tests run over the table:

* agreement: on every case the fast path matches its reference within the
  tolerance; 0 means np.array_equal with equal dtypes.  `agreement(name,
  ...)` makes the test for one or more rows, and each row is bound once:
  where the code it checks is tested, under the id its comparison always
  had, or in tests/test_reference.py;
* independence (tests/test_reference.py): the fast path gives bit-identical
  results with every forbidden name patched to raise in every loaded
  spinsearch module that binds it, so it cannot quietly become a copy of
  the closed form or the dense builder it is checked against.

A forbidden name is a function name bound in spinsearch modules, or a
dotted numpy path such as "numpy.linalg.eigh"; one that resolves nowhere
fails the test instead of leaving it vacuous.  A row whose fast path is in
a route module does not list the names only spinsearch.references binds:
tests/test_imports.py keeps every route module from importing it.  A
new fast path adds a row here, not a private helper in its test module.
run_cli, the in-process CLI call the tests share, lives here too, so this
module imports nothing from conftest.py.

Every test that counts or forbids calls uses patch_counted or patch_forbidden,
which resolve names this way and patch every binding: a module that imports
a function by name holds its own binding, which a patch of the defining
module alone misses.  tests/test_imports.py fails on a hand-made patch.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from spinsearch import cli
from spinsearch.composition import commutator_product, trotter_product
from spinsearch.config import T1_POINTS_MAX, SpectrumConfig, parse
from spinsearch.linalg import (
    PAULI_HALF, comm, expm_unitary, kron_all, magnetic_quantum_numbers, n_qubits,
    product_populations, product_rotation, random_hermitian, spin_op, total_op,
)
from spinsearch.mqalgebra import phase_cycle_project
from spinsearch.oracle import MarkedState, aux_pure_state, diag_projector, uf_permutation
from spinsearch.references import (
    eigen_expand, extract_alpha_from_matrix, grover_basis, grover_core, grover_propagator,
    mq_generator, oracle_uf, oracle_uo, order_component, random_unitary, resum_lines,
    selective_phase, sign_flip_frame,
)
from spinsearch.sequences import (
    _explicit_oracle_slabs, conjugate_multi_selective, grover_conjugate, initial_state,
    measured_conversion_coefficients, projector_x_basis, simple_search, x_basis_state,
)
from spinsearch.spectroscopy import (
    PipelineConfig, SpinHamiltonian, _pick_peaks, inphase_check, run_pipeline,
    spectrum_transfer, transfer_pair,
)


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(tmp_path, command, cfg=None, subdir="out"):
    """cli.main on cfg (written to a file) with --out tmp_path/subdir:
    (exit code, output directory, the parsed report.json or None)."""
    out = tmp_path / subdir
    args = [command, "--out", str(out)]
    if cfg is not None:
        cfg_path = tmp_path / f"{subdir}_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    code = cli.main(args)
    report = None
    if (out / "report.json").is_file():
        report = strict_json((out / "report.json").read_text())
    return code, out, report


FIXTURE_SEED = 20240817  # the `rng` fixture's seed, for cases first drawn from it


@dataclass(frozen=True)
class Row:
    fast: Callable  # fast(*case)
    reference: Callable  # reference(*case), the same structure of arrays
    forbidden: tuple[str, ...]  # names fast must not reach
    cases: Callable  # cases(param) -> iterable of case tuples
    tol: float
    params: dict = field(default_factory=lambda: {None: None})  # agreement-test id -> param
    guard: Callable | None = None  # guard() -> independence cases; default: every case

    def guard_cases(self) -> list:
        if self.guard is not None:
            cases = list(self.guard())
        else:
            cases = [case for param in self.params.values() for case in self.cases(param)]
        assert cases, "a row without cases checks nothing"
        return cases


DIAGONALIZERS = ("expm_unitary", "numpy.linalg.eigh")
# the closed forms of the Grover algebra in the route modules, which no
# brute-force path may call; the ones in spinsearch.references no route
# can reach (tests/test_imports.py), so only a row whose fast path is a
# reference lists them
GROVER_CLOSED_FORMS = ("grover_coefficients", "conversion_coefficients")

# ---------------------------------------------------------------------------
# linalg


def kron_fold(factors):
    """Reference: kron_all as a left fold of np.kron."""
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


KRON_SHAPES = [(2, 2), (1, 2), (2, 1), (3, 3), (4, 4)]


def kron_draw(rng, shape, complex_entries):
    f = rng.normal(size=shape)
    return f + 1j * rng.normal(size=shape) if complex_entries else f


def kron_cases(complex_entries):
    rng = np.random.default_rng(FIXTURE_SEED)
    for shape in KRON_SHAPES:
        yield [kron_draw(rng, shape, complex_entries)],
    for _ in range(20):
        picks = rng.choice(len(KRON_SHAPES), size=int(rng.integers(1, 5)))
        yield [kron_draw(rng, KRON_SHAPES[i], complex_entries) for i in picks],


def kron_fold_spin_sum(n, axis, weights):
    """Reference: sum_k w_k I_k_axis as n dense kron-fold terms summed in k
    order, the way the builders summed them before they indexed entries."""
    eye = np.eye(2, dtype=complex)
    terms = (
        w * kron_fold([eye] * (k - 1) + [PAULI_HALF[axis]] + [eye] * (n - k))
        for k, w in enumerate(np.broadcast_to(weights, (n,)), start=1)
    )
    return sum(terms)


def spin_sums(n, axis, weights):
    """total_op, initial_state and, on z, the weak-coupling diagonal."""
    out = (total_op(n, axis, weights), initial_state(n, weights, axis))
    return out + ((SpinHamiltonian.weak_coupling(n, weights).diagonal,) if axis == "z" else ())


def kron_fold_spin_sums(n, axis, weights):
    """The fold's sum for each output, real on x and z: there the fold's
    imaginary part is exactly zero, so its real part is the whole sum."""
    ref = kron_fold_spin_sum(n, axis, weights)
    if axis != "y":
        assert not ref.imag.any(), "the x or z fold has an imaginary part"
        ref = ref.real
    return (ref, ref) + ((np.diag(ref).real,) if axis == "z" else ())


def spin_sum_cases(param):
    n, axis = param
    rng = np.random.default_rng(10 * n + ord(axis))
    signed = rng.uniform(0.2, 2.0, n) * rng.choice([-1, 1], size=n)
    return [(n, axis, weights) for weights in (signed, -1.7, 1.0)]


def eigh_pulse(n, axis, angle):
    """exp(-i angle F_axis) through the eigendecomposition of the collective operator."""
    return expm_unitary(total_op(n, axis), angle)


def rotation_cases(param):
    n, axis = param
    angles = np.random.default_rng(100 * n + ord(axis)).uniform(-2 * np.pi, 2 * np.pi, size=3)
    return [(n, axis, angle) for angle in angles]


def dense_populations(rho, r):
    """Reference: diag(P rho P^T) with the whole product P = r x ... x r."""
    p = kron_all([r] * n_qubits(rho))
    return np.diag(p @ rho @ p.T)


def population_cases(n):
    """A random real rho at n, with the y rotations by the search's pi/2
    and by two drawn angles, and with a drawn reflection (determinant -1)."""
    rng = np.random.default_rng(300 + n)
    rho = rng.normal(size=(2**n, 2**n))
    angles = [np.pi / 2, *rng.uniform(-2 * np.pi, 2 * np.pi, size=2)]
    phi = rng.uniform(0, 2 * np.pi)
    reflection = np.array([[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]])
    return [(rho, product_rotation(1, "y", a).real) for a in angles] + [(rho, reflection)]


# ---------------------------------------------------------------------------
# oracle and mqalgebra


def basis_projector(index: int, dim: int) -> np.ndarray:
    """diag(0,...,1,...,0) with the 1 at the given basis index."""
    d = np.zeros(dim, dtype=complex)
    d[index] = 1.0
    return np.diag(d)


def loop_uf(marked):
    """U_f built entry by entry from |x>|a>|b> -> |x>|a xor f(x)>|b>."""
    dim = 2 ** (marked.n + 2)
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        x, ab = divmod(idx, 4)
        if x == marked.s:
            ab ^= 0b10
        u[x * 4 + ab, idx] = 1.0
    return u


def uf_maps(marked):
    p = uf_permutation(marked)
    return oracle_uf(marked), p, p[p]


def loop_uf_maps(marked):
    """The loop's U_f, its index map, and the identity map: U_f is an involution."""
    u = loop_uf(marked)
    return u, np.argmax(u, axis=0), np.arange(len(u))


def expm_phase_cycle_project(f_op, n1, target_order):
    """Reference: each phase step as expm_unitary of the dense diagonal Fz."""
    n = int(np.log2(f_op.shape[0]))
    fz = total_op(n, "z")
    out = np.zeros_like(f_op, dtype=complex)
    for k in range(n1):
        phi = 2 * np.pi * k / n1
        r = expm_unitary(fz, phi)
        out += np.exp(1j * phi * target_order) * (r @ f_op @ r.conj().T)
    return out / n1


def phase_cycle_cases(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(6):
        f = random_hermitian(rng, 2**n)
        if rng.integers(2):
            f = f + 1j * random_hermitian(rng, 2**n)  # not Hermitian
        yield f, int(rng.integers(2 * n + 1, 2 * n + 6)), int(rng.integers(-n, n + 1))


def mq_generator_expanded(n, l_indices):
    """Reference: the four-term raising/lowering product expansion of the
    generator, each term a tensor product of pure raising or lowering
    factors on the chosen qubits and (E/2 +- I_z) projectors on the rest."""
    chosen = sorted(set(l_indices))
    e2 = np.eye(2, dtype=complex)
    ip = np.array([[0, 1], [0, 0]], dtype=complex)   # I_x + i I_y
    im = np.array([[0, 0], [1, 0]], dtype=complex)   # I_x - i I_y
    up = 0.5 * e2 + np.diag([0.5, -0.5]).astype(complex)
    dn = 0.5 * e2 - np.diag([0.5, -0.5]).astype(complex)

    def term(ladder, proj):
        return kron_all(ladder if k in chosen else proj for k in range(1, n + 1))

    return 0.5j * (term(im, up) - term(ip, dn) - term(ip, up) + term(im, dn))


# ---------------------------------------------------------------------------
# sequences


def brute_conjugate(rho, markeds, thetas):
    """C rho C+ for the product C of dense selective phase shifts."""
    u = np.eye(rho.shape[0], dtype=complex)
    for mk, th in zip(markeds, thetas):
        u = u @ selective_phase(mk, th)
    return u @ rho @ u.conj().T


def conjugation_cases(_):
    """Three marks at n = 4, one and two fixed marks, then per n = 2..4 one
    random mark at each theta 2 pi k / 8 (twice) and random sets of one to
    four marks at random angles."""
    rng = np.random.default_rng(FIXTURE_SEED)
    yield random_hermitian(rng, 16), [MarkedState(s=s, n=4) for s in (9, 2, 14)], [0.4, -2.1, 3.0]
    yield random_hermitian(rng, 8), [MarkedState(s=5, n=3)], [0.7]
    yield random_hermitian(rng, 4), [MarkedState(s=1, n=2), MarkedState(s=2, n=2)], [np.pi / 3, np.pi / 5]
    for n in (2, 3, 4):
        dim = 2**n
        for k in list(range(8)) * 2:
            yield random_hermitian(rng, dim), [MarkedState(s=int(rng.integers(dim)), n=n)], [2 * np.pi * k / 8]
        for _ in range(9):
            picks = rng.choice(dim, size=int(rng.integers(1, min(4, dim) + 1)), replace=False)
            marks = [MarkedState(s=int(s), n=n) for s in picks]
            yield random_hermitian(rng, dim), marks, rng.uniform(0, 2 * np.pi, size=len(picks))


def gradient_crush(rho):
    """Idealized z-gradient dephasing: keep only the order-0 part."""
    return order_component(rho, 0)


def zq_dephase(rho):
    """Idealized zero-quantum dephasing: keep only the computational diagonal."""
    return np.diag(np.diag(rho))


def dense_search_signal(marked, epsilons, theta, aux_mode):
    """Per-qubit z coefficients of the search sequence, all dense.

    The oracle is the dense U_o = U_f V_S U_f (or C_s), the pulse comes from
    an eigh of the collective Fy on the full space, the gradient crush and
    the zero-quantum dephase run on the whole pulsed matrix, and each
    coefficient is a trace against a dense I_kz.
    """
    n = marked.n
    rho = initial_state(n, epsilons, "y")
    fy = total_op(n, "y")
    if aux_mode == "selective-cs":
        u = selective_phase(marked, theta)
    else:
        u = oracle_uo(marked, theta)
        rho = np.kron(rho, aux_pure_state())
        fy = np.kron(fy, np.eye(4))
    rho = u @ rho @ u.conj().T
    pulse = expm_unitary(fy, np.pi / 2)
    rho = zq_dephase(gradient_crush(pulse @ rho @ pulse.conj().T))
    if aux_mode == "explicit-uf":
        rho = np.einsum("iaja->ij", rho.reshape(2**n, 4, 2**n, 4))
    return np.array(
        [
            np.real(np.trace(rho @ spin_op(n, k, "z"))) / (2**n / 4)
            for k in range(1, n + 1)
        ]
    )


def search_cases(n, aux_mode):
    """(marked, epsilons, theta) cases at n: signed polarizations, and
    oracle phases away from 0 and pi."""
    rng = np.random.default_rng(1000 * n + len(aux_mode))
    for _ in range(3):
        marked = MarkedState(s=int(rng.integers(2**n)), n=n)
        theta = float(rng.choice([-1, 1]) * rng.uniform(0.3, np.pi - 0.3))
        yield marked, rng.uniform(0.5, 1.5, size=n) * rng.choice([-1, 1], size=n), theta


def search_row(aux_mode, forbidden, n_max, guard=None):
    def fast(marked, eps, theta):
        res = simple_search(marked, eps, theta, aux_mode)
        return res.per_qubit_signal, res.recovered_s

    def reference(marked, eps, theta):
        return dense_search_signal(marked, eps, theta, aux_mode), marked.s

    params = {f"{n}-{aux_mode}": n for n in range(1, n_max + 1)}
    return Row(
        fast, reference, forbidden + DIAGONALIZERS, lambda n: search_cases(n, aux_mode), 1e-12, params,
        guard,
    )


def explicit_oracle_state(marked, epsilons, theta):
    """The real full-space array the explicit search's oracle yields slab
    by slab, stacked into one 2-D matrix."""
    slabs = _explicit_oracle_slabs(initial_state(marked.n, epsilons, "y"), marked, theta)
    return np.concatenate(list(slabs)).reshape(4 * 2**marked.n, -1)


def dense_explicit_oracle_state(marked, epsilons, theta):
    """Reference: Re[U_o rho U_o^dagger] with the dense U_o = U_f V_S U_f
    and rho the complex work state times the auxiliary state."""
    u = oracle_uo(marked, theta)
    rho = np.kron(initial_state(marked.n, epsilons, "y"), aux_pure_state())
    return (u @ rho @ u.conj().T).real


def explicit_search_n8():
    """n = 8 explicit-oracle searches, on the 1024-dim work + auxiliary space."""
    yield MarkedState(s=173, n=8), np.linspace(0.6, 1.4, 8), -np.pi / 2
    for theta in (-np.pi / 2, 0.9):
        yield MarkedState(s=90, n=8), np.linspace(-1.4, 1.3, 8), theta


def dense_projector_x_basis(marked):
    """D_s^x with the pi/2 y pulse built from an eigh of Fy."""
    ry = eigh_pulse(marked.n, "y", np.pi / 2)
    return ry @ diag_projector(marked) @ ry.conj().T


def dense_sign_flip_frame(marked):
    """W from eigh-built collective and per-spin x rotations."""
    n = marked.n
    w = eigh_pulse(n, "x", np.pi / 2)
    for k in range(1, n + 1):
        w = w @ expm_unitary(marked.signs[k - 1] * spin_op(n, k, "x"), -np.pi / 2)
    return w


def kron_fold_x_basis_state(marked):
    """Reference: |x_s> as a left fold of np.kron over the real columns of exp(-i pi/2 I_y)."""
    r = np.sqrt(0.5)
    columns = {1: np.array([r, r]), -1: np.array([-r, r])}
    out = np.ones(1)
    for a in marked.signs:
        out = np.kron(out, columns[a])
    return out


def dense_grover_step(marked):
    """One Grover step as a dense matrix, from the eigh-built D_s^x."""
    dim = 2**marked.n
    d_last = diag_projector(MarkedState(s=dim - 1, n=marked.n))
    return (np.eye(dim) - 2 * d_last) @ (np.eye(dim) - 2 * dense_projector_x_basis(marked))


def dense_grover_trajectory(marked, m_max):
    """Reference propagators U_0..U_m_max by dense products U <- step @ U."""
    step = dense_grover_step(marked)
    u = np.eye(2**marked.n, dtype=complex)
    out = [u]
    for _ in range(m_max):
        u = step @ u
        out.append(u)
    return out


def propagator_cases(_):
    # one draw per n from one generator: n = 7, 8 extend the n = 1..6 draws
    rng = np.random.default_rng(11)
    return [(MarkedState(s=int(rng.integers(2**n)), n=n), 9) for n in range(1, 9)]


def dense_conjugate(marked, m, x):
    u = grover_propagator(marked, m)
    return u @ x @ u.conj().T


def grover_conjugate_cases(n):
    # rho0 and F on every axis: real symmetric (x, z) and imaginary antisymmetric (y)
    rng = np.random.default_rng(1300 + n)
    eps = rng.uniform(0.5, 1.5, size=n)
    operators = [total_op(n, a, w) for a in ("x", "y", "z") for w in (eps, 1.0)]
    for s in sorted({0, 2**n - 1, (2 * 2**n) // 3}):
        for m in (0, 1, 2, 7):
            for x in operators:
                yield MarkedState(s=s, n=n), m, x


def dense_conversion_coefficients(marked, m_max, epsilons):
    """Reference C_m for every read spin k: rows m = 0..m_max, columns k = 1..n,
    from rho = U rho0 U^dagger and trace(rho I_kz)."""
    n = marked.n
    ikz = [spin_op(n, k, "z") for k in range(1, n + 1)]
    rho0 = sum(e * op for e, op in zip(epsilons, ikz))
    out = np.empty((m_max + 1, n))
    for m, u in enumerate(dense_grover_trajectory(marked, m_max)):
        rho = u @ rho0 @ u.conj().T
        for k in range(n):
            out[m, k] = np.real(np.einsum("ij,ji->", rho, ikz[k])) / (2**n / 4) / epsilons[k]
    return out


def trajectories(marked, m_max, eps):
    ks = range(1, marked.n + 1)
    return np.column_stack([measured_conversion_coefficients(marked, m_max, eps, k) for k in ks])


def conversion_cases(param):
    n, s = param
    if s is None:  # s and eps drawn for n = 2, 3, .. n in turn from one generator
        rng = np.random.default_rng(2002)
        for k in range(2, n + 1):
            s, eps = int(rng.integers(2**k)), rng.uniform(0.5, 1.5, k)
    else:
        eps = np.random.default_rng(3100 + n).uniform(0.5, 1.5, n)
    return [(MarkedState(s=s, n=n), int(4 * np.sqrt(2**n)) + 1, eps)]


def per_m_extraction(n, m):
    """Reference: the least-squares fit of G(m) built afresh for one m."""
    basis = grover_basis(n)
    g = grover_core(n, m)
    gram = np.array([[np.trace(a.conj().T @ b) for b in basis] for a in basis])
    rhs = np.array([np.trace(b.conj().T @ g) for b in basis])
    coeffs = np.linalg.solve(gram, rhs)
    recon = sum(c * b for c, b in zip(coeffs, basis))
    return coeffs, float(np.abs(g - recon).max())


# ---------------------------------------------------------------------------
# spectroscopy


def line_expansion(p, q, cfg):
    """Reference: the t1 series resummed from the transition lines."""
    return resum_lines(*eigen_expand(p, q, cfg.h_evol), np.arange(cfg.n_points) * cfg.dt)


def line_expansion_cases(param):
    # pipeline-vs-line-expansion's cases, at count 4 and the fixture seed
    n, h = param
    rng = np.random.default_rng(FIXTURE_SEED + n)
    for _ in range(4):
        u, v = random_unitary(rng, 2**n), random_unitary(rng, 2**n)
        cfg = PipelineConfig(h_evol=h, dt=1 / 256, n_points=128)
        rho0 = initial_state(n, rng.uniform(0.5, 1.5, n), "y")
        yield *transfer_pair(u, v, rho0), cfg


def dense_pipeline(rho0, h, u, v, cfg, detect):
    """Reference signal for a dense, non-diagonal H (cfg.h_evol unused):
    conjugate P by expm_unitary(H, t1), which diagonalizes H, and trace,
    point by point."""
    assert np.abs(h - np.diag(np.diag(h))).max() > 0  # a dense H
    n = int(round(np.log2(rho0.shape[0])))
    p = u @ rho0 @ u.conj().T
    q = v.conj().T @ total_op(n, detect) @ v
    out = np.empty(cfg.n_points, dtype=complex)
    for j in range(cfg.n_points):
        u_t = expm_unitary(h, j * cfg.dt)
        out[j] = np.trace(q @ u_t @ p @ u_t.conj().T)
    return out


def framed_reference(rho0, u, v, cfg, w, detect):
    """dense_pipeline in the frame W where the diagonal H is dense:
    W diag(h) W+ with excitation W U and reconversion V W+ give the same
    signal as diag(h) with U and V."""
    h = (w * cfg.h_evol.diagonal) @ w.conj().T
    return dense_pipeline(rho0, h, w @ u, v @ w.conj().T, cfg, detect)


def framed_signal(rho0, u, v, cfg, w, detect):
    """The pipeline on excitation U and reconversion V (the frame W is the reference's)."""
    return run_pipeline(*transfer_pair(u, v, rho0, detect), cfg)


def dense_frame_cases(param):
    # a random real diagonal, against the reference in a random frame W
    n, detect = param
    rng = np.random.default_rng(FIXTURE_SEED)
    u, v, w = (random_unitary(rng, 2**n) for _ in range(3))
    rho0 = initial_state(n, rng.uniform(0.5, 1.5, n), "x")
    h = SpinHamiltonian(rng.uniform(-100.0, 100.0, 2**n))
    return [(rho0, u, v, PipelineConfig(h_evol=h, dt=1e-3, n_points=64), w, detect)]


def weak_coupling_frame_cases(n):
    # the weak-coupling diagonal with random offsets, drawn as from the rng fixture
    rng = np.random.default_rng(FIXTURE_SEED)
    u, v, w = (random_unitary(rng, 2**n) for _ in range(3))
    rho0 = initial_state(n, rng.uniform(0.5, 1.5, n), "y")
    h = SpinHamiltonian.weak_coupling(n, 2 * np.pi * rng.uniform(5, 15, n), [(1, 2, 3.0)])
    return [(rho0, u, v, PipelineConfig(h_evol=h, dt=1e-3, n_points=64), w, "z")]


# an n = 8 grover-excitation spectrum shaped like the benchmark's
N8_SPECTRUM = {
    "preset": "grover-excitation",
    "n": 8,
    "s": 173,
    "iterations": 2,
    "epsilons": [0.6, 1.4, 0.9, 1.1, 0.7, 1.3, 0.8, 1.2],
    "p_axis": "z",
    "detect_axis": "z",
    "hamiltonian": {"kind": "uniform-fz", "omega": 2 * np.pi * 10},
    "t1": {"dt": 1 / 256, "points": 256},
}
# N8_SPECTRUM with each spin labelled by its own offset 2 pi 2^(k-1): every
# diagonal value is distinct (K = N), over the most t1 points a config takes
N8_PER_SPIN = {
    **N8_SPECTRUM,
    "hamiltonian": {"kind": "weak-coupling", "offsets": [2 * np.pi * 2**k for k in range(8)]},
    "t1": {"dt": 1 / 1024, "points": T1_POINTS_MAX},
}


def spectrum_command(cfg: dict) -> np.ndarray:
    """The t1 series the whole `spectrum` command writes for cfg."""
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_cli(Path(tmp), "spectrum", cfg)
        assert code == 0
        rows = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
    return rows[:, 1] + 1j * rows[:, 2]


def dense_spectrum_series(cfg: dict) -> np.ndarray:
    """Reference: the series of P = U rho0 U+ and Q = U F_q U+ with the
    dense propagator U."""
    spec = parse(SpectrumConfig, cfg)
    u = grover_propagator(spec.marked, spec.iterations)
    p = u @ spec.rho0 @ u.conj().T
    q = u @ total_op(spec.n, spec.detect_axis) @ u.conj().T
    return run_pipeline(p, q, spec.pipe)


def loop_peaks(amps, freqs, label_omega, rel_threshold):
    """Reference: bin by bin, each bin's order, and the peaks picked
    against their cyclic neighbours."""
    m = len(amps)
    mags = np.abs(amps)
    thr = rel_threshold * mags.max()
    orders = [int(round(freqs[k] / label_omega)) for k in range(m)] if label_omega else None
    peaks = []
    for k in range(m):
        if mags[k] <= thr:
            continue
        if mags[k] >= mags[(k - 1) % m] and mags[k] >= mags[(k + 1) % m]:
            peaks.append((float(freqs[k]), complex(amps[k]), None if orders is None else orders[k]))
    peaks.sort(key=lambda p: p[0])
    return peaks, orders


def picked_peaks(amps, freqs, label_omega, rel_threshold):
    spec = _pick_peaks(amps, freqs, label_omega, rel_threshold)
    return [(p.frequency, p.amplitude, p.order) for p in spec.peaks], spec.orders


def peak_cases(_):
    freqs = 2 * np.pi * np.fft.fftfreq(16, d=1 / 256)
    plateaus = [0, 1, 3, 3, 1, 0, 2, 2, 2, 0, 0, 5, 5, 0, 1, 1]  # two- and three-bin plateaus
    wrap_first = [6, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4]  # a peak at k = 0
    wrap_last = [1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 6]  # a peak at k = m - 1
    # local maxima exactly at the threshold 0.25 x 1 (not picked) and one ulp above it
    at_threshold = [1, 0, 0.25, 0, np.nextafter(0.25, 1), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    phases = np.array([1, 1j, -1, -1j])[np.arange(16) % 4]  # |mag x phase| = mag exactly
    for mags in (plateaus, wrap_first, wrap_last):
        for label_omega in (None, 2 * np.pi * 10, 1e-24):  # orders past 2**63 at 1e-24
            yield np.asarray(mags) * phases, freqs, label_omega, 1e-6
    yield np.asarray(at_threshold, dtype=complex), freqs, 2 * np.pi * 10, 0.25
    yield np.zeros(16, dtype=complex), freqs, 2 * np.pi * 10, 1e-6  # an all-zero series
    yield np.array([1.0 + 0j, 1.0 + 0j]), freqs[[0, 8]], 2 * np.pi * 10, 1e-6  # m = 2
    rng = np.random.default_rng(FIXTURE_SEED)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    yield amps, 2 * np.pi * np.fft.fftfreq(64, 0.01), 2.0, 0.1


def dense_inphase_check(p, q, phi):
    """Reference: the difference Q+ - exp(-i phi Fz) P exp(+i phi Fz),
    conjugated and negated entry by entry, as the dense expression of fresh
    temporaries."""
    rz = np.exp(-1j * magnetic_quantum_numbers(int(np.log2(p.shape[0]))) * phi)
    target = rz[:, None] * p * rz.conj()[None, :]
    return -np.conj(q.conj().T - target)


def inphase_difference(p, q, phi):
    """inphase_check's row slabs, joined into the one N x N difference."""
    return np.concatenate([*inphase_check(p, q, phi)])


def inphase_cases(_):
    """Three pairs, in this order: one that holds at phi != 0 (V = U+ exp(i
    phi Fz), dense), a random reconversion that fails, and a grover-excitation
    pair with V = U+ and phi = 0, which holds."""
    n, phi = 3, 0.6
    rng = np.random.default_rng(FIXTURE_SEED)
    u = random_unitary(rng, 2**n)
    fz = total_op(n, "z")
    yield *transfer_pair(u, u.conj().T @ expm_unitary(fz, -phi), fz), phi
    yield *transfer_pair(u, random_unitary(rng, 2**n), fz), phi
    grover = {**N8_SPECTRUM, "n": 4, "s": 9, "epsilons": "uniform"}
    _, q, p_inphase, _ = spectrum_transfer(parse(SpectrumConfig, grover))
    yield p_inphase, q, 0.0


# ---------------------------------------------------------------------------
# the CLI's CSV writer


def fmt(value) -> str:
    """The per-value CSV formatter: 17 significant digits for floats."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


def rowwise_csv(columns: dict) -> bytes:
    """Reference: the header, then each row value by value through fmt."""
    lines = [",".join(columns)] + [",".join(fmt(v) for v in row) for row in zip(*columns.values())]
    return ("\n".join(lines) + "\n").encode("ascii")


def written_csv(columns: dict) -> bytes:
    """The bytes cli.write_csv writes for the columns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli.write_csv(path, columns)
        return path.read_bytes()


SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 0.1, -2.5]


def csv_cases(_):
    floats = np.array(SPECIAL_FLOATS)
    float32 = np.array(SPECIAL_FLOATS[:4] + [1e-45, 3e38, 0.1, -2.5], dtype=np.float32)
    yield {"array": floats, "list": SPECIAL_FLOATS, "float32": float32,
           "scalars": list(floats)},  # numpy float scalars in a list
    yield {"int64": np.arange(-3, 5), "int32": np.arange(8, dtype=np.int32),
           "python": [2**70, -(2**64), 0, 1, -1, 7, 10**19, 3], "str": list("abcdefgh")},
    m = 8  # a weak-coupling spectrum: no label frequency, an all-empty order column
    yield {"frequency_rad_s": np.fft.fftfreq(m), "re": floats, "im": -floats, "order": [""] * m},
    yield {"method": ["trotter"], "x_or_m": [3], "error_norm": [1e-9],  # a single row
           "fitted_order": [float("inf")], "oracle_calls": [np.int64(0)]},
    yield {"t1": np.array([]), "re": []},  # a header alone
    yield scan_columns(1000),  # several slabs at the package's budget


def scan_columns(rows: int) -> dict:
    """Columns shaped like grover_scan.csv's at n_values 1..8 and m_max 4096:
    n, N and m as integers, then 15 columns of seeded random floats, most
    of them 17 significant digits wide."""
    m_max = 4096
    n = 1 + np.arange(rows) // (m_max + 1)
    rng = np.random.default_rng(5)
    floats = [f"alpha{i}" for i in range(1, 5)] + [f"gamma{i}" for i in range(1, 9)]
    floats += ["c_analytic", "c_measured", "residual"]
    return {"n": n, "N": 2**n, "m": np.arange(rows) % (m_max + 1)} | {
        name: rng.normal(size=rows) for name in floats
    }


# ---------------------------------------------------------------------------
# composition


def sequential_power(step, reps):
    """step^reps by reps plain products: the reference for repeated squaring."""
    u = np.eye(step.shape[0], dtype=complex)
    for _ in range(reps):
        u = step @ u
    return u


def sequential_trotter(h_list, t, slices):
    step = np.eye(h_list[0].shape[0], dtype=complex)
    for h in h_list:
        step = step @ expm_unitary(h, t / slices)
    return sequential_power(step, slices)


def sequential_commutator(a, b, reps):
    r = 1 / np.sqrt(reps)
    step = (
        expm_unitary(a, -r) @ expm_unitary(b, -r) @ expm_unitary(a, r) @ expm_unitary(b, r)
    )
    return sequential_power(step, reps)


def ladders(a, b, m):
    """Trotter and commutator propagators and their rung errors."""
    trotter, commutator = trotter_product([a, b], 0.8, m), commutator_product(a, b, m)
    return trotter.propagator, trotter.step_errors, commutator.propagator, commutator.step_errors


def sequential_ladders(a, b, m):
    """Reference: every rung by sequential products, scored against its exact target."""
    w, v = np.linalg.eigh(1j * comm(a, b))
    out = ()
    for reference, rungs, target in (
        (lambda s: sequential_trotter([a, b], 0.8, s), [m, 2 * m, 4 * m], expm_unitary(a + b, 0.8)),
        (lambda s: sequential_commutator(a, b, s), [m, 4 * m, 16 * m], (v * np.exp(1j * w)) @ v.conj().T),
    ):
        refs = [reference(s) for s in rungs]
        out += (refs[0], [np.linalg.norm(ref - target, 2) for ref in refs])
    return out


def ladder_cases(param):
    dim, m = param
    rng = np.random.default_rng(1000 * dim + m)
    return [(random_hermitian(rng, dim), random_hermitian(rng, dim), m)]


# ---------------------------------------------------------------------------
# the table: Row(fast, reference, forbidden, cases, tol, params, guard)

# the pipeline groups by the diagonal's values: never by coherence order or n
PIPELINE_FORBIDDEN = ("magnetic_quantum_numbers",) + DIAGONALIZERS
GRID_N_AXIS = {f"{n}-{a}": (n, a) for n in range(1, 9) for a in "xyz"}
TABLE: dict[str, Row] = {
    "kron_all": Row(kron_all, kron_fold, ("numpy.kron",), kron_cases, 0, {"False": False, "True": True}),
    "total_op": Row(  # with initial_state and the weak-coupling diagonal
        spin_sums, kron_fold_spin_sums, ("kron_all", "spin_op", "numpy.kron"), spin_sum_cases, 0,
        GRID_N_AXIS,
    ),
    "product_rotation": Row(
        product_rotation, eigh_pulse, DIAGONALIZERS, rotation_cases, 1e-12,
        {i: p for i, p in GRID_N_AXIS.items() if p[0] <= 6},
    ),
    "product_populations": Row(
        product_populations, dense_populations, ("product_rotation", "kron_all", "numpy.kron"),
        population_cases, 1e-12, {str(n): n for n in range(1, 9)},
    ),
    "uf_permutation": Row(
        uf_maps, loop_uf_maps, (), lambda n: [(MarkedState(s=s, n=n),) for s in range(2**n)], 0,
        {str(n): n for n in range(1, 5)},
    ),
    "phase_cycle_project": Row(
        phase_cycle_project, expm_phase_cycle_project, DIAGONALIZERS, phase_cycle_cases, 0,
        {str(n): n for n in (2, 3, 4)},
    ),
    "mq_generator": Row(mq_generator, mq_generator_expanded, (), lambda _: [(3, (1, 2))], 1e-12),
    "conjugate_multi_selective": Row(
        conjugate_multi_selective, brute_conjugate, ("diag_projector",), conjugation_cases, 1e-12,
    ),
    "simple_search-selective-cs": search_row("selective-cs", ("diag_projector",), 8),
    "simple_search-explicit-uf": search_row(
        "explicit-uf", ("conjugate_multi_selective",), 6, explicit_search_n8
    ),
    "explicit_oracle": Row(
        explicit_oracle_state, dense_explicit_oracle_state, ("conjugate_multi_selective",),
        lambda n: search_cases(n, "explicit-uf"), 1e-12, {f"n{n}": n for n in range(1, 5)},
    ),
    "x_basis_state": Row(
        x_basis_state, kron_fold_x_basis_state, ("numpy.kron",),
        lambda n: [(MarkedState(s=s, n=n),) for s in range(2**n)], 0, {str(n): n for n in range(1, 9)},
    ),
    "projector_x_basis": Row(  # with sign_flip_frame
        lambda marked: (projector_x_basis(marked), sign_flip_frame(marked)),
        lambda marked: (dense_projector_x_basis(marked), dense_sign_flip_frame(marked)),
        DIAGONALIZERS,
        lambda _: [(MarkedState(s=s, n=n),) for n in range(1, 5) for s in range(2**n)],
        1e-12,
    ),
    "grover_propagator": Row(
        lambda marked, m_max: [grover_propagator(marked, m) for m in range(m_max + 1)],
        dense_grover_trajectory,
        ("projector_x_basis",) + DIAGONALIZERS + GROVER_CLOSED_FORMS
        + ("grover_coefficients_recursion", "grover_core", "extract_alpha_from_matrix"),
        propagator_cases, 1e-12,
    ),
    "grover_conjugate": Row(
        grover_conjugate, dense_conjugate, GROVER_CLOSED_FORMS,
        grover_conjugate_cases, 1e-12, {str(n): n for n in range(1, 9)},
    ),
    "measured_conversion_coefficients": Row(
        trajectories, dense_conversion_coefficients, GROVER_CLOSED_FORMS,
        conversion_cases, 1e-12,
        # s = 2^n - 1 is D_last's own index: the row/column flip and the
        # x_s reflection overlap there
        {f"{n}-{s}": (n, s) for n in range(2, 7) for s in (0, 2**n - 1)} | {"8-255": (8, 255)}
        | {f"{n}-drawn": (n, None) for n in range(2, 9)},
        lambda: [(MarkedState(s=173, n=8), 65, np.linspace(0.6, 1.4, 8))],
    ),
    "extract_alpha_from_matrix": Row(
        extract_alpha_from_matrix,
        lambda n, m_max: [per_m_extraction(n, m) for m in range(m_max + 1)],
        GROVER_CLOSED_FORMS + ("grover_coefficients_recursion",), lambda n: [(n, 25)], 1e-12,
        {str(n): n for n in (2, 3, 4)},
    ),
    "run_pipeline-line-expansion": Row(
        run_pipeline, line_expansion, PIPELINE_FORBIDDEN, line_expansion_cases, 1e-9,
        {
            "2": (2, SpinHamiltonian.uniform_fz(2, 2 * np.pi * 10)),
            "3": (3, SpinHamiltonian.uniform_fz(3, 2 * np.pi * 10)),
            # 1 < K < 2^n distinct frequencies: spins 1 and 2 tie, K = 12
            "4-tied-offsets": (4, SpinHamiltonian.weak_coupling(
                4, 2 * np.pi * np.array([10.0, 10.0, 15.0, 20.0]), [(1, 2, 3.0), (3, 4, 5.0)]
            )),
            "2-zero-omega": (2, SpinHamiltonian.uniform_fz(2, 0.0)),  # K = 1
            # values 1e-6 rad/s apart stay distinct: K = 2^n
            "3-offsets-1e-6-apart": (3, SpinHamiltonian.weak_coupling(
                3, [2 * np.pi * 10, 2 * np.pi * 10 + 1e-6, 2 * np.pi * 15]
            )),
        },
    ),
    "run_pipeline-dense-frame": Row(
        framed_signal, framed_reference, PIPELINE_FORBIDDEN, dense_frame_cases, 1e-11,
        {f"{d}-{n}": (n, d) for d in "xyz" for n in (1, 2, 3, 4)},
    ),
    "run_pipeline-weak-coupling-frame": Row(
        framed_signal, framed_reference, PIPELINE_FORBIDDEN, weak_coupling_frame_cases, 1e-11,
        {"2": 2, "3": 3},
    ),
    "pick_peaks": Row(picked_peaks, loop_peaks, (), peak_cases, 0),
    "inphase_check": Row(inphase_difference, dense_inphase_check, (), inphase_cases, 0),
    "write_csv": Row(written_csv, rowwise_csv, (), csv_cases, 0),
    "spectrum": Row(  # the whole command, against the dense propagator
        spectrum_command, dense_spectrum_series,
        ("expm_unitary",) + GROVER_CLOSED_FORMS, lambda _: [(N8_SPECTRUM,)], 1e-11,
    ),
    "trotter-commutator-ladders": Row(
        ladders, sequential_ladders, (), ladder_cases, 1e-12,
        {f"{dim}-{m}": (dim, m) for m in (1, 3, 16, 100) for dim in (2, 4, 16)},
    ),
}

# ---------------------------------------------------------------------------
# the two tests


def assert_agree(got, ref, tol):
    """got matches ref entry by entry, through nested tuples and lists."""
    if isinstance(ref, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(ref), "structure differs"
        for g, r in zip(got, ref):
            assert_agree(g, r, tol)
        return
    got, ref = np.asarray(got), np.asarray(ref)
    if tol == 0:
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    else:
        assert got.shape == ref.shape and np.abs(got - ref).max() <= tol


def check_agreement(row: Row, param) -> None:
    count = 0
    for count, case in enumerate(row.cases(param), start=1):
        assert_agree(row.fast(*case), row.reference(*case), row.tol)
    assert count, "a row without cases checks nothing"


def agreement(*names):
    """The agreement test of the named rows, one test id per row parameter:
    the parameter's id, or the row's name for a row without parameters."""
    params = {
        name if pid is None else pid: (TABLE[name], param)
        for name in names
        for pid, param in TABLE[name].params.items()
    }
    assert len(params) == sum(len(TABLE[name].params) for name in names), "duplicate test ids"
    if len(names) == 1 and None in TABLE[names[0]].params:

        def test():
            check_agreement(*params[names[0]])

    else:

        @pytest.mark.parametrize("row_param", list(params.values()), ids=list(params))
        def test(row_param):
            check_agreement(*row_param)

    return staticmethod(test)


class Forbidden(AssertionError):
    """A fast path reached a name its row forbids."""


def forbidden_bindings(name: str) -> list[tuple[object, str]]:
    """Every (module, attribute) binding of a name: a dotted name in its
    numpy module, a bare one in every loaded spinsearch module.  LookupError
    if nothing binds it."""
    if "." in name:
        module, _, attr = name.rpartition(".")
        owners = [importlib.import_module(module)]
    else:
        attr = name
        owners = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "spinsearch"]
    bindings = [(owner, attr) for owner in owners if hasattr(owner, attr)]
    if not bindings:
        raise LookupError(f"name {name!r} resolves nowhere: the row or guard is stale")
    return bindings


def patch_bindings(monkeypatch, names, stand_in) -> list[tuple[object, str]]:
    """Patch every binding of every name to stand_in(name, real, where),
    once all names have resolved."""
    bindings = [(name, b) for name in names for b in forbidden_bindings(name)]
    for name, (owner, attr) in bindings:
        monkeypatch.setattr(owner, attr, stand_in(name, getattr(owner, attr), f"{owner.__name__}.{attr}"))
    return [b for _, b in bindings]


def patch_forbidden(monkeypatch, names) -> list[tuple[object, str]]:
    """Patch every binding of every name to raise Forbidden."""

    def stand_in(name, real, where):
        def forbidden(*args, **kwargs):
            raise Forbidden(f"the fast path reached {where}")

        return forbidden

    return patch_bindings(monkeypatch, names, stand_in)


def patch_counted(monkeypatch, names) -> dict[str, list[tuple]]:
    """Record the positional arguments of every call of every name, through
    any of its bindings, by name; each call still runs the function it
    replaced."""
    calls = {name: [] for name in names}

    def stand_in(name, real, where):
        def counted(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        return counted

    patch_bindings(monkeypatch, names, stand_in)
    return calls
