"""The invariant registry: every closed form checked against brute force.

Each check computes a max residual over a deterministic case set that it
takes as keyword arguments: the n values, a case count and, where it draws
random cases, a seed.  The defaults are the quick budget that
`spinsearch selftest` runs (n <= 4); the acceptance suite calls the same
checks with its own cases and asserts its own contract tolerances.  The
checks the acceptance suite shares draw from one generator per n, seeded
at seed + n, so a smaller count checks a prefix of the same cases.

run_selftest compares each residual against the group's tolerance; the
SPINSEARCH_TOL_SCALE environment variable multiplies every tolerance
(useful for probing how much numerical headroom the build has).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import composition, mqalgebra, oracle, sequences, spectroscopy
from .linalg import (
    PAULI_HALF,
    comm,
    expm_unitary,
    kron_all,
    magnetic_quantum_numbers,
    random_hermitian,
    random_unitary,
    spin_op,
    total_op,
    unitarity_defect,
)
from .oracle import MarkedState


@dataclass
class InvariantResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _check_spin_commutators(*, n_values=(2, 3, 4)) -> float:
    worst = 0.0
    for n in n_values:
        ops = [(k, spin_op(n, k, ax)) for k in range(1, n + 1) for ax in "xyz"]
        for k, a in ops:
            for l, b in ops:
                if k != l:
                    worst = max(worst, float(np.abs(comm(a, b)).max()))
    # su(2) algebra on one spin: [Ix, Iy] = i Iz and cyclic
    for k in (1, 2):
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            d = comm(spin_op(2, k, a), spin_op(2, k, b)) - 1j * spin_op(2, k, c)
            worst = max(worst, float(np.abs(d).max()))
    return worst


def _check_expm_unitary(*, n_values=(1, 2, 3, 4), seed=11) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in n_values:
        h = random_hermitian(rng, 2**n)
        worst = max(worst, unitarity_defect(expm_unitary(h, 0.37)))
        u = expm_unitary(h, 0.2) @ expm_unitary(h, 0.55)
        worst = max(worst, float(np.abs(u - expm_unitary(h, 0.75)).max()))
    return worst


def _check_fz_eigenvalues(*, n_values=(1, 2, 3, 4)) -> float:
    worst = 0.0
    for n in n_values:
        fz = total_op(n, "z")
        worst = max(
            worst, float(np.abs(np.diag(fz).real - magnetic_quantum_numbers(n)).max())
        )
        worst = max(worst, float(np.abs(fz - np.diag(np.diag(fz))).max()))
    return worst


def _check_oracle_equivalence(*, n_values=(1, 2, 3)) -> float:
    worst = 0.0
    for n in n_values:
        for s in range(2**n):
            marked = MarkedState(s=s, n=n)
            for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
                uo = oracle.oracle_uo(marked, theta)
                block = oracle.restrict_to_aux01(uo)
                cs = oracle.selective_phase(marked, theta)
                worst = max(worst, float(np.abs(block - cs).max()))
    return worst


def _check_projector_frame_relation(*, n_values=(1, 2, 3)) -> float:
    worst = 0.0
    for n in n_values:
        d0 = oracle.diag_projector(MarkedState(s=0, n=n))
        for s in range(2**n):
            marked = MarkedState(s=s, n=n)
            w = sequences.sign_flip_frame(marked)
            ds = oracle.diag_projector(marked)
            worst = max(worst, float(np.abs(ds - w @ d0 @ w.conj().T).max()))
    return worst


def _check_conjugation_identities(*, n_values=(2, 3, 4), count=27, seed=1000) -> float:
    """Per case: one random state conjugated by a selective phase at a
    random angle, and by a product of 2..4 of them."""
    worst = 0.0
    for n in n_values:
        dim = 2**n
        rng = np.random.default_rng(seed + n)
        for _ in range(count):
            rho = random_hermitian(rng, dim)
            s = int(rng.integers(dim))
            theta = float(rng.uniform(0, 2 * np.pi))
            marked = MarkedState(s=s, n=n)
            analytic = sequences.conjugate_multi_selective(rho, [marked], [theta])
            c = oracle.selective_phase(marked, theta)
            worst = max(worst, float(np.abs(analytic - c @ rho @ c.conj().T).max()))
            picks = rng.choice(dim, size=int(rng.integers(2, min(4, dim) + 1)), replace=False)
            ths = rng.uniform(0, 2 * np.pi, size=len(picks))
            markeds = [MarkedState(s=int(p), n=n) for p in picks]
            analytic = sequences.conjugate_multi_selective(rho, markeds, ths)
            u = np.eye(dim, dtype=complex)
            for mk, th in zip(markeds, ths):
                u = u @ oracle.selective_phase(mk, th)
            worst = max(worst, float(np.abs(analytic - u @ rho @ u.conj().T).max()))
    return worst


def _check_search_recovery(*, n_values=(1, 2, 3, 4)) -> float:
    """Every marked index at uniform polarization: nonzero if a run misreads
    s or takes other than two calls of U_f."""
    worst = 0.0
    for n in n_values:
        eps = np.ones(n)
        for s in range(2**n):
            res = sequences.simple_search(MarkedState(s=s, n=n), eps)
            worst = max(worst, float(abs(res.recovered_s - s)), float(abs(res.oracle_uf_calls - 2)))
    return worst


def _check_lomso_reconstruction(*, n_values=(1, 2, 3)) -> float:
    worst = 0.0
    for n in n_values:
        basis = mqalgebra.lomso_transform(n)
        worst = max(
            worst,
            float(np.abs(basis.a @ basis.a_inv - np.eye(2**n)).max()),
        )
        for k in range(2**n):
            d = oracle.diag_projector(MarkedState(s=k, n=n))
            worst = max(
                worst, float(np.abs(d - mqalgebra.lomso_expand_projector(basis, k)).max())
            )
    return worst


def _check_phase_cycling(*, n_values=(2, 3, 4), count=72, seed=2000) -> float:
    """Per case: one coherence order of a random operator, selected by
    2n + 1 phase steps and by the Fz grading."""
    worst = 0.0
    for n in n_values:
        rng = np.random.default_rng(seed + n)
        for _ in range(count):
            f = random_hermitian(rng, 2**n)
            target = int(rng.integers(-n, n + 1))
            proj = mqalgebra.phase_cycle_project(f, 2 * n + 1, target)
            worst = max(worst, float(np.abs(proj - mqalgebra.order_component(f, target)).max()))
    return worst


def _check_mq_generator_orders(*, n_values=(2, 3)) -> float:
    """The generator on each subset of two or more qubits that holds qubit 1
    has no coherence order but +-(subset size)."""
    worst = 0.0
    for n in n_values:
        subsets = [(1, *c) for size in range(1, n) for c in combinations(range(2, n + 1), size)]
        for qubits in subsets:
            l = len(qubits)
            g = mqalgebra.mq_generator(n, qubits)
            worst = max(worst, float(np.abs(g - g.conj().T).max()))
            dec = mqalgebra.decompose_orders(g)
            for m, a in dec.items():
                if abs(m) != l:
                    worst = max(worst, float(np.abs(a).max()))
    return worst


def _check_zero_quantum_closure(*, n_values=(2, 3), count=6, seed=53) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in n_values:
        for _ in range(count):
            h = mqalgebra.order_component(random_hermitian(rng, 2**n), 0)
            zq_op = mqalgebra.order_component(random_hermitian(rng, 2**n), 0)
            u = expm_unitary(zq_op, 0.9)
            moved = u @ h @ u.conj().T
            dec = mqalgebra.decompose_orders(moved)
            for m, a in dec.items():
                if m != 0:
                    worst = max(worst, float(np.abs(a).max()))
    return worst


def _check_even_order_closure(*, n_values=(2, 3), count=6, seed=59) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in n_values:
        om = mqalgebra.order_matrix(n)
        even_mask = np.abs(np.rint(om)) % 2 == 0
        for _ in range(count):
            h = np.where(even_mask, random_hermitian(rng, 2**n), 0)
            gen = np.where(even_mask, random_hermitian(rng, 2**n), 0)
            u = expm_unitary(gen, 0.8)
            moved = u @ h @ u.conj().T
            dec = mqalgebra.decompose_orders(moved)
            for m, a in dec.items():
                if m % 2 != 0:
                    worst = max(worst, float(np.abs(a).max()))
    return worst


def _check_grover_three_way(*, n_values=(2, 3, 4), count=26) -> float:
    """Closed form, recursion and a least-squares fit of the dense core
    iteration agree on the coefficients for m = 0 .. count - 1."""
    worst = 0.0
    for n in n_values:
        N = 2**n
        fits = sequences.extract_alpha_from_matrix(n, count - 1)
        for m, (coeffs, recon_res) in enumerate(fits):
            closed = np.array(sequences.grover_coefficients(m, N).alpha)
            rec = np.array(sequences.grover_coefficients_recursion(m, N).alpha)
            worst = max(worst, float(np.abs(closed - rec).max()))
            worst = max(worst, float(abs(coeffs[0] - 1.0)))
            worst = max(worst, float(np.abs(coeffs[1:] - closed).max()))
            worst = max(worst, recon_res)
    return worst


def _check_grover_reexpression(*, n_values=(2, 3)) -> float:
    worst = 0.0
    for n in n_values:
        for s in (0, 2**n - 1, 1):
            marked = MarkedState(s=s, n=n)
            for m in (1, 3, 6):
                direct = sequences.grover_propagator(marked, m)
                factored = sequences.grover_propagator_factored(marked, m)
                worst = max(worst, float(np.abs(direct - factored).max()))
    return worst


def _check_pipeline_vs_lines(*, n_values=(2, 3), count=1, seed=3000) -> float:
    """Per case: the t1 series of random excitation and reconversion
    unitaries around a 10 Hz Fz evolution, against its line expansion."""
    worst = 0.0
    for n in n_values:
        dim = 2**n
        rng = np.random.default_rng(seed + n)
        h = spectroscopy.SpinHamiltonian.uniform_fz(n, 2 * np.pi * 10)
        for _ in range(count):
            u = random_unitary(rng, dim)
            v = random_unitary(rng, dim)
            cfg = spectroscopy.PipelineConfig(h_evol=h, dt=1 / 256, n_points=128)
            rho0 = sequences.initial_state(n, rng.uniform(0.5, 1.5, n), "y")
            p, q = spectroscopy.transfer_pair(u, v, rho0)
            series = spectroscopy.run_pipeline(p, q, cfg)
            om, amps = spectroscopy.eigen_expand(p, q, h)
            resum = spectroscopy.resum_lines(om, amps, np.arange(cfg.n_points) * cfg.dt)
            worst = max(worst, float(np.abs(series - resum).max()))
    return worst


def _check_composition_unitarity(*, seed=83) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    worst = max(worst, unitarity_defect(composition.trotter_product([a, b], 0.7, 8).propagator))
    worst = max(worst, unitarity_defect(composition.commutator_product(a, b, 16).propagator))
    worst = max(worst, unitarity_defect(composition.symmetric_sandwich(a, b, 0.3).propagator))
    worst = max(worst, unitarity_defect(composition.cross_interaction(a, b, 0.2).propagator))
    p1 = 1 / (2 - 2 ** (1 / 3))
    worst = max(
        worst,
        unitarity_defect(
            composition.fractal_compose(a, b, 0.3, [p1, 1 - 2 * p1, p1]).propagator
        ),
    )
    return worst


def _check_sandwich_time_symmetry(*, seed=97) -> float:
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    worst = 0.0
    for x in (0.4, 0.15):
        s_pos = composition.symmetric_sandwich(a, b, x).propagator
        s_neg = composition.symmetric_sandwich(a, b, -x).propagator
        worst = max(worst, float(np.abs(s_pos @ s_neg - np.eye(4)).max()))
    return worst


def _check_projector_product_form(*, n_values=(1, 2, 3, 4)) -> float:
    """|s><s| for every s against the product of single-spin projectors
    E/2 + a_k I_kz over the sign vector of s."""
    half = 0.5 * np.eye(2, dtype=complex)
    worst = 0.0
    for n in n_values:
        for s in range(2**n):
            marked = MarkedState(s=s, n=n)
            product = kron_all(half + a * PAULI_HALF["z"] for a in marked.signs)
            worst = max(worst, float(np.abs(product - oracle.diag_projector(marked)).max()))
    return worst


INVARIANT_GROUPS = (
    ("spin-commutators", _check_spin_commutators, 1e-13),
    ("expm-unitarity-and-group-law", _check_expm_unitary, 1e-10),
    ("fz-eigenvalues", _check_fz_eigenvalues, 1e-13),
    ("oracle-sector-equivalence", _check_oracle_equivalence, 1e-12),
    ("projector-frame-relation", _check_projector_frame_relation, 1e-11),
    ("selective-conjugation-identities", _check_conjugation_identities, 1e-10),
    ("search-recovery", _check_search_recovery, 0.5),
    ("lomso-reconstruction", _check_lomso_reconstruction, 1e-12),
    ("phase-cycling-vs-grading", _check_phase_cycling, 1e-11),
    ("mq-generator-orders", _check_mq_generator_orders, 1e-12),
    ("zero-quantum-closure", _check_zero_quantum_closure, 1e-10),
    ("even-order-closure", _check_even_order_closure, 1e-10),
    ("grover-coefficients-three-way", _check_grover_three_way, 1e-9),
    ("grover-propagator-reexpression", _check_grover_reexpression, 1e-10),
    ("pipeline-vs-line-expansion", _check_pipeline_vs_lines, 1e-9),
    ("composition-unitarity", _check_composition_unitarity, 1e-10),
    ("sandwich-time-symmetry", _check_sandwich_time_symmetry, 1e-12),
    ("projector-product-form", _check_projector_product_form, 1e-13),
)


def tolerance_scale() -> float:
    return float(os.environ.get("SPINSEARCH_TOL_SCALE", "1.0"))


def run_selftest() -> list[InvariantResult]:
    scale = tolerance_scale()
    results = []
    for name, fn, tol in INVARIANT_GROUPS:
        results.append(InvariantResult(name=name, residual=fn(), tolerance=tol * scale))
    return results
