"""The invariant registry: every closed form checked against brute force.

Each group is a generator of differences: over a deterministic case set
that it takes as keyword arguments (the n values, a case count and, where
it draws random cases, a seed) it yields what it compares, as arrays or
numbers.  One fold, `_fold`, turns them into the group residual: the
largest magnitude of any yielded entry, NaN when an entry is NaN or the
check has no cases, which fails the group.  The CLI commands fold their
own checks into the same record, InvariantResult.  The defaults are the
quick budget that `spinsearch selftest` runs (n <= 4); the acceptance
suite folds the same checks over its own cases and asserts its own
contract tolerances.
The checks it shares draw from one generator per n, seeded at seed + n,
so a smaller count checks a prefix of the same cases.

Where a group's cost is per-case dispatch, its dense references run as
stacked products over consecutive slabs of its cases (linalg.slabs),
drawn in the same order as one at a time; numpy runs the same per-slice
product for a stack as for one matrix, so every residual keeps its bits.

run_selftest compares each residual against the group's tolerance;
selftest.csv carries both, so the headroom of each group can be read off
the output.

A check's brute-force side that no command runs (the dense oracles and
propagators, the order grading, the line expansion) comes from
spinsearch.references, which no other package module imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import composition, mqalgebra, oracle, references, sequences, spectroscopy
from .linalg import (
    PAULI_HALF,
    expm_unitary,
    kron_all,
    magnetic_quantum_numbers,
    random_hermitian,
    slabs,
    spin_op,
    total_op,
    unitarity_defect,
)
from .oracle import MarkedState


@dataclass
class InvariantResult:  # the package's one check record
    name: str
    residual: float
    tolerance: float
    reason: str | None = None  # why the check does not apply; None when it does

    @property
    def passed(self) -> bool:  # a check that does not apply passes; a NaN residual fails
        return self.reason is not None or bool(self.residual <= self.tolerance)


def _fold(differences) -> float:
    """The one fold of the package: the largest |entry| of the differences,
    NaN when an entry is NaN or there is none.  map drops each difference
    before a generator makes the next; a magnitude is never negative, so -1
    stands for a difference without entries.  Private, so that a trace of
    the public functions keeps a group's time in run_selftest."""
    largest = np.max([*map(lambda d: np.abs(d).max(initial=-1), differences)], initial=-1)
    return math.nan if largest < 0 else float(largest)


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _check_spin_commutators(*, n_values=(2, 3, 4)):
    """[a, b] = a b - b a over every ordered pair of spin operators on
    different spins, as stacked products over slabs of a."""
    for n in n_values:
        ops = np.array([spin_op(n, k, ax) for k in range(1, n + 1) for ax in "xyz"])
        spins = np.repeat(np.arange(n), 3)
        for rows in slabs(len(ops), ops.nbytes):  # a row of a commutes with every op
            a = ops[rows, None]
            c = a @ ops - ops @ a
            yield c[spins[rows, None] != spins]
    # su(2) algebra on one spin: [Ix, Iy] = i Iz and cyclic, on spins 1 and 2
    x, y, z = (np.array([spin_op(2, k, ax) for k in (1, 2)]) for ax in "xyz")
    a, b, c = (np.concatenate(triple) for triple in ((x, y, z), (y, z, x), (z, x, y)))
    yield a @ b - b @ a - 1j * c


def _check_expm_unitary(*, n_values=(1, 2, 3, 4), seed=11):
    rng = np.random.default_rng(seed)
    for n in n_values:
        h = random_hermitian(rng, 2**n)
        yield unitarity_defect(expm_unitary(h, 0.37))
        yield expm_unitary(h, 0.2) @ expm_unitary(h, 0.55) - expm_unitary(h, 0.75)


def _check_fz_eigenvalues(*, n_values=(1, 2, 3, 4)):
    for n in n_values:
        fz = total_op(n, "z")
        yield np.diag(fz).real - magnetic_quantum_numbers(n)
        yield fz - np.diag(np.diag(fz))


def _check_oracle_equivalence(*, n_values=(1, 2, 3)):
    for n in n_values:
        blocks, cs = [], []
        for s in range(2**n):
            marked = MarkedState(s=s, n=n)
            for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
                blocks.append(references.restrict_to_aux01(references.oracle_uo(marked, theta)))
                cs.append(references.selective_phase(marked, theta))
        yield np.array(blocks) - np.array(cs)


def _check_projector_frame_relation(*, n_values=(1, 2, 3)):
    for n in n_values:
        d0 = oracle.diag_projector(MarkedState(s=0, n=n))
        markeds = [MarkedState(s=s, n=n) for s in range(2**n)]
        w = np.array([references.sign_flip_frame(marked) for marked in markeds])
        ds = np.array([oracle.diag_projector(marked) for marked in markeds])
        yield ds - w @ d0 @ _dagger(w)


def _check_conjugation_identities(*, n_values=(2, 3, 4), count=27, seed=1000):
    """Per case: one random state conjugated by a selective phase at a
    random angle, and by a product of 2..4 of them.  The dense products run
    stacked over a slab of cases; each U is padded to four factors with
    identities, whose products leave its entries exact."""
    for n in n_values:
        dim = 2**n
        eye = np.eye(dim, dtype=complex)
        rng = np.random.default_rng(seed + n)
        for cases in slabs(count, 16 * dim * dim):  # a case: complex dim x dim matrices
            rhos, ones, cs, multis, factors = [], [], [], [], []
            for _ in range(cases.stop - cases.start):
                rho = random_hermitian(rng, dim)
                rhos.append(rho)
                s = int(rng.integers(dim))
                theta = float(rng.uniform(0, 2 * np.pi))
                marked = MarkedState(s=s, n=n)
                ones.append(sequences.conjugate_multi_selective(rho, [marked], [theta]))
                cs.append(references.selective_phase(marked, theta))
                picks = rng.choice(dim, size=int(rng.integers(2, min(4, dim) + 1)), replace=False)
                ths = rng.uniform(0, 2 * np.pi, size=len(picks))
                markeds = [MarkedState(s=int(p), n=n) for p in picks]
                multis.append(sequences.conjugate_multi_selective(rho, markeds, ths))
                phases = [references.selective_phase(mk, th) for mk, th in zip(markeds, ths)]
                factors.append(phases + [eye] * (4 - len(phases)))
            rho = np.array(rhos)
            c = np.array(cs)
            yield np.array(ones) - c @ rho @ _dagger(c)
            u = eye
            for slot in zip(*factors):
                u = u @ np.array(slot)
            yield np.array(multis) - u @ rho @ _dagger(u)


def _check_search_recovery(*, n_values=(1, 2, 3, 4)):
    """Every marked index at uniform polarization: nonzero if a run misreads
    s.  The call term reads oracle_uf_calls, the declared UF_CALLS_PER_UO,
    not a count of U_f applications, so it is 0 on every run until the
    oracle's uses are counted where it acts."""
    for n in n_values:
        eps = np.ones(n)
        for s in range(2**n):
            res = sequences.simple_search(MarkedState(s=s, n=n), eps)
            yield res.recovered_s - s, res.oracle_uf_calls - 2


def _check_lomso_reconstruction(*, n_values=(1, 2, 3)):
    for n in n_values:
        basis = references.lomso_transform(n)
        yield basis.a @ basis.a_inv - np.eye(2**n)
        for k in range(2**n):
            d = oracle.diag_projector(MarkedState(s=k, n=n))
            yield d - references.lomso_expand_projector(basis, k)


def _check_phase_cycling(*, n_values=(2, 3, 4), count=72, seed=2000):
    """Per case: one coherence order of a random operator, selected by
    2n + 1 phase steps and by the Fz grading; a slab of cases runs as one
    stacked phase cycle."""
    for n in n_values:
        rng = np.random.default_rng(seed + n)
        for cases in slabs(count, 16 * 4**n):  # a case: one complex 2^n x 2^n operator
            fs, targets = [], []
            for _ in range(cases.stop - cases.start):
                fs.append(random_hermitian(rng, 2**n))
                targets.append(int(rng.integers(-n, n + 1)))
            f = np.array(fs)
            selected = mqalgebra.phase_cycle_project(f, 2 * n + 1, targets)
            yield selected - references.order_component(f, targets)


def _outside_orders(op: np.ndarray, allowed):
    """The coherence-order components of op at every order m for which
    allowed(m) is false."""
    return (a for m, a in references.decompose_orders(op).items() if not allowed(m))


def _check_mq_generator_orders(*, n_values=(2, 3)):
    """The generator on each subset of two or more qubits that holds qubit 1
    is Hermitian and has no coherence order but +-(subset size)."""
    for n in n_values:
        subsets = [(1, *c) for size in range(1, n) for c in combinations(range(2, n + 1), size)]
        for qubits in subsets:
            g = references.mq_generator(n, qubits)
            yield g - g.conj().T
            yield from _outside_orders(g, lambda m: abs(m) == len(qubits))


def _closure(allowed, t: float, *, n_values, count: int, seed: int):
    """Per case: a random operator and a random generator G, both masked to
    the orders allowed(order_matrix) admits; conjugation by exp(-i t G)
    keeps the operator within those orders."""
    rng = np.random.default_rng(seed)
    for n in n_values:
        mask = allowed(references.order_matrix(n))
        for _ in range(count):
            h = np.where(mask, random_hermitian(rng, 2**n), 0)
            u = expm_unitary(np.where(mask, random_hermitian(rng, 2**n), 0), t)
            yield from _outside_orders(u @ h @ u.conj().T, allowed)


def _check_zero_quantum_closure(*, n_values=(2, 3), count=6, seed=53):
    yield from _closure(lambda m: m == 0, 0.9, n_values=n_values, count=count, seed=seed)


def _check_even_order_closure(*, n_values=(2, 3), count=6, seed=59):
    yield from _closure(lambda m: m % 2 == 0, 0.8, n_values=n_values, count=count, seed=seed)


def _check_grover_three_way(*, n_values=(2, 3, 4), count=26):
    """Closed form, recursion and a least-squares fit of the dense core
    iteration agree on the coefficients for m = 0 .. count - 1."""
    if count < 1:
        return
    for n in n_values:
        coeffs, recon_res = zip(*references.extract_alpha_from_matrix(n, count - 1))
        coeffs = np.array(coeffs)
        closed = sequences.grover_coefficients(count - 1, 2**n)[0]
        yield closed - references.grover_coefficients_recursion(count - 1, 2**n)
        yield coeffs[:, 0] - 1.0, recon_res
        yield coeffs[:, 1:] - closed


def _check_grover_reexpression(*, n_values=(2, 3)):
    for n in n_values:
        for s in (0, 2**n - 1, 1):
            marked = MarkedState(s=s, n=n)
            for m in (1, 3, 6):
                dense = references.grover_propagator(marked, m)
                yield dense - references.grover_propagator_factored(marked, m)


def _check_pipeline_vs_lines(*, n_values=(2, 3), count=1, seed=3000):
    """Per case: the t1 series of random excitation and reconversion
    unitaries around a 10 Hz Fz evolution, against its line expansion."""
    for n in n_values:
        rng = np.random.default_rng(seed + n)
        h = spectroscopy.SpinHamiltonian.uniform_fz(n, 2 * np.pi * 10)
        for _ in range(count):
            u, v = (references.random_unitary(rng, 2**n) for _ in range(2))
            cfg = spectroscopy.PipelineConfig(h_evol=h, dt=1 / 256, n_points=128)
            rho0 = sequences.initial_state(n, rng.uniform(0.5, 1.5, n), "y")
            p, q = spectroscopy.transfer_pair(u, v, rho0)
            series = spectroscopy.run_pipeline(p, q, cfg)
            om, amps = references.eigen_expand(p, q, h)
            yield series - references.resum_lines(om, amps, np.arange(cfg.n_points) * cfg.dt)


def _check_composition_unitarity(*, seed=83):
    rng = np.random.default_rng(seed)
    a, b = (random_hermitian(rng, 4) for _ in range(2))
    yield unitarity_defect(composition.trotter_propagator([a, b], 0.7, 8))
    yield unitarity_defect(composition.commutator_propagator(a, b, 16))
    yield unitarity_defect(composition.fractal_propagator(a, b, 0.3, [1.0]))
    yield unitarity_defect(composition.cross_propagator(a, b, 0.2))
    yield unitarity_defect(composition.fractal_propagator(a, b, 0.3, composition.FOURTH_ORDER_WEIGHTS))


def _check_sandwich_time_symmetry(*, seed=97):
    rng = np.random.default_rng(seed)
    a, b = (random_hermitian(rng, 4) for _ in range(2))
    sandwich = lambda x: composition.fractal_propagator(a, b, x, [1.0])
    for x in (0.4, 0.15):
        yield sandwich(x) @ sandwich(-x) - np.eye(4)


def _check_projector_product_form(*, n_values=(1, 2, 3, 4)):
    """|s><s| for every s against the product of single-spin projectors
    E/2 + a_k I_kz over the sign vector of s."""
    half = 0.5 * np.eye(2, dtype=complex)
    for n in n_values:
        for s in range(2**n):
            marked = MarkedState(s=s, n=n)
            product = kron_all(half + a * PAULI_HALF["z"] for a in marked.signs)
            yield product - oracle.diag_projector(marked)


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


def run_selftest() -> list[InvariantResult]:
    return [InvariantResult(name, _fold(check()), tol) for name, check, tol in INVARIANT_GROUPS]
