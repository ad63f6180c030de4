import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsearch.linalg import (
    SLAB_BYTES,
    comm,
    product_rotation,
    spin_op,
    total_op,
)
from spinsearch.mqalgebra import AliasingError, phase_cycle_project
from spinsearch.oracle import MarkedState, diag_projector
from spinsearch.references import decompose_orders, lomso_transform, mq_generator, x_product_op

from conftest import CHECK, maxabs, random_hermitian, support
from reference import agreement, gradient_crush, zq_dephase


def flip_flop(n=2):
    """(I1+ I2- + I1- I2+)/2, the elementary zero-quantum coherence."""
    ip1, im1 = spin_op(n, 1, "+"), spin_op(n, 1, "-")
    ip2, im2 = spin_op(n, 2, "+"), spin_op(n, 2, "-")
    return 0.5 * (ip1 @ im2 + im1 @ ip2)


class TestDecomposeOrders:
    def test_longitudinal_is_order_zero(self):
        assert support(decompose_orders(spin_op(2, 1, "z"))) == [0]

    def test_raising_is_order_plus_one(self):
        assert support(decompose_orders(spin_op(2, 1, "+"))) == [1]

    def test_double_x_product_orders(self):
        op = 4 * spin_op(2, 1, "x") @ spin_op(2, 2, "x")
        assert support(decompose_orders(op)) == [-2, 0, 2]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**31))
    def test_reconstruction_and_eigenrelation(self, n, seed):
        a = random_hermitian(np.random.default_rng(seed), 2**n)
        dec = decompose_orders(a)
        assert maxabs(sum(dec.values()) - a) <= 1e-12
        fz = total_op(n, "z")
        for m, comp in dec.items():
            assert maxabs(comm(fz, comp) - m * comp) <= 1e-10


class TestCrushAndDephase:
    def test_diagonal_survives_crush(self, rng):
        rho = np.diag(rng.normal(size=8)).astype(complex)
        assert maxabs(gradient_crush(rho) - rho) == 0

    def test_transverse_dies_in_crush(self):
        assert maxabs(gradient_crush(spin_op(2, 1, "x"))) == 0

    def test_flip_flop_survives_crush(self):
        op = flip_flop()
        assert maxabs(gradient_crush(op) - op) == 0

    def test_flip_flop_dies_in_dephase(self):
        assert maxabs(zq_dephase(flip_flop())) == 0

    def test_two_spin_order_survives_dephase(self):
        op = spin_op(2, 1, "z") @ spin_op(2, 2, "z")
        assert maxabs(zq_dephase(op) - op) == 0

    def test_dephased_commutes_with_z_basis(self, rng):
        basis = lomso_transform(3)
        rho = zq_dephase(random_hermitian(rng, 8))
        for z in basis.z_ops:
            assert maxabs(comm(rho, z)) <= 1e-12


def x_product(basis, l):
    """Reference: Z_l rotated into the x basis, 2^(|T|-1) * prod_{k in T} I_kx."""
    ry = product_rotation(basis.n, "y", np.pi / 2)
    return ry @ basis.z_ops[l] @ ry.conj().T


class TestLomsoTransform:
    def test_single_spin_row(self):
        basis = lomso_transform(1)
        # D_0 = E/2 + I_z
        assert np.allclose(basis.a[0], [0.5, 1.0], atol=1e-14)

    def test_z_ops_diagonal_and_commuting(self):
        basis = lomso_transform(3)
        for z in basis.z_ops:
            assert maxabs(z - np.diag(np.diag(z))) == 0
        for za in basis.z_ops[:4]:
            for zb in basis.z_ops[:4]:
                assert maxabs(comm(za, zb)) == 0

    def test_x_product_matches_direct_construction(self):
        n = 3
        basis = lomso_transform(n)
        for l in range(1, 2**n):
            qubits = [k for k in range(1, n + 1) if (l >> (n - k)) & 1]
            assert maxabs(x_product(basis, l) - x_product_op(n, qubits)) <= 1e-12

    def test_projector_subset_sum_expansion(self):
        # product form == (1/N) sum over qubit subsets of prod (a_k 2 I_kz)
        n = 3
        for s in range(8):
            marked = MarkedState(s=s, n=n)
            a = marked.signs
            total = np.zeros((8, 8), dtype=complex)
            for subset in range(8):
                term = np.eye(8, dtype=complex)
                for k in range(1, n + 1):
                    if (subset >> (n - k)) & 1:
                        term = term @ (2 * a[k - 1] * spin_op(n, k, "z"))
                total += term
            assert maxabs(diag_projector(marked) - total / 8) <= 1e-12


class TestPhaseCycling:
    test_bit_identical_to_expm_steps = agreement("phase_cycle_project")

    def test_zero_quantum_fixed_point(self):
        op = flip_flop()
        assert maxabs(phase_cycle_project(op, 5, 0) - op) <= 1e-12

    def test_projected_x_projector_matches_grading(self):
        from spinsearch.sequences import projector_x_basis

        dsx = projector_x_basis(MarkedState(s=1, n=2))
        projected = phase_cycle_project(dsx, 5, 0)
        expected = decompose_orders(dsx)[0]
        assert maxabs(projected - expected) <= 1e-11

    def test_double_x_zero_quantum_part(self):
        op = 4 * spin_op(2, 1, "x") @ spin_op(2, 2, "x")
        got = phase_cycle_project(op, 5, 0)
        assert maxabs(got - 2 * flip_flop()) <= 1e-12

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            phase_cycle_project(flip_flop(), 4, 0)
        with pytest.raises(AliasingError):
            phase_cycle_project(np.array([flip_flop()] * 3), 4, [0, 1, -1])

    def test_stack_is_bit_identical_to_per_operator_calls(self, rng):
        # more complex operators than one slab holds at n = 4, half of them
        # not Hermitian, with every target order present
        n, n1 = 4, 9
        count = SLAB_BYTES // (16 * 4**n) + 3
        ops = np.array([
            random_hermitian(rng, 2**n) + (1j * random_hermitian(rng, 2**n) if k % 2 else 0)
            for k in range(count)
        ])
        targets = [int(t) for t in rng.permutation(np.arange(count) % (2 * n + 1) - n)]
        stacked = phase_cycle_project(ops, n1, targets)
        for op, target, got in zip(ops, targets, stacked):
            assert np.array_equal(got, phase_cycle_project(op, n1, target))

    def test_stack_needs_one_target_per_operator(self):
        with pytest.raises(ValueError, match="target orders"):
            phase_cycle_project(np.array([flip_flop()] * 3), 5, [0, 1])

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2**31))
    def test_matches_grading_selection(self, n, seed):
        assert CHECK["phase-cycling-vs-grading"](n_values=(n,), count=1, seed=seed) <= 1e-11


class TestMqGenerators:
    def test_two_spin_comm_orders(self):
        g = mq_generator(2, (1, 2))
        assert support(decompose_orders(g), tol=1e-13) == [-2, 2]

    def test_hermiticity(self):
        g = mq_generator(3, (1, 3))
        assert maxabs(g - g.conj().T) <= 1e-13

    test_matches_four_term_expansion = agreement("mq_generator")

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_support_at_plus_minus_l(self, l):
        n = 3
        g = mq_generator(n, tuple(range(1, l + 1)))
        assert support(decompose_orders(g), tol=1e-13) == [-l, l]


class TestClosureProperties:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 2**31))
    def test_zero_quantum_closure(self, n, seed):
        assert CHECK["zero-quantum-closure"](n_values=(n,), count=1, seed=seed) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3), seed=st.integers(0, 2**31))
    def test_even_order_closure(self, n, seed):
        assert CHECK["even-order-closure"](n_values=(n,), count=1, seed=seed) <= 1e-10
