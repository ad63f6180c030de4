import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsearch import cli, linalg, mqalgebra, selftest, sequences, spectroscopy
from spinsearch.linalg import (
    BranchCutError,
    comm,
    expm_unitary,
    iz_diagonals,
    kron_all,
    magnetic_quantum_numbers,
    matrix_log_skew,
    n_qubits,
    product_rotation,
    single_spin_entries,
    slabs,
    spin_op,
    total_op,
    unitarity_defect,
)
from spinsearch.oracle import MarkedState
from spinsearch.sequences import initial_state

from conftest import maxabs, random_hermitian, random_unitary
from reference import KRON_SHAPES, Forbidden, agreement, kron_draw, kron_fold, patch_forbidden


class TestSlabs:
    def test_rows_per_slab_come_from_the_budget(self, monkeypatch):
        assert slabs(5, 2**16) == [slice(0, 4), slice(4, 5)]  # four 64 KiB rows to a slab
        assert slabs(3, 2**20, min_rows=2) == [slice(0, 2), slice(2, 3)]
        assert slabs(0, 8) == []
        monkeypatch.setattr(linalg, "SLAB_BYTES", 1)  # read at each call
        assert slabs(3, 8) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_every_bounded_loop_takes_its_slabs_from_it(self, tmp_path, monkeypatch):
        # so that the one budget reaches every loop
        p = q = total_op(2, "z")
        pipe = spectroscopy.PipelineConfig(
            h_evol=spectroscopy.SpinHamiltonian.uniform_fz(2, 1.0), dt=1e-3, n_points=8
        )
        loops = {
            "run_pipeline": lambda: spectroscopy.run_pipeline(p, q, pipe),
            "inphase_check": lambda: list(spectroscopy.inphase_check(p, q, 0.0)),
            "explicit oracle": lambda: sequences._explicit_oracle_work_state(
                MarkedState(s=1, n=2), np.ones(2), -np.pi / 2
            ),
            "phase_cycle_project": lambda: mqalgebra.phase_cycle_project(p, 5, 0),
            "write_csv": lambda: cli.write_csv(tmp_path / "x.csv", {"x": [1.0]}),
            "registry": lambda: list(selftest._check_phase_cycling(n_values=(2,), count=1)),
        }
        patch_forbidden(monkeypatch, ["slabs"])
        for loop in loops.values():
            with pytest.raises(Forbidden):
                loop()


class TestNQubits:
    def test_reads_n_off_the_shape(self):
        assert [n_qubits(np.eye(2**n)) for n in range(4)] == [0, 1, 2, 3]

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (8,)])
    def test_rejects_non_qubit_shapes(self, shape):
        with pytest.raises(ValueError, match="2\\*\\*n"):
            n_qubits(np.zeros(shape))


class TestSpinOp:
    def test_single_qubit_z(self):
        assert maxabs(spin_op(1, 1, "z") - 0.5 * np.diag([1, -1])) == 0

    def test_su2_commutator(self):
        lhs = comm(spin_op(2, 1, "x"), spin_op(2, 1, "y"))
        assert maxabs(lhs - 1j * spin_op(2, 1, "z")) < 1e-15

    def test_traceless_two_spin_product(self):
        prod = spin_op(2, 1, "z") @ spin_op(2, 2, "z")
        assert abs(np.trace(prod)) == 0

    def test_ladder_operators(self):
        ip = spin_op(1, 1, "+")
        im = spin_op(1, 1, "-")
        ix, iy = spin_op(1, 1, "x"), spin_op(1, 1, "y")
        assert maxabs(ip - (ix + 1j * iy)) == 0
        assert maxabs(im - (ix - 1j * iy)) == 0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            spin_op(2, 3, "x")


class TestTotalOp:
    def test_two_spin_z(self):
        fz = total_op(2, "z")
        assert maxabs(fz - np.diag([1, 0, 0, -1])) == 0

    def test_single_spin_reduces(self):
        assert maxabs(total_op(1, "z") - spin_op(1, 1, "z")) == 0

    def test_three_spin_eigenvalues(self):
        fz = total_op(3, "z")
        got = sorted(np.diag(fz).real)
        assert got == [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5]

    def test_popcount_formula(self):
        for n in (1, 2, 3, 4):
            fz = total_op(n, "z")
            assert maxabs(np.diag(fz).real - magnetic_quantum_numbers(n)) == 0
            assert maxabs(fz - np.diag(np.diag(fz))) == 0

    def test_popcount_matches_bit_string_count(self):
        for n in range(9):
            ref = np.array([(n - 2 * bin(x).count("1")) / 2 for x in range(2**n)])
            got = magnetic_quantum_numbers(n)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestKronAll:
    test_bit_identical_to_kron_fold = agreement("kron_all")

    def test_mixed_real_and_complex_factors(self, rng):
        factors = [kron_draw(rng, s, k % 2 == 1) for k, s in enumerate(KRON_SHAPES)]
        assert np.array_equal(kron_all(factors), kron_fold(factors))

    def test_generator_argument(self, rng):
        factors = [kron_draw(rng, (2, 2), True) for _ in range(4)]
        assert np.array_equal(kron_all(f for f in factors), kron_fold(factors))

    def test_empty_is_one_by_one_identity(self):
        got = kron_all([])
        assert got.dtype == complex and np.array_equal(got, kron_fold([]))


class TestSingleSpinSums:
    # total_op, initial_state and the weak-coupling diagonal
    test_bit_identical_to_kron_fold_sums = agreement("total_op")

    @pytest.mark.parametrize("n", range(1, 9))
    def test_iz_diagonals_are_the_spin_op_diagonals(self, n):
        ref = np.array([np.diag(spin_op(n, k, "z")).real for k in range(1, n + 1)])
        got = iz_diagonals(n)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert got.flags.c_contiguous

    def test_one_nonzero_per_row(self):
        for axis in "xyz":
            cols, vals = single_spin_entries(3, axis)
            for k in range(1, 4):
                dense = np.zeros((8, 8), dtype=complex)
                dense[np.arange(8), cols[k - 1]] = vals[k - 1]
                assert np.array_equal(dense, spin_op(3, k, axis))

    @pytest.mark.parametrize("axis", ["+", "-", "w", ""])
    def test_unknown_axis_raises(self, axis):
        with pytest.raises(ValueError, match="axis"):
            total_op(2, axis)
        with pytest.raises(ValueError, match="axis"):
            single_spin_entries(2, axis)
        with pytest.raises(ValueError, match="axis"):
            initial_state(2, [1.0, 1.0], axis)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_weight_count_must_match(self, weights):
        with pytest.raises(ValueError, match="weight"):
            total_op(2, "z", weights)


class TestExpmUnitary:
    def test_zero_time_is_identity(self, rng):
        h = random_hermitian(rng, 8)
        assert maxabs(expm_unitary(h, 0.0) - np.eye(8)) < 1e-14

    def test_diagonal_projector_pi(self):
        # exp(-i pi diag(1, 0)) has phases (-1, 1)
        u = expm_unitary(np.diag([1.0, 0.0]).astype(complex), np.pi)
        assert maxabs(u - np.diag([-1.0, 1.0])) < 1e-15

    def test_random_unitarity(self, rng):
        h = random_hermitian(rng, 16)
        assert unitarity_defect(expm_unitary(h, 0.83)) <= 1e-10

    def test_rejects_non_hermitian(self, rng):
        bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="Hermitian"):
            expm_unitary(bad, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        s=st.floats(-3, 3, allow_nan=False),
        t=st.floats(-3, 3, allow_nan=False),
    )
    def test_group_law(self, seed, s, t):
        h = random_hermitian(np.random.default_rng(seed), 8)
        lhs = expm_unitary(h, s) @ expm_unitary(h, t)
        assert maxabs(lhs - expm_unitary(h, s + t)) <= 1e-10


class TestProductRotation:
    test_matches_eigh_of_collective_operator = agreement("product_rotation")

    def test_per_qubit_angles(self, rng):
        n = 4
        angles = rng.uniform(-np.pi, np.pi, size=n)
        ref = np.eye(2**n, dtype=complex)
        for k, a in enumerate(angles, start=1):
            ref = ref @ expm_unitary(spin_op(n, k, "x"), a)
        assert maxabs(product_rotation(n, "x", angles) - ref) <= 1e-12
        zero_on_two = product_rotation(n, "y", [0.7, 0.0, 0.0, 0.7])
        ref = expm_unitary(spin_op(n, 1, "y") + spin_op(n, 4, "y"), 0.7)
        assert maxabs(zero_on_two - ref) <= 1e-12

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            product_rotation(2, "+", 1.0)


class TestProductPopulations:
    test_matches_the_dense_product = agreement("product_populations")


class TestRandomHermitian:
    def test_same_draws_as_inline_formula(self):
        a = 2.5 * random_hermitian(np.random.default_rng(5), 6)
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert maxabs(a - 2.5 * (z + z.conj().T) / 2) == 0
        assert maxabs(a - a.conj().T) == 0


class TestMatrixLogSkew:
    def test_identity(self):
        assert maxabs(matrix_log_skew(np.eye(4, dtype=complex))) == 0

    def test_round_trip_small_norm(self, rng):
        h = random_hermitian(rng, 8)
        h *= 0.1 / np.linalg.norm(h, 2)
        u = expm_unitary(h, -1.0)  # exp(+i h)
        assert maxabs(matrix_log_skew(u) - h) <= 1e-10

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCutError):
            matrix_log_skew(np.diag([-1.0, 1.0]).astype(complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            matrix_log_skew(np.diag([2.0, 1.0]).astype(complex))

    @pytest.mark.parametrize(
        "phases",
        [[0.3, 0.3, -1.2, -1.2], [3.0, 3.0, -3.0, -3.0, 0.5, 0.5, 0.5, -0.5], [1.0] * 4],
        ids=["degenerate-pairs", "degenerate-near-cut", "scalar"],
    )
    def test_round_trip_degenerate_phases(self, rng, phases):
        q = random_unitary(rng, len(phases))
        h = (q * np.array(phases)) @ q.conj().T
        u = expm_unitary(h, -1.0)
        assert maxabs(matrix_log_skew(u) - h) <= 1e-12
