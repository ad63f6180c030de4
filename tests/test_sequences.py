import numpy as np
import pytest

from spinsearch import linalg, sequences
from spinsearch.linalg import (
    expm_unitary,
    kron_all,
    product_rotation,
    spin_op,
    total_op,
    unitarity_defect,
)
from spinsearch.oracle import (
    MarkedState,
    aux_pure_state,
    diag_projector,
    sign_vector,
)
from spinsearch.references import (
    extract_alpha_from_matrix,
    gamma1_first_peak,
    grover_basis,
    grover_coefficients_recursion,
    grover_core,
    grover_propagator,
    spin_echo_hamiltonian,
)
from spinsearch.sequences import (
    AmbiguousReadoutError,
    auto_m_max,
    conjugate_multi_selective,
    conversion_coefficients,
    grover_coefficients,
    grover_conjugate,
    initial_state,
    measured_conversion_coefficients,
    projector_x_basis,
    simple_search,
    x_basis_state,
)

from conftest import CHECK, assert_peak_at_most, maxabs, random_hermitian, random_unitary
from reference import (
    Forbidden, agreement, dense_conjugate, explicit_oracle_state, explicit_search_n8, gradient_crush,
    patch_bindings, patch_counted, patch_forbidden, zq_dephase,
)


class TestInitialState:
    def test_uniform_z(self):
        rho = initial_state(2, [1.0, 1.0], "z")
        expected = spin_op(2, 1, "z") + spin_op(2, 2, "z")
        assert maxabs(rho - expected) == 0

    def test_traceless(self, rng):
        rho = initial_state(3, rng.uniform(0.5, 1.5, 3), "y")
        assert abs(np.trace(rho)) <= 1e-14
        assert maxabs(rho - rho.conj().T) <= 1e-12

    def test_aux_sector_survives_gradient(self):
        aux = aux_pure_state()
        assert maxabs(gradient_crush(aux) - aux) == 0
        rho = np.kron(initial_state(1, [1.0], "z"), aux)
        assert maxabs(gradient_crush(rho) - rho) == 0
        assert abs(np.trace(rho)) <= 1e-14


class TestConjugateSelective:
    def test_zero_and_full_turn(self, rng):
        rho = random_hermitian(rng, 8)
        m = [MarkedState(s=3, n=3)]
        assert maxabs(conjugate_multi_selective(rho, m, [0.0]) - rho) == 0
        assert maxabs(conjugate_multi_selective(rho, m, [2 * np.pi]) - rho) <= 1e-14


class TestConjugateMultiSelective:
    def test_all_zero_phases(self, rng):
        rho = random_hermitian(rng, 4)
        ms = [MarkedState(s=0, n=2), MarkedState(s=3, n=2)]
        assert maxabs(conjugate_multi_selective(rho, ms, [0, 0]) - rho) == 0

    def test_duplicate_indices_rejected(self, rng):
        rho = random_hermitian(rng, 4)
        ms = [MarkedState(s=1, n=2), MarkedState(s=1, n=2)]
        with pytest.raises(ValueError, match="distinct"):
            conjugate_multi_selective(rho, ms, [0.1, 0.2])


class TestSimpleSearch:
    def test_two_qubit_sign_pattern(self):
        res = simple_search(MarkedState(s=2, n=2), [1.0, 1.0])
        assert res.recovered_s == 2
        signs = np.sign(res.per_qubit_signal / np.sin(res.theta))
        assert list(signs.astype(int)) == [-1, 1]

    def test_single_qubit(self):
        assert simple_search(MarkedState(s=0, n=1), [1.0]).recovered_s == 0

    @pytest.mark.parametrize("theta", [0.9, -np.pi / 2])
    def test_signs_and_prefactor_spread(self, theta):
        eps = np.array([0.5, -1.5, 0.8])
        res = simple_search(MarkedState(s=5, n=3), eps, theta)
        a = sign_vector(5, 3)
        assert list(res.signs) == list(a)  # sin(theta) divided out
        prefactors = res.per_qubit_signal / (eps * a)
        assert res.prefactor_spread == np.abs(prefactors - res.measured_prefactor).max()
        assert res.prefactor_spread <= 1e-12

    def test_prefactor_carries_sin_theta(self):
        theta = -np.pi / 2
        res = simple_search(MarkedState(s=5, n=3), np.ones(3), theta)
        assert res.reference_prefactor == 2 / 8
        assert abs(res.measured_prefactor - np.sin(theta) * 2 / 8) <= 1e-12
        assert abs(res.prefactor_ratio - np.sin(theta)) <= 1e-10

    def test_nonuniform_epsilons(self):
        eps = [0.5, 1.5, 0.8]
        for s in (0, 5, 7):
            res = simple_search(MarkedState(s=s, n=3), eps, theta=0.9)
            assert res.recovered_s == s

    def test_explicit_oracle_mode_matches(self):
        for s in (0, 2, 3):
            a = simple_search(MarkedState(s=s, n=2), np.ones(2), aux_mode="selective-cs")
            b = simple_search(MarkedState(s=s, n=2), np.ones(2), aux_mode="explicit-uf")
            assert a.recovered_s == b.recovered_s == s
            assert maxabs(a.per_qubit_signal - b.per_qubit_signal) <= 1e-12

    def test_zero_theta_is_ambiguous(self):
        with pytest.raises(AmbiguousReadoutError):
            simple_search(MarkedState(s=1, n=2), np.ones(2), theta=0.0)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            simple_search(MarkedState(s=1, n=2), [1.0, 0.0])

    test_matches_dense_reference = agreement("simple_search-selective-cs", "simple_search-explicit-uf")
    # the whole real array out of the explicit oracle, zero blocks included
    test_explicit_oracle_state = agreement("explicit_oracle")

    def test_explicit_oracle_at_n8_gives_the_closed_form_signal(self):
        # the cases of the simple_search-explicit-uf row's independence guard
        for marked, eps, theta in explicit_search_n8():
            res = simple_search(marked, eps, theta, aux_mode="explicit-uf")
            assert res.recovered_s == marked.s
            expected = np.sin(theta) * (2 / 2**8) * eps * sign_vector(marked.s, 8)
            assert maxabs(res.per_qubit_signal - expected) <= 1e-12

    def test_explicit_oracle_at_n8_never_reaches_the_closed_form(self, monkeypatch):
        patch_forbidden(monkeypatch, ["conjugate_multi_selective"])
        marked, eps, theta = next(explicit_search_n8())
        with pytest.raises(Forbidden, match="conjugate_multi_selective"):  # the patch is live
            simple_search(marked, eps, theta, aux_mode="selective-cs")
        for marked, eps, theta in explicit_search_n8():
            res = simple_search(marked, eps, theta, aux_mode="explicit-uf")
            assert res.recovered_s == marked.s

    def test_n8_search_never_builds_the_n_qubit_pulse(self, monkeypatch):
        # the readout contracts the populations from the single-qubit
        # rotation: an n-qubit pulse must not come back in either mode
        def single_qubit_only(name, real, where):
            def rotation(n, axis, angle):
                if n > 1:
                    raise Forbidden(f"the search built a {n}-qubit pulse through {where}")
                return real(n, axis, angle)

            return rotation

        patch_bindings(monkeypatch, ["product_rotation"], single_qubit_only)
        with pytest.raises(Forbidden):  # the patch is live
            sequences.product_rotation(2, "y", np.pi / 2)
        for aux_mode in ("selective-cs", "explicit-uf"):
            for marked, eps, theta in explicit_search_n8():
                assert simple_search(marked, eps, theta, aux_mode=aux_mode).recovered_s == marked.s

    def test_explicit_oracle_at_n8_peak_memory(self):
        # while the oracle runs: its Im rho, its traced rows and three slabs
        # (the one traced, the one built and its V_S factors); then the work
        # state, the readout's interleaved copy of it and its half-size first
        # step.  Three real 256-dim matrices and three slabs bound both; the
        # whole (N, 4, N, 4) state is never held (measured 1.80 MiB; 2.00 MiB
        # with the n-qubit pulse, 9.07 MiB with the whole state)
        bound = 3 * np.dtype(float).itemsize * 256**2 + 3 * linalg.SLAB_BYTES
        eps = np.linspace(0.6, 1.4, 8)
        assert_peak_at_most(bound, simple_search, MarkedState(s=173, n=8), eps, aux_mode="explicit-uf")

    @pytest.mark.parametrize("height", [1, 3, None], ids=["1", "3", "N"])
    def test_explicit_oracle_is_the_same_bytes_at_every_slab_height(self, monkeypatch, height):
        # 3 divides no N = 2^n, so its last slab is short; None is one slab
        # of N rows.  A skipped slab fails this test at every height; defects
        # that every height shares, such as a dropped second column U_f, are
        # test_explicit_oracle_state's to catch
        cases = [
            (MarkedState(s=s, n=n), np.linspace(-1.3, 1.1, n), -np.pi / 2 + 0.7 * s)
            for n in range(1, 4) for s in range(2**n)
        ] + list(explicit_search_n8())

        def outputs(marked, eps, theta):
            return (
                explicit_oracle_state(marked, eps, theta).tobytes(),
                sequences._explicit_oracle_work_state(marked, eps, theta).tobytes(),
            )

        expected = [outputs(*case) for case in cases]
        for case, want in zip(cases, expected):
            work_row = 8 * 16 * 2**case[0].n  # its 4 full-space rows of 4N reals
            monkeypatch.setattr(linalg, "SLAB_BYTES", (height or 2**case[0].n) * work_row)
            assert outputs(*case) == want

    def test_selective_search_at_n8_peak_memory(self):
        # the conjugation works in place on the one complex 256-dim y state;
        # the readout then holds it, its interleaved real copy and its
        # half-size first step (measured 1.75 MiB).  Half a real 256-dim
        # matrix more covers the small arrays (2.02 MiB with the y state
        # copied, 4.01 MiB with the complex readout)
        bound = (np.dtype(complex).itemsize + 2 * np.dtype(float).itemsize) * 256**2
        eps = np.linspace(0.6, 1.4, 8)
        assert_peak_at_most(bound, simple_search, MarkedState(s=173, n=8), eps, aux_mode="selective-cs")

    @pytest.mark.parametrize("aux_mode", ["selective-cs", "explicit-uf"])
    def test_a_pulse_with_an_imaginary_part_is_refused(self, monkeypatch, aux_mode):
        # a global phase leaves diag(P rho P^+) as it is, but not the real
        # readout, which takes Re r of the single-qubit rotation r: the pulse
        # is checked real, not assumed
        real_pulse = sequences.product_rotation
        monkeypatch.setattr(
            sequences, "product_rotation", lambda *args: np.exp(0.3j) * real_pulse(*args)
        )
        with pytest.raises(ValueError, match="imaginary part"):
            simple_search(MarkedState(s=5, n=3), np.ones(3), aux_mode=aux_mode)

    def test_explicit_oracle_refuses_a_work_state_with_a_real_part(self, monkeypatch):
        # the real full state holds Im rho: a real part would be dropped, so
        # the imaginary work state is checked, not assumed
        y_state = sequences.initial_state
        monkeypatch.setattr(
            sequences, "initial_state", lambda *args: y_state(*args) + 0.1 * np.eye(8)
        )
        simple_search(MarkedState(s=5, n=3), np.ones(3), aux_mode="selective-cs")
        with pytest.raises(ValueError, match="work state has a real part"):
            simple_search(MarkedState(s=5, n=3), np.ones(3), aux_mode="explicit-uf")

    def test_explicit_oracle_refuses_an_auxiliary_state_with_an_imaginary_part(self, monkeypatch):
        real_aux = sequences.aux_pure_state
        monkeypatch.setattr(sequences, "aux_pure_state", lambda: np.exp(0.3j) * real_aux())
        with pytest.raises(ValueError, match="auxiliary state has an imaginary part"):
            simple_search(MarkedState(s=5, n=3), np.ones(3), aux_mode="explicit-uf")


def trace_out_aux(rho, n):
    return np.einsum("iaja->ij", rho.reshape(2**n, 4, 2**n, 4))


def crushed_diagonal(rho, u):
    """Readout diagonal after the pulse u, the gradient crush and the
    zero-quantum dephase."""
    return np.diag(zq_dephase(gradient_crush(u @ rho @ u.conj().T)))


class TestEarlyTrace:
    """Tracing the auxiliary pair out before the pulse, crush and dephase
    gives the readout diagonal of the full-space pipeline, for any
    auxiliary content."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_trace_commutes_with_the_readout_pipeline(self, n):
        rng = np.random.default_rng(700 + n)
        pulses = [product_rotation(n, "y", np.pi / 2), random_unitary(rng, 2**n)]
        for u in pulses:
            for _ in range(3):
                rho = random_hermitian(rng, 2 ** (n + 2))
                full = crushed_diagonal(rho, np.kron(u, np.eye(4)))
                late = np.diag(trace_out_aux(np.diag(full), n))
                early = crushed_diagonal(trace_out_aux(rho, n), u)
                assert maxabs(late - early) <= 1e-13


class TestSpinEcho:
    def test_no_decoupling_returns_projector(self):
        m = MarkedState(s=2, n=2)
        assert maxabs(spin_echo_hamiltonian(m, 0) - diag_projector(m)) == 0

    def test_one_step_two_qubits(self):
        m = MarkedState(s=2, n=2)  # signs (-1, +1)
        got = spin_echo_hamiltonian(m, 1)
        single = 0.5 * np.eye(2) + (-1) * np.diag([0.5, -0.5])
        expected = kron_all([single, np.eye(2)])
        assert maxabs(got - expected) <= 1e-12

    @pytest.mark.parametrize("n,s", [(3, 5), (4, 9)])
    def test_closed_form_and_trace(self, n, s):
        m = MarkedState(s=s, n=n)
        signs = m.signs
        for k in range(n):
            got = spin_echo_hamiltonian(m, k)
            factors = [
                0.5 * np.eye(2) + signs[l] * np.diag([0.5, -0.5]) for l in range(n - k)
            ] + [np.eye(2)] * k
            assert maxabs(got - kron_all(factors)) <= 1e-12
            assert abs(np.trace(got) - 2**k) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spin_echo_hamiltonian(MarkedState(s=0, n=2), 2)


class TestGroverPropagator:
    def test_zero_iterations(self):
        u = grover_propagator(MarkedState(s=1, n=2), 0)
        assert maxabs(u - np.eye(4)) == 0

    def test_iteration_composition(self):
        m = MarkedState(s=3, n=3)
        for k in (1, 2, 5):
            lhs = grover_propagator(m, k) @ grover_propagator(m, 1)
            assert maxabs(lhs - grover_propagator(m, k + 1)) <= 1e-11

    def test_reflection_expansion(self):
        m = MarkedState(s=2, n=3)
        dsx = projector_x_basis(m)
        u = expm_unitary(dsx, np.pi)
        assert maxabs(u - (np.eye(8) - 2 * dsx)) <= 1e-12

    def test_unitary(self):
        assert unitarity_defect(grover_propagator(MarkedState(s=5, n=3), 7)) <= 1e-10

    # n = 1..8, one draw each from seed 11
    test_matches_dense_loop = agreement("grover_propagator")

    def test_x_basis_state_projector(self):
        for n in range(1, 5):
            for s in range(2**n):
                m = MarkedState(s=s, n=n)
                xs = x_basis_state(m)
                assert xs.dtype == float and abs(xs @ xs - 1) <= 1e-15
                assert maxabs(np.outer(xs, xs) - projector_x_basis(m)) <= 1e-14

    test_x_basis_state_bit_identical_to_kron_fold = agreement("x_basis_state")

    test_product_pulse_frames_match_eigh_built = agreement("projector_x_basis")


class TestGroverConjugate:
    test_matches_dense_reference = agreement("grover_conjugate")

    def test_mixed_hermitian_operator(self):
        rng = np.random.default_rng(14)
        marked = MarkedState(s=5, n=3)
        x = random_hermitian(rng, 8)
        for m in (0, 1, 3):
            assert maxabs(grover_conjugate(marked, m, x) - dense_conjugate(marked, m, x)) <= 1e-12

    def test_leaves_its_input_alone(self):
        x = total_op(3, "y", [0.5, 1.0, 1.5]) + total_op(3, "x")
        before = x.copy()
        grover_conjugate(MarkedState(s=6, n=3), 4, x)
        assert np.array_equal(x, before)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            grover_conjugate(MarkedState(s=1, n=2), -1, total_op(2, "z"))


class TestGroverCoefficients:
    def test_zero_iterations(self):
        assert np.array_equal(grover_coefficients(0, 8)[0], [[0, 0, 0, 0]])

    def test_single_iteration_exact(self):
        for N in (4, 8, 16):
            alpha = grover_coefficients(1, N)[0][1]
            assert maxabs(alpha - np.array([-2, -2, 0, 4])) <= 1e-12

    def test_alpha_identities(self):
        for N in (4, 8, 16):
            alpha = grover_coefficients(13, N)[0]
            for m in (0, 1, 5, 13):
                a1, a2, a3, a4 = alpha[m]
                assert abs(a1 - a2) <= 1e-10 and abs(a4 + 2 * a1 + a3) <= 1e-10

    def test_closed_algebra_residual(self):
        for n in (2, 3, 4):
            basis = grover_basis(n)
            alpha = grover_coefficients(25, 2**n)[0]
            for m in (1, 7, 25):
                recon = basis[0] + sum(a * b for a, b in zip(alpha[m], basis[1:]))
                assert maxabs(grover_core(n, m) - recon) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row_m_is_the_last_row_of_the_table_to_m(self, n):
        # row m depends on m alone, signed zeros included: every longer
        # table holds the bits of the table to m at row m, and a1 reads
        # m theta rounded once, not an angle carried across m
        N = 2**n
        theta = sequences._iteration_angle(N)
        tables = {
            m: (*grover_coefficients(m, N), grover_coefficients_recursion(m, N))
            for m in (0, 1, 2, auto_m_max(N), 4096)
        }
        for m, short in tables.items():
            assert short[0][-1, 0] == -N / (N - 1) * (1 - np.cos(m * theta))
            for longer in (tabs for m_max, tabs in tables.items() if m_max > m):
                for table, last in zip(longer, short, strict=True):
                    assert np.array_equal(table[m].view(np.int64), last[-1].view(np.int64))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: grover_core(2, -2),
            lambda: extract_alpha_from_matrix(2, -3),
            lambda: grover_coefficients_recursion(-1, 4),
        ],
        ids=["grover_core", "extract_alpha_from_matrix", "grover_coefficients_recursion"],
    )
    def test_negative_count_raises(self, call):
        # not the identity, nor one fit of m = 0, nor the coefficients of m = 0
        with pytest.raises(ValueError, match="iteration count must be >= 0"):
            call()


class TestExtractAlpha:
    test_matches_per_m_fit = agreement("extract_alpha_from_matrix")

    def test_three_way_check_builds_the_basis_once_per_n(self, monkeypatch):
        calls = patch_counted(monkeypatch, ["grover_basis"])
        CHECK["grover-coefficients-three-way"]()
        assert calls["grover_basis"] == [(2,), (3,), (4,)]

    def test_three_way_check_runs_the_recursion_once_per_n(self, monkeypatch):
        calls = patch_counted(monkeypatch, ["grover_coefficients_recursion"])
        CHECK["grover-coefficients-three-way"]()
        assert calls["grover_coefficients_recursion"] == [(25, 4), (25, 8), (25, 16)]


class TestConversionCoefficient:
    def test_no_iterations_no_transfer(self):
        assert np.array_equal(conversion_coefficients(grover_coefficients(0, 8)[1], 8, np.ones(3), 1), [1.0])

    def test_analytic_matches_brute_force(self):
        analytic = conversion_coefficients(grover_coefficients(1, 4)[1], 4, np.ones(2), 1)[1]
        measured = measured_conversion_coefficients(MarkedState(s=0, n=2), 1, np.ones(2), 1)[1]
        assert abs(analytic - measured) <= 1e-8

    def test_agreement_over_m_and_spin(self):
        eps = np.array([0.7, 1.3, 0.9])
        gamma = grover_coefficients(9, 8)[1]
        for m in (1, 2, 5, 9):
            for k in (1, 2, 3):
                analytic = conversion_coefficients(gamma, 8, eps, k)[m]
                measured = measured_conversion_coefficients(MarkedState(s=5, n=3), m, eps, k)[m]
                assert abs(analytic - measured) <= 1e-8

    def test_read_spin_outside_the_work_qubits_raises(self):
        # k = 0 would read epsilons[-1] and answer with spin n's coefficients
        eps = np.array([0.7, 1.3, 0.9])
        gamma = grover_coefficients(5, 8)[1]
        for k in (0, 4):
            with pytest.raises(ValueError, match=rf"read spin {k} outside \[1, 3\]"):
                conversion_coefficients(gamma, 8, eps, k)
        measured = measured_conversion_coefficients(MarkedState(s=5, n=3), 5, eps, 3)
        assert maxabs(conversion_coefficients(gamma, 8, eps, 3) - measured) <= 1e-12

    def test_precomputed_coefficients_need_no_closed_form(self, monkeypatch):
        # the gamma table handed in is all the closed form it reads
        eps = np.array([0.7, 1.3, 0.9])
        gamma = grover_coefficients(5, 8)[1]
        expected = conversion_coefficients(gamma, 8, eps, 2)
        patch_forbidden(monkeypatch, ["grover_coefficients"])
        with pytest.raises(Forbidden):  # the patch is live
            sequences.grover_coefficients(5, 8)
        assert np.array_equal(conversion_coefficients(gamma, 8, eps, 2), expected)

    def test_trajectory_matches_dense_reference(self):
        # the closed form on every read spin; the dense reference runs on
        # these cases as the measured_conversion_coefficients row's n-drawn params
        rng = np.random.default_rng(2002)
        for n in range(2, 9):
            N = 2**n
            m_max = int(4 * np.sqrt(N)) + 1
            marked = MarkedState(s=int(rng.integers(N)), n=n)
            eps = rng.uniform(0.5, 1.5, n)
            gamma = grover_coefficients(m_max, N)[1]
            for k in range(1, n + 1):
                traj = measured_conversion_coefficients(marked, m_max, eps, k)
                assert traj.shape == (m_max + 1,)
                assert maxabs(traj - conversion_coefficients(gamma, N, eps, k)) <= 1e-9

    test_edge_marks_match_dense_reference = agreement("measured_conversion_coefficients")

    def test_trajectory_at_n8_peak_memory(self):
        # rho and one update buffer, 2 N^2 doubles, plus vectors: a per-step
        # N x N temporary would add a third
        bound = 1.25 * 2**20
        marked, eps = MarkedState(s=173, n=8), np.linspace(0.6, 1.4, 8)
        assert_peak_at_most(bound, measured_conversion_coefficients, marked, 65, eps, 1)

    def test_single_m_is_trajectory_entry(self):
        # a shorter trajectory ends on the same value as a longer one at that m
        marked, eps = MarkedState(s=6, n=4), np.array([0.6, 1.1, 1.4, 0.8])
        traj = measured_conversion_coefficients(marked, 12, eps, 3)
        for m in (0, 5, 12):
            assert measured_conversion_coefficients(marked, m, eps, 3)[m] == traj[m]

    def test_zero_read_polarization_rejected(self):
        eps = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="read spin must be nonzero"):
            conversion_coefficients(grover_coefficients(2, 8)[1], 8, eps, 2)
        with pytest.raises(ValueError, match="read spin must be nonzero"):
            measured_conversion_coefficients(MarkedState(s=1, n=3), 2, eps, 2)
        # a zero elsewhere is fine: only the read spin is divided by
        assert np.isfinite(measured_conversion_coefficients(MarkedState(s=1, n=3), 2, eps, 1)).all()

    def test_trajectory_rejects_bad_arguments(self):
        marked = MarkedState(s=0, n=2)
        with pytest.raises(ValueError):
            measured_conversion_coefficients(marked, -1, np.ones(2), 1)
        with pytest.raises(ValueError):
            measured_conversion_coefficients(marked, 3, np.ones(3), 1)
        with pytest.raises(ValueError):
            measured_conversion_coefficients(marked, 3, np.ones(2), 3)

    def test_marked_state_independent(self):
        vals = [
            measured_conversion_coefficients(MarkedState(s=s, n=2), 3, np.ones(2), 1)[3]
            for s in range(4)
        ]
        assert max(vals) - min(vals) <= 1e-10

    def test_gamma_maxima_bounded_and_located(self):
        for N in (16, 64, 256):
            m_max = int(4 * np.sqrt(N)) + 1
            g = grover_coefficients(m_max, N)[1][1:]
            for idx in (0, 4, 5):  # gamma1, gamma5, gamma6
                assert np.abs(g[:, idx]).max() <= 5.0
            m_star, peak = gamma1_first_peak(N)
            assert 0.5 * np.sqrt(N) <= m_star <= 2 * np.sqrt(N)
            assert peak <= 5.0
