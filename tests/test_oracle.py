import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsearch.linalg import kron_all
from spinsearch.oracle import (
    MarkedState,
    aux_phase_vector,
    aux_pure_state,
    diag_projector,
    sign_vector,
    uf_permutation,
)
from spinsearch.references import oracle_uf, oracle_uo, selective_phase

from conftest import maxabs
from reference import agreement, basis_projector


class TestSignVector:
    def test_all_zero_bits(self):
        assert list(sign_vector(0, 2)) == [1, 1]

    def test_all_one_bits(self):
        assert list(sign_vector(3, 2)) == [-1, -1]

    def test_msb_convention(self):
        # s = 2 = 0b10: qubit 1 carries the high bit
        assert list(sign_vector(2, 2)) == [-1, 1]
        d = diag_projector(MarkedState.from_signs([-1, 1]))
        assert int(np.argmax(np.diag(d).real)) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sign_vector(4, 2)
        with pytest.raises(ValueError):
            MarkedState(s=-1, n=2)

    @given(n=st.integers(1, 6), data=st.data())
    def test_round_trip(self, n, data):
        s = data.draw(st.integers(0, 2**n - 1))
        assert MarkedState.from_signs(sign_vector(s, n)).s == s


class TestDiagProjector:
    def test_single_qubit(self):
        assert maxabs(diag_projector(MarkedState(s=0, n=1)) - np.diag([1.0, 0.0])) == 0

    def test_two_qubit_last_state(self):
        d = diag_projector(MarkedState(s=3, n=2))
        assert maxabs(d - np.diag([0.0, 0.0, 0.0, 1.0])) == 0

    def test_product_form_matches_index_form(self):
        for n in (1, 2, 3):
            for s in range(2**n):
                d = diag_projector(MarkedState(s=s, n=n))
                assert maxabs(d - basis_projector(s, 2**n)) < 1e-15
                assert abs(np.trace(d) - 1) < 1e-15


class TestSelectivePhase:
    def test_zero_phase(self):
        c = selective_phase(MarkedState(s=2, n=2), 0.0)
        assert maxabs(c - np.eye(4)) == 0

    def test_pi_phase_is_reflection(self):
        m = MarkedState(s=2, n=2)
        c = selective_phase(m, np.pi)
        assert maxabs(c - (np.eye(4) - 2 * diag_projector(m))) < 1e-15

    def test_quarter_phase_entries(self):
        c = selective_phase(MarkedState(s=1, n=2), np.pi / 2)
        assert maxabs(c - np.diag([1, np.exp(-1j * np.pi / 2), 1, 1])) < 1e-15

    def test_single_entry_differs(self):
        for s in range(8):
            c = selective_phase(MarkedState(s=s, n=3), 0.9)
            d = np.diag(c) - 1
            assert np.count_nonzero(np.abs(d) > 1e-15) == 1
            assert maxabs(c - np.diag(np.diag(c))) == 0

    def test_matches_exponential(self):
        m = MarkedState(s=5, n=3)
        from spinsearch.linalg import expm_unitary

        for theta in (0.3, 1.2, np.pi):
            direct = selective_phase(m, theta)
            viaexp = expm_unitary(diag_projector(m), theta)
            assert maxabs(direct - viaexp) < 1e-14


class TestExplicitOracle:
    def test_uf_squares_to_identity(self):
        uf = oracle_uf(MarkedState(s=1, n=2))
        assert maxabs(uf @ uf - np.eye(16)) == 0

    def test_uf_flips_aux_a_on_marked(self):
        s = 1
        uf = oracle_uf(MarkedState(s=s, n=2))
        for b in (0, 1):
            ket = np.zeros(16)
            ket[s * 4 + 0b00 + b] = 1.0  # |s>|0>|b>
            out = uf @ ket
            expect = np.zeros(16)
            expect[s * 4 + 0b10 + b] = 1.0  # |s>|1>|b>
            assert maxabs(out - expect) == 0

    def test_phase_kickback_on_minus_state(self):
        # aux a in (|0> - |1>)/sqrt2 turns the bit flip into (-1)^f(x)
        n, s = 2, 2
        uf = oracle_uf(MarkedState(s=s, n=n))
        for x in range(4):
            for b in (0, 1):
                ket = np.zeros(16)
                ket[x * 4 + 0b00 + b] = 1 / np.sqrt(2)
                ket[x * 4 + 0b10 + b] = -1 / np.sqrt(2)
                out = uf @ ket
                sign = -1.0 if x == s else 1.0
                assert maxabs(out - sign * ket) < 1e-15


class TestUfPermutation:
    test_matches_dense_oracle_for_every_s = agreement("uf_permutation")

    def test_indexing_equals_dense_conjugation(self, rng):
        marked = MarkedState(s=6, n=3)
        p = uf_permutation(marked)
        uf = oracle_uf(marked)
        rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        assert np.array_equal(rho[np.ix_(p, p)], uf @ rho @ uf.conj().T)


class TestPhaseOracle:
    def test_zero_phase_identity(self):
        uo = oracle_uo(MarkedState(s=3, n=2), 0.0)
        assert maxabs(uo - np.eye(16)) == 0

    def test_superposition_action(self, rng):
        n, s, theta = 2, 1, 0.77
        uo = oracle_uo(MarkedState(s=s, n=n), theta)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket = np.zeros(16, dtype=complex)
        for x in range(4):
            ket[x * 4 + 0b01] = amp[x]  # sum_x a_x |x>|0>|1>
        out = uo @ ket
        expect = ket.copy()
        expect[s * 4 + 0b01] *= np.exp(-1j * theta)
        assert maxabs(out - expect) < 1e-14

    def test_uses_two_uf_calls(self):
        from spinsearch.oracle import UF_CALLS_PER_UO

        assert UF_CALLS_PER_UO == 2


class TestAuxPureState:
    def test_matches_direct_projector(self):
        direct = kron_all([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert maxabs(aux_pure_state() - direct) <= 1e-13

    def test_trace_one(self):
        p = aux_pure_state()
        assert abs(np.trace(p) - 1) < 1e-14

    def test_idempotent(self):
        p = aux_pure_state()
        assert maxabs(p @ p - p) <= 1e-12

    def test_conditional_phase_targets_a1_b1(self):
        v = np.diag(aux_phase_vector(1, np.pi / 3))
        d = np.diag(v)
        for x in (0, 1):
            for ab in range(4):
                expected = np.exp(-1j * np.pi / 3) if ab == 0b11 else 1.0
                assert abs(d[x * 4 + ab] - expected) < 1e-15
