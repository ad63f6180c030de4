import numpy as np
import pytest

from spinsearch import linalg, spectroscopy
from spinsearch.cli import INPHASE_TOL
from spinsearch.config import SpectrumConfig, parse
from spinsearch.linalg import SLAB_BYTES, spin_op, total_op
from spinsearch.oracle import MarkedState
from spinsearch.references import (
    decompose_orders,
    eigen_expand,
    grover_propagator,
    interaction_frame,
    order_intensities,
)
from spinsearch.selftest import _fold
from spinsearch.sequences import initial_state
from spinsearch.spectroscopy import (
    PEAK_REL_THRESHOLD,
    NyquistError,
    PipelineConfig,
    SpinHamiltonian,
    cross_zq_hamiltonian,
    inphase_check,
    run_pipeline,
    spectrum,
    spectrum_transfer,
    transfer_pair,
)

from conftest import assert_peak_at_most, maxabs, random_hermitian, random_unitary
from reference import N8_PER_SPIN, N8_SPECTRUM, TABLE, agreement, inphase_difference


# spectrum configs whose pipeline and inphase check cross slabs at n = 8
SLAB_CASES = {
    "uniform-fz": N8_SPECTRUM,  # K = n + 1
    "weak-coupling-k-n": {**N8_PER_SPIN, "t1": {"dt": 1 / 1024, "points": 256}},
    "y-axis-pair": {**N8_SPECTRUM, "p_axis": "y", "detect_axis": "y"},  # a complex pair
    "cross-peak-demo": {"preset": "cross-peak-demo"},
}


def uniform_cfg(n, omega=2 * np.pi * 10, dt=1e-3, points=64):
    return PipelineConfig(h_evol=SpinHamiltonian.uniform_fz(n, omega), dt=dt, n_points=points)


def signal(rho0, u, v, cfg):
    """The t1 series of excitation U and reconversion V, detected on z."""
    return run_pipeline(*transfer_pair(u, v, rho0), cfg)


class TestSpinHamiltonian:
    def test_weak_coupling_is_diagonal(self):
        h = SpinHamiltonian.weak_coupling(
            2, [2 * np.pi * 5, 2 * np.pi * 8], [(1, 2, 3.0)]
        )
        expected = (
            2 * np.pi * 5 * spin_op(2, 1, "z")
            + 2 * np.pi * 8 * spin_op(2, 2, "z")
            + 2 * np.pi * 3 * spin_op(2, 1, "z") @ spin_op(2, 2, "z")
        )
        assert maxabs(expected - np.diag(np.diag(expected))) == 0
        assert h.diagonal.shape == (4,)
        assert maxabs(h.diagonal - np.diag(expected)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_indexed_couplings_bit_identical_to_dense_products(self, n):
        # every pair coupled: all 28 at n = 8
        rng = np.random.default_rng(700 + n)
        offsets = 2 * np.pi * rng.uniform(-50.0, 50.0, n)
        pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
        couplings = [(k, l, rng.uniform(-20.0, 20.0)) for k, l in pairs]
        dense = total_op(n, "z", offsets)
        for k, l, j_hz in couplings:
            dense = dense + 2 * np.pi * j_hz * (spin_op(n, k, "z") @ spin_op(n, l, "z"))
        ref = np.diag(dense)
        got = SpinHamiltonian.weak_coupling(n, offsets, couplings).diagonal
        assert len(couplings) == n * (n - 1) // 2
        assert not ref.imag.any()
        assert got.dtype == np.float64 and np.array_equal(got, ref.real)

    def test_uniform_fz(self):
        h = SpinHamiltonian.uniform_fz(2, 7.0)
        assert np.array_equal(h.diagonal, np.diag(7.0 * total_op(2, "z")).real)

    def test_max_transition_frequency(self):
        h = SpinHamiltonian.uniform_fz(3, 2.0)
        assert abs(h.max_transition_frequency - 6.0) < 1e-12

    # (1, 2) and (2, 1) name the pair coupled first a second time
    @pytest.mark.parametrize("pair", [(1, 1), (0, 1), (1, 3), (-1, 2), (1, 2), (2, 1)])
    def test_coupling_needs_two_distinct_spins_of_the_system(self, pair):
        with pytest.raises(ValueError, match="distinct spins in 1..2"):
            SpinHamiltonian.weak_coupling(2, [1.0, 2.0], [(1, 2, 1.0), (*pair, 1.0)])

    def test_offset_count_checked(self):
        with pytest.raises(ValueError, match="one weight or one per qubit"):
            SpinHamiltonian.weak_coupling(2, [1.0, 2.0, 3.0])

    def test_non_hermitian_h_rejected(self):
        # a complex entry, a matrix, a length that is no power of two
        for bad in (np.array([1.0, 2.0 + 1e-3j]), np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(3)):
            with pytest.raises(ValueError, match="Hermitian"):
                SpinHamiltonian(bad)


class TestRunPipeline:
    def test_commuting_everything_is_constant(self):
        n = 2
        rho0 = initial_state(n, np.ones(n), "z")
        eye = np.eye(2**n, dtype=complex)
        series = signal(rho0, eye, eye, uniform_cfg(n))
        fz = total_op(n, "z")
        expected = np.trace(fz @ fz)
        assert maxabs(series - expected) <= 1e-12

    def test_t0_value_is_trace_qp(self, rng):
        n = 2
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        rho0 = initial_state(n, np.ones(n), "x")
        series = signal(rho0, u, v, uniform_cfg(n))
        p = u @ rho0 @ u.conj().T
        q = v.conj().T @ total_op(n, "z") @ v
        assert abs(series[0] - np.trace(q @ p)) <= 1e-12

    test_matches_line_expansion = agreement("run_pipeline-line-expansion")
    test_matches_dense_reference = agreement("run_pipeline-dense-frame")
    test_diagonal_h_matches_dense_conjugation = agreement("run_pipeline-weak-coupling-frame")

    def test_nyquist_guard(self):
        n = 2
        eye = np.eye(4, dtype=complex)
        cfg = uniform_cfg(n, omega=2 * np.pi * 600, dt=1e-3)
        rho0 = initial_state(n, np.ones(n), "z")
        with pytest.raises(NyquistError):
            signal(rho0, eye, eye, cfg)

    def test_nyquist_guard_rejects_nan_frequency(self):
        # a diagonal holding NaN spreads NaN, which no comparison with the
        # Nyquist frequency may let through; [inf, -inf] spreads inf
        eye = np.eye(2, dtype=complex)
        for diagonal, spread in (([np.nan, 0.0], "nan"), ([np.inf, -np.inf], "inf")):
            h = SpinHamiltonian(np.array(diagonal))
            assert str(h.max_transition_frequency) == spread
            with pytest.raises(NyquistError, match=spread):
                PipelineConfig(h_evol=h, dt=1e-3, n_points=8).validate()

    @pytest.mark.parametrize("name", list(SLAB_CASES))
    def test_slab_heights_keep_every_bit(self, monkeypatch, name):
        # the series and the inphase difference at the smallest budget, one
        # row and two t1 points per slab (the fewest run_pipeline takes), and
        # at the package's budget, against one slab for all
        cfg = parse(SpectrumConfig, SLAB_CASES[name])
        p, q, p_inphase, _ = spectrum_transfer(cfg)
        if name == "y-axis-pair":
            assert p.dtype == q.dtype == complex
        if name == "weak-coupling-k-n":
            assert len(np.unique(cfg.pipe.h_evol.diagonal)) == len(p)

        def at_budget(slab_bytes):
            monkeypatch.setattr(linalg, "SLAB_BYTES", slab_bytes)
            return run_pipeline(p, q, cfg.pipe), inphase_difference(p_inphase, q, 0.4)

        whole = at_budget(16 * len(p) * max(len(p), cfg.pipe.n_points))
        for slab_bytes in (1, SLAB_BYTES):
            for sliced, one_slab in zip(at_budget(slab_bytes), whole):
                assert np.array_equal(sliced, one_slab)

    def test_power_of_two_guard(self):
        eye = np.eye(4, dtype=complex)
        cfg = uniform_cfg(2, points=100)
        rho0 = initial_state(2, np.ones(2), "z")
        with pytest.raises(ValueError, match="power of two"):
            signal(rho0, eye, eye, cfg)


class TestEigenExpand:
    def test_fz_against_itself_single_line(self):
        n = 2
        fz = total_op(n, "z")
        h = SpinHamiltonian.uniform_fz(n, 5.0)
        om, amps = eigen_expand(fz, fz, h)
        live = np.abs(amps) > 1e-12
        assert np.allclose(om[live], 0.0)

    def test_line_count_bound(self, rng):
        n = 2
        p = random_hermitian(rng, 4)
        q = random_hermitian(rng, 4)
        om, amps = eigen_expand(p, q, SpinHamiltonian.uniform_fz(n, 5.0))
        assert len(amps) <= 16**2

    def test_uniform_label_frequencies_are_integer_multiples(self, rng):
        n = 3
        omega = 4.0
        p = random_hermitian(rng, 8)
        q = random_hermitian(rng, 8)
        om, amps = eigen_expand(p, q, SpinHamiltonian.uniform_fz(n, omega))
        live = np.abs(amps) > 1e-12
        ratios = om[live] / omega
        assert maxabs(ratios - np.rint(ratios)) <= 1e-9
        assert np.abs(np.rint(ratios)).max() <= n


class TestInphase:
    test_one_buffer_residual = agreement("inphase_check")

    def test_reference_cases_hold_fail_hold(self):
        # the check can fail: only the random reconversion misses the target
        cases = TABLE["inphase_check"].cases(None)
        verdicts = [_fold(inphase_check(*case)) <= INPHASE_TOL for case in cases]
        assert verdicts == [True, False, True]

    def test_n8_peak_memory(self):
        # the check as the spectrum command folds it: one complex 64-row
        # slab at a time, made straight from the real P, its magnitudes and
        # the length-N phases (measured 0.385 MiB; 0.505 MiB with the last
        # slab kept while the next is made, 1.505 MiB with one N x N buffer)
        bound = 0.4 * 2**20
        _, q, p, _ = spectrum_transfer(parse(SpectrumConfig, N8_SPECTRUM))
        assert_peak_at_most(bound, lambda: _fold(inphase_check(p, q, 0.4)))

    def test_same_order_lines_share_phase(self):
        # the reference case that holds at phi != 0: V = U+ exp(i phi Fz)
        p, q, _ = next(iter(TABLE["inphase_check"].cases(None)))
        n = int(np.log2(len(p)))
        mm = np.diag(total_op(n, "z")).real
        amps = q.conj() * p
        for m in range(-n, n + 1):
            mask = np.isclose(mm[:, None] - mm[None, :], m)
            vals = amps[mask]
            vals = vals[np.abs(vals) > 1e-10]
            if len(vals) > 1:
                # spread of phases around their circular mean, wrap-safe
                mean_dir = vals.sum()
                spread = np.abs(np.angle(vals * np.conj(mean_dir))).max()
                assert spread <= 1e-8


class TestSpectrum:
    test_peaks_match_bin_loop = agreement("pick_peaks")

    def test_constant_series(self):
        spec = spectrum(np.full(64, 2.5, dtype=complex), 0.01)
        assert len(spec.peaks) == 1
        assert spec.peaks[0].frequency == 0.0
        assert abs(spec.peaks[0].amplitude - 2.5) < 1e-12

    def test_two_tone(self):
        # dt chosen so both tones sit exactly on DFT bins (1 Hz resolution)
        m, dt = 256, 1 / 256
        omega = 2 * np.pi * 50
        t = np.arange(m) * dt
        series = np.exp(-1j * omega * t) + np.exp(-2j * omega * t)
        spec = spectrum(series, dt, label_omega=omega)
        assert [p.order for p in spec.peaks] == [1, 2]
        amps = [abs(p.amplitude) for p in spec.peaks]
        assert abs(amps[0] / amps[1] - 1) < 1e-9

    def test_parseval(self, rng):
        series = rng.normal(size=128) + 1j * rng.normal(size=128)
        spec = spectrum(series, 1e-3)
        assert spec.parseval_defect(series) <= 1e-9

    def test_three_qubit_pipeline_peak_budget(self):
        n = 3
        omega = 2 * np.pi * 10
        u = grover_propagator(MarkedState(s=5, n=n), 2)
        cfg = uniform_cfg(n, omega=omega, dt=1 / 256, points=256)
        rho0 = initial_state(n, np.ones(n), "z")
        series = signal(rho0, u, u.conj().T, cfg)
        spec = spectrum(series, cfg.dt, label_omega=omega)
        assert 1 <= len(spec.peaks) <= 2 * n + 1
        for p in spec.peaks:
            ratio = p.frequency / omega
            assert abs(ratio - round(ratio)) <= 1e-9


class TestOrderIntensities:
    def test_diagonal_pair_all_order_zero(self, rng):
        p = np.diag(rng.normal(size=8)).astype(complex)
        q = np.diag(rng.normal(size=8)).astype(complex)
        intens = order_intensities(p, q)
        for m, val in intens.items():
            if m != 0:
                assert abs(val) == 0

    def test_sum_rule(self, rng):
        p = random_hermitian(rng, 8)
        q = random_hermitian(rng, 8)
        total = sum(order_intensities(p, q).values())
        assert abs(total - np.trace(q.conj().T @ p)) <= 1e-10

    def test_hermitian_symmetry(self, rng):
        p = random_hermitian(rng, 8)
        q = random_hermitian(rng, 8)
        intens = order_intensities(p, q)
        for m in range(1, 4):
            assert abs(intens[-m] - np.conj(intens[m])) <= 1e-12

    def test_matches_spectrum_amplitudes(self, rng):
        n = 2
        omega = 2 * np.pi * 20
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        cfg = uniform_cfg(n, omega=omega, dt=1 / 128, points=128)
        rho0 = initial_state(n, np.ones(n), "z")
        series = signal(rho0, u, v, cfg)
        spec = spectrum(series, cfg.dt, label_omega=omega, rel_threshold=1e-9)
        p = u @ rho0 @ u.conj().T
        q = v.conj().T @ total_op(n, "z") @ v
        intens = order_intensities(p, q)
        by_order = {pk.order: pk.amplitude for pk in spec.peaks}
        for m, amp in by_order.items():
            assert abs(amp - intens[m]) <= 1e-9

    @pytest.mark.parametrize("p_axis", ["x", "y", "z"])
    @pytest.mark.parametrize("detect_axis", ["x", "y", "z"])
    def test_n8_peaks_are_the_order_intensities(self, p_axis, detect_axis):
        # omega dt points / 2 pi = 10: every order's line sits on a DFT bin,
        # so the FFT route and the order sums over (P, Q) read the same amplitudes
        cfg = parse(SpectrumConfig, {**N8_SPECTRUM, "p_axis": p_axis, "detect_axis": detect_axis})
        p, q, _, _ = spectrum_transfer(cfg)
        spec = spectrum(run_pipeline(p, q, cfg.pipe), cfg.pipe.dt, label_omega=cfg.label_omega)
        intens = order_intensities(p, q)
        scale = max(abs(v) for v in intens.values())
        for pk in spec.peaks:
            assert abs(pk.amplitude - intens[pk.order]) <= 1e-12 * scale
        floor = PEAK_REL_THRESHOLD * max(abs(pk.amplitude) for pk in spec.peaks)
        assert {m for m, v in intens.items() if abs(v) > floor} <= {pk.order for pk in spec.peaks}

    def test_t0_signal_independent_of_labeling(self, rng):
        n = 2
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 4)
        rho0 = initial_state(n, np.ones(n), "y")
        cfg_a = uniform_cfg(n, omega=2 * np.pi * 10)
        cfg_b = PipelineConfig(
            h_evol=SpinHamiltonian.weak_coupling(
                n, [2 * np.pi * 7, 2 * np.pi * 13], [(1, 2, 2.0)]
            ),
            dt=1e-3,
            n_points=64,
        )
        sa = signal(rho0, u, v, cfg_a)
        sb = signal(rho0, u, v, cfg_b)
        assert abs(sa[0] - sb[0]) <= 1e-12


class TestCrossZq:
    def test_reduces_to_single_term(self, rng):
        f_s = random_hermitian(rng, 8)
        zero = np.zeros((8, 8), dtype=complex)
        got = cross_zq_hamiltonian(f_s, zero, 7)
        assert maxabs(got - cross_zq_hamiltonian(zero, f_s, 7)) <= 1e-12

    def test_output_is_zero_quantum(self, rng):
        n = 3
        h = cross_zq_hamiltonian(
            random_hermitian(rng, 8), random_hermitian(rng, 8), 2 * n + 1
        )
        assert maxabs(h - h.conj().T) <= 1e-12
        for m, compnt in decompose_orders(h).items():
            if m != 0:
                assert maxabs(compnt) <= 1e-11

    def test_linearity(self, rng):
        f1 = random_hermitian(rng, 8)
        f2 = random_hermitian(rng, 8)
        zero = np.zeros_like(f1)
        lhs = cross_zq_hamiltonian(f1, f2, 7)
        rhs = cross_zq_hamiltonian(f1, zero, 7) + cross_zq_hamiltonian(zero, f2, 7)
        assert maxabs(lhs - rhs) <= 1e-12


class TestInteractionFrame:
    def test_zero_time(self, rng):
        h_s = random_hermitian(rng, 4)
        h_r = random_hermitian(rng, 4)
        exact, series = interaction_frame(h_s, h_r, 0.0, 3)
        assert maxabs(exact - h_s) <= 1e-13
        assert maxabs(series - h_s) <= 1e-13

    def test_commuting_frame_is_static(self, rng):
        h_r = random_hermitian(rng, 4)
        w, v = np.linalg.eigh(h_r)
        h_s = (v * rng.normal(size=4)) @ v.conj().T  # commutes with h_r
        exact, _ = interaction_frame(h_s, h_r, 0.9, 2)
        assert maxabs(exact - h_s) <= 1e-12

    def test_order2_halving_ratio(self, rng):
        h_s = random_hermitian(rng, 4)
        h_r = random_hermitian(rng, 4)

        def err(t):
            exact, series = interaction_frame(h_s, h_r, t, 2)
            return maxabs(exact - series)

        ratio = err(0.1) / err(0.05)
        assert 8 * 0.7 <= ratio <= 8 * 1.3

    def test_truncation_order_capped(self, rng):
        h = random_hermitian(rng, 2)
        with pytest.raises(ValueError, match="order"):
            interaction_frame(h, h, 0.1, 7)
