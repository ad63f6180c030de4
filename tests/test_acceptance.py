"""Acceptance suite: end-to-end checks at their contract tolerances.

Each test prints one line naming the criterion and the measured margin, so
a full run doubles as a verification report.  Where a criterion is an
invariant of the selftest registry, it runs that registry check with its
own cases and asserts its own literal tolerance, independent of the
selftest tolerances.
"""

import json
import time

import numpy as np

from spinsearch.cli import main as cli_main
from spinsearch.linalg import spin_op
from spinsearch.oracle import MarkedState
from spinsearch.references import decompose_orders, gamma1_first_peak, grover_propagator, mq_generator
from spinsearch.sequences import (
    grover_coefficients,
    initial_state,
    measured_conversion_coefficients,
    simple_search,
)
from spinsearch.spectroscopy import (
    PipelineConfig,
    SpinHamiltonian,
    run_pipeline,
    spectrum,
    transfer_pair,
)
from spinsearch.composition import (
    cross_interaction,
    cross_interaction_target,
    symmetric_sandwich,
    trotter_product,
)

from conftest import CHECK, maxabs, random_hermitian, support


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_oracle_equivalence():
    worst = CHECK["oracle-sector-equivalence"](n_values=(1, 2, 3))
    assert worst <= 1e-12
    report("criterion 1 (oracle equivalence)", f"max residual {worst:.3e} <= 1e-12")


def test_criterion_02_conjugation_identities():
    # 100 random states per n, generator seeded at 1000 + n
    worst = CHECK["selective-conjugation-identities"](n_values=(2, 3, 4), count=100, seed=1000)
    assert worst <= 1e-10
    report("criterion 2 (conjugation identities)", f"max residual {worst:.3e} <= 1e-10")


def test_criterion_03_search_correctness():
    start = time.perf_counter()
    worst = CHECK["search-recovery"](n_values=range(1, 6))
    elapsed = time.perf_counter() - start
    runs = sum(2**n for n in range(1, 6))
    # zero only if every run gives recovered_s == s; oracle_uf_calls is the declared 2, not a count
    assert worst == 0
    assert elapsed <= 60.0
    report(
        "criterion 3 (search correctness)",
        f"{runs} exhaustive runs for n=1..5 in {elapsed:.2f} s (<= 60 s), 2 oracle calls each",
    )


def test_criterion_04_readout_prefactor_claim():
    rows = []
    for n, s in ((2, 2), (3, 5), (4, 11)):
        eps = np.linspace(0.8, 1.2, n)
        res = simple_search(MarkedState(s=s, n=n), eps)
        signs = np.array(MarkedState(s=s, n=n).signs)
        prefactors = res.per_qubit_signal / (eps * signs)
        # final state proportional to sum_k eps_k a_k I_kz
        assert maxabs(prefactors - res.measured_prefactor) <= 1e-12
        # deviation from the 2/N reference is exactly the sin(theta) factor
        assert res.reference_prefactor == 2.0 / 2**n
        assert abs(res.prefactor_ratio - np.sin(res.theta)) <= 1e-10
        rows.append(
            f"n={n}: measured {res.measured_prefactor:+.6f} vs 2/N {res.reference_prefactor:.6f}"
            f" (ratio = sin theta = {res.prefactor_ratio:+.3f})"
        )
    report("criterion 4 (readout prefactor claim)", "; ".join(rows))


def test_criterion_05_grover_three_way_agreement():
    worst = CHECK["grover-coefficients-three-way"](n_values=(2, 3, 4), count=26)  # m = 0..25
    for n in (2, 3, 4):
        m1 = grover_coefficients(1, 2**n)[0][1]
        assert maxabs(m1 - np.array([-2.0, -2.0, 0.0, 4.0])) <= 1e-12
    assert worst <= 1e-9
    report(
        "criterion 5 (coefficient three-way agreement)",
        f"max residual {worst:.3e} <= 1e-9; m=1 values exact to 1e-12",
    )


def test_criterion_06_conversion_scan():
    maxima = []
    for n in range(2, 8):
        N = 2**n
        marked = MarkedState(s=0, n=n)
        eps = np.ones(n)
        m_max = int(4 * np.sqrt(N)) + 1
        best = max(
            1 - measured_conversion_coefficients(marked, m, eps, 1)[m]
            for m in range(1, m_max)
        )
        maxima.append(best)
    assert all(a > b for a, b in zip(maxima, maxima[1:]))
    peaks = {}
    for N in (16, 64, 256):
        m_star, height = gamma1_first_peak(N)
        assert 0.5 * np.sqrt(N) <= m_star <= 2 * np.sqrt(N)
        peaks[N] = m_star
    report(
        "criterion 6 (conversion scan)",
        "max(1-C_m) per n=2..7 strictly decreasing "
        + "->".join(f"{v:.4f}" for v in maxima)
        + f"; |gamma1| first peak at m*={peaks} within [sqrt(N)/2, 2 sqrt(N)]",
    )


def test_criterion_07_coherence_order_machinery():
    # 50 random operators per n, generator seeded at 2000 + n
    worst = CHECK["phase-cycling-vs-grading"](n_values=(2, 3, 4), count=50, seed=2000)
    assert worst <= 1e-11
    n = 3
    for l in (1, 2, 3):
        g = mq_generator(n, tuple(range(1, l + 1)))
        assert support(decompose_orders(g), tol=1e-12) == [-l, l]
    report(
        "criterion 7 (coherence-order machinery)",
        f"phase cycling vs grading residual {worst:.3e} <= 1e-11; "
        "generator support exactly {-l, +l} for l=1..3",
    )


def test_criterion_08_spectroscopy_consistency():
    # one random (u, v) pair per n, generator seeded at 3000 + n
    worst = CHECK["pipeline-vs-line-expansion"](n_values=(2, 3), count=1, seed=3000)
    assert worst <= 1e-9

    n, omega = 3, 2 * np.pi * 10
    u = grover_propagator(MarkedState(s=3, n=n), 2)
    cfg = PipelineConfig(h_evol=SpinHamiltonian.uniform_fz(n, omega), dt=1 / 256, n_points=256)
    p, q = transfer_pair(u, u.conj().T, initial_state(n, np.ones(n), "z"))
    spec = spectrum(run_pipeline(p, q, cfg), cfg.dt, label_omega=omega)
    freqs = {round(p.frequency / omega) for p in spec.peaks}
    assert 1 <= len(spec.peaks) <= 2 * n + 1
    for p in spec.peaks:
        ratio = p.frequency / omega
        assert abs(ratio - round(ratio)) <= 1e-9
    report(
        "criterion 8 (spectroscopy consistency)",
        f"pipeline vs line resummation residual {worst:.3e} <= 1e-9; "
        f"n=3 spectrum has {len(spec.peaks)} <= 7 peaks at orders {sorted(freqs)}",
    )


def test_criterion_09_cross_peak_demo(tmp_path):
    out = tmp_path / "demo"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"preset": "cross-peak-demo"}))
    code = cli_main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    delta = 2 * np.pi * rep["payload"]["delta_hz"]
    m_points = 512
    dt = 1.0 / 1024
    half_bin = 0.5 * 2 * np.pi / (m_points * dt)
    orders_seen = set()
    for p in rep["payload"]["peaks"]:
        k = round(p["frequency_rad_s"] / delta)
        assert abs(p["frequency_rad_s"] - k * delta) <= half_bin
        orders_seen.add(k)
    assert orders_seen & {1, -1}
    report(
        "criterion 9 (cross-peak demo)",
        f"all {len(rep['payload']['peaks'])} peaks at integer multiples of "
        f"{rep['payload']['delta_hz']:.0f} Hz within half a DFT bin; orders {sorted(orders_seen)}",
    )


def test_criterion_10_composition_orders():
    rng = np.random.default_rng(4000)
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)

    trot = trotter_product([a, b], 1.0, 16)
    assert 0.8 <= trot.fitted_order <= 1.2

    sand = symmetric_sandwich(a, b, 0.2)
    assert 2.8 <= sand.fitted_order <= 3.2
    # halving x shrinks the deviation ~8x; an x^2 term would only give ~4x
    assert sand.step_errors[0] / sand.step_errors[1] >= 6.0

    iz, ix = spin_op(1, 1, "z"), spin_op(1, 1, "x")
    cross = cross_interaction(iz, ix, 0.1, level=2)
    target = cross_interaction_target(iz, ix, 0.1)
    rel = maxabs(cross.generator_estimate - target) / maxabs(target)
    assert rel <= 0.05
    assert 4.5 <= cross.fitted_order <= 5.5
    report(
        "criterion 10 (composition orders)",
        f"trotter order {trot.fitted_order:.3f} in 1+-0.2; sandwich order "
        f"{sand.fitted_order:.3f} in 3+-0.2 with ~x^3 halving factor "
        f"{sand.step_errors[0] / sand.step_errors[1]:.1f}; cross-interaction generator "
        f"matches leading commutator term to {100 * rel:.2f}% (<= 5%), residual order "
        f"{cross.fitted_order:.3f} in 5+-0.5",
    )


def test_criterion_11_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"n_values": [2, 3], "m_max": 8, "s": 1, "seed": 5})
    )
    outs = []
    for run_dir in ("r1", "r2"):
        out = tmp_path / run_dir
        code = cli_main(
            ["grover-scan", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        outs.append((out / "grover_scan.csv").read_bytes())
    assert outs[0] == outs[1]

    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"n": 3, "s": 4, "seed": 9}))
    reports = []
    for run_dir in ("s1", "s2"):
        out = tmp_path / run_dir
        assert cli_main(["search", "--config", str(cfg2), "--out", str(out)]) == 0
        reports.append((out / "search.csv").read_bytes())
    assert reports[0] == reports[1]
    report(
        "criterion 11 (determinism)",
        "grover-scan and search CSV outputs byte-identical across repeated runs",
    )
