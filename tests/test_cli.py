import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsearch
from spinsearch import cli, selftest
from spinsearch.cli import main
from spinsearch.config import SpectrumConfig, parse
from spinsearch.linalg import total_op
from spinsearch.selftest import INVARIANT_GROUPS
from spinsearch.sequences import grover_propagator
from spinsearch.spectroscopy import run_pipeline, spectrum_transfer

from conftest import assert_peak_at_most, maxabs
from reference import DIAGONALIZERS, N8_SPECTRUM, agreement, patch_counted, run_cli, spectrum_command

OMEGA_10HZ = 2 * np.pi * 10


class TestWriteCsv:
    test_matches_value_by_value_formatting = agreement("write_csv")

    def test_rejects_a_column_mixing_floats_with_other_values(self, tmp_path):
        with pytest.raises(ValueError, match="mixes floats"):
            cli.write_csv(tmp_path / "x.csv", {"x_or_m": [0.5, 3]})

    def test_rejects_columns_of_different_lengths(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            cli.write_csv(tmp_path / "x.csv", {"t1": np.arange(3.0), "re": [1.0, 2.0]})


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_parses(command):
    parse = cli._build_parser().parse_args
    assert vars(parse([command])) == {"command": command, "config": None, "out": "."}
    args = parse(["--out", "o", command, "--config", "c.json"])
    assert vars(args) == {"command": command, "config": "c.json", "out": "o"}


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["--config", "c.json"], "the following arguments are required: command"),
        (["serach"], "argument command: invalid choice"),
    ],
)
def test_missing_or_unknown_command_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:  # argparse's usage error, not a crash
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spinsearch") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_unusable_out_exits_2_before_numerics(tmp_path, monkeypatch, capsys, command, where):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if where == "file" else taken / "out"

    def no_numerics(*args, **kwargs):
        raise AssertionError("numerics ran with an unusable --out")

    monkeypatch.setitem(cli.COMMANDS, command, no_numerics)
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert taken.read_text() == "kept\n"


class TestSearchCommand:
    def test_three_qubit_recovery(self, tmp_path):
        code, out, report = run_cli(tmp_path, "search", {"n": 3, "s": 5})
        assert code == 0
        assert report["payload"]["recovered_s"] == 5
        assert report["oracle_calls"] == 2
        assert "max_residual" in report
        body = (out / "search.csv").read_text().splitlines()
        assert body[0] == "qubit,epsilon,z_coefficient,sign"
        assert len(body) == 4

    def test_single_qubit(self, tmp_path):
        code, _, report = run_cli(tmp_path, "search", {"n": 1, "s": 0})
        assert code == 0
        assert report["payload"]["recovered_s"] == 0

    def test_prefactor_documented(self, tmp_path):
        code, _, report = run_cli(tmp_path, "search", {"n": 2, "s": 1})
        payload = report["payload"]
        assert "prefactor_measured" in payload
        assert "prefactor_reference_2_over_N" in payload
        assert "prefactor_note" in payload
        assert payload["prefactor_ratio"] == pytest.approx(
            np.sin(payload["theta"]), abs=1e-10
        )

    def test_malformed_config_exits_2(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "search", {"n": 3})  # missing s
        assert code == 2
        code, _, _ = run_cli(tmp_path, "search", {"n": "three", "s": 0})
        assert code == 2
        code, _, _ = run_cli(tmp_path, "search", {"n": 2, "s": 9})
        assert code == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["search", "--out", str(tmp_path / "x")]) == 2

    def test_ambiguous_readout_exits_3(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "search", {"n": 2, "s": 1, "theta": 0.0})
        assert code == 3

    @pytest.mark.parametrize(
        "cfg",
        [
            {"n": 3, "s": 5, "epsilons": [0, 1, 1]},
            {"n": 3, "s": 5, "epsilons": [1.0, 1.0, 0.0], "aux_mode": "explicit-uf"},
            {"n": 3, "s": 5, "aux": "explicit-uf"},
            {"n": 3, "s": 5, "Theta": 0.4},
        ],
        ids=["zero-epsilon", "zero-epsilon-explicit", "misspelt-aux_mode", "misspelt-theta"],
    )
    def test_bad_config_exits_2_before_numerics(self, tmp_path, no_numerics, cfg, capsys):
        code, out, report = run_cli(tmp_path, "search", cfg)
        assert code == 2
        assert report is None and not (out / "search.csv").exists()
        assert "config error" in capsys.readouterr().err


class TestGroverScanCommand:
    def test_scan_rows(self, tmp_path):
        code, out, report = run_cli(tmp_path, "grover-scan", {"n_values": [2], "m_max": 3})
        assert code == 0
        lines = (out / "grover_scan.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["n", "N", "m"]
        assert "c_analytic" in header and "c_measured" in header
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        m0 = rows[0]
        assert float(m0["c_analytic"]) == 1.0
        m1 = rows[1]
        alpha = [float(m1[f"alpha{i}"]) for i in (1, 2, 3, 4)]
        assert np.allclose(alpha, [-2, -2, 0, 4], atol=1e-12)

    def test_per_n_transfer_decreases(self, tmp_path):
        code, _, report = run_cli(tmp_path, "grover-scan", {"n_values": [2, 3, 4], "m_max": "auto"})
        assert code == 0
        txs = [row["max_transfer"] for row in report["payload"]["per_n"]]
        assert txs[0] > txs[1] > txs[2]

    def test_residual_small(self, tmp_path):
        code, _, report = run_cli(tmp_path, "grover-scan", {"n_values": [3], "m_max": 10})
        assert report["max_residual"] <= 1e-8

    @pytest.mark.parametrize(
        "cfg",
        [
            {"n_values": [2], "epsilons": [0.0, 1.0]},
            {"n_values": [3], "k": 2, "epsilons": [1.0, 0.0, 1.0]},
            {"n_values": [2], "m_max": -1},
            {"n_values": [2], "m_max": "ten"},
            {"n_values": [2], "m_max": 2.5},
            {"n_values": []},
            {"n_values": [3, 2], "s": 5},
        ],
        ids=[
            "zero-epsilon",
            "zero-epsilon-k2",
            "negative-m_max",
            "string-m_max",
            "fractional-m_max",
            "empty-n_values",
            "s-out-of-range-for-second-n",
        ],
    )
    def test_bad_config_exits_2_before_numerics(self, tmp_path, no_numerics, cfg):
        code, out, report = run_cli(tmp_path, "grover-scan", cfg)
        assert code == 2
        assert report is None and not (out / "grover_scan.csv").exists()

    def test_integral_float_m_max_runs(self, tmp_path):
        code, out, report = run_cli(tmp_path, "grover-scan", {"n_values": [2], "m_max": 4.0})
        assert code == 0
        assert len((out / "grover_scan.csv").read_text().splitlines()) == 1 + 5

    def test_zero_epsilon_off_read_spin_runs(self, tmp_path):
        code, _, report = run_cli(
            tmp_path, "grover-scan", {"n_values": [2], "m_max": 4, "epsilons": [1.0, 0.0]}
        )
        assert code == 0
        assert report["max_residual"] <= 1e-9


class TestSpectrumCommand:
    def test_identity_pipeline_single_peak(self, tmp_path):
        cfg = {
            "preset": "identity",
            "n": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": OMEGA_10HZ},
            "t1": {"dt": 1 / 256, "points": 256},
            "p_axis": "z",
        }
        code, out, report = run_cli(tmp_path, "spectrum", cfg)
        assert code == 0
        peaks = report["payload"]["peaks"]
        assert len(peaks) == 1
        assert peaks[0]["order"] == 0
        assert (out / "timeseries.csv").is_file()
        assert (out / "spectrum.csv").is_file()

    def test_grover_excitation_peak_budget(self, tmp_path):
        cfg = {
            "preset": "grover-excitation",
            "n": 3,
            "s": 5,
            "iterations": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": OMEGA_10HZ},
            "t1": {"dt": 1 / 256, "points": 256},
        }
        code, _, report = run_cli(tmp_path, "spectrum", cfg)
        assert code == 0
        peaks = report["payload"]["peaks"]
        assert 1 <= len(peaks) <= 7
        for p in peaks:
            assert p["order"] is not None
        # mirror-image reconversion with matching axes is inphase by construction
        assert report["payload"]["inphase"]["holds"] is True

    def test_z_excitation_and_z_detection_carry_no_s(self):
        # U_s = Z_s U_0 Z_s for the diagonal +-1 sign frame Z_s, which
        # commutes with rho0, F_z and the labeling: every s gives one series
        cfg = {
            "preset": "grover-excitation",
            "n": 3,
            "iterations": 2,
            "epsilons": [0.7, 1.3, 0.9],
            "p_axis": "z",
            "detect_axis": "z",
            "hamiltonian": {"kind": "uniform-fz", "omega": OMEGA_10HZ},
            "t1": {"dt": 1 / 256, "points": 256},
        }
        first, *rest = [spectrum_command(dict(cfg, s=s)) for s in (0, 3, 5, 7)]
        assert maxabs(first) > 0.1
        for series in rest:
            assert maxabs(series - first) <= 1e-14
        x_series = [spectrum_command(dict(cfg, s=s, p_axis="x")) for s in (0, 3)]
        assert maxabs(x_series[1] - x_series[0]) > 0.1  # x excitation does carry s

    def test_cross_peak_demo_combination_lines(self, tmp_path):
        code, _, report = run_cli(tmp_path, "spectrum", {"preset": "cross-peak-demo"})
        assert code == 0
        delta = 2 * np.pi * report["payload"]["delta_hz"]
        for p in report["payload"]["peaks"]:
            ratio = p["frequency_rad_s"] / delta
            assert abs(ratio - round(ratio)) < 1e-9
        orders = {p["order"] for p in report["payload"]["peaks"]}
        assert orders & {1, -1}  # cross zero-quantum lines are present

    def test_nyquist_violation_exits_4(self, tmp_path):
        cfg = {
            "preset": "identity",
            "n": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": 2 * np.pi * 600},
            "t1": {"dt": 1e-3, "points": 64},
        }
        code, _, _ = run_cli(tmp_path, "spectrum", cfg)
        assert code == 4


class TestComposeBenchCommand:
    def test_trotter_commuting_error_zero(self, tmp_path):
        cfg = {"method": "trotter", "operators": "commuting", "m": 4, "t": 0.9}
        code, out, report = run_cli(tmp_path, "compose-bench", cfg)
        assert code == 0
        assert report["payload"]["error_norm"] <= 1e-12
        lines = (out / "compose_bench.csv").read_text().splitlines()
        assert lines[0] == "method,x_or_m,error_norm,fitted_order,oracle_calls"
        assert report["payload"]["fitted_order"] is None  # inf has no JSON token
        assert lines[1].split(",")[3] == "inf"

    def test_sandwich_order_three(self, tmp_path):
        cfg = {"method": "sandwich", "operators": "random", "x": 0.2, "seed": 3}
        code, _, report = run_cli(tmp_path, "compose-bench", cfg)
        assert code == 0
        assert report["payload"]["fitted_order"] == pytest.approx(3.0, abs=0.2)

    def test_cross_interaction_order_five(self, tmp_path):
        cfg = {"method": "cross-interaction", "operators": "su2-zx", "x": 0.1, "level": 2}
        code, _, report = run_cli(tmp_path, "compose-bench", cfg)
        assert code == 0
        assert report["payload"]["fitted_order"] == pytest.approx(5.0, abs=0.5)

    def test_branch_failure_exits_5(self, tmp_path):
        # commuting pair makes the sandwich generator exactly x(A+B); an x
        # that parks the top eigenphase on pi hits the logarithm branch cut
        seed, dim = 7, 4
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (z + z.conj().T) / 2
        _, v = np.linalg.eigh(a)
        b = (v * rng.normal(size=dim)) @ v.conj().T
        lam = np.abs(np.linalg.eigvalsh(a + b)).max()
        cfg = {
            "method": "sandwich",
            "operators": "commuting",
            "seed": seed,
            "dim": dim,
            "x": np.pi / lam,
        }
        code, _, _ = run_cli(tmp_path, "compose-bench", cfg)
        assert code == 5


class TestSelftestCommand:
    def test_fresh_build_passes(self, tmp_path):
        code, out, report = run_cli(tmp_path, "selftest")
        assert code == 0
        names = [name for name, _check, _tolerance in INVARIANT_GROUPS]
        assert len(names) == 18
        assert [g["name"] for g in report["payload"]["groups"]] == names
        rows = (out / "selftest.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == names
        assert report["payload"]["failing"] == []

    def test_planted_failing_group_exits_1(self, tmp_path, monkeypatch, capsys):
        planted = ("planted-residual-over-tolerance", lambda: 2e-12, 1e-12)
        monkeypatch.setattr(selftest, "INVARIANT_GROUPS", INVARIANT_GROUPS + (planted,))
        code, _, report = run_cli(tmp_path, "selftest")
        assert code == 1
        assert report["payload"]["failing"] == [planted[0]]
        assert f"selftest failed: {planted[0]}" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_byte_identical_csv(self, tmp_path):
        for command, cfg, csv in (
            ("grover-scan", {"n_values": [2, 3], "m_max": 5, "s": 1}, "grover_scan.csv"),
            ("selftest", None, "selftest.csv"),
        ):
            _, out1, _ = run_cli(tmp_path, command, cfg, subdir=f"{command}-a")
            _, out2, _ = run_cli(tmp_path, command, cfg, subdir=f"{command}-b")
            assert (out1 / csv).read_bytes() == (out2 / csv).read_bytes()

    def test_spectrum_determinism(self, tmp_path):
        uniform = {
            "preset": "grover-excitation",
            "n": 2,
            "s": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": OMEGA_10HZ},
            "t1": {"dt": 1 / 128, "points": 128},
        }
        # spins 1 and 2 tie: 6 distinct values of 8, grouped in a fixed order
        tied = {
            **uniform,
            "n": 3,
            "s": 5,
            "hamiltonian": {
                "kind": "weak-coupling",
                "offsets": [OMEGA_10HZ / 2, OMEGA_10HZ / 2, 0.8 * OMEGA_10HZ],
                "couplings": [[1, 2, 2.0]],
            },
        }
        for label, cfg in (("uniform", uniform), ("tied", tied)):
            _, out1, _ = run_cli(tmp_path, "spectrum", cfg, subdir=f"{label}-a")
            _, out2, _ = run_cli(tmp_path, "spectrum", cfg, subdir=f"{label}-b")
            for name in ("timeseries.csv", "spectrum.csv"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_report_stable_apart_from_duration(self, tmp_path):
        cfg = {"n": 2, "s": 3}
        _, _, r1 = run_cli(tmp_path, "search", cfg, subdir="a")
        _, _, r2 = run_cli(tmp_path, "search", cfg, subdir="b")
        r1.pop("duration_s")
        r2.pop("duration_s")
        assert r1 == r2


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED_CONFIGS = {
    "compose_bench.json": "compose-bench",
    "cross_peak_demo.json": "spectrum",
    "grover_scan.json": "grover-scan",
    "search.json": "search",
    "spectrum_uniform.json": "spectrum",
    "spectrum_weak_coupling.json": "spectrum",
}


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED_CONFIGS)


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_runs(tmp_path, name):
    out = tmp_path / "out"
    argv = [SHIPPED_CONFIGS[name], "--config", str(CONFIG_DIR / name), "--out", str(out)]
    assert main(argv) == 0
    assert (out / "report.json").is_file()


def shipped(name):
    return json.loads((CONFIG_DIR / name).read_text())


@pytest.mark.parametrize(
    "name, expm_calls",
    [
        ("n8-grover-excitation", 0),
        ("spectrum_uniform.json", 0),
        ("spectrum_weak_coupling.json", 0),
        # the demo's non-diagonal excitation and reconversion generators, U and V
        ("cross_peak_demo.json", 2),
    ],
)
def test_labelling_path_runs_no_diagonalization(tmp_path, monkeypatch, name, expm_calls):
    names = DIAGONALIZERS + ("numpy.linalg.eigvalsh", "numpy.linalg.eigvals")
    calls = patch_counted(monkeypatch, names)
    cfg = shipped(name) if name in SHIPPED_CONFIGS else N8_SPECTRUM
    assert run_cli(tmp_path, "spectrum", cfg)[0] == 0
    # each expm_unitary is one eigh; the labelling itself diagonalizes nothing
    assert [len(calls[name]) for name in names] == [expm_calls, expm_calls, 0, 0]


def test_spectrum_forms_each_collective_operator_once(tmp_path, monkeypatch):
    # rho0 at parse, and F_q for Q = V+ F_q V; with p_axis = detect_axis
    # F_q is also the inphase check's F_p, which is not formed again
    calls = patch_counted(monkeypatch, ["total_op"])
    assert run_cli(tmp_path, "spectrum", shipped("spectrum_uniform.json"))[0] == 0
    assert len(calls["total_op"]) == 2


def transfer_cfg(**keys):
    cfg = {**N8_SPECTRUM, "n": 3, "s": 5, "epsilons": [0.6, 1.4, 0.9], **keys}
    return parse(SpectrumConfig, {k: v for k, v in cfg.items() if v is not None})


def test_identity_transfer_is_rho0_and_f_q_as_they_are():
    for p_axis, detect_axis in (("x", "x"), ("z", "y")):
        cfg = transfer_cfg(preset="identity", s=None, iterations=None,
                           p_axis=p_axis, detect_axis=detect_axis)
        p, q, p_inphase, calls = spectrum_transfer(cfg)
        assert np.array_equal(p, cfg.rho0) and np.array_equal(q, total_op(3, detect_axis))
        assert np.array_equal(p_inphase, total_op(3, p_axis)) and calls == 0


@pytest.mark.parametrize("p_axis", ["x", "y", "z"])
@pytest.mark.parametrize("detect_axis", ["x", "y", "z"])
def test_grover_transfer_matches_dense_propagator(p_axis, detect_axis):
    cfg = transfer_cfg(iterations=3, p_axis=p_axis, detect_axis=detect_axis)
    u = grover_propagator(cfg.marked, 3)
    p, q, p_inphase, calls = spectrum_transfer(cfg)
    assert maxabs(p - u @ cfg.rho0 @ u.conj().T) <= 1e-12
    assert maxabs(q - u @ total_op(3, detect_axis) @ u.conj().T) <= 1e-12
    assert maxabs(p_inphase - u @ total_op(3, p_axis) @ u.conj().T) <= 1e-12
    assert calls == 2 * 2 * 3


def test_n8_grover_transfer_peak_memory():
    # Q, and P assembled from its conjugated real part: no U, no 256-dim
    # complex temporary (measured 2.50 MiB; 7.0 MiB with a dense U)
    dim = 2**8
    bound = (2 * np.dtype(complex).itemsize + 1.5 * np.dtype(float).itemsize) * dim**2
    assert_peak_at_most(bound, spectrum_transfer, parse(SpectrumConfig, N8_SPECTRUM))


def test_n8_spectrum_pipeline_peak_memory():
    # Q^T * P, its block index and one real part at a time; the K = 9
    # phases are small (measured 2.00 MiB; 3.00 MiB with the T x 256 GEMM)
    dim = 2**8
    bound = (np.dtype(complex).itemsize + 2.5 * np.dtype(float).itemsize) * dim**2
    cfg = parse(SpectrumConfig, N8_SPECTRUM)
    p, q, _, _ = spectrum_transfer(cfg)
    assert_peak_at_most(bound, run_pipeline, p, q, cfg.pipe)


def test_cross_peak_demo_runs_one_phase_cycle(tmp_path, monkeypatch):
    # the zero-quantum part of f_s + f_r, projected once
    calls = patch_counted(monkeypatch, ["phase_cycle_project"])
    assert run_cli(tmp_path, "spectrum", shipped("cross_peak_demo.json"))[0] == 0
    assert len(calls["phase_cycle_project"]) == 1


LAZY_MODULES = ("scipy", "numpy.random", "numpy.fft")


def loaded_after(statements: str) -> list[str]:
    """The LAZY_MODULES that a fresh interpreter has loaded after running statements."""
    src_dir = str(Path(spinsearch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    probe = f"import sys\n{statements}\nprint(*[m for m in {LAZY_MODULES!r} if m in sys.modules])"
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return res.stdout.split()


def test_cli_import_does_not_load_scipy():
    # nor numpy.random or numpy.fft, which would load inside every run's setup
    assert loaded_after("import spinsearch.cli") == []


def test_su2_zx_compose_bench_draws_nothing(tmp_path):
    # the shipped config's operators are fixed: its timed run does not load numpy.random
    argv = ["compose-bench", "--config", str(CONFIG_DIR / "compose_bench.json"), "--out", str(tmp_path)]
    assert loaded_after(f"from spinsearch.cli import main\nassert main({argv!r}) == 0") == []

