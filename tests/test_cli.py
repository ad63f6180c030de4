import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsearch
from spinsearch import (
    cli, composition, linalg, mqalgebra, oracle, references, selftest, sequences, spectroscopy,
)
from spinsearch.cli import main
from spinsearch.config import SpectrumConfig, parse
from spinsearch.linalg import total_op
from spinsearch.selftest import INVARIANT_GROUPS
from spinsearch.references import grover_propagator
from spinsearch.sequences import grover_conjugate
from spinsearch.spectroscopy import run_pipeline, spectrum_transfer

from conftest import CHECK, assert_peak_at_most, maxabs, random_hermitian
from reference import (
    DIAGONALIZERS, N8_PER_SPIN, N8_SPECTRUM, TABLE, agreement, inphase_difference, patch_bindings,
    patch_counted, rowwise_csv, run_cli, scan_columns, spectrum_command, strict_json, written_csv,
)

OMEGA_10HZ = 2 * np.pi * 10


class TestWriteCsv:
    test_matches_value_by_value_formatting = agreement("write_csv")

    @pytest.mark.parametrize("slab_bytes", [1, linalg.SLAB_BYTES, 2**62], ids=["min", "package", "one-slab"])
    def test_same_bytes_at_every_slab_budget(self, monkeypatch, slab_bytes):
        # one row per slab, the package's slabs and one slab for all rows
        monkeypatch.setattr(linalg, "SLAB_BYTES", slab_bytes)
        for (columns,) in TABLE["write_csv"].cases(None):
            assert written_csv(columns) == rowwise_csv(columns)

    def test_worst_scan_peak_memory(self, tmp_path):
        # the worst grover-scan's 32,776 rows of 18 columns, 10 MB of text:
        # one slab of rows as Python values at a time, each row written as
        # it is formatted (measured 0.27 MiB; 38 MiB with every row
        # converted and joined at once)
        columns = scan_columns(8 * 4097)
        assert_peak_at_most(3 * linalg.SLAB_BYTES, cli.write_csv, tmp_path / "scan.csv", columns)

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


def branch_cut_x(seed: int, dim: int) -> float:
    """The compose-bench x at which the sandwich of a commuting pair, whose
    generator is exactly x(A + B), parks its top eigenphase on pi."""
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    _, v = np.linalg.eigh(a)
    b = (v * rng.normal(size=dim)) @ v.conj().T
    return np.pi / np.abs(np.linalg.eigvalsh(a + b)).max()


# a run ending in each error of cli.EXIT_CODES but the config and output
# errors (see test_config's BAD_CONFIGS and test_unusable_out_exits_2_before_numerics):
# (its documented exit code, command, config, whether the config is refused
# at parse, before any numerics run)
ERROR_RUNS = {
    sequences.AmbiguousReadoutError: (3, "search", {"n": 2, "s": 1, "theta": 0.0}, False),
    spectroscopy.NyquistError: (4, "spectrum", {
        "preset": "identity", "n": 2, "hamiltonian": {"kind": "uniform-fz", "omega": 2 * np.pi * 600},
        "t1": {"dt": 1e-3, "points": 64},
    }, True),
    linalg.BranchCutError: (5, "compose-bench", {
        "method": "sandwich", "operators": "commuting", "seed": 7, "dim": 4, "x": branch_cut_x(7, 4),
    }, False),
}


@pytest.mark.parametrize("error", list(ERROR_RUNS), ids=lambda error: error.__name__)
def test_error_exits_with_its_code_and_label(tmp_path, capsys, request, error):
    documented, command, cfg, at_parse = ERROR_RUNS[error]
    if at_parse:
        request.getfixturevalue("no_numerics")
    code, out, report = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert (code, err.partition(": ")[0]) == cli.EXIT_CODES[error] and code == documented
    assert report is None and err.count("\n") == 1
    if at_parse:
        assert list(out.iterdir()) == []  # no report.json, no CSV


# a registry group, the fast path it checks, and the call of it whose
# result gets a NaN entry: the fifth conjugation, and the second stacked
# phase cycle
PLANTED_NAN = {
    "selective-conjugation-identities": ("conjugate_multi_selective", 4),
    "phase-cycling-vs-grading": ("phase_cycle_project", 1),
}


class TestSelftestCommand:
    def test_fresh_build_passes(self, tmp_path):
        code, out, report = run_cli(tmp_path, "selftest")
        assert code == 0
        names = [name for name, _check, _tolerance in INVARIANT_GROUPS]
        assert len(names) == 18
        assert [g["name"] for g in report["payload"]["groups"]] == names
        rows = (out / "selftest.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == names
        assert report["failing"] == [] and len(report["checks"]) == 18

    def test_planted_failing_group_exits_1(self, tmp_path, monkeypatch, capsys):
        planted = ("planted-residual-over-tolerance", lambda: [2e-12], 1e-12)
        monkeypatch.setattr(selftest, "INVARIANT_GROUPS", INVARIANT_GROUPS + (planted,))
        code, _, report = run_cli(tmp_path, "selftest")
        assert code == 1
        assert report["failing"] == [planted[0]]
        assert f"selftest failed: {planted[0]}" in capsys.readouterr().err

    def test_planted_group_without_cases_exits_1(self, tmp_path, monkeypatch, capsys):
        planted = ("planted-no-cases", lambda: [], 1e-12)
        monkeypatch.setattr(selftest, "INVARIANT_GROUPS", INVARIANT_GROUPS + (planted,))
        code, _, report = run_cli(tmp_path, "selftest")
        assert code == 1
        assert report["failing"] == [planted[0]] and report["max_residual"] is None
        assert f"selftest failed: {planted[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "group, cases",
        [
            ("search-recovery", {"n_values": ()}),
            ("zero-quantum-closure", {"n_values": ()}),
            ("phase-cycling-vs-grading", {"count": 0}),
            ("grover-coefficients-three-way", {"count": 0}),
        ],
    )
    def test_a_check_without_cases_is_nan(self, group, cases):
        # a check that compares nothing shows nothing: its residual fails
        assert math.isnan(CHECK[group](**cases))

    def test_fold_keeps_nan(self):
        # max(0.0, nan) is 0.0: a plain max would pass a NaN case
        assert math.isnan(selftest._fold([1e-15, math.nan, 0.0]))
        assert math.isnan(selftest._fold([math.nan, 1e-15]))
        assert selftest._fold([1e-15, 3e-15, 0.0]) == 3e-15

    @pytest.mark.parametrize("group", sorted(PLANTED_NAN))
    def test_planted_nan_fails_its_group(self, tmp_path, monkeypatch, capsys, group):
        name, index = PLANTED_NAN[group]
        calls = []

        def stand_in(_name, real, _where):
            def planted(*args, **kwargs):
                out = real(*args, **kwargs)
                calls.append(name)
                if len(calls) == index + 1:
                    out.flat[0] = np.nan  # one entry of one case
                return out

            return planted

        patch_bindings(monkeypatch, [name], stand_in)
        assert math.isnan(CHECK[group]())
        calls.clear()
        out = tmp_path / "out"
        assert main(["selftest", "--out", str(out)]) == 1
        assert f"selftest failed: {group}" in capsys.readouterr().err
        report = strict_json((out / "report.json").read_text())  # NaN written as null
        assert report["failing"] == [group] and report["max_residual"] is None
        rows = [row.split(",") for row in (out / "selftest.csv").read_text().splitlines()]
        assert [row[1::2] for row in rows if row[0] == group] == [["nan", "0"]]


def same_call(first: tuple, second: tuple) -> bool:
    return len(first) == len(second) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in zip(first, second)
    )


LAYER_FUNCTIONS = sorted(
    name
    for module in (linalg, oracle, mqalgebra, sequences, spectroscopy, composition, references)
    for name, obj in vars(module).items()
    if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
)
# the kernels the registry's stacked references and closed forms run through
REGISTRY_KERNELS = (
    "expm_unitary", "matrix_log_skew", "phase_cycle_project", "conjugate_multi_selective",
    "simple_search", "order_matrix",
)


class TestSelftestState:
    def test_registry_keeps_no_state(self, monkeypatch):
        # two runs make the same calls: the same count of every public
        # function of the layers, and the same arguments to each registry
        # kernel.  A cache that outlives a call (of order_matrix, a pulse
        # per n) skips its callees on the second run.
        calls = patch_counted(monkeypatch, LAYER_FUNCTIONS)
        runs = []
        for _ in range(2):
            before = {name: len(made) for name, made in calls.items()}
            selftest.run_selftest()
            runs.append({name: made[before[name]:] for name, made in calls.items()})
        first, second = runs
        assert {name: len(made) for name, made in first.items()} == {
            name: len(made) for name, made in second.items()
        }
        for name in REGISTRY_KERNELS:
            assert all(map(same_call, first[name], second[name])), name
        assert all(first[name] for name in REGISTRY_KERNELS if name != "matrix_log_skew")

    def test_peak_memory(self):
        # stacked references in slabs of at most linalg.SLAB_BYTES (measured
        # 1.60 MiB; 6.07 MiB with one unbounded stack per case set, 0.33 MiB
        # with one case at a time)
        assert_peak_at_most(2.0 * 2**20, selftest.run_selftest)

    def test_residuals_keep_their_bits_at_the_smallest_budget(self, monkeypatch):
        # one case per stacked reference and one (operator, step) slice per
        # phase-cycle stack, against the package's slabs
        def residuals():
            return [(r.name, np.float64(r.residual).tobytes()) for r in selftest.run_selftest()]

        expected = residuals()
        monkeypatch.setattr(linalg, "SLAB_BYTES", 1)
        assert residuals() == expected


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


def readout_row_times(factor):
    """simple_search reads qubit 1's signal off row 0 of iz_diagonals: that row times factor."""

    def plant(monkeypatch):
        real = sequences.iz_diagonals
        rows = lambda n: np.r_[factor, np.ones(n - 1)][:, None]
        monkeypatch.setattr(sequences, "iz_diagonals", lambda n: real(n) * rows(n))

    return plant


def perturbed_gamma1(monkeypatch):
    real = cli.grover_coefficients

    def planted(m_max, N):
        alpha, gamma = real(m_max, N)
        gamma[:, 0] *= 1 + 1e-6
        return alpha, gamma

    monkeypatch.setattr(cli, "grover_coefficients", planted)


def nan_measured(monkeypatch):
    real = cli.measured_conversion_coefficients

    def planted(*args):
        measured = real(*args)
        measured[3] = np.nan
        return measured

    monkeypatch.setattr(cli, "measured_conversion_coefficients", planted)


def unnormalized_spectrum(monkeypatch):
    # the DFT normalized by 1/sqrt(T) instead of 1/T
    real = cli.spectrum
    unnormalized = lambda series, *args, **kw: real(np.sqrt(len(series)) * series, *args, **kw)
    monkeypatch.setattr(cli, "spectrum", unnormalized)


def uneven_sandwich(monkeypatch):
    # exp(0.45 x A) exp(x B) exp(0.55 x A): the sandwich loses its time symmetry
    expi = composition._expi
    uneven = lambda a, b, x: expi(a, 0.45 * x) @ expi(b, x) @ expi(a, 0.55 * x)
    monkeypatch.setattr(composition, "_sandwich", uneven)


# a defect planted in each command's checked quantity, and the one check
# that must fail for it: (command, config, plant, failing check)
PLANTED_DEFECTS = {
    "search-flipped-readout-sign": ("search", {"n": 3, "s": 5}, readout_row_times(-1.0), "recovered-s"),
    "search-one-scaled-coefficient": (
        "search", {"n": 3, "s": 5}, readout_row_times(1 + 1e-6), "prefactor-spread",
    ),
    "grover-scan-perturbed-gamma1": (
        "grover-scan", {"n_values": [3], "m_max": 10}, perturbed_gamma1, "analytic-vs-measured-n3",
    ),
    "grover-scan-nan-measured": (
        "grover-scan", {"n_values": [3], "m_max": 10}, nan_measured, "analytic-vs-measured-n3",
    ),
    "spectrum-wrong-normalization": (
        "spectrum", shipped("spectrum_uniform.json"), unnormalized_spectrum, "parseval",
    ),
    "compose-bench-wrong-slice-weight": (
        "compose-bench", shipped("compose_bench.json"), uneven_sandwich, "cross-order",
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED_DEFECTS))
def test_planted_defect_fails_its_check(tmp_path, monkeypatch, capsys, name):
    command, cfg, plant, check = PLANTED_DEFECTS[name]
    assert run_cli(tmp_path, command, cfg, "clean")[0] == 0
    capsys.readouterr()
    plant(monkeypatch)
    code, _, report = run_cli(tmp_path, command, cfg, "planted")
    assert code == 1 and report["failing"] == [check]
    assert capsys.readouterr().err == f"{command} failed: {check}\n"


GROVER_SPECTRUM = {
    "n": 2, "s": 1, "iterations": 1,
    "hamiltonian": {"kind": "uniform-fz", "omega": OMEGA_10HZ}, "t1": {"dt": 1 / 256, "points": 64},
}
LEVEL_2_CROSS = {"method": "cross-interaction", "operators": "su2-zx", "x": 0.1, "level": 2}
# one config per reason a check does not apply, and two where cross-order
# applies: (command, config, check, its reason or None, whether it passes)
APPLICABILITY = {
    "inphase-cross-peak-demo": (
        "spectrum", {"preset": "cross-peak-demo"}, "inphase", "the cross-peak demo builds its own V", True,
    ),
    "inphase-phi": (
        "spectrum", GROVER_SPECTRUM | {"phi": 0.3}, "inphase",
        "V = U+ is not U+ exp(i phi Fz) at phi != 0", True,
    ),
    "inphase-other-axes": (
        "spectrum", GROVER_SPECTRUM | {"p_axis": "x", "detect_axis": "z"}, "inphase",
        "p_axis != detect_axis", True,
    ),
    "inphase-same-axes": (
        "spectrum", GROVER_SPECTRUM | {"p_axis": "z", "detect_axis": "z"}, "inphase",
        "p_axis = detect_axis: the inphase operand is Q", True,
    ),
    "cross-order-other-method": (
        "compose-bench", {"method": "sandwich", "x": 0.2, "seed": 3}, "cross-order",
        "not level-2 cross-interaction", True,
    ),
    "cross-order-level-4": (
        "compose-bench", LEVEL_2_CROSS | {"level": 4}, "cross-order", "not level-2 cross-interaction", True,
    ),
    "cross-order-commuting": (
        "compose-bench", LEVEL_2_CROSS | {"operators": "commuting"}, "cross-order",
        "commuting operators compose exactly", True,
    ),
    "cross-order-x-0": (
        "compose-bench", LEVEL_2_CROSS | {"x": 0.0}, "cross-order", "x = 0 composes exactly", True,
    ),
    "cross-order-applies": ("compose-bench", shipped("compose_bench.json"), "cross-order", None, True),
    # step errors 5.5e-13, 1.7e-14 and 5.4e-16, under the order fit's 1e-13
    # floor: a ladder the fit cannot resolve, not an exact composition
    "cross-order-under-the-fit-floor": (
        "compose-bench", LEVEL_2_CROSS | {"x": 0.01}, "cross-order", None, False,
    ),
}


@pytest.mark.parametrize("name", sorted(APPLICABILITY))
def test_applicability_is_stated_by_the_config(tmp_path, name):
    # a check that does not apply passes with its reason; one that applies
    # fails the run exactly when its residual is over its tolerance
    command, cfg, check, reason, passed = APPLICABILITY[name]
    code, _, report = run_cli(tmp_path, command, cfg)
    assert code == (0 if passed else 1) and report["failing"] == ([] if passed else [check])
    (entry,) = [c for c in report["checks"] if c["name"] == check]
    assert entry["reason"] == reason and entry["passed"] is passed


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


def complex_total_op(monkeypatch):
    """Every binding of total_op returns its sum plus 0j: complex operators
    with imaginary parts +0.0, which take the complex arithmetic throughout."""

    def stand_in(_name, real, _where):
        return lambda *args, **kwargs: real(*args, **kwargs) + 0j

    patch_bindings(monkeypatch, ["total_op"], stand_in)


REAL_PATH_CASES = {
    **{f"3-{p}{d}": {**N8_SPECTRUM, "n": 3, "s": 5, "epsilons": [0.6, 1.4, 0.9],
                     "p_axis": p, "detect_axis": d} for p in "xyz" for d in "xyz"},
    "n8-grover-excitation": N8_SPECTRUM,
}


@pytest.mark.parametrize("name", list(REAL_PATH_CASES))
def test_real_path_equals_complex_path(tmp_path, monkeypatch, name):
    # each stage, and the whole command, on the operators as built and on
    # the same operators plus 0j
    raw = REAL_PATH_CASES[name]
    cfg = parse(SpectrumConfig, raw)
    p, q, p_inphase, _ = spectrum_transfer(cfg)
    for op, axis in ((cfg.rho0, cfg.p_axis), (p, cfg.p_axis), (p_inphase, cfg.p_axis),
                     (q, cfg.detect_axis)):
        assert op.dtype == (np.complex128 if axis == "y" else np.float64)
    for x in (cfg.rho0, total_op(cfg.n, cfg.detect_axis)):
        real, cplx = (grover_conjugate(cfg.marked, cfg.iterations, a) for a in (x, x + 0j))
        assert np.array_equal(real, cplx)
    series = run_pipeline(p, q, cfg.pipe)
    assert np.array_equal(series, run_pipeline(p + 0j, q + 0j, cfg.pipe))
    difference = inphase_difference(p_inphase, q, cfg.phi)
    assert np.array_equal(difference, inphase_difference(p_inphase + 0j, q + 0j, cfg.phi))

    outs = [run_cli(tmp_path, "spectrum", raw, "real")]
    complex_total_op(monkeypatch)
    assert all(op.dtype == complex for op in spectrum_transfer(parse(SpectrumConfig, raw))[:3])
    outs.append(run_cli(tmp_path, "spectrum", raw, "complex"))
    (code, real_out, real_report), (code_c, cplx_out, cplx_report) = outs
    assert code == code_c == 0
    for csv in ("timeseries.csv", "spectrum.csv"):
        assert (real_out / csv).read_bytes() == (cplx_out / csv).read_bytes()
    for report in (real_report, cplx_report):
        del report["duration_s"]
    assert real_report == cplx_report


def test_n8_spectrum_parse_peak_memory():
    # rho0 of the z axis as one real N x N array (measured 0.56 MiB;
    # 1.06 MiB as a complex array)
    bound = 1.25 * np.dtype(float).itemsize * (2**8) ** 2
    assert_peak_at_most(bound, parse, SpectrumConfig, N8_SPECTRUM)


def test_n8_grover_transfer_peak_memory():
    # real Q and P of the z axes and the two-sided steps' one real buffer:
    # no U, no complex copy (measured 1.52 MiB; 2.50 MiB with complex Q
    # and P, 7.0 MiB with a dense U)
    bound = 3.5 * np.dtype(float).itemsize * (2**8) ** 2
    assert_peak_at_most(bound, spectrum_transfer, parse(SpectrumConfig, N8_SPECTRUM))


def test_n8_spectrum_pipeline_peak_memory():
    # a 64-row slab of the real Q^T * P and its block index at a time; the
    # K = 9 phases are small (measured 0.38 MiB; 1.13 MiB with all of
    # Q^T * P and its index at once)
    bound = 0.4 * 2**20
    cfg = parse(SpectrumConfig, N8_SPECTRUM)
    p, q, _, _ = spectrum_transfer(cfg)
    assert_peak_at_most(bound, run_pipeline, p, q, cfg.pipe)


def test_n8_per_spin_pipeline_peak_memory():
    # K = N = 256 over T1_POINTS_MAX points: the complex K x K block matrix
    # (1 MiB), the series and the t1 grid (0.38 MiB) and one 64-point slab
    # of phases and products; measured 2.51 MiB, 130 MiB with all T x K
    # phases at once
    cfg = parse(SpectrumConfig, N8_PER_SPIN)
    p, q, _, _ = spectrum_transfer(cfg)
    assert_peak_at_most(4 * 2**20, run_pipeline, p, q, cfg.pipe)


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

