"""Command-line driver: JSON config in, CSV/JSON results out.

Exit codes: 0 ok, 1 selftest failure, 2 config error (or an --out that
is not a usable directory), 3 ambiguous search readout, 4 sampling
(Nyquist) error, 5 matrix-logarithm branch error.

Each command reads a typed config that spinsearch.config builds from the
JSON file; every config defect is found there, before any numerics, and
exits 2.

Every run writes report.json (command, config echo, payload, oracle-call
count, wall-clock duration, max residual) next to the command's CSV files.
CSV content is byte-identical across runs for identical config and seed;
the report's duration field is the one intentionally volatile output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .composition import (
    commutator_product,
    cross_interaction,
    fractal_compose,
    symmetric_sandwich,
    trotter_product,
)
from .config import (
    ComposeBenchConfig,
    ConfigError,
    GroverScanConfig,
    SearchConfig,
    SelftestConfig,
    SpectrumConfig,
    parse,
)
from .linalg import BranchCutError, random_hermitian, spin_op
from .oracle import UF_CALLS_PER_UO
from .selftest import run_selftest
from .sequences import (
    AmbiguousReadoutError,
    conversion_coefficient,
    gamma1_first_peak,
    grover_coefficients,
    measured_conversion_coefficients,
    simple_search,
)
from .spectroscopy import NyquistError, inphase_check, run_pipeline, spectrum, spectrum_transfer


def write_csv(path: Path, columns: dict):
    """Write named columns (numpy arrays or lists, one value per row) as CSV.

    A header row, then one row per index: floats as %.17g (so inf, nan and
    -0 appear as such), integers in decimal, anything else by str; LF line
    endings.  Each column becomes Python values by one .tolist() and every
    row is formatted by one % template.
    """
    convs, values = [], []
    for name, col in columns.items():
        if isinstance(col, np.ndarray):
            kind = col.dtype.kind
            col = col.tolist()
        else:
            floats = {isinstance(v, (float, np.floating)) for v in col}
            if len(floats) > 1:
                raise ValueError(f"column {name!r} mixes floats with other values")
            kind = "f" if floats == {True} else "O"
        convs.append("%.17g" if kind == "f" else "%d" if kind in "iu" else "%s")
        values.append(col)
    if len({len(col) for col in values}) > 1:
        raise ValueError("columns differ in length")
    template = ",".join(convs) + "\n"
    text = ",".join(columns) + "\n" + "".join(template % row for row in zip(*values))
    path.write_text(text, encoding="ascii", newline="\n")


# ---------------------------------------------------------------------------
# commands


def cmd_search(cfg: SearchConfig, out: Path) -> dict:
    n, eps = cfg.n, cfg.eps
    result = simple_search(cfg.marked, eps, cfg.theta, cfg.aux_mode)
    write_csv(
        out / "search.csv",
        {
            "qubit": np.arange(1, n + 1),
            "epsilon": eps,
            "z_coefficient": result.per_qubit_signal,
            "sign": result.signs,
        },
    )
    return {
        "payload": {
            "recovered_s": result.recovered_s,
            "per_qubit_signal": result.per_qubit_signal.tolist(),
            "confidence": result.confidence,
            "theta": result.theta,
            "prefactor_measured": result.measured_prefactor,
            "prefactor_reference_2_over_N": result.reference_prefactor,
            "prefactor_ratio": result.prefactor_ratio,
            "prefactor_note": (
                "measured prefactor carries the sin(theta) factor of the "
                "conjugation identity; the 2/N reference value omits it"
            ),
        },
        "oracle_calls": result.oracle_uf_calls,
        "max_residual": result.prefactor_spread,
    }


def cmd_grover_scan(cfg: GroverScanConfig, out: Path) -> dict:
    k = cfg.k
    blocks = []
    summary = []
    worst = 0.0
    total_calls = 0
    for marked, eps, m_max in cfg.plan:
        n, N = marked.n, 2**marked.n
        m = np.arange(m_max + 1)
        measured = measured_conversion_coefficients(marked, m_max, eps, k)
        coeffs = [grover_coefficients(j, N) for j in range(m_max + 1)]
        analytic = np.array([conversion_coefficient(c, eps, k) for c in coeffs])
        residual = np.abs(analytic - measured)
        worst = max(worst, float(residual.max()))
        total_calls += UF_CALLS_PER_UO * m_max * (m_max + 1) // 2
        transfer = 1 - measured
        j = int(np.argmax(transfer))  # the first m of largest transfer
        best = (float(transfer[j]), j) if transfer[j] > 0 else (0.0, 0)
        summary.append({"n": n, "max_transfer": best[0], "m_at_max": best[1]})
        alpha = np.real([c.alpha for c in coeffs])
        gamma = np.real([c.gamma for c in coeffs])
        blocks.append(
            {"n": np.full_like(m, n), "N": np.full_like(m, N), "m": m}
            | {f"alpha{i}": alpha[:, i - 1] for i in (1, 2, 3, 4)}
            | {f"gamma{i}": gamma[:, i - 1] for i in range(1, 9)}
            | {"c_analytic": analytic, "c_measured": measured, "residual": residual}
        )

    write_csv(
        out / "grover_scan.csv",
        {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]},
    )
    return {
        "payload": {
            "per_n": summary,
            "gamma1_first_peak": {
                str(N): dict(zip(("m", "value"), gamma1_first_peak(N)))
                for N in (16, 64, 256)
            },
        },
        "oracle_calls": total_calls,
        "max_residual": worst,
    }


def cmd_spectrum(cfg: SpectrumConfig, out: Path) -> dict:
    p, q, p_inphase, calls = spectrum_transfer(cfg)
    pipe, label_omega = cfg.pipe, cfg.label_omega
    inphase_ok, inphase_res = inphase_check(p_inphase, q, cfg.phi)
    series = run_pipeline(p, q, pipe)
    times = np.arange(pipe.n_points) * pipe.dt
    write_csv(out / "timeseries.csv", {"t1": times, "re": series.real, "im": series.imag})
    spec = spectrum(series, pipe.dt, label_omega=label_omega)
    by_freq = np.argsort(spec.frequencies)
    freqs, amps = spec.frequencies[by_freq], spec.amplitudes[by_freq]
    write_csv(
        out / "spectrum.csv",
        {
            "frequency_rad_s": freqs,
            "re": amps.real,
            "im": amps.imag,
            "order": [""] * len(freqs) if spec.orders is None else [spec.orders[k] for k in by_freq],
        },
    )
    peaks = [
        {
            "frequency_rad_s": p.frequency,
            "amplitude_abs": abs(p.amplitude),
            "re": p.amplitude.real,
            "im": p.amplitude.imag,
            "order": p.order,
        }
        for p in spec.peaks
    ]
    payload = {
        "peaks": peaks,
        "n_peaks": len(peaks),
        "inphase": {"holds": inphase_ok, "residual": inphase_res},
    }
    if cfg.preset == "cross-peak-demo":
        payload.update(delta_hz=float(label_omega / (2 * np.pi)), marked=cfg.s)
    return {
        "payload": payload,
        "oracle_calls": calls,
        "max_residual": spec.parseval_defect(series),
    }


def cmd_compose_bench(cfg: ComposeBenchConfig, out: Path) -> dict:
    method, dim = cfg.method, cfg.dim
    if cfg.operators == "su2-zx":  # draws nothing: numpy.random stays unloaded
        a, b = spin_op(1, 1, "z"), spin_op(1, 1, "x")
    else:
        rng = np.random.default_rng(cfg.seed)
        a = random_hermitian(rng, dim)
        if cfg.operators == "random":
            b = random_hermitian(rng, dim)
        else:  # commuting
            _, v = np.linalg.eigh(a)
            b = (v * rng.normal(size=dim)) @ v.conj().T

    if method == "trotter":
        res = trotter_product([a, b], cfg.t, cfg.m)
        x_or_m = cfg.m
    elif method == "commutator":
        res = commutator_product(a, b, cfg.m)
        x_or_m = cfg.m
    elif method == "sandwich":
        res = symmetric_sandwich(a, b, cfg.x, cfg.order_side)
        x_or_m = cfg.x
    elif method == "cross-interaction":
        res = cross_interaction(a, b, cfg.x, cfg.level)
        x_or_m = cfg.x
    else:  # fractal
        res = fractal_compose(a, b, cfg.x, cfg.p_list, cfg.order_side, cfg.mode)
        x_or_m = cfg.x

    write_csv(
        out / "compose_bench.csv",
        {
            "method": [method],
            "x_or_m": [x_or_m],
            "error_norm": [res.error_norm],
            "fitted_order": [res.fitted_order],
            "oracle_calls": [res.oracle_calls],
        },
    )
    return {
        "payload": {
            "method": method,
            "error_norm": res.error_norm,
            # an exact composition fits order inf, which strict JSON cannot hold
            "fitted_order": res.fitted_order if np.isfinite(res.fitted_order) else None,
            "steps": list(res.steps),
            "step_errors": list(res.step_errors),
        },
        "oracle_calls": res.oracle_calls,
        "max_residual": res.error_norm,
    }


def cmd_selftest(cfg: SelftestConfig, out: Path) -> dict:
    results = run_selftest()
    write_csv(
        out / "selftest.csv",
        {
            "invariant": [r.name for r in results],
            "residual": [r.residual for r in results],
            "tolerance": [r.tolerance for r in results],
            "passed": [int(r.passed) for r in results],
        },
    )
    return {
        "payload": {
            "groups": [
                {
                    "name": r.name,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in results
            ],
            "n_groups": len(results),
            "failing": [r.name for r in results if not r.passed],
        },
        "oracle_calls": 0,
        "max_residual": max(r.residual for r in results),
    }


COMMANDS = {
    "search": cmd_search,
    "grover-scan": cmd_grover_scan,
    "spectrum": cmd_spectrum,
    "compose-bench": cmd_compose_bench,
    "selftest": cmd_selftest,
}
SCHEMAS = {
    "search": SearchConfig,
    "grover-scan": GroverScanConfig,
    "spectrum": SpectrumConfig,
    "compose-bench": ComposeBenchConfig,
    "selftest": SelftestConfig,
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path!r} not found")
    try:
        cfg = json.loads(p.read_text())
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, undecodable or too deep
        raise ConfigError(f"cannot read config {path!r} as JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsearch",
        description="spin-ensemble oracle search, spectroscopy and composition runner",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"output error: cannot use --out {args.out!r}: {exc.strerror}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        raw = load_config(args.config)
        cfg = parse(SCHEMAS[args.command], raw)
        result = COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AmbiguousReadoutError as exc:
        print(f"ambiguous readout: {exc}", file=sys.stderr)
        return 3
    except NyquistError as exc:
        print(f"sampling error: {exc}", file=sys.stderr)
        return 4
    except BranchCutError as exc:
        print(f"numerical branch error: {exc}", file=sys.stderr)
        return 5

    report = {
        "command": args.command,
        "config": raw,
        "payload": result["payload"],
        "oracle_calls": result["oracle_calls"],
        "max_residual": result["max_residual"],
        "duration_s": time.perf_counter() - started,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if args.command == "selftest":
        for r in result["payload"]["groups"]:
            status = "pass" if r["passed"] else "FAIL"
            print(f"{status}  {r['name']}  residual={r['residual']:.3e}  tol={r['tolerance']:.3e}")
        failing = result["payload"]["failing"]
        if failing:
            print(f"selftest failed: {', '.join(failing)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
