"""Command-line driver: JSON config in, CSV/JSON results out.

Exit codes: `EXIT_CODES` maps each error a run can end in to its code
and stderr label: 2 config error or unusable --out, 3 ambiguous search
readout, 4 sampling (Nyquist) error, 5 matrix-logarithm branch error.  A
run that finishes exits 1 when one of its checks fails, else 0.

Each command reads a typed config that spinsearch.config builds from the
JSON file; every config defect is found there, before any numerics, and
exits 2.  Each command returns its checks (selftest.InvariantResult, each
applicable or not by the config alone), and main derives from them, for
every command, `failing`, `max_residual` and the "<command> failed:" line.

Every run writes report.json (command, config echo, payload, oracle-call
count, checks, wall-clock duration) next to the command's CSV files.
CSV content is byte-identical across runs for identical config and seed;
the report's duration field is the one intentionally volatile output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .composition import (
    commutator_product,
    cross_interaction,
    fractal_compose,
    symmetric_sandwich,
    trotter_product,
)
from .config import (
    COMPOSE_METHODS,
    ComposeBenchConfig,
    ConfigError,
    GroverScanConfig,
    SearchConfig,
    SelftestConfig,
    SpectrumConfig,
    parse,
)
from .linalg import BranchCutError, random_hermitian, slabs, spin_op
from .oracle import UF_CALLS_PER_UO
from .selftest import InvariantResult, _fold, run_selftest
from .sequences import (
    AmbiguousReadoutError,
    conversion_coefficients,
    grover_coefficients,
    measured_conversion_coefficients,
    simple_search,
)
from .spectroscopy import NyquistError, inphase_check, run_pipeline, spectrum, spectrum_transfer


def write_csv(path: Path, columns: dict):
    """Write named columns (numpy arrays or lists, one value per row) as CSV.

    A header row, then one row per index: floats as %.17g (so inf, nan and
    -0 appear as such), integers in decimal, anything else by str; LF line
    endings.  Every row is formatted by one % template, a slab of rows at a
    time (linalg.slabs): each array column's slab becomes Python values by
    one .tolist(), and each row is written as it is formatted, so the text
    is never held whole.
    """
    convs = []
    for name, col in columns.items():
        if isinstance(col, np.ndarray):
            kind = col.dtype.kind
        else:
            floats = {isinstance(v, (float, np.floating)) for v in col}
            if len(floats) > 1:
                raise ValueError(f"column {name!r} mixes floats with other values")
            kind = "f" if floats == {True} else "O"
        convs.append("%.17g" if kind == "f" else "%d" if kind in "iu" else "%s")
    lengths = {len(col) for col in columns.values()}
    if len(lengths) > 1:
        raise ValueError("columns differ in length")
    template = ",".join(convs) + "\n"
    with path.open("w", encoding="ascii", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        # an entry of a slab is a Python float (or int) and its list slot
        for rows in slabs(max(lengths, default=0), 32 * max(len(columns), 1)):
            values = [c[rows].tolist() if isinstance(c, np.ndarray) else c[rows] for c in columns.values()]
            f.writelines(template % row for row in zip(*values))
            del values  # one slab at a time: these go before the next are made


# ---------------------------------------------------------------------------
# commands

# the command checks' tolerances, each from the roundoff of its route
MACHINE_EPS = np.finfo(float).eps
RECOVERY_TOL = 0.5  # s is an integer: a misread is off by at least 1
SCAN_ROUNDOFF = 16 * MACHINE_EPS  # per step and per term of 1 + sum|eps| / |eps_k|: a few roundings
PARSEVAL_TOL = 64 * MACHINE_EPS  # the DFT and both energy sums round log2(T1_POINTS_MAX) = 14 times each
INPHASE_TOL = 1e-9  # over Q's roundoff n (2 iterations + 1) eps_mach: 1.5e-11 at n 8, iterations 4096
COMPOSE_ORDER, ORDER_TOL = 5, 0.5  # level-2 cross-interaction: error O(x^5)


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
        "checks": [
            InvariantResult("recovered-s", _fold([result.recovered_s - cfg.s]), RECOVERY_TOL),
            # the readout rounds each population in n pairwise steps of four terms, then sums N of them
            # per spin: signal k rounds by up to N MACHINE_EPS max|eps| / |eps_k| of itself
            InvariantResult("prefactor-spread", _fold([result.prefactor_spread / result.measured_prefactor]),
                            2**n * MACHINE_EPS * np.abs(eps).max() / np.abs(eps).min()),
        ],
    }


def cmd_grover_scan(cfg: GroverScanConfig, out: Path) -> dict:
    k = cfg.k
    blocks = []
    summary, checks = [], []
    total_calls = 0
    for marked, eps, m_max in cfg.plan:
        n, N = marked.n, 2**marked.n
        m = np.arange(m_max + 1)
        measured = measured_conversion_coefficients(marked, m_max, eps, k)
        alpha, gamma = grover_coefficients(m_max, N)
        analytic = conversion_coefficients(gamma, N, eps, k)
        residual = np.abs(analytic - measured)
        # the measured route takes m_max steps; the closed form's angle m theta rounds m times
        bound = SCAN_ROUNDOFF * (m_max + 1) * (1 + np.abs(eps).sum() / abs(eps[k - 1]))
        checks.append(InvariantResult(f"analytic-vs-measured-n{n}", _fold([residual]), bound))
        total_calls += UF_CALLS_PER_UO * m_max * (m_max + 1) // 2
        transfer = 1 - measured
        j = int(np.argmax(transfer))  # the first m of largest transfer
        best = (float(transfer[j]), j) if transfer[j] > 0 else (0.0, 0)
        summary.append({"n": n, "max_transfer": best[0], "m_at_max": best[1]})
        blocks.append(
            {"n": np.full_like(m, n), "N": np.full_like(m, N), "m": m}
            | {f"alpha{i}": alpha[:, i - 1] for i in (1, 2, 3, 4)}
            | {f"gamma{i}": gamma[:, i - 1].real for i in range(1, 9)}
            | {"c_analytic": analytic, "c_measured": measured, "residual": residual}
        )

    write_csv(
        out / "grover_scan.csv",
        {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]},
    )
    return {
        "payload": {"per_n": summary},
        "oracle_calls": total_calls,
        "checks": checks,
    }


def cmd_spectrum(cfg: SpectrumConfig, out: Path) -> dict:
    p, q, p_inphase, calls = spectrum_transfer(cfg)
    pipe, label_omega = cfg.pipe, cfg.label_omega
    # the check holds by construction only where V = U+ exp(i phi Fz) and F_p = F_q; no preset
    # builds that V at phi != 0 yet, and at phi = 0 with F_p = F_q it reads only Q's Hermiticity
    reason = ("the cross-peak demo builds its own V" if cfg.preset == "cross-peak-demo"
              else "V = U+ is not U+ exp(i phi Fz) at phi != 0" if cfg.phi != 0
              else "p_axis != detect_axis" if cfg.p_axis != cfg.detect_axis
              else "p_axis = detect_axis: the inphase operand is Q")
    inphase = InvariantResult("inphase", _fold(inphase_check(p_inphase, q, cfg.phi)), INPHASE_TOL, reason)
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
        # the bare compare, whether or not the check applies
        "inphase": {"holds": bool(inphase.residual <= INPHASE_TOL), "residual": inphase.residual},
    }
    if cfg.preset == "cross-peak-demo":
        payload.update(delta_hz=float(label_omega / (2 * np.pi)), marked=cfg.s)
    parseval = InvariantResult("parseval", _fold([spec.parseval_defect(series)]), PARSEVAL_TOL)
    return {"payload": payload, "oracle_calls": calls, "checks": [parseval, inphase]}


COMPOSE_BUILDERS = {
    "trotter": lambda a, b, t, m: trotter_product([a, b], t, m),
    "commutator": commutator_product,
    "sandwich": symmetric_sandwich,
    "cross-interaction": cross_interaction,
    "fractal": fractal_compose,
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

    params = COMPOSE_METHODS[method]  # the keys the method reads
    res = COMPOSE_BUILDERS[method](a, b, **{name: getattr(cfg, name) for name in params})
    x_or_m = cfg.m if "m" in params else cfg.x

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
    reason = ("not level-2 cross-interaction" if (method, cfg.level) != ("cross-interaction", 2)
              else "commuting operators compose exactly" if cfg.operators == "commuting"
              else "x = 0 composes exactly" if cfg.x == 0 else None)
    order = InvariantResult("cross-order", _fold([res.fitted_order - COMPOSE_ORDER]), ORDER_TOL, reason)
    return {
        "payload": {
            "method": method,
            "error_norm": res.error_norm,
            "fitted_order": res.fitted_order,
            "steps": list(res.steps),
            "step_errors": list(res.step_errors),
        },
        "oracle_calls": res.oracle_calls,
        "checks": [order],
    }


def cmd_selftest(cfg: SelftestConfig, out: Path) -> dict:
    checks = run_selftest()
    groups = [vars(r) | {"passed": r.passed} for r in checks]  # name, residual, tolerance, reason, passed
    column = lambda key: [g[key] for g in groups]
    passed = [int(p) for p in column("passed")]
    write_csv(out / "selftest.csv", {"invariant": column("name"), "residual": column("residual"),
                                     "tolerance": column("tolerance"), "passed": passed})
    for g in groups:
        status = "pass" if g["passed"] else "FAIL"
        print(f"{status}  {g['name']}  residual={g['residual']:.3e}  tol={g['tolerance']:.3e}")
    return {"payload": {"groups": groups, "n_groups": len(groups)}, "oracle_calls": 0, "checks": checks}


COMMANDS = {
    "search": cmd_search,
    "grover-scan": cmd_grover_scan,
    "spectrum": cmd_spectrum,
    "compose-bench": cmd_compose_bench,
    "selftest": cmd_selftest,
}
SCHEMAS = {name: get_type_hints(command)["cfg"] for name, command in COMMANDS.items()}


class OutputError(Exception):
    """--out names a path that cannot be made a directory."""


# the errors a run can end in: exception class -> (exit code, stderr label)
EXIT_CODES = {
    ConfigError: (2, "config error"),
    OutputError: (2, "output error"),
    AmbiguousReadoutError: (3, "ambiguous readout"),
    NyquistError: (4, "sampling error"),
    BranchCutError: (5, "numerical branch error"),
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
    started = time.perf_counter()
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file in the way, or no permission
            raise OutputError(f"cannot use --out {args.out!r}: {exc.strerror}") from exc
        raw = load_config(args.config)
        result = COMMANDS[args.command](parse(SCHEMAS[args.command], raw), out)
    except tuple(EXIT_CODES) as exc:
        code, label = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code

    checks = result["checks"]
    failing = [c.name for c in checks if not c.passed]
    if failing:
        print(f"{args.command} failed: {', '.join(failing)}", file=sys.stderr)
    report = {
        "command": args.command,
        "config": raw,
        "payload": result["payload"],
        "oracle_calls": result["oracle_calls"],
        "checks": [vars(c) | {"passed": c.passed} for c in checks],
        "failing": failing,
        "max_residual": _fold(c.residual for c in checks if c.reason is None),  # NaN (null) if none apply
        "duration_s": time.perf_counter() - started,
    }
    strict = json.loads(json.dumps(report), parse_constant=lambda _: None)  # NaN, +-inf as null
    text = json.dumps(strict, indent=2, sort_keys=True, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
