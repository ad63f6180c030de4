"""Command-line driver: JSON config in, CSV/JSON results out.

Exit codes: 0 ok, 1 selftest failure, 2 config error, 3 ambiguous search
readout, 4 sampling (Nyquist) error, 5 matrix-logarithm branch error.

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
from .linalg import (
    BranchCutError,
    SpinSystem,
    expm_unitary,
    product_rotation,
    random_hermitian,
    spin_op,
)
from .mqalgebra import phase_cycle_project
from .oracle import UF_CALLS_PER_UO, MarkedState, diag_projector
from .selftest import run_selftest, tolerance_scale
from .sequences import (
    AmbiguousReadoutError,
    conversion_coefficient,
    gamma1_first_peak,
    grover_coefficients,
    grover_propagator,
    initial_state,
    measured_conversion_coefficients,
    projector_x_basis,
    simple_search,
)
from .spectroscopy import (
    NyquistError,
    PipelineConfig,
    SpinHamiltonian,
    inphase_check,
    run_pipeline,
    spectrum,
)


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


def fmt(value) -> str:
    """CSV field formatting: 17 significant digits for floats."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


def _require(cfg: dict, key: str, types, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    val = cfg[key]
    if not isinstance(val, types):
        raise ConfigError(f"config key {key!r} has type {type(val).__name__}, "
                          f"expected {types}")
    return val


def _epsilons(cfg: dict, n: int) -> np.ndarray:
    eps = cfg.get("epsilons", "uniform")
    if eps == "uniform":
        return np.ones(n)
    if isinstance(eps, list) and len(eps) == n:
        arr = np.asarray(eps, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ConfigError("epsilons must be finite")
        return arr
    raise ConfigError(f"epsilons must be 'uniform' or a list of {n} numbers")


def _check_n(n) -> int:
    if not isinstance(n, int) or not 1 <= n <= 8:
        raise ConfigError(f"n must be an integer in [1, 8], got {n!r}")
    return n


# ---------------------------------------------------------------------------
# commands


SEARCH_KEYS = frozenset({"n", "s", "theta", "aux_mode", "epsilons", "seed"})


def cmd_search(cfg: dict, out: Path) -> dict:
    unknown = sorted(set(cfg) - SEARCH_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown search config keys {unknown}; allowed: {sorted(SEARCH_KEYS)}"
        )
    n = _check_n(_require(cfg, "n", int, required=True))
    s = _require(cfg, "s", int, required=True)
    if not 0 <= s < 2**n:
        raise ConfigError(f"s must be in [0, {2**n}), got {s}")
    theta = _require(cfg, "theta", (int, float), default=-np.pi / 2)
    aux_mode = _require(cfg, "aux_mode", str, default="selective-cs")
    if aux_mode not in ("selective-cs", "explicit-uf"):
        raise ConfigError(f"aux_mode must be 'selective-cs' or 'explicit-uf', got {aux_mode!r}")
    eps = _epsilons(cfg, n)
    if np.any(eps == 0):
        raise ConfigError("search needs a nonzero epsilon on every work qubit")

    result = simple_search(MarkedState(s=s, n=n), eps, float(theta), aux_mode)
    signs = np.sign(result.per_qubit_signal / (eps * np.sin(result.theta))).astype(int)
    write_csv(
        out / "search.csv",
        ["qubit", "epsilon", "z_coefficient", "sign"],
        [
            (k + 1, eps[k], result.per_qubit_signal[k], signs[k])
            for k in range(n)
        ],
    )
    spread = float(
        np.abs(
            result.per_qubit_signal / (eps * np.array(MarkedState(s=result.recovered_s, n=n).signs))
            - result.measured_prefactor
        ).max()
    )
    return {
        "payload": {
            "recovered_s": result.recovered_s,
            "per_qubit_signal": [float(c) for c in result.per_qubit_signal],
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
        "max_residual": spread,
    }


def cmd_grover_scan(cfg: dict, out: Path) -> dict:
    n_values = _require(cfg, "n_values", list, default=[2, 3, 4])
    if not n_values:
        raise ConfigError("n_values must list at least one qubit count")
    for n in n_values:
        _check_n(n)
    s = _require(cfg, "s", int, default=0)
    k = _require(cfg, "k", int, default=1)
    m_max_cfg = cfg.get("m_max", "auto")
    if m_max_cfg != "auto":
        if not (
            isinstance(m_max_cfg, (int, float))
            and float(m_max_cfg).is_integer()
            and m_max_cfg >= 0
        ):
            raise ConfigError(f"m_max must be 'auto' or an integer >= 0, got {m_max_cfg!r}")
        m_max_cfg = int(m_max_cfg)

    # validate every n before the first one runs
    plan = []
    for n in n_values:
        N = 2**n
        if not 0 <= s < N:
            raise ConfigError(f"s={s} out of range for n={n}")
        if not 1 <= k <= n:
            raise ConfigError(f"k={k} out of range for n={n}")
        eps = _epsilons(cfg, n)
        if eps[k - 1] == 0:
            raise ConfigError(f"epsilon of the read spin k={k} must be nonzero")
        m_max = int(4 * np.sqrt(N)) + 1 if m_max_cfg == "auto" else m_max_cfg
        plan.append((n, eps, m_max))

    rows = []
    summary = []
    worst = 0.0
    total_calls = 0
    for n, eps, m_max in plan:
        N = 2**n
        measured_all = measured_conversion_coefficients(MarkedState(s=s, n=n), m_max, eps, k)
        best = (0.0, 0)
        for m in range(0, m_max + 1):
            coeffs = grover_coefficients(m, N)
            analytic = conversion_coefficient(m, N, eps, k)
            measured = float(measured_all[m])
            residual = abs(analytic - measured)
            worst = max(worst, residual)
            total_calls += UF_CALLS_PER_UO * m
            if 1 - measured > best[0]:
                best = (1 - measured, m)
            rows.append(
                (n, N, m)
                + tuple(float(np.real(a)) for a in coeffs.alpha)
                + tuple(float(np.real(g)) for g in coeffs.gamma)
                + (analytic, measured, residual)
            )
        summary.append({"n": n, "max_transfer": best[0], "m_at_max": best[1]})

    header = (
        ["n", "N", "m"]
        + [f"alpha{i}" for i in (1, 2, 3, 4)]
        + [f"gamma{i}" for i in range(1, 9)]
        + ["c_analytic", "c_measured", "residual"]
    )
    write_csv(out / "grover_scan.csv", header, rows)
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


def _spectrum_inputs(cfg: dict):
    preset = _require(cfg, "preset", str, default="grover-excitation")
    if preset == "cross-peak-demo":
        return _cross_peak_inputs(cfg)

    n = _check_n(_require(cfg, "n", int, required=True))
    system = SpinSystem(n_work=n)
    eps = _epsilons(cfg, n)
    p_axis = _require(cfg, "p_axis", str, default="z")
    hcfg = _require(cfg, "hamiltonian", dict, required=True)
    kind = _require(hcfg, "kind", str, required=True)
    if kind == "uniform-fz":
        omega = float(_require(hcfg, "omega", (int, float), required=True))
        h_evol = SpinHamiltonian.uniform_fz(n, omega)
        label_omega = omega
    elif kind == "weak-coupling":
        offsets = _require(hcfg, "offsets", list, required=True)
        couplings = {
            (int(k), int(l)): float(j) for k, l, j in hcfg.get("couplings", [])
        }
        h_evol = SpinHamiltonian.weak_coupling(n, offsets, couplings)
        label_omega = None
    else:
        raise ConfigError(f"unknown hamiltonian kind {kind!r}")

    if preset == "identity":
        u = np.eye(2**n, dtype=complex)
        v = np.eye(2**n, dtype=complex)
        calls = 0
    elif preset == "grover-excitation":
        s = _require(cfg, "s", int, required=True)
        if not 0 <= s < 2**n:
            raise ConfigError(f"s={s} out of range for n={n}")
        iterations = _require(cfg, "iterations", int, default=2)
        u = grover_propagator(MarkedState(s=s, n=n), iterations)
        v = u.conj().T
        calls = 2 * UF_CALLS_PER_UO * iterations
    else:
        raise ConfigError(f"unknown preset {preset!r}")

    t1 = _require(cfg, "t1", dict, required=True)
    dt = float(_require(t1, "dt", (int, float), required=True))
    points = _require(t1, "points", int, required=True)
    rho0 = initial_state(system, eps, p_axis)
    pipe = PipelineConfig(
        u_seq=u,
        v_seq=v,
        h_evol=h_evol,
        dt=dt,
        n_points=points,
        detect_axis=_require(cfg, "detect_axis", str, default="z"),
        phi=float(_require(cfg, "phi", (int, float), default=0.0)),
    )
    return rho0, pipe, label_omega, calls, {}


CROSS_PEAK_OMEGA_A = 2 * np.pi * 100.0
CROSS_PEAK_OMEGA_B = 2 * np.pi * 60.0


def _cross_peak_inputs(cfg: dict):
    """Fixed 2+2 demo: subsystem A labeled at 100 Hz, B at 60 Hz.

    The excitation generator is the zero-quantum part of a marked-state
    operator function plus a dominant oracle-independent zero-quantum term
    on subsystem A; cross terms between the subsystems put all nonzero
    zero-quantum lines at multiples of 40 Hz.
    """
    n = 4
    system = SpinSystem(n_work=n)
    s = _require(cfg, "s", int, default=5)
    if not 0 <= s < 16:
        raise ConfigError(f"s={s} out of range for the 4-qubit demo")
    n1 = _require(cfg, "N1", int, default=2 * n + 1)
    tau_u = float(_require(cfg, "tau_u", (int, float), default=0.8))
    tau_v = float(_require(cfg, "tau_v", (int, float), default=0.6))
    dominance = float(_require(cfg, "dominance", (int, float), default=5.0))

    dsx = projector_x_basis(MarkedState(s=s, n=n))
    h_s = phase_cycle_project(dsx, n1, 0)
    ry_a = product_rotation(n, "y", [np.pi / 2, np.pi / 2, 0.0, 0.0])
    dr_a = np.kron(diag_projector(MarkedState(s=0, n=2)), np.eye(4))
    h_r = dominance * phase_cycle_project(ry_a @ dr_a @ ry_a.conj().T, n1, 0)
    h_zq = h_s + h_r

    u = expm_unitary(h_zq, tau_u)
    ry = product_rotation(n, "y", np.pi / 2)
    h_x_frame = ry @ h_zq @ ry.conj().T
    v = expm_unitary(h_x_frame, tau_v)

    h_evol = SpinHamiltonian.custom(
        CROSS_PEAK_OMEGA_A * (spin_op(system, 1, "z") + spin_op(system, 2, "z"))
        + CROSS_PEAK_OMEGA_B * (spin_op(system, 3, "z") + spin_op(system, 4, "z"))
    )
    eps = np.array([1.0, 0.8, 1.2, 0.9])
    rho0 = initial_state(system, eps, "z")
    pipe = PipelineConfig(
        u_seq=u, v_seq=v, h_evol=h_evol, dt=1.0 / 1024, n_points=512, detect_axis="z"
    )
    label_omega = CROSS_PEAK_OMEGA_A - CROSS_PEAK_OMEGA_B
    calls = UF_CALLS_PER_UO * n1  # oracle-function terms consumed by the phase cycle
    extras = {"delta_hz": float(label_omega / (2 * np.pi)), "marked": s}
    return rho0, pipe, label_omega, calls, extras


def cmd_spectrum(cfg: dict, out: Path) -> dict:
    rho0, pipe, label_omega, calls, extras = _spectrum_inputs(cfg)
    n = int(round(np.log2(rho0.rho.shape[0])))
    inphase_ok, inphase_res = inphase_check(
        pipe.u_seq,
        pipe.v_seq,
        pipe.phi,
        n,
        p_axis=cfg.get("p_axis", "z"),
        q_axis=pipe.detect_axis,
    )
    series = run_pipeline(rho0, pipe)
    times = np.arange(pipe.n_points) * pipe.dt
    write_csv(
        out / "timeseries.csv",
        ["t1", "re", "im"],
        [(float(t), float(z.real), float(z.imag)) for t, z in zip(times, series)],
    )
    spec = spectrum(series, pipe.dt, label_omega=label_omega)
    order = np.argsort(spec.frequencies)
    write_csv(
        out / "spectrum.csv",
        ["frequency_rad_s", "re", "im", "order"],
        [
            (
                float(spec.frequencies[i]),
                float(spec.amplitudes[i].real),
                float(spec.amplitudes[i].imag),
                int(round(spec.frequencies[i] / label_omega)) if label_omega else "",
            )
            for i in order
        ],
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
        **extras,
    }
    return {
        "payload": payload,
        "oracle_calls": calls,
        "max_residual": spec.parseval_defect(series),
    }


def cmd_compose_bench(cfg: dict, out: Path) -> dict:
    method = _require(cfg, "method", str, required=True)
    seed = _require(cfg, "seed", int, default=7)
    dim = _require(cfg, "dim", int, default=4)
    operators = _require(cfg, "operators", str, default="random")
    rng = np.random.default_rng(seed)

    if operators == "su2-zx":
        one = SpinSystem(n_work=1)
        a, b = spin_op(one, 1, "z"), spin_op(one, 1, "x")
    elif operators == "random":
        a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    elif operators == "commuting":
        a = random_hermitian(rng, dim)
        _, v = np.linalg.eigh(a)
        b = (v * rng.normal(size=dim)) @ v.conj().T
    else:
        raise ConfigError(f"unknown operators choice {operators!r}")

    if method == "trotter":
        t = float(_require(cfg, "t", (int, float), default=1.0))
        m = _require(cfg, "m", int, default=16)
        res = trotter_product([a, b], t, m)
        x_or_m = m
    elif method == "commutator":
        m = _require(cfg, "m", int, default=100)
        res = commutator_product(a, b, m)
        x_or_m = m
    elif method == "sandwich":
        x = float(_require(cfg, "x", (int, float), default=0.2))
        res = symmetric_sandwich(a, b, x, _require(cfg, "order_side", str, default="A-outer"))
        x_or_m = x
    elif method == "cross-interaction":
        x = float(_require(cfg, "x", (int, float), default=0.1))
        level = _require(cfg, "level", int, default=2)
        res = cross_interaction(a, b, x, level)
        x_or_m = x
    elif method == "fractal":
        x = float(_require(cfg, "x", (int, float), default=0.2))
        p_list = _require(cfg, "p_list", list, default=None)
        if p_list is None:
            p1 = 1 / (2 - 2 ** (1 / 3))
            p_list = [p1, 1 - 2 * p1, p1]
        res = fractal_compose(
            a,
            b,
            x,
            p_list,
            _require(cfg, "order_side", str, default="A-outer"),
            _require(cfg, "mode", str, default="compose"),
        )
        x_or_m = x
    else:
        raise ConfigError(f"unknown method {method!r}")

    write_csv(
        out / "compose_bench.csv",
        ["method", "x_or_m", "error_norm", "fitted_order", "oracle_calls"],
        [(method, x_or_m, res.error_norm, res.fitted_order, res.oracle_calls)],
    )
    return {
        "payload": {
            "method": method,
            "error_norm": res.error_norm,
            "fitted_order": res.fitted_order,
            "steps": list(res.steps),
            "step_errors": list(res.step_errors),
        },
        "oracle_calls": res.oracle_calls,
        "max_residual": res.error_norm,
    }


def cmd_selftest(cfg: dict, out: Path) -> dict:
    results = run_selftest()
    write_csv(
        out / "selftest.csv",
        ["invariant", "residual", "tolerance", "passed"],
        [(r.name, r.residual, r.tolerance, int(r.passed)) for r in results],
    )
    failing = [r.name for r in results if not r.passed]
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
            "failing": failing,
            "tolerance_scale": tolerance_scale(),
        },
        "oracle_calls": 0,
        "max_residual": max(r.residual for r in results),
        "_failing": failing,
    }


COMMANDS = {
    "search": cmd_search,
    "grover-scan": cmd_grover_scan,
    "spectrum": cmd_spectrum,
    "compose-bench": cmd_compose_bench,
    "selftest": cmd_selftest,
}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {path!r} not found")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in cfg.items():
        if isinstance(val, (int, float)) and not np.isfinite(val):
            raise ConfigError(f"config key {key!r} is not finite")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsearch",
        description="spin-ensemble oracle search, spectroscopy and composition runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        if not cfg and args.command in ("search", "spectrum", "compose-bench"):
            raise ConfigError(f"command {args.command!r} requires --config")
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

    failing = result.pop("_failing", [])
    report = {
        "command": args.command,
        "config": cfg,
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
        if failing:
            print(f"selftest failed: {', '.join(failing)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
