"""Benchmark workloads: seeded configs and the check for every CLI output.

A workload is a list of invocations of the spinsearch CLI.  Its inputs
come only from the workload seed: the marked index s and non-uniform
polarizations in [0.5, 1.5] are drawn here and written into config files,
so the program sees nothing but those configs.  Each invocation carries
a check that reads the files the program wrote and returns the list of
problems found (empty when the output is correct).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from random import Random

SCAN_N_VALUES = (6, 7, 8)
SCAN_ROWS = 147  # m = 0..int(4 sqrt N)+1 for N = 64, 128, 256: 34 + 47 + 66
SEARCH_N = 8
SPECTRUM_N = 8
SPECTRUM_POINTS = 256
SPECTRUM_OMEGA = 2 * math.pi * 10.0

RESIDUAL_TOL = 1e-9  # analytic-vs-measured conversion coefficient
PARSEVAL_TOL = 1e-12  # relative Parseval defect of the DFT: roundoff only
FREQ_TOL = 1e-9  # peak frequency as a multiple of the labelling frequency
COMPOSE_ORDER_WINDOW = (4.5, 5.5)  # level-2 cross-interaction residual order

# The six configs shipped in configs/ and the command each one drives.
SHIPPED = (
    ("compose_bench.json", "compose-bench"),
    ("cross_peak_demo.json", "spectrum"),
    ("grover_scan.json", "grover-scan"),
    ("search.json", "search"),
    ("spectrum_uniform.json", "spectrum"),
    ("spectrum_weak_coupling.json", "spectrum"),
)

# Why each workload exists; bench/README.md says the same at more length.
WORKLOADS = {
    "scan": "grover-scan at n=6,7,8: the m-step Grover propagator kernel, quadratic in m",
    "search": "two n=8 searches, explicit-uf (dim 1024, dense U_f) and selective-cs (closed form)",
    "spectrum": "n=8 grover-excitation spectrum, 256 t1 points: run_pipeline's per-point conjugation",
    "shipped": "the six shipped configs plus selftest: startup-dominated, reaches composition",
}


@dataclass
class Invocation:
    """One `python -m spinsearch.cli` call and the check of its outputs."""

    name: str
    command: str
    config: Path | None
    check: object  # callable(out_dir) -> list[str]

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, "--out", str(out)]
        if self.config is not None:
            argv += ["--config", str(self.config)]
        return argv


def _rng(workload: str, seed: int) -> Random:
    # string seeding hashes with SHA-512, so the stream is stable across runs
    return Random(f"spinsearch-bench/{workload}/{seed}")


def _epsilons(rng: Random, n: int) -> list[float]:
    return [rng.uniform(0.5, 1.5) for _ in range(n)]


def generate_configs(workload: str, seed: int) -> dict[str, dict]:
    """Config dicts of a seeded workload, keyed by file stem.  Pure."""
    rng = _rng(workload, seed)
    if workload == "scan":
        # one grover-scan per n: the CLI takes one epsilons list of length n
        s = rng.randrange(2 ** min(SCAN_N_VALUES))
        return {
            f"scan_n{n}": {
                "n_values": [n],
                "m_max": "auto",
                "s": s,
                "k": 1,
                "epsilons": _epsilons(rng, n),
            }
            for n in SCAN_N_VALUES
        }
    if workload == "search":
        s = rng.randrange(2**SEARCH_N)
        eps = _epsilons(rng, SEARCH_N)
        return {
            f"search_{mode}": {"n": SEARCH_N, "s": s, "epsilons": eps, "aux_mode": mode}
            for mode in ("explicit-uf", "selective-cs")
        }
    if workload == "spectrum":
        return {
            "spectrum": {
                "preset": "grover-excitation",
                "n": SPECTRUM_N,
                "s": rng.randrange(2**SPECTRUM_N),
                "iterations": 2,
                "epsilons": _epsilons(rng, SPECTRUM_N),
                "p_axis": "z",
                "detect_axis": "z",
                "hamiltonian": {"kind": "uniform-fz", "omega": SPECTRUM_OMEGA},
                "t1": {"dt": 1.0 / 256, "points": SPECTRUM_POINTS},
            }
        }
    if workload == "shipped":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def build_invocations(workload: str, seed: int, work: Path, repo: Path) -> list[Invocation]:
    """Write the workload's configs under `work` and return its invocations."""
    work.mkdir(parents=True, exist_ok=True)
    configs = generate_configs(workload, seed)
    paths = {}
    for stem, cfg in configs.items():
        paths[stem] = work / f"{stem}.json"
        paths[stem].write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    if workload == "scan":
        return [
            Invocation(stem, "grover-scan", paths[stem], _scan_check(cfg))
            for stem, cfg in configs.items()
        ]
    if workload == "search":
        return [
            Invocation(stem, "search", paths[stem], _search_check(cfg))
            for stem, cfg in configs.items()
        ]
    if workload == "spectrum":
        cfg = configs["spectrum"]
        return [Invocation("spectrum", "spectrum", paths["spectrum"], _spectrum_check(cfg))]

    invocations = []
    for filename, command in SHIPPED:
        path = repo / "configs" / filename
        cfg = json.loads(path.read_text())
        check = {
            "compose-bench": _compose_check,
            "spectrum": _spectrum_check,
            "grover-scan": _scan_check,
            "search": _search_check,
        }[command](cfg)
        invocations.append(Invocation(Path(filename).stem, command, path, check))
    invocations.append(Invocation("selftest", "selftest", None, _selftest_check))
    return invocations


# ---------------------------------------------------------------------------
# output checks


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def read_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def scan_rows(n: int) -> int:
    return int(4 * math.sqrt(2**n)) + 2


def _scan_check(cfg: dict):
    expected = sum(scan_rows(n) for n in cfg["n_values"])

    def check(out: Path) -> list[str]:
        rows = read_csv(out / "grover_scan.csv")
        problems = []
        if len(rows) != expected:
            problems.append(f"grover_scan.csv has {len(rows)} rows, expected {expected}")
        bad = [r for r in rows if not float(r["residual"]) <= RESIDUAL_TOL]
        if bad:
            problems.append(f"{len(bad)} scan rows with residual > {RESIDUAL_TOL:g}")
        return problems

    return check


def _search_check(cfg: dict):
    def check(out: Path) -> list[str]:
        report = read_report(out)
        problems = []
        if report["payload"]["recovered_s"] != cfg["s"]:
            problems.append(f"recovered_s {report['payload']['recovered_s']} != s {cfg['s']}")
        rows = read_csv(out / "search.csv")
        if len(rows) != cfg["n"]:
            problems.append(f"search.csv has {len(rows)} rows, expected {cfg['n']}")
        return problems

    return check


def _spectrum_check(cfg: dict):
    cross_peak = cfg.get("preset") == "cross-peak-demo"
    points = 512 if cross_peak else cfg["t1"]["points"]
    omega = None
    if cross_peak:
        omega = 2 * math.pi * 40.0  # every line at a multiple of 100 Hz - 60 Hz
    elif cfg["hamiltonian"]["kind"] == "uniform-fz":
        omega = cfg["hamiltonian"]["omega"]

    def check(out: Path) -> list[str]:
        report = read_report(out)
        problems = []
        if not report["max_residual"] <= PARSEVAL_TOL:
            problems.append(f"Parseval defect {report['max_residual']:.3e} > {PARSEVAL_TOL:g}")
        # the cross-peak demo reconverts with a different unitary on purpose
        if not cross_peak and not report["payload"]["inphase"]["holds"]:
            problems.append("inphase check does not hold")
        for name in ("timeseries.csv", "spectrum.csv"):
            rows = read_csv(out / name)
            if len(rows) != points:
                problems.append(f"{name} has {len(rows)} rows, expected {points}")
        if omega is not None:
            for peak in report["payload"]["peaks"]:
                ratio = peak["frequency_rad_s"] / omega
                if abs(ratio - round(ratio)) > FREQ_TOL:
                    problems.append(f"peak at {peak['frequency_rad_s']} off the {omega} grid")
        return problems

    return check


def _compose_check(cfg: dict):
    def check(out: Path) -> list[str]:
        problems = []
        rows = read_csv(out / "compose_bench.csv")
        if len(rows) != 1:
            problems.append(f"compose_bench.csv has {len(rows)} rows, expected 1")
        order = read_report(out)["payload"]["fitted_order"]
        lo, hi = COMPOSE_ORDER_WINDOW
        level2 = cfg.get("method") == "cross-interaction" and cfg.get("level", 2) == 2
        if level2 and not lo <= order <= hi:
            problems.append(f"fitted order {order} outside [{lo}, {hi}]")
        return problems

    return check


def _selftest_check(out: Path) -> list[str]:
    payload = read_report(out)["payload"]
    problems = [f"selftest group {g['name']} failed" for g in payload["groups"] if not g["passed"]]
    rows = read_csv(out / "selftest.csv")
    if not payload["groups"] or len(rows) != len(payload["groups"]):
        problems.append(f"selftest.csv has {len(rows)} rows for {len(payload['groups'])} groups")
    return problems


def output_digest(out: Path) -> dict[str, object]:
    """What must repeat across passes: CSV bytes, and report.json without
    its duration (the one field the CLI documents as volatile)."""
    digest: dict[str, object] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
    }
    report = read_report(out)
    report.pop("duration_s", None)
    digest["report.json"] = report
    return digest
