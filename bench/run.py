"""spinsearch benchmark: whole CLI runs as subprocesses, plus a traced run.

    python3 bench/run.py --workload <scan|search|spectrum|shipped> \
        --seed <n> --seconds <s> --trace <0|1>

The program is the checkout's src/ tree.  A pass runs every invocation of
the workload once, one `python -m spinsearch.cli` child at a time (closed
loop, one client).  Passes repeat until the next one would overrun
`--seconds`, with at least two so that the determinism check always has
a pair.  Every output is checked; an invocation that fails any check
counts in `failed`.  --trace 0 reports the end-to-end metrics, medians
over passes; --trace 1 runs one untraced pass and then the workload twice
in this process with every layer wrapped (tracer.py), and reports the
per-layer metrics.  bench/README.md defines each metric.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The full record, with a machine block, goes to
bench/.work/BENCH_<workload>.json."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_PASSES = 2
SETUP_SAMPLES = 7
PASS_DEADLINE_S = 150.0  # stop starting passes here, whatever --seconds says
SELF_TIME_TOL_S = 1e-6
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def program_env() -> dict[str, str]:
    """Environment of every child and of the traced in-process run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_ENV:
        env[var] = str(blas_threads())
    env.pop("SPINSEARCH_TOL_SCALE", None)  # selftest tolerances as shipped
    return env


# ---------------------------------------------------------------------------
# one invocation, as a child or in this process


@dataclass
class Outcome:
    """Measurements and problems of one invocation."""

    name: str
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    compute_s: float = 0.0
    rss_mb: float = 0.0
    digest: dict | None = None

    def finish(self, inv: workloads.Invocation, out: Path, code: int):
        if code != 0:
            self.problems.append(f"exit code {code}")
            return
        try:
            self.problems += inv.check(out)
            self.digest = workloads.output_digest(out)
            self.compute_s = float(workloads.read_report(out)["duration_s"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"unreadable output: {exc!r}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """(exit code, wall seconds, ru_maxrss in MB) of one child."""
    with log.open("wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=sink,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def subprocess_pass(invs, pass_dir: Path, env: dict) -> list[Outcome]:
    outcomes = []
    for inv in invs:
        out = fresh_dir(pass_dir / inv.name)
        outcome = Outcome(inv.name)
        code, outcome.wall_s, outcome.rss_mb = run_child(
            ["-m", "spinsearch.cli", *inv.argv(out)], env, pass_dir / f"{inv.name}.log")
        outcome.finish(inv, out, code)
        outcomes.append(outcome)
    return outcomes


def traced_pass(invs, pass_dir: Path, tracer_mod, cli) -> tuple[list[Outcome], object]:
    tracer = tracer_mod.Tracer()
    outcomes = []
    with tracer_mod.patched(tracer):
        for inv in invs:
            out = fresh_dir(pass_dir / inv.name)
            outcome = Outcome(inv.name)
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(inv.argv(out))
            except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
                code = f"exception {exc!r}"
            outcome.finish(inv, out, code)
            outcomes.append(outcome)
    return outcomes, tracer_mod.summarize(tracer.spans)


def check_determinism(passes: list[list[Outcome]]):
    """Same code, same seed: every later pass must reproduce the first."""
    reference = {o.name: o.digest for o in passes[0]}
    for outcomes in passes[1:]:
        for o in outcomes:
            ref = reference[o.name]
            if o.digest is not None and ref is not None and o.digest != ref:
                diff = sorted(k for k in set(o.digest) | set(ref) if o.digest.get(k) != ref.get(k))
                o.problems.append(f"output differs from the first pass: {', '.join(diff)}")


# ---------------------------------------------------------------------------
# modes


def measure_setup(env: dict) -> list[float]:
    log = WORK / "setup.log"
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = run_child(["-c", "import spinsearch.cli"], env, log)
        if code != 0:
            raise SystemExit(f"import spinsearch.cli failed, see {log}")
        samples.append(wall)
    return samples


def end_to_end(invs, seconds: float, env: dict):
    setup = measure_setup(env)
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed + statistics.median(durations) > seconds or elapsed > PASS_DEADLINE_S
        ):
            break
        t0 = time.perf_counter()
        passes.append(subprocess_pass(invs, WORK / "pass", env))
        durations.append(time.perf_counter() - t0)
    check_determinism(passes)

    samples = {
        "wall_s": [sum(o.wall_s for o in p) for p in passes],
        "compute_s": [sum(o.compute_s for o in p) for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [max(o.rss_mb for o in p) for p in passes],
    }
    units = {"wall_s": "s", "compute_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return passes, samples, units, []


def traced(invs, env: dict):
    import tracer as tracer_mod

    os.environ.update({k: env[k] for k in ("PYTHONPATH", *BLAS_ENV)})
    os.environ.pop("SPINSEARCH_TOL_SCALE", None)
    sys.path.insert(0, str(SRC))
    import spinsearch.cli as cli

    untraced = subprocess_pass(invs, WORK / "pass", env)
    passes, summaries = [untraced], []
    for k in range(2):
        outcomes, summary = traced_pass(invs, WORK / f"traced{k}", tracer_mod, cli)
        passes.append(outcomes)
        summaries.append(summary)
    check_determinism(passes)

    problems = []
    first, second = (tracer_mod.repeat_counts(s) for s in summaries)
    if first != second:
        problems.append("count metrics differ between the two traced passes")
    for k, s in enumerate(summaries):
        total = sum(s.layer_self_s.values())
        if abs(total - s.root_s) > SELF_TIME_TOL_S:
            problems.append(f"traced pass {k}: layer self times sum to {total:.9f} s, "
                            f"traced duration is {s.root_s:.9f} s")

    per_pass = [tracer_mod.layer_metrics(s) for s in summaries]
    samples = {name: [p[name][0] for p in per_pass] for name in per_pass[0]}
    units = {name: unit for name, (_, unit) in per_pass[0].items()}
    compute = sum(o.compute_s for o in untraced)
    samples["trace.traced_s"] = [s.root_s for s in summaries]
    samples["trace.overhead_s"] = [s.root_s - compute for s in summaries]
    units.update({"trace.traced_s": "s", "trace.overhead_s": "s"})
    return passes, samples, units, problems


# ---------------------------------------------------------------------------
# reporting


def machine_block(env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: env.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": blas_threads(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinsearch" / "cli.py").is_file():
        print(f"no spinsearch sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = program_env()
    invs = workloads.build_invocations(args.workload, args.seed, WORK / "configs", ROOT)
    if args.trace:
        passes, samples, units, problems = traced(invs, env)
    else:
        passes, samples, units, problems = end_to_end(invs, args.seconds, env)
    metrics = {name: (statistics.median(v), units[name]) for name, v in samples.items()}

    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"FAIL {o.name}: {'; '.join(o.problems)}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "invocations_per_pass": [o.name for o in passes[0]],
        "fail_frac": len(failed) / len(outcomes),
        "failures": {o.name: o.problems for o in failed},
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "machine": machine_block(env),
    }
    (WORK / f"BENCH_{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(passes[0])} invocations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:.6g} {unit}  (median of {len(samples[name])})")
    print(f"  {'fail_frac':52s} {record['fail_frac']:.6g} 1  ({len(failed)}/{len(outcomes)})")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
