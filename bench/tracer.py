"""In-process tracing of the spinsearch layers, from outside the package.

Every public function of each layer module is wrapped so that a call
records a span (name, start, end, parent span).  A function is usually
bound under several module-level names: `grover_propagator` lives in
`spinsearch.sequences` and is imported into `spinsearch.cli` and the
package `__init__`; the CLI also keeps its commands in the `COMMANDS`
dict.  `patched` replaces every one of those bindings for the duration
of a `with` block and restores them afterwards, so calls reach the
wrapper whichever name they go through.  Nothing under src/ changes.

A span's self time is its duration minus the part of its interval its
child spans cover; the self times of all spans of a call tree add up to
the duration of its root.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "spinsearch"
LAYERS = ("cli", "linalg", "oracle", "mqalgebra", "sequences", "spectroscopy",
          "composition", "selftest")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    parent: int | None  # index of the enclosing span in Tracer.spans
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments)
            return result

        traced.traced_original = fn
        return traced


def public_functions(module) -> dict[str, object]:
    """Public functions defined in `module` (not re-exported ones)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every module-level binding of each layer's public functions
    through `tracer`, including values of module-level dicts."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))

    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        namespaces = [vars(module)] + [v for v in vars(module).values() if type(v) is dict]
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((namespace, key, value))
                    namespace[key] = hit[1]
    try:
        yield tracer
    finally:
        for namespace, key, original in reversed(undo):
            namespace[key] = original


# ---------------------------------------------------------------------------
# counts recorded at layer boundaries


def _expm_counts(arguments) -> dict[str, float]:
    import numpy as np

    h = arguments["h"]
    # same test as linalg.expm_unitary: all nonzeros on the diagonal
    dense = np.count_nonzero(h) != np.count_nonzero(np.diagonal(h))
    return {"dense_calls": int(dense), "diag_calls": int(not dense),
            "dense_dim3": int(dense) * h.shape[0] ** 3}


COUNTERS = {
    "sequences.grover_propagator": lambda a: {"steps": a["m"]},
    "linalg.expm_unitary": _expm_counts,
    "spectroscopy.run_pipeline": lambda a: {"points": a["cfg"].n_points},
    "cli.write_csv": lambda a: {"bytes": Path(a["path"]).stat().st_size},
}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@dataclass
class Summary:
    """Per-function and per-layer totals of one traced pass."""

    calls: dict[str, int]
    self_s: dict[str, float]
    total_s: dict[str, float]  # span durations, children included
    counts: dict[str, dict[str, float]]
    layer_self_s: dict[str, float]
    root_s: float  # summed duration of the top-level spans


def summarize(spans: list[Span]) -> Summary:
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    layer_self_s = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
        layer_self_s[span.name.split(".", 1)[0]] += own
        for key, value in span.counts.items():
            counts[span.name][key] += value
    root_s = sum(s.end - s.start for s in spans if s.parent is None)
    return Summary(dict(calls), dict(self_s), dict(total_s),
                   {k: dict(v) for k, v in counts.items()}, layer_self_s, root_s)


# (metric name, unit, how to read it off a Summary)
def _calls(name):
    return lambda s: s.calls.get(name, 0)


def _self(name):
    return lambda s: s.self_s.get(name, 0.0)


def _total(name):
    return lambda s: s.total_s.get(name, 0.0)


def _count(name, key):
    return lambda s: s.counts.get(name, {}).get(key, 0)


def _diag_frac(s: Summary) -> float:
    calls = s.calls.get("linalg.expm_unitary", 0)
    return _count("linalg.expm_unitary", "diag_calls")(s) / calls if calls else 0.0


def _command_self(s: Summary) -> float:
    return sum(v for k, v in s.self_s.items() if k.startswith("cli.cmd_"))


LAYER_METRICS = [
    ("sequences.grover_propagator.calls", "count", _calls("sequences.grover_propagator")),
    ("sequences.grover_propagator.self_s", "s", _self("sequences.grover_propagator")),
    ("sequences.grover_propagator.steps", "count", _count("sequences.grover_propagator", "steps")),
    ("sequences.grover_propagator.total_s", "s", _total("sequences.grover_propagator")),
    ("sequences.projector_x_basis.calls", "count", _calls("sequences.projector_x_basis")),
    ("sequences.projector_x_basis.self_s", "s", _self("sequences.projector_x_basis")),
    ("sequences.measured_conversion_coefficient.self_s", "s",
     _self("sequences.measured_conversion_coefficient")),
    ("sequences.simple_search.self_s", "s", _self("sequences.simple_search")),
    ("sequences.conjugate_selective.self_s", "s", _self("sequences.conjugate_selective")),
    ("sequences.initial_state.self_s", "s", _self("sequences.initial_state")),
    ("oracle.oracle_uo.self_s", "s", _self("oracle.oracle_uo")),
    ("oracle.oracle_uf.self_s", "s", _self("oracle.oracle_uf")),
    ("mqalgebra.gradient_crush.self_s", "s", _self("mqalgebra.gradient_crush")),
    ("mqalgebra.zq_dephase.self_s", "s", _self("mqalgebra.zq_dephase")),
    ("linalg.expm_unitary.calls", "count", _calls("linalg.expm_unitary")),
    ("linalg.expm_unitary.self_s", "s", _self("linalg.expm_unitary")),
    ("linalg.expm_unitary.dense_calls", "count", _count("linalg.expm_unitary", "dense_calls")),
    ("linalg.expm_unitary.diag_frac", "1", _diag_frac),
    ("linalg.expm_unitary.dense_dim3", "count", _count("linalg.expm_unitary", "dense_dim3")),
    ("spectroscopy.run_pipeline.self_s", "s", _self("spectroscopy.run_pipeline")),
    ("spectroscopy.run_pipeline.points", "count", _count("spectroscopy.run_pipeline", "points")),
    ("spectroscopy.run_pipeline.total_s", "s", _total("spectroscopy.run_pipeline")),
    ("spectroscopy.spectrum.self_s", "s", _self("spectroscopy.spectrum")),
    ("spectroscopy.inphase_check.self_s", "s", _self("spectroscopy.inphase_check")),
    ("oracle.diag_projector.calls", "count", _calls("oracle.diag_projector")),
    ("oracle.diag_projector.self_s", "s", _self("oracle.diag_projector")),
    ("linalg.spin_op.calls", "count", _calls("linalg.spin_op")),
    ("linalg.spin_op.self_s", "s", _self("linalg.spin_op")),
    ("linalg.total_op.self_s", "s", _self("linalg.total_op")),
    ("linalg.matrix_log_skew.calls", "count", _calls("linalg.matrix_log_skew")),
    ("linalg.matrix_log_skew.self_s", "s", _self("linalg.matrix_log_skew")),
    ("mqalgebra.phase_cycle_project.self_s", "s", _self("mqalgebra.phase_cycle_project")),
    ("selftest.run_selftest.self_s", "s", _self("selftest.run_selftest")),
    ("cli.load_config.self_s", "s", _self("cli.load_config")),
    ("cli.write_csv.self_s", "s", _self("cli.write_csv")),
    ("cli.write_csv.bytes", "count", _count("cli.write_csv", "bytes")),
    ("cli.command.self_s", "s", _command_self),
    ("cli.main.self_s", "s", _self("cli.main")),
] + [(f"{layer}.self_s", "s", (lambda s, layer=layer: s.layer_self_s[layer])) for layer in LAYERS]


def layer_metrics(summary: Summary) -> dict[str, tuple[float, str]]:
    return {name: (read(summary), unit) for name, unit, read in LAYER_METRICS}


def repeat_counts(summary: Summary) -> dict:
    """The part of a summary that must repeat exactly between traced passes."""
    return {"calls": summary.calls, "counts": summary.counts}
