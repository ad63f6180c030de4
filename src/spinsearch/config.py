"""One config schema per CLI command, and the one reader that builds them.

A schema is a frozen dataclass whose fields are the command's config keys,
each with a declared type, default and range (`key`).  `parse` reads a
JSON object into it: keys the schema does not declare are rejected at
every depth, JSON booleans are no numbers, every number must be finite
and inside its range, and nested objects are schemas of their own.  The
schema's __post_init__ then builds the domain objects the command needs
(MarkedState, SpinHamiltonian, PipelineConfig, ...), so their own checks
run before any numerics; a ValueError or TypeError they raise becomes a
ConfigError.

Keys declared with a None default belong to variants (a spectrum preset,
a composition method or operator pair, a Hamiltonian kind): each variant
lists the keys it uses with their defaults, and a key it does not use must
not be given.
"""

import math
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Literal, Union, get_args, get_origin

import numpy as np

from .composition import FOURTH_ORDER_WEIGHTS, palindromic_weights
from .mqalgebra import require_order_separation
from .oracle import MarkedState
from .sequences import auto_m_max, initial_state
from .spectroscopy import CROSS_PEAK_A, CROSS_PEAK_B, CROSS_PEAK_N, NyquistError, PipelineConfig, SpinHamiltonian

# Size bounds, checked before anything is allocated; the README states the
# measured envelope of the corner configs where they meet.
N_MAX = 8  # work qubits; the explicit-oracle search runs on 2**(n+2) states
T1_POINTS_MAX = 2**14  # run_pipeline holds a slab of points x K, K <= 2**n
COMPOSE_DIM_MAX = 2**8  # cross-interaction level 4 is the slowest method
GROVER_M_MAX = 4096  # one N x N operator stepped across m
COMPOSE_M_MAX = 2**10  # step powers by repeated squaring
CROSS_PEAK_N1_MAX = 2**12  # one phase cycle of N1 steps at n = 4
# Magnitude bounds on float keys, far from where a sweep saw overflow (README)
VALUE_MAX = 1e12  # times, angles, frequencies, couplings and polarizations
# Smallest nonzero dwell time, label frequency or polarization: peak orders
# (frequency / omega) and polarization ratios stay finite
VALUE_MIN = 1e-24
DOMINANCE_MAX = 1e5  # the cross-peak generator fails its Hermiticity check from 1.8e6


class ConfigError(ValueError):
    """Configuration file failed schema validation."""


schema = dataclass(frozen=True, kw_only=True, eq=False, repr=False)
REQUIRED = object()  # marks a key a variant cannot do without


def key(default=MISSING, *, lo=None, hi=None):
    """A config key; lo and hi bound every number in its value."""
    return field(default=default, metadata={"lo": lo, "hi": hi})


def derived():
    """An attribute the schema builds from its keys; not a config key."""
    return field(init=False, repr=False, compare=False)


def _set(obj, **values):
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _variant(obj, label: str, table: dict):
    """Fill in the defaults `table` gives for the chosen variant; reject a
    variant key the table does not list, and a REQUIRED one left unset."""
    for f in fields(obj):
        if f.init and f.default is None and f.name not in table and getattr(obj, f.name) is not None:
            raise ValueError(f"key {f.name!r} does not apply to {label}")
    for name, default in table.items():
        if getattr(obj, name) is None:
            if default is REQUIRED:
                raise ValueError(f"{label} needs the key {name!r}")
            _set(obj, **{name: default})


def _describe(tp, meta) -> str:
    """What a value of declared type tp must be, in words."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return " or ".join(repr(a) for a in args)
    if origin in (Union, types.UnionType):
        return " or ".join(_describe(a, meta) for a in args if a is not type(None))
    if origin is list:
        return f"a list, each {_describe(args[0], meta)}"
    if origin is tuple:
        return f"a list of {len(args)}: " + ", ".join(_describe(a, meta) for a in args)
    if is_dataclass(tp):
        return "a JSON object"
    if tp is str:
        return "a string"
    lo, hi = meta.get("lo"), meta.get("hi")
    if lo is not None and hi is not None:
        bounds = f" in [{lo:g}, {hi:g}]"
    else:
        bounds = f" >= {lo:g}" if lo is not None else f" <= {hi:g}" if hi is not None else ""
    return ("an integer" if tp is int else "a finite number") + bounds


def _number(tp, value):
    """value as a finite number of type tp (int takes whole floats), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        if not math.isfinite(value):
            return None
    except OverflowError:  # an int too large for a float
        return value if tp is int else None
    if tp is float:
        return float(value)
    return int(value) if float(value).is_integer() else None


def _read(tp, value, name: str, meta):
    """value checked against declared type tp; raises ConfigError."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        arms = [a for a in args if a is not type(None)]
        if len(arms) == 1:  # an optional key: None only stands for "not given"
            return _read(arms[0], value, name, meta)
        for arm in arms:
            try:
                return _read(arm, value, name, meta)
            except ConfigError:
                pass
    elif origin is Literal:
        for choice in args:
            if value == choice and not isinstance(value, bool):
                return choice
    elif origin is list and isinstance(value, list):
        return [_read(args[0], v, f"{name}[{i}]", meta) for i, v in enumerate(value)]
    elif origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_read(a, v, f"{name}[{i}]", meta) for i, (a, v) in enumerate(zip(args, value)))
    elif is_dataclass(tp) and isinstance(value, dict):
        return parse(tp, value, f"{name}.")
    elif tp is str and isinstance(value, str):
        return value
    elif tp in (int, float):
        number = _number(tp, value)
        lo, hi = meta.get("lo"), meta.get("hi")
        if number is not None and (lo is None or number >= lo) and (hi is None or number <= hi):
            return number
    raise ConfigError(f"config key {name!r} must be {_describe(tp, meta)}, got {value!r}")


def parse(schema_cls, cfg: dict, where: str = ""):
    """Build schema_cls from a JSON object: the one place a config is checked."""
    declared = {f.name: f for f in fields(schema_cls) if f.init}
    unknown = sorted(set(cfg) - set(declared))
    if unknown:
        raise ConfigError(
            f"unknown config keys {[where + k for k in unknown]}; allowed: {sorted(declared)}"
        )
    values = {}
    for name, f in declared.items():
        if name in cfg:
            values[name] = _read(f.type, cfg[name], where + name, f.metadata)
        elif f.default is MISSING:
            raise ConfigError(f"missing required config key {where + name!r}")
    try:
        return schema_cls(**values)
    except NyquistError:
        raise  # a t1 grid too coarse for the Hamiltonian keeps its own exit code
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _check_floor(name: str, values) -> None:
    """Reject a nonzero magnitude below VALUE_MIN."""
    mags = np.abs(np.asarray(values, dtype=float))
    if np.any((mags > 0) & (mags < VALUE_MIN)):
        raise ValueError(f"{name} must be 0 or at least {VALUE_MIN:g} in magnitude, got {values!r}")


def _eps_vector(epsilons, n: int) -> np.ndarray:
    """The polarization vector of an `epsilons` key for n work qubits."""
    if epsilons == "uniform":
        return np.ones(n)
    if len(epsilons) != n:
        raise ValueError(f"epsilons must be 'uniform' or a list of {n} numbers")
    _check_floor("epsilons", epsilons)  # a scan divides by the read spin's polarization
    return np.asarray(epsilons, dtype=float)


# ---------------------------------------------------------------------------
# the schemas


@schema
class SearchConfig:
    n: int = key(lo=1, hi=N_MAX)
    s: int = key()
    theta: float = key(-np.pi / 2)
    aux_mode: Literal["selective-cs", "explicit-uf"] = key("selective-cs")
    epsilons: Literal["uniform"] | list[float] = key("uniform", lo=-VALUE_MAX, hi=VALUE_MAX)
    seed: int = key(0, lo=0)
    marked: MarkedState = derived()
    eps: np.ndarray = derived()

    def __post_init__(self):
        eps = _eps_vector(self.epsilons, self.n)
        if np.any(eps == 0):
            raise ValueError("search needs a nonzero epsilon on every work qubit")
        _set(self, marked=MarkedState(s=self.s, n=self.n), eps=eps)


@schema
class GroverScanConfig:
    n_values: list[int] = key((2, 3, 4), lo=1, hi=N_MAX)
    s: int = key(0)
    k: int = key(1, lo=1)
    m_max: Literal["auto"] | int = key("auto", lo=0, hi=GROVER_M_MAX)
    epsilons: Literal["uniform"] | list[float] = key("uniform", lo=-VALUE_MAX, hi=VALUE_MAX)
    seed: int = key(0, lo=0)
    plan: tuple = derived()  # (marked, eps, m_max) per n, all checked before the first runs

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("n_values must list at least one qubit count")
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"n_values must not repeat an entry, got {self.n_values}")
        plan = []
        for n in self.n_values:
            marked = MarkedState(s=self.s, n=n)
            if self.k > n:
                raise ValueError(f"k={self.k} out of range for n={n}")
            eps = _eps_vector(self.epsilons, n)
            if eps[self.k - 1] == 0:
                raise ValueError(f"epsilon of the read spin k={self.k} must be nonzero")
            m_max = auto_m_max(2**n) if self.m_max == "auto" else self.m_max
            plan.append((marked, eps, m_max))
        _set(self, plan=tuple(plan))


HAMILTONIAN_KINDS = {
    "uniform-fz": {"omega": REQUIRED},
    "weak-coupling": {"offsets": REQUIRED, "couplings": ()},
}


@schema
class HamiltonianConfig:
    kind: Literal[tuple(HAMILTONIAN_KINDS)] = key()
    omega: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    offsets: list[float] | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    couplings: list[tuple[int, int, float]] | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)  # [k, l, J_hz]

    def __post_init__(self):
        _variant(self, f"hamiltonian kind {self.kind!r}", HAMILTONIAN_KINDS[self.kind])
        if self.kind == "uniform-fz":  # peak orders are frequency / omega
            _check_floor("hamiltonian.omega", self.omega)

    def build(self, n: int) -> SpinHamiltonian:
        if self.kind == "uniform-fz":
            return SpinHamiltonian.uniform_fz(n, self.omega)
        return SpinHamiltonian.weak_coupling(n, self.offsets, self.couplings)


@schema
class T1Config:
    dt: float = key(lo=VALUE_MIN, hi=VALUE_MAX)
    points: int = key(hi=T1_POINTS_MAX)


# The cross-peak demo's fixed keys, set once _variant has refused them as
# user keys: spectroscopy's A + B split, A labeled at 100 Hz and B at 60 Hz.
# Its spectrum's orders count the A - B offset difference.
_OMEGA_A, _OMEGA_B = 2 * np.pi * 100.0, 2 * np.pi * 60.0
_CROSS_PEAK_LABEL = _OMEGA_A - _OMEGA_B
_CROSS_PEAK_KEYS = {
    "n": CROSS_PEAK_N,
    "epsilons": [1.0, 0.8, 1.2, 0.9],
    "p_axis": "z",
    "detect_axis": "z",
    "phi": 0.0,
    "hamiltonian": HamiltonianConfig(
        kind="weak-coupling", offsets=[_OMEGA_A] * CROSS_PEAK_A + [_OMEGA_B] * CROSS_PEAK_B
    ),
    "t1": T1Config(dt=1.0 / 1024, points=512),
}
_LABELED = {
    "n": REQUIRED,
    "epsilons": "uniform",
    "p_axis": "z",
    "detect_axis": "z",
    "phi": 0.0,
    "hamiltonian": REQUIRED,
    "t1": REQUIRED,
}
SPECTRUM_PRESETS = {
    "grover-excitation": {**_LABELED, "s": REQUIRED, "iterations": 2},
    "identity": _LABELED,
    "cross-peak-demo": {
        "s": 5, "N1": 2 * CROSS_PEAK_N + 1, "tau_u": 0.8, "tau_v": 0.6, "dominance": 5.0,
    },
}


@schema
class SpectrumConfig:
    preset: Literal[tuple(SPECTRUM_PRESETS)] = key("grover-excitation")
    n: int | None = key(None, lo=1, hi=N_MAX)
    s: int | None = key(None)
    iterations: int | None = key(None, lo=0, hi=GROVER_M_MAX)
    epsilons: Literal["uniform"] | list[float] | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    p_axis: Literal["x", "y", "z"] | None = key(None)
    detect_axis: Literal["x", "y", "z"] | None = key(None)
    phi: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    hamiltonian: HamiltonianConfig | None = key(None)
    t1: T1Config | None = key(None)
    N1: int | None = key(None, hi=CROSS_PEAK_N1_MAX)
    tau_u: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    tau_v: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    dominance: float | None = key(None, lo=-DOMINANCE_MAX, hi=DOMINANCE_MAX)
    seed: int = key(0, lo=0)
    marked: MarkedState | None = derived()
    rho0: np.ndarray = derived()
    pipe: PipelineConfig = derived()
    label_omega: float | None = derived()

    def __post_init__(self):
        _variant(self, f"preset {self.preset!r}", SPECTRUM_PRESETS[self.preset])
        demo = self.preset == "cross-peak-demo"
        if demo:
            require_order_separation(CROSS_PEAK_N, self.N1)
            _set(self, **_CROSS_PEAK_KEYS)
        h_evol = self.hamiltonian.build(self.n)
        eps = _eps_vector(self.epsilons, self.n)
        pipe = PipelineConfig(h_evol, self.t1.dt, self.t1.points)
        pipe.validate()
        marked = None if self.s is None else MarkedState(s=self.s, n=self.n)
        _set(self, marked=marked, pipe=pipe, rho0=initial_state(self.n, eps, self.p_axis))
        _set(self, label_omega=_CROSS_PEAK_LABEL if demo else self.hamiltonian.omega)


COMPOSE_METHODS = {
    "trotter": {"t": 1.0, "m": 16},
    "commutator": {"m": 100},
    "sandwich": {"x": 0.2, "order_side": "A-outer"},
    "cross-interaction": {"x": 0.1, "level": 2},
    "fractal": {"x": 0.2, "p_list": FOURTH_ORDER_WEIGHTS, "order_side": "A-outer", "mode": "compose"},
}


@schema
class ComposeBenchConfig:
    method: Literal[tuple(COMPOSE_METHODS)] = key()
    operators: Literal["random", "su2-zx", "commuting"] = key("random")
    dim: int | None = key(None, lo=1, hi=COMPOSE_DIM_MAX)
    t: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    m: int | None = key(None, lo=1, hi=COMPOSE_M_MAX)
    x: float | None = key(None, lo=-VALUE_MAX, hi=VALUE_MAX)
    level: Literal[2, 4] | None = key(None)
    p_list: list[float] | None = key(None)
    order_side: Literal["A-outer", "B-outer"] | None = key(None)
    mode: Literal["compose", "difference"] | None = key(None)
    seed: int = key(7, lo=0)

    def __post_init__(self):
        if self.operators == "su2-zx" and self.dim is not None:
            raise ValueError("key 'dim' does not apply to operators 'su2-zx' (a fixed 2x2 pair)")
        _variant(self, f"method {self.method!r}", {**COMPOSE_METHODS[self.method], "dim": 4})
        if self.p_list is not None:
            palindromic_weights(self.p_list)


@schema
class SelftestConfig:
    seed: int = key(0, lo=0)
