"""Config schemas: every defect exits 2 before any numerics run.

Each bad config runs through cli.main in process with every binding of
every numerics entry point replaced by a function that fails the test
(conftest's no_numerics), so an exit code of 2 with no output files shows
that the config was rejected before anything was computed.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsearch import cli
from spinsearch.config import (
    COMPOSE_DIM_MAX,
    COMPOSE_M_MAX,
    CROSS_PEAK_N1_MAX,
    DOMINANCE_MAX,
    GROVER_M_MAX,
    T1_POINTS_MAX,
    VALUE_MAX,
    VALUE_MIN,
    ConfigError,
    SelftestConfig,
    SpectrumConfig,
    T1Config,
    parse,
)
from spinsearch.selftest import InvariantResult

from reference import run_cli

UNIFORM_H = {"kind": "uniform-fz", "omega": 2 * math.pi * 10}
GROVER = {
    "preset": "grover-excitation",
    "n": 2,
    "s": 1,
    "hamiltonian": UNIFORM_H,
    "t1": {"dt": 1 / 256, "points": 64},
}
WEAK = {
    "preset": "identity",
    "n": 2,
    "hamiltonian": {"kind": "weak-coupling", "offsets": [10.0, 20.0]},
    "t1": {"dt": 1 / 256, "points": 64},
}


def assert_rejected(tmp_path, capsys, command, cfg):
    code, out, _ = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert list(out.iterdir()) == []  # no report.json, no CSV
    return err


BAD_CONFIGS = {
    "spectrum-negative-iterations": ("spectrum", {**GROVER, "iterations": -1}),
    "spectrum-offset-count": (
        "spectrum", {**WEAK, "hamiltonian": {"kind": "weak-coupling", "offsets": [1.0]}},
    ),
    "spectrum-detect-axis-q": ("spectrum", {**GROVER, "detect_axis": "q"}),
    "spectrum-nested-nan-dt": ("spectrum", {**GROVER, "t1": {"dt": math.nan, "points": 64}}),
    "spectrum-zero-points": ("spectrum", {**GROVER, "t1": {"dt": 1 / 256, "points": 0}}),
    "spectrum-bogus-key": ("spectrum", {**GROVER, "bogus": 1}),
    "spectrum-coupling-spin-out-of-range": (
        "spectrum",
        {**WEAK, "hamiltonian": {**WEAK["hamiltonian"], "couplings": [[1, 5, 2.0]]}},
    ),
    "cross-peak-zero-N1": ("spectrum", {"preset": "cross-peak-demo", "N1": 0}),
    "cross-peak-with-hamiltonian": ("spectrum", {"preset": "cross-peak-demo", "hamiltonian": UNIFORM_H}),
    "identity-with-marked-index": ("spectrum", {**WEAK, "s": 1}),
    "fractal-mode-zzz": ("compose-bench", {"method": "fractal", "mode": "zzz"}),
    "compose-zero-dim": ("compose-bench", {"method": "trotter", "dim": 0}),
    "cross-interaction-level-3": ("compose-bench", {"method": "cross-interaction", "level": 3}),
    "trotter-zero-m": ("compose-bench", {"method": "trotter", "m": 0}),
    "compose-misspelt-method": ("compose-bench", {"metod": "trotter"}),
    "trotter-with-level": ("compose-bench", {"method": "trotter", "level": 2}),
    "fractal-weights-not-summing-to-one": ("compose-bench", {"method": "fractal", "p_list": [0.5, 0.4]}),
    "compose-negative-seed": ("compose-bench", {"method": "sandwich", "seed": -1}),
    "su2-zx-with-dim": ("compose-bench", {"method": "commutator", "operators": "su2-zx", "dim": 7}),
    "search-string-epsilons": ("search", {"n": 2, "s": 1, "epsilons": ["a", "b"]}),
    "search-boolean-n": ("search", {"n": True, "s": 0}),
    "search-boolean-theta": ("search", {"n": 3, "s": 5, "theta": True}),
    "search-infinite-theta": ("search", {"n": 3, "s": 5, "theta": math.inf}),
    "search-huge-integer-theta": ("search", {"n": 3, "s": 5, "theta": 10**400}),
    "scan-misspelt-m_max": ("grover-scan", {"n_values": [2], "m_mx": 3}),
    "scan-nan-epsilon": ("grover-scan", {"n_values": [2], "epsilons": [1.0, math.nan]}),
    "scan-k-out-of-range": ("grover-scan", {"n_values": [2, 3], "k": 3}),
    "scan-repeated-n": ("grover-scan", {"n_values": [3, 2, 3]}),
    "selftest-unknown-key": ("selftest", {"bogus": 1}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_exits_2_before_numerics(tmp_path, capsys, no_numerics, name):
    command, cfg = BAD_CONFIGS[name]
    assert_rejected(tmp_path, capsys, command, cfg)


# files that fail before any schema check: undecodable, too deeply nested,
# or holding an integer past Python's 4300-digit conversion limit
UNREADABLE = {
    "utf-16-bytes": b"\xff\xfe\x00{",
    "nested-200000-deep": b"[" * 200_000 + b"]" * 200_000,
    "integer-of-5000-digits": b'{"n": 3, "s": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_config_exits_2_before_numerics(tmp_path, capsys, no_numerics, name):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_bytes(UNREADABLE[name])
    assert cli.main(["search", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert list(out.iterdir()) == []


UNKNOWN_KEY = {
    "search": {"n": 2, "s": 1, "extra": 0},
    "grover-scan": {"n_values": [2], "extra": 0},
    "spectrum": {**GROVER, "extra": 0},
    "spectrum.hamiltonian": {**GROVER, "hamiltonian": {**UNIFORM_H, "extra": 0}},
    "spectrum.t1": {**GROVER, "t1": {"dt": 1 / 256, "points": 64, "extra": 0}},
    "compose-bench": {"method": "trotter", "extra": 0},
    "selftest": {"extra": 0},
}


@pytest.mark.parametrize("where", sorted(UNKNOWN_KEY))
def test_unknown_key_exits_2(tmp_path, capsys, no_numerics, where):
    command, _, nested = where.partition(".")
    err = assert_rejected(tmp_path, capsys, command, UNKNOWN_KEY[where])
    assert repr(f"{nested}.extra" if nested else "extra") in err


@pytest.mark.parametrize("command", sorted(cli.SCHEMAS))
def test_every_command_declares_seed(command):
    assert "seed" in {f.name for f in fields(cli.SCHEMAS[command]) if f.init}


def test_seed_is_accepted(tmp_path):
    assert parse(SelftestConfig, {"seed": 4}).seed == 4
    code, _, _ = run_cli(tmp_path, "spectrum", {**GROVER, "seed": 4})
    assert code == 0


OVER_BOUND = {
    "t1-points": ("spectrum", {**GROVER, "t1": {"dt": 1 / 256, "points": 2 * T1_POINTS_MAX}}),
    "compose-dim": ("compose-bench", {"method": "trotter", "dim": COMPOSE_DIM_MAX + 1}),
    "commutator-m": ("compose-bench", {"method": "commutator", "m": COMPOSE_M_MAX + 1}),
    "cross-peak-N1": ("spectrum", {"preset": "cross-peak-demo", "N1": CROSS_PEAK_N1_MAX + 1}),
    "scan-m_max": ("grover-scan", {"n_values": [8], "m_max": GROVER_M_MAX + 1}),
    "spectrum-iterations": ("spectrum", {**GROVER, "iterations": GROVER_M_MAX + 1}),
    "search-n": ("search", {"n": 9, "s": 0}),
}


@pytest.mark.parametrize("name", sorted(OVER_BOUND))
def test_size_over_bound_exits_2_before_numerics(tmp_path, capsys, no_numerics, name):
    command, cfg = OVER_BOUND[name]
    assert_rejected(tmp_path, capsys, command, cfg)


IDENTITY_N4 = {
    "preset": "identity",
    "n": 4,
    "hamiltonian": UNIFORM_H,
    "t1": {"dt": 1 / 256, "points": 64},
}
ALL_COUPLED = [[k, l] for k in range(1, 5) for l in range(k + 1, 5)]


def float_keys(v, dominance):
    """One config per magnitude-bounded float key, at value v (dominance
    for the cross-peak demo), sized so the t1 grid stays under Nyquist."""
    fast = {"dt": 1 / (64 * abs(v)), "points": 16}
    return {
        "compose-x-sandwich": ("compose-bench", {"method": "sandwich", "x": v}),
        "compose-x-cross-interaction": ("compose-bench", {"method": "cross-interaction", "x": v}),
        "compose-x-cross-interaction-dim-64": (
            "compose-bench", {"method": "cross-interaction", "x": v, "dim": 64},
        ),
        "compose-x-fractal": ("compose-bench", {"method": "fractal", "x": v}),
        "trotter-t": ("compose-bench", {"method": "trotter", "t": v}),
        "spectrum-phi": ("spectrum", {**IDENTITY_N4, "phi": v}),
        "uniform-fz-omega": (
            "spectrum", {**IDENTITY_N4, "hamiltonian": {"kind": "uniform-fz", "omega": v}, "t1": fast},
        ),
        "weak-coupling-offsets": (
            "spectrum",
            {**IDENTITY_N4, "hamiltonian": {"kind": "weak-coupling", "offsets": [v] * 4}, "t1": fast},
        ),
        "weak-coupling-J": (
            "spectrum",
            {
                **IDENTITY_N4,
                "hamiltonian": {
                    "kind": "weak-coupling",
                    "offsets": [0.0] * 4,
                    "couplings": [[k, l, v] for k, l in ALL_COUPLED],
                },
                "t1": {"dt": 1 / (64 * 2 * math.pi * len(ALL_COUPLED) * abs(v)), "points": 16},
            },
        ),
        "cross-peak-tau_u": ("spectrum", {"preset": "cross-peak-demo", "tau_u": v}),
        "cross-peak-tau_v": ("spectrum", {"preset": "cross-peak-demo", "tau_v": v}),
        "cross-peak-dominance": ("spectrum", {"preset": "cross-peak-demo", "dominance": dominance}),
        "scan-epsilons": ("grover-scan", {"n_values": [3], "epsilons": [v] * 3}),
        "spectrum-epsilons": ("spectrum", {**IDENTITY_N4, "epsilons": [v] * 4}),
        "search-epsilons": ("search", {"n": 3, "s": 5, "epsilons": [v] * 3, "aux_mode": "explicit-uf"}),
    }


def floor_keys(v):
    """One config per float key whose nonzero magnitude has a floor, at
    value v, each next to the largest values its quotients meet: peak
    orders are frequency / omega, and a scan divides by the read spin's
    polarization."""
    return {
        "dt-and-omega-floor": (
            "spectrum",
            {**IDENTITY_N4, "hamiltonian": {"kind": "uniform-fz", "omega": v}, "t1": {"dt": abs(v), "points": 16}},
        ),
        "scan-epsilons-floor": ("grover-scan", {"n_values": [3], "epsilons": [v, VALUE_MAX, VALUE_MAX]}),
        "spectrum-epsilons-floor": ("spectrum", {**IDENTITY_N4, "epsilons": [v, VALUE_MAX, 1.0, 0.0]}),
    }


# values that used to break the exit-code contract: an uncaught exception
# (exit 1), or exit 0 with NaN in the outputs
UNBOUNDED_FLOATS = {
    "cross-interaction-x-1e300": ("compose-bench", {"method": "cross-interaction", "x": 1e300}),
    "sandwich-x-1.7e308": ("compose-bench", {"method": "sandwich", "x": 1.7e308}),
    "trotter-t-1.7e308": ("compose-bench", {"method": "trotter", "t": 1.7e308}),
    "cross-interaction-x-5e102-dim-64": (
        "compose-bench", {"method": "cross-interaction", "x": 5e102, "dim": 64},
    ),
    "cross-peak-dominance-1e7": ("spectrum", {"preset": "cross-peak-demo", "dominance": 1e7}),
    "cross-peak-tau_u-1e308": ("spectrum", {"preset": "cross-peak-demo", "tau_u": 1e308}),
    "identity-n4-phi-1.7e308": ("spectrum", {**IDENTITY_N4, "phi": 1.7e308}),
    "uniform-fz-omega-1.7e308": (
        "spectrum", {**IDENTITY_N4, "hamiltonian": {"kind": "uniform-fz", "omega": 1.7e308}},
    ),
    "uniform-fz-omega-1e-310": (
        "spectrum",
        {
            "preset": "identity",
            "n": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": 1e-310},
            "t1": {"dt": 0.00390625, "points": 16},
        },
    ),
    "t1-dt-5e-324": (
        "spectrum",
        {
            "preset": "identity",
            "n": 2,
            "hamiltonian": {"kind": "uniform-fz", "omega": 1.0},
            "t1": {"dt": 5e-324, "points": 16},
        },
    ),
    "scan-epsilons-1e308": ("grover-scan", {"n_values": [2], "epsilons": [1e308, 1e308]}),
    "scan-epsilons-1e-310": ("grover-scan", {"n_values": [2], "epsilons": [1e-310, 1.0]}),
    **{
        f"{name}-over-bound": case
        for name, case in float_keys(-1.01 * VALUE_MAX, -1.01 * DOMINANCE_MAX).items()
    },
    **{f"{name}-under-floor": case for name, case in floor_keys(0.99 * VALUE_MIN).items()},
}


@pytest.fixture
def no_command(monkeypatch):
    def fail(cfg, out):
        raise AssertionError("the command ran before the config was rejected")

    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, fail)


@pytest.mark.parametrize("name", sorted(UNBOUNDED_FLOATS))
def test_float_over_bound_exits_2_before_numerics(tmp_path, capsys, no_command, name):
    command, cfg = UNBOUNDED_FLOATS[name]
    assert_rejected(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(float_keys(1.0, 1.0)) + sorted(floor_keys(1.0)))
def test_float_at_bound_runs_clean(tmp_path, name, sign):
    at_bound = {**float_keys(sign * VALUE_MAX, sign * DOMINANCE_MAX), **floor_keys(sign * VALUE_MIN)}
    command, cfg = at_bound[name]
    code, out, report = run_cli(tmp_path, command, cfg)
    assert code == 0 and report is not None
    for csv in out.glob("*.csv"):
        assert "nan" not in csv.read_text().lower()


def test_size_bounds_are_inclusive():
    assert parse(T1Config, {"dt": 0.1, "points": T1_POINTS_MAX}).points == T1_POINTS_MAX
    with pytest.raises(ConfigError, match="16384"):
        parse(T1Config, {"dt": 0.1, "points": T1_POINTS_MAX + 1})
    assert parse(cli.SCHEMAS["compose-bench"], {"method": "trotter", "dim": COMPOSE_DIM_MAX}).dim == 256
    scan = parse(cli.SCHEMAS["grover-scan"], {"n_values": [2], "m_max": GROVER_M_MAX})
    assert scan.plan[0][2] == GROVER_M_MAX
    assert parse(cli.SCHEMAS["compose-bench"], {"method": "commutator", "m": COMPOSE_M_MAX}).m == 1024
    assert parse(SpectrumConfig, {"preset": "cross-peak-demo", "N1": CROSS_PEAK_N1_MAX}).N1 == 4096
    assert len(parse(cli.SCHEMAS["grover-scan"], {"n_values": list(range(1, 9))}).plan) == 8


def test_whole_floats_read_as_integers():
    cfg = parse(SpectrumConfig, {**GROVER, "n": 2.0, "s": 1.0, "iterations": 3.0})
    assert (type(cfg.n), type(cfg.marked.s), type(cfg.iterations)) == (int, int, int)
    with pytest.raises(ConfigError):
        parse(SpectrumConfig, {**GROVER, "iterations": 1.5})


def test_variant_defaults_are_filled():
    cfg = parse(cli.SCHEMAS["compose-bench"], {"method": "commutator"})
    assert (cfg.m, cfg.x, cfg.level) == (100, None, None)
    cfg = parse(cli.SCHEMAS["compose-bench"], {"method": "cross-interaction"})
    assert (cfg.x, cfg.level, cfg.m) == (0.1, 2, None)
    demo = parse(SpectrumConfig, {"preset": "cross-peak-demo"})
    assert (demo.s, demo.N1, demo.n, demo.p_axis) == (5, 9, 4, "z")


def test_axis_keys_name_their_choices():
    with pytest.raises(ConfigError, match="'detect_axis' must be 'x' or 'y' or 'z', got 'q'"):
        parse(SpectrumConfig, {**GROVER, "detect_axis": "q"})


def test_nyquist_violation_at_parse_keeps_exit_4(tmp_path, capsys, no_numerics):
    code, out, _ = run_cli(tmp_path, "spectrum", {**GROVER, "t1": {"dt": 0.1, "points": 64}})
    assert code == 4
    assert "sampling error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# fuzzer: drawn configs keep the exit-code contract and never raise


SMALL_VALID = {
    "search": {"n": 2, "s": 1, "theta": -1.0, "aux_mode": "explicit-uf", "epsilons": [1.0, 0.5]},
    "grover-scan": {"n_values": [2, 3], "s": 1, "k": 2, "m_max": 5, "epsilons": "uniform"},
    "spectrum": {
        "preset": "grover-excitation",
        "n": 2,
        "s": 1,
        "iterations": 1,
        "epsilons": [1.0, 0.8],
        "p_axis": "x",
        "detect_axis": "x",
        "hamiltonian": {"kind": "weak-coupling", "offsets": [10.0, 20.0], "couplings": [[1, 2, 1.0]]},
        "t1": {"dt": 1 / 64, "points": 16},
    },
    "compose-bench": {"method": "fractal", "dim": 3, "x": 0.2, "mode": "difference"},
    "selftest": {},
}

# per key, values a user might mean; mixed with the hostile VALUES below
PLAUSIBLE = {
    "n": [1, 2, 3], "s": [0, 1, 3, 7], "theta": [-1.0, 0.0, 3.0], "epsilons": ["uniform", [1.0, 0.0], [0.5, 1.5, 1.0]],
    "aux_mode": ["selective-cs", "explicit-uf"], "n_values": [[1], [2, 3]], "k": [1, 2, 3], "m_max": ["auto", 0, 12.0],
    "preset": ["grover-excitation", "identity", "cross-peak-demo"], "iterations": [0, 3],
    "p_axis": ["x", "y", "z"], "detect_axis": ["x", "y", "z"], "phi": [0.0, 1.0],
    "hamiltonian": [{"kind": "uniform-fz", "omega": 5.0}, {"kind": "weak-coupling", "offsets": [1.0, 2.0]}],
    "t1": [{"dt": 0.01, "points": 8}, {"dt": 0.5, "points": 32}],
    "N1": [9, 11], "tau_u": [0.3, 2.0], "tau_v": [0.2], "dominance": [0.0, 2.0],
    "method": ["trotter", "commutator", "sandwich", "cross-interaction", "fractal"],
    "operators": ["random", "su2-zx", "commuting"], "dim": [1, 2, 4], "t": [0.5, 2.0], "m": [1, 3],
    "x": [0.0, 0.05, -0.3], "level": [2, 4], "p_list": [[1.0], [0.3, 0.4, 0.3]],
    "order_side": ["A-outer", "B-outer"], "mode": ["compose", "difference"], "seed": [0, 5],
    "kind": ["uniform-fz", "weak-coupling"], "omega": [1.0, 100.0], "offsets": [[1.0, 2.0], [3.0]],
    "couplings": [[[1, 2, 1.0]], []], "dt": [0.01, 0.2], "points": [4, 16],
}
HOSTILE = st.one_of(
    st.sampled_from(
        [True, False, None, math.nan, math.inf, -math.inf, "", "q", 10**400, 1e300, 2.5,
         5e-324, -1e-310, 2 * T1_POINTS_MAX, COMPOSE_DIM_MAX + 1, GROVER_M_MAX + 1]
    ),
    st.integers(-2, 6),
    st.floats(-3, 3),
)
VALUES = st.recursive(
    HOSTILE,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "omega", "offsets", "dt", "points", "x"]), inner, max_size=3),
    max_leaves=6,
)
NESTED = {"hamiltonian": ["kind", "omega", "offsets", "couplings"], "t1": ["dt", "points"]}


@st.composite
def mutated(draw, cfg: dict, keys: list[str]):
    """cfg with up to three keys dropped, mutated in place or set anew."""
    cfg = dict(cfg)
    for k in draw(st.lists(st.sampled_from(keys + ["bogus"]), max_size=3, unique=True)):
        action = draw(st.sampled_from(["plausible", "plausible", "hostile", "drop", "nest"]))
        if action == "drop":
            cfg.pop(k, None)
        elif action == "nest" and isinstance(cfg.get(k), dict):
            cfg[k] = draw(mutated(cfg[k], NESTED[k]))
        elif action == "plausible" and k in PLAUSIBLE:
            cfg[k] = draw(st.sampled_from(PLAUSIBLE[k]))
        else:
            cfg[k] = draw(VALUES)
    return cfg


def _fake_selftest():
    return [InvariantResult(name="fake", residual=0.0, tolerance=1.0)]


@pytest.mark.parametrize("command", sorted(SMALL_VALID))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_configs_keep_the_exit_code_contract(command, data):
    keys = sorted(f.name for f in fields(cli.SCHEMAS[command]) if f.init)
    cfg = data.draw(mutated(SMALL_VALID[command], keys))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "run_selftest", _fake_selftest):
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code, _, report = run_cli(Path(tmp), command, cfg)
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    assert (report is not None) == (code == 0)
