"""Smoke tests: each script in scripts/ runs to completion in process."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == [
        "cross_peak_demo",
        "signal_enhancement_demo",
    ]


def test_cross_peak_demo(capsys):
    load("cross_peak_demo").main()
    tables = capsys.readouterr().out.split("dominance factor")[1:]
    assert [t.split("(")[0].strip() for t in tables] == ["1.0", "5.0", "20.0"]
    for table in tables:
        assert "(delta = 40 Hz)" in table
        orders = [int(line.split()[0]) for line in table.splitlines()[2:] if line.strip()]
        assert 0 in orders and orders == sorted(orders) and orders == [-o for o in orders[::-1]]


def test_signal_enhancement_demo(capsys):
    load("signal_enhancement_demo").main()
    out = capsys.readouterr().out
    assert "n=3, marked s=5, signs [-1  1 -1]" in out
    for label in ("r=4: agrees", "r=4 and r=7", "r=2 (complement of s)", "r=0..3: crowd"):
        assert label in out


def test_signal_enhancement_demo_asserts_the_prediction(monkeypatch):
    demo = load("signal_enhancement_demo")
    readout = demo.readout_with_extras
    monkeypatch.setattr(demo, "readout_with_extras", lambda extras: readout(extras) + 1e-11 * len(extras))
    with pytest.raises(AssertionError, match="r=4: agrees.*miss the sum-vector prediction by 1.00e-11"):
        demo.main()
